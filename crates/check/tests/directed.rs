//! Directed runs of the wCQ ring and the unbounded queue: a handle is
//! stopped at a chosen yield point while an intruder operates on the same
//! structure from the same thread ([`wcq_check::sched::with_intruder`]), so
//! an interleaving that real threads reach only by chance is reached every
//! time.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use wcq_check::sched::with_intruder;
use wcq_core::metrics::{Counter, CounterSet};
use wcq_core::wcq::{CellFamily, LlscFamily, NativeFamily, WcqConfig, WcqRing};
use wcq_unbounded::UnboundedWcq;

/// A queue of two-slot segments for two handles, recording into `set`.
fn counted(set: &Arc<CounterSet>) -> Rc<UnboundedWcq<u64, NativeFamily>> {
    Rc::new(UnboundedWcq::with_config_counters(
        1,
        2,
        WcqConfig::default(),
        Some(Arc::clone(set)),
    ))
}

/// The yield point between an enqueue's announcement and its check of
/// `next`.
const ANNOUNCE: &str = "segment.announce";

/// A producer admitted to a segment is refused by its free-index claim (⊥
/// from `fq`, then from the claim counter) because, while it was stopped
/// there, another producer filled the segment and linked a successor.  It retries on that successor; it builds no segment of its
/// own only to lose the link race and abandon it.
#[test]
fn a_producer_refused_by_a_linked_segment_retries_on_its_successor() {
    // Two-slot segments for two handles: a run of one free slot.
    let set = Arc::new(CounterSet::new());
    let q = counted(&set);
    let cap = q.segment_capacity() as u64;
    let armed = Rc::new(Cell::new(true));
    let intruder = {
        let (q, armed) = (Rc::clone(&q), Rc::clone(&armed));
        move |op: &'static str| {
            // Past the announcement, at the first ring step after it.
            if op != ANNOUNCE && armed.replace(false) {
                let mut b = q.register().expect("the intruder's slot");
                // `cap` values fill the segment; the next one closes it and
                // appends a successor.
                for v in 0..=cap {
                    b.enqueue(10 + v);
                }
            }
        }
    };
    with_intruder(intruder, || {
        let mut a = q.register().expect("the stopped producer's slot");
        // A's first ring step is in its first stash refill, once its
        // announcement on the first segment was admitted.
        a.enqueue(0);
    });
    assert!(!armed.get(), "the intruder never ran");
    // One append allocated (the constructor's first segment is no event).
    let snap = set.snapshot();
    assert_eq!(
        (
            snap.get(Counter::SegmentAllocs),
            snap.get(Counter::SegmentsReused),
            q.segment_stats().cached
        ),
        (1, 0, 0),
        "the refused producer built a segment it then abandoned: {snap:?}"
    );
    let mut h = q.register().expect("a slot");
    let drained: Vec<_> = std::iter::from_fn(|| h.dequeue()).collect();
    assert_eq!(drained, [10, 11, 12, 0]);
}

/// A producer stopped between publishing its announcement and reading
/// `next` is visible to every dequeuer: while it is stopped there, an
/// intruder fills the segment and links a successor, and then counts one
/// enqueue announced on the head segment.  Resumed, the producer reads the
/// link, is refused, and retries on the successor; nothing is lost.  With
/// the announcement published after the check (the `check-mutations`
/// mutant), the intruder counts nobody.
#[test]
fn a_producer_stopped_in_its_announcement_is_counted_by_the_crossing() {
    let set = Arc::new(CounterSet::new());
    let q = counted(&set);
    let cap = q.segment_capacity() as u64;
    let seen = Rc::new(Cell::new(None));
    let intruder = {
        let (q, seen) = (Rc::clone(&q), Rc::clone(&seen));
        move |op: &'static str| {
            if op == ANNOUNCE && seen.get().is_none() {
                let mut b = q.register().expect("the intruder's slot");
                // `cap` values fill the segment; the next one links a
                // successor after it.
                for v in 0..=cap {
                    b.enqueue(10 + v);
                }
                seen.set(Some((b.head_inflight(), b.settled())));
            }
        }
    };
    with_intruder(intruder, || {
        let mut a = q.register().expect("the stopped producer's slot");
        a.enqueue(0);
    });
    assert_eq!(
        seen.get(),
        Some((1, false)),
        "(announced on the head segment, settled) while the producer was stopped \
         in its announcement: an enqueue that has yet to read `next` was not counted"
    );
    let snap = set.snapshot();
    assert_eq!(
        (snap.get(Counter::SegmentAllocs), q.segment_stats().cached),
        (1, 0),
        "the refused producer built a segment: {snap:?}"
    );
    let mut h = q.register().expect("a slot");
    let drained: Vec<_> = std::iter::from_fn(|| h.dequeue()).collect();
    assert_eq!(drained, [10, 11, 12, 0]);
    assert_eq!(h.head_inflight(), 0);
}

/// The same window against the queue's close: a producer stopped in its
/// announcement keeps the closed queue from settling, and, resumed, is
/// refused by `SHUT`.  An announcement published after its check would come
/// too late: the closed queue would settle while the producer went on to
/// deposit into it.  (The `check-mutations` build also closes without
/// linking `SHUT`, so there this test fails on the count alone.)
#[test]
fn a_producer_stopped_in_its_announcement_keeps_a_closed_queue_unsettled() {
    let q = Rc::new(UnboundedWcq::<u64, NativeFamily>::new(2, 2));
    let seen = Rc::new(Cell::new(None));
    let intruder = {
        let (q, seen) = (Rc::clone(&q), Rc::clone(&seen));
        move |op: &'static str| {
            if op == ANNOUNCE && seen.get().is_none() {
                let mut b = q.register().expect("the intruder's slot");
                b.enqueue(10);
                b.close();
                seen.set(Some((b.head_inflight(), b.settled())));
            }
        }
    };
    let refused = with_intruder(intruder, || {
        let mut a = q.register().expect("the stopped producer's slot");
        a.try_enqueue(0)
    });
    assert_eq!(
        seen.get(),
        Some((1, false)),
        "(announced on the head segment, settled) while the producer was stopped \
         in its announcement: the closed queue settled around it"
    );
    assert_eq!(refused, Err(0), "an enqueue that read `SHUT` was accepted");
    let mut h = q.register().expect("a slot");
    assert_eq!(h.dequeue(), Some(10));
    assert_eq!(h.dequeue(), None);
    assert!(h.settled());
}

/// A handle stopped in a memo miss pins one segment, not two.  Its memo is
/// the tail segment, where its stash holds a claimed index, and it dequeues
/// from the older head: the miss gives the stash back to the old memo first,
/// and it is stopped at the first yield point of that give-back.  While it
/// is stopped, an intruder drains past both segments, appends, drains again
/// and flushes reclamation: the head the stopped dequeue was about to move
/// to goes back to the cache, and only its memo stays retired and pinned.
#[test]
fn a_handle_stopped_in_a_memo_miss_pins_one_segment() {
    // 16-slot segments for two handles: stash runs of 2.
    let q = Rc::new(UnboundedWcq::<u64, NativeFamily>::new(4, 2));
    let cap = q.segment_capacity() as u64;
    let armed = Rc::new(Cell::new(false));
    let seen = Rc::new(Cell::new(None));
    let intruder = {
        let (q, armed, seen) = (Rc::clone(&q), Rc::clone(&armed), Rc::clone(&seen));
        move |_op: &'static str| {
            if !armed.replace(false) {
                return;
            }
            let mut b = q.register().expect("the intruder's slot");
            // Past the head segment and the stopped handle's memo: both
            // drained, and the head moved onto the memo.
            let drained: Vec<_> = std::iter::from_fn(|| b.dequeue()).collect();
            assert_eq!(drained, (0..=cap + 1).collect::<Vec<_>>());
            // The memo fills and links a successor; draining again moves
            // the head past the memo.
            for v in 0..2 * cap {
                b.enqueue(100 + v);
            }
            let drained: Vec<_> = std::iter::from_fn(|| b.dequeue()).collect();
            assert_eq!(drained, (100..100 + 2 * cap).collect::<Vec<_>>());
            b.flush_reclamation();
            seen.set(Some(q.segment_stats()));
        }
    };
    with_intruder(intruder, || {
        let mut a = q.register().expect("the stopped handle's slot");
        // `cap` values fill the head segment, the next one links the tail
        // segment, and the one after it moves the memo there and claims a
        // run of two indices: one left in the stash.
        for v in 0..=cap + 1 {
            a.enqueue(v);
        }
        armed.set(true);
        assert_eq!(a.dequeue(), None, "the intruder drained everything");
    });
    let stats = seen.get().expect("the intruder never ran");
    assert!(
        stats.resident() <= stats.live + stats.cached + 1,
        "a handle stopped in a memo miss pinned more than one retired segment: {stats:?}"
    );
}

/// A batch enqueue whose run of tail tickets meets a burned one: producer A
/// reserves four tickets for `[0, 1, 2, 3]` on an order-2 ring, and after
/// its first deposit an intruder's batch dequeue of two takes 0 and burns
/// the ticket reserved for 1 (its miss there is dropped, not retried, since
/// the batch got a value).  Resumed, A's deposit of 1 misses, so 1 takes a
/// fresh ticket, and 2 and 3 must reserve a new run behind it: a batch that
/// kept riding its first run would put 2 and 3 at their old tickets, ahead
/// of 1.  Every index comes out once, in order, and each is one ring
/// enqueue.
fn batch_run_meets_a_burned_ticket<F: CellFamily>() {
    let set = Arc::new(CounterSet::new());
    let ring = Rc::new(WcqRing::<F>::with_config_counters(
        2,
        2,
        WcqConfig::default(),
        Some(Arc::clone(&set)),
    ));
    let taken = Rc::new(RefCell::new(None));
    let intruder = {
        let (ring, set, taken) = (Rc::clone(&ring), Arc::clone(&set), Rc::clone(&taken));
        move |_op: &'static str| {
            // The first yield point after A's first deposit.
            if set.snapshot().get(Counter::RingEnqueues) == 1 && taken.borrow().is_none() {
                let mut b = ring.register().expect("the intruder's slot");
                let mut out = Vec::new();
                b.dequeue_many(&mut out, 2);
                *taken.borrow_mut() = Some(out);
            }
        }
    };
    with_intruder(intruder, || {
        let mut a = ring.register().expect("the stopped producer's slot");
        a.enqueue_many(&[0, 1, 2, 3]);
    });
    assert_eq!(
        taken.take(),
        Some(vec![0]),
        "the intruder ran after A's first deposit and took it, burning the next ticket"
    );
    let mut h = ring.register().expect("a slot");
    let drained: Vec<_> = std::iter::from_fn(|| h.dequeue()).collect();
    assert_eq!(drained, [1, 2, 3], "the batch lost an index or its order");
    assert_eq!(set.snapshot().get(Counter::RingEnqueues), 4);
}

#[test]
fn a_batch_run_that_meets_a_burned_ticket_reserves_a_new_run_native() {
    batch_run_meets_a_burned_ticket::<NativeFamily>();
}

#[test]
fn a_batch_run_that_meets_a_burned_ticket_reserves_a_new_run_llsc() {
    batch_run_meets_a_burned_ticket::<LlscFamily>();
}
