//! Handle-lifecycle coverage for the `wcq` facade:
//!
//! * RAII: dropping a handle releases its record slot, and the next
//!   registration gets the same tid with one CAS via the registry's hint;
//! * a registration belongs to its handle, not its thread: a handle
//!   registered on one thread runs and drops on another under the forced
//!   slow path, and its slot comes back;
//! * exhaustion surfaces through `try_handle`, recovery through drop;
//! * a handle leaked with `mem::forget` costs its one slot, and an unbounded
//!   producer leaked with a stashed free index pins at most two segments,
//!   and its queue still drops cleanly;
//! * the unbounded handle's segment memo survives forced segment
//!   growth (tiny `ring_order = 4` segments) without losing values, both
//!   through the concrete API and through the boxed facade trait;
//! * all 11 `QueueKind`s hand out working handles through the public trait.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

use wcq::{
    Counter, CountingInstrument, QueueHandle, UnboundedWcq, WaitFreeQueue, WcqConfig, WcqQueue,
};
use wcq_harness::{make_queue, QueueKind};

#[test]
fn bounded_handle_drop_releases_the_record_slot() {
    let q: WcqQueue<u64> = wcq::builder().capacity_order(6).threads(2).build_bounded();
    let h1 = q.register().unwrap();
    let h2 = q.register().unwrap();
    let (t1, t2) = (h1.tid(), h2.tid());
    assert_ne!(t1, t2);
    assert!(q.register().is_none(), "both slots taken");
    drop(h1);
    let h3 = q.register().expect("drop must release the slot");
    assert_eq!(h3.tid(), t1, "re-entry lands on the hinted tid");
    drop(h2);
    drop(h3);
}

#[test]
fn unbounded_handle_drop_releases_the_record_slot() {
    let q: UnboundedWcq<u64> = wcq::builder()
        .capacity_order(6)
        .threads(2)
        .build_unbounded();
    let mut h1 = q.handle();
    h1.enqueue(7); // establish a segment binding before dropping
    let tid = h1.tid();
    let _h2 = q.handle();
    assert!(q.register().is_none());
    drop(h1);
    let h3 = q
        .register()
        .expect("drop must release the slot (and its binding)");
    assert_eq!(h3.tid(), tid);
}

#[test]
fn facade_handles_are_raii_for_every_registration_limited_kind() {
    for kind in [
        QueueKind::Wcq,
        QueueKind::WcqLlsc,
        QueueKind::MsQueue,
        QueueKind::Lcrq,
        QueueKind::CcQueue,
        QueueKind::CrTurn,
        QueueKind::WcqUnbounded,
        QueueKind::WcqUnboundedLlsc,
    ] {
        let q = make_queue(kind, 1, 8);
        let h = q.try_handle().expect("one slot free");
        assert!(q.try_handle().is_none(), "kind {kind:?}: limit enforced");
        drop(h);
        assert!(q.try_handle().is_some(), "kind {kind:?}: slot released");
    }
}

#[test]
fn every_kind_hands_out_working_trait_handles() {
    let kinds = QueueKind::all();
    assert_eq!(kinds.len(), 11);
    for kind in kinds {
        let q = make_queue(kind, 2, 8);
        let mut h = q.handle();
        h.enqueue(5);
        assert_eq!(h.dequeue(), Some(5), "kind {kind:?}");
    }
}

#[test]
fn segment_memo_survives_forced_growth_without_missing_values() {
    // ring_order = 4: 16-slot segments, so 2_000 values cross ~125 segments
    // while a consumer chases the producer.  The segment memo must follow
    // head/tail across every transition without losing or reordering values.
    const ITEMS: u64 = 2_000;
    let instr = CountingInstrument::new();
    let q: UnboundedWcq<u64> = wcq::builder()
        .capacity_order(4)
        .threads(3)
        .instrument(instr.clone())
        .build_unbounded();
    // Rebind tallies flush on handle drop: the consumer keeps its handle
    // until the producer has read its own.
    let producer_read = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.handle();
            for i in 0..ITEMS {
                h.enqueue(i);
            }
            drop(h);
            let rebinds = instr.snapshot().get(Counter::SegmentRebinds);
            producer_read.wait(); // before the assert: a panic must not strand the consumer
            assert!(rebinds > 1, "growth must have moved the producer's binding");
        });
        s.spawn(|| {
            let mut h = q.handle();
            let mut expected = 0u64;
            while expected < ITEMS {
                if let Some(v) = h.dequeue() {
                    assert_eq!(v, expected, "single consumer must observe FIFO");
                    expected += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            producer_read.wait();
        });
    });
    let mut h = q.handle();
    assert_eq!(h.dequeue(), None, "fully drained");
    h.flush_reclamation();
    drop(h);
    assert_eq!(
        q.segment_stats().live,
        1,
        "drained queue returns to one live segment"
    );
}

#[test]
fn segment_memo_amortizes_binding_on_the_stay_in_one_segment_case() {
    let instr = CountingInstrument::new();
    let q: UnboundedWcq<u64> = wcq::builder()
        .capacity_order(8)
        .threads(1)
        .instrument(instr.clone())
        .build_unbounded();
    let mut h = q.handle();
    for round in 0..50u64 {
        for i in 0..100 {
            h.enqueue(round * 100 + i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(round * 100 + i));
        }
    }
    // 10_000 operations, one 256-slot segment: exactly one bind, ever.
    drop(h); // flushes the handle-local tally
    assert_eq!(instr.snapshot().get(Counter::SegmentRebinds), 1);
}

#[test]
fn empty_hint_is_meaningful_for_counting_kinds_and_conservative_elsewhere() {
    for kind in QueueKind::all() {
        let q = make_queue(kind, 2, 6);
        let counting = kind.has_len_hint();
        if counting {
            assert!(q.is_empty_hint(), "kind {kind:?}: fresh queue hints empty");
        }
        let mut h = q.handle();
        h.enqueue(1);
        assert!(
            !q.is_empty_hint(),
            "kind {kind:?}: a non-empty queue must never hint empty \
             (false is the conservative default for non-counting kinds)"
        );
        assert_eq!(h.dequeue(), Some(1), "kind {kind:?}");
        if counting {
            assert!(
                q.is_empty_hint(),
                "kind {kind:?}: drained queue hints empty"
            );
        }
    }
}

/// Runs `op`, which must panic, and returns the panic message.
///
/// The panic is expected, so the default hook is silenced for just that call
/// to keep the test log readable.  The hook is process global (parallel
/// tests in this binary share it), so the blind window is confined to the
/// intentional panic, and an RAII guard restores the hook even if the
/// expected panic fails to materialize.
fn exhaustion_panic(op: impl FnOnce()) -> String {
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    struct HookGuard(Option<PanicHook>);
    impl Drop for HookGuard {
        fn drop(&mut self) {
            std::panic::set_hook(self.0.take().expect("restored once"));
        }
    }
    let caught = {
        let _guard = HookGuard(Some(std::panic::take_hook()));
        std::panic::set_hook(Box::new(|_| {}));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(op))
    };
    match caught {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
        Ok(()) => panic!("handle() must panic when every slot is taken"),
    }
}

#[test]
fn registration_slot_exhaustion_is_uniform_across_all_kinds() {
    // For every one of the 11 kinds — `try_handle()`
    // returns `None` at `max_threads`, a dropped handle frees the slot, and
    // the panicking `handle()` names the queue and the limit.  Kinds without
    // registration (`max_threads == usize::MAX`) hand out handles without
    // ever exhausting.
    for kind in QueueKind::all() {
        let q = make_queue(kind, 2, 8);
        if q.max_threads() == usize::MAX {
            // Unregistered kinds: any number of simultaneous handles.
            let _a = q.handle();
            let _b = q.handle();
            let _c = q.handle();
            continue;
        }
        assert_eq!(q.max_threads(), 2, "kind {kind:?}");
        let a = q.try_handle().expect("slot 1 free");
        let b = q.try_handle().expect("slot 2 free");
        assert!(
            q.try_handle().is_none(),
            "kind {kind:?}: exhausted at max_threads"
        );
        let message = exhaustion_panic(|| {
            let _ = q.handle();
        });
        assert!(
            message.contains(q.name()) && message.contains("all 2 registration slots"),
            "kind {kind:?}: exhaustion panic must name the queue and the limit, got {message:?}"
        );
        drop(a);
        let a_again = q.try_handle();
        assert!(
            a_again.is_some(),
            "kind {kind:?}: dropped handle frees its slot"
        );
        drop(a_again);
        drop(b);
        // Fully released: both slots reusable.
        let x = q.try_handle().expect("slot free after full release");
        let y = q.try_handle().expect("second slot free after full release");
        drop((x, y));
    }
}

#[test]
fn builder_is_the_single_construction_path_for_both_shapes() {
    // The same builder (with the same knobs) produces both queue shapes, so
    // a config cannot drift between the bounded and the unbounded variant.
    let b = wcq::builder()
        .capacity_order(5)
        .threads(4)
        .config(WcqConfig {
            max_patience_enqueue: 8,
            max_patience_dequeue: 32,
            ..Default::default()
        });
    let bounded = b.clone().build_bounded::<u64>();
    let unbounded = b.build_unbounded::<u64>();
    assert_eq!(bounded.capacity(), 32);
    assert_eq!(unbounded.segment_capacity(), 32);
    assert_eq!(bounded.config().max_patience_enqueue, 8);
    assert_eq!(bounded.config().max_patience_dequeue, 32);
    let mut hb = bounded.register().unwrap();
    let mut hu = unbounded.handle();
    hb.enqueue(1).unwrap();
    hu.enqueue(1);
    assert_eq!(hb.dequeue(), Some(1));
    assert_eq!(hu.dequeue(), Some(1));
}

/// Values each of the two producers in [`a_moved_handle_keeps_its_slot`]
/// sends.
const PER_PRODUCER: u64 = 2_000;

/// Enqueues `producer`'s stream of `(producer, i)` and dequeues whatever is
/// there, until this stream is sent and both streams are consumed (or the
/// other side is gone).  Returns what this handle dequeued, in order.
fn exchange<H: QueueHandle<(u64, u64)>>(
    h: &mut H,
    producer: u64,
    consumed: &AtomicU64,
    other_gone: &AtomicBool,
) -> Vec<(u64, u64)> {
    let mut got = Vec::new();
    let mut next = 0;
    while next < PER_PRODUCER
        || (consumed.load(SeqCst) < 2 * PER_PRODUCER && !other_gone.load(SeqCst))
    {
        if next < PER_PRODUCER && h.try_enqueue((producer, next)).is_ok() {
            next += 1;
        }
        match h.dequeue() {
            Some(v) => {
                got.push(v);
                consumed.fetch_add(1, SeqCst);
            }
            None => std::thread::yield_now(),
        }
    }
    got
}

/// Sets its flag when dropped, on a normal return and on a panic alike.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, SeqCst);
    }
}

/// The contract `Send` stands for, on a two-slot queue under the forced slow
/// path: a handle registered on thread A is moved to thread B, operated and
/// dropped there, while thread C holds the other slot and operates
/// throughout.  Nothing is lost or duplicated, each producer's values reach
/// each consumer in order, and the slot comes back: A's next registration —
/// made while C still holds its slot — gets the moved handle's tid.
fn a_moved_handle_keeps_its_slot<H: QueueHandle<(u64, u64)> + Send>(
    register: impl Fn() -> Option<H> + Sync,
    tid: impl Fn(&H) -> usize,
) {
    let moved = register().expect("thread A registers first");
    let home = tid(&moved);
    let consumed = &AtomicU64::new(0);
    let (b_gone, c_gone, rechecked) = (
        &AtomicBool::new(false),
        &AtomicBool::new(false),
        &AtomicBool::new(false),
    );
    let register = &register;
    let (again, from_b, from_c) = std::thread::scope(|s| {
        let b = s.spawn(move || {
            let _gone = SetOnDrop(b_gone);
            let mut h = moved;
            let got = exchange(&mut h, 0, consumed, c_gone);
            drop(h); // released on B
            got
        });
        let c = s.spawn(move || {
            let _gone = SetOnDrop(c_gone);
            let mut h = register().expect("thread C takes the other slot");
            let mut got = exchange(&mut h, 1, consumed, b_gone);
            // Keep the slot, and keep polling, until A has re-registered.
            while !rechecked.load(SeqCst) {
                got.extend(h.dequeue());
                std::thread::yield_now();
            }
            got
        });
        let from_b = b.join();
        let again = register().map(|h| tid(&h));
        rechecked.store(true, SeqCst);
        (
            again,
            from_b.expect("thread B"),
            c.join().expect("thread C"),
        )
    });
    assert_eq!(again, Some(home), "the moved handle's slot came back to A");
    for (side, got) in [("B", &from_b), ("C", &from_c)] {
        let mut last = [None; 2];
        for &(p, i) in got.iter() {
            assert!(
                last[p as usize].is_none_or(|prev| prev < i),
                "{side}: producer {p}'s values out of order at {i}"
            );
            last[p as usize] = Some(i);
        }
    }
    let mut all: Vec<(u64, u64)> = from_b.into_iter().chain(from_c).collect();
    all.sort_unstable();
    let expected: Vec<(u64, u64)> = (0..2)
        .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p, i)))
        .collect();
    assert_eq!(all, expected, "every value exactly once");
}

/// Every operation down the slow path: patience 1, helping on every op.
fn forced_slow_path() -> wcq::QueueBuilder {
    wcq::builder()
        .capacity_order(4)
        .threads(2)
        .config(WcqConfig {
            max_patience_enqueue: 1,
            max_patience_dequeue: 1,
            help_delay: 1,
            ..Default::default()
        })
}

#[test]
fn a_bounded_handle_registered_on_one_thread_runs_and_drops_on_another() {
    let q: WcqQueue<(u64, u64)> = forced_slow_path().build_bounded();
    a_moved_handle_keeps_its_slot(|| q.register(), |h| h.tid());
}

#[test]
fn an_unbounded_handle_registered_on_one_thread_runs_and_drops_on_another() {
    let q: UnboundedWcq<(u64, u64)> = forced_slow_path().build_unbounded();
    a_moved_handle_keeps_its_slot(|| q.register(), |h| h.tid());
}

/// A bounded handle leaked with `mem::forget` costs exactly its one
/// registration slot: the other `threads − 1` slots register, a full registry
/// refuses with the documented panic, and the surviving handles move every
/// value (the leaked handle's included) with no loss, under the forced slow
/// path, so their helping scans pass the leaked handle's idle record.
#[test]
fn a_leaked_bounded_handle_costs_exactly_its_slot() {
    const THREADS: usize = 3;
    const ITEMS: u64 = 5_000;
    let q: WcqQueue<u64> = forced_slow_path().threads(THREADS).build_bounded();
    let mut leaked = q.register().expect("a fresh queue has a free slot");
    leaked.enqueue(0).expect("an empty queue has room");
    std::mem::forget(leaked);

    let rest: Vec<_> = (1..THREADS).map_while(|_| q.try_handle()).collect();
    assert_eq!(rest.len(), THREADS - 1, "every other slot registers");
    assert!(q.try_handle().is_none(), "the leaked handle kept its slot");
    let message = exhaustion_panic(|| {
        let _ = WaitFreeQueue::handle(&q);
    });
    let expected = format!("all {THREADS} registration slots of this wCQ queue are in use");
    assert!(message.contains(&expected), "{message:?}");
    drop(rest);

    // The survivors, as `Send` handles on two threads.
    let (mut producer, mut consumer) = (q.register().unwrap(), q.register().unwrap());
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 1..ITEMS {
                while producer.enqueue(i).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        s.spawn(move || {
            for expected in 0..ITEMS {
                let v = loop {
                    match consumer.dequeue() {
                        Some(v) => break v,
                        None => std::thread::yield_now(),
                    }
                };
                assert_eq!(v, expected, "one producer at a time: FIFO, nothing lost");
            }
            assert_eq!(consumer.dequeue(), None);
        });
    });
}

/// Runs [`a_leaked_producer_costs_one_slot_and_at_most_two_segments`]'s
/// traffic on a fresh queue, leaking its first producer or dropping it, and
/// returns the queue's resident segments once the other handles are gone.
///
/// 32-slot segments and three registrations make the derived free-slot run
/// 2, so the first producer's three sends leave one claimed index in its
/// stash, and its memo (hazard slot 0) pins the head segment.
fn leaked_producer_traffic(q: &UnboundedWcq<u64>, leak: bool) -> usize {
    const SEGMENT: u64 = 32;
    const ROUNDS: u64 = 6;
    let mut first = q.register().expect("a fresh queue has a free slot");
    for i in 0..3 {
        first.enqueue(i);
    }
    if leak {
        std::mem::forget(first);
    } else {
        drop(first);
    }
    let mut producer = q.handle();
    let mut consumer = q.handle();
    assert_eq!(q.register().is_none(), leak, "the leak costs one slot");

    // A leaked stash is lost with its handle: the head segment takes one
    // value fewer before the next one is linked.
    for i in 3..SEGMENT {
        producer.enqueue(i);
    }
    assert_eq!(q.segment_stats().live, 1 + usize::from(leak));

    // Four segments' worth and more through the queue and back, in rounds
    // that carry the head past the leaked handle's memo.
    let mut next = 0;
    for round in 0..ROUNDS {
        for i in 0..2 * SEGMENT {
            producer.enqueue(SEGMENT * (1 + 2 * round) + i);
        }
        while let Some(v) = consumer.dequeue() {
            assert_eq!(v, next, "a single producer at a time: FIFO, nothing lost");
            next += 1;
        }
    }
    assert_eq!(next, SEGMENT * (1 + 2 * ROUNDS), "every value once");
    drop((producer, consumer));
    q.segment_stats().resident()
}

/// A queue the leaked-producer traffic runs on: 32-slot segments, three
/// registrations.
fn leaked_producer_queue() -> UnboundedWcq<u64> {
    wcq::builder()
        .capacity_order(5)
        .threads(3)
        .build_unbounded()
}

/// An unbounded producer leaked with `mem::forget` while its stash holds a
/// free index costs one registration slot, loses and duplicates nothing, and
/// pins at most one segment per hazard slot: resident segments exceed the
/// same run's without the leak by at most 2.
#[test]
fn a_leaked_producer_costs_one_slot_and_at_most_two_segments() {
    let clean = leaked_producer_traffic(&leaked_producer_queue(), false);
    let q = leaked_producer_queue();
    let leaked = leaked_producer_traffic(&q, true);
    assert!(
        leaked <= clean + 2,
        "leaked {leaked} vs clean {clean}: {:?}",
        q.segment_stats()
    );
}

/// Dropping a queue after a producer leaked with indices in its stash frees
/// everything.  The head segment the leaked handle pinned is an orphan of
/// the hazard domain, whose drop hands it back with the leaked stash's
/// indices never deposited at; the cache renews a segment only when it is
/// taken for reuse, and this one is only ever freed.
#[test]
fn a_queue_drops_cleanly_after_a_producer_leaked_its_stash() {
    let q = leaked_producer_queue();
    leaked_producer_traffic(&q, true);
    drop(q);
}
