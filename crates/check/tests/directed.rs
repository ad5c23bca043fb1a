//! Directed runs of the unbounded queue: a handle is stopped at a chosen
//! yield point while an intruder operates on the queue from the same thread
//! ([`wcq_check::sched::with_intruder`]), so an interleaving that real
//! threads reach only by chance is reached every time.

use std::cell::Cell;
use std::rc::Rc;

use wcq_check::sched::with_intruder;
use wcq_check::CheckedFamily;
use wcq_unbounded::UnboundedWcq;

/// A producer inside its gate claim is refused by `fq` because, while it
/// was stopped there, another producer filled the segment, closed it and
/// linked a successor.  It retries on that successor; it builds no segment
/// of its own only to lose the link race and abandon it.
#[test]
fn a_producer_refused_by_a_linked_segment_retries_on_its_successor() {
    // Two-slot segments for two handles: a run of one free slot.
    let q = Rc::new(UnboundedWcq::<u64, CheckedFamily>::new(1, 2));
    let cap = q.segment_capacity() as u64;
    let armed = Rc::new(Cell::new(true));
    let intruder = {
        let (q, armed) = (Rc::clone(&q), Rc::clone(&armed));
        move |_op: &'static str| {
            if armed.replace(false) {
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
        // A's first yield point is in its first stash refill, inside its
        // gate claim on the first segment.
        a.enqueue(0);
    });
    assert!(!armed.get(), "the intruder never ran");
    let stats = q.segment_stats();
    assert_eq!(
        (stats.allocated_total, stats.reused_total, stats.cached),
        (2, 0, 0),
        "the refused producer built a segment it then abandoned: {stats:?}"
    );
    let mut h = q.register().expect("a slot");
    let drained: Vec<_> = std::iter::from_fn(|| h.dequeue()).collect();
    assert_eq!(drained, [10, 11, 12, 0]);
}
