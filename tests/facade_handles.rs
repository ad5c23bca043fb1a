//! Handle-lifecycle coverage for the `wcq` facade (ISSUE 3):
//!
//! * RAII: dropping a handle releases its record slot, and the same thread
//!   re-registers at the same tid in O(1) via the thread-local memo;
//! * exhaustion surfaces through `try_handle`, recovery through drop;
//! * the unbounded handle's segment memo survives forced segment
//!   growth (tiny `ring_order = 4` segments) without losing values, both
//!   through the concrete API and through the boxed facade trait;
//! * all 11 `QueueKind`s hand out working handles through the public trait.
//!
//! (`!Send`-ness of the handles is enforced at compile time by the
//! `compile_fail` doctests on `WcqQueueHandle` and `UnboundedWcqHandle`.)

use wcq::{Counter, CountingInstrument, UnboundedWcq, WcqQueue};
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
    assert_eq!(h3.tid(), t1, "same thread re-enters at its memoized tid");
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
        q.segments_live(),
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

#[test]
fn registration_slot_exhaustion_is_uniform_across_all_kinds() {
    // For every one of the 11 kinds — `try_handle()`
    // returns `None` at `max_threads`, a dropped handle frees the slot, and
    // the panicking `handle()` names the queue and the limit.  Kinds without
    // registration (`max_threads == usize::MAX`) hand out handles without
    // ever exhausting.
    //
    // The `handle()` panic below is expected; silence the default hook for
    // just that call so the test log stays readable.  The hook is process
    // global (parallel tests in this binary share it), so the blind window
    // is confined to the intentional panic, and an RAII guard restores the
    // hook even if the expected panic fails to materialize.
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    struct HookGuard(Option<PanicHook>);
    impl Drop for HookGuard {
        fn drop(&mut self) {
            std::panic::set_hook(self.0.take().expect("restored once"));
        }
    }
    fn catch_expected_panic(op: impl FnOnce()) -> std::thread::Result<()> {
        let _guard = HookGuard(Some(std::panic::take_hook()));
        std::panic::set_hook(Box::new(|_| {}));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(op))
    }
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
        let panic_payload = match catch_expected_panic(|| {
            let _ = q.handle();
        }) {
            Err(payload) => payload,
            Ok(()) => panic!("kind {kind:?}: handle() must panic when exhausted"),
        };
        let message = panic_payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
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
    let b = wcq::builder().capacity_order(5).threads(4).patience(8, 32);
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
