//! Segment-lifecycle acceptance tests for `wcq-unbounded` (wLSCQ).
//!
//! The unbounded queue's memory story is the whole point of building it from
//! wCQ rings: growth is driven only by real backlog, drained segments are
//! retired through hazard pointers, and the live segment count returns to the
//! steady-state bound (one tail segment) after every drain — unlike LCRQ,
//! whose premature ring closes leak whole rings' worth of capacity
//! (Figure 10a of the paper).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wcq_core::metrics::{Counter, CounterSet, CountingInstrument};
use wcq_core::wcq::{CellFamily, LlscFamily, NativeFamily, WcqConfig};
use wcq_unbounded::{UnboundedWcq, UnboundedWcqHandle, DEFAULT_SEGMENT_CACHE};

/// Enqueue bursts far beyond one segment, drain completely, and require the
/// live segment count to return to 1 (the steady-state bound) with total
/// residency capped by the segment cache.  A lone handle reclaims each
/// drained segment the moment it retires: at every point of the drain
/// nothing waits in the retire buffer, and every resident segment is either
/// linked or cached.
fn burst_drain_returns_to_steady_state<F: CellFamily>() {
    const SEG_ORDER: u32 = 4; // 16-slot segments
    const BURST: u64 = 200; // >> segment capacity: forces many appends
    let set = Arc::new(CounterSet::new());
    let q: UnboundedWcq<u64, F> = UnboundedWcq::with_config_counters(
        SEG_ORDER,
        2,
        WcqConfig::default(),
        Some(Arc::clone(&set)),
    );
    let mut h = q.register().unwrap();

    for round in 0..5u64 {
        for i in 0..BURST {
            h.enqueue(round * BURST + i);
        }
        assert!(
            q.segment_stats().live as u64 >= BURST / (1 << SEG_ORDER),
            "burst must grow the queue: {:?}",
            q.segment_stats()
        );
        for i in 0..BURST {
            assert_eq!(h.dequeue(), Some(round * BURST + i), "FIFO across segments");
            let stats = q.segment_stats();
            assert_eq!(stats.retired_pending, 0, "round {round}, {i}: {stats:?}");
            assert_eq!(stats.resident(), stats.live + stats.cached, "{stats:?}");
        }
        assert_eq!(h.dequeue(), None);

        let stats = q.segment_stats();
        assert_eq!(
            stats.live, 1,
            "drain must shrink back to one segment: {stats:?}"
        );
        assert_eq!(
            stats.retired_pending, 0,
            "retirement reclaims every retired segment: {stats:?}"
        );
        assert!(
            stats.resident() <= 1 + DEFAULT_SEGMENT_CACHE,
            "residency bounded by live + cache: {stats:?}"
        );
    }
    // Across five identical rounds the cache must serve appends: the number
    // of genuine allocations stays far below the number of appends.
    let snap = set.snapshot();
    assert!(snap.get(Counter::SegmentsReused) > 0, "{snap:?}");
}

#[test]
fn burst_drain_returns_to_steady_state_native() {
    burst_drain_returns_to_steady_state::<NativeFamily>();
}

#[test]
fn burst_drain_returns_to_steady_state_llsc() {
    wcq_atomics::llsc::set_spurious_failure_rate(0.0);
    burst_drain_returns_to_steady_state::<LlscFamily>();
}

/// A segment another handle's memo pins when it retires is deferred — that
/// segment and no other — and the retirer's next retirement reclaims it once
/// the pin has moved on.
#[test]
fn a_pinned_segment_waits_for_the_retirers_next_retirement() {
    let q: UnboundedWcq<u64> = UnboundedWcq::new(4, 2); // 16-slot segments
    let mut retirer = q.register().unwrap();
    let mut pinner = q.register().unwrap();
    // Segments S0 and S1 full, S2 half full.
    for i in 0..40 {
        retirer.enqueue(i);
    }
    // The pinner's memo moves onto the head segment S0.
    assert_eq!(pinner.dequeue(), Some(0));
    // The retirer drains past S0 (deferred: pinned) and S1 (reclaimed).
    for i in 1..40 {
        assert_eq!(retirer.dequeue(), Some(i));
    }
    assert_eq!(retirer.dequeue(), None);
    let stats = q.segment_stats();
    assert_eq!(stats.live, 1, "{stats:?}");
    assert_eq!(
        stats.retired_pending, 1,
        "exactly S0 is deferred: {stats:?}"
    );

    // Fill S2 and open S3; the pinner's memo moves onto the tail, S3.
    for i in 40..64 {
        retirer.enqueue(i);
    }
    pinner.enqueue(64);
    assert_eq!(
        q.segment_stats().retired_pending,
        1,
        "nothing re-scans before the next retirement"
    );
    // Retiring S2 reclaims S2 and the now unpinned S0.
    for i in 40..65 {
        assert_eq!(retirer.dequeue(), Some(i));
    }
    let stats = q.segment_stats();
    assert_eq!(stats.retired_pending, 0, "{stats:?}");
    assert_eq!(stats.resident(), stats.live + stats.cached, "{stats:?}");
}

/// The bound the unbounded queue states: with one handle retiring, once it
/// has retired a segment while every other handle is between operations, at
/// most one retired segment per other handle is still unreclaimed — the one
/// that handle's memo pins.  Three producers in seeded bursts against one
/// consumer over 16-slot segments; the consumer keeps four segments behind
/// until the producers are done, so its last retirements run at quiescence.
#[test]
fn retired_but_unreclaimed_segments_are_bounded_by_the_other_handles() {
    const PRODUCERS: u64 = 3;
    const PER_PRODUCER: u64 = 1_500;
    const TOTAL: u64 = PRODUCERS * PER_PRODUCER;
    const LAG: u64 = 4 * 16;
    /// Releases the producers however the consumer's checks end, so a
    /// failed assertion fails the test instead of hanging it.
    struct Release<'a>(&'a AtomicU64);
    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.store(1, Ordering::SeqCst);
        }
    }
    for seed in 1..=4u64 {
        let q: UnboundedWcq<u64> = UnboundedWcq::new(4, PRODUCERS as usize + 1);
        let done = AtomicU64::new(0);
        let checked = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (q, done, checked) = (&q, &done, &checked);
                s.spawn(move || {
                    let mut rng = wcq_harness::rng::DetRng::new(seed).stream(p);
                    let mut h = q.register().unwrap();
                    let mut seq = 0;
                    while seq < PER_PRODUCER {
                        let burst = rng.range_inclusive(1, 40).min(PER_PRODUCER - seq);
                        for _ in 0..burst {
                            h.enqueue(p << 32 | seq);
                            seq += 1;
                        }
                        std::thread::yield_now();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    // Hold the handle, and with it the memo, until the
                    // consumer has checked the bound.
                    while checked.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                });
            }
            let _release = Release(&checked);
            let mut h = q.register().unwrap();
            let mut taken = 0;
            while taken < TOTAL {
                let held_back = taken >= TOTAL - LAG && done.load(Ordering::SeqCst) < PRODUCERS;
                if !held_back && h.dequeue().is_some() {
                    taken += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            assert_eq!(h.dequeue(), None);
            let stats = q.segment_stats();
            assert!(
                stats.retired_pending <= PRODUCERS as usize,
                "seed {seed}: {stats:?}"
            );
            assert_eq!(stats.live, 1, "seed {seed}: {stats:?}");
        });
    }
}

/// Concurrent producers/consumers over tiny segments: constant segment churn
/// with the forced wCQ slow path, then a full drain returns to the bound.
#[test]
fn concurrent_churn_with_forced_slow_path_returns_to_bound() {
    const PRODUCERS: u64 = 2;
    const CONSUMERS: u64 = 2;
    const PER_PRODUCER: u64 = 4_000;
    let cfg = WcqConfig {
        max_patience_enqueue: 1,
        max_patience_dequeue: 1,
        help_delay: 1,
        catchup_bound: 8,
    };
    let instr = CountingInstrument::new();
    let q: UnboundedWcq<u64> = wcq::builder()
        .capacity_order(4)
        .threads((PRODUCERS + CONSUMERS) as usize)
        .config(cfg)
        .instrument(instr.clone())
        .build_unbounded();
    let consumed = AtomicU64::new(0);
    let sum = AtomicU64::new(0);

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..PER_PRODUCER {
                    h.enqueue(p * PER_PRODUCER + i);
                }
            });
        }
        for _ in 0..CONSUMERS {
            let q = &q;
            let consumed = &consumed;
            let sum = &sum;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                loop {
                    if consumed.load(Ordering::SeqCst) >= PRODUCERS * PER_PRODUCER {
                        break;
                    }
                    match h.dequeue() {
                        Some(v) => {
                            sum.fetch_add(v, Ordering::SeqCst);
                            consumed.fetch_add(1, Ordering::SeqCst);
                        }
                        None => std::thread::yield_now(),
                    }
                }
                h.flush_reclamation();
            });
        }
    });

    let n = PRODUCERS * PER_PRODUCER;
    assert_eq!(consumed.load(Ordering::SeqCst), n);
    assert_eq!(
        sum.load(Ordering::SeqCst),
        n * (n - 1) / 2,
        "no loss, no duplication"
    );

    // Everything was consumed, so after one reclamation pass the queue is
    // back to its steady-state segment bound.
    let mut h = q.register().unwrap();
    assert_eq!(h.dequeue(), None);
    h.flush_reclamation();
    drop(h);
    let stats = q.segment_stats();
    assert_eq!(stats.live, 1, "{stats:?}");
    assert_eq!(
        stats.retired_pending, 0,
        "the final single-threaded flush drains every orphan: {stats:?}"
    );
    assert!(
        stats.resident() <= 1 + DEFAULT_SEGMENT_CACHE,
        "residency bounded by live + cache: {stats:?}"
    );
    // The constructor's first segment is no `SegmentAllocs` event.
    let snap = instr.snapshot();
    let allocs = snap.get(Counter::SegmentAllocs);
    assert!(
        allocs < 2 * n / (1 << 4),
        "allocations bounded by segment churn: {snap:?}"
    );
    // A miss is what sends an append to the allocator: the two are recorded
    // on the same branch.
    assert_eq!(snap.get(Counter::SegmentCacheMisses), allocs, "{snap:?}");
    // A cache hit counts as a reuse only once its append wins the link race;
    // the two producers race appends, so some hits go straight back.
    assert!(
        snap.get(Counter::SegmentsReused) <= snap.get(Counter::SegmentCacheHits),
        "{snap:?}"
    );
}

/// A participant id — and the segment thread records it keys, slow-path
/// state included — handed between threads mid-segment: 6 workers share 4
/// ids, each registering for a few operations and dropping the handle, so a
/// record's next owner is a different thread, ordered only by the hazard
/// domain's release/acquire of the id.
#[test]
fn participant_ids_move_between_threads_mid_segment_under_forced_slow_path() {
    const PRODUCERS: u64 = 3;
    const CONSUMERS: u64 = 3;
    const IDS: usize = 4;
    const PER_PRODUCER: u64 = 2_000;
    const TOTAL: u64 = PRODUCERS * PER_PRODUCER;
    let cfg = WcqConfig {
        max_patience_enqueue: 1,
        max_patience_dequeue: 1,
        help_delay: 1,
        catchup_bound: 8,
    };
    let q: UnboundedWcq<u64> = wcq::builder()
        .capacity_order(4)
        .threads(IDS)
        .config(cfg)
        .build_unbounded();
    let consumed = AtomicU64::new(0);
    // Registers, yielding while all `IDS` ids are held by other workers.
    fn register(q: &UnboundedWcq<u64>) -> UnboundedWcqHandle<'_, u64> {
        loop {
            match q.register() {
                Some(h) => return h,
                None => std::thread::yield_now(),
            }
        }
    }
    // Operations per registration: 1..=8, varying by worker and round.
    let burst = |worker: u64, round: u64| 1 + (round * 5 + worker) % 8;

    let (tids_by_worker, received) = std::thread::scope(|s| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = &q;
                s.spawn(move || {
                    let mut tids = BTreeSet::new();
                    let (mut seq, mut round) = (0, 0);
                    while seq < PER_PRODUCER {
                        let mut h = register(q);
                        tids.insert(h.tid());
                        for _ in 0..burst(p, round).min(PER_PRODUCER - seq) {
                            h.enqueue(p << 32 | seq);
                            seq += 1;
                        }
                        drop(h);
                        round += 1;
                    }
                    tids
                })
            })
            .collect();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|c| {
                let (q, consumed) = (&q, &consumed);
                s.spawn(move || {
                    let mut tids = BTreeSet::new();
                    let mut got = Vec::new();
                    let mut round = 0;
                    while consumed.load(Ordering::SeqCst) < TOTAL {
                        let mut h = register(q);
                        tids.insert(h.tid());
                        for _ in 0..burst(PRODUCERS + c, round) {
                            if let Some(v) = h.dequeue() {
                                got.push(v);
                                consumed.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        drop(h);
                        std::thread::yield_now();
                        round += 1;
                    }
                    (tids, got)
                })
            })
            .collect();
        let mut tids_by_worker: Vec<BTreeSet<usize>> = producers
            .into_iter()
            .map(|p| p.join().expect("producer"))
            .collect();
        let mut received = Vec::new();
        for c in consumers {
            let (tids, got) = c.join().expect("consumer");
            tids_by_worker.push(tids);
            received.push(got);
        }
        (tids_by_worker, received)
    });

    // 6 workers on 4 ids: some id must have served two threads, or the test
    // exercised no hand-off at all.
    assert!(
        (0..IDS).any(|tid| tids_by_worker.iter().filter(|t| t.contains(&tid)).count() > 1),
        "no participant id moved between threads: {tids_by_worker:?}"
    );
    for (c, got) in received.iter().enumerate() {
        let mut last = [None; PRODUCERS as usize];
        for &v in got {
            let (p, seq) = ((v >> 32) as usize, v & 0xffff_ffff);
            assert!(
                last[p].is_none_or(|prev| prev < seq),
                "consumer {c}: producer {p}'s {seq} after {last:?}"
            );
            last[p] = Some(seq);
        }
    }
    let mut all: Vec<u64> = received.into_iter().flatten().collect();
    all.sort_unstable();
    let expected: Vec<u64> = (0..PRODUCERS)
        .flat_map(|p| (0..PER_PRODUCER).map(move |seq| p << 32 | seq))
        .collect();
    assert_eq!(all, expected, "no loss, no duplication");

    let mut h = q.register().unwrap();
    assert_eq!(h.dequeue(), None);
    h.flush_reclamation();
    drop(h);
    let stats = q.segment_stats();
    assert_eq!(stats.live, 1, "{stats:?}");
}
