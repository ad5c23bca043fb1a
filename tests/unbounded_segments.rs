//! Segment-lifecycle acceptance tests for `wcq-unbounded` (wLSCQ).
//!
//! The unbounded queue's memory story is the whole point of building it from
//! wCQ rings: growth is driven only by real backlog, drained segments are
//! retired through hazard pointers, and the live segment count returns to the
//! steady-state bound (one tail segment) after every drain — unlike LCRQ,
//! whose premature ring closes leak whole rings' worth of capacity
//! (Figure 10a of the paper).

use std::sync::atomic::{AtomicU64, Ordering};

use wcq_core::wcq::{CellFamily, LlscFamily, NativeFamily, WcqConfig};
use wcq_unbounded::{UnboundedWcq, DEFAULT_SEGMENT_CACHE};

/// Enqueue bursts far beyond one segment, drain completely, and require the
/// live segment count to return to 1 (the steady-state bound) with total
/// residency capped by the segment cache.
fn burst_drain_returns_to_steady_state<F: CellFamily>() {
    const SEG_ORDER: u32 = 4; // 16-slot segments
    const BURST: u64 = 200; // >> segment capacity: forces many appends
    let q: UnboundedWcq<u64, F> = UnboundedWcq::new(SEG_ORDER, 2);
    let mut h = q.register().unwrap();

    for round in 0..5u64 {
        for i in 0..BURST {
            h.enqueue(round * BURST + i);
        }
        assert!(
            q.segments_live() as u64 >= BURST / (1 << SEG_ORDER),
            "burst must grow the queue: {:?}",
            q.segment_stats()
        );
        for i in 0..BURST {
            assert_eq!(h.dequeue(), Some(round * BURST + i), "FIFO across segments");
        }
        assert_eq!(h.dequeue(), None);
        h.flush_reclamation();

        let stats = q.segment_stats();
        assert_eq!(
            stats.live, 1,
            "drain must shrink back to one segment: {stats:?}"
        );
        assert_eq!(
            stats.retired_pending, 0,
            "flush reclaims every retired segment: {stats:?}"
        );
        assert!(
            stats.resident() <= 1 + DEFAULT_SEGMENT_CACHE,
            "residency bounded by live + cache: {stats:?}"
        );
    }
    // Across five identical rounds the cache must serve appends: the number
    // of genuine allocations stays far below the number of appends.
    let stats = q.segment_stats();
    assert!(stats.reused_total > 0, "{stats:?}");
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
    let q: UnboundedWcq<u64> = wcq::builder()
        .capacity_order(4)
        .threads((PRODUCERS + CONSUMERS) as usize)
        .config(cfg)
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
    assert!(
        stats.allocated_total as u64 <= 2 * n / (1 << 4),
        "allocations bounded by segment churn: {stats:?}"
    );
}
