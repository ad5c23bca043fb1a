//! A bursty producer over the unbounded wLSCQ queue (`wcq-unbounded`).
//!
//! Bounded queues force a choice when traffic is bursty: either size the ring
//! for the worst burst (wasting memory) or make producers block at the peak
//! (losing throughput).  `UnboundedWcq` absorbs bursts by linking fresh wCQ
//! segments and gives the memory back afterwards: drained segments are
//! retired through hazard pointers and recycled via a bounded cache.
//!
//! The example first pushes one small burst through on a single thread, so
//! the cache holds drained segments before anything runs concurrently, then
//! runs a producer that alternates bursts and idle phases against steady
//! consumers (held back until the first burst is in, so the queue grows at
//! least once however fast they are), and prints the segment statistics: the
//! queue grows during bursts, shrinks back to one live segment after
//! draining, and serves segment churn from its cache instead of the
//! allocator.
//!
//! Run with:
//! ```text
//! cargo run --release --example unbounded_pipeline
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wcq::atomics::Backoff;
use wcq::UnboundedWcq;

const BURSTS: u64 = 8;
const BURST_SIZE: u64 = 4_096; // each burst spans many 256-slot segments
const CONSUMERS: u64 = 2;
const WARM_UP: u64 = 1_024; // four segments

fn main() {
    // 2^8-element segments; 1 producer + 2 consumers + 1 main registration;
    // up to `DEFAULT_SEGMENT_CACHE` drained segments kept warm for the next
    // burst.
    let q: UnboundedWcq<u64> = wcq::builder()
        .capacity_order(8)
        .threads(4)
        .build_unbounded();
    let consumed = AtomicU64::new(0);
    let peak_live = AtomicU64::new(0);
    let first_burst_in = AtomicBool::new(false);
    let total = BURSTS * BURST_SIZE;

    // Grow past one segment and drain again before any other thread exists:
    // with no concurrent hazard to wait out, the flush retires every drained
    // segment straight into the cache.  The bursts below then reuse segments
    // whatever their own hazard scans happen to see.
    {
        let mut h = q.handle();
        for i in 0..WARM_UP {
            h.enqueue(i);
        }
        while h.dequeue().is_some() {}
        h.flush_reclamation();
    }
    assert!(
        q.segment_stats().cached > 0,
        "a drained burst leaves segments in the cache: {:?}",
        q.segment_stats()
    );

    std::thread::scope(|s| {
        // Bursty producer: emit a full burst as fast as possible, then idle
        // while the consumers catch up.
        let q_ref = &q;
        let (peak, first_burst_in) = (&peak_live, &first_burst_in);
        s.spawn(move || {
            let mut h = q_ref.handle();
            for burst in 0..BURSTS {
                for i in 0..BURST_SIZE {
                    h.enqueue(burst * BURST_SIZE + i);
                }
                peak.fetch_max(q_ref.segments_live() as u64, Ordering::Relaxed);
                first_burst_in.store(true, Ordering::Release);
                // Idle phase: let the consumers drain the backlog.
                while q_ref.segments_live() > 1 {
                    std::thread::yield_now();
                }
            }
        });

        // Steady consumers, released once the first burst is in: on a fast
        // box they otherwise keep up with the producer, and a queue that never
        // outgrows one segment has no segment churn to show.
        for _ in 0..CONSUMERS {
            let q_ref = &q;
            let consumed = &consumed;
            s.spawn(move || {
                let mut h = q_ref.handle();
                let mut backoff = Backoff::new();
                while !first_burst_in.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                while consumed.load(Ordering::Relaxed) < total {
                    match h.dequeue() {
                        Some(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            backoff.reset();
                        }
                        None => backoff.snooze_or_yield(),
                    }
                }
                h.flush_reclamation();
            });
        }
    });

    assert_eq!(consumed.load(Ordering::Relaxed), total, "no element lost");

    // One reclamation pass from a fresh handle makes the statistics settle.
    let mut h = q.handle();
    assert_eq!(h.dequeue(), None, "queue fully drained");
    h.flush_reclamation();
    drop(h);

    let stats = q.segment_stats();
    println!("moved {total} values through {BURSTS} bursts of {BURST_SIZE}");
    println!(
        "segments: peak live {}, now live {}, cached {}, allocated {}, reused {}",
        peak_live.load(Ordering::Relaxed),
        stats.live,
        stats.cached,
        stats.allocated_total,
        stats.reused_total
    );
    println!("current footprint: {} KiB", q.memory_footprint() / 1024);
    assert_eq!(stats.live, 1, "drained queue returns to one segment");
    assert!(
        stats.reused_total > 0,
        "the bursts must reuse the cached segments: {stats:?}"
    );
}
