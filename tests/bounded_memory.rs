//! Bounded-memory regression test (Theorem 5.8).
//!
//! wCQ's headline property is that it never allocates after construction —
//! unlike LCRQ/YMC, whose memory grows with contention (Figure 10a).  This
//! suite installs the harness' counting global allocator and drives the wCQ
//! slow path hard (MAX_PATIENCE = 1 forces it on every operation), asserting
//! that heap usage stays flat across 100k operations.
//!
//! This is its own integration-test binary because `#[global_allocator]`
//! applies process-wide — and for the same reason its tests run one at a
//! time: they all read the one process-wide allocation counter, so a sibling
//! test building its queues on another test thread lands inside this test's
//! before/after window (about one run in four failed that way on a 2-vCPU
//! box).  Every test holds [`SERIAL`] for its whole body.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use wcq::{Counter, CountingInstrument};
use wcq_core::scq::{ScqQueue, ScqRing};
use wcq_core::wcq::{NativeFamily, WcqConfig, WcqQueue, WcqRing};
use wcq_harness::memtrack::{self, CountingAllocator};
use wcq_unbounded::UnboundedWcq;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serialises the tests of this binary (see the module doc).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], tolerating poison: a failed sibling must not turn every
/// later test into a second, misleading failure.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn forced_slow_path() -> WcqConfig {
    WcqConfig {
        max_patience_enqueue: 1,
        max_patience_dequeue: 1,
        help_delay: 1,
        catchup_bound: 8,
    }
}

#[test]
fn wcq_slow_path_does_not_allocate_across_100k_ops() {
    let _serial = serial();
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25_000; // 100k ops total
    let q: WcqQueue<u64> = wcq::builder()
        .capacity_order(8)
        .threads(THREADS as usize)
        .config(forced_slow_path())
        .build_bounded();
    let footprint_before = q.memory_footprint();

    let before = memtrack::snapshot();
    let consumed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = &q;
            let consumed = &consumed;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..PER_THREAD {
                    let mut v = t * PER_THREAD + i;
                    while let Err(back) = h.enqueue(v) {
                        v = back;
                        // Make room when the ring is full; this dequeue
                        // consumes a real element and must be counted too.
                        if h.dequeue().is_some() {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if h.dequeue().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                while h.dequeue().is_some() {
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let after = memtrack::snapshot();

    assert_eq!(consumed.load(Ordering::Relaxed), THREADS * PER_THREAD);
    // The queue itself is statically allocated: its self-reported footprint
    // is a pure function of the construction parameters.
    assert_eq!(q.memory_footprint(), footprint_before);
    // Live heap must stay flat up to a small slack for std runtime
    // bookkeeping (thread-exit TLS, panic buffers — observed ~150 bytes)...
    let live_growth = after.live_bytes.saturating_sub(before.live_bytes);
    assert!(
        live_growth < 16 * 1024,
        "live heap grew {live_growth} bytes across the run: {before:?} -> {after:?}"
    );
    // ...and the total number of allocations during 100k slow-path ops must
    // be tiny (thread spawning and test bookkeeping only).  A per-operation
    // allocation would show up as >= 100_000 here.
    let allocs = after.total_allocs - before.total_allocs;
    assert!(
        allocs < 1_000,
        "expected no per-operation allocations, saw {allocs} across 100k ops"
    );
}

#[test]
fn wcq_footprint_is_a_function_of_geometry_only() {
    let _serial = serial();
    // Two identically configured queues report identical footprints, and the
    // footprint scales with capacity, never with the operation history.
    let a: WcqQueue<u64> = WcqQueue::new(6, 4);
    let b: WcqQueue<u64> = WcqQueue::new(6, 4);
    assert_eq!(a.memory_footprint(), b.memory_footprint());

    let big: WcqQueue<u64> = WcqQueue::new(10, 4);
    assert!(big.memory_footprint() > a.memory_footprint());

    let mut h = a.register().unwrap();
    for i in 0..if cfg!(miri) { 200 } else { 10_000u64 } {
        while h.enqueue(i).is_err() {
            let _ = h.dequeue();
        }
        let _ = h.dequeue();
    }
    drop(h);
    assert_eq!(
        a.memory_footprint(),
        b.memory_footprint(),
        "operation history must not change the footprint"
    );
}

#[test]
fn ring_and_bounded_queue_footprints_are_what_the_allocator_hands_out() {
    let _serial = serial();
    // Every queue layer of the memory account (ROADMAP item 4a) is exact:
    // `memory_footprint()` is the struct plus every heap byte it owns.
    // `SERIAL` keeps sibling tests out of the window but not the harness'
    // own thread, which prints a result and spawns the next test just as
    // this body starts, nor the previous test's exiting threads freeing
    // their thread-locals — so each layer gets up to ten tries, a
    // millisecond apart, to read undisturbed once.
    fn exact<Q>(layer: &str, build: impl Fn() -> Q, footprint: impl Fn(&Q) -> usize) {
        let mut tries: Vec<(usize, usize)> = Vec::new();
        while tries.len() < 10 && !tries.iter().any(|(said, is)| said == is) {
            if !tries.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let before = memtrack::snapshot().live_bytes;
            let q = build();
            let after = memtrack::snapshot().live_bytes;
            let measured = (std::mem::size_of::<Q>() + after).wrapping_sub(before);
            tries.push((footprint(&q), measured));
        }
        assert!(
            tries.iter().any(|(said, is)| said == is),
            "{layer}: (memory_footprint, size_of + live-bytes delta) = {tries:?}"
        );
    }
    exact("ScqRing", || ScqRing::new(10), ScqRing::memory_footprint);
    exact(
        "WcqRing",
        || WcqRing::<NativeFamily>::new(10, 8),
        WcqRing::memory_footprint,
    );
    exact(
        "ScqQueue",
        || ScqQueue::<u64>::new(10),
        ScqQueue::memory_footprint,
    );
    exact(
        "WcqQueue",
        || WcqQueue::<u64>::new(10, 8),
        WcqQueue::memory_footprint,
    );
    exact(
        "UnboundedWcq",
        || UnboundedWcq::<u64>::new(10, 8),
        UnboundedWcq::memory_footprint,
    );
}

#[test]
fn unbounded_wcq_steady_state_reuses_segments_without_allocating() {
    let _serial = serial();
    // The unbounded queue cannot be allocation-free in general — growth *is*
    // allocation — but at steady state (periodic bursts that drain), segment
    // churn must be served from the recycling cache: the number of segments
    // ever allocated stays flat and per-operation heap traffic stays nil.
    const SEG_ORDER: u32 = 4; // 16-slot segments
    const BURST: u64 = 64; // 4 segments of churn per round
    let q: UnboundedWcq<u64> = UnboundedWcq::new(SEG_ORDER, 2);
    let mut h = q.register().unwrap();

    // Warm-up: populate the segment cache through one full burst/drain cycle.
    for i in 0..BURST {
        h.enqueue(i);
    }
    for i in 0..BURST {
        assert_eq!(h.dequeue(), Some(i));
    }

    let allocated_before = q.segments_allocated();
    let before = memtrack::snapshot();
    const ROUNDS: u64 = 50;
    for round in 0..ROUNDS {
        for i in 0..BURST {
            h.enqueue(round * BURST + i);
        }
        for i in 0..BURST {
            assert_eq!(h.dequeue(), Some(round * BURST + i));
        }
    }
    let after = memtrack::snapshot();

    assert_eq!(
        q.segments_allocated(),
        allocated_before,
        "steady-state churn must be served from the cache: {:?}",
        q.segment_stats()
    );
    // 50 rounds * 128 ops with per-op allocation would show up as >= 6400
    // allocations; the only heap traffic allowed is the hazard scan's small
    // bookkeeping on each segment retirement.
    let allocs = after.total_allocs - before.total_allocs;
    assert!(
        allocs < 1_500,
        "expected no per-operation allocations at steady state, saw {allocs}"
    );
    let live_growth = after.live_bytes.saturating_sub(before.live_bytes);
    assert!(
        live_growth < 16 * 1024,
        "live heap grew {live_growth} bytes across steady-state rounds"
    );
}

#[test]
fn sharded_wcq_steady_state_allocates_nothing_on_any_shard() {
    let _serial = serial();
    // The sharded queue inherits the steady-state property shard-wise: after
    // a warm-up burst/drain cycle, segment churn on *every* shard is served
    // from that shard's recycling cache — the allocator is never consulted
    // again: no shard allocates a segment (so none of its cache lookups
    // missed), every shard reuses some, and the hit/miss counters agree.
    const SHARDS: usize = 4;
    const SEG_ORDER: u32 = 4; // 16-slot segments
    const BURST: u64 = 256; // 64 values -> 4 segments of churn per shard
    let instr = CountingInstrument::new();
    let q = wcq::builder()
        .capacity_order(SEG_ORDER)
        .threads(SHARDS)
        .shards(SHARDS)
        .instrument(instr.clone())
        .build_sharded::<u64>();
    // One producer handle per shard, held at once: distinct record slots,
    // hence distinct home shards, so a burst lands on every shard.
    let mut handles: Vec<_> = (0..SHARDS).map(|_| q.handle()).collect();
    let mut homes: Vec<usize> = handles.iter().map(|h| h.home_shard()).collect();
    homes.sort_unstable();
    assert_eq!(homes, (0..SHARDS).collect::<Vec<_>>());
    // A burst spreads its values over the producers; the first handle then
    // drains all four shards (its own by home, the rest by stealing).
    let mut cycle = |base: u64| {
        for i in 0..BURST {
            handles[i as usize % SHARDS].enqueue(base + i);
        }
        while handles[0].dequeue().is_some() {}
    };

    // Warm-up: populate every shard's segment cache through one full cycle.
    cycle(0);

    let allocated_before: Vec<usize> = q.shards().iter().map(|s| s.segments_allocated()).collect();
    let reused_before: Vec<usize> = (q.shards().iter())
        .map(|s| s.segment_stats().reused_total)
        .collect();
    let warm = instr.snapshot();
    let before = memtrack::snapshot();
    const ROUNDS: u64 = 40;
    for round in 1..=ROUNDS {
        cycle(round * BURST);
    }
    let after = memtrack::snapshot();

    for (i, shard) in q.shards().iter().enumerate() {
        assert_eq!(
            shard.segments_allocated(),
            allocated_before[i],
            "shard {i} must serve steady-state churn from its cache: {:?}",
            shard.segment_stats()
        );
        assert!(
            shard.segment_stats().reused_total > reused_before[i],
            "shard {i} cache must have served the churn: {:?}",
            shard.segment_stats()
        );
    }
    let hot = instr.snapshot();
    assert_eq!(
        hot.get(Counter::SegmentCacheMisses),
        warm.get(Counter::SegmentCacheMisses),
        "no cache lookup may miss at steady state"
    );
    assert!(
        hot.get(Counter::SegmentCacheHits) > warm.get(Counter::SegmentCacheHits),
        "the cache must have served the churn"
    );
    // 40 rounds * 512 ops with per-op allocation would show up as >= 20k
    // allocations; only the hazard scans' small bookkeeping is allowed.
    let allocs = after.total_allocs - before.total_allocs;
    assert!(
        allocs < 2_000,
        "expected no per-operation allocations at steady state, saw {allocs}"
    );
    let live_growth = after.live_bytes.saturating_sub(before.live_bytes);
    assert!(
        live_growth < 16 * 1024,
        "live heap grew {live_growth} bytes across steady-state rounds"
    );
}
