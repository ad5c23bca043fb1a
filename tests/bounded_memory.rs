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

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use wcq::{Counter, CountingInstrument};
use wcq_core::scq::{ScqQueue, ScqRing};
use wcq_core::wcq::{CellFamily, LlscFamily, NativeFamily, WcqConfig, WcqQueue, WcqRing};
use wcq_harness::memtrack::{self, CountingAllocator};
use wcq_unbounded::UnboundedWcq;

/// The harness' counting allocator, which also counts the allocations laid
/// out as a native `WcqRing` header: a boxed ring, which only an unbounded
/// segment's `fq` is (an `aq` lives inside its segment, and a bounded queue's
/// rings inside the queue).  A ring's records are a block of the same
/// layout at 4 threads, so the count is read only on 2-thread queues.
struct RingCountingAllocator;

/// Allocations laid out as a `WcqRing<NativeFamily>` so far.
static RING_ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every allocation to `CountingAllocator` and only adds an
// atomic counter update in front of it.
unsafe impl GlobalAlloc for RingCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout == Layout::new::<WcqRing<NativeFamily>>() {
            RING_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        // SAFETY: forwarded verbatim.
        unsafe { CountingAllocator.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim.
        unsafe { CountingAllocator.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: RingCountingAllocator = RingCountingAllocator;

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
    // Every queue layer of the memory account (ROADMAP item 11(a)) is exact:
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
    // DESIGN.md "The memory account", at the default geometry: one 42 632 B
    // segment, with no `fq` until an index comes back, the 512 B header,
    // the hazard arrays (8 participants × one 128 B block, the length-hint
    // word on its second line, + 8 flags = 1 032 B) and the cache with its
    // spare-ring slot and ring count (48 B).  And an endpoint's handle, with
    // its 68 B stash and its 16 B `fq` window (two ticket counters) inline.
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(UnboundedWcq::<u64>::new(10, 8).memory_footprint(), 44_224);
        assert_eq!(
            std::mem::size_of::<wcq_unbounded::UnboundedWcqHandle<'_, u64>>(),
            184
        );
    }
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
    let instr = CountingInstrument::new();
    let q: UnboundedWcq<u64> = UnboundedWcq::with_config_counters(
        SEG_ORDER,
        2,
        WcqConfig::default(),
        Some(instr.counters().clone()),
    );
    let mut h = q.register().unwrap();

    // Warm-up: populate the segment cache through one full burst/drain cycle.
    // The tail's first returned index allocates its `fq`.
    let rings_before_warm_up = RING_ALLOCS.load(Ordering::SeqCst);
    for i in 0..BURST {
        h.enqueue(i);
    }
    for i in 0..BURST {
        assert_eq!(h.dequeue(), Some(i));
    }
    let rings_warm = RING_ALLOCS.load(Ordering::SeqCst);
    assert!(
        rings_warm > rings_before_warm_up,
        "the warm-up's drain installed an `fq`"
    );

    let allocated_before = instr.snapshot().get(Counter::SegmentAllocs);
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
        instr.snapshot().get(Counter::SegmentAllocs),
        allocated_before,
        "steady-state churn must be served from the cache: {:?}",
        q.segment_stats()
    );
    // Each round's retiring head parks its `fq` as the cache's spare, and
    // the new tail installs that spare: no ring is allocated.
    assert_eq!(
        RING_ALLOCS.load(Ordering::SeqCst),
        rings_warm,
        "steady-state churn allocated an `fq` ring"
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

/// Bytes of one `fq` ring on an `order`, `threads` queue: a ring shaped like
/// the segment's `aq`.
fn fq_ring_bytes<F: CellFamily>(order: u32, threads: usize) -> usize {
    WcqRing::<F>::new(order, threads).memory_footprint()
}

/// Bursts of k × capacity on a queue with one handle, measured between
/// handles (a dropped handle holds no heap, so the allocator's reading is
/// the queue's): every reading of `memory_footprint()` is what the
/// allocator handed out, and the rings in it are the ones a returned index
/// installed — none at the first burst's peak, then one: the open tail's.
/// Returns the readings as `(footprint, allocator's bytes, fq rings)`.
fn bursts_carry_fq_rings_only_where_an_index_came_back<F: CellFamily>() -> Vec<(usize, usize, usize)>
{
    const ORDER: u32 = 4;
    const THREADS: usize = 2;
    let cap = 1u64 << ORDER;
    let ring = fq_ring_bytes::<F>(ORDER, THREADS);
    // Allocated before the base reading, so it grows no heap under it.
    let mut readings = Vec::with_capacity(8);
    let base = memtrack::snapshot().live_bytes;
    let q: UnboundedWcq<u64, F> = UnboundedWcq::new(ORDER, THREADS);
    let fresh = q.memory_footprint();
    let mut read = |q: &UnboundedWcq<u64, F>, segment: usize| {
        let footprint = q.memory_footprint();
        let measured =
            std::mem::size_of::<UnboundedWcq<u64, F>>() + memtrack::snapshot().live_bytes - base;
        let resident = q.segment_stats().resident();
        let rings = (footprint - fresh - (resident - 1) * segment) / ring;
        assert_eq!(
            footprint,
            fresh + (resident - 1) * segment + rings * ring,
            "segments and rings account for every byte"
        );
        readings.push((footprint, measured, rings));
    };
    // One more segment, with no `fq`, is what a second live one costs.
    let mut h = q.register().unwrap();
    for v in 0..=cap {
        h.enqueue(v);
    }
    let segment = q.memory_footprint() - fresh;
    for v in 0..=cap {
        assert_eq!(h.dequeue(), Some(v));
    }
    drop(h);
    let mut next = 0;
    for k in [3, 1, 4, 2] {
        let mut h = q.register().unwrap();
        for v in next..next + k * cap {
            h.enqueue(v);
        }
        let peak = q.segment_stats();
        assert!(peak.live as u64 >= k, "{peak:?}");
        read(&q, segment);
        for v in next..next + k * cap {
            assert_eq!(h.dequeue(), Some(v));
        }
        next += k * cap;
        drop(h);
        read(&q, segment);
    }
    readings
}

#[test]
fn only_segments_that_got_an_index_back_carry_an_fq() {
    let _serial = serial();
    // As in the footprint test above, a try may be disturbed by the
    // harness' own threads, so one of ten must read exact throughout.
    fn check<F: CellFamily>(family: &str) {
        let mut tries = Vec::new();
        while tries.len() < 10 {
            let readings = bursts_carry_fq_rings_only_where_an_index_came_back::<F>();
            // The warm-up's drain returned indices to its open tail, so
            // every burst's peak holds that one `fq` (in the head segment,
            // the old tail) and no backlog segment holds one; after each
            // drain the new tail has installed the one the head left.
            let rings: Vec<usize> = readings.iter().map(|r| r.2).collect();
            assert_eq!(rings, [1; 8], "{family}: fq rings at each peak and drain");
            let exact = readings.iter().all(|(said, is, _)| said == is);
            tries.push(readings);
            if exact {
                return;
            }
        }
        panic!("{family}: (memory_footprint, allocator, fq rings) = {tries:?}");
    }
    check::<NativeFamily>("native");
    wcq_atomics::llsc::set_spurious_failure_rate(0.0);
    check::<LlscFamily>("llsc");
}

/// Two consumer handles on their own threads race the first returns on a
/// full tail that has no `fq` yet.  Returns `(lost, rings, leaked)`: how many
/// indices the tail failed to take again, how many `fq` rings the queue
/// held after the race (one installed, plus a loser's parked as the spare),
/// and the heap bytes left once the queue dropped.  A ring a racer leaked
/// would be left behind whole.
fn racing_returns_install_one_fq<F: CellFamily>() -> (u64, usize, isize) {
    const ORDER: u32 = 8;
    let cap = 1u64 << ORDER;
    let before = memtrack::snapshot().live_bytes;
    let (lost, rings);
    {
        let q: UnboundedWcq<u64, F> = UnboundedWcq::new(ORDER, 3);
        let fresh = q.memory_footprint();
        let mut producer = q.register().unwrap();
        for v in 0..cap {
            producer.enqueue(v);
        }
        assert_eq!(q.segment_stats().live, 1, "the tail is full, not linked");
        assert_eq!(q.memory_footprint(), fresh, "no index came back yet");
        let (ready, go) = (AtomicUsize::new(0), AtomicBool::new(false));
        let taken = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut h = q.register().unwrap();
                    ready.fetch_add(1, Ordering::SeqCst);
                    while !go.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    while taken.load(Ordering::SeqCst) < cap {
                        if h.dequeue().is_some() {
                            taken.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
            while ready.load(Ordering::SeqCst) < 2 {
                std::hint::spin_loop();
            }
            go.store(true, Ordering::SeqCst);
        });
        rings = (q.memory_footprint() - fresh) / fq_ring_bytes::<F>(ORDER, 3);
        // Every index went back to the tail, which is still open: it takes
        // exactly `capacity` values before the next one opens a segment.
        let mut took = 0;
        while q.segment_stats().live == 1 {
            producer.enqueue(cap + took);
            took += 1;
        }
        lost = cap + 1 - took;
        while producer.dequeue().is_some() {}
    }
    let leaked = memtrack::snapshot().live_bytes as isize - before as isize;
    (lost, rings, leaked)
}

#[test]
fn racing_first_returns_install_exactly_one_fq_and_leak_no_ring() {
    let _serial = serial();
    // Each try races the install once (two rings after a try mean both
    // racers built one).  A lost index shows in every try that raced.  A
    // leaked ring shows as at least a ring's bytes left behind; thread
    // spawns and the harness' own threads move the reading by a few hundred
    // bytes either way.
    fn check<F: CellFamily>(family: &str) {
        let ring = fq_ring_bytes::<F>(8, 3) as isize;
        let results: Vec<_> = (0..20)
            .map(|_| racing_returns_install_one_fq::<F>())
            .collect();
        for (try_no, &(lost, rings, left)) in results.iter().enumerate() {
            let at = format!("{family} try {try_no}: (lost, rings, heap left) = {results:?}");
            assert_eq!(lost, 0, "{at}");
            assert!((1..=2).contains(&rings), "{at}");
            assert!(left < ring, "{at}");
        }
    }
    check::<NativeFamily>("native");
    wcq_atomics::llsc::set_spurious_failure_rate(0.0);
    check::<LlscFamily>("llsc");
}

#[test]
fn sharded_wcq_steady_state_allocates_nothing_on_any_shard() {
    let _serial = serial();
    // The sharded queue inherits the steady-state property shard-wise: after
    // a warm-up burst/drain cycle, segment churn on *every* shard is served
    // from that shard's recycling cache — the allocator is never consulted
    // again: no shard allocates a segment (so none of its cache lookups
    // missed), every shard reuses some, and the hit/miss counters agree.
    // The shards share one counter set, so the per-shard claims are read in
    // total: `SegmentAllocs` does not move, and a shard that grows without
    // allocating has reused a segment, at least 3 times a cycle.
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

    let warm = instr.snapshot();
    let before = memtrack::snapshot();
    const ROUNDS: u64 = 40;
    for round in 1..=ROUNDS {
        cycle(round * BURST);
    }
    let after = memtrack::snapshot();

    let hot = instr.snapshot();
    assert_eq!(
        hot.get(Counter::SegmentAllocs),
        warm.get(Counter::SegmentAllocs),
        "every shard must serve steady-state churn from its cache: {:?}",
        q.segment_stats()
    );
    // 64 values a shard a cycle fill at least 3 segments past its tail.
    let reused = hot.get(Counter::SegmentsReused) - warm.get(Counter::SegmentsReused);
    assert!(
        reused >= 3 * SHARDS as u64 * ROUNDS,
        "the shards' caches must have served the churn: {reused} reuses"
    );
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

#[test]
fn a_warmed_send_iter_and_recv_many_round_allocates_only_its_collect() {
    let _serial = serial();
    // A batch round on the default channel: `send_iter` collects its
    // iterator into one buffer, and nothing below it allocates — the batch
    // paths hold their slot indices on the stack.  Each try builds a fresh
    // channel whose 1024-slot segment holds every round, so no segment turns
    // over inside the window; as in the footprint test above, a try may be
    // disturbed by the harness's own threads, so one of ten must read exact.
    const ROUND: usize = 64;
    const ROUNDS: usize = 8;
    let mut tries = Vec::new();
    while tries.len() < 10 && !tries.contains(&ROUNDS) {
        let (mut tx, mut rx) = wcq::builder()
            .capacity_order(10)
            .threads(2)
            .build_channel::<u64>();
        let mut out = Vec::with_capacity(ROUND);
        let mut round = |base: u64| {
            assert_eq!(tx.send_iter(base..base + ROUND as u64), Ok(ROUND));
            out.clear();
            assert_eq!(rx.recv_many(&mut out, ROUND), Ok(ROUND));
            assert!(out.iter().copied().eq(base..base + ROUND as u64));
        };
        round(0); // registers both endpoints
        let before = memtrack::snapshot();
        for r in 1..=ROUNDS {
            round((r * ROUND) as u64);
        }
        let after = memtrack::snapshot();
        tries.push(after.total_allocs - before.total_allocs);
    }
    assert!(
        tries.contains(&ROUNDS),
        "allocations per {ROUNDS} warmed rounds, one `send_iter` collect each: {tries:?}"
    );
}
