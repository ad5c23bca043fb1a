//! Unified observability: a lock-free counter registry, a compile-time
//! instrumentation strategy and a no-dep HDR-style latency histogram.
//!
//! The wCQ paper's whole design thesis is that the helping slow path is
//! entered rarely enough for the fast path to dominate (§6: the slow path is
//! taken "relatively infrequently" with MAX_PATIENCE = 16/64).  This module
//! makes that claim — and every other contention signal in the codebase —
//! *measurable* without giving up the zero-cost default:
//!
//! * [`Counter`] / [`CounterSet`] — a fixed registry of cache-padded atomic
//!   counters covering every layer: ring ops and helping entries, patience
//!   exhaustion, CAS and spurious-SC failures, segment allocation vs cache
//!   reuse, shard stealing, batch sizes requested vs granted,
//!   channel park/wake/close events and executor poll/wake counts.
//! * [`Instrument`] — the compile-time strategy: [`NoopInstrument`] (the
//!   default) monomorphizes every `record` call to nothing, while
//!   [`CountingInstrument`] shares one [`CounterSet`] between the caller and
//!   every queue layer built from it (`builder().instrument(...)`).
//! * [`LatencyHistogram`] — log-bucketed (HDR-style: power-of-two octaves ×
//!   32 linear sub-buckets, ≤ 3.2% relative error), lock-free per-thread
//!   shards, mergeable [`HistogramSnapshot`]s with p50/p90/p99/p999.
//! * [`MetricsSnapshot`] — a point-in-time copy of every counter, read
//!   through [`MetricsSnapshot::get`] and a few derived accessors.
//!
//! ## Counting discipline (why the fast path stays fast)
//!
//! Shared atomic counters on the per-operation fast path would serialize the
//! very contention they measure.  The layers therefore split events in two:
//!
//! * **rare events** (helping entries, patience exhaustion, CAS failures,
//!   segment transitions, parks/wakes) are recorded immediately — they are on
//!   slow or failure branches by definition;
//! * **per-operation totals** (values enqueued/dequeued, batch sizes) are
//!   accumulated in plain per-handle locals and *flushed on handle drop*, so
//!   the counts survive worker-thread teardown and a post-drain snapshot sees
//!   the whole run.
//!
//! Ring-level op totals ([`Counter::RingEnqueues`]/[`Counter::RingDequeues`])
//! are the one exception: they are recorded per ring operation so that
//! `helping_entries <= ring ops` holds by construction (the helping check
//! runs at most once per ring op).  All of this only happens when a
//! [`CounterSet`] is attached; un-instrumented queues skip every site via a
//! `None` check on a cold field.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use wcq_atomics::CachePadded;

// --------------------------------------------------------------------------
// Counter registry
// --------------------------------------------------------------------------

/// Number of distinct counters in the registry.
pub const COUNTER_COUNT: usize = 24;

/// Every event class the observability layer records, across all layers.
///
/// The enum doubles as the index into a [`CounterSet`]; [`Counter::name`] is
/// its stable snake_case label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Ring-level enqueue operations entered (a data-queue op comprises up
    /// to two ring ops: free-index ring + data ring).
    RingEnqueues,
    /// Ring-level dequeue operations entered (includes empty polls).
    RingDequeues,
    /// Ring ops whose Kogan–Petrank helping check actually helped another
    /// thread's published request.  At most one per ring op.
    HelpingEntries,
    /// Ring enqueues that exhausted `max_patience_enqueue` and entered the
    /// wait-free slow path.
    PatienceExhaustedEnqueues,
    /// Ring dequeues that exhausted `max_patience_dequeue` and entered the
    /// wait-free slow path.
    PatienceExhaustedDequeues,
    /// Failed CAS attempts on entry cells (fast-path retries and the
    /// `slow_F&A` loop).
    CasFailures,
    /// Injected spurious store-conditional failures (LL/SC emulation).
    /// Process-global: copied from `wcq_atomics::llsc` at snapshot time.
    SpuriousScFailures,
    /// Values accepted by a data-queue enqueue (handle-local, drop-flushed).
    EnqueuesCompleted,
    /// Values yielded by a data-queue dequeue (handle-local, drop-flushed).
    DequeuesCompleted,
    /// Values requested across batch (`*_many`) calls.
    BatchValuesRequested,
    /// Values actually granted across batch (`*_many`) calls.
    BatchValuesGranted,
    /// Segments taken from the allocator (cache empty or disabled).
    SegmentAllocs,
    /// Segment-cache `take` calls that found a cached segment.
    SegmentCacheHits,
    /// Segment-cache `take` calls that went to the allocator.
    SegmentCacheMisses,
    /// Cache-served segments that won their link race (actually reused).
    SegmentsReused,
    /// Drained segments retired to the hazard domain for recycling.
    SegmentsRetired,
    /// Times a handle's memoized segment binding had to move.
    SegmentRebinds,
    /// Dequeues satisfied by a non-home shard (work stealing).
    ShardSteals,
    /// Channel-side waker parks (a future registered and suspended).
    ChannelParks,
    /// Channel-side wake notifications issued (send→receiver, recv→sender).
    ChannelWakes,
    /// Channel close transitions (explicit or last-endpoint drop).
    ChannelCloses,
    /// Future polls performed by the harness executor.
    ExecPolls,
    /// Executor wakes (unpark calls) observed by the harness executor.
    ExecWakes,
    /// Retired: always 0.  Patience is the static bound of [`WcqConfig`]
    /// (§6 of the paper) and nothing raises it; the variant only remains
    /// because the gated `benchmark/` package still names it.
    ///
    /// [`WcqConfig`]: crate::wcq::WcqConfig
    PatienceRaised,
}

impl Counter {
    /// Every counter, in index order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::RingEnqueues,
        Counter::RingDequeues,
        Counter::HelpingEntries,
        Counter::PatienceExhaustedEnqueues,
        Counter::PatienceExhaustedDequeues,
        Counter::CasFailures,
        Counter::SpuriousScFailures,
        Counter::EnqueuesCompleted,
        Counter::DequeuesCompleted,
        Counter::BatchValuesRequested,
        Counter::BatchValuesGranted,
        Counter::SegmentAllocs,
        Counter::SegmentCacheHits,
        Counter::SegmentCacheMisses,
        Counter::SegmentsReused,
        Counter::SegmentsRetired,
        Counter::SegmentRebinds,
        Counter::ShardSteals,
        Counter::ChannelParks,
        Counter::ChannelWakes,
        Counter::ChannelCloses,
        Counter::ExecPolls,
        Counter::ExecWakes,
        Counter::PatienceRaised,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RingEnqueues => "ring_enqueues",
            Counter::RingDequeues => "ring_dequeues",
            Counter::HelpingEntries => "helping_entries",
            Counter::PatienceExhaustedEnqueues => "patience_exhausted_enqueues",
            Counter::PatienceExhaustedDequeues => "patience_exhausted_dequeues",
            Counter::CasFailures => "cas_failures",
            Counter::SpuriousScFailures => "spurious_sc_failures",
            Counter::EnqueuesCompleted => "enqueues_completed",
            Counter::DequeuesCompleted => "dequeues_completed",
            Counter::BatchValuesRequested => "batch_values_requested",
            Counter::BatchValuesGranted => "batch_values_granted",
            Counter::SegmentAllocs => "segment_allocs",
            Counter::SegmentCacheHits => "segment_cache_hits",
            Counter::SegmentCacheMisses => "segment_cache_misses",
            Counter::SegmentsReused => "segments_reused",
            Counter::SegmentsRetired => "segments_retired",
            Counter::SegmentRebinds => "segment_rebinds",
            Counter::ShardSteals => "shard_steals",
            Counter::ChannelParks => "channel_parks",
            Counter::ChannelWakes => "channel_wakes",
            Counter::ChannelCloses => "channel_closes",
            Counter::ExecPolls => "exec_polls",
            Counter::ExecWakes => "exec_wakes",
            Counter::PatienceRaised => "patience_raised",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// A fixed set of cache-padded atomic counters, one per [`Counter`].
///
/// Shared (via `Arc`) between a [`CountingInstrument`] and every queue layer
/// the builder attaches it to; all updates are `Relaxed` — the counters are
/// telemetry, not synchronization.
#[derive(Debug)]
pub struct CounterSet {
    counters: [CachePadded<AtomicU64>; COUNTER_COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterSet {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
        }
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        // relaxed: monotonic statistics counter; readers only ever see a
        // (possibly slightly stale) total, never derive control flow from it.
        self.counters[counter.index()].fetch_add(n, Relaxed);
    }

    /// Current value of `counter`.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        // relaxed: statistics read; staleness is acceptable by contract.
        self.counters[counter.index()].load(Relaxed)
    }

    /// Copies every counter into a [`MetricsSnapshot`].  The process-global
    /// spurious-SC tally is folded in here (see
    /// [`Counter::SpuriousScFailures`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values = [0u64; COUNTER_COUNT];
        for c in Counter::ALL {
            values[c.index()] = self.get(c);
        }
        values[Counter::SpuriousScFailures.index()] = values[Counter::SpuriousScFailures.index()]
            .max(wcq_atomics::llsc::spurious_sc_failures());
        MetricsSnapshot { values }
    }
}

// --------------------------------------------------------------------------
// The compile-time instrumentation strategy
// --------------------------------------------------------------------------

/// Compile-time instrumentation strategy for the channel layer and the
/// builder.
///
/// # The zero-overhead contract
///
/// [`NoopInstrument`] — the default everywhere — **must compile to zero
/// code**: its `record` body is empty and `#[inline]`, and its
/// `counter_set()` returns `None`, so queues built with it never take the
/// counting branch and channel endpoints monomorphize every `record` call
/// away entirely.  `benchmark/` measures the claim on every run: its untraced
/// pass builds with [`NoopInstrument`], its traced pass with
/// [`CountingInstrument`], and `bench.trace_overhead_pct` is the difference.
/// Implementations other than [`CountingInstrument`] must
/// keep `record` wait-free and non-blocking: it is called from wait-free
/// queue paths.
pub trait Instrument: Clone + Send + Sync + 'static {
    /// Records `n` occurrences of `counter`.  The default does nothing.
    #[inline]
    fn record(&self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// The shared counter set to attach to queues built with this
    /// instrument, or `None` for un-instrumented builds.  The default
    /// returns `None`.
    #[inline]
    fn counter_set(&self) -> Option<Arc<CounterSet>> {
        None
    }
}

/// The default, zero-cost instrumentation: records nothing, attaches
/// nothing.  See the [`Instrument`] zero-overhead contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopInstrument;

impl Instrument for NoopInstrument {}

/// Live instrumentation: every layer built from the same builder shares this
/// instrument's [`CounterSet`].  Keep a clone and call
/// [`CountingInstrument::snapshot`] at any point — typically after workers
/// have dropped their handles, so the drop-flushed per-handle totals are
/// included.
#[derive(Debug, Clone, Default)]
pub struct CountingInstrument {
    set: Arc<CounterSet>,
}

impl CountingInstrument {
    /// Creates an instrument with a fresh, zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared counter set (the same one [`Instrument::counter_set`]
    /// hands to queues).
    pub fn counters(&self) -> &Arc<CounterSet> {
        &self.set
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.set.snapshot()
    }
}

impl Instrument for CountingInstrument {
    #[inline]
    fn record(&self, counter: Counter, n: u64) {
        self.set.add(counter, n);
    }

    #[inline]
    fn counter_set(&self) -> Option<Arc<CounterSet>> {
        Some(Arc::clone(&self.set))
    }
}

// --------------------------------------------------------------------------
// MetricsSnapshot
// --------------------------------------------------------------------------

/// A point-in-time copy of a [`CounterSet`], with derived accessors.
/// [`get`](MetricsSnapshot::get) (and `Debug`) is the one way to read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: [u64; COUNTER_COUNT],
}

impl MetricsSnapshot {
    /// A snapshot with every counter zero (useful as a merge accumulator).
    pub fn empty() -> Self {
        Self {
            values: [0; COUNTER_COUNT],
        }
    }

    /// Value of one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Total ring-level operations (enqueues + dequeues).  The helping
    /// invariant `helping_entries <= total_ring_ops` holds by construction:
    /// the helping check runs at most once per ring op.
    pub fn total_ring_ops(&self) -> u64 {
        self.get(Counter::RingEnqueues) + self.get(Counter::RingDequeues)
    }

    /// Ring ops that completed on the fast path (derived: total ring ops
    /// minus patience-exhausted slow-path entries).
    pub fn fast_ring_ops(&self) -> u64 {
        self.total_ring_ops().saturating_sub(
            self.get(Counter::PatienceExhaustedEnqueues)
                + self.get(Counter::PatienceExhaustedDequeues),
        )
    }

    /// Fraction of ring ops that fell back to the wait-free slow path
    /// (`0.0` when nothing ran).
    pub fn slow_path_fraction(&self) -> f64 {
        let total = self.total_ring_ops();
        if total == 0 {
            return 0.0;
        }
        (total - self.fast_ring_ops()) as f64 / total as f64
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += *b;
        }
    }
}

// --------------------------------------------------------------------------
// HDR-style log-bucketed latency histogram
// --------------------------------------------------------------------------

/// Linear sub-buckets per power-of-two octave (as a shift).
const SUB_BITS: usize = 5;
/// Linear sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: exact values `0..32`, then one octave of 32
/// sub-buckets per leading-bit position 5..=63 (59 octaves), covering the
/// whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = SUB + (64 - SUB_BITS) * SUB;

/// Concurrent recording shards (threads hash onto these round-robin).
const HIST_SHARDS: usize = 16;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread picks a shard once and sticks to it, so steady recording
    /// is a single uncontended relaxed `fetch_add` per sample.
    static MY_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
}

fn my_shard() -> usize {
    MY_SHARD.with(|s| match s.get() {
        Some(i) => i,
        None => {
            // relaxed: shard assignment only needs unique-ish round-robin
            // ids, not ordering with any other memory.
            let i = NEXT_SHARD.fetch_add(1, Relaxed) % HIST_SHARDS;
            s.set(Some(i));
            i
        }
    })
}

/// Bucket index for a sample: exact below [`SUB`], then log-linear — the top
/// [`SUB_BITS`] bits below the leading bit select the sub-bucket, bounding
/// relative error by `1/32`.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // >= SUB_BITS
        let mantissa = ((v >> (exp - SUB_BITS)) - SUB as u64) as usize;
        SUB + (exp - SUB_BITS) * SUB + mantissa
    }
}

/// Lower bound of a bucket (the representative value percentiles report; the
/// true sample was at most `1/32` above it).
fn bucket_value(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let exp = SUB_BITS + (i - SUB) / SUB;
        let mantissa = ((i - SUB) % SUB) as u64;
        (SUB as u64 + mantissa) << (exp - SUB_BITS)
    }
}

/// A lock-free, mergeable latency histogram (HDR-style log-linear buckets).
///
/// `record` is wait-free: one relaxed `fetch_add` on the calling thread's
/// shard.  Readers take a [`HistogramSnapshot`] (a plain sum over shards)
/// and query percentiles from that — recording never blocks on reading.
/// Values are unitless; the bench layer records nanoseconds.
pub struct LatencyHistogram {
    shards: Vec<Box<[AtomicU64]>>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count())
            .field("p50", &snap.p50())
            .field("p99", &snap.p99())
            .finish()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            shards: (0..HIST_SHARDS)
                .map(|_| {
                    (0..HISTOGRAM_BUCKETS)
                        .map(|_| AtomicU64::new(0))
                        .collect::<Vec<_>>()
                        .into_boxed_slice()
                })
                .collect(),
        }
    }

    /// Records one sample (clamps nothing: the bucket scheme covers all of
    /// `u64`, so the top bucket saturates naturally).
    #[inline]
    pub fn record(&self, value: u64) {
        // relaxed: histogram bucket bump; snapshots tolerate torn totals.
        self.shards[my_shard()][bucket_index(value)].fetch_add(1, Relaxed);
    }

    /// Sums every shard into a mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; HISTOGRAM_BUCKETS];
        let mut total = 0u64;
        for shard in &self.shards {
            for (acc, bucket) in counts.iter_mut().zip(shard.iter()) {
                // relaxed: statistics read; a snapshot is explicitly a racy
                // sum over shards.
                let n = bucket.load(Relaxed);
                *acc += n;
                total += n;
            }
        }
        HistogramSnapshot { counts, total }
    }
}

/// A point-in-time, mergeable copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (merge accumulator).
    pub fn empty() -> Self {
        Self {
            counts: vec![0; HISTOGRAM_BUCKETS],
            total: 0,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// The value at quantile `q` (`0.0..=1.0`): the representative (lower
    /// bound) of the bucket holding the `ceil(q·count)`-th sample.  `0` for
    /// an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(i);
            }
        }
        bucket_value(HISTOGRAM_BUCKETS - 1)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_round_trips_and_is_monotone() {
        // Exact region: values below 32 map to their own bucket.
        for v in 0..SUB as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
        // Log-linear region: the bucket's lower bound never exceeds the
        // sample and the next bucket's lower bound is strictly above it.
        for &v in &[
            32u64,
            33,
            63,
            64,
            100,
            1_000,
            123_456,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(bucket_value(i) <= v, "v={v} i={i}");
            if i + 1 < HISTOGRAM_BUCKETS {
                assert!(bucket_value(i + 1) > v, "v={v} i={i}");
            }
            // Relative error bound: lower bound within 1/32 of the sample.
            assert!((v - bucket_value(i)) as f64 <= v as f64 / 32.0 + 1.0);
        }
        // Indices are monotone in the sample value.
        let mut last = 0;
        for shift in 0..64 {
            let i = bucket_index(1u64 << shift);
            assert!(i >= last);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_record_and_percentile_round_trip() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        // Representatives are lower bounds, so percentiles sit within one
        // bucket (3.2%) below the exact answer.
        let p50 = s.p50();
        assert!((470..=500).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!((930..=990).contains(&p99), "p99={p99}");
        assert!(s.p999() >= p99);
        assert!(s.quantile(1.0) >= s.p999());
        assert_eq!(s.quantile(0.0), s.quantile(0.001));
    }

    #[test]
    fn histogram_saturates_at_the_top_bucket() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        let top = s.quantile(1.0);
        assert_eq!(top, bucket_value(HISTOGRAM_BUCKETS - 1));
        assert!(top > u64::MAX / 2);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
    }

    #[test]
    fn cross_thread_shards_merge_into_one_snapshot() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count(), 4000, "no shard's samples were lost");
        assert!(s.p999() >= 30_000, "the slowest thread's samples are seen");
        assert!(s.p50() < 30_000);
    }

    #[test]
    fn snapshots_merge_additively() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v + 1_000_000);
        }
        let mut merged = HistogramSnapshot::empty();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 200);
        assert!(merged.p50() < 1_000_000);
        // Representatives are bucket lower bounds (≤ 1/32 below the sample).
        assert!(merged.p999() >= 990_000, "{}", merged.p999());
    }

    #[test]
    fn counter_set_records_and_snapshots() {
        let set = CounterSet::new();
        set.add(Counter::RingEnqueues, 10);
        set.add(Counter::RingDequeues, 10);
        set.add(Counter::HelpingEntries, 3);
        set.add(Counter::PatienceExhaustedEnqueues, 2);
        let snap = set.snapshot();
        assert_eq!(snap.get(Counter::HelpingEntries), 3);
        assert_eq!(snap.total_ring_ops(), 20);
        assert_eq!(snap.fast_ring_ops(), 18);
        assert!(snap.slow_path_fraction() > 0.0);
        let mut merged = MetricsSnapshot::empty();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!(merged.get(Counter::HelpingEntries), 6);
    }

    #[test]
    fn noop_instrument_attaches_no_counters() {
        assert!(NoopInstrument.counter_set().is_none());
        NoopInstrument.record(Counter::RingEnqueues, 1); // compiles to nothing
    }

    #[test]
    fn counting_instrument_shares_one_set_across_clones() {
        let inst = CountingInstrument::new();
        let clone = inst.clone();
        clone.record(Counter::ChannelParks, 2);
        inst.counter_set().unwrap().add(Counter::ChannelParks, 1);
        assert_eq!(inst.snapshot().get(Counter::ChannelParks), 3);
    }
}
