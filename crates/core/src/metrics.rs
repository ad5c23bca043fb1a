//! Unified observability: a lock-free counter registry and a compile-time
//! instrumentation strategy.
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

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
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

/// The per-operation totals of one bounded or unbounded queue handle (module
/// docs, "Counting discipline"): plain fields on the hot path, flushed into
/// the queue's [`CounterSet`] (when one is attached) once, on handle drop.
#[derive(Debug, Default)]
pub struct OpTallies {
    /// Feeds [`Counter::EnqueuesCompleted`].
    pub enqueues_completed: u64,
    /// Feeds [`Counter::DequeuesCompleted`].
    pub dequeues_completed: u64,
    /// Feeds [`Counter::BatchValuesRequested`].
    pub batch_values_requested: u64,
    /// Feeds [`Counter::BatchValuesGranted`].
    pub batch_values_granted: u64,
}

impl OpTallies {
    /// Flushes the tallies into `set` and resets them to zero.
    pub fn flush(&mut self, set: &CounterSet) {
        set.add(Counter::EnqueuesCompleted, self.enqueues_completed);
        set.add(Counter::DequeuesCompleted, self.dequeues_completed);
        set.add(Counter::BatchValuesRequested, self.batch_values_requested);
        set.add(Counter::BatchValuesGranted, self.batch_values_granted);
        *self = Self::default();
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
