//! The sharded unbounded queue: N independent wLSCQ shards behind one handle.
//!
//! It is no channel backend and implements no `WaitFreeQueue`: its `None` is
//! a racy scan and it keeps only per-producer FIFO, so nothing but the
//! `benchmark/` ledger's sharded rungs builds it (ROADMAP item 4 deletes it).
//!
//! A single [`UnboundedWcq`] funnels every thread through one head/tail pair;
//! past a handful of cores those two cache lines are the whole bottleneck.
//! [`ShardedWcq`] breaks them into `N` independent [`UnboundedWcq`] shards
//! and routes operations:
//!
//! * **enqueue** goes to the handle's *home shard* (derived from its record
//!   slot, so distinct live handles spread over the shards);
//! * **dequeue** drains the handle's *home shard* first and falls back to
//!   scanning the other shards (work stealing), so consumers stay on their
//!   local shard — and its segment memo — until it runs dry.
//!
//! ## What sharding keeps, and what it trades
//!
//! Each shard is a full wLSCQ: wait-freedom within segments, hazard-pointer
//! retirement and the bounded recycling cache are all preserved per shard, so
//! total memory stays bounded by the backlog plus `N` caches (the composition
//! argument of the memory-bounds literature: bounded queues compose without
//! losing the bound).  What is traded is the *global* FIFO order: elements
//! of different producers can sit on different shards and be dequeued in
//! either order.  Per-producer FIFO — the order `tests/sharded.rs` and the
//! `sharded` explorer target check — survives, because each producer's values all land on one shard for the
//! lifetime of its handle.
//!
//! Emptiness is also per-shard: a dequeue returns `None` after every shard
//! answered empty once, which (as for any scan of independent queues) is a
//! racy observation, not a linearizable global-emptiness check.

use std::sync::Arc;

use wcq_core::metrics::{Counter, CounterSet};
use wcq_core::wcq::{CellFamily, NativeFamily, WcqConfig};

use crate::queue::{SegmentStats, UnboundedWcq, UnboundedWcqHandle, DEFAULT_SEGMENT_CACHE};

/// An unbounded MPMC queue of `N` independent [`UnboundedWcq`] shards.
///
/// Construct through `wcq::builder().shards(n).build_sharded()`; threads
/// operate through [`ShardedWcqHandle`]s, which register on *every* shard
/// (one record slot each) so any shard can be enqueued to or stolen from
/// without a registration on the hot path.
pub struct ShardedWcq<T, F: CellFamily = NativeFamily> {
    shards: Box<[UnboundedWcq<T, F>]>,
    max_threads: usize,
}

impl<T, F: CellFamily> ShardedWcq<T, F> {
    /// Creates `shards` shards whose segments hold `2^seg_order` elements,
    /// each usable by up to `max_threads` registered threads, with the
    /// default [`WcqConfig`] and segment-cache size, and no telemetry.
    pub fn new(shards: usize, seg_order: u32, max_threads: usize) -> Self {
        Self::with_config_cache_counters(
            shards,
            seg_order,
            max_threads,
            WcqConfig::default(),
            DEFAULT_SEGMENT_CACHE,
            None,
        )
    }

    /// Fully explicit constructor; every shard shares the same geometry,
    /// wait-freedom configuration and cache bound, and records into the same
    /// optional [`CounterSet`] (steals are tallied per handle and flushed on
    /// handle drop).
    pub fn with_config_cache_counters(
        shards: usize,
        seg_order: u32,
        max_threads: usize,
        config: WcqConfig,
        cache_limit: usize,
        counters: Option<Arc<CounterSet>>,
    ) -> Self {
        assert!(shards >= 1, "a sharded queue needs at least one shard");
        let shards: Box<[UnboundedWcq<T, F>]> = (0..shards)
            .map(|_| {
                UnboundedWcq::with_config_cache_counters(
                    seg_order,
                    max_threads,
                    config,
                    cache_limit,
                    counters.clone(),
                )
            })
            .collect();
        Self {
            shards,
            max_threads,
        }
    }

    /// The telemetry counter set shared by every shard, if attached.
    pub fn counter_set(&self) -> Option<&Arc<CounterSet>> {
        self.shards[0].counter_set()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of simultaneously registered threads (per shard, and
    /// therefore for the queue as a whole — every handle occupies one slot on
    /// every shard).
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// The underlying shards, for statistics and memory accounting (each is a
    /// full [`UnboundedWcq`] with its own segment stats and cache stats).
    pub fn shards(&self) -> &[UnboundedWcq<T, F>] {
        &self.shards
    }

    /// Approximate total element count: the sum of the shards'
    /// [`UnboundedWcq::len_hint`]s.  A hint, not a linearizable size.
    pub fn len_hint(&self) -> usize {
        self.shards.iter().map(|s| s.len_hint()).sum()
    }

    /// Aggregated segment statistics across all shards.
    pub fn segment_stats(&self) -> SegmentStats {
        let mut total = SegmentStats {
            live: 0,
            cached: 0,
            retired_pending: 0,
            allocated_total: 0,
            reused_total: 0,
        };
        for stats in self.shards.iter().map(|s| s.segment_stats()) {
            total.live += stats.live;
            total.cached += stats.cached;
            total.retired_pending += stats.retired_pending;
            total.allocated_total += stats.allocated_total;
            total.reused_total += stats.reused_total;
        }
        total
    }

    /// Registers the calling thread on every shard, or `None` when any shard
    /// has all `max_threads` slots taken (partially acquired slots are
    /// released again).  Re-registration is O(shards) single-CAS re-entries
    /// through the per-shard tid memo.
    pub fn register(&self) -> Option<ShardedWcqHandle<'_, T, F>> {
        let mut handles = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            match shard.register() {
                Some(h) => handles.push(h),
                // Dropping the partial vec releases the slots already taken.
                None => return None,
            }
        }
        // The home shard is derived from the shard-0 tid: fixed for the
        // handle's lifetime (one FIFO stream per handle), and usually stable
        // across re-registration too because the tid memo hands the same
        // slot back — but the memo is best-effort, so the per-producer order
        // guarantee is scoped to one handle's lifetime.
        let home = handles[0].tid() % self.shards.len();
        Some(ShardedWcqHandle {
            queue: self,
            handles,
            home,
            steals: 0,
        })
    }

    /// Registers the calling thread, panicking when any shard's registration
    /// slots are exhausted ([`ShardedWcq::register`] is the fallible variant).
    pub fn handle(&self) -> ShardedWcqHandle<'_, T, F> {
        self.register().unwrap_or_else(|| {
            panic!(
                "all {} registration slots of this sharded wLSCQ queue are in use",
                self.max_threads
            )
        })
    }
}

impl<T, F: CellFamily> std::fmt::Debug for ShardedWcq<T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWcq")
            .field("family", &F::NAME)
            .field("shards", &self.shards.len())
            .field("max_threads", &self.max_threads)
            .field("len_hint", &self.len_hint())
            .finish()
    }
}

/// A per-thread handle to a [`ShardedWcq`]: one [`UnboundedWcqHandle`] per
/// shard, so each shard keeps its own segment memo — a consumer that stays on
/// its home shard touches exactly one memo, and a stolen-from shard's segment
/// stays memoized for the next steal.
///
/// Like the handles it is built from, a sharded handle is `!Send`:
///
/// ```compile_fail,E0277
/// use wcq_unbounded::ShardedWcq;
/// let q: ShardedWcq<u64> = ShardedWcq::new(2, 4, 2);
/// std::thread::scope(|s| {
///     let h = q.register().unwrap();
///     s.spawn(move || drop(h)); // ERROR: `ShardedWcqHandle` is `!Send`
/// });
/// ```
pub struct ShardedWcqHandle<'q, T, F: CellFamily = NativeFamily> {
    queue: &'q ShardedWcq<T, F>,
    handles: Vec<UnboundedWcqHandle<'q, T, F>>,
    /// This handle's local shard: where its enqueues land and where every
    /// dequeue scan starts.
    home: usize,
    /// Dequeues satisfied by a *non-home* shard (work stealing; a plain
    /// tally, flushed into the shared counter set on drop).
    steals: u64,
}

impl<'q, T, F: CellFamily> ShardedWcqHandle<'q, T, F> {
    /// The queue this handle operates on.
    pub fn queue(&self) -> &'q ShardedWcq<T, F> {
        self.queue
    }

    /// The shard this handle's enqueues land on and its dequeue scans start
    /// from.
    pub fn home_shard(&self) -> usize {
        self.home
    }

    /// Enqueues `value` on the home shard.  Never fails: each shard is
    /// unbounded.
    pub fn enqueue(&mut self, value: T) {
        self.handles[self.home].enqueue(value);
    }

    /// Dequeues an element: the home shard first, then every other shard in
    /// ring order (work stealing).  `None` means each shard was observed
    /// empty once during the scan — a racy observation, as for any sharded
    /// queue, not a linearizable global-emptiness check.
    pub fn dequeue(&mut self) -> Option<T> {
        let n = self.handles.len();
        for k in 0..n {
            let shard = (self.home + k) % n;
            if let Some(v) = self.handles[shard].dequeue() {
                self.steals += (k > 0) as u64;
                return Some(v);
            }
        }
        None
    }

    /// Enqueues every element of `values` (draining it) on the home shard,
    /// in order.  Returns the number enqueued (always the original
    /// `values.len()`; each shard is unbounded).
    pub fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        self.handles[self.home].enqueue_many(values)
    }

    /// Dequeues up to `max` elements into `out`: the home shard is drained
    /// first, and only if it yields nothing does the scan steal from the
    /// other shards in ring order — the batch analogue of
    /// [`ShardedWcqHandle::dequeue`]'s routing.  Returns the number appended;
    /// `0` means every shard was observed empty once during the scan.
    pub fn dequeue_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let n = self.handles.len();
        for k in 0..n {
            let shard = (self.home + k) % n;
            let got = self.handles[shard].dequeue_many(out, max);
            if got > 0 {
                self.steals += (k > 0) as u64;
                return got;
            }
        }
        0
    }

    /// Forces a hazard-pointer scan of the retired segments of every shard
    /// (used by tests to make recycling deterministic).
    pub fn flush_reclamation(&mut self) {
        for h in &mut self.handles {
            h.flush_reclamation();
        }
    }
}

impl<'q, T, F: CellFamily> Drop for ShardedWcqHandle<'q, T, F> {
    fn drop(&mut self) {
        if let Some(set) = self.queue.counter_set() {
            set.add(Counter::ShardSteals, self.steals);
        }
    }
}

impl<'q, T, F: CellFamily> std::fmt::Debug for ShardedWcqHandle<'q, T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWcqHandle")
            .field("shards", &self.handles.len())
            .field("home", &self.home)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wcq_core::wcq::{LlscFamily, RingFamily};

    /// One live handle per shard: handles held at once own distinct record
    /// slots, hence distinct home shards — the way to put traffic on every
    /// shard.
    fn handle_per_shard<T, F: CellFamily>(q: &ShardedWcq<T, F>) -> Vec<ShardedWcqHandle<'_, T, F>> {
        let handles: Vec<_> = (0..q.shard_count()).map(|_| q.handle()).collect();
        let homes: HashSet<usize> = handles.iter().map(|h| h.home_shard()).collect();
        assert_eq!(
            homes.len(),
            q.shard_count(),
            "distinct tids, distinct homes"
        );
        handles
    }

    #[test]
    fn pinned_keeps_one_producer_on_its_home_shard() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2);
        let mut h = q.handle();
        for i in 0..40 {
            h.enqueue(i);
        }
        assert_eq!(q.shards()[h.home_shard()].len_hint(), 40);
        assert_eq!(q.len_hint(), 40);
        // And the stream preserves FIFO end to end.
        for i in 0..40 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn dequeue_steals_from_every_shard() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 4);
        for (p, producer) in handle_per_shard(&q).iter_mut().enumerate() {
            for i in 0..25 {
                producer.enqueue(p as u64 * 25 + i);
            }
        }
        for shard in q.shards() {
            assert_eq!(shard.len_hint(), 25, "{q:?}");
        }
        // A single consumer must recover all values even though they live on
        // four different shards.
        let mut consumer = q.handle();
        let mut seen = HashSet::new();
        while let Some(v) = consumer.dequeue() {
            assert!(seen.insert(v), "duplicated {v}");
        }
        assert_eq!(seen.len(), 100);
        assert_eq!(q.len_hint(), 0);
    }

    #[test]
    fn one_shard_behaves_like_plain_wlscq() {
        let q: ShardedWcq<u64> = ShardedWcq::new(1, 3, 2);
        let mut h = q.handle();
        for i in 0..100 {
            h.enqueue(i); // forces segment growth inside the single shard
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i), "single shard is plain FIFO");
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn registration_exhaustion_releases_partial_slots() {
        let q: ShardedWcq<u8> = ShardedWcq::new(2, 4, 2);
        let h1 = q.register().unwrap();
        let h2 = q.register().unwrap();
        assert!(q.register().is_none(), "both slots taken on every shard");
        drop(h1);
        let h3 = q.register();
        assert!(h3.is_some(), "drop must release one slot per shard");
        drop(h2);
        drop(h3);
        // After all drops every shard accepts registrations again.
        for shard in q.shards() {
            assert!(shard.register().is_some());
        }
    }

    #[test]
    fn llsc_family_round_trips_and_reports_its_name() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        let q: ShardedWcq<u64, LlscFamily> = ShardedWcq::new(2, 4, 2);
        let debug = format!("{q:?}");
        assert!(debug.contains(LlscFamily::NAME), "{debug}");
        let mut h = q.handle();
        for i in 0..50 {
            h.enqueue(i);
        }
        for i in 0..50 {
            assert_eq!(h.dequeue(), Some(i));
        }
    }

    #[test]
    fn mpmc_stress_sum_preserved_across_shards_and_growth() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 4_000;
        // Tiny 16-slot segments on every shard guarantee constant churn.
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 4, THREADS as usize);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = &q;
                let sum = &sum;
                let count = &count;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..PER_THREAD {
                        h.enqueue(t * PER_THREAD + i);
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    while let Some(v) = h.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let n = THREADS * PER_THREAD;
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn batch_enqueue_routes_once_per_batch() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 4);
        // Four handles, one batch of 10 each: every batch must land on its
        // handle's home shard whole.
        for (b, h) in handle_per_shard(&q).iter_mut().enumerate() {
            let b = b as u64;
            let mut batch: Vec<u64> = (b * 10..(b + 1) * 10).collect();
            assert_eq!(h.enqueue_many(&mut batch), 10);
        }
        // Each shard holds one contiguous FIFO batch.
        for shard in q.shards() {
            assert_eq!(shard.len_hint(), 10);
            let mut sh = shard.register().unwrap();
            let first = sh.dequeue().unwrap();
            assert_eq!(first % 10, 0, "batches were not split across shards");
            for offset in 1..10 {
                assert_eq!(sh.dequeue(), Some(first + offset));
            }
        }
    }

    #[test]
    fn batch_dequeue_drains_home_then_steals() {
        let q: ShardedWcq<u64> = ShardedWcq::new(2, 6, 2);
        let mut h = q.handle();
        let mut batch: Vec<u64> = (0..20).collect();
        h.enqueue_many(&mut batch);
        // Park 5 values on the non-home shard by hand to force a steal later.
        let other = (h.home_shard() + 1) % 2;
        for i in 100..105 {
            h.handles[other].enqueue(i);
        }
        let mut out = Vec::new();
        let mut drained = 0;
        while drained < 20 {
            let got = h.dequeue_many(&mut out, 8);
            assert!(got > 0);
            drained += got;
        }
        assert_eq!(out, (0..20).collect::<Vec<_>>(), "home FIFO drained first");
        out.clear();
        let mut stolen = 0;
        while stolen < 5 {
            let got = h.dequeue_many(&mut out, 8);
            assert!(got > 0, "steal scan must reach the other shard");
            stolen += got;
        }
        assert_eq!(out, (100..105).collect::<Vec<_>>());
        assert_eq!(h.dequeue_many(&mut out, 8), 0);
    }

    #[test]
    fn aggregated_segment_stats_sum_over_shards() {
        let q: ShardedWcq<u64> = ShardedWcq::new(3, 3, 3);
        for h in handle_per_shard(&q).iter_mut() {
            for i in 0..30 {
                h.enqueue(i); // 30 values per 8-slot-segment shard: growth everywhere
            }
        }
        let stats = q.segment_stats();
        assert!(stats.live > 3, "every shard grew past its first segment");
        assert_eq!(
            stats.live,
            q.shards().iter().map(|s| s.segments_live()).sum::<usize>()
        );
    }
}
