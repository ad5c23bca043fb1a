//! The sharded unbounded queue: N independent wLSCQ shards behind one facade.
//!
//! A single [`UnboundedWcq`] funnels every thread through one head/tail pair;
//! past a handful of cores those two cache lines are the whole bottleneck.
//! [`ShardedWcq`] breaks them into `N` independent [`UnboundedWcq`] shards
//! and routes operations:
//!
//! * **enqueue** goes to the shard a [`ShardPolicy`] picks — round-robin
//!   (spread blindly), least-loaded (spread by the shards' approximate
//!   length counters, sampled two at a time), pinned (always the handle's
//!   home shard) or adaptive (a handle-local *active prefix* of the shard
//!   set that grows under contention and shrinks when load is light);
//! * **dequeue** drains the handle's *home shard* first and falls back to
//!   scanning the other shards (work stealing), so consumers stay on their
//!   local shard — and its memoized segment binding — until it runs dry.
//!
//! ## What sharding keeps, and what it trades
//!
//! Each shard is a full wLSCQ: wait-freedom within segments, hazard-pointer
//! retirement and the bounded recycling cache are all preserved per shard, so
//! total memory stays bounded by the backlog plus `N` caches (the composition
//! argument of the memory-bounds literature: bounded queues compose without
//! losing the bound).  What is traded is the *global* FIFO order: elements
//! routed to different shards can be dequeued in either order.  Per-producer
//! FIFO — the order the stress oracle checks — survives exactly when each
//! producer's values all land on one shard, i.e. under
//! [`ShardPolicy::Pinned`]; the spreading policies trade that order for
//! throughput, which is the usual sharded-queue contract.
//!
//! Emptiness is also per-shard: a dequeue returns `None` after every shard
//! answered empty once, which (as for any scan of independent queues) is a
//! racy observation, not a linearizable global-emptiness check.

use std::sync::Arc;

use wcq_core::adaptive::{LOWER_LEVEL, RAISE_LEVEL};
use wcq_core::api::{QueueHandle, WaitFreeQueue};
use wcq_core::metrics::{Counter, CounterSet};
use wcq_core::wcq::{CellFamily, LlscFamily, NativeFamily, WcqConfig};

use crate::queue::{SegmentStats, UnboundedWcq, UnboundedWcqHandle, DEFAULT_SEGMENT_CACHE};

/// How a [`ShardedWcq`] routes enqueues to its shards.
///
/// Dequeue routing is fixed (home shard first, then steal) — the policy only
/// decides where new elements land, which is where the order/throughput trade
/// lives (see [`ShardedWcq`]'s docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardPolicy {
    /// Each handle cycles through the shards, one per enqueue.  Uniform by
    /// construction, no shared state, no counter reads — the default.
    #[default]
    RoundRobin,
    /// Each enqueue samples **two** shards (power-of-two-choices, from a
    /// handle-local seeded generator) and goes to the one with the smaller
    /// approximate length ([`UnboundedWcq::len_hint`]).  Two-choice sampling
    /// keeps the classic load-balance guarantee while paying two counter
    /// reads per enqueue instead of a full `N`-shard scan; with two shards
    /// it degenerates to comparing both, i.e. the exact least-loaded pick.
    LeastLoaded,
    /// Every enqueue goes to the handle's home shard.  Keeps each handle's
    /// values in one FIFO stream, so per-producer order is preserved for the
    /// lifetime of the producer's handle (a dropped-and-reacquired handle
    /// may land on a different home shard), at the cost of no load spreading
    /// from a single producer.
    Pinned,
    /// Handle-local adaptive routing: enqueues round-robin over an *active
    /// prefix* of the shard set that starts at one shard, doubles when the
    /// prefix shows ring contention or backlog, and halves when both are
    /// low — so a lightly loaded queue gets the single-shard fast path and
    /// a contended one spreads like [`ShardPolicy::RoundRobin`].  Once every
    /// shard is active, routing switches to the home shard (the
    /// [`ShardPolicy::Pinned`] cache pattern) because spreading can no
    /// longer help.  Dequeues still scan the **full** shard set home-first,
    /// so a shrink of the active prefix never strands elements on a
    /// deactivated shard.
    Adaptive,
}

impl ShardPolicy {
    /// Short policy name for reports and `Debug` output.
    pub fn name(&self) -> &'static str {
        match self {
            ShardPolicy::RoundRobin => "round-robin",
            ShardPolicy::LeastLoaded => "least-loaded",
            ShardPolicy::Pinned => "pinned",
            ShardPolicy::Adaptive => "adaptive",
        }
    }
}

/// An unbounded MPMC queue of `N` independent [`UnboundedWcq`] shards behind
/// the one [`WaitFreeQueue`] facade.
///
/// Construct through `wcq::builder().shards(n).build_sharded()`; threads
/// operate through [`ShardedWcqHandle`]s, which register on *every* shard
/// (one record slot each) so any shard can be enqueued to or stolen from
/// without a registration on the hot path.
pub struct ShardedWcq<T, F: CellFamily = NativeFamily> {
    shards: Box<[UnboundedWcq<T, F>]>,
    policy: ShardPolicy,
    max_threads: usize,
}

impl<T, F: CellFamily> ShardedWcq<T, F> {
    /// Creates `shards` shards whose segments hold `2^seg_order` elements,
    /// each usable by up to `max_threads` registered threads, with the
    /// default [`WcqConfig`] and segment-cache size.
    pub fn new(shards: usize, seg_order: u32, max_threads: usize, policy: ShardPolicy) -> Self {
        Self::with_config_and_cache(
            shards,
            seg_order,
            max_threads,
            WcqConfig::default(),
            DEFAULT_SEGMENT_CACHE,
            policy,
        )
    }

    /// Fully explicit constructor; every shard shares the same geometry,
    /// wait-freedom configuration and cache bound.
    pub fn with_config_and_cache(
        shards: usize,
        seg_order: u32,
        max_threads: usize,
        config: WcqConfig,
        cache_limit: usize,
        policy: ShardPolicy,
    ) -> Self {
        Self::with_config_cache_counters(
            shards,
            seg_order,
            max_threads,
            config,
            cache_limit,
            policy,
            None,
        )
    }

    /// Like [`ShardedWcq::with_config_and_cache`] with an optional shared
    /// [`CounterSet`]: every shard records into the same set, and routing
    /// decisions (routes vs steals) are tallied per handle and flushed on
    /// handle drop.
    pub fn with_config_cache_counters(
        shards: usize,
        seg_order: u32,
        max_threads: usize,
        config: WcqConfig,
        cache_limit: usize,
        policy: ShardPolicy,
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
            policy,
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

    /// The enqueue-routing policy this queue was built with.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
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
        // handle's lifetime (pinned routing feeds one FIFO stream per
        // handle), and usually stable across re-registration too because the
        // tid memo hands the same slot back — but the memo is best-effort,
        // so pinned-order guarantees are scoped to one handle's lifetime.
        let home = handles[0].tid() % self.shards.len();
        let tid = handles[0].tid() as u64;
        Some(ShardedWcqHandle {
            queue: self,
            handles,
            home,
            cursor: home,
            active: 1,
            window: 0,
            // Seeded from the tid so two-choice sampling is deterministic
            // under the harness's pinned-tid stress plans.
            rng: (tid + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            routes: 0,
            steals: 0,
            grown: 0,
            shrunk: 0,
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
            .field("policy", &self.policy.name())
            .field("max_threads", &self.max_threads)
            .field("len_hint", &self.len_hint())
            .finish()
    }
}

/// A per-thread handle to a [`ShardedWcq`]: one [`UnboundedWcqHandle`] per
/// shard, so each shard keeps its own memoized segment binding — a consumer
/// that stays on its home shard touches exactly one binding, and a stolen-from
/// shard's binding is memoized for the next steal.
///
/// Like the handles it is built from, a sharded handle is `!Send`:
///
/// ```compile_fail,E0277
/// use wcq_unbounded::{ShardPolicy, ShardedWcq};
/// let q: ShardedWcq<u64> = ShardedWcq::new(2, 4, 2, ShardPolicy::RoundRobin);
/// std::thread::scope(|s| {
///     let h = q.register().unwrap();
///     s.spawn(move || drop(h)); // ERROR: `ShardedWcqHandle` is `!Send`
/// });
/// ```
pub struct ShardedWcqHandle<'q, T, F: CellFamily = NativeFamily> {
    queue: &'q ShardedWcq<T, F>,
    handles: Vec<UnboundedWcqHandle<'q, T, F>>,
    /// This handle's local shard: where pinned enqueues land and where every
    /// dequeue scan starts.
    home: usize,
    /// Rotating cursor for round-robin routing and least-loaded tie-breaks.
    cursor: usize,
    /// Size of this handle's active shard prefix under
    /// [`ShardPolicy::Adaptive`] (`1..=shards`); unused by the other
    /// policies.  Handle-local on purpose: no shared routing state to
    /// contend on, at the cost of each handle learning the load level
    /// independently.
    active: usize,
    /// Routes since the last adaptive retune.
    window: u32,
    /// Handle-local xorshift state for two-choice sampling.
    rng: u64,
    /// Enqueue routing decisions made by this handle (plain tallies, flushed
    /// into the shared counter set on drop).
    routes: u64,
    /// Dequeues satisfied by a *non-home* shard (work stealing).
    steals: u64,
    /// Adaptive active-prefix growth events (flushed on drop).
    grown: u64,
    /// Adaptive active-prefix shrink events (flushed on drop).
    shrunk: u64,
}

/// Routes between adaptive retunes: small enough to react within one stress
/// round, large enough that the per-retune length-hint reads amortize to
/// noise on the enqueue path.
const ADAPT_WINDOW: u32 = 32;

/// Per-active-shard backlog (length hint) above which the adaptive prefix
/// widens even without ring contention: a deep backlog means consumers are
/// behind, and spreading gives them independent shards to drain.
const GROW_BACKLOG: usize = 64;

impl<'q, T, F: CellFamily> ShardedWcqHandle<'q, T, F> {
    /// The queue this handle operates on.
    pub fn queue(&self) -> &'q ShardedWcq<T, F> {
        self.queue
    }

    /// The shard pinned enqueues land on and dequeue scans start from.
    pub fn home_shard(&self) -> usize {
        self.home
    }

    /// Picks the target shard for one enqueue under the queue's policy.
    fn route(&mut self) -> usize {
        self.routes += 1;
        let n = self.handles.len();
        match self.queue.policy {
            ShardPolicy::Pinned => self.home,
            ShardPolicy::RoundRobin => {
                let pick = self.cursor % n;
                self.cursor = self.cursor.wrapping_add(1);
                pick
            }
            ShardPolicy::LeastLoaded => {
                if n == 1 {
                    return 0;
                }
                // Power-of-two-choices: sample two distinct shards and take
                // the shorter, rather than scanning all `n` length counters.
                // With n == 2 the "sample" is both shards, so the pick is
                // exactly least-loaded; ties go to `a`, which rotates with
                // the cursor so tied shards still share the load.
                let (a, b) = if n == 2 {
                    let start = self.cursor % 2;
                    self.cursor = self.cursor.wrapping_add(1);
                    (start, 1 - start)
                } else {
                    let a = self.next_rand() % n;
                    let b = (a + 1 + self.next_rand() % (n - 1)) % n;
                    (a, b)
                };
                if self.queue.shards[b].len_hint() < self.queue.shards[a].len_hint() {
                    b
                } else {
                    a
                }
            }
            ShardPolicy::Adaptive => {
                self.window += 1;
                if self.window >= ADAPT_WINDOW {
                    self.window = 0;
                    self.retune();
                }
                if self.active >= n {
                    // Every shard is active: spreading cannot reduce
                    // contention further, so take the pinned cache pattern.
                    self.home
                } else {
                    let pick = self.cursor % self.active;
                    self.cursor = self.cursor.wrapping_add(1);
                    pick
                }
            }
        }
    }

    /// Handle-local xorshift64 step (two-choice sampling).
    #[inline]
    fn next_rand(&mut self) -> usize {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x as usize
    }

    /// Re-sizes the adaptive active prefix from what this handle can see:
    /// its own per-shard contention EWMAs (handle-local, free to read) and
    /// the active shards' length hints (one relaxed atomic read per active
    /// shard, paid once per [`ADAPT_WINDOW`] routes — never per enqueue).
    fn retune(&mut self) {
        let n = self.handles.len();
        let contention = self.handles[..self.active]
            .iter()
            .map(|h| h.contention_level())
            .max()
            .unwrap_or(0);
        let backlog: usize = self.queue.shards[..self.active]
            .iter()
            .map(|s| s.len_hint())
            .sum();
        if self.active < n && (contention >= RAISE_LEVEL || backlog > self.active * GROW_BACKLOG) {
            self.active = (self.active * 2).min(n);
            self.grown += 1;
        } else if self.active > 1
            && contention < LOWER_LEVEL
            && backlog <= self.active.div_ceil(2) * (GROW_BACKLOG / 2)
        {
            // Only shrink when the remaining backlog comfortably fits the
            // halved prefix, so the shrink itself cannot create a hot spot.
            self.active = self.active.div_ceil(2);
            self.shrunk += 1;
        }
    }

    /// Current size of the adaptive active prefix (always `1` until the
    /// first retune; equal to the shard count once fully widened).  Only
    /// meaningful under [`ShardPolicy::Adaptive`].
    pub fn active_shards(&self) -> usize {
        self.active
    }

    /// Checker seam: pins the adaptive active prefix to `n` shards (clamped
    /// to `1..=shards`) and restarts the retune window.  The schedule
    /// explorer uses this to place a prefix shrink at an exact point in an
    /// interleaving — shrink safety must hold wherever the retune lands, so
    /// forcing the transition is sound.  Not meant for applications.
    #[doc(hidden)]
    pub fn debug_set_active(&mut self, n: usize) {
        self.active = n.clamp(1, self.handles.len());
        self.window = 0;
    }

    /// Enqueues `value` on the shard the policy picks.  Never fails: each
    /// shard is unbounded.
    pub fn enqueue(&mut self, value: T) {
        let shard = self.route();
        self.handles[shard].enqueue(value);
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

    /// Enqueues every element of `values` (draining it) onto **one** shard
    /// picked by a single policy decision, so the batch pays one route — one
    /// cursor bump or one length scan — instead of one per element.  Returns
    /// the number enqueued (always the original `values.len()`; each shard is
    /// unbounded).
    ///
    /// Routing whole batches is the sharded FIFO contract at batch
    /// granularity: a pinned producer's batches all land on its home shard in
    /// order, while the spreading policies spread batch-by-batch rather than
    /// element-by-element.
    pub fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        if values.is_empty() {
            return 0;
        }
        let shard = self.route();
        self.handles[shard].enqueue_many(values)
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
            set.add(Counter::ShardRoutes, self.routes);
            set.add(Counter::ShardSteals, self.steals);
            set.add(Counter::ShardSetGrown, self.grown);
            set.add(Counter::ShardSetShrunk, self.shrunk);
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

impl<T: Send, F: CellFamily> QueueHandle<T> for ShardedWcqHandle<'_, T, F> {
    fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        ShardedWcqHandle::enqueue(self, value);
        Ok(())
    }
    fn dequeue(&mut self) -> Option<T> {
        ShardedWcqHandle::dequeue(self)
    }
    fn enqueue(&mut self, value: T) {
        // Unbounded: no full state to retry around.
        ShardedWcqHandle::enqueue(self, value);
    }
    fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        ShardedWcqHandle::enqueue_many(self, values)
    }
    fn dequeue_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        ShardedWcqHandle::dequeue_many(self, out, max)
    }
}

impl<T: Send, F: CellFamily> WaitFreeQueue<T> for ShardedWcq<T, F> {
    fn name(&self) -> &'static str {
        match (F::NAME == LlscFamily::NAME, self.policy) {
            (false, ShardPolicy::Adaptive) => "Sharded wLSCQ (adaptive)",
            (true, ShardPolicy::Adaptive) => "Sharded wLSCQ (LL/SC, adaptive)",
            (true, _) => "Sharded wLSCQ (LL/SC)",
            (false, _) => "Sharded wLSCQ",
        }
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<T> + '_>> {
        self.register().map(|h| Box::new(h) as _)
    }
    fn max_threads(&self) -> usize {
        ShardedWcq::max_threads(self)
    }
    fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .shards
                .iter()
                .map(|s| s.memory_footprint())
                .sum::<usize>()
    }
    fn is_empty_hint(&self) -> bool {
        self.shards.iter().all(|s| s.len_hint() == 0)
    }
    fn has_empty_hint(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn round_robin_spreads_one_producer_across_all_shards() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2, ShardPolicy::RoundRobin);
        let mut h = q.handle();
        for i in 0..40 {
            h.enqueue(i);
        }
        for shard in q.shards() {
            assert_eq!(shard.len_hint(), 10, "{q:?}");
        }
    }

    #[test]
    fn pinned_keeps_one_producer_on_its_home_shard() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2, ShardPolicy::Pinned);
        let mut h = q.handle();
        for i in 0..40 {
            h.enqueue(i);
        }
        assert_eq!(q.shards()[h.home_shard()].len_hint(), 40);
        assert_eq!(q.len_hint(), 40);
        // And a pinned stream preserves FIFO end to end.
        for i in 0..40 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn least_loaded_balances_against_a_preloaded_shard() {
        let q: ShardedWcq<u64> = ShardedWcq::new(2, 6, 2, ShardPolicy::LeastLoaded);
        let mut h = q.handle();
        // Preload one shard through the round-robin-free path: pin by hand.
        // 20 least-loaded enqueues must all prefer the empty shard until the
        // lengths equalize, then alternate.
        for i in 0..10 {
            h.handles[0].enqueue(1000 + i);
        }
        for i in 0..20 {
            h.enqueue(i);
        }
        let (a, b) = (q.shards()[0].len_hint(), q.shards()[1].len_hint());
        assert_eq!(a + b, 30);
        assert!(a.abs_diff(b) <= 1, "least-loaded must equalize: {a} vs {b}");
    }

    #[test]
    fn dequeue_steals_from_every_shard() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2, ShardPolicy::RoundRobin);
        let mut producer = q.handle();
        for i in 0..100 {
            producer.enqueue(i);
        }
        drop(producer);
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
        let q: ShardedWcq<u64> = ShardedWcq::new(1, 3, 2, ShardPolicy::LeastLoaded);
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
        let q: ShardedWcq<u8> = ShardedWcq::new(2, 4, 2, ShardPolicy::RoundRobin);
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
    fn trait_facade_round_trips() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 4, 2, ShardPolicy::RoundRobin);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        assert_eq!(dynq.name(), "Sharded wLSCQ");
        assert!(dynq.is_empty_hint());
        let mut h = dynq.handle();
        for i in 0..200 {
            h.enqueue(i);
        }
        assert!(!dynq.is_empty_hint());
        let mut seen = HashSet::new();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 200);
        assert!(dynq.memory_footprint() > 0);
        assert_eq!(dynq.max_threads(), 2);
    }

    #[test]
    fn llsc_family_round_trips_and_reports_its_name() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        let q: ShardedWcq<u64, LlscFamily> = ShardedWcq::new(2, 4, 2, ShardPolicy::Pinned);
        assert_eq!(WaitFreeQueue::<u64>::name(&q), "Sharded wLSCQ (LL/SC)");
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
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 4, THREADS as usize, ShardPolicy::RoundRobin);
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
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2, ShardPolicy::RoundRobin);
        let mut h = q.handle();
        // Four batches of 10 must land on four different shards whole, not be
        // sprayed element-wise (which would put 10 on every shard anyway but
        // interleave streams).
        for b in 0..4u64 {
            let mut batch: Vec<u64> = (b * 10..(b + 1) * 10).collect();
            assert_eq!(h.enqueue_many(&mut batch), 10);
        }
        for shard in q.shards() {
            assert_eq!(shard.len_hint(), 10, "whole batches spread round-robin");
        }
        // Each shard holds one contiguous FIFO batch.
        for shard in q.shards() {
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
        let q: ShardedWcq<u64> = ShardedWcq::new(2, 6, 2, ShardPolicy::Pinned);
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
    fn batch_trait_impls_delegate_and_hint_is_advertised() {
        let q: ShardedWcq<u64> = ShardedWcq::new(2, 4, 2, ShardPolicy::RoundRobin);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        assert!(dynq.has_empty_hint());
        let mut h = dynq.handle();
        let mut batch: Vec<u64> = (0..30).collect();
        assert_eq!(h.enqueue_many(&mut batch), 30);
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        loop {
            out.clear();
            if h.dequeue_into(&mut out, 7) == 0 {
                break;
            }
            for v in &out {
                assert!(seen.insert(*v));
            }
        }
        assert_eq!(seen.len(), 30);
    }

    #[test]
    fn least_loaded_p2c_avoids_a_heavily_preloaded_shard() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2, ShardPolicy::LeastLoaded);
        let mut h = q.handle();
        // 100 values parked on shard 0 by hand.  Every two-choice sample
        // that includes shard 0 pairs it with a strictly shorter shard (the
        // others never exceed 200/3 < 100), so shard 0 must receive none of
        // the 200 routed enqueues.
        for i in 0..100 {
            h.handles[0].enqueue(10_000 + i);
        }
        for i in 0..200 {
            h.enqueue(i);
        }
        assert_eq!(
            q.shards()[0].len_hint(),
            100,
            "two-choice sampling kept routing away from the loaded shard"
        );
        assert_eq!(q.len_hint(), 300);
        // And nothing is stranded: one consumer recovers everything.
        let mut seen = HashSet::new();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 300);
    }

    #[test]
    fn adaptive_starts_on_a_single_shard() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2, ShardPolicy::Adaptive);
        let mut h = q.handle();
        assert_eq!(h.active_shards(), 1);
        // Below both the contention and backlog thresholds the prefix stays
        // at one shard, i.e. the single-shard fast path: everything lands on
        // shard 0 and per-producer FIFO is preserved end to end.
        for i in 0..30 {
            h.enqueue(i);
        }
        assert_eq!(h.active_shards(), 1);
        assert_eq!(q.shards()[0].len_hint(), 30);
        for i in 0..30 {
            assert_eq!(h.dequeue(), Some(i));
        }
    }

    #[test]
    fn adaptive_widens_under_backlog_then_shrinks_when_drained() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2, ShardPolicy::Adaptive);
        let mut h = q.handle();
        // An undrained producer builds backlog past GROW_BACKLOG per active
        // shard; successive retunes must widen the prefix to the full set.
        for i in 0..2_000u64 {
            h.enqueue(i);
        }
        assert_eq!(h.active_shards(), 4, "backlog must widen the prefix");
        // Drain everything; with an empty queue and an idle ring the next
        // retunes must walk the prefix back down to one shard.
        let mut seen = HashSet::new();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 2_000, "widening and shrinking lose nothing");
        for i in 0..200 {
            h.enqueue(i);
            assert!(h.dequeue().is_some());
        }
        assert_eq!(h.active_shards(), 1, "drained queue shrinks back");
    }

    #[test]
    fn adaptive_shrink_strands_nothing_behind_the_prefix() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 2, ShardPolicy::Adaptive);
        let mut h = q.handle();
        // Force the prefix wide (once it covers the full set, routing goes
        // home, so widening alone leaves the tail shards empty)...
        for i in 0..1_000u64 {
            h.enqueue(i);
        }
        assert_eq!(h.active_shards(), 4);
        // ...and park values on *every* shard directly, so that when the
        // prefix shrinks there is data sitting behind it.
        for shard in 0..4u64 {
            for j in 0..50 {
                h.handles[shard as usize].enqueue(10_000 + shard * 50 + j);
            }
        }
        // Drain with light interleaved traffic: the prefix shrinks while
        // elements still sit on deactivated shards, and the full-set
        // home-first dequeue scan must recover every value anyway.
        let mut seen = HashSet::new();
        let mut next = 20_000u64;
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v), "duplicated {v}");
            if next < 20_400 {
                h.enqueue(next);
                next += 1;
            }
        }
        assert_eq!(
            seen.len() as u64,
            1_000 + 200 + (next - 20_000),
            "shrink must not strand elements"
        );
        assert_eq!(q.len_hint(), 0);
        // A calm phase (retunes only run on routes, and the drain tail above
        // is dequeue-only) walks the prefix back down.
        for i in 0..200 {
            h.enqueue(i);
            assert!(h.dequeue().is_some());
        }
        assert_eq!(h.active_shards(), 1, "drained queue shrinks the prefix");
    }

    #[test]
    fn adaptive_name_is_policy_aware() {
        let q: ShardedWcq<u64> = ShardedWcq::new(2, 4, 1, ShardPolicy::Adaptive);
        assert_eq!(WaitFreeQueue::<u64>::name(&q), "Sharded wLSCQ (adaptive)");
        let q: ShardedWcq<u64, LlscFamily> = ShardedWcq::new(2, 4, 1, ShardPolicy::Adaptive);
        assert_eq!(
            WaitFreeQueue::<u64>::name(&q),
            "Sharded wLSCQ (LL/SC, adaptive)"
        );
    }

    #[test]
    fn aggregated_segment_stats_sum_over_shards() {
        let q: ShardedWcq<u64> = ShardedWcq::new(3, 3, 1, ShardPolicy::RoundRobin);
        let mut h = q.handle();
        for i in 0..90 {
            h.enqueue(i); // 30 values per 8-slot-segment shard: growth everywhere
        }
        let stats = q.segment_stats();
        assert!(
            stats.live >= 3,
            "every shard keeps at least one live segment"
        );
        assert_eq!(
            stats.live,
            q.shards().iter().map(|s| s.segments_live()).sum::<usize>()
        );
    }
}
