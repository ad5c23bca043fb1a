//! The unbounded queue: a Michael–Scott-style outer list of wCQ segments.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ptr;
use std::sync::atomic::{
    AtomicPtr, AtomicU64, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::Arc;

use wcq_atomics::{Backoff, CachePadded};
use wcq_core::api::{QueueHandle, WaitFreeQueue};
use wcq_core::metrics::{Counter, CounterSet};
use wcq_core::wcq::{CellFamily, LlscFamily, NativeFamily, RingFamily, WcqConfig};
use wcq_reclaim::{HazardDomain, HazardHandle};

use crate::segment::{recycle_segment, shut, Segment, SegmentCache, Stash};

/// Default number of drained segments kept for reuse.
pub const DEFAULT_SEGMENT_CACHE: usize = 4;

/// Live/allocated/cached segment counts of an [`UnboundedWcq`] (statistics
/// for the memory tests and the bench JSON output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segments currently linked into the queue (always >= 1).
    pub live: usize,
    /// Drained segments parked in the reuse cache.
    pub cached: usize,
    /// Retired segments awaiting hazard-pointer reclamation: those another
    /// handle still protected when they retired (a segment is scanned for
    /// the moment it retires, and these are re-scanned at the retirer's next
    /// retirement, [`UnboundedWcqHandle::flush_reclamation`] or drop).
    pub retired_pending: usize,
    /// Segments ever obtained from the allocator (not from the cache).
    pub allocated_total: usize,
    /// Appends served from the cache instead of the allocator.
    pub reused_total: usize,
}

impl SegmentStats {
    /// Segments currently occupying memory, whatever their role.
    pub fn resident(&self) -> usize {
        self.live + self.cached + self.retired_pending
    }
}

/// An unbounded MPMC FIFO queue of `T`: fixed-capacity wait-free wCQ ring
/// segments linked into a Michael–Scott-style outer list (the paper's LSCQ
/// construction, §2.3, with wCQ rings — "wLSCQ").
///
/// * **Within a segment** every inner ring operation is wait-free (the wCQ
///   guarantee).
/// * **Across segments** appending and retiring uses the MS-queue CAS
///   discipline (lock-free: some thread always makes progress, an individual
///   append can be delayed).
/// * **Advancing the head is blocking.**  A dequeuer that finds the head
///   segment drained and closed first waits, in `dequeue_crossing`, for
///   every enqueuer that claimed the segment before it closed to make its
///   `aq` deposit.  So an enqueuer preempted between its in-flight claim and
///   its deposit stalls every dequeuer at that boundary: not wait-free, not
///   even lock-free.  LSCQ and LCRQ do not pay this: they close a ring on its
///   tail, so a late enqueue fails inside its own F&A and nobody waits.
///   ROADMAP item 3 is the fix.
/// * **Closing** ([`UnboundedWcqHandle::close`]) closes the tail segment's
///   gate and links a `SHUT` sentinel after it; the loop retries only when an
///   appender linked a segment first, so it is lock-free.  From then on every
///   enqueue is refused ([`UnboundedWcqHandle::try_enqueue`] hands the value
///   back) and allocates nothing.
/// * **Memory usage** is bounded by the traffic's actual backlog: the
///   dequeuer that advances the head past a drained segment retires it
///   through a [`HazardDomain`] and scans at once, so an unprotected segment
///   goes straight back to a bounded segment cache (or the allocator), and
///   steady-state operation performs no per-operation allocation (the
///   bounded-memory property of the paper, amortized to O(segments in
///   flight)).  With one handle retiring, once it has retired a segment
///   while every other handle was between operations, at most one
///   retired-but-unreclaimed segment per *other* registered handle remains:
///   the one its memo pins.
///
/// Generic over the same hardware families as [`wcq_core::wcq::WcqQueue`]:
/// [`NativeFamily`] (double-width CAS) and [`wcq_core::wcq::LlscFamily`].
///
/// Threads operate through [`UnboundedWcqHandle`]s obtained from
/// [`UnboundedWcq::register`]; at most `max_threads` handles can be live.
pub struct UnboundedWcq<T, F: CellFamily = NativeFamily> {
    head: CachePadded<AtomicPtr<Segment<T, F>>>,
    tail: CachePadded<AtomicPtr<Segment<T, F>>>,
    domain: HazardDomain,
    /// Must be declared after `domain`: dropping the domain reclaims orphans
    /// through `recycle_segment`, which dereferences the cache.
    cache: Box<SegmentCache<T, F>>,
    seg_order: u32,
    max_threads: usize,
    /// Free indices a producer claims per `fq` batch dequeue
    /// ([`Stash::run`]).
    run: usize,
    config: WcqConfig,
    per_segment_bytes: usize,
    segments_live: AtomicUsize,
    segments_allocated: AtomicUsize,
    /// The length hint, kept as one single-writer net count (enqueues minus
    /// dequeues) per handle slot and summed on read (see
    /// [`UnboundedWcq::len_hint`]).  Deliberately decoupled from the queue's
    /// linearization points — it is a *hint* (`is_empty_hint` and the
    /// channel's park decision read it), never a correctness input.
    /// Updating it is a plain load and store on the owner's own word, where
    /// one shared counter cost every operation a locked `fetch_add`.  The words are not cache-padded (8 B × `max_threads`
    /// keeps the queue header small), so handles still share their lines —
    /// as they shared the one counter's.
    net_counts: Box<[NetCount]>,
    /// Optional telemetry counter set, shared with every segment's inner
    /// rings; segment-lifecycle events are recorded here too.
    counters: Option<Arc<CounterSet>>,
}

// SAFETY: segments are shared through hazard-protected atomic pointers; the
// cache and domain are Sync; `T: Send` values cross threads through the
// inner wait-free queues.
unsafe impl<T: Send, F: CellFamily> Send for UnboundedWcq<T, F> {}
unsafe impl<T: Send, F: CellFamily> Sync for UnboundedWcq<T, F> {}

impl<T, F: CellFamily> UnboundedWcq<T, F> {
    /// Creates a queue whose segments hold `2^seg_order` elements, usable by
    /// up to `max_threads` registered threads, with the default [`WcqConfig`]
    /// and segment-cache size, and no telemetry.
    pub fn new(seg_order: u32, max_threads: usize) -> Self {
        Self::with_config_cache_counters(
            seg_order,
            max_threads,
            WcqConfig::default(),
            DEFAULT_SEGMENT_CACHE,
            None,
        )
    }

    /// Fully explicit constructor: `config` is the wait-freedom
    /// configuration of the inner rings, `cache_limit` bounds how many
    /// drained segments are kept for reuse instead of being freed, and the
    /// optional shared [`CounterSet`] receives telemetry from every
    /// segment's inner rings plus segment-lifecycle events (allocs, cache
    /// hits/misses, reuse, retirement) and per-handle completion tallies.
    pub fn with_config_cache_counters(
        seg_order: u32,
        max_threads: usize,
        config: WcqConfig,
        cache_limit: usize,
        counters: Option<Arc<CounterSet>>,
    ) -> Self {
        assert!(max_threads >= 1, "at least one thread must register");
        assert!(
            max_threads as u64 <= (1u64 << seg_order),
            "segment capacity must be >= max_threads (the paper's k <= n)"
        );
        let cache = Box::new(SegmentCache::new(cache_limit));
        let cache_ptr: *const SegmentCache<T, F> = &*cache;
        let first = Box::into_raw(Box::new(Segment::new(
            seg_order,
            max_threads,
            config,
            cache_ptr,
            counters.clone(),
        )));
        // SAFETY: freshly allocated, exclusively owned.
        let per_segment_bytes = unsafe { (*first).footprint() };
        Self {
            head: CachePadded::new(AtomicPtr::new(first)),
            tail: CachePadded::new(AtomicPtr::new(first)),
            // Slot 1 pins the handle's memoized segment binding, between and
            // during operations; slot 0 protects the segment of an operation
            // that finds the memo pointing elsewhere (see `pin`).
            domain: HazardDomain::new(max_threads, 2),
            cache,
            seg_order,
            max_threads,
            run: Stash::run(1 << seg_order, max_threads),
            config,
            per_segment_bytes,
            segments_live: AtomicUsize::new(1),
            segments_allocated: AtomicUsize::new(1),
            net_counts: (0..max_threads).map(|_| NetCount::default()).collect(),
            counters,
        }
    }

    /// Records `n` into `counter` when telemetry is attached.
    #[inline]
    fn count(&self, counter: Counter, n: u64) {
        if let Some(set) = &self.counters {
            set.add(counter, n);
        }
    }

    /// Adds `n` completed enqueues by handle `tid` to the length hint.
    #[inline]
    fn note_enqueued(&self, tid: usize, n: u64) {
        self.net_counts[tid].add(n);
    }

    /// Takes `n` completed dequeues by handle `tid` off the length hint.
    #[inline]
    fn note_dequeued(&self, tid: usize, n: u64) {
        self.net_counts[tid].add(n.wrapping_neg());
    }

    /// The telemetry counter set shared with every segment, if attached.
    pub fn counter_set(&self) -> Option<&Arc<CounterSet>> {
        self.counters.as_ref()
    }

    /// Capacity of a single segment (`2^seg_order`).
    pub fn segment_capacity(&self) -> usize {
        1 << self.seg_order
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Registers a handle, or `None` when `max_threads` handles are already
    /// live.  The registration is one hazard-domain participant id, claimed
    /// from the domain's free-slot hint (see [`HazardDomain::register`]).
    pub fn register(&self) -> Option<UnboundedWcqHandle<'_, T, F>> {
        Some(UnboundedWcqHandle {
            queue: self,
            hp: self.domain.register()?,
            bound: ptr::null_mut(),
            stash: Stash::new(),
            slot0_held: false,
            pins: 0,
            rebinds: 0,
            enqueues_completed: 0,
            dequeues_completed: 0,
            batch_values_requested: 0,
            batch_values_granted: 0,
        })
    }

    /// Registers the calling thread, panicking when all `max_threads`
    /// registration slots are in use (the RAII-facade convenience;
    /// [`UnboundedWcq::register`] is the fallible variant).
    pub fn handle(&self) -> UnboundedWcqHandle<'_, T, F> {
        self.register().unwrap_or_else(|| {
            panic!(
                "all {} registration slots of this wLSCQ queue are in use",
                self.max_threads
            )
        })
    }

    /// Current segment statistics.
    pub fn segment_stats(&self) -> SegmentStats {
        SegmentStats {
            live: self.segments_live.load(SeqCst),
            cached: self.cache.len(),
            retired_pending: self.domain.pending(),
            allocated_total: self.segments_allocated.load(SeqCst),
            reused_total: self.cache.reused_total(),
        }
    }

    /// Approximate number of elements currently queued.
    ///
    /// Maintained as per-handle side counters next to the real operations
    /// and summed here, so it can transiently lag both ways under concurrency;
    /// transient negatives clamp to zero.  Use it for load estimates and
    /// freshness hints — never as an emptiness proof; only a dequeue that
    /// returns `None` is authoritative.
    pub fn len_hint(&self) -> usize {
        // Exact whenever no operation is in flight; otherwise each handle's
        // word is read at its own instant, hence the clamp.  (One handle's
        // word alone may well be "negative": a pure consumer's is.)
        let net = self
            .net_counts
            .iter()
            .fold(0u64, |net, count| net.wrapping_add(count.read()));
        (net as i64).max(0) as usize
    }

    /// Segments currently linked into the queue.
    pub fn segments_live(&self) -> usize {
        self.segments_live.load(SeqCst)
    }

    /// Segments ever obtained from the allocator.
    pub fn segments_allocated(&self) -> usize {
        self.segments_allocated.load(SeqCst)
    }

    /// Bytes currently held: the queue header, what it owns on the heap
    /// beside the segments (hazard domain arrays, the boxed segment cache,
    /// the length-hint words) and every resident segment (live, cached or
    /// awaiting reclamation).  On a quiescent queue this is exactly what the
    /// allocator handed out (`tests/bounded_memory.rs`); under traffic the
    /// segment count is a racy read.
    pub fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.domain.heap_bytes()
            + std::mem::size_of::<SegmentCache<T, F>>()
            + self.cache.heap_bytes()
            + std::mem::size_of_val(&*self.net_counts)
            + self.segment_stats().resident() * self.per_segment_bytes
    }

    /// Obtains a fresh tail segment — from the cache when possible — already
    /// holding `value` as its first element, ready to be linked.  The `bool`
    /// reports whether the segment came from the cache (the reuse statistic
    /// is only recorded once the link race is won).
    fn fresh_segment_with(&self, tid: usize, value: T) -> (*mut Segment<T, F>, bool) {
        let cached = self.cache.take();
        let from_cache = cached.is_some();
        self.count(
            if from_cache {
                Counter::SegmentCacheHits
            } else {
                Counter::SegmentCacheMisses
            },
            1,
        );
        let seg = cached.unwrap_or_else(|| {
            self.segments_allocated.fetch_add(1, SeqCst);
            self.count(Counter::SegmentAllocs, 1);
            Box::into_raw(Box::new(Segment::new(
                self.seg_order,
                self.max_threads,
                self.config,
                &*self.cache,
                self.counters.clone(),
            )))
        });
        self.segments_live.fetch_add(1, SeqCst);
        // SAFETY: unpublished and exclusively owned by this thread.
        unsafe { (*seg).preload(tid, value) };
        (seg, from_cache)
    }

    /// Takes back the pre-loaded value from an unpublished segment (another
    /// thread won the append race) and parks the segment in the cache.
    fn abandon_fresh(&self, tid: usize, seg: *mut Segment<T, F>) -> T {
        // SAFETY: unpublished, exclusively owned by this thread, so it is
        // the segment's only user under any `tid`.
        let value = unsafe { (*seg).try_dequeue(tid) }
            .expect("unpublished segment holds exactly the pre-loaded element");
        self.segments_live.fetch_sub(1, SeqCst);
        // SAFETY: still exclusively owned; never linked, so no hazard can
        // point at it.
        unsafe { SegmentCache::give_back(&*self.cache, seg) };
        value
    }
}

impl<T, F: CellFamily> Drop for UnboundedWcq<T, F> {
    fn drop(&mut self) {
        // Free every segment still linked; the inner `WcqQueue` drops drain
        // remaining elements.  Retired-but-unreclaimed segments are owned by
        // `domain` (dropped next), which recycles them into `cache` (dropped
        // last) — field order in the struct enforces this.
        let mut cur = Some(self.head.load(SeqCst));
        while let Some(seg) = cur {
            // SAFETY: `&mut self` means no handles are live; the list is ours.
            let boxed = unsafe { Box::from_raw(seg) };
            cur = boxed.successor();
        }
    }
}

impl<T, F: CellFamily> std::fmt::Debug for UnboundedWcq<T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnboundedWcq")
            .field("family", &F::NAME)
            .field("segment_capacity", &self.segment_capacity())
            .field("max_threads", &self.max_threads)
            .field("segments", &self.segment_stats())
            .finish()
    }
}

/// One handle slot's completed enqueues minus its completed dequeues, modulo
/// 2^64: a single writer at a time — the handle that owns the slot — and any
/// number of advisory readers.
#[derive(Default)]
struct NetCount(AtomicU64);

impl NetCount {
    /// Adds `delta` (a negated count to subtract).  Owner only.
    #[inline]
    fn add(&self, delta: u64) {
        // relaxed: single writer, so load-then-store loses no update; the
        // value publishes nothing (an advisory statistic).  A later owner of
        // the slot is ordered after this one by the hazard domain's
        // participant hand-off.
        let now = self.0.load(Relaxed).wrapping_add(delta);
        // relaxed: see above.
        self.0.store(now, Relaxed);
    }

    /// An advisory snapshot.
    #[inline]
    fn read(&self) -> u64 {
        // relaxed: the `len_hint` contract says a stale read is acceptable.
        self.0.load(Relaxed)
    }
}

/// A per-thread handle to an [`UnboundedWcq`].
///
/// The handle's one registration is its hazard-domain participant id, which
/// doubles as the thread-record index it operates under inside every
/// segment.  No record slot is claimed per segment: the id is already
/// exclusive to this handle, and the domain's release/acquire of the id
/// orders each owner of a record after the previous one.
///
/// The handle additionally **memoizes the last segment it touched** in hazard
/// slot 1, which pins it between operations: while `head`/`tail` still reads
/// equal to the memo, an operation runs under slot 1 alone and writes no
/// hazard slot at all (see `pin`).
/// A memoized segment cannot be recycled until the handle moves on or drops,
/// so at most one extra segment per registered handle can linger in the
/// retired state — the memory bound stays O(backlog + threads).
///
/// The registration belongs to the handle, not to a thread, so the handle is
/// `Send` (for `T: Send`): it may be registered on one thread, operated on
/// another and dropped on a third.
pub struct UnboundedWcqHandle<'q, T, F: CellFamily = NativeFamily> {
    queue: &'q UnboundedWcq<T, F>,
    hp: HazardHandle<'q>,
    /// The memoized segment (null when there is none), kept alive by hazard
    /// slot 1 for as long as it is set.
    bound: *mut Segment<T, F>,
    /// Free slot indices of `bound`, claimed from its `fq` in runs and given
    /// back before hazard slot 1 lets go of it (empty while `bound` is null).
    stash: Stash,
    /// `true` while hazard slot 0 holds a segment for the operation in flight:
    /// set by [`Self::pin`] on a memo miss, cleared by [`Self::unpin`].
    slot0_held: bool,
    /// How many times [`Self::pin`] missed the memo and took hazard slot 0
    /// (statistics; lets tests assert which path an operation ran).
    pins: u64,
    /// How many times the memo moved to a different segment (statistics;
    /// lets tests assert the memo actually hits).
    rebinds: u64,
    /// Plain per-handle completion/batch tallies, flushed into the queue's
    /// counter set (when attached) once, on drop — no shared-cache-line
    /// traffic per completed value.
    enqueues_completed: u64,
    dequeues_completed: u64,
    batch_values_requested: u64,
    batch_values_granted: u64,
}

// SAFETY: the one field that is not `Send` on its own is the memo pointer
// `bound`, and the segment it names is pinned by hazard slot 1 of this
// handle's participant id wherever the handle runs.  Every other field is the
// handle's own — `hp` with its retire buffer, `slot0_held`, and the plain
// `pins`/`rebinds`/completion tallies — or `queue`, a shared reference whose
// segment records and length-hint words are shared atomics keyed by that
// same id (`UnboundedWcq` is `Sync` for `T: Send`, and `T` values cross
// threads only through it).  Nothing is per-thread, and `&mut self`
// serialises every operation.
unsafe impl<T: Send, F: CellFamily> Send for UnboundedWcqHandle<'_, T, F> {}

/// A dequeue's head segment found drained with a successor: the segment and
/// that successor.
type Crossing<T, F> = (*mut Segment<T, F>, *mut Segment<T, F>);

impl<'q, T, F: CellFamily> UnboundedWcqHandle<'q, T, F> {
    /// This handle's participant id: its record index in every segment,
    /// stable for the handle's lifetime.
    pub fn tid(&self) -> usize {
        self.hp.tid()
    }

    /// The queue this handle operates on.
    pub fn queue(&self) -> &'q UnboundedWcq<T, F> {
        self.queue
    }

    /// Returns the segment `src` (the outer `head` or `tail`) points at, safe
    /// to dereference until [`Self::unpin`].
    ///
    /// **Memo hit** — `src` reads equal to the memoized segment: hazard slot
    /// 1 has pinned that segment ever since [`Self::rebind`] moved onto it
    /// under a validated slot-0 protection, so it cannot have been reclaimed
    /// (nor, therefore, recycled and re-linked: the equality is not an ABA),
    /// and the one load is the same "`src` pointed here at some instant
    /// during the operation" a validated protect establishes.  No hazard slot
    /// is written.  (`src` is never null, so a handle without a memo always
    /// misses.)
    ///
    /// **Memo miss** — a segment crossing, a lagging tail, a head advance, a
    /// fresh handle: Michael's publish-and-revalidate on slot 0, out of line
    /// in [`Self::pin_miss`], so a hit is a load, a compare and a
    /// fall-through.
    #[inline(always)]
    fn pin(&mut self, src: &AtomicPtr<Segment<T, F>>) -> *mut Segment<T, F> {
        let seen = src.load(SeqCst);
        if seen == self.bound {
            return seen;
        }
        self.pin_miss(src, seen)
    }

    /// [`Self::pin`] on a memo miss, out of line.
    #[cold]
    #[inline(never)]
    fn pin_miss(
        &mut self,
        src: &AtomicPtr<Segment<T, F>>,
        seen: *mut Segment<T, F>,
    ) -> *mut Segment<T, F> {
        #[cfg(feature = "check-mutations")]
        {
            // MUTATION (check-mutations): treats every miss as a hit — the
            // segment is used on the strength of one unvalidated load, with
            // no hazard published.  The schedule point marks the window the
            // missing protection leaves open: whatever runs here can drain,
            // retire and recycle `seen` before this operation touches it.
            let _ = src;
            wcq_atomics::checkpoint::hit("hazard.unpinned");
            seen
        }
        #[cfg(not(feature = "check-mutations"))]
        {
            let _ = seen;
            self.slot0_held = true;
            self.pins += 1;
            self.hp.protect(0, src)
        }
    }

    /// Ends the protection [`Self::pin`] took: clears hazard slot 0 iff this
    /// operation published it.  The one place slot 0 is cleared.
    #[inline(always)]
    fn unpin(&mut self) {
        if self.slot0_held {
            self.slot0_held = false;
            self.hp.clear_one(0);
        }
    }

    /// Moves the memo onto `seg`: hazard slot 1 now pins it.  A no-op when
    /// `seg` is the memo already, which is the only inline part.
    ///
    /// # Safety
    /// `seg` must come from [`Self::pin`] in the current operation: either it
    /// is already the memo, or hazard slot 0 protects it (so it cannot be
    /// reclaimed while hazard slot 1 moves onto it).
    #[inline(always)]
    unsafe fn rebind(&mut self, seg: *mut Segment<T, F>) {
        if self.bound != seg {
            // SAFETY: per the function contract.
            unsafe { self.move_memo(seg) };
        }
    }

    /// [`Self::rebind`]'s memo move, out of line: the stash goes back to the
    /// segment being left while slot 1 still pins it, then slot 1 moves.
    ///
    /// # Safety
    /// As for [`Self::rebind`].
    #[cold]
    #[inline(never)]
    unsafe fn move_memo(&mut self, seg: *mut Segment<T, F>) {
        debug_assert!(
            self.slot0_held,
            "a segment crossing must run under hazard slot 0"
        );
        self.return_stash();
        self.hp.protect_raw(1, seg);
        self.bound = seg;
        self.rebinds += 1;
    }

    /// Drops the memo, clearing hazard slot 1 after the stash goes back.
    fn unbind(&mut self) {
        if !self.bound.is_null() {
            self.return_stash();
            self.bound = ptr::null_mut();
            self.hp.clear_one(1);
        }
    }

    /// Hands the stash back to the memo segment's `fq`.  Every place the
    /// memo moves or ends calls this before hazard slot 1 lets go, so a
    /// segment is reclaimed with all its indices in `fq`.
    fn return_stash(&mut self) {
        if self.stash.len() > 0 {
            // SAFETY: a non-empty stash holds indices of `bound`, which
            // hazard slot 1 pins; `tid` is this handle's participant id.
            unsafe { (*self.bound).return_stash(self.hp.tid(), &mut self.stash) };
        }
    }

    /// Pins the tail segment and moves the memo onto it, first swinging a
    /// lagging outer tail (one whose segment already has a successor)
    /// forward, as in MSQueue.  The segment returned had no successor when
    /// pinned (its `next` was null or `SHUT`), and is safe to dereference
    /// until [`Self::unpin`].
    #[inline(always)]
    fn pin_tail(&mut self) -> *mut Segment<T, F> {
        let tail = &self.queue.tail;
        loop {
            let tailp = self.pin(tail);
            // SAFETY: pinned; segments are retired only after becoming
            // unreachable and unprotected.
            match unsafe { (*tailp).successor() } {
                None => {
                    // SAFETY: `tailp` comes from `pin` in this operation.
                    unsafe { self.rebind(tailp) };
                    return tailp;
                }
                Some(next) => {
                    let _ = tail.compare_exchange(tailp, next, SeqCst, SeqCst);
                }
            }
        }
    }

    /// Enqueues `value`: when the tail segment is full it is closed and a
    /// new segment (pre-loaded with `value`) is appended.
    ///
    /// # Panics
    /// Panics if the queue is closed; [`Self::try_enqueue`] hands the value
    /// back instead.
    pub fn enqueue(&mut self, value: T) {
        if self.try_enqueue(value).is_err() {
            enqueue_on_closed_queue();
        }
    }

    /// Enqueues `value` like [`Self::enqueue`], or hands it back once the
    /// queue is closed ([`Self::close`]).  The queue is unbounded, so that is
    /// the only refusal.
    pub fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        let result = self.enqueue_pinned(value);
        self.unpin();
        result
    }

    /// [`Self::try_enqueue`] up to, not including, the closing
    /// [`Self::unpin`].
    fn enqueue_pinned(&mut self, mut value: T) -> Result<(), T> {
        let queue = self.queue;
        let tid = self.hp.tid();
        loop {
            let tailp = self.pin_tail();
            // SAFETY: pinned by `pin_tail`.
            let seg = unsafe { &*tailp };
            // SAFETY: `tid` is this handle's participant id, which no other
            // thread holds while the handle lives, and `pin_tail` made `seg`
            // the memo, whose indices are the only ones the stash holds.
            match unsafe { seg.try_enqueue(tid, value, &mut self.stash, queue.run) } {
                Ok(()) => break,
                Err(back) => {
                    value = back;
                    let next = seg.next.load(SeqCst);
                    // The queue's close linked `SHUT` here: refused for good,
                    // and before anything is allocated.
                    if next == shut() {
                        return Err(value);
                    }
                    // Refused by a segment that already has a successor (it
                    // was closed and linked past since `pin_tail`): retry
                    // there, without building a segment to abandon.
                    if !next.is_null() {
                        continue;
                    }
                    // Full: close so no later enqueue can land (the LSCQ
                    // discipline — a segment is closed before it gains a
                    // successor), then append a fresh segment carrying the
                    // value, so winning the link race completes the enqueue.
                    seg.close();
                    let (fresh, from_cache) = queue.fresh_segment_with(tid, value);
                    if seg
                        .next
                        .compare_exchange(ptr::null_mut(), fresh, SeqCst, SeqCst)
                        .is_ok()
                    {
                        if from_cache {
                            queue.cache.note_reused();
                            queue.count(Counter::SegmentsReused, 1);
                        }
                        let _ = queue.tail.compare_exchange(tailp, fresh, SeqCst, SeqCst);
                        // The pre-loaded value became reachable when the link
                        // CAS published the segment.
                        break;
                    }
                    // Lost the race: reclaim the value and retry on the
                    // now-extended list.
                    value = queue.abandon_fresh(tid, fresh);
                }
            }
        }
        queue.note_enqueued(tid, 1);
        self.enqueues_completed += 1;
        Ok(())
    }

    /// Closes the queue: every enqueue that starts after this returns is
    /// refused, and everything accepted before stays dequeueable.
    ///
    /// The loop pins the tail, closes its segment's gate (so no claim
    /// succeeds there any more) and links `SHUT` after it (so no append can
    /// follow).  If an appender linked a real successor first, the tail is
    /// swung to it and the loop repeats on the new tail: it retries only when
    /// some appender made progress, so it is lock-free.  Idempotent.
    pub fn close(&mut self) {
        let tail = &self.queue.tail;
        loop {
            let tailp = self.pin(tail);
            // SAFETY: pinned; segments are retired only after becoming
            // unreachable and unprotected.
            let seg = unsafe { &*tailp };
            seg.close();
            if cfg!(feature = "check-mutations") {
                // MUTATION (check-mutations): the gate closes but `SHUT` is
                // never linked, so an enqueue refused by the closed gate
                // appends a fresh, open segment after the close — and no
                // dequeuer ever sees the queue settle.
                break;
            }
            match seg
                .next
                .compare_exchange(ptr::null_mut(), shut(), SeqCst, SeqCst)
            {
                Ok(_) => break,
                Err(next) if next == shut() => break,
                Err(next) => {
                    let _ = tail.compare_exchange(tailp, next, SeqCst, SeqCst);
                }
            }
        }
        self.unpin();
    }

    /// Whether the queue is closed with nothing left in flight: the head
    /// segment is the closed queue's last (its `next` is `SHUT`) and no
    /// enqueue that claimed it before the close is still depositing.
    ///
    /// After a `true`, a [`Self::dequeue`] that returns `None` is final: the
    /// queue is closed and drained for good.  It is the head crossing's own
    /// argument — closed, `inflight() == 0`, then one empty inner dequeue —
    /// with `SHUT` in place of the successor.  The head cannot move past a
    /// segment whose `next` is `SHUT`, so the dequeue examines this one.
    pub fn settled(&mut self) -> bool {
        let headp = self.pin(&self.queue.head);
        // SAFETY: pinned by `pin`.  `SHUT` is linked only after the gate
        // closed, so once it is seen the in-flight count can only fall.
        let settled = unsafe { (*headp).is_shut() && (*headp).inflight() == 0 };
        self.unpin();
        settled
    }

    /// Enqueues in flight on the head segment: after a close has drained the
    /// queue, the head is its only segment, and once every enqueuer has
    /// returned this reads 0 (a checker probe).
    #[doc(hidden)]
    pub fn head_inflight(&mut self) -> usize {
        let headp = self.pin(&self.queue.head);
        // SAFETY: pinned by `pin`.
        let inflight = unsafe { (*headp).inflight() };
        self.unpin();
        inflight
    }

    /// Dequeues an element; `None` when the whole queue was observed empty.
    pub fn dequeue(&mut self) -> Option<T> {
        let tid = self.hp.tid();
        // SAFETY: `tid` is this handle's participant id, which no other
        // thread holds while the handle lives.
        let value = self.dequeue_pinned(|seg| unsafe { seg.try_dequeue(tid) });
        if value.is_some() {
            self.queue.note_dequeued(tid, 1);
            self.dequeues_completed += 1;
        }
        self.unpin();
        value
    }

    /// Dequeues up to `max` elements into `out` with one head protection,
    /// memo check, and `len_hint` update per call.  Returns the number
    /// appended; `0` means the whole queue was observed empty.
    ///
    /// A call never straddles a segment boundary: the first segment that
    /// yields anything ends the call, so fewer than `max` elements returned
    /// does **not** imply the queue is empty.
    pub fn dequeue_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        self.batch_values_requested += max as u64;
        let tid = self.hp.tid();
        let got = self
            .dequeue_pinned(|seg| {
                // SAFETY: as in `dequeue`.
                NonZeroUsize::new(unsafe { seg.try_dequeue_many(tid, out, max) })
            })
            .map_or(0, NonZeroUsize::get);
        if got > 0 {
            self.queue.note_dequeued(tid, got as u64);
            self.dequeues_completed += got as u64;
            self.batch_values_granted += got as u64;
        }
        self.unpin();
        got
    }

    /// [`Self::dequeue`] and [`Self::dequeue_many`] up to, not including,
    /// the closing [`Self::unpin`]: `take` is one inner dequeue, `None` when
    /// it finds the segment empty.  One attempt on the head segment is the
    /// whole operation unless the head is drained and has a successor; that
    /// crossing is [`Self::dequeue_crossing`]'s, out of line.
    fn dequeue_pinned<R>(
        &mut self,
        mut take: impl FnMut(&Segment<T, F>) -> Option<R>,
    ) -> Option<R> {
        match self.head_attempt(&mut take) {
            Ok(got) => got,
            Err((headp, next)) => self.dequeue_crossing(headp, next, take),
        }
    }

    /// Pins the head segment, moves the memo onto it and `take`s once.
    /// `Ok` is the operation's answer — a `None` there means the head had no
    /// successor, so the queue was empty at the inner dequeue's
    /// linearization point.  `Err` is a drained head with a successor.
    #[inline(always)]
    fn head_attempt<R>(
        &mut self,
        take: &mut impl FnMut(&Segment<T, F>) -> Option<R>,
    ) -> Result<Option<R>, Crossing<T, F>> {
        let headp = self.pin(&self.queue.head);
        // SAFETY: `headp` comes from `pin` in this operation.
        let seg = unsafe {
            self.rebind(headp);
            &*headp
        };
        if let Some(got) = take(seg) {
            return Ok(Some(got));
        }
        match seg.successor() {
            None => Ok(None),
            Some(next) => Err((headp, next)),
        }
    }

    /// The rest of a dequeue whose pinned head segment `headp` was found
    /// drained with the successor `next`, so closed: wait out the enqueuers
    /// that claimed it before the close, re-check that it is empty — after
    /// that it is permanently empty — advance the head past it, and retry on
    /// the new head.
    ///
    /// The wait is blocking, not lock-free: an enqueuer preempted between its
    /// in-flight claim and its `aq` deposit stalls every dequeuer here
    /// (ROADMAP item 3).
    #[cold]
    #[inline(never)]
    fn dequeue_crossing<R>(
        &mut self,
        mut headp: *mut Segment<T, F>,
        mut next: *mut Segment<T, F>,
        mut take: impl FnMut(&Segment<T, F>) -> Option<R>,
    ) -> Option<R> {
        let mut backoff = Backoff::new();
        loop {
            // SAFETY: pinned and memoized by the attempt that found it.
            let seg = unsafe { &*headp };
            if seg.inflight() != 0 {
                // Bounded exponential backoff, then yield: the straggler
                // completes a *wait-free* inner enqueue as soon as it gets
                // CPU, so giving it the core beats burning ours.
                backoff.snooze_or_yield();
            } else if let Some(got) = take(seg) {
                return Some(got);
            } else {
                // SAFETY: `headp` is pinned, drained and closed, and `next`
                // is its successor.
                unsafe { self.advance_head(headp, next) };
            }
            match self.head_attempt(&mut take) {
                Ok(got) => return got,
                Err(crossing) => (headp, next) = crossing,
            }
        }
    }

    /// Swings the outer head from `headp` to its successor `next` and, when
    /// this thread wins the swing, retires `headp` and scans at once.
    ///
    /// The scan keeps memory at the backlog: an unprotected segment reaches
    /// the cache (or the allocator) before the next append asks for one,
    /// instead of waiting for the domain's batch threshold.  A segment
    /// another handle still pins (its memo in slot 1, or slot 0 mid-crossing)
    /// waits for this handle's next retirement.  A segment retires once per
    /// `capacity` messages, so the scan is on no per-message path.
    ///
    /// # Safety
    /// `headp` must be the pinned, memoized head segment, observed closed (it
    /// has the successor `next`), free of in-flight enqueuers, and empty
    /// after that.
    unsafe fn advance_head(&mut self, headp: *mut Segment<T, F>, next: *mut Segment<T, F>) {
        let queue = self.queue;
        // Help a lagging tail past the segment we are about to retire
        // (MS-queue discipline).  The appender's hazard pins the segment
        // until its own tail swing, so this is not needed for safety, but
        // it keeps `head` from ever overtaking `tail`.
        let _ = queue.tail.compare_exchange(headp, next, SeqCst, SeqCst);
        if queue
            .head
            .compare_exchange(headp, next, SeqCst, SeqCst)
            .is_ok()
        {
            queue.segments_live.fetch_sub(1, SeqCst);
            // Release our own protection before retiring the segment, or our
            // hazard slots would keep it pending until the next rebind.
            self.unbind();
            self.unpin();
            queue.count(Counter::SegmentsRetired, 1);
            // SAFETY: the CAS winner is the unique retirer of the now
            // unreachable segment; `recycle_segment` matches `T, F`.
            unsafe { self.hp.retire_with(headp, recycle_segment::<T, F>) };
            self.hp.flush();
        }
    }

    /// Enqueues every element of `values` (draining it), paying the tail
    /// protection, memo check, close-check, and `len_hint` update **once per
    /// segment run** instead of once per element.  Returns the number
    /// enqueued: the original `values.len()`, unless the queue is closed
    /// ([`Self::close`]) part-way, in which case the refused remainder is
    /// left in `values`, in order.
    ///
    /// Elements that straddle a segment boundary fall back to the single-op
    /// close-and-append path for one element, then resume batching into the
    /// fresh tail, so the wait-freedom and exact-close arguments of
    /// [`UnboundedWcqHandle::try_enqueue`] carry over unchanged.  A close can
    /// therefore split a batch only at a segment boundary.
    pub fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        let queue = self.queue;
        let tid = self.hp.tid();
        // A `VecDeque` makes every front removal along the segment walk O(1)
        // (a batch crossing many full segments would otherwise pay a front
        // shift of the whole remainder per segment).  Only a close leaves a
        // remainder to move back at the end.
        self.batch_values_requested += values.len() as u64;
        let mut pending: VecDeque<T> = std::mem::take(values).into();
        let mut total = 0;
        while !pending.is_empty() {
            let tailp = self.pin_tail();
            // SAFETY: pinned and made the memo by `pin_tail`, as in
            // `enqueue_pinned`.
            let accepted =
                unsafe { (*tailp).try_enqueue_many(tid, &mut pending, &mut self.stash, queue.run) };
            if accepted > 0 {
                queue.note_enqueued(tid, accepted as u64);
                self.enqueues_completed += accepted as u64;
                total += accepted;
                continue;
            }
            // Full or closed with nothing accepted: push one element through
            // the single-op path (which closes the tail and appends a fresh
            // segment), then resume batching into the new tail.
            let value = pending.pop_front().expect("loop guard: non-empty");
            // `enqueue_pinned` tallies its own completion.
            if let Err(value) = self.enqueue_pinned(value) {
                pending.push_front(value);
                *values = pending.into();
                break;
            }
            total += 1;
        }
        self.unpin();
        self.batch_values_granted += total as u64;
        total
    }

    /// Re-scans this handle's retired segments right now.  Every segment is
    /// already scanned when it retires, so this only matters for one that
    /// another handle protected at that moment and has since let go of
    /// (otherwise it waits for this handle's next retirement or drop).
    pub fn flush_reclamation(&mut self) {
        self.hp.flush();
    }
}

impl<'q, T, F: CellFamily> Drop for UnboundedWcqHandle<'q, T, F> {
    fn drop(&mut self) {
        self.return_stash();
        if let Some(set) = self.queue.counter_set() {
            set.add(Counter::EnqueuesCompleted, self.enqueues_completed);
            set.add(Counter::DequeuesCompleted, self.dequeues_completed);
            set.add(Counter::BatchValuesRequested, self.batch_values_requested);
            set.add(Counter::BatchValuesGranted, self.batch_values_granted);
            set.add(Counter::SegmentRebinds, self.rebinds);
        }
        // The hazard handle, dropped next, clears slot 1 (the memo) and then
        // releases the participant id.
    }
}

impl<'q, T, F: CellFamily> std::fmt::Debug for UnboundedWcqHandle<'q, T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnboundedWcqHandle")
            .field("tid", &self.hp.tid())
            .field("rebinds", &self.rebinds)
            .field("pins", &self.pins)
            .finish()
    }
}

/// The panic of [`UnboundedWcqHandle::enqueue`] on a closed queue, out of
/// line.
#[cold]
#[inline(never)]
fn enqueue_on_closed_queue() -> ! {
    panic!("enqueue on a closed wLSCQ queue (use `try_enqueue`)")
}

impl<T: Send, F: CellFamily> QueueHandle<T> for UnboundedWcqHandle<'_, T, F> {
    fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        UnboundedWcqHandle::try_enqueue(self, value)
    }
    fn dequeue(&mut self) -> Option<T> {
        UnboundedWcqHandle::dequeue(self)
    }
    fn enqueue(&mut self, value: T) {
        // Unbounded: no full state to retry around, and a closed queue
        // panics rather than spinning on a refusal that never ends.
        UnboundedWcqHandle::enqueue(self, value);
    }
    fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        UnboundedWcqHandle::enqueue_many(self, values)
    }
    fn dequeue_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        UnboundedWcqHandle::dequeue_many(self, out, max)
    }
}

impl<T: Send, F: CellFamily> WaitFreeQueue<T> for UnboundedWcq<T, F> {
    fn name(&self) -> &'static str {
        if F::NAME == LlscFamily::NAME {
            "wLSCQ (LL/SC)"
        } else {
            "wLSCQ"
        }
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<T> + '_>> {
        self.register().map(|h| Box::new(h) as _)
    }
    fn max_threads(&self) -> usize {
        UnboundedWcq::max_threads(self)
    }
    fn memory_footprint(&self) -> usize {
        UnboundedWcq::memory_footprint(self)
    }
    fn is_empty_hint(&self) -> bool {
        self.len_hint() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use wcq_core::wcq::LlscFamily;

    /// A queue recording into a fresh counter set — the one way to read
    /// rebind and cache statistics.
    fn counted(seg_order: u32, max_threads: usize) -> (UnboundedWcq<u64>, Arc<CounterSet>) {
        let set = Arc::new(CounterSet::new());
        let q = UnboundedWcq::with_config_cache_counters(
            seg_order,
            max_threads,
            WcqConfig::default(),
            DEFAULT_SEGMENT_CACHE,
            Some(Arc::clone(&set)),
        );
        (q, set)
    }

    #[test]
    fn fifo_single_thread_within_one_segment() {
        let q: UnboundedWcq<u64> = UnboundedWcq::new(6, 2);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..32 {
            h.enqueue(i);
        }
        for i in 0..32 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
        assert_eq!(q.segments_live(), 1);
    }

    #[test]
    fn bursts_grow_segments_and_preserve_fifo() {
        // 8-slot segments, 100 elements: growth is forced.
        let q: UnboundedWcq<u64> = UnboundedWcq::new(3, 2);
        let mut h = q.register().unwrap();
        for i in 0..100 {
            h.enqueue(i);
        }
        assert!(
            q.segments_live() > 1,
            "a burst beyond one segment must link new segments: {:?}",
            q.segment_stats()
        );
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn drained_segments_are_retired_and_recycled() {
        let q: UnboundedWcq<u64> = UnboundedWcq::new(3, 1);
        let mut h = q.register().unwrap();
        for round in 0..4 {
            for i in 0..64 {
                h.enqueue(round * 64 + i);
            }
            for i in 0..64 {
                assert_eq!(h.dequeue(), Some(round * 64 + i));
            }
            h.flush_reclamation();
            assert_eq!(
                q.segments_live(),
                1,
                "after a full drain only the tail segment stays live"
            );
        }
        let stats = q.segment_stats();
        assert!(
            stats.reused_total > 0,
            "later bursts must reuse cached segments: {stats:?}"
        );
        assert!(
            stats.allocated_total < 4 * (64 / 8),
            "the cache must cap allocations across rounds: {stats:?}"
        );
    }

    #[test]
    fn memoized_binding_stays_on_one_segment() {
        let (q, set) = counted(6, 2);
        let mut h = q.register().unwrap();
        for round in 0..10 {
            for i in 0..30 {
                h.enqueue(round * 30 + i);
            }
            for i in 0..30 {
                assert_eq!(h.dequeue(), Some(round * 30 + i));
            }
        }
        // 600 operations never left the first segment: the binding was
        // established once and memoized for every later operation.
        drop(h); // flushes the handle-local tally
        assert_eq!(set.get(Counter::SegmentRebinds), 1);
    }

    #[test]
    fn memoized_binding_follows_segment_growth_without_losing_values() {
        // 16-slot segments with interleaved enqueue/dequeue force the memo
        // to chase head and tail across many segment transitions.
        let (q, set) = counted(4, 1);
        let mut h = q.register().unwrap();
        let mut next_out = 0u64;
        for i in 0..500u64 {
            h.enqueue(i);
            if i % 3 == 0 {
                assert_eq!(h.dequeue(), Some(next_out));
                next_out += 1;
            }
        }
        while let Some(v) = h.dequeue() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, 500, "every value crossed the segment chain");
        h.flush_reclamation();
        assert_eq!(q.segments_live(), 1);
        drop(h); // flushes the handle-local tally
        assert!(
            set.get(Counter::SegmentRebinds) > 1,
            "growth must move the binding"
        );
    }

    #[test]
    fn staying_in_one_segment_never_touches_hazard_slot_zero() {
        // 256-slot segment, at most 2 values queued: 10 000 operations that
        // never leave the first segment (fewer under the interpreter).
        let rounds: u64 = if cfg!(miri) { 50 } else { 2_500 };
        let q: UnboundedWcq<u64> = UnboundedWcq::new(8, 2);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None, "the first operation binds the memo");
        assert_eq!((h.pins, h.rebinds), (1, 1));
        let seg = h.bound;
        let on_the_memo = |h: &UnboundedWcqHandle<'_, u64>| {
            assert!(h.hp.protected(0).is_null(), "slot 0 is clear between ops");
            assert_eq!(h.hp.protected(1), seg.cast(), "slot 1 pins the segment");
            assert_eq!(h.bound, seg);
        };
        on_the_memo(&h);
        for i in 0..rounds {
            h.enqueue(2 * i);
            on_the_memo(&h);
            h.enqueue(2 * i + 1);
            on_the_memo(&h);
            assert_eq!(h.dequeue(), Some(2 * i));
            on_the_memo(&h);
            assert_eq!(h.dequeue(), Some(2 * i + 1));
            on_the_memo(&h);
        }
        assert_eq!(h.dequeue(), None, "an empty poll is a memo hit too");
        on_the_memo(&h);
        assert_eq!(
            (h.pins, h.rebinds),
            (1, 1),
            "every operation after the first ran under hazard slot 1 alone"
        );
    }

    #[test]
    fn every_segment_crossing_runs_under_hazard_slot_zero() {
        // 16-slot segments with interleaved enqueue/dequeue: the binding
        // chases head and tail across many crossings, and each one must have
        // been a memo miss that published (and afterwards cleared) slot 0.
        let q: UnboundedWcq<u64> = UnboundedWcq::new(4, 1);
        let mut h = q.register().unwrap();
        let mut next_out = 0u64;
        let mut crossings = 0;
        for i in 0..500u64 {
            let (pins, rebinds) = (h.pins, h.rebinds);
            h.enqueue(i);
            if i % 3 == 0 {
                assert_eq!(h.dequeue(), Some(next_out));
                next_out += 1;
            }
            if h.rebinds > rebinds {
                crossings += 1;
                assert!(h.pins > pins, "a rebind without a slot-0 pin at op {i}");
            }
            assert!(h.hp.protected(0).is_null(), "slot 0 outlived op {i}");
            assert_eq!(h.hp.protected(1), h.bound.cast());
        }
        assert!(crossings > 20, "growth must move the binding: {crossings}");
        assert!(h.pins >= h.rebinds);
    }

    #[test]
    fn register_reuses_the_memoized_participant_slot() {
        let q: UnboundedWcq<u64> = UnboundedWcq::new(4, 4);
        let h = q.register().unwrap();
        let tid = h.tid();
        drop(h);
        for _ in 0..3 {
            let again = q.register().unwrap();
            assert_eq!(again.tid(), tid);
        }
    }

    #[test]
    fn trait_facade_round_trips_with_growth() {
        use wcq_core::api::WaitFreeQueue;
        let q: UnboundedWcq<u64> = UnboundedWcq::new(3, 2);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        assert_eq!(dynq.name(), "wLSCQ");
        let mut h = dynq.handle();
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn batch_roundtrip_across_segment_boundaries() {
        // 8-slot segments, batches of 30: every batch straddles boundaries,
        // exercising the close-and-append fallback inside `enqueue_many`.
        let q: UnboundedWcq<u64> = UnboundedWcq::new(3, 2);
        let mut h = q.register().unwrap();
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..10 {
            let mut batch: Vec<u64> = (next_in..next_in + 30).collect();
            next_in += 30;
            assert_eq!(h.enqueue_many(&mut batch), 30, "unbounded accepts all");
            assert!(batch.is_empty());
            let mut out = Vec::new();
            while out.len() < 30 {
                let want = 30 - out.len();
                let got = h.dequeue_many(&mut out, want);
                assert!(got > 0, "queue holds undelivered elements");
            }
            for v in out {
                assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        assert_eq!(h.dequeue(), None);
        assert_eq!(q.len_hint(), 0, "batch ops keep the hint balanced");
    }

    #[test]
    fn batch_amortizes_the_memo_within_one_segment() {
        // Large segment: batches must not rebind more than the single op
        // would (one initial bind, no churn).
        let (q, set) = counted(8, 2);
        let mut h = q.register().unwrap();
        for round in 0..8u64 {
            let mut batch: Vec<u64> = (round * 16..(round + 1) * 16).collect();
            h.enqueue_many(&mut batch);
            let mut out = Vec::new();
            assert_eq!(h.dequeue_many(&mut out, 16), 16);
            assert_eq!(out, ((round * 16)..(round + 1) * 16).collect::<Vec<_>>());
        }
        drop(h); // flushes the handle-local tally
        assert_eq!(set.get(Counter::SegmentRebinds), 1);
    }

    #[test]
    fn batch_trait_impls_delegate_to_the_specialized_paths() {
        use wcq_core::api::WaitFreeQueue;
        let q: UnboundedWcq<u64> = UnboundedWcq::new(3, 2);
        assert!(
            (&q as &dyn WaitFreeQueue<u64>).is_empty_hint(),
            "wLSCQ's emptiness hint is truthful at quiescence"
        );
        let mut h = q.register().unwrap();
        let mut batch: Vec<u64> = (0..40).collect();
        assert_eq!(QueueHandle::enqueue_many(&mut h, &mut batch), 40);
        let mut out = Vec::new();
        let mut got = 0;
        while got < 40 {
            let n = QueueHandle::dequeue_into(&mut h, &mut out, 40 - got);
            assert!(n > 0);
            got += n;
        }
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn llsc_family_roundtrip_with_growth() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        let q: UnboundedWcq<u64, LlscFamily> = UnboundedWcq::new(3, 2);
        let mut h = q.register().unwrap();
        for i in 0..50 {
            h.enqueue(i);
        }
        for i in 0..50 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn registration_limit_enforced() {
        let q: UnboundedWcq<u8> = UnboundedWcq::new(4, 2);
        let h1 = q.register().unwrap();
        let h2 = q.register().unwrap();
        assert!(q.register().is_none());
        drop(h1);
        assert!(q.register().is_some());
        drop(h2);
    }

    #[test]
    fn drop_releases_elements_across_segments() {
        let probe = Arc::new(());
        {
            let q: UnboundedWcq<Arc<()>> = UnboundedWcq::new(3, 1);
            let mut h = q.register().unwrap();
            for _ in 0..50 {
                h.enqueue(Arc::clone(&probe));
            }
            assert!(q.segments_live() > 1);
            assert_eq!(Arc::strong_count(&probe), 51);
            drop(h);
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn mpmc_stress_sum_preserved_across_growth() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        // Tiny 16-slot segments guarantee constant segment churn.
        let q: UnboundedWcq<u64> = UnboundedWcq::new(4, THREADS as usize);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = &q;
                let sum = &sum;
                let count = &count;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
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
    fn len_hint_tracks_quiescent_length_and_empty_hint() {
        use wcq_core::api::WaitFreeQueue;
        let q: UnboundedWcq<u64> = UnboundedWcq::new(3, 1);
        assert_eq!(q.len_hint(), 0);
        assert!(WaitFreeQueue::is_empty_hint(&q));
        let mut h = q.register().unwrap();
        for i in 0..100 {
            h.enqueue(i); // crosses several 8-slot segments
        }
        assert_eq!(q.len_hint(), 100, "quiescent hint is exact");
        assert!(!WaitFreeQueue::is_empty_hint(&q));
        for _ in 0..60 {
            assert!(h.dequeue().is_some());
        }
        assert_eq!(q.len_hint(), 40);
        while h.dequeue().is_some() {}
        assert_eq!(q.len_hint(), 0);
        assert!(WaitFreeQueue::is_empty_hint(&q));
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let (q, set) = counted(3, 1);
        let cache_stats = || {
            (
                set.get(Counter::SegmentCacheHits),
                set.get(Counter::SegmentCacheMisses),
            )
        };
        let mut h = q.register().unwrap();
        // Warm-up burst: every append misses (the cache starts empty).
        for i in 0..64 {
            h.enqueue(i);
        }
        for i in 0..64 {
            assert_eq!(h.dequeue(), Some(i));
        }
        h.flush_reclamation();
        let (warm_hits, warm_misses) = cache_stats();
        assert!(warm_misses > 0, "cold appends must miss");
        assert_eq!(warm_hits, 0);
        // Second, smaller burst (3 appends on top of the live tail — within
        // the 4-segment cache): recycled segments answer from the cache.
        for i in 0..32 {
            h.enqueue(i);
        }
        let (hot_hits, hot_misses) = cache_stats();
        assert!(hot_hits > 0, "warm appends must hit");
        assert_eq!(hot_misses, warm_misses, "no new allocator trips");
    }

    #[test]
    fn memory_footprint_tracks_resident_segments() {
        let q: UnboundedWcq<u64> = UnboundedWcq::new(3, 1);
        let empty_footprint = q.memory_footprint();
        let mut h = q.register().unwrap();
        for i in 0..200 {
            h.enqueue(i);
        }
        assert!(q.memory_footprint() > empty_footprint);
        for i in 0..200 {
            assert_eq!(h.dequeue(), Some(i));
        }
        h.flush_reclamation();
        let stats = q.segment_stats();
        assert_eq!(stats.live, 1, "{stats:?}");
        assert!(
            stats.resident() <= 1 + DEFAULT_SEGMENT_CACHE,
            "resident segments bounded by live + cache: {stats:?}"
        );
    }

    /// Live heap bytes allocated minus freed by the calling thread, counted
    /// by this test binary's allocator: per thread, so tests running in
    /// parallel do not disturb each other's readings.
    mod thread_heap {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            // `const` and `Drop`-free: usable from inside the allocator.
            static LIVE: Cell<isize> = const { Cell::new(0) };
        }

        struct PerThread;

        // SAFETY: defers every allocation to `System` and only adds a
        // thread-local tally around it.
        unsafe impl GlobalAlloc for PerThread {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                // SAFETY: forwarded verbatim.
                let ptr = unsafe { System.alloc(layout) };
                if !ptr.is_null() {
                    LIVE.with(|live| live.set(live.get() + layout.size() as isize));
                }
                ptr
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                LIVE.with(|live| live.set(live.get() - layout.size() as isize));
                // SAFETY: forwarded verbatim.
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static ALLOCATOR: PerThread = PerThread;

        pub(super) fn live() -> isize {
            LIVE.with(Cell::get)
        }
    }

    /// A seeded xorshift step (tests only).
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn a_closed_queue_refuses_without_allocating() {
        let q: UnboundedWcq<u64> = UnboundedWcq::new(1, 1);
        let mut h = q.register().unwrap();
        h.enqueue(1);
        h.enqueue(2); // the two-slot segment is full
        h.close();
        h.close(); // idempotent
        let mut batch = vec![4, 5, 6];
        let (allocated, heap) = (q.segments_allocated(), thread_heap::live());
        assert_eq!(h.try_enqueue(3), Err(3));
        assert_eq!(h.enqueue_many(&mut batch), 0);
        assert_eq!(batch, [4, 5, 6], "a refused batch keeps every value");
        assert_eq!(q.segments_allocated(), allocated, "a refusal allocated");
        assert_eq!(thread_heap::live(), heap, "a refusal touched the heap");
        assert_eq!(q.segments_live(), 1);
        assert!(h.settled(), "closed with nothing in flight");
        assert_eq!(h.dequeue(), Some(1), "pre-close values drain");
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), None);
        assert!(h.settled());
        assert_eq!(h.head_inflight(), 0);
    }

    #[test]
    fn close_racing_full_tails_loses_nothing_and_admits_nothing_after() {
        const OFFERS: u64 = 200;
        for seed in 1..=12u64 {
            // Two-slot segments: nearly every enqueue is an append or lands
            // next to one, so the close races appends and crossings.
            let q: UnboundedWcq<u64> = UnboundedWcq::new(1, 2);
            let closed = AtomicBool::new(false);
            let close_at = 20 + seed * 13 % 150;
            let run = |who: u64| {
                let mut h = q.register().unwrap();
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + who;
                let (mut accepted, mut refused, mut got) = (Vec::new(), Vec::new(), Vec::new());
                let mut i = 0;
                while i < OFFERS {
                    if who == 0 && i == close_at {
                        h.close();
                        closed.store(true, Ordering::SeqCst);
                    }
                    let after_close = closed.load(Ordering::SeqCst);
                    let roll = next(&mut rng) % 8;
                    if roll == 0 {
                        got.extend(h.dequeue());
                        continue;
                    }
                    // Thread 1 offers batches, so a close can split one.
                    let len = if who == 1 { 1 + roll % 5 } else { 1 };
                    let mut batch: Vec<u64> =
                        (i..(i + len).min(OFFERS)).map(|i| who << 32 | i).collect();
                    i += batch.len() as u64;
                    let offered = batch.clone();
                    let n = if batch.len() == 1 {
                        usize::from(h.try_enqueue(batch[0]).is_ok())
                    } else {
                        h.enqueue_many(&mut batch)
                    };
                    if n < offered.len() && batch.len() > 1 {
                        assert_eq!(batch, offered[n..], "seed {seed}: remainder out of order");
                    }
                    assert!(
                        !after_close || n == 0,
                        "seed {seed}: an enqueue that started after the close was accepted"
                    );
                    accepted.extend_from_slice(&offered[..n]);
                    refused.extend_from_slice(&offered[n..]);
                    if i % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
                (accepted, refused, got)
            };
            let (mut accepted, mut refused, mut delivered) = (Vec::new(), Vec::new(), Vec::new());
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..2).map(|who| s.spawn(move || run(who))).collect();
                for t in threads {
                    let (a, r, g) = t.join().expect("worker");
                    accepted.extend(a);
                    refused.extend(r);
                    delivered.extend(g);
                }
            });
            let mut h = q.register().unwrap();
            while let Some(v) = h.dequeue() {
                delivered.push(v);
            }
            assert!(h.settled(), "seed {seed}: drained but not settled");
            assert_eq!(h.try_enqueue(u64::MAX), Err(u64::MAX), "seed {seed}");
            accepted.sort_unstable();
            refused.sort_unstable();
            delivered.sort_unstable();
            assert_eq!(delivered, accepted, "seed {seed}: lost or duplicated");
            assert_eq!(
                accepted.len() + refused.len(),
                2 * OFFERS as usize,
                "seed {seed}"
            );
            assert!(
                !refused.is_empty(),
                "seed {seed}: the close refused nothing"
            );
        }
    }

    #[test]
    fn dropping_a_closed_queue_drops_every_value_and_segment() {
        struct Counted<'a>(&'a AtomicU64);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = AtomicU64::new(0);
        let heap = thread_heap::live();
        {
            let q: UnboundedWcq<Counted<'_>> = UnboundedWcq::new(1, 2);
            let mut h = q.register().unwrap();
            for _ in 0..9 {
                h.enqueue(Counted(&dropped));
            }
            drop(h.dequeue()); // one dequeued: a drained slot at the head
            h.close();
            assert!(h.try_enqueue(Counted(&dropped)).is_err());
            assert_eq!(
                dropped.load(Ordering::SeqCst),
                2,
                "the dequeued and the refused"
            );
            assert!(q.segments_live() > 1, "the values span several segments");
        }
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            10,
            "every value dropped once"
        );
        assert_eq!(thread_heap::live(), heap, "every segment and buffer freed");
    }

    // ------------------------------------------------------------------
    // Free slots in runs: every stash goes back to its segment before the
    // handle lets go of it, so an open segment takes exactly `capacity`
    // values.  (A reused segment's `fq` is rebuilt by `SegmentCache::take`.)
    // ------------------------------------------------------------------

    /// Appends so far on a queue only one thread appends to: every segment
    /// beyond the first came from the allocator or the cache.
    fn appends<F: CellFamily>(q: &UnboundedWcq<u64, F>) -> usize {
        let stats = q.segment_stats();
        stats.allocated_total - 1 + stats.reused_total
    }

    #[test]
    fn a_dropped_producer_gives_its_stash_back() {
        let q: UnboundedWcq<u64> = UnboundedWcq::new(6, 2); // 64 slots
        let cap = q.segment_capacity() as u64;
        assert_eq!(q.run, 8);
        let mut first = q.register().unwrap();
        for v in 0..3 {
            first.enqueue(v);
        }
        assert_eq!(first.stash.len(), 5, "part of a run left");
        drop(first);
        let mut second = q.register().unwrap();
        for v in 3..cap {
            second.enqueue(v);
        }
        assert_eq!(
            (q.segments_allocated(), q.segments_live()),
            (1, 1),
            "one segment took all {cap} values"
        );
        second.enqueue(cap);
        assert_eq!(q.segments_live(), 2, "the next value opened a segment");
        for v in 0..=cap {
            assert_eq!(second.dequeue(), Some(v));
        }
    }

    #[test]
    fn a_moving_memo_returns_the_stash_to_the_segment_it_leaves() {
        for order in 2..=4 {
            let q: UnboundedWcq<u64> = UnboundedWcq::new(order, 1);
            let cap = q.segment_capacity() as u64;
            let mut h = q.register().unwrap();
            // Past a backlog of two segments, each enqueue moves the memo to
            // the tail segment and claims a run there, and each dequeue moves
            // it to the head, which must give the rest of that run back.
            let (mut next_out, mut in_segment) = (0, 0);
            for v in 0..12 * cap {
                let before = appends(&q);
                h.enqueue(v);
                if appends(&q) > before {
                    assert_eq!(
                        in_segment, cap,
                        "order {order}: a segment took {in_segment} values before value {v} opened the next"
                    );
                    in_segment = 0;
                }
                in_segment += 1;
                if v >= 2 * cap {
                    assert_eq!(h.dequeue(), Some(next_out));
                    next_out += 1;
                }
            }
            let stats = q.segment_stats();
            assert!(stats.reused_total > 2, "order {order}: {stats:?}");
        }
    }

    #[test]
    fn a_closed_segment_leaves_at_most_one_run_per_other_producer_unused() {
        const THREADS: usize = 4;
        for seed in 1..=8u64 {
            let q: UnboundedWcq<u64> = UnboundedWcq::new(7, THREADS); // 128 slots
            let (cap, run) = (q.segment_capacity(), q.run);
            assert_eq!(run, 8);
            let mut producers: Vec<_> = (0..THREADS).map(|_| q.register().unwrap()).collect();
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut taken = 0;
            loop {
                let who = next(&mut rng) as usize % THREADS;
                producers[who].enqueue(taken as u64);
                if q.segments_live() > 1 {
                    // `who` met `fq`'s ⊥ with its own stash empty, closed
                    // the segment and put this value in the next one.
                    break;
                }
                taken += 1;
            }
            let stashed: usize = producers.iter().map(|p| p.stash.len()).sum();
            assert_eq!(
                taken + stashed,
                cap,
                "seed {seed}: an index is neither used nor stashed"
            );
            assert!(
                stashed <= (THREADS - 1) * run,
                "seed {seed}: {stashed} slots unused"
            );
        }
    }

    /// Two producers, both stashing, a closer and a drainer, with every
    /// operation forced onto the slow path.
    fn stashing_producers_race_a_close<F: CellFamily>() {
        const PER: u64 = 400;
        let config = WcqConfig {
            max_patience_enqueue: 1,
            max_patience_dequeue: 1,
            help_delay: 1,
            catchup_bound: 8,
        };
        for seed in 1..=12u64 {
            // 64-slot segments and 4 handles: runs of 4.
            let q: UnboundedWcq<u64, F> =
                UnboundedWcq::with_config_cache_counters(6, 4, config, DEFAULT_SEGMENT_CACHE, None);
            assert_eq!(q.run, 4);
            let (q, closed, delivered) = (&q, &AtomicBool::new(false), &AtomicU64::new(0));
            let close_after = seed * 53 % (2 * PER);
            let (mut accepted, mut got) = std::thread::scope(|s| {
                let producers: Vec<_> = (0..2u64)
                    .map(|p| {
                        s.spawn(move || {
                            let mut h = q.register().unwrap();
                            let mut accepted = Vec::new();
                            for seq in 0..PER {
                                let after_close = closed.load(Ordering::SeqCst);
                                if h.try_enqueue(p << 32 | seq).is_ok() {
                                    assert!(!after_close, "seed {seed}: accepted after the close");
                                    accepted.push(p << 32 | seq);
                                }
                                if seq % 16 == 0 {
                                    std::thread::yield_now();
                                }
                            }
                            accepted
                        })
                    })
                    .collect();
                s.spawn(move || {
                    while delivered.load(Ordering::SeqCst) < close_after {
                        std::thread::yield_now();
                    }
                    q.register().unwrap().close();
                    closed.store(true, Ordering::SeqCst);
                });
                let drainer = s.spawn(move || {
                    let mut h = q.register().unwrap();
                    let (mut got, mut last) = (Vec::new(), [None; 2]);
                    loop {
                        // After `settled`, an empty answer is final.
                        let settled = h.settled();
                        let Some(v) = h.dequeue() else {
                            if settled {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        };
                        let (p, seq) = ((v >> 32) as usize, v & 0xffff_ffff);
                        assert!(
                            last[p] < Some(seq),
                            "seed {seed}: producer {p}'s {seq} after {:?}",
                            last[p]
                        );
                        last[p] = Some(seq);
                        got.push(v);
                        delivered.fetch_add(1, Ordering::SeqCst);
                    }
                    got
                });
                let accepted: Vec<u64> = (producers.into_iter())
                    .flat_map(|p| p.join().expect("producer"))
                    .collect();
                (accepted, drainer.join().expect("drainer"))
            });
            accepted.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, accepted, "seed {seed}: lost or duplicated");
            let mut late = q.register().unwrap();
            assert_eq!(late.try_enqueue(u64::MAX), Err(u64::MAX), "seed {seed}");
        }
    }

    #[test]
    fn stashing_producers_race_a_close_native() {
        stashing_producers_race_a_close::<NativeFamily>();
    }

    #[test]
    fn stashing_producers_race_a_close_llsc() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        stashing_producers_race_a_close::<LlscFamily>();
    }
}
