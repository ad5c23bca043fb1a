//! Ring segments and the segment cache of the unbounded queue.
//!
//! A [`Segment`] wraps one bounded [`WcqQueue`] together with the bookkeeping
//! the outer linked list needs:
//!
//! * a **credit counter** (`state`) that makes "is there room?" and "has the
//!   segment been closed?" one atomic decision — the LCRQ/LSCQ closing idea
//!   lifted to the data-queue layer, since wCQ's own enqueue cannot be told
//!   to fail permanently;
//! * an **in-flight counter** so dequeuers can wait out enqueuers that
//!   acquired a credit before the segment closed (those enqueues *will* land
//!   and must not be lost when the outer head advances past the segment);
//! * the outer `next` link;
//! * a back-pointer to the owning queue's [`SegmentCache`] so the hazard
//!   domain can *recycle* a drained segment instead of freeing it.
//!
//! ## Why credits make closing sound
//!
//! `state` starts at the segment capacity.  An enqueuer first increments
//! `inflight`, then does `state.fetch_sub(1)`: a positive pre-value is a
//! credit guaranteeing the inner free-index ring holds a slot for it (the
//! classic semaphore invariant — credits never exceed free slots, and free
//! slots are only taken by credit holders).  Closing subtracts a huge
//! constant, so every later claim observes a non-positive value and fails —
//! no check-then-act race, exactly like LCRQ's tail `CLOSED` bit.
//!
//! A dequeuer may advance the outer head past a segment only after it
//! observes, in order: a non-null `next` (segments are closed before they are
//! linked past), `inflight == 0` (every credit holder has finished its inner
//! enqueue), and one more empty inner dequeue.  At that point the segment is
//! permanently empty: no credit can be granted any more, and everything that
//! was in flight is visible.

use std::collections::VecDeque;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use wcq_atomics::CachePadded;
use wcq_core::metrics::CounterSet;
use wcq_core::wcq::{CellFamily, WcqConfig, WcqQueue};

/// Subtracted from `state` when a segment closes.  Far larger than any
/// capacity or thread count, so the counter stays negative against every
/// transient `±1` from concurrent claims and credit returns.
const CLOSE_DELTA: i64 = 1 << 40;

/// One ring segment of the unbounded queue.
pub(crate) struct Segment<T, F: CellFamily> {
    queue: WcqQueue<T, F>,
    /// Outer list link; doubles as the cache free-list link via reset.
    pub(crate) next: AtomicPtr<Segment<T, F>>,
    /// Free credits; `<= 0` means full or closed (see module docs).
    state: CachePadded<AtomicI64>,
    /// Close-once latch so `CLOSE_DELTA` is subtracted exactly once.
    closed: AtomicBool,
    /// Enqueuers currently between their `inflight` increment and decrement.
    inflight: CachePadded<AtomicUsize>,
    /// The owning queue's cache, for hazard-domain recycling.
    pub(crate) cache: *const SegmentCache<T, F>,
    capacity: i64,
}

impl<T, F: CellFamily> Segment<T, F> {
    pub(crate) fn new(
        order: u32,
        max_threads: usize,
        config: WcqConfig,
        cache: *const SegmentCache<T, F>,
        counters: Option<Arc<CounterSet>>,
    ) -> Self {
        let queue = WcqQueue::with_config_counters(order, max_threads, config, counters);
        let capacity = queue.capacity() as i64;
        Self {
            queue,
            next: AtomicPtr::new(ptr::null_mut()),
            state: CachePadded::new(AtomicI64::new(capacity)),
            closed: AtomicBool::new(false),
            inflight: CachePadded::new(AtomicUsize::new(0)),
            cache,
            capacity,
        }
    }

    /// Claims record slot `tid` of the inner rings so bound operations can
    /// skip the per-operation acquire/release round trip.  The outer `tid` is
    /// exclusive to one handle, so this only fails if the caller violates the
    /// bind/unbind pairing.
    pub(crate) fn bind(&self, tid: usize) -> bool {
        self.queue.try_acquire_slot(tid)
    }

    /// Releases a binding made by [`Segment::bind`].
    ///
    /// # Safety
    /// Pairs with exactly one successful `bind(tid)` by this caller.
    pub(crate) unsafe fn unbind(&self, tid: usize) {
        // SAFETY: per the function contract.
        unsafe { self.queue.release_slot(tid) };
    }

    /// Attempts to enqueue `value` under the credit discipline, assuming the
    /// caller is already bound to this segment.  `Err` means the segment is
    /// full or closed and will never accept this value.
    ///
    /// # Safety
    /// The caller must hold a live [`Segment::bind`] on `tid`.
    pub(crate) unsafe fn try_enqueue_bound(&self, tid: usize, value: T) -> Result<(), T> {
        self.inflight.fetch_add(1, SeqCst);
        let credit = self.state.fetch_sub(1, SeqCst);
        if credit <= 0 {
            self.state.fetch_add(1, SeqCst);
            self.inflight.fetch_sub(1, SeqCst);
            return Err(value);
        }
        // SAFETY: bound per the function contract.
        let res = unsafe { self.queue.enqueue_at(tid, value) };
        if res.is_err() {
            self.credit_invariant_broken(1);
        }
        self.inflight.fetch_sub(1, SeqCst);
        res
    }

    /// A credit guarantees a free inner slot, so a credit-holding enqueue
    /// never finds the inner ring full.  Should the invariant ever break,
    /// give the `unused` credits back rather than leak them — out of line, so
    /// the enqueue path carries only the (never taken) branch.
    #[cold]
    #[inline(never)]
    fn credit_invariant_broken(&self, unused: i64) {
        debug_assert!(false, "credit-holding enqueue found the inner ring full");
        self.state.fetch_add(unused, SeqCst);
    }

    /// Batch counterpart of [`Segment::try_enqueue_bound`]: claims up to
    /// `values.len()` credits with **one** `fetch_sub`, feeds the granted
    /// prefix to the inner batch enqueue, and returns the number accepted
    /// (drained from the front of `values`).  Returning `0` means the segment
    /// is full or closed and will never accept anything.
    ///
    /// Credits over-claimed by the single subtraction are returned before the
    /// inner enqueue runs, so the semaphore invariant (credits never exceed
    /// free inner slots) holds throughout.  The claim is clamped to the
    /// segment capacity so an oversized batch cannot push `state` anywhere
    /// near the [`CLOSE_DELTA`] sentinel range.
    ///
    /// The inner batch enqueue's free-slot claim is racily partial: under
    /// contention its run of free-ring tickets can miss slots that the held
    /// credits guarantee exist (holes in the claimed run).  The shortfall is
    /// claimed element-by-element through [`WcqQueue::enqueue_at`], whose
    /// free-ring dequeue is authoritative, so every granted credit is always
    /// converted into an accepted element.
    ///
    /// # Safety
    /// The caller must hold a live [`Segment::bind`] on `tid`.
    pub(crate) unsafe fn try_enqueue_many_bound(
        &self,
        tid: usize,
        values: &mut VecDeque<T>,
    ) -> usize {
        if values.is_empty() {
            return 0;
        }
        let want = (values.len() as i64).min(self.capacity);
        self.inflight.fetch_add(1, SeqCst);
        let credit = self.state.fetch_sub(want, SeqCst);
        let granted = credit.clamp(0, want);
        if granted < want {
            self.state.fetch_add(want - granted, SeqCst);
        }
        if granted == 0 {
            self.inflight.fetch_sub(1, SeqCst);
            return 0;
        }
        let mut accepted = if granted as usize == values.len() {
            // SAFETY: bound per the function contract.
            unsafe { self.queue.enqueue_many_at(tid, values) }
        } else {
            // Only the granted prefix may touch the inner ring: feeding the
            // whole buffer would let the inner enqueue consume free slots
            // that belong to other credit holders.
            let mut run: VecDeque<T> = values.drain(..granted as usize).collect();
            // SAFETY: bound per the function contract.
            let accepted = unsafe { self.queue.enqueue_many_at(tid, &mut run) };
            while let Some(value) = run.pop_back() {
                values.push_front(value);
            }
            accepted
        };
        // Convert the racy batch shortfall into accepted elements one
        // credit-guaranteed slot at a time (see the doc comment above).
        while (accepted as i64) < granted {
            let value = values.pop_front().expect("one element per granted credit");
            // SAFETY: bound per the function contract.
            match unsafe { self.queue.enqueue_at(tid, value) } {
                Ok(()) => accepted += 1,
                Err(value) => {
                    // The credit invariant rules this out; restore the value
                    // and the unused credits rather than losing either.
                    values.push_front(value);
                    self.credit_invariant_broken(granted - accepted as i64);
                    break;
                }
            }
        }
        self.inflight.fetch_sub(1, SeqCst);
        accepted
    }

    /// Attempts to dequeue assuming the caller is already bound; `None` means
    /// the inner ring was observed empty.
    ///
    /// # Safety
    /// The caller must hold a live [`Segment::bind`] on `tid`.
    pub(crate) unsafe fn try_dequeue_bound(&self, tid: usize) -> Option<T> {
        // SAFETY: bound per the function contract.
        let v = unsafe { self.queue.dequeue_at(tid) };
        if v.is_some() {
            self.state.fetch_add(1, SeqCst);
        }
        v
    }

    /// Batch counterpart of [`Segment::try_dequeue_bound`]: pulls up to `max`
    /// values with one inner batch dequeue and returns one credit per value
    /// with a **single** `fetch_add`.
    ///
    /// # Safety
    /// The caller must hold a live [`Segment::bind`] on `tid`.
    pub(crate) unsafe fn try_dequeue_many_bound(
        &self,
        tid: usize,
        out: &mut Vec<T>,
        max: usize,
    ) -> usize {
        // SAFETY: bound per the function contract.
        let got = unsafe { self.queue.dequeue_many_at(tid, out, max) };
        if got > 0 {
            self.state.fetch_add(got as i64, SeqCst);
        }
        got
    }

    /// One-shot enqueue: bind, operate, unbind.  Used off the hot path (the
    /// fresh-segment preload), where binding churn does not matter.
    pub(crate) fn try_enqueue(&self, tid: usize, value: T) -> Result<(), T> {
        assert!(self.bind(tid), "outer tid is exclusive to one operation");
        // SAFETY: bound above; unbound immediately after.
        let res = unsafe { self.try_enqueue_bound(tid, value) };
        unsafe { self.unbind(tid) };
        res
    }

    /// One-shot dequeue counterpart of [`Segment::try_enqueue`] (used when a
    /// lost link race takes the pre-loaded value back out).
    pub(crate) fn try_dequeue(&self, tid: usize) -> Option<T> {
        assert!(self.bind(tid), "outer tid is exclusive to one operation");
        // SAFETY: bound above; unbound immediately after.
        let v = unsafe { self.try_dequeue_bound(tid) };
        unsafe { self.unbind(tid) };
        v
    }

    /// Permanently rejects future enqueue credits (idempotent).
    pub(crate) fn close(&self) {
        if !self.closed.swap(true, SeqCst) {
            self.state.fetch_sub(CLOSE_DELTA, SeqCst);
        }
    }

    /// Number of enqueuers currently inside [`Segment::try_enqueue`].
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(SeqCst)
    }

    /// Resets the outer bookkeeping of a drained, unreachable segment so it
    /// can serve as a fresh tail.  The inner rings need no reset: a drained
    /// wCQ is simply an empty wCQ whose cycle counters have advanced.
    pub(crate) fn reopen(&self) {
        self.next.store(ptr::null_mut(), SeqCst);
        self.inflight.store(0, SeqCst);
        self.state.store(self.capacity, SeqCst);
        self.closed.store(false, SeqCst);
    }

    /// Bytes occupied by this segment (struct + inner rings and data array).
    pub(crate) fn footprint(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<WcqQueue<T, F>>()
            + self.queue.memory_footprint()
    }
}

/// The reclaimer installed with [`wcq_reclaim::HazardHandle::retire_with`]:
/// once no thread protects the segment, hand it back to the owning queue's
/// cache (or free it if the cache is full).
///
/// # Safety
/// `p` must point to a `Segment<T, F>` produced by `Box::into_raw` that has
/// been unlinked from the queue; the hazard domain guarantees exclusive
/// ownership when this runs, and the cache outlives the domain (field order
/// in `UnboundedWcq`).
pub(crate) unsafe fn recycle_segment<T, F: CellFamily>(p: *mut u8) {
    let seg = p.cast::<Segment<T, F>>();
    // SAFETY: per the function contract the segment is exclusively owned and
    // its cache back-pointer is still alive.
    let cache = unsafe { (*seg).cache };
    unsafe { SegmentCache::give_back(cache, seg) };
}

/// A bounded free-list of drained segments.
///
/// Steady-state traffic that repeatedly grows and shrinks by a few segments
/// allocates nothing: retired segments come back through
/// [`recycle_segment`] and are reused by the next append.  The store is a
/// fixed array of `AtomicPtr` slots (null = empty): `take` swaps slots to
/// null, `give_back` CASes null to the segment pointer.  Each segment lives
/// in at most one slot and every insertion/removal is one successful atomic
/// exchange on that slot, so there is no ABA hazard to protect against —
/// unlike a Treiber stack — and no lock, which keeps the (blocking-freedom)
/// lint's `Mutex` ban satisfiable for the whole crate.
pub(crate) struct SegmentCache<T, F: CellFamily> {
    slots: Box<[AtomicPtr<Segment<T, F>>]>,
    /// Segments accepted back into the cache (statistics).
    recycled: AtomicUsize,
    /// Appends served from the cache instead of the allocator (statistics).
    reused: AtomicUsize,
}

// SAFETY: the raw pointers are exclusively owned by the cache while stored
// (a segment enters a slot through exactly one successful CAS and leaves it
// through exactly one successful swap); all slot mutation is atomic.
unsafe impl<T: Send, F: CellFamily> Send for SegmentCache<T, F> {}
unsafe impl<T: Send, F: CellFamily> Sync for SegmentCache<T, F> {}

impl<T, F: CellFamily> SegmentCache<T, F> {
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            // Pre-allocate every slot so a steady-state `give_back` never
            // allocates.
            slots: (0..limit)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            recycled: AtomicUsize::new(0),
            reused: AtomicUsize::new(0),
        }
    }

    /// Heap bytes of the slot array (cached segments are counted by the
    /// queue, as resident segments).
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }

    /// Takes a reopened segment from the cache, if any.  The reuse statistic
    /// is *not* bumped here: a taken segment only counts as reused once its
    /// append wins the link race (see [`SegmentCache::note_reused`]) —
    /// otherwise a lost race that hands the segment straight back would
    /// overstate cache effectiveness.  (Hits and misses — how often the
    /// cache could answer at all — are recorded by the caller into the
    /// queue's counter set.)
    pub(crate) fn take(&self) -> Option<*mut Segment<T, F>> {
        for slot in self.slots.iter() {
            let seg = slot.swap(ptr::null_mut(), SeqCst);
            if !seg.is_null() {
                return Some(seg);
            }
        }
        None
    }

    /// Records that a cache-served segment was actually linked into a queue.
    pub(crate) fn note_reused(&self) {
        self.reused.fetch_add(1, SeqCst);
    }

    /// Accepts an exclusively owned, unreachable segment back (or frees it
    /// when the cache is at its limit).
    ///
    /// # Safety
    /// `cache` must be live and `seg` exclusively owned by the caller.
    pub(crate) unsafe fn give_back(cache: *const Self, seg: *mut Segment<T, F>) {
        // SAFETY: per the function contract.
        let this = unsafe { &*cache };
        // SAFETY: exclusive ownership allows the (atomic-only) reset.
        unsafe { (*seg).reopen() };
        for slot in this.slots.iter() {
            if slot
                .compare_exchange(ptr::null_mut(), seg, SeqCst, SeqCst)
                .is_ok()
            {
                this.recycled.fetch_add(1, SeqCst);
                return;
            }
        }
        // Every slot occupied: the cache is at its limit.
        // SAFETY: exclusively owned and produced by `Box::into_raw`.
        drop(unsafe { Box::from_raw(seg) });
    }

    /// Number of cached segments (racy snapshot; statistics and tests only).
    pub(crate) fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| !slot.load(SeqCst).is_null())
            .count()
    }

    pub(crate) fn recycled_total(&self) -> usize {
        self.recycled.load(SeqCst)
    }

    pub(crate) fn reused_total(&self) -> usize {
        self.reused.load(SeqCst)
    }
}

impl<T, F: CellFamily> Drop for SegmentCache<T, F> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let seg = *slot.get_mut();
            if !seg.is_null() {
                // SAFETY: cached segments are exclusively owned by the cache.
                drop(unsafe { Box::from_raw(seg) });
            }
        }
    }
}
