//! Ring segments and the segment cache of the unbounded queue.
//!
//! A [`Segment`] wraps one bounded [`WcqQueue`] together with the bookkeeping
//! the outer linked list needs:
//!
//! * an **in-flight word** (`inflight`): the number of enqueuers between
//!   their claim and the end of their inner enqueue, plus a [`CLOSED`] top
//!   bit — LCRQ's closed tail bit lifted to the data-queue layer, since
//!   wCQ's own enqueue cannot be told to fail permanently;
//! * the outer `next` link;
//! * a back-pointer to the owning queue's [`SegmentCache`] so the hazard
//!   domain can *recycle* a drained segment instead of freeing it.
//!
//! ## Why one bit makes closing sound
//!
//! 1. **`fq` already answers "full".**  A segment holds at most `capacity`
//!    indices, and they circulate only between `fq` and `aq` (Figure 2).  So
//!    the inner enqueue's `fq` dequeue returns ⊥ — a linearizable answer —
//!    exactly when no index is free: the same decision a zero credit made,
//!    read from the ring the enqueue has to touch anyway.  No second
//!    semaphore is needed to refuse a full segment.
//! 2. **The bit answers "closed".**  An enqueue claims with
//!    `inflight.fetch_add(1)`, and [`Segment::close`] is one
//!    `fetch_or(CLOSED)` on the same word, so the two are totally ordered.
//!    A claim ordered after the `fetch_or` sees `CLOSED` in its pre-value,
//!    undoes its increment and touches no ring.  A claim ordered before it
//!    is counted until its `fetch_sub`, which follows its `aq` deposit.
//! 3. **The dequeuer's advance sequence is unchanged.**  A dequeuer may
//!    advance the outer head past a segment only after it observes, in
//!    order: a non-null `next` (segments are closed before they are linked
//!    past, so no claim succeeds any more), `inflight() == 0` (every claim
//!    from before the close has deposited), and one more empty inner
//!    dequeue.  At that point the segment is permanently empty.
//!
//! A dequeue touches neither word — it is the inner `dequeue_at` and nothing
//! else — so the dequeuer writes no line the enqueuers own.
//!
//! ## Whose thread records
//!
//! A segment's operations take the caller's `tid` and claim no record slot
//! of the inner rings.  The unbounded queue passes its hazard-domain
//! participant id, which is already exclusive to one handle, and the domain's
//! release/acquire of that id orders each owner of a record after the
//! previous one — the hand-off Figure 4's owner-private cursor needs.  An
//! unpublished segment (the fresh-segment preload, `abandon_fresh`) has a
//! single user.

use std::collections::VecDeque;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use wcq_atomics::CachePadded;
use wcq_core::metrics::CounterSet;
use wcq_core::wcq::{CellFamily, WcqConfig, WcqQueue};

/// The closed bit of a segment's `inflight` word.  Set once by
/// [`Segment::close`] and cleared only by [`Segment::reopen`]; the count
/// below it never exceeds the registered threads.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// One ring segment of the unbounded queue.
pub(crate) struct Segment<T, F: CellFamily> {
    queue: WcqQueue<T, F>,
    /// Outer list link; doubles as the cache free-list link via reset.
    pub(crate) next: AtomicPtr<Segment<T, F>>,
    /// Enqueuers between their claim and the end of their inner enqueue, plus
    /// the [`CLOSED`] bit (see module docs).
    inflight: CachePadded<AtomicUsize>,
    /// The owning queue's cache, for hazard-domain recycling.
    pub(crate) cache: *const SegmentCache<T, F>,
}

impl<T, F: CellFamily> Segment<T, F> {
    pub(crate) fn new(
        order: u32,
        max_threads: usize,
        config: WcqConfig,
        cache: *const SegmentCache<T, F>,
        counters: Option<Arc<CounterSet>>,
    ) -> Self {
        Self {
            queue: WcqQueue::with_config_counters(order, max_threads, config, counters),
            next: AtomicPtr::new(ptr::null_mut()),
            inflight: CachePadded::new(AtomicUsize::new(0)),
            cache,
        }
    }

    /// Joins the in-flight enqueuers; `false`, with the claim undone, once
    /// the segment is closed.  A `true` must be paired with
    /// [`Segment::leave`] after the inner enqueue.
    #[inline]
    fn enter(&self) -> bool {
        if self.inflight.fetch_add(1, SeqCst) & CLOSED != 0 {
            self.leave();
            return false;
        }
        true
    }

    /// Ends a claim taken by [`Segment::enter`].
    #[inline]
    fn leave(&self) {
        self.inflight.fetch_sub(1, SeqCst);
    }

    /// Attempts to enqueue `value` as thread record `tid`.  `Err` means the
    /// segment is full or closed and will never accept this value.
    ///
    /// # Safety
    /// No other thread operates on this segment as `tid` concurrently, and
    /// an earlier one that did is ordered before this call (see
    /// [`WcqQueue::enqueue_at`]).
    pub(crate) unsafe fn try_enqueue(&self, tid: usize, value: T) -> Result<(), T> {
        if !self.enter() {
            return Err(value);
        }
        // SAFETY: `tid` is exclusive per the function contract.
        let res = unsafe { self.queue.enqueue_at(tid, value) };
        self.leave();
        res
    }

    /// Batch counterpart of [`Segment::try_enqueue`]: one claim covers the
    /// inner batch enqueue, and the number accepted (drained from the front
    /// of `values`) is returned.  Returning `0` means the segment is full or
    /// closed and will never accept anything.
    ///
    /// The inner batch enqueue's free-slot claim is racily partial: under
    /// contention its run of free-ring tickets can miss free slots (holes in
    /// the claimed run).  The remainder goes through [`WcqQueue::enqueue_at`]
    /// one element at a time until its free-ring dequeue — the authoritative
    /// "full" — refuses one.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    pub(crate) unsafe fn try_enqueue_many(&self, tid: usize, values: &mut VecDeque<T>) -> usize {
        if values.is_empty() || !self.enter() {
            return 0;
        }
        // SAFETY: `tid` is exclusive per the function contract.
        let mut accepted = unsafe { self.queue.enqueue_many_at(tid, values) };
        while let Some(value) = values.pop_front() {
            // SAFETY: as above.
            match unsafe { self.queue.enqueue_at(tid, value) } {
                Ok(()) => accepted += 1,
                Err(value) => {
                    values.push_front(value);
                    break;
                }
            }
        }
        self.leave();
        accepted
    }

    /// Attempts to dequeue as thread record `tid`; `None` means the inner
    /// ring was observed empty.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    pub(crate) unsafe fn try_dequeue(&self, tid: usize) -> Option<T> {
        // SAFETY: `tid` is exclusive per the function contract.
        unsafe { self.queue.dequeue_at(tid) }
    }

    /// Batch counterpart of [`Segment::try_dequeue`]: pulls up to `max`
    /// values with one inner batch dequeue.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    pub(crate) unsafe fn try_dequeue_many(
        &self,
        tid: usize,
        out: &mut Vec<T>,
        max: usize,
    ) -> usize {
        // SAFETY: `tid` is exclusive per the function contract.
        unsafe { self.queue.dequeue_many_at(tid, out, max) }
    }

    /// Permanently refuses future enqueue claims (idempotent).
    pub(crate) fn close(&self) {
        self.inflight.fetch_or(CLOSED, SeqCst);
    }

    /// Number of enqueuers currently inside [`Segment::try_enqueue`] or its
    /// batch counterpart.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(SeqCst) & !CLOSED
    }

    /// Resets the outer bookkeeping of a drained, unreachable segment so it
    /// can serve as a fresh tail.  The inner rings need no reset: a drained
    /// wCQ is simply an empty wCQ whose cycle counters have advanced.
    pub(crate) fn reopen(&self) {
        self.next.store(ptr::null_mut(), SeqCst);
        self.inflight.store(0, SeqCst);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use wcq_core::wcq::{LlscFamily, NativeFamily};

    fn segment<F: CellFamily>(order: u32, threads: usize) -> Segment<u64, F> {
        Segment::new(order, threads, WcqConfig::default(), ptr::null(), None)
    }

    /// Head, tail and threshold of `aq` and `fq`, as the inner queue's
    /// `Debug` prints them.
    fn rings<F: CellFamily>(seg: &Segment<u64, F>) -> String {
        format!("{:?}", seg.queue)
    }

    /// Fills `seg` to exactly its capacity and sees the next value refused
    /// (by `fq`'s ⊥: nothing closed the segment), twice — fresh, then drained
    /// and reopened, as the cache hands it out again.
    fn takes_exactly_capacity<F: CellFamily>(seg: &Segment<u64, F>) {
        let cap = seg.queue.capacity() as u64;
        for round in 0..2 {
            // SAFETY: one thread, the only user of tid 0.
            unsafe {
                for v in 0..cap {
                    assert_eq!(seg.try_enqueue(0, v), Ok(()), "round {round}: {v} of {cap}");
                }
                assert_eq!(
                    seg.try_enqueue(0, cap),
                    Err(cap),
                    "round {round}: one past full"
                );
                for v in 0..cap {
                    assert_eq!(seg.try_dequeue(0), Some(v));
                }
                assert_eq!(seg.try_dequeue(0), None);
            }
            seg.close();
            seg.reopen();
        }
    }

    #[test]
    fn a_segment_takes_exactly_capacity_native() {
        takes_exactly_capacity(&segment::<NativeFamily>(3, 1));
    }

    /// A spurious ⊥ from `fq` would now close a segment early, so the LL/SC
    /// model runs with store-conditionals failing at random too.
    #[test]
    fn a_segment_takes_exactly_capacity_llsc_with_spurious_failures() {
        struct ResetRate;
        impl Drop for ResetRate {
            fn drop(&mut self) {
                wcq_atomics::llsc::set_spurious_failure_rate(0.0);
            }
        }
        let _reset = ResetRate;
        for rate in [0.0, 0.3] {
            wcq_atomics::llsc::set_spurious_failure_rate(rate);
            for order in 1..=4 {
                takes_exactly_capacity(&segment::<LlscFamily>(order, 1));
            }
        }
    }

    #[test]
    fn a_closed_segment_refuses_without_touching_a_ring() {
        let seg = segment::<NativeFamily>(3, 1);
        // SAFETY: one thread, the only user of tid 0.
        unsafe {
            assert_eq!(seg.try_enqueue(0, 1), Ok(()));
            seg.close();
            let before = rings(&seg);
            assert_eq!(seg.try_enqueue(0, 2), Err(2));
            let mut batch: VecDeque<u64> = (3..6).collect();
            assert_eq!(seg.try_enqueue_many(0, &mut batch), 0);
            assert_eq!(batch, [3, 4, 5], "a refused batch keeps every value");
            assert_eq!(rings(&seg), before, "a refused claim touched a ring");
            assert_eq!(seg.try_dequeue(0), Some(1), "pre-close values drain");
        }
        assert_eq!(seg.inflight(), 0);
        assert_eq!(
            seg.inflight.load(SeqCst),
            CLOSED,
            "the bit and nothing else"
        );
        seg.close();
        assert_eq!(seg.inflight.load(SeqCst), CLOSED, "closing is idempotent");
        seg.reopen();
        assert_eq!(seg.inflight.load(SeqCst), 0);
        // SAFETY: as above.
        assert_eq!(unsafe { seg.try_enqueue(0, 7) }, Ok(()));
    }

    /// Values each enqueuer of the race below offers.
    const PER: u64 = 96;

    /// Lets the race below share one segment across threads.
    struct Shared(Segment<u64, NativeFamily>);
    // SAFETY: test-only.  Of `Segment<u64, _>`'s fields, the inner queue is
    // `Sync` (and every thread operates as its own tid), `next` and
    // `inflight` are atomics, and `cache` — the one raw pointer — is null
    // here and never dereferenced (nothing is recycled).
    unsafe impl Sync for Shared {}

    /// One seeded race on a 4-slot segment: two single and one batch
    /// enqueuer and a closer against one drainer that stops the way the
    /// queue's head advance does — closed, then `inflight() == 0`, then one
    /// more empty dequeue.  Returns `(accepted, refused, delivered)`, sorted.
    fn closing_race(seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let shared = &Shared(segment(2, 4));
        let delivered_count = &AtomicU64::new(0);
        let finished = &AtomicU64::new(0);
        let close_after = seed * 7 % PER;
        std::thread::scope(|s| {
            let enqueuers: Vec<_> = (0..3u64)
                .map(|who| {
                    s.spawn(move || {
                        let (seg, tid) = (&shared.0, who as usize);
                        let (mut accepted, mut refused) = (Vec::new(), Vec::new());
                        let mut seq = 0;
                        while seq < PER {
                            let len = if who == 2 { 1 + (seed + seq) % 5 } else { 1 };
                            let offered: Vec<u64> =
                                (seq..(seq + len).min(PER)).map(|i| who << 32 | i).collect();
                            seq += offered.len() as u64;
                            let mut run: VecDeque<u64> = offered.iter().copied().collect();
                            let n = if who == 2 {
                                // SAFETY: this thread is the only user of `tid`.
                                unsafe { seg.try_enqueue_many(tid, &mut run) }
                            } else {
                                // SAFETY: as above.
                                usize::from(unsafe { seg.try_enqueue(tid, offered[0]) }.is_ok())
                            };
                            accepted.extend_from_slice(&offered[..n]);
                            refused.extend_from_slice(&offered[n..]);
                            if seq % 8 == 0 {
                                std::thread::yield_now();
                            }
                        }
                        finished.fetch_add(1, SeqCst);
                        (accepted, refused)
                    })
                })
                .collect();
            s.spawn(move || {
                while delivered_count.load(SeqCst) < close_after && finished.load(SeqCst) < 3 {
                    std::hint::spin_loop();
                }
                shared.0.close();
            });
            let drainer = s.spawn(move || {
                let seg = &shared.0;
                let mut got = Vec::new();
                loop {
                    // SAFETY: this thread is the only user of tid 3.
                    if let Some(v) = unsafe { seg.try_dequeue(3) } {
                        got.push(v);
                        delivered_count.fetch_add(1, SeqCst);
                        continue;
                    }
                    if seg.inflight.load(SeqCst) & CLOSED == 0 || seg.inflight() != 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    // SAFETY: as above.
                    match unsafe { seg.try_dequeue(3) } {
                        Some(v) => got.push(v),
                        None => break,
                    }
                }
                got
            });
            let (mut accepted, mut refused) = (Vec::new(), Vec::new());
            for e in enqueuers {
                let (a, r) = e.join().expect("enqueuer");
                accepted.extend(a);
                refused.extend(r);
            }
            let mut delivered = drainer.join().expect("drainer");
            // SAFETY: every other thread has been joined.
            assert_eq!(
                unsafe { shared.0.try_dequeue(0) },
                None,
                "a value landed after the drain"
            );
            accepted.sort_unstable();
            refused.sort_unstable();
            delivered.sort_unstable();
            (accepted, refused, delivered)
        })
    }

    #[test]
    fn a_closing_race_delivers_every_accepted_value_exactly_once() {
        for seed in 1..=12 {
            let (accepted, refused, delivered) = closing_race(seed);
            assert_eq!(delivered, accepted, "seed {seed}: lost or duplicated");
            assert_eq!(
                accepted.len() + refused.len(),
                3 * PER as usize,
                "seed {seed}"
            );
            assert!(
                refused.iter().all(|v| delivered.binary_search(v).is_err()),
                "seed {seed}: a refused value was delivered"
            );
        }
    }
}
