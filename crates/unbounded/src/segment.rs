//! Ring segments and the segment cache of the unbounded queue.
//!
//! A [`Segment`] wraps one bounded [`WcqQueue`] together with the bookkeeping
//! the outer linked list needs:
//!
//! * a [`Gate`]: the number of enqueuers between their claim and the end of
//!   their inner enqueue, plus a closed top bit — LCRQ's closed tail bit
//!   lifted to the data-queue layer, since wCQ's own enqueue cannot be told
//!   to fail permanently;
//! * the outer `next` link, which is null, a successor, or [`shut`]: the
//!   queue's close, meaning "closed for good, and no successor will come";
//! * a back-pointer to the owning queue's [`SegmentCache`] so the hazard
//!   domain can *recycle* a drained segment instead of freeing it.
//!
//! ## Why one bit makes closing sound
//!
//! 1. **`fq` already answers "full", or early.**  A segment holds at most
//!    `capacity` indices, and while it has no successor they circulate only
//!    between `fq`, `aq` and the producers' [`Stash`]es (Figure 2, with free
//!    slots claimed in runs).  So the inner enqueue's `fq` claim returns ⊥ —
//!    a linearizable answer — exactly when no index is free *outside the
//!    stashes*, read from the ring the enqueue has to touch anyway; no
//!    second semaphore is needed to refuse a full segment.  (Once the
//!    segment has a successor, dequeues keep the indices they free — see
//!    "Free slots in runs" — and a ⊥ there tells a producer that claimed
//!    before the close what the closed gate tells every later one.)  A
//!    producer closes on that ⊥ only with its own stash empty, even while
//!    other producers' stashes still hold some of the segment's indices.
//!    Closing early is always safe: the close comes before the link (point
//!    3), and nothing is ever deposited through a stash without a gate
//!    claim (point 2), so the stashed indices are simply never used here
//!    again and go back to `fq` when their holders move on.  It wastes at
//!    most `(max_threads − 1) × run` slots of the segment, one run per other
//!    producer.
//! 2. **The bit answers "closed".**  An enqueue claims with [`Gate::enter`],
//!    and [`Segment::close`] is [`Gate::close`] on the same word, so the two
//!    are totally ordered.  A claim ordered after the close is refused and
//!    touches no ring.  A claim ordered before it is counted until its
//!    [`Gate::leave`], which follows its `aq` deposit.
//! 3. **The dequeuer's advance sequence is unchanged.**  A dequeuer may
//!    advance the outer head past a segment only after it observes, in
//!    order: a successor (segments are closed before they are linked past,
//!    so no claim succeeds any more), `inflight() == 0` (every claim from
//!    before the close has deposited), and one more empty inner dequeue.  At
//!    that point the segment is permanently empty.  A `next` of [`shut`]
//!    follows a close too, so the same three observations — with `shut` in
//!    place of the successor — prove the queue closed and drained.
//!
//! A dequeue touches neither word — it is the inner `aq` take and, after a
//! successful one, a load of `next` and maybe the `fq` return — so the
//! dequeuer writes no line the enqueuers own.
//!
//! ## Free slots in runs
//!
//! Figure 2 makes every enqueue fetch a free index with a full `fq` dequeue
//! (head F&A, consume `OR`, threshold check), though no caller observes the
//! order of free indices.  So a producer claims them in runs instead: one
//! `fq` batch dequeue fills its [`Stash`] with up to `run` indices, and its
//! next `run` enqueues into the segment deposit at them with no `fq`
//! operation at all.  A stash belongs to one segment, the unbounded handle's
//! memo, is refilled only inside a gate claim (so a refused claim still
//! touches no ring), and goes back to `fq` before the handle's hazard slot 1
//! lets go of the segment.
//!
//! A dequeue returns each freed index at once, but only while the segment's
//! `next` is null.  Once it is not, the segment is closed for good (the
//! close comes before the link, point 3): no claim succeeds there again, and
//! only a producer that claimed before the close can still ask `fq` for an
//! index.  So a dequeue there keeps the index it freed and skips a whole
//! `fq` enqueue (tail F&A, entry CAS, threshold re-arm, helping countdown);
//! such a straggler may then get ⊥ sooner and move on to the successor.
//! `next` is read only after a successful `aq` take, so an empty poll is
//! exactly what it was.  A drained segment therefore reaches the cache with
//! indices missing from `fq`, and [`SegmentCache::take`] rebuilds `fq` in
//! place, every index free, before it reuses one.  The rebuild also makes a
//! lost stash harmless to the reused segment.
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

use wcq_core::metrics::CounterSet;
use wcq_core::wcq::{CellFamily, WcqConfig, WcqQueue};

use crate::gate::Gate;

/// The `next` of the last segment of a closed queue: no append can link
/// after it.  Never dereferenced, and never a segment's address (it is the
/// type's alignment, which no allocation returns).
pub(crate) fn shut<T, F: CellFamily>() -> *mut Segment<T, F> {
    ptr::dangling_mut()
}

/// One ring segment of the unbounded queue.
pub(crate) struct Segment<T, F: CellFamily> {
    queue: WcqQueue<T, F>,
    /// Outer list link: null, a successor, or [`shut`].  Readers go through
    /// [`Segment::successor`], which treats `shut` as "none".
    pub(crate) next: AtomicPtr<Segment<T, F>>,
    /// Enqueuers between their claim and the end of their inner enqueue, plus
    /// the closed bit (see module docs).
    gate: Gate,
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
            gate: Gate::new(),
            cache,
        }
    }

    /// The segment linked after this one, if any: `None` for the tail, and
    /// for a closed queue's last segment (`next` is [`shut`]).
    #[inline]
    pub(crate) fn successor(&self) -> Option<*mut Segment<T, F>> {
        let next = self.next.load(SeqCst);
        (!next.is_null() && next != shut()).then_some(next)
    }

    /// Whether the queue closed on this segment: it is the last one, for
    /// good.
    pub(crate) fn is_shut(&self) -> bool {
        self.next.load(SeqCst) == shut()
    }

    /// Attempts to enqueue `value` as thread record `tid`, at a free index
    /// from `stash`, which is refilled from `fq` with up to `run` indices
    /// when it is empty.  `Err` means the segment is closed, or has no free
    /// index outside the stashes, and will never accept this value.
    ///
    /// # Safety
    /// No other thread operates on this segment as `tid` concurrently, and
    /// an earlier one that did is ordered before this call (see
    /// [`WcqQueue::enqueue_at`]).  `stash` holds only this segment's
    /// indices, and `run` is at most [`Stash::MAX`].
    #[inline]
    pub(crate) unsafe fn try_enqueue(
        &self,
        tid: usize,
        value: T,
        stash: &mut Stash,
        run: usize,
    ) -> Result<(), T> {
        if !self.gate.enter() {
            return Err(value);
        }
        // SAFETY: per the function contract, inside a gate claim.
        let res = unsafe { self.enqueue_claimed(tid, value, stash, run) };
        self.gate.leave();
        res
    }

    /// Batch counterpart of [`Segment::try_enqueue`]: one claim covers the
    /// inner batch enqueue, and the number accepted (drained from the front
    /// of `values`) is returned.  Returning `0` means the segment is full or
    /// closed and will never accept anything.
    ///
    /// The inner batch enqueue's free-slot claim is racily partial: under
    /// contention its run of free-ring tickets can miss free slots (holes in
    /// the claimed run).  The remainder goes through the stash one element
    /// at a time until the free-ring claim — the authoritative "full" —
    /// refuses one.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    pub(crate) unsafe fn try_enqueue_many(
        &self,
        tid: usize,
        values: &mut VecDeque<T>,
        stash: &mut Stash,
        run: usize,
    ) -> usize {
        if values.is_empty() || !self.gate.enter() {
            return 0;
        }
        // SAFETY: `tid` is exclusive per the function contract.
        let mut accepted = unsafe { self.queue.enqueue_many_at(tid, values) };
        while let Some(value) = values.pop_front() {
            // SAFETY: per the function contract, inside the gate claim.
            match unsafe { self.enqueue_claimed(tid, value, stash, run) } {
                Ok(()) => accepted += 1,
                Err(value) => {
                    values.push_front(value);
                    break;
                }
            }
        }
        self.gate.leave();
        accepted
    }

    /// The inner enqueue of a gate claim: a deposit at a stashed index,
    /// refilling the stash first when it is empty.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`], and the caller holds a gate claim.
    #[inline(always)]
    unsafe fn enqueue_claimed(
        &self,
        tid: usize,
        value: T,
        stash: &mut Stash,
        run: usize,
    ) -> Result<(), T> {
        let claimed = match stash.pop() {
            Some(index) => Some(index),
            // SAFETY: per the function contract.
            None => unsafe { self.refill(tid, stash, run) },
        };
        let Some(index) = claimed else {
            return Err(value);
        };
        // SAFETY: the index is this segment's (function contract), and
        // popping it made it ours alone.
        unsafe { self.queue.deposit(tid, index, value) };
        Ok(())
    }

    /// Claims a run of up to `run` free indices into the empty `stash` with
    /// one `fq` batch dequeue, and pops one.  Once per run, so out of line.
    /// `None` is `fq`'s ⊥.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    #[cold]
    #[inline(never)]
    unsafe fn refill(&self, tid: usize, stash: &mut Stash, run: usize) -> Option<u32> {
        // SAFETY: `tid` is exclusive per the function contract.
        stash.len = unsafe { self.queue.claim_free(tid, &mut stash.free[..run]) } as u32;
        stash.pop()
    }

    /// Hands every index in `stash` back to `fq` and empties it.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    pub(crate) unsafe fn return_stash(&self, tid: usize, stash: &mut Stash) {
        let len = std::mem::take(&mut stash.len) as usize;
        // SAFETY: the indices are this segment's, claimed and not deposited
        // at (function contract).
        unsafe { self.queue.return_free(tid, &stash.free[..len]) };
    }

    /// Enqueues the first value of an unpublished segment (the fresh-segment
    /// preload).  One free index, claimed alone: nothing is left stashed.
    ///
    /// # Safety
    /// The segment is unpublished and owned by the caller.
    pub(crate) unsafe fn preload(&self, tid: usize, value: T) {
        // SAFETY: an unpublished segment has a single user under any `tid`.
        if unsafe { self.queue.enqueue_at(tid, value) }.is_err() {
            unreachable!("a fresh segment must accept its first element");
        }
    }

    /// Attempts to dequeue as thread record `tid`; `None` means the inner
    /// ring was observed empty.
    ///
    /// The freed index goes back to `fq` only while `next` is null (module
    /// docs, "Free slots in runs").  `next` is read after the `aq` take
    /// succeeded, so an empty poll runs the take and nothing else.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    pub(crate) unsafe fn try_dequeue(&self, tid: usize) -> Option<T> {
        // SAFETY: `tid` is exclusive per the function contract.
        let (value, index) = unsafe { self.queue.take_at(tid) }?;
        if self.next.load(SeqCst).is_null() {
            // SAFETY: as above; the index was just taken.
            unsafe { self.queue.return_index(tid, index) };
        }
        Some(value)
    }

    /// Batch counterpart of [`Segment::try_dequeue`]: pulls up to `max`
    /// values with one inner batch dequeue, and returns their indices with
    /// one batch enqueue under the same rule.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    pub(crate) unsafe fn try_dequeue_many(
        &self,
        tid: usize,
        out: &mut Vec<T>,
        max: usize,
    ) -> usize {
        let mut free = Vec::with_capacity(max.min(self.queue.capacity()));
        // SAFETY: `tid` is exclusive per the function contract.
        let got = unsafe { self.queue.take_many_at(tid, out, max, &mut free) };
        if got > 0 && self.next.load(SeqCst).is_null() {
            // SAFETY: as above; `free` holds the indices just taken.
            unsafe { self.queue.return_free(tid, &free) };
        }
        got
    }

    /// Permanently refuses future enqueue claims (idempotent).
    pub(crate) fn close(&self) {
        self.gate.close();
    }

    /// Number of enqueuers currently inside [`Segment::try_enqueue`] or its
    /// batch counterpart.
    pub(crate) fn inflight(&self) -> usize {
        self.gate.inflight()
    }

    /// Resets the outer bookkeeping of a drained, unreachable segment so it
    /// can serve as a fresh tail.  `aq` needs no reset: a drained wCQ is
    /// simply an empty wCQ whose cycle counters have advanced.  `fq` is
    /// rebuilt when the cache hands the segment out ([`SegmentCache::take`]).
    pub(crate) fn reopen(&self) {
        self.next.store(ptr::null_mut(), SeqCst);
        self.gate.reopen();
    }

    /// Bytes occupied by this segment (struct + inner rings and data array).
    pub(crate) fn footprint(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<WcqQueue<T, F>>()
            + self.queue.memory_footprint()
    }
}

/// Free slot indices a producer claimed from one segment's `fq` and has not
/// deposited at yet (module docs, "Free slots in runs"): inline, no heap of
/// its own.
pub(crate) struct Stash {
    free: [u32; Stash::MAX],
    len: u32,
}

impl Stash {
    /// The longest run a stash holds.
    pub(crate) const MAX: usize = 16;

    pub(crate) const fn new() -> Self {
        Self {
            free: [0; Self::MAX],
            len: 0,
        }
    }

    /// The run a queue claims, derived from its geometry rather than set:
    /// `capacity / (4 × max_threads)`, clamped to `1..=MAX` (16 at the
    /// defaults).  Whenever `capacity ≥ 4 × max_threads`, at most a quarter
    /// of a segment can sit idle in stashes.
    pub(crate) fn run(capacity: usize, max_threads: usize) -> usize {
        (capacity / (4 * max_threads)).clamp(1, Self::MAX)
    }

    /// Indices held.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<u32> {
        self.len = self.len.checked_sub(1)?;
        Some(self.free[self.len as usize])
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
/// [`recycle_segment`] and are reused by the next append, `fq` rebuilt on the
/// way out ([`SegmentCache::take`]).  The store is a fixed array of
/// `AtomicPtr` slots (null = empty): `take` swaps slots to null,
/// `give_back` CASes null to the segment pointer.  Each segment lives
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
    ///
    /// The taken segment's `fq` is rebuilt in place with every index free
    /// ([`WcqQueue::rebuild_free`]): the dequeues that drained it after it
    /// gained a successor kept their indices.  The rebuild is here, not in
    /// `give_back`, so a segment that is only ever freed (one the hazard
    /// domain's drop hands back) never pays it.
    pub(crate) fn take(&self) -> Option<*mut Segment<T, F>> {
        for slot in self.slots.iter() {
            let seg = slot.swap(ptr::null_mut(), SeqCst);
            if !seg.is_null() {
                // SAFETY: the swap made the segment exclusively ours.  A
                // cached segment was drained before it retired (or, fresh and
                // abandoned, gave its one value back), so `aq` holds no
                // index, and every stash of it went back before its holder's
                // hazard slot let go.
                unsafe { (*seg).queue.rebuild_free() };
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
        let (stash, run) = (&mut Stash::new(), Stash::MAX.min(cap as usize));
        for round in 0..2 {
            // SAFETY: one thread, the only user of tid 0; the stash is this
            // segment's.
            unsafe {
                for v in 0..cap {
                    assert_eq!(
                        seg.try_enqueue(0, v, stash, run),
                        Ok(()),
                        "round {round}: {v} of {cap}"
                    );
                }
                assert_eq!(
                    seg.try_enqueue(0, cap, stash, run),
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

    /// `fq`'s head, tail and threshold, as the inner queue's `Debug` prints
    /// them.
    fn fq<F: CellFamily>(seg: &Segment<u64, F>) -> String {
        let rings = rings(seg);
        rings[rings.find("fq:").expect("fq in the Debug output")..].to_owned()
    }

    /// A dequeue, single or batch, returns its index to `fq` on the open
    /// tail and keeps it once the segment has a successor; an empty poll
    /// moves no `fq` counter either way.
    fn a_dequeue_returns_its_index_only_without_a_successor<F: CellFamily>() {
        let seg = segment::<F>(3, 1);
        let successor = segment::<F>(3, 1);
        let (stash, run, out) = (&mut Stash::new(), 2, &mut Vec::new());
        // SAFETY: one thread, the only user of tid 0; the stash is `seg`'s.
        unsafe {
            for v in 0..4 {
                assert_eq!(seg.try_enqueue(0, v, stash, run), Ok(()));
            }
            let before = fq(&seg);
            assert_eq!(seg.try_dequeue(0), Some(0));
            let after = fq(&seg);
            assert_ne!(after, before, "the open tail returns its index");
            assert_eq!(seg.try_dequeue_many(0, out, 1), 1);
            assert_ne!(fq(&seg), after, "the open tail returns the run");

            seg.close();
            seg.next.store(ptr::from_ref(&successor).cast_mut(), SeqCst);
            let linked = fq(&seg);
            assert_eq!(seg.try_dequeue(0), Some(2));
            assert_eq!(seg.try_dequeue_many(0, out, 1), 1);
            assert_eq!(*out, [1, 3]);
            assert_eq!(seg.try_dequeue(0), None);
            assert_eq!(seg.try_dequeue_many(0, out, 4), 0);
            assert_eq!(
                fq(&seg),
                linked,
                "a segment with a successor kept its indices"
            );
        }
    }

    #[test]
    fn a_dequeue_returns_its_index_only_without_a_successor_native() {
        a_dequeue_returns_its_index_only_without_a_successor::<NativeFamily>();
    }

    #[test]
    fn a_dequeue_returns_its_index_only_without_a_successor_llsc() {
        a_dequeue_returns_its_index_only_without_a_successor::<LlscFamily>();
    }

    /// A segment drained after it gained a successor reaches the cache with
    /// no index in `fq`; the one the cache hands out again takes exactly
    /// `capacity` values, fresh and after a reopen.
    fn a_reused_segment_takes_exactly_capacity<F: CellFamily>(order: u32) {
        let cache = SegmentCache::<u64, F>::new(1);
        let seg = Box::into_raw(Box::new(Segment::new(
            order,
            1,
            WcqConfig::default(),
            &cache,
            None,
        )));
        let successor = segment::<F>(order, 1);
        // SAFETY: one thread, the only user of tid 0 and of `seg`, which
        // came from `Box::into_raw` and is freed once, at the end.
        unsafe {
            let cap = (*seg).queue.capacity() as u64;
            let (stash, run) = (&mut Stash::new(), Stash::MAX.min(cap as usize));
            for v in 0..cap {
                assert_eq!((*seg).try_enqueue(0, v, stash, run), Ok(()));
            }
            assert_eq!((*seg).try_enqueue(0, cap, stash, run), Err(cap));
            (*seg).close();
            (*seg)
                .next
                .store(ptr::from_ref(&successor).cast_mut(), SeqCst);
            let full = fq(&*seg);
            for v in 0..cap {
                assert_eq!((*seg).try_dequeue(0), Some(v));
            }
            assert_eq!((*seg).try_dequeue(0), None);
            assert_eq!(fq(&*seg), full, "every return was skipped");
            SegmentCache::give_back(&cache, seg);
            let again = cache.take().expect("the segment just given back");
            assert_eq!(again, seg);
            takes_exactly_capacity(&*again);
            drop(Box::from_raw(again));
        }
    }

    #[test]
    fn a_reused_segment_takes_exactly_capacity_native() {
        for order in 1..=4 {
            a_reused_segment_takes_exactly_capacity::<NativeFamily>(order);
        }
    }

    #[test]
    fn a_reused_segment_takes_exactly_capacity_llsc() {
        for order in 1..=4 {
            a_reused_segment_takes_exactly_capacity::<LlscFamily>(order);
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
        let (stash, run) = (&mut Stash::new(), 2);
        // SAFETY: one thread, the only user of tid 0; the stash is this
        // segment's.
        unsafe {
            assert_eq!(seg.try_enqueue(0, 1, stash, run), Ok(()));
            assert_eq!(stash.len(), 1, "the run's other index stays stashed");
            seg.close();
            let before = rings(&seg);
            assert_eq!(seg.try_enqueue(0, 2, stash, run), Err(2));
            let mut batch: VecDeque<u64> = (3..6).collect();
            assert_eq!(seg.try_enqueue_many(0, &mut batch, stash, run), 0);
            assert_eq!(batch, [3, 4, 5], "a refused batch keeps every value");
            assert_eq!(rings(&seg), before, "a refused claim touched a ring");
            assert_eq!(seg.try_dequeue(0), Some(1), "pre-close values drain");
        }
        assert_eq!(seg.inflight(), 0);
        assert_eq!(seg.gate.word(), Gate::CLOSED, "the bit and nothing else");
        seg.close();
        assert_eq!(seg.gate.word(), Gate::CLOSED, "closing is idempotent");
        seg.reopen();
        assert_eq!(seg.gate.word(), 0);
        // SAFETY: as above.
        assert_eq!(unsafe { seg.try_enqueue(0, 7, stash, run) }, Ok(()));
    }

    /// Values each enqueuer of the race below offers.
    const PER: u64 = 96;

    /// Lets the race below share one segment across threads.
    struct Shared(Segment<u64, NativeFamily>);
    // SAFETY: test-only.  Of `Segment<u64, _>`'s fields, the inner queue is
    // `Sync` (and every thread operates as its own tid), `next` and the
    // gate are atomics, and `cache` — the one raw pointer — is null
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
                        let (stash, run) = (&mut Stash::new(), 2);
                        let (mut accepted, mut refused) = (Vec::new(), Vec::new());
                        let mut seq = 0;
                        while seq < PER {
                            let len = if who == 2 { 1 + (seed + seq) % 5 } else { 1 };
                            let offered: Vec<u64> =
                                (seq..(seq + len).min(PER)).map(|i| who << 32 | i).collect();
                            seq += offered.len() as u64;
                            let mut batch: VecDeque<u64> = offered.iter().copied().collect();
                            let n = if who == 2 {
                                // SAFETY: this thread is the only user of
                                // `tid`, and of its stash of this segment.
                                unsafe { seg.try_enqueue_many(tid, &mut batch, stash, run) }
                            } else {
                                // SAFETY: as above.
                                usize::from(
                                    unsafe { seg.try_enqueue(tid, offered[0], stash, run) }.is_ok(),
                                )
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
                    if seg.gate.word() & Gate::CLOSED == 0 || seg.inflight() != 0 {
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
