//! Ring segments and the segment cache of the unbounded queue.
//!
//! A [`Segment`] holds Figure 2's `aq` ring and data slots (with the
//! hand-off `WcqQueue` runs too, [`WcqRing::deposit_at`] and its
//! neighbours), an `fq` ring only while it needs one, and the bookkeeping
//! the outer linked list needs:
//!
//! * the outer `next` link, which is null, a successor, or [`shut`] (the
//!   queue's close: "closed for good, and no successor will come").  Either
//!   non-null value is also the segment's own close;
//! * a back-pointer to the owning queue's [`SegmentCache`] so the hazard
//!   domain can *recycle* a drained segment instead of freeing it;
//! * a claim counter of the slot indices not yet handed out in this life of
//!   the segment, and the `fq` pointer: null until an index first comes back
//!   ("Fresh indices from a counter", below).
//!
//! ## The link is the close
//!
//! LSCQ closes a ring on its own tail, so a late enqueue fails inside its
//! F&A.  wCQ's enqueue cannot be told to fail permanently, so a segment
//! closes one layer up, and the word that closes it is `next`:
//!
//! 1. **The free-index claim already answers "full", or early.**  A segment
//!    hands out each of its `capacity` indices once per life from its claim
//!    counter, and while it has no successor a handed-out index circulates
//!    only between `aq`, `fq` and the producers' [`Stash`]es (Figure 2, with
//!    free slots claimed in runs).  So a refill that gets ⊥ from `fq` and
//!    then from the counter saw no index free *outside the stashes* — or
//!    one returned between the two answers, which only makes the close
//!    early — read from words the enqueue has to touch anyway; no second
//!    semaphore is needed to refuse a full segment.  (Once the segment has a
//!    successor, dequeues keep the indices they free — see "Free slots in
//!    runs" — and a ⊥ there tells a producer admitted before the link what
//!    the link tells every later one.)  A producer links on that ⊥ only with
//!    its own stash empty, even while other producers' stashes still hold
//!    some of the segment's indices.  Linking early is always safe: nothing
//!    is ever deposited through a stash without an admitted announcement
//!    (point 2), so the stashed indices are simply never used here again and
//!    are dropped when their holders move on.  It wastes at most
//!    `(max_threads − 1) × run` slots of the segment, one run per other
//!    producer.
//! 2. **`next` answers "closed".**  An enqueue announces the segment in its
//!    handle's hazard slot [`ANNOUNCE`] with a `SeqCst` store, then loads
//!    `next` (`SeqCst`).  A non-null `next` refuses it: it clears the slot
//!    and touches no ring.  A null one admits it: it pops or refills its
//!    stash, deposits, and clears the slot with a `Release` store.  A batch
//!    announces once for its whole run on the segment.
//! 3. **The dequeuer counts announcements.**  Before it trusts an empty
//!    segment whose `next` it has read non-null, a dequeuer counts the
//!    handles whose slot [`ANNOUNCE`] names the segment
//!    ([`wcq_reclaim::HazardDomain::count_publishing`]).  This is a Dekker
//!    pair: an admitted enqueue's store and load both precede the CAS that
//!    set `next` in the `SeqCst` total order, and the count's loads follow
//!    it, so the count sees the announcement — or the `Release` clear after
//!    the deposit, and with it the deposit.  The order comes from that
//!    store and load alone, not from a locked instruction near them
//!    (DESIGN.md, "The link is the close", has the argument in full).
//! 4. **The dequeuer's advance sequence is unchanged.**  A dequeuer may
//!    advance the outer head past a segment only after it observes, in
//!    order: a successor (so no announcement is admitted any more), no
//!    handle announcing the segment (every admitted enqueue has deposited),
//!    and one more empty inner dequeue.  At that point the segment is
//!    permanently empty.  A `next` of [`shut`] closes the segment the same
//!    way, so the same three observations — with `shut` in place of the
//!    successor — prove the queue closed and drained.
//!
//! A dequeue writes no announcement — it is the `aq` take and, after a
//! successful one, a load of `next` and maybe the `fq` return — so the
//! dequeuer writes no line the enqueuers own, and no enqueue writes a word
//! another enqueue writes outside the rings and the claim counter.
//!
//! ## Free slots in runs
//!
//! Figure 2 makes every enqueue fetch a free index with a full `fq` dequeue
//! (head F&A, consume `OR`, threshold check), though no caller observes the
//! order of free indices.  So a producer claims them in runs instead: one
//! refill puts up to `run` indices in its [`Stash`], and its next `run`
//! enqueues into the segment deposit at them with no further claim at all.
//! A stash belongs to one segment, the unbounded handle's memo, is refilled
//! only inside an admitted announcement (so a refused enqueue still touches
//! no ring and no counter), and goes back to `fq` before the handle's hazard
//! slot [`MEMO`] lets go of the segment — while `next` is null.  Once it is
//! not, the stash is dropped: its indices are dead for the rest of this life.
//!
//! A dequeue returns each freed index at once, and the tail F&A of those
//! returns is paid once per run too: the handle's first return on the
//! segment reserves `run` consecutive `fq` tail tickets with one F&A (the
//! same `run` as a stash's, kept in the segment's header), and it and the
//! next `run - 1` returns each deposit at the next ticket of that window
//! with Figure 3's `try_enq` ([`WcqRing::enqueue_windowed_at`]).  A window
//! holds tickets, not indices: every freed index is in `fq` the moment its
//! dequeue returns, so a drain strands nothing in the tail, and the windows
//! leave at most `max_threads × (run - 1)` tickets unfilled, a quarter of
//! `fq`'s slack at most.  A claim whose batch dequeue passes a ticket the
//! receiver has not filled yet burns it; the receiver's fill there fails,
//! its index goes the standard enqueue way (patience, slow path, helping)
//! and the window is dropped.  The window belongs to the memo, like the
//! stash, and is dropped when the stash goes back; its unfilled tickets are
//! then abandoned, as a failed attempt's are.  Overruns stay rare because a
//! claim that comes back short takes the rest from the claim counter (next
//! section): each one deepens `fq`'s pool, until claims stop reaching the
//! windows.
//!
//! Returns happen only while the segment's `next` is null.  Once it is not,
//! the segment is closed for good (point
//! 2): no announcement is admitted there again, and only a producer admitted
//! before the link can still ask for an index.  So a dequeue there keeps the
//! index it freed and skips a whole `fq` enqueue (tail F&A, entry CAS,
//! threshold re-arm, helping countdown); such a straggler may then get ⊥
//! sooner and move on to the successor.  `next` is read only after a
//! successful `aq` take, so a take that finds the segment empty reads no
//! `next` of its own.  An empty poll is the take's first step, inlined by the
//! handle in front of its own load of `next`: the count and the threshold
//! load ([`Segment::dequeue_finds_empty`]).  Everything after it is out of
//! line, in `UnboundedWcqHandle`'s rest of the dequeue.
//!
//! ## Fresh indices from a counter
//!
//! Figure 2 starts `fq` with all `capacity` indices in it.  A segment starts
//! with **no `fq` at all**, and the indices no one has used yet in this life
//! come from a claim counter beside `next`: a refill asks `fq` first and,
//! only when `fq` answers ⊥, takes the next run with one `fetch_add` on the
//! counter; an `fq` batch that comes back short takes the rest from the
//! counter too, while the counter has any.  An absent `fq` answers ⊥ the
//! way an empty one would: the claim
//! counts one ring dequeue, touches no ring, and goes on to the counter.  ⊥
//! from both is "full" (point 1).  The fresh-segment preload takes index 0
//! from the counter too, with a plain load and store: the segment is
//! unpublished.
//!
//! The first index handed back in a life installs the `fq` with one CAS on
//! the segment's `fq` pointer ([`Segment::free_ring`]): a dequeue's return
//! while `next` is null, or a stash given back to a segment whose `next` is
//! null.  The ring installed is the [`SegmentCache`]'s one spare if it holds
//! one, and a new allocation otherwise; an installer that loses the CAS
//! parks its ring as the spare (or frees it) and uses the winner's.  So a
//! segment that fills before any of its indices come back — every segment of
//! a backlog but the last — never holds an `fq`, and the open tail in steady
//! state is served by its `fq` after its first run, as in Figure 2.  A
//! preload taken back from a segment that lost the append race keeps its
//! index: that segment was never published, and goes to the cache as it
//! came.
//!
//! The recycler takes a retired segment's `fq` away: it clears the ring in
//! place ([`WcqRing::clear`], plain stores; only the threshold of a ring that
//! took no ticket) and parks it as the spare, or frees it if the spare slot
//! is taken.  A segment therefore reaches the cache with no `fq` and its
//! counter spent, and [`SegmentCache::take`] starts its next life by
//! resetting only the counter, with a plain store ([`Segment::renew`]).  The
//! spare a retiring segment leaves is the one the next open tail installs,
//! so steady-state churn allocates no ring.  The reset also makes a lost
//! stash harmless to the reused segment.
//!
//! ## Whose thread records
//!
//! A segment's operations take the caller's `tid` and claim no record slot
//! of the inner rings.  The unbounded queue passes its hazard-domain
//! participant id, which is already exclusive to one handle, and the domain's
//! release/acquire of that id orders each owner of a record after the
//! previous one — the hand-off Figure 4's owner-private cursor needs.  An
//! unpublished segment (the fresh-segment preload, `abandon_fresh`) has a
//! single user.  An `fq` ring keeps its records when it moves to another
//! segment as the spare: the records are keyed by the same participant ids
//! there, and the recycler, which owns the retired segment alone, orders
//! the ring's last users before the CASes that park and install it.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::ptr;
use std::sync::atomic::{
    AtomicPtr, AtomicU32, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::Arc;

use wcq_core::metrics::{Counter, CounterSet};
use wcq_core::wcq::{new_slots, CellFamily, WcqConfig, WcqRing, BATCH};
use wcq_reclaim::HazardHandle;

use crate::queue::DEFAULT_SEGMENT_CACHE;

/// The hazard slot in which an unbounded handle pins its memo, the one
/// segment it may dereference (`UnboundedWcqHandle::pin`).
pub(crate) const MEMO: usize = 0;

/// The hazard slot in which an enqueue announces the segment it works in
/// (module docs, point 2).  It protects nothing the memo does not.
pub(crate) const ANNOUNCE: usize = 1;

/// The `next` of the last segment of a closed queue: no append can link
/// after it.  Never dereferenced, and never a segment's address (it is the
/// type's alignment, which no allocation returns).
pub(crate) fn shut<T, F: CellFamily>() -> *mut Segment<T, F> {
    ptr::dangling_mut()
}

/// One ring segment of the unbounded queue.
pub(crate) struct Segment<T, F: CellFamily> {
    /// Figure 2's `aq`: the indices of `slots` that hold values, in order.
    aq: WcqRing<F>,
    /// The data slots, handed off through `aq`.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Figure 2's `fq`, or null: installed by the first index handed back
    /// in this life, taken away by the recycler (module docs, "Fresh
    /// indices from a counter").  Once installed it stays until then.
    fq: AtomicPtr<WcqRing<F>>,
    /// Outer list link and the segment's close: null, a successor, or
    /// [`shut`] (module docs).  Readers go through [`Segment::successor`],
    /// which treats `shut` as "none".
    pub(crate) next: AtomicPtr<Segment<T, F>>,
    /// The owning queue's cache, for hazard-domain recycling.
    pub(crate) cache: *const SegmentCache<T, F>,
    /// The claim counter: the first index not yet handed out in this life.
    /// Indices `fresh..capacity` are in no ring and no stash; a value at or
    /// past `capacity` means every index has been handed out (module docs,
    /// "Fresh indices from a counter").
    fresh: AtomicU32,
    /// The `fq` tail tickets a receiver's window reserves at a time: the
    /// queue's [`Stash::run`], kept beside `fresh` (in its padding) so a
    /// return reads it only after its take.
    run: u32,
}

impl<T, F: CellFamily> Segment<T, F> {
    pub(crate) fn new(
        order: u32,
        max_threads: usize,
        config: WcqConfig,
        cache: *const SegmentCache<T, F>,
        counters: Option<Arc<CounterSet>>,
    ) -> Self {
        let aq = WcqRing::with_config_counters(order, max_threads, config, counters);
        let slots = new_slots(aq.capacity() as usize);
        let run = Stash::run(slots.len(), max_threads) as u32;
        Self {
            aq,
            slots,
            fq: AtomicPtr::new(ptr::null_mut()),
            next: AtomicPtr::new(ptr::null_mut()),
            cache,
            fresh: AtomicU32::new(0),
            run,
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

    /// Announces this segment in `hp`'s slot [`ANNOUNCE`], then reads `next`
    /// (module docs, point 2).  `true` admits the caller, who clears the
    /// slot with [`Segment::retract`] once its deposits are done; `false`
    /// has cleared it already: the segment is closed.
    #[inline(always)]
    fn announce(&self, hp: &HazardHandle<'_>) -> bool {
        let this = ptr::from_ref(self).cast_mut();
        #[cfg(not(feature = "check-mutations"))]
        let open = {
            hp.protect_raw(ANNOUNCE, this);
            wcq_atomics::yield_point("segment.announce");
            self.next.load(SeqCst).is_null()
        };
        #[cfg(feature = "check-mutations")]
        let open = {
            // MUTATION (check-mutations): reads `next` before publishing
            // the announcement, so a link and a dequeuer's count can both
            // fall between the two: the dequeuer counts nobody while this
            // enqueue, admitted on a stale null, goes on to deposit.
            let open = self.next.load(SeqCst).is_null();
            wcq_atomics::yield_point("segment.announce");
            hp.protect_raw(ANNOUNCE, this);
            open
        };
        if !open {
            Self::retract(hp);
        }
        open
    }

    /// Clears the announcement [`Segment::announce`] made: a `Release`
    /// store, so a dequeuer that counts the slot clear sees the deposits.
    #[inline(always)]
    fn retract(hp: &HazardHandle<'_>) {
        hp.clear_release(ANNOUNCE);
    }

    /// Attempts to enqueue `value` as `hp`'s participant, at a free index
    /// from `stash`, which is refilled with up to `run` indices when it is
    /// empty ([`Segment::claim`]).  `Err` means the segment is closed, or has no free
    /// index outside the stashes, and will never accept this value.
    ///
    /// # Safety
    /// `hp.tid()` is exclusive to the caller on this segment's rings
    /// ([tid-keyed operations](WcqRing#tid-keyed-operations)).  `stash`
    /// holds only this segment's indices, and `run` is at most
    /// [`Stash::MAX`].  `hp` protects this segment in slot [`MEMO`] for the
    /// whole call.
    #[inline]
    pub(crate) unsafe fn try_enqueue(
        &self,
        hp: &HazardHandle<'_>,
        value: T,
        stash: &mut Stash,
        run: usize,
    ) -> Result<(), T> {
        if !self.announce(hp) {
            return Err(value);
        }
        // SAFETY: per the function contract, admitted by the announcement.
        let res = unsafe { self.enqueue_admitted(hp.tid(), value, stash, run) };
        Self::retract(hp);
        res
    }

    /// Batch counterpart of [`Segment::try_enqueue`]: one announcement covers
    /// the whole batch, and the number accepted (drained from the front of
    /// `values`) is returned.  Returning `0` means the segment is full or
    /// closed and will never accept anything.
    ///
    /// The batch claims runs of up to [`BATCH`] indices the way a refill
    /// does (`fq`, then the claim counter), each run deposited with one `aq`
    /// batch enqueue, until both answer ⊥.  An `fq` claim can come back
    /// short under contention (holes in its run of tickets), but its `0` is
    /// authoritative, so the batch goes on while a claim gets anything.  The
    /// remainder then goes through the stash one element at a time, so
    /// stashed indices are used before the segment is called full.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`].
    pub(crate) unsafe fn try_enqueue_many(
        &self,
        hp: &HazardHandle<'_>,
        values: &mut VecDeque<T>,
        stash: &mut Stash,
        run: usize,
    ) -> usize {
        if values.is_empty() || !self.announce(hp) {
            return 0;
        }
        let tid = hp.tid();
        let mut free = [0u32; BATCH];
        let mut accepted = 0;
        while !values.is_empty() {
            let want = values.len().min(BATCH);
            // SAFETY: per the function contract.
            let claimed = unsafe { self.claim(tid, &mut free[..want]) };
            if claimed == 0 {
                break;
            }
            // SAFETY: as above; the claim made the run ours alone, and
            // `values` holds `want >= claimed` values.
            unsafe {
                self.aq
                    .deposit_many_at(&self.slots, tid, &free[..claimed], values)
            };
            accepted += claimed;
        }
        while let Some(value) = values.pop_front() {
            // SAFETY: per the function contract, admitted by the
            // announcement.
            match unsafe { self.enqueue_admitted(tid, value, stash, run) } {
                Ok(()) => accepted += 1,
                Err(value) => {
                    values.push_front(value);
                    break;
                }
            }
        }
        Self::retract(hp);
        accepted
    }

    /// The inner enqueue of an admitted announcement: a deposit at a stashed
    /// index, refilling the stash first when it is empty.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`], and the caller's announcement of
    /// this segment was admitted and is still published.
    #[inline(always)]
    unsafe fn enqueue_admitted(
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
        unsafe { self.aq.deposit_at(&self.slots, tid, index, value) };
        Ok(())
    }

    /// Claims a run of up to `run` free indices into the empty `stash`
    /// ([`Segment::claim`]), and pops one.  Once per run, so out of line.
    /// `None` is ⊥ from both `fq` and the claim counter.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`], with `tid` the caller's participant
    /// id.
    #[cold]
    #[inline(never)]
    unsafe fn refill(&self, tid: usize, stash: &mut Stash, run: usize) -> Option<u32> {
        // SAFETY: per the function contract.
        stash.len = unsafe { self.claim(tid, &mut stash.free[..run]) } as u32;
        stash.pop()
    }

    /// Claims up to `free.len()` free indices into the front of `free` and
    /// returns how many: from `fq` with one batch dequeue or, when `fq`
    /// answers ⊥ or is absent, from the claim counter with one `fetch_add`
    /// (module docs, "Fresh indices from a counter").  `0` is ⊥ from both.
    /// A batch that comes back short takes the rest from the counter while
    /// it has any left: the indices it adds deepen `fq`'s pool, so later
    /// claims stop reaching the `fq` tickets receivers reserved and have
    /// not filled yet (module docs, "Free slots in runs").
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`], with `tid` the caller's participant
    /// id; and the caller's announcement of this segment was admitted and is
    /// still published.
    #[inline(always)]
    unsafe fn claim(&self, tid: usize, free: &mut [u32]) -> usize {
        let fq = self.fq.load(SeqCst);
        let mut claimed = if fq.is_null() {
            // ⊥ as an empty `fq` answers it: one ring dequeue, counted.
            if let Some(set) = self.aq.counter_set() {
                set.add(Counter::RingDequeues, 1);
            }
            0
        } else {
            let mut n = 0;
            // SAFETY: an installed `fq` stays until the recycler, which the
            // caller's pin of the segment keeps away; `tid` is exclusive per
            // the function contract.
            unsafe {
                (*fq).dequeue_many_at(tid, free.len(), |index| {
                    free[n] = index as u32;
                    n += 1;
                })
            }
        };
        // A short batch reads the counter before it moves it, so a spent
        // counter is moved again only on ⊥ from `fq` (`claim_fresh`).
        if claimed == 0
            || (claimed < free.len() && self.fresh.load(SeqCst) < self.slots.len() as u32)
        {
            claimed += self.claim_fresh(&mut free[claimed..]);
        }
        claimed
    }

    /// Takes the next run of up to `free.len()` never-used indices from the
    /// claim counter, ascending into the front of `free`, and returns how
    /// many; `0` once all `capacity` are out.  A claim past `capacity` is a
    /// refusal, after which its producer links a successor or finds one
    /// linked, and a short `fq` batch tops up here only while the counter
    /// is below `capacity`, so the counter passes `capacity` by at most
    /// three runs (a top-up, a batch and its stash refill) per producer per
    /// life, and never wraps.
    fn claim_fresh(&self, free: &mut [u32]) -> usize {
        let capacity = self.slots.len() as u32;
        wcq_atomics::yield_point("segment.claim");
        let first = self.fresh.fetch_add(free.len() as u32, SeqCst);
        let end = capacity.min(first.saturating_add(free.len() as u32));
        let claimed = end.saturating_sub(first) as usize;
        for (slot, index) in free.iter_mut().zip(first..end) {
            *slot = index;
        }
        claimed
    }

    /// Empties `stash`, handing its indices back to `fq` while `next` is
    /// null; once the segment is linked they are dead for this life (module
    /// docs, "Free slots in runs").
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`], with `tid` the caller's participant
    /// id.
    pub(crate) unsafe fn return_stash(&self, tid: usize, stash: &mut Stash) {
        let len = std::mem::take(&mut stash.len) as usize;
        if len > 0 && self.next.load(SeqCst).is_null() {
            // SAFETY: the indices are this segment's, claimed and not
            // deposited at (function contract).
            unsafe { self.free_ring().enqueue_many_at(tid, &stash.free[..len]) };
        }
    }

    /// Enqueues the first value of an unpublished segment (the fresh-segment
    /// preload).  One index, the claim counter's first, taken alone: nothing
    /// is left stashed.
    ///
    /// # Safety
    /// The segment is unpublished and owned by the caller, and new or reset
    /// by [`SegmentCache::take`].
    pub(crate) unsafe fn preload(&self, tid: usize, value: T) {
        // relaxed: the segment is unpublished, so the caller is its only
        // user, and the `SeqCst` CAS that links it orders this load and store
        // before any other thread's claim.
        let index = self.fresh.load(Relaxed);
        assert!(
            (index as usize) < self.slots.len(),
            "a fresh segment must accept its first element"
        );
        // relaxed: see above.
        self.fresh.store(index + 1, Relaxed);
        // SAFETY: an unpublished segment has a single user under any `tid`,
        // and the counter handed the index out to us alone.
        unsafe { self.aq.deposit_at(&self.slots, tid, index, value) };
    }

    /// Takes the preloaded value back out of an unpublished segment that lost
    /// the append race.  Its index is kept, not handed back: the segment
    /// goes to the cache, whose renewal hands it out afresh, and installs no
    /// `fq` on the way.
    ///
    /// # Safety
    /// As for [`Segment::preload`], which this segment has run.
    pub(crate) unsafe fn take_back(&self, tid: usize) -> Option<T> {
        if self.dequeue_finds_empty() {
            return None;
        }
        // SAFETY: a single user under any `tid` (function contract).
        unsafe { self.aq.take_checked_at(&self.slots, tid) }.map(|(value, _)| value)
    }

    /// Attempts to dequeue as thread record `tid`; `None` means the inner
    /// ring was observed empty.
    ///
    /// The freed index goes back to `fq` only while `next` is null (module
    /// docs, "Free slots in runs"), at the next ticket of `window`, which
    /// reserves the next run of tickets when it is empty
    /// ([`WcqRing::enqueue_windowed_at`]).  `next` is read after the `aq`
    /// take succeeded, so the take reads no `next` of its own when it finds
    /// the segment empty: [`Segment::dequeue_finds_empty`], its first step,
    /// is the count and the threshold load, and the outer handle inlines
    /// only that step and reads `next` itself.
    ///
    /// # Safety
    /// As for [`Segment::try_enqueue`], with `tid` the caller's participant
    /// id; and `window` is empty or holds tickets of this segment's `fq`
    /// that only this caller's returns reserved, in the segment's current
    /// life.
    #[inline]
    pub(crate) unsafe fn try_dequeue(&self, tid: usize, window: &mut Range<u64>) -> Option<T> {
        if self.dequeue_finds_empty() {
            return None;
        }
        // SAFETY: per the function contract.
        unsafe { self.try_dequeue_checked(tid, window) }
    }

    /// The first step of [`Segment::try_dequeue`]: counts one ring dequeue
    /// and reads `aq`'s threshold ([`WcqRing::dequeue_finds_empty`]).
    /// `true` is the take's whole answer, `None`.
    #[inline(always)]
    pub(crate) fn dequeue_finds_empty(&self) -> bool {
        self.aq.dequeue_finds_empty()
    }

    /// [`Segment::try_dequeue`] after [`Segment::dequeue_finds_empty`]
    /// answered `false`.
    ///
    /// # Safety
    /// As for [`Segment::try_dequeue`].
    #[inline(always)]
    pub(crate) unsafe fn try_dequeue_checked(
        &self,
        tid: usize,
        window: &mut Range<u64>,
    ) -> Option<T> {
        // SAFETY: `tid` is exclusive per the function contract.
        let (value, index) = unsafe { self.aq.take_checked_at(&self.slots, tid) }?;
        if self.next.load(SeqCst).is_null() {
            let fq = self.fq.load(SeqCst);
            if fq.is_null() {
                // SAFETY: as above; the index was just taken.
                unsafe { self.install_and_return(tid, index, window) };
            } else {
                // SAFETY: as above, and `fq` is installed (`free_ring`).
                unsafe { self.return_index(&*fq, tid, index, window) };
            }
        }
        Some(value)
    }

    /// [`Segment::try_dequeue_checked`]'s return when the segment has no
    /// `fq` yet: the install and the return together, out of line, so the
    /// take keeps no register across the install's call.
    ///
    /// # Safety
    /// As for [`Segment::return_index`].
    #[cold]
    #[inline(never)]
    unsafe fn install_and_return(&self, tid: usize, index: u32, window: &mut Range<u64>) {
        // SAFETY: per the function contract.
        unsafe { self.return_index(self.install_fq(), tid, index, window) };
    }

    /// Hands the freed `index` back to `fq` at the next ticket of `window`.
    ///
    /// # Safety
    /// `fq` is this segment's installed `fq`, `tid` and `window` as for
    /// [`Segment::try_dequeue`], and `index` was just taken from `aq`.
    #[inline(always)]
    unsafe fn return_index(
        &self,
        fq: &WcqRing<F>,
        tid: usize,
        index: u32,
        window: &mut Range<u64>,
    ) {
        // SAFETY: per the function contract.  The windows of all
        // participants leave at most `max_threads × (run − 1)` tickets
        // unfilled: a quarter of the ring's `n` slots of slack at most
        // ([`Stash::run`]).
        unsafe { fq.enqueue_windowed_at(tid, index, window, self.run.into()) };
    }

    /// Batch counterpart of [`Segment::try_dequeue`]: pulls up to `max`
    /// values in runs of up to [`BATCH`] ([`WcqRing::take_many_at`]), and
    /// returns each run's indices with one batch enqueue under the same
    /// rule.
    ///
    /// # Safety
    /// As for [`Segment::try_dequeue`].
    pub(crate) unsafe fn try_dequeue_many(
        &self,
        tid: usize,
        out: &mut Vec<T>,
        max: usize,
    ) -> usize {
        let give_back = |free: &[u32]| {
            if !free.is_empty() && self.next.load(SeqCst).is_null() {
                // SAFETY: `tid` is exclusive per the function contract, and
                // `free` holds indices just taken.
                unsafe { self.free_ring().enqueue_many_at(tid, free) };
            }
        };
        // SAFETY: `tid` is exclusive per the function contract.
        unsafe { self.aq.take_many_at(&self.slots, tid, out, max, give_back) }
    }

    /// The segment's `fq`, installed first if it is absent.  The load is
    /// inline; the install, once per life at most, is not.
    #[inline(always)]
    fn free_ring(&self) -> &WcqRing<F> {
        let fq = self.fq.load(SeqCst);
        if fq.is_null() {
            return self.install_fq();
        }
        // SAFETY: an installed `fq` stays until the recycler, which owns the
        // segment alone when it takes it.
        unsafe { &*fq }
    }

    /// Installs an `fq` with one CAS on the null pointer: the cache's spare
    /// ring, or a new one shaped like `aq` (module docs, "Fresh indices from
    /// a counter").  A loser parks its ring and uses the winner's.
    #[cold]
    #[inline(never)]
    fn install_fq(&self) -> &WcqRing<F> {
        // SAFETY: the cache outlives every segment of its queue (field order
        // in `UnboundedWcq`).
        let cache = unsafe { &*self.cache };
        let ring = Box::into_raw(cache.take_ring(&self.aq));
        match self
            .fq
            .compare_exchange(ptr::null_mut(), ring, SeqCst, SeqCst)
        {
            // SAFETY: installed; it stays until the recycler (`free_ring`).
            Ok(_) => unsafe { &*ring },
            Err(installed) => {
                // SAFETY: the ring lost the CAS, so nobody else has seen it:
                // still ours, and as clear as the cache or the allocator
                // handed it out.
                cache.park_ring(unsafe { Box::from_raw(ring) });
                // SAFETY: as in `free_ring`.
                unsafe { &*installed }
            }
        }
    }

    /// Resets the outer bookkeeping of a drained, unreachable segment so it
    /// can serve as a fresh tail, and hands back its `fq`, if it got one:
    /// the caller clears and parks it.  `aq` needs no reset: a drained wCQ is
    /// simply an empty wCQ whose cycle counters have advanced.  The claim
    /// counter is reset when the cache hands the segment out
    /// ([`Segment::renew`]).
    pub(crate) fn reopen(&mut self) -> Option<Box<WcqRing<F>>> {
        *self.next.get_mut() = ptr::null_mut();
        let fq = std::mem::replace(self.fq.get_mut(), ptr::null_mut());
        // SAFETY: an installed `fq` came from `Box::into_raw` (`install_fq`),
        // and `&mut self` makes it ours alone.
        (!fq.is_null()).then(|| unsafe { Box::from_raw(fq) })
    }

    /// Starts the segment's next life: every index fresh again, the claim
    /// counter at 0 with a plain store (module docs, "Fresh indices from a
    /// counter").  Indices that dequeues kept, or that stashes dropped, are
    /// handed out afresh.
    ///
    /// # Safety
    /// `aq` holds no index and no stash holds one of this segment's: each
    /// index the counter hands out again must be free.
    pub(crate) unsafe fn renew(&mut self) {
        *self.fresh.get_mut() = 0;
    }

    /// Whether an `fq` is installed.
    #[cfg(test)]
    pub(crate) fn has_fq(&self) -> bool {
        !self.fq.load(SeqCst).is_null()
    }

    /// `aq`'s threshold: negative once an empty take answers from it alone.
    #[cfg(test)]
    pub(crate) fn aq_threshold(&self) -> i64 {
        self.aq.threshold()
    }

    /// Bytes occupied by this segment without an `fq`: the struct, `aq`'s
    /// entries and records, and the data slots.  An installed `fq` adds
    /// [`Segment::fq_footprint`].
    pub(crate) fn footprint(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<WcqRing<F>>()
            + self.aq.memory_footprint()
            + std::mem::size_of_val(&*self.slots)
    }

    /// Bytes an `fq` ring occupies, header included: `aq`'s, the same shape.
    pub(crate) fn fq_footprint(&self) -> usize {
        self.aq.memory_footprint()
    }
}

impl<T, F: CellFamily> Drop for Segment<T, F> {
    fn drop(&mut self) {
        self.aq.drop_published(&mut self.slots);
        // A segment dropped with its `fq` is one the queue's own drop frees.
        drop(self.reopen());
    }
}

/// Free slot indices a producer claimed from one segment — from its `fq` or
/// its claim counter — and has not deposited at yet (module docs, "Free
/// slots in runs"): inline, no heap of its own.
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

/// A bounded free-list of drained segments, and one spare `fq` ring.
///
/// Steady-state traffic that repeatedly grows and shrinks by a few segments
/// allocates nothing: retired segments come back through
/// [`recycle_segment`] and are reused by the next append, renewed on the way
/// out ([`SegmentCache::take`]), and the `fq` a retired segment held waits in
/// the spare slot for the next install.  The store is an inline array of
/// [`DEFAULT_SEGMENT_CACHE`] `AtomicPtr` slots (null = empty), so a
/// steady-state `give_back` never allocates: `take` swaps slots to null,
/// `give_back` CASes null to the segment pointer.  Each segment lives
/// in at most one slot and every insertion/removal is one successful atomic
/// exchange on that slot, so there is no ABA hazard to protect against —
/// unlike a Treiber stack — and no lock, which keeps the (blocking-freedom)
/// lint's `Mutex` ban satisfiable for the whole crate.  The spare slot works
/// the same way.
pub(crate) struct SegmentCache<T, F: CellFamily> {
    slots: [AtomicPtr<Segment<T, F>>; DEFAULT_SEGMENT_CACHE],
    /// A cleared `fq` ring, or null.
    spare: AtomicPtr<WcqRing<F>>,
    /// `fq` rings allocated and not freed yet: installed, spare, or in an
    /// installer's hands (the queue's memory footprint counts them).
    rings: AtomicUsize,
}

// SAFETY: the raw pointers are exclusively owned by the cache while stored
// (a segment or ring enters a slot through exactly one successful CAS and
// leaves it through exactly one successful swap); all slot mutation is
// atomic.
unsafe impl<T: Send, F: CellFamily> Send for SegmentCache<T, F> {}
unsafe impl<T: Send, F: CellFamily> Sync for SegmentCache<T, F> {}

impl<T, F: CellFamily> SegmentCache<T, F> {
    pub(crate) fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            spare: AtomicPtr::new(ptr::null_mut()),
            rings: AtomicUsize::new(0),
        }
    }

    /// Takes a reopened segment from the cache, if any.  The caller records
    /// the hit or miss; [`Counter::SegmentsReused`] is recorded only once the
    /// taken segment's append wins the link race, since a lost race hands
    /// the segment straight back.
    ///
    /// The taken segment starts its next life ([`Segment::renew`]): its
    /// claim counter hands out every index afresh.  It has no `fq`:
    /// `give_back` took it away.  The reset is here, not in `give_back`, so
    /// a segment that is only ever freed (one the hazard domain's drop hands
    /// back) never pays it.
    pub(crate) fn take(&self) -> Option<*mut Segment<T, F>> {
        for slot in self.slots.iter() {
            let seg = slot.swap(ptr::null_mut(), SeqCst);
            if !seg.is_null() {
                // SAFETY: the swap made the segment exclusively ours.  A
                // cached segment was drained before it retired (or, fresh and
                // abandoned, gave its one value back), so `aq` holds no
                // index, and every stash of it was emptied before its
                // holder's hazard slot let go.
                unsafe { (*seg).renew() };
                return Some(seg);
            }
        }
        None
    }

    /// Accepts an exclusively owned, unreachable segment back (or frees it
    /// when the cache is at its limit).  Either way its `fq`, if it got one,
    /// is cleared and parked first ([`SegmentCache::park_ring`]).
    ///
    /// # Safety
    /// `cache` must be live and `seg` exclusively owned by the caller.
    pub(crate) unsafe fn give_back(cache: *const Self, seg: *mut Segment<T, F>) {
        // SAFETY: per the function contract.
        let this = unsafe { &*cache };
        // SAFETY: exclusive ownership allows the reset.
        if let Some(mut fq) = unsafe { (*seg).reopen() } {
            fq.clear();
            this.park_ring(fq);
        }
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

    /// An empty `fq` ring for a segment whose `aq` is `aq`: the spare, or a
    /// new ring of the same shape.
    pub(crate) fn take_ring(&self, aq: &WcqRing<F>) -> Box<WcqRing<F>> {
        let spare = self.spare.swap(ptr::null_mut(), SeqCst);
        if !spare.is_null() {
            // SAFETY: the swap made the parked ring exclusively ours, and
            // it came from `Box::into_raw` (`park_ring`).
            return unsafe { Box::from_raw(spare) };
        }
        self.rings.fetch_add(1, SeqCst);
        Box::new(WcqRing::with_config_counters(
            aq.layout().order(),
            aq.max_threads(),
            *aq.config(),
            aq.counter_set().cloned(),
        ))
    }

    /// Parks an empty, exclusively owned `fq` ring as the spare, or frees it
    /// when the spare slot is taken.
    pub(crate) fn park_ring(&self, ring: Box<WcqRing<F>>) {
        let ring = Box::into_raw(ring);
        if self
            .spare
            .compare_exchange(ptr::null_mut(), ring, SeqCst, SeqCst)
            .is_err()
        {
            self.rings.fetch_sub(1, SeqCst);
            // SAFETY: the CAS failed, so the ring is still ours; it came
            // from `Box::into_raw` just above.
            drop(unsafe { Box::from_raw(ring) });
        }
    }

    /// Number of cached segments (racy snapshot; statistics and tests only).
    pub(crate) fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| !slot.load(SeqCst).is_null())
            .count()
    }

    /// Number of `fq` rings allocated and not freed (racy snapshot).
    pub(crate) fn rings(&self) -> usize {
        self.rings.load(SeqCst)
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
        let spare = *self.spare.get_mut();
        if !spare.is_null() {
            // SAFETY: the parked ring is exclusively owned by the cache.
            drop(unsafe { Box::from_raw(spare) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use wcq_core::wcq::{LlscFamily, NativeFamily};
    use wcq_reclaim::HazardDomain;

    /// A segment whose `fq` installs come from `cache`, which must outlive
    /// it (declare the cache first).
    fn segment<F: CellFamily>(
        cache: &SegmentCache<u64, F>,
        order: u32,
        threads: usize,
    ) -> Segment<u64, F> {
        Segment::new(order, threads, WcqConfig::default(), cache, None)
    }

    /// Reopens `seg` as the recycler does: its `fq`, if any, cleared and
    /// parked in its cache.
    fn reopen<F: CellFamily>(seg: &mut Segment<u64, F>) {
        if let Some(mut fq) = seg.reopen() {
            fq.clear();
            // SAFETY: the test's cache outlives the segment (`segment`).
            unsafe { (*seg.cache).park_ring(fq) };
        }
    }

    /// A hazard domain shaped like the queue's: `threads` participants, with
    /// the announcement slot.
    fn domain(threads: usize) -> HazardDomain {
        HazardDomain::new(threads, ANNOUNCE + 1)
    }

    /// Head, tail and threshold of `aq` and `fq`, as the rings' `Debug`
    /// prints them, then the claim counter.
    fn rings<F: CellFamily>(seg: &Segment<u64, F>) -> String {
        format!("aq: {:?} fq: {:?} fresh: {}", seg.aq, fq(seg), fresh(seg))
    }

    /// The claim counter.
    fn fresh<F: CellFamily>(seg: &Segment<u64, F>) -> u32 {
        seg.fresh.load(SeqCst)
    }

    /// Links `next` after `seg` the way an append or a close does: from then
    /// on the segment admits no announcement.
    fn link<F: CellFamily>(seg: &Segment<u64, F>, next: *mut Segment<u64, F>) {
        assert!(seg
            .next
            .compare_exchange(ptr::null_mut(), next, SeqCst, SeqCst)
            .is_ok());
    }

    /// Fills `seg` to exactly its capacity and sees the next value refused
    /// (nothing linked the segment), three times: fresh, from the claim
    /// counter; again in the same life, from the `fq` the first round's
    /// returns installed; and after the recycler's and the cache's resets,
    /// fresh again.  Every enqueue, accepted or refused, leaves the
    /// announcement slot clear.
    fn takes_exactly_capacity<F: CellFamily>(seg: &mut Segment<u64, F>) {
        let cap = seg.slots.len() as u64;
        let (stash, run) = (&mut Stash::new(), Stash::MAX.min(cap as usize));
        let window = &mut (0..0);
        let domain = domain(1);
        let hp = domain.register().unwrap();
        for round in 0..3 {
            // SAFETY: one thread, the only user of `hp`'s id; the stash is
            // this segment's.
            unsafe {
                for v in 0..cap {
                    assert_eq!(
                        seg.try_enqueue(&hp, v, stash, run),
                        Ok(()),
                        "round {round}: {v} of {cap}"
                    );
                    assert!(hp.protected(ANNOUNCE).is_null());
                }
                assert_eq!(
                    seg.try_enqueue(&hp, cap, stash, run),
                    Err(cap),
                    "round {round}: one past full"
                );
                assert!(hp.protected(ANNOUNCE).is_null());
                for v in 0..cap {
                    assert_eq!(seg.try_dequeue(hp.tid(), window), Some(v));
                }
                assert_eq!(seg.try_dequeue(hp.tid(), window), None);
            }
            assert_eq!(stash.len(), 0, "round {round}: every claimed index used");
            assert!(seg.has_fq(), "round {round}: the returns installed an `fq`");
            if round == 1 {
                link(seg, shut());
                reopen(seg);
                // SAFETY: drained, and the stash is empty.
                unsafe { seg.renew() };
                // The window's tickets belong to the `fq` the reopen took.
                *window = 0..0;
            }
        }
    }

    /// `fq`'s head, tail and threshold, as the ring's `Debug` prints them;
    /// `None` while the segment has no `fq`.
    fn fq<F: CellFamily>(seg: &Segment<u64, F>) -> Option<String> {
        let fq = seg.fq.load(SeqCst);
        // SAFETY: an installed `fq` lives as long as the segment's life.
        (!fq.is_null()).then(|| format!("{:?}", unsafe { &*fq }))
    }

    /// The preload deposits at the claim counter's first index and installs
    /// no `fq`; the first refill after it takes the next run from the
    /// counter, and so does a preload taken back.
    fn the_preload_takes_its_index_from_the_counter<F: CellFamily>() {
        let cache = SegmentCache::new();
        let seg = segment::<F>(&cache, 3, 1);
        let (stash, run) = (&mut Stash::new(), 2);
        let window = &mut (0..0);
        let domain = domain(1);
        let hp = domain.register().unwrap();
        // SAFETY: one thread, the only user of tid 0 and of the unpublished
        // segment; the stash is `seg`'s.
        unsafe {
            seg.preload(0, 7);
            assert_eq!(fresh(&seg), 1, "the preload took index 0");
            assert_eq!(fq(&seg), None, "the preload asked no ring for it");
            assert_eq!(seg.try_enqueue(&hp, 8, stash, run), Ok(()));
            assert_eq!(fresh(&seg), 3, "the refill took indices 1 and 2");
            assert_eq!(fq(&seg), None, "a claim on an absent `fq` installs none");
            assert_eq!(seg.try_dequeue(0, window), Some(7));
            assert_eq!(seg.try_dequeue(0, window), Some(8));
            assert!(fq(&seg).is_some(), "the first return installed an `fq`");

            let abandoned = segment::<F>(&cache, 3, 1);
            abandoned.preload(0, 9);
            assert_eq!(abandoned.take_back(0), Some(9));
            assert_eq!(fq(&abandoned), None, "a take-back keeps its index");
        }
        assert_eq!(cache.rings(), 1);
    }

    #[test]
    fn the_preload_takes_its_index_from_the_counter_native() {
        the_preload_takes_its_index_from_the_counter::<NativeFamily>();
    }

    #[test]
    fn the_preload_takes_its_index_from_the_counter_llsc() {
        the_preload_takes_its_index_from_the_counter::<LlscFamily>();
    }

    /// On an open tail whose dequeues return their indices, the claim
    /// counter serves the first run alone: every later refill is an `fq`
    /// claim of a whole run, so the stash holds `run - 1` right after each
    /// refill and the counter stays at `run`.
    fn the_counter_serves_only_the_first_run_of_a_returning_tail<F: CellFamily>() {
        let cache = SegmentCache::new();
        let seg = segment::<F>(&cache, 6, 1);
        let (stash, run) = (&mut Stash::new(), 4);
        let window = &mut (0..0);
        let domain = domain(1);
        let hp = domain.register().unwrap();
        // SAFETY: one thread, the only user of tid 0; the stash is `seg`'s.
        unsafe {
            for v in 0..10 * seg.slots.len() as u64 {
                assert_eq!(seg.try_enqueue(&hp, v, stash, run), Ok(()));
                assert_eq!(
                    stash.len(),
                    run - 1 - (v as usize % run),
                    "send {v}: each refill claims a whole run"
                );
                assert_eq!(fresh(&seg), run as u32, "send {v}");
                assert_eq!(seg.try_dequeue(0, window), Some(v));
            }
        }
    }

    #[test]
    fn the_counter_serves_only_the_first_run_of_a_returning_tail_native() {
        the_counter_serves_only_the_first_run_of_a_returning_tail::<NativeFamily>();
    }

    #[test]
    fn the_counter_serves_only_the_first_run_of_a_returning_tail_llsc() {
        the_counter_serves_only_the_first_run_of_a_returning_tail::<LlscFamily>();
    }

    /// Where a drained segment's leftover free indices went.
    #[derive(Clone, Copy, Debug)]
    enum Leftover {
        /// A producer's stash, given back after the link: dropped, so no
        /// `fq` is installed.
        Stash,
        /// A dequeue's return between the ⊥ that found the segment full and
        /// the link: into an `fq` it installed.
        Return,
    }

    /// A segment that reaches the cache with leftover indices — dropped
    /// with a stash, or in its `fq` — comes out of it taking exactly
    /// `capacity` values, each delivered once and in order: the cache took
    /// the `fq` away, cleared, as its spare, and the renewal resets the
    /// counter, so no index is handed out twice.
    fn a_reused_segment_with_leftovers_in_fq_takes_exactly_capacity<F: CellFamily>(
        leftover: Leftover,
    ) {
        let cache = SegmentCache::<u64, F>::new();
        let seg = Box::into_raw(Box::new(Segment::new(
            3,
            1,
            WcqConfig::default(),
            &cache,
            None,
        )));
        let successor = segment::<F>(&cache, 3, 1);
        let domain = domain(1);
        let hp = domain.register().unwrap();
        // SAFETY: one thread, the only user of tid 0 and of `seg`, which
        // came from `Box::into_raw` and is freed once, at the end.
        unsafe {
            let cap = (*seg).aq.capacity();
            let (stash, run) = (&mut Stash::new(), 4);
            let window = &mut (0..0);
            match leftover {
                Leftover::Stash => {
                    assert_eq!((*seg).try_enqueue(&hp, 0, stash, run), Ok(()));
                    link(&*seg, ptr::from_ref(&successor).cast_mut());
                    (*seg).return_stash(0, stash);
                    assert_eq!(stash.len(), 0);
                    assert_eq!((*seg).try_dequeue(0, window), Some(0));
                    assert_eq!(fq(&*seg), None, "{leftover:?}: no index came back");
                }
                Leftover::Return => {
                    for v in 0..cap {
                        assert_eq!((*seg).try_enqueue(&hp, v, stash, run), Ok(()));
                    }
                    assert_eq!((*seg).try_enqueue(&hp, cap, stash, run), Err(cap));
                    assert_eq!(
                        (*seg).try_dequeue(0, window),
                        Some(0),
                        "returned: no link yet"
                    );
                    link(&*seg, ptr::from_ref(&successor).cast_mut());
                    for v in 1..cap {
                        assert_eq!((*seg).try_dequeue(0, window), Some(v));
                    }
                    assert!(fq(&*seg).is_some(), "the return installed an `fq`");
                }
            }
            assert_eq!((*seg).try_dequeue(0, window), None);
            let rings = cache.rings();
            SegmentCache::give_back(&cache, seg);
            assert_eq!(fq(&*seg), None, "{leftover:?}: the cache took the `fq`");
            assert_eq!(cache.rings(), rings, "{leftover:?}: parked, not freed");
            let again = cache.take().expect("the segment just given back");
            assert_eq!(again, seg);
            assert_eq!(fresh(&*again), 0, "{leftover:?}: the counter was reset");
            takes_exactly_capacity(&mut *again);
            drop(Box::from_raw(again));
        }
    }

    #[test]
    fn a_reused_segment_with_leftovers_in_fq_takes_exactly_capacity_native() {
        for leftover in [Leftover::Stash, Leftover::Return] {
            a_reused_segment_with_leftovers_in_fq_takes_exactly_capacity::<NativeFamily>(leftover);
        }
    }

    #[test]
    fn a_reused_segment_with_leftovers_in_fq_takes_exactly_capacity_llsc() {
        for leftover in [Leftover::Stash, Leftover::Return] {
            a_reused_segment_with_leftovers_in_fq_takes_exactly_capacity::<LlscFamily>(leftover);
        }
    }

    /// A dequeue, single or batch, returns its index to `fq` on the open
    /// tail and keeps it once the segment has a successor; an empty poll
    /// moves no `fq` counter either way.
    fn a_dequeue_returns_its_index_only_without_a_successor<F: CellFamily>() {
        let cache = SegmentCache::new();
        let seg = segment::<F>(&cache, 3, 1);
        let successor = segment::<F>(&cache, 3, 1);
        let (stash, run, out) = (&mut Stash::new(), 2, &mut Vec::new());
        let window = &mut (0..0);
        let domain = domain(1);
        let hp = domain.register().unwrap();
        // SAFETY: one thread, the only user of tid 0; the stash is `seg`'s.
        unsafe {
            for v in 0..4 {
                assert_eq!(seg.try_enqueue(&hp, v, stash, run), Ok(()));
            }
            assert_eq!(fq(&seg), None, "no index came back yet");
            assert_eq!(seg.try_dequeue(0, window), Some(0));
            let after = fq(&seg);
            assert!(after.is_some(), "the open tail returns its index");
            assert_eq!(seg.try_dequeue_many(0, out, 1), 1);
            assert_ne!(fq(&seg), after, "the open tail returns the run");

            link(&seg, ptr::from_ref(&successor).cast_mut());
            let linked = fq(&seg);
            assert_eq!(seg.try_dequeue(0, window), Some(2));
            assert_eq!(seg.try_dequeue_many(0, out, 1), 1);
            assert_eq!(*out, [1, 3]);
            assert_eq!(seg.try_dequeue(0, window), None);
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
    /// no `fq`: no index came back; the one the cache hands out again takes
    /// exactly `capacity` values, fresh and after a reopen.
    fn a_reused_segment_takes_exactly_capacity<F: CellFamily>(order: u32) {
        let cache = SegmentCache::<u64, F>::new();
        let seg = Box::into_raw(Box::new(Segment::new(
            order,
            1,
            WcqConfig::default(),
            &cache,
            None,
        )));
        let successor = segment::<F>(&cache, order, 1);
        let domain = domain(1);
        let hp = domain.register().unwrap();
        // SAFETY: one thread, the only user of tid 0 and of `seg`, which
        // came from `Box::into_raw` and is freed once, at the end.
        unsafe {
            let cap = (*seg).aq.capacity();
            let (stash, run) = (&mut Stash::new(), Stash::MAX.min(cap as usize));
            let window = &mut (0..0);
            for v in 0..cap {
                assert_eq!((*seg).try_enqueue(&hp, v, stash, run), Ok(()));
            }
            assert_eq!((*seg).try_enqueue(&hp, cap, stash, run), Err(cap));
            link(&*seg, ptr::from_ref(&successor).cast_mut());
            for v in 0..cap {
                assert_eq!((*seg).try_dequeue(0, window), Some(v));
            }
            assert_eq!((*seg).try_dequeue(0, window), None);
            assert_eq!(fq(&*seg), None, "every return was skipped");
            assert_eq!(cache.rings(), 0, "no ring was ever allocated");
            SegmentCache::give_back(&cache, seg);
            let again = cache.take().expect("the segment just given back");
            assert_eq!(again, seg);
            takes_exactly_capacity(&mut *again);
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

    /// Fills `seg` as `hp`'s participant until it refuses, then drains it
    /// as the receiver `rx` with its `window`: returns how many values it
    /// took, and checks they come out in order.
    ///
    /// # Safety
    /// One thread; `stash` holds only `seg`'s indices and `window` only
    /// `rx`'s tickets of its `fq`.
    unsafe fn fill_and_drain<F: CellFamily>(
        seg: &Segment<u64, F>,
        hp: &HazardHandle<'_>,
        stash: &mut Stash,
        rx: usize,
        window: &mut Range<u64>,
    ) -> u64 {
        let mut took = 0;
        // SAFETY: per the function contract.
        while unsafe { seg.try_enqueue(hp, took, stash, 4) }.is_ok() {
            took += 1;
        }
        for v in 0..took {
            // SAFETY: as above.
            assert_eq!(unsafe { seg.try_dequeue(rx, window) }, Some(v));
        }
        took
    }

    /// A producer's claim that reaches past the filled part of a receiver's
    /// `fq` window burns the window's next tickets.  The receiver's next
    /// return then finds its ticket burned: it falls back to a whole `fq`
    /// enqueue and drops the window, and its next return reserves a fresh
    /// one past the fallback's ticket.  No index is lost or handed out
    /// twice: the segment then takes exactly `capacity` values, twice in
    /// the same life, and once more after the cache hands it out again.
    fn an_overrun_window_falls_back_and_loses_no_index<F: CellFamily>() {
        let cache = SegmentCache::<u64, F>::new();
        // 64 slots and 2 participants: windows of 8 tickets.
        let seg = Box::into_raw(Box::new(Segment::new(
            6,
            2,
            WcqConfig::default(),
            &cache,
            None,
        )));
        let domain = domain(2);
        let (tx, rx) = (domain.register().unwrap(), domain.register().unwrap());
        let (stash, window) = (&mut Stash::new(), &mut (0..0));
        // SAFETY: one thread, the only user of both ids and of `seg`, which
        // came from `Box::into_raw` and is freed once, at the end; the
        // stash is `tx`'s and the window `rx`'s, both of `seg`.
        unsafe {
            let cap = (*seg).aq.capacity();
            assert_eq!((*seg).run, 8);
            for v in 0..4 {
                assert_eq!((*seg).try_enqueue(&tx, v, stash, 4), Ok(()));
            }
            for v in 0..2 {
                assert_eq!((*seg).try_dequeue(rx.tid(), window), Some(v));
            }
            assert_eq!(window.clone().count(), 6, "two of eight tickets filled");
            let reserved = window.end;
            // The refill asks `fq` for 4 indices: its batch dequeue takes
            // the two returned and burns the window's next two tickets, and
            // the claim takes the other two from the counter.
            assert_eq!((*seg).try_enqueue(&tx, 4, stash, 4), Ok(()));
            assert_eq!(stash.len(), 3, "the claim got four indices");
            assert_eq!(fresh(&*seg), 6, "two of them fresh");
            assert_eq!((*seg).try_dequeue(rx.tid(), window), Some(2));
            assert!(window.is_empty(), "the failed fill dropped the window");
            assert_eq!((*seg).try_dequeue(rx.tid(), window), Some(3));
            assert_eq!(
                window.start,
                reserved + 2,
                "the fallback took the next ticket, and a new window the rest"
            );
            assert_eq!((*seg).try_dequeue(rx.tid(), window), Some(4));
            for round in 0..2 {
                assert_eq!(
                    fill_and_drain(&*seg, &tx, stash, rx.tid(), window),
                    cap,
                    "round {round}: an index was lost or handed out twice"
                );
            }
            link(&*seg, shut());
            SegmentCache::give_back(&cache, seg);
            let again = cache.take().expect("the segment just given back");
            assert_eq!(again, seg);
            assert_eq!(
                fill_and_drain(&*again, &tx, stash, rx.tid(), &mut (0..0)),
                cap,
                "reused"
            );
            drop(Box::from_raw(again));
        }
    }

    #[test]
    fn an_overrun_window_falls_back_and_loses_no_index_native() {
        an_overrun_window_falls_back_and_loses_no_index::<NativeFamily>();
    }

    #[test]
    fn an_overrun_window_falls_back_and_loses_no_index_llsc() {
        an_overrun_window_falls_back_and_loses_no_index::<LlscFamily>();
    }

    #[test]
    fn a_segment_takes_exactly_capacity_native() {
        let cache = SegmentCache::new();
        takes_exactly_capacity(&mut segment::<NativeFamily>(&cache, 3, 1));
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
                let cache = SegmentCache::new();
                takes_exactly_capacity(&mut segment::<LlscFamily>(&cache, order, 1));
            }
        }
    }

    /// A segment linked to a successor, or to `SHUT`, refuses a single and
    /// a batch enqueue without moving a ring counter, and each refusal
    /// leaves the announcement slot clear; pre-link values still drain.
    #[test]
    fn a_closed_segment_refuses_without_touching_a_ring() {
        let cache = SegmentCache::new();
        let successor = segment::<NativeFamily>(&cache, 3, 1);
        for next in [ptr::from_ref(&successor).cast_mut(), shut()] {
            let mut seg = segment::<NativeFamily>(&cache, 3, 1);
            let (stash, run) = (&mut Stash::new(), 2);
            let window = &mut (0..0);
            let domain = domain(1);
            let hp = domain.register().unwrap();
            // SAFETY: one thread, the only user of `hp`'s id; the stash is
            // this segment's.
            unsafe {
                assert_eq!(seg.try_enqueue(&hp, 1, stash, run), Ok(()));
                assert_eq!(stash.len(), 1, "the run's other index stays stashed");
                link(&seg, next);
                let before = rings(&seg);
                assert_eq!(seg.try_enqueue(&hp, 2, stash, run), Err(2));
                assert!(
                    hp.protected(ANNOUNCE).is_null(),
                    "a refusal left its announcement"
                );
                let mut batch: VecDeque<u64> = (3..6).collect();
                assert_eq!(seg.try_enqueue_many(&hp, &mut batch, stash, run), 0);
                assert!(
                    hp.protected(ANNOUNCE).is_null(),
                    "a refused batch left its announcement"
                );
                assert_eq!(batch, [3, 4, 5], "a refused batch keeps every value");
                assert_eq!(rings(&seg), before, "a refused enqueue touched a ring");
                assert_eq!(seg.try_dequeue(0, window), Some(1), "pre-link values drain");
            }
            let me = ptr::from_ref(&seg).cast::<u8>();
            assert_eq!(domain.count_publishing(ANNOUNCE, me), 0);
            reopen(&mut seg);
            // SAFETY: as above.
            assert_eq!(unsafe { seg.try_enqueue(&hp, 7, stash, run) }, Ok(()));
        }
    }

    /// Values each enqueuer of the race below offers.
    const PER: u64 = 96;

    /// Lets the race below share one segment across threads.
    struct Shared(Segment<u64, NativeFamily>);
    // SAFETY: test-only.  Of `Segment<u64, _>`'s fields, the rings and the
    // slots are `Sync` (and every thread operates as its own tid), `next`,
    // `fq` and the counter are atomics, and `cache` — the one raw pointer —
    // names the race's own cache, which is `Sync` and outlives the segment.
    unsafe impl Sync for Shared {}

    /// One seeded race on a 4-slot segment: two single and one batch
    /// enqueuer and a closer that links `SHUT`, against one drainer that
    /// stops the way the queue's head advance does — linked, then nobody
    /// announced, then one more empty dequeue.  Returns `(accepted, refused,
    /// delivered)`, sorted.
    fn closing_race(seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let cache = &SegmentCache::new();
        let shared = &Shared(segment(cache, 2, 4));
        let domain = &domain(4);
        let delivered_count = &AtomicU64::new(0);
        let finished = &AtomicU64::new(0);
        let close_after = seed * 7 % PER;
        std::thread::scope(|s| {
            let enqueuers: Vec<_> = (0..3u64)
                .map(|who| {
                    s.spawn(move || {
                        let seg = &shared.0;
                        let hp = domain.register().unwrap();
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
                                // `hp`'s id, and of its stash of this segment.
                                unsafe { seg.try_enqueue_many(&hp, &mut batch, stash, run) }
                            } else {
                                // SAFETY: as above.
                                usize::from(
                                    unsafe { seg.try_enqueue(&hp, offered[0], stash, run) }.is_ok(),
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
                link(&shared.0, shut());
            });
            let drainer = s.spawn(move || {
                let seg = &shared.0;
                let hp = domain.register().unwrap();
                let me = ptr::from_ref(seg).cast::<u8>();
                let mut got = Vec::new();
                let window = &mut (0..0);
                loop {
                    // SAFETY: this thread is the only user of `hp`'s id.
                    if let Some(v) = unsafe { seg.try_dequeue(hp.tid(), window) } {
                        got.push(v);
                        delivered_count.fetch_add(1, SeqCst);
                        continue;
                    }
                    if !seg.is_shut() || domain.count_publishing(ANNOUNCE, me) != 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    // SAFETY: as above.
                    match unsafe { seg.try_dequeue(hp.tid(), window) } {
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
                unsafe { shared.0.try_dequeue(0, &mut (0..0)) },
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
