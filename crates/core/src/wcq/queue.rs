//! The user-facing wCQ data queue: two wait-free index rings plus a data
//! array (the indirection scheme of Figure 2 applied to wCQ).

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::metrics::{CounterSet, OpTallies};

use super::cells::{CellFamily, NativeFamily};
use super::ring::{WcqConfig, WcqRing};

/// The longest run of slot indices one batch operation claims with a single
/// ring F&A: batch calls hold the run's indices in a buffer of this many on
/// the stack instead of allocating one, and a longer request goes in runs.
pub const BATCH: usize = 64;

/// Figure 2's data array: one slot per index, owned by whoever holds the
/// index.
type Slot<T> = UnsafeCell<MaybeUninit<T>>;

/// `capacity` uninitialised data slots: the array [`WcqRing::deposit_at`]
/// and its neighbours hand values through.  [`WcqQueue`] and
/// `wcq-unbounded`'s segments each keep one beside their `aq`.
pub fn new_slots<T>(capacity: usize) -> Box<[UnsafeCell<MaybeUninit<T>>]> {
    (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect()
}

/// Figure 2's hand-off between a data array and its `aq` (this ring): an
/// enqueue writes its value to the slot of a free index and publishes the
/// index ([`WcqRing::deposit_at`]); a dequeue takes an index and moves the
/// value out ([`WcqRing::take_checked_at`]), which frees the index.
///
/// Where free indices come from and where freed ones go is the owner's
/// business.  [`WcqQueue`] circulates them through its `fq` ring, as in
/// Figure 2.  `wcq-unbounded`'s segments hand never-used indices out from a
/// claim counter, and install an `fq` only when a dequeue first hands one
/// back.  The owner keeps the array beside its `aq` rather than inside a
/// struct of its own, so a segment packs its own words into the line the
/// data pointer takes.
///
/// Every method's `slots` is the array whose indices this ring publishes:
/// the owner's one array, on every call.  A value still published when the
/// owner drops is dropped by [`WcqRing::drop_published`], which the owner's
/// `Drop` calls.
impl<F: CellFamily> WcqRing<F> {
    /// Writes `value` to the slot of the free `index` and publishes the
    /// index, as the thread owning record slot `tid`.
    ///
    /// # Safety
    /// * `slots` is the array this ring publishes the indices of;
    /// * `tid` is exclusive to the caller
    ///   ([tid-keyed operations](WcqRing#tid-keyed-operations));
    /// * `index` is the caller's alone: a free index the owner handed to it
    ///   (from `fq`, or from its own supply of never-used ones) and not
    ///   deposited at since.
    #[inline]
    pub unsafe fn deposit_at<T>(&self, slots: &[Slot<T>], tid: usize, index: u32, value: T) {
        // SAFETY: the caller owns the slot until the index is published.
        unsafe { (*slots[index as usize].get()).write(value) };
        self.enqueue_index(tid, index.into());
    }

    /// [`WcqRing::deposit_at`] for a run: writes the front `free.len()`
    /// values of `values` to the slots of `free`, in order, and publishes
    /// the run with one batch enqueue ([`WcqRing::enqueue_many_at`]).
    ///
    /// # Safety
    /// As for [`WcqRing::deposit_at`], for every index in `free`; and
    /// `values` holds at least `free.len()` values.
    pub unsafe fn deposit_many_at<T>(
        &self,
        slots: &[Slot<T>],
        tid: usize,
        free: &[u32],
        values: &mut VecDeque<T>,
    ) {
        for (&index, value) in free.iter().zip(values.drain(..free.len())) {
            // SAFETY: the caller owns each slot until the run is published.
            unsafe { (*slots[index as usize].get()).write(value) };
        }
        // SAFETY: per the function contract.
        unsafe { self.enqueue_many_at(tid, free) };
    }

    /// The rest of a dequeue once [`WcqRing::dequeue_finds_empty`] answered
    /// `false`, as the thread owning record slot `tid`: the dequeue's
    /// attempt, inline, and the value's move; `None` when the attempt found
    /// the ring empty.  Call it from the out-of-line half of a split
    /// dequeue.  The slot is then free, and its index the caller's: it hands
    /// it to the owner's free supply, or keeps it, which is safe and takes
    /// the slot out of circulation until the owner hands its indices out
    /// afresh.
    ///
    /// `slots` is the owner's box itself, not the slice: the slice's
    /// pointer and length are loaded only once a take has succeeded, so an
    /// attempt that finds the ring empty holds no register for them.
    ///
    /// # Safety
    /// `slots` and `tid` as for [`WcqRing::deposit_at`].
    #[inline(always)]
    #[allow(clippy::borrowed_box)]
    pub unsafe fn take_checked_at<T>(
        &self,
        slots: &Box<[Slot<T>]>,
        tid: usize,
    ) -> Option<(T, u32)> {
        let index = self.dequeue_checked(tid)?;
        // SAFETY: the index came from this ring; the matching deposit fully
        // initialized the slot and nobody else touches it until the index
        // is deposited at again.
        let value = unsafe { (*slots[index as usize].get()).assume_init_read() };
        Some((value, index as u32))
    }

    /// Takes up to `max` values into `out`, in runs of up to [`BATCH`]
    /// indices with one batch dequeue each, and hands each run's freed
    /// indices to `give_back`, where they become the caller's as in
    /// [`WcqRing::take_checked_at`].  A run that comes back short ends the
    /// call.  Returns the number taken: possibly fewer than `max` while
    /// values remain, but a `0` is authoritative (see
    /// [`WcqRing::dequeue_many_at`]).
    ///
    /// # Safety
    /// `slots` and `tid` as for [`WcqRing::deposit_at`].
    pub unsafe fn take_many_at<T>(
        &self,
        slots: &[Slot<T>],
        tid: usize,
        out: &mut Vec<T>,
        max: usize,
        mut give_back: impl FnMut(&[u32]),
    ) -> usize {
        let mut free = [0u32; BATCH];
        let mut got = 0;
        while got < max {
            let want = (max - got).min(BATCH);
            let mut took = 0;
            let take = |index: u64| {
                // SAFETY: each index came from this ring; the matching
                // deposit fully initialized the slot and nobody else touches
                // it until the index is deposited at again.
                out.push(unsafe { (*slots[index as usize].get()).assume_init_read() });
                free[took] = index as u32;
                took += 1;
            };
            // SAFETY: `tid` per the function contract.
            unsafe { self.dequeue_many_at(tid, want, take) };
            give_back(&free[..took]);
            got += took;
            if took < want {
                break;
            }
        }
        got
    }

    /// Drops every value still published in `slots`: the owner's `Drop`,
    /// which `&mut` proves alone.  It claims one of the ring's records to
    /// drain under.
    pub fn drop_published<T>(&mut self, slots: &mut [Slot<T>]) {
        let mut h = self.register().expect("no handles can outlive the queue");
        while let Some(index) = h.dequeue() {
            // SAFETY: the index was delivered by this ring, so the slot holds
            // an initialized element that nobody else owns.
            unsafe { (*slots[index as usize].get()).assume_init_drop() };
        }
    }
}

/// A bounded, wait-free MPMC FIFO queue of `T` with capacity `2^order`.
///
/// Values live in a data array; a `fq` ring circulates free slot indices and
/// an `aq` ring circulates allocated ones (`Enqueue_Ptr`/`Dequeue_Ptr`,
/// Figure 2).  Because wCQ is wait-free and statically allocated, the whole
/// queue is wait-free with bounded memory usage (Theorems 5.8–5.10): the only
/// memory ever used is the two rings, the data array and one record per
/// registered thread.
///
/// Threads operate through [`WcqQueueHandle`]s obtained from
/// [`WcqQueue::register`].  The data array's hand-off through `aq` is
/// [`WcqRing::deposit_at`] and its neighbours, which `wcq-unbounded`'s
/// segments run too.
pub struct WcqQueue<T, F: CellFamily = NativeFamily> {
    aq: WcqRing<F>,
    fq: WcqRing<F>,
    slots: Box<[Slot<T>]>,
}

// SAFETY: slot indices are handed between threads through the rings; the slot
// is exclusively owned by whoever holds its index, and sequentially consistent
// ring operations order the data accesses around the hand-off.
unsafe impl<T: Send, F: CellFamily> Send for WcqQueue<T, F> {}
unsafe impl<T: Send, F: CellFamily> Sync for WcqQueue<T, F> {}

impl<T, F: CellFamily> WcqQueue<T, F> {
    /// Creates a queue with capacity `2^order` usable by up to `max_threads`
    /// registered threads, with the default [`WcqConfig`] and no telemetry.
    pub fn new(order: u32, max_threads: usize) -> Self {
        Self::with_config_counters(order, max_threads, WcqConfig::default(), None)
    }

    /// Creates a queue with an explicit configuration and an optional shared
    /// [`CounterSet`] receiving contention telemetry from both internal rings
    /// plus per-handle completion/batch tallies (flushed when handles drop).
    pub fn with_config_counters(
        order: u32,
        max_threads: usize,
        config: WcqConfig,
        counters: Option<Arc<CounterSet>>,
    ) -> Self {
        let aq = WcqRing::<F>::with_config_counters(order, max_threads, config, counters.clone());
        let mut fq = WcqRing::<F>::with_config_counters(order, max_threads, config, counters);
        fq.fill();
        let slots = new_slots(aq.capacity() as usize);
        Self { aq, fq, slots }
    }

    /// Maximum number of elements the queue can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.aq.max_threads()
    }

    /// The wait-freedom configuration both internal rings run with.
    pub fn config(&self) -> &WcqConfig {
        self.aq.config()
    }

    /// The telemetry counter set shared by both internal rings, if attached.
    pub fn counter_set(&self) -> Option<&Arc<CounterSet>> {
        self.aq.counter_set()
    }

    /// Checker/test introspection: `(aq_threshold, fq_threshold, max)` where
    /// `max` is the §5 bound (`3n - 1`) both ring thresholds must never
    /// exceed.  Used by the `wcq-check` invariant probes; not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn ring_thresholds(&self) -> (i64, i64, i64) {
        (
            self.aq.threshold(),
            self.fq.threshold(),
            self.aq.layout().max_threshold(),
        )
    }

    /// Registers the calling thread, or `None` when `max_threads` handles
    /// are already live.
    ///
    /// A handle claims one id from `aq`'s registry and runs `fq` under the
    /// same id: an id exclusive on `aq` is exclusive on `fq` too, as a
    /// segment's participant id is on both its rings, so `fq`'s records are
    /// never claimed on their own.  A dropped handle's id is the next one
    /// claimed, so re-registering after a drop is one CAS.
    pub fn register(&self) -> Option<WcqQueueHandle<'_, T, F>> {
        let tid = self.aq.registry().claim()?;
        Some(WcqQueueHandle {
            queue: self,
            tid,
            tallies: OpTallies::default(),
        })
    }

    /// Returns `true` if a dequeue would currently observe an empty queue
    /// (hint only under concurrency).
    pub fn is_empty_hint(&self) -> bool {
        self.aq.len_hint() == 0
    }

    /// Bytes occupied by the queue: both rings, thread records and the data
    /// array.  This is the flat line wCQ shows in Figure 10a.
    pub fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.aq.heap_bytes()
            + self.fq.heap_bytes()
            + std::mem::size_of_val(&*self.slots)
    }
}

impl<T, F: CellFamily> Drop for WcqQueue<T, F> {
    fn drop(&mut self) {
        // `&mut self` guarantees no concurrent handles exist (they borrow the
        // queue).
        self.aq.drop_published(&mut self.slots);
    }
}

impl<T, F: CellFamily> std::fmt::Debug for WcqQueue<T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WcqQueue")
            .field("family", &F::NAME)
            .field("capacity", &self.capacity())
            .field("max_threads", &self.max_threads())
            .field("aq", &self.aq)
            .field("fq", &self.fq)
            .finish()
    }
}

/// A per-thread, RAII handle to a [`WcqQueue`].
///
/// The handle owns one id, the index of its record in both internal rings,
/// for its lifetime; dropping it releases the id for another handle.  The id
/// belongs to the handle, not to a thread, so the handle is `Send` (for
/// `T: Send`): it may be registered on one thread, operated on another and
/// dropped on a third.  `&mut self` serialises its operations, and the id's
/// claim and release order successive owners.
pub struct WcqQueueHandle<'q, T, F: CellFamily = NativeFamily> {
    queue: &'q WcqQueue<T, F>,
    tid: usize,
    tallies: OpTallies,
}

impl<'q, T, F: CellFamily> WcqQueueHandle<'q, T, F> {
    /// Attempts to enqueue `value`; returns it back inside `Err` when the
    /// queue is full.
    pub fn enqueue(&mut self, value: T) -> Result<(), T> {
        let (queue, tid) = (self.queue, self.tid);
        let Some(index) = queue.fq.dequeue_index(tid) else {
            return Err(value);
        };
        // SAFETY: the handle's existence proves ownership of slot `tid`, and
        // `&mut self` keeps its operations from overlapping; the index just
        // came from `fq`.
        unsafe { queue.aq.deposit_at(&queue.slots, tid, index as u32, value) };
        self.tallies.enqueues_completed += 1;
        Ok(())
    }

    /// Attempts to dequeue an element; returns `None` when the queue is
    /// empty.
    ///
    /// Only the empty answer is inline (`aq`'s threshold check,
    /// [`WcqRing::dequeue_finds_empty`]): the rest is `dequeue_checked`, out
    /// of line, so a caller's empty poll saves no register and makes no
    /// call.
    #[inline(always)]
    pub fn dequeue(&mut self) -> Option<T> {
        if self.queue.aq.dequeue_finds_empty() {
            return None;
        }
        self.dequeue_checked()
    }

    /// [`Self::dequeue`] past its threshold check.
    #[inline(never)]
    fn dequeue_checked(&mut self) -> Option<T> {
        let queue = self.queue;
        // SAFETY: the handle's existence proves ownership of slot `tid`, and
        // `&mut self` keeps its operations from overlapping.
        let (value, index) = unsafe { queue.aq.take_checked_at(&queue.slots, self.tid) }?;
        queue.fq.enqueue_index(self.tid, index.into());
        self.tallies.dequeues_completed += 1;
        Some(value)
    }

    /// Batch [`WcqQueueHandle::enqueue`]: accepts a FIFO prefix of
    /// `values`, with one free-ring F&A claiming a run of up to [`BATCH`]
    /// free slots and one data-ring F&A publishing it (instead of one pair
    /// per element); a longer batch goes in runs, each once the last was
    /// claimed whole.  The unaccepted remainder stays in `values` (the
    /// queue was full, or a concurrent producer raced the free-slot claim).
    /// Returns the number accepted.
    pub fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        let (queue, tid) = (self.queue, self.tid);
        let requested = values.len();
        // A run's deposit drains the front of a `VecDeque`: the Vec ↔
        // VecDeque round-trip is one buffer reuse in and at most one memmove
        // out (when a prefix was drained).
        let mut pending: VecDeque<T> = std::mem::take(values).into();
        let mut free = [0u32; BATCH];
        let mut accepted = 0;
        while !pending.is_empty() {
            let want = pending.len().min(BATCH);
            let mut n = 0;
            // SAFETY: as in `enqueue`.
            let claimed = unsafe {
                queue.fq.dequeue_many_at(tid, want, |index| {
                    free[n] = index as u32;
                    n += 1;
                })
            };
            // SAFETY: as in `enqueue`; each index just came from `fq`, and
            // `pending` holds `want >= claimed` values.
            unsafe {
                queue
                    .aq
                    .deposit_many_at(&queue.slots, tid, &free[..claimed], &mut pending)
            };
            accepted += claimed;
            if claimed < want {
                break;
            }
        }
        *values = pending.into();
        self.tallies.enqueues_completed += accepted as u64;
        self.tallies.batch_values_requested += requested as u64;
        self.tallies.batch_values_granted += accepted as u64;
        accepted
    }

    /// Batch [`WcqQueueHandle::dequeue`]: appends up to `max` elements to
    /// `out`, with one data-ring F&A claiming a run of up to [`BATCH`] and
    /// one free-ring F&A recycling its slot indices (see
    /// [`WcqRing::take_many_at`] for the partial-success contract).
    pub fn dequeue_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let (queue, tid) = (self.queue, self.tid);
        // SAFETY: as in `enqueue`; the indices given back were just taken.
        let give_back = |free: &[u32]| unsafe { queue.fq.enqueue_many_at(tid, free) };
        // SAFETY: as in `enqueue`.
        let got = unsafe {
            queue
                .aq
                .take_many_at(&queue.slots, tid, out, max, give_back)
        };
        self.tallies.dequeues_completed += got as u64;
        self.tallies.batch_values_requested += max as u64;
        self.tallies.batch_values_granted += got as u64;
        got
    }

    /// The queue this handle operates on.
    pub fn queue(&self) -> &'q WcqQueue<T, F> {
        self.queue
    }

    /// The record-slot index this handle owns in both rings.
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl<'q, T, F: CellFamily> Drop for WcqQueueHandle<'q, T, F> {
    fn drop(&mut self) {
        if let Some(set) = self.queue.counter_set() {
            self.tallies.flush(set);
        }
        // SAFETY: the handle holds `tid` on `aq`'s registry from `register`
        // until here.
        unsafe { self.queue.aq.registry().release(self.tid) };
    }
}

impl<'q, T, F: CellFamily> std::fmt::Debug for WcqQueueHandle<'q, T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WcqQueueHandle")
            .field("tid", &self.tid)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::cells::LlscFamily;
    use super::*;
    use crate::test_util::xorshift;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Drives `q` through `len` random enqueue/dequeue operations mirrored
    /// against a VecDeque model, then drains and compares the remainder.
    fn check_against_model<F: CellFamily>(q: &WcqQueue<u64, F>, state: &mut u64, len: usize) {
        let mut h = q.register().unwrap();
        let mut model: VecDeque<u64> = VecDeque::new();
        let cap = q.capacity();
        let mut next = 0u64;
        for _ in 0..len {
            if xorshift(state) & 1 == 0 {
                let res = h.enqueue(next);
                if model.len() < cap {
                    assert!(res.is_ok());
                    model.push_back(next);
                } else {
                    assert_eq!(res, Err(next));
                }
                next += 1;
            } else {
                assert_eq!(h.dequeue(), model.pop_front());
            }
        }
        while let Some(expect) = model.pop_front() {
            assert_eq!(h.dequeue(), Some(expect));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn enqueue_dequeue_roundtrip() {
        let q: WcqQueue<String> = WcqQueue::new(3, 2);
        let mut h = q.register().unwrap();
        h.enqueue("x".into()).unwrap();
        h.enqueue("y".into()).unwrap();
        assert_eq!(h.dequeue().as_deref(), Some("x"));
        assert_eq!(h.dequeue().as_deref(), Some("y"));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn full_queue_rejects_and_recovers() {
        let q: WcqQueue<u32> = WcqQueue::new(2, 1); // capacity 4
        let mut h = q.register().unwrap();
        for i in 0..4 {
            h.enqueue(i).unwrap();
        }
        assert_eq!(h.enqueue(99), Err(99));
        assert_eq!(h.dequeue(), Some(0));
        h.enqueue(99).unwrap();
        assert_eq!(h.dequeue(), Some(1));
    }

    #[test]
    fn registration_limit_enforced() {
        let q: WcqQueue<u8> = WcqQueue::new(3, 2);
        let h1 = q.register().unwrap();
        let h2 = q.register().unwrap();
        assert!(q.register().is_none());
        drop(h1);
        assert!(q.register().is_some());
        drop(h2);
    }

    #[test]
    fn register_reuses_the_memoized_tid_after_drop() {
        let q: WcqQueue<u8> = WcqQueue::new(4, 8);
        let first = q.register().unwrap();
        let tid = first.tid();
        drop(first);
        // Churn must come back to the same record slot: the drop hints it,
        // so re-entry is one CAS.
        for _ in 0..4 {
            let again = q.register().unwrap();
            assert_eq!(again.tid(), tid);
        }
    }

    #[test]
    fn drop_releases_remaining_elements() {
        use std::sync::Arc;
        let probe = Arc::new(());
        {
            let q: WcqQueue<Arc<()>> = WcqQueue::new(3, 1);
            let mut h = q.register().unwrap();
            for _ in 0..5 {
                h.enqueue(Arc::clone(&probe)).unwrap();
            }
            assert_eq!(Arc::strong_count(&probe), 6);
            drop(h);
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn batch_accepts_a_fifo_prefix_when_full() {
        let q: WcqQueue<u64> = WcqQueue::new(2, 1); // capacity 4
        let mut h = q.register().unwrap();
        h.enqueue(0).unwrap();
        let mut rest: Vec<u64> = vec![1, 2, 3, 4, 5];
        // Only 3 free slots remain: the batch accepts exactly the prefix.
        assert_eq!(h.enqueue_many(&mut rest), 3);
        assert_eq!(rest, vec![4, 5]);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_many(&mut out, 10), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(h.dequeue(), None);
        // The freed slots are recycled for the remainder.
        assert_eq!(h.enqueue_many(&mut rest), 2);
        assert!(rest.is_empty());
        out.clear();
        assert_eq!(h.dequeue_many(&mut out, 2), 2);
        assert_eq!(out, vec![4, 5]);
    }

    #[test]
    fn batch_roundtrip_drops_nothing() {
        use std::sync::Arc;
        let probe = Arc::new(());
        {
            let q: WcqQueue<Arc<()>> = WcqQueue::new(3, 1);
            let mut h = q.register().unwrap();
            let mut batch: Vec<Arc<()>> = (0..6).map(|_| Arc::clone(&probe)).collect();
            assert_eq!(h.enqueue_many(&mut batch), 6);
            let mut out = Vec::new();
            assert_eq!(h.dequeue_many(&mut out, 4), 4);
            drop(out);
            assert_eq!(Arc::strong_count(&probe), 3);
            drop(h);
            // Two elements left inside the queue; Drop must release them.
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn batch_matches_singles_under_forced_slow_path() {
        let cfg = WcqConfig {
            max_patience_enqueue: 1,
            max_patience_dequeue: 1,
            help_delay: 1,
            catchup_bound: 8,
        };
        let q: WcqQueue<u64> = WcqQueue::with_config_counters(4, 2, cfg, None);
        let mut h = q.register().unwrap();
        let mut expected = VecDeque::new();
        let mut next = 0u64;
        for round in 0..300u64 {
            let mut batch: Vec<u64> = (0..(round % 7))
                .map(|_| {
                    let v = next;
                    next += 1;
                    v
                })
                .collect();
            let accepted = h.enqueue_many(&mut batch);
            expected.extend((next - (round % 7))..(next - (round % 7) + accepted as u64));
            next = next - (round % 7) + accepted as u64;
            let mut out = Vec::new();
            h.dequeue_many(&mut out, (round % 5) as usize);
            for v in out {
                assert_eq!(Some(v), expected.pop_front());
            }
        }
        let mut out = Vec::new();
        while h.dequeue_many(&mut out, 8) > 0 {}
        for v in out {
            assert_eq!(Some(v), expected.pop_front());
        }
        assert!(expected.is_empty());
    }

    #[test]
    fn llsc_family_queue_works_end_to_end() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        let q: WcqQueue<u64, LlscFamily> = WcqQueue::new(4, 2);
        let mut h = q.register().unwrap();
        for i in 0..10 {
            h.enqueue(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn mpmc_stress_sum_preserved() {
        const PRODUCERS: u64 = 3;
        const CONSUMERS: u64 = 3;
        const PER_PRODUCER: u64 = 8_000;
        let q: WcqQueue<u64> = WcqQueue::new(6, (PRODUCERS + CONSUMERS) as usize);
        let consumed_sum = AtomicU64::new(0);
        let consumed_cnt = AtomicU64::new(0);

        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i;
                        loop {
                            match h.enqueue(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = &q;
                let consumed_sum = &consumed_sum;
                let consumed_cnt = &consumed_cnt;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    loop {
                        if consumed_cnt.load(Ordering::Relaxed) >= PRODUCERS * PER_PRODUCER {
                            break;
                        }
                        match h.dequeue() {
                            Some(v) => {
                                consumed_sum.fetch_add(v, Ordering::Relaxed);
                                consumed_cnt.fetch_add(1, Ordering::Relaxed);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                });
            }
        });

        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(consumed_cnt.load(Ordering::Relaxed), n);
        assert_eq!(consumed_sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn per_producer_order_preserved_under_forced_slow_path() {
        const PER_PRODUCER: u64 = 3_000;
        let cfg = WcqConfig {
            max_patience_enqueue: 1,
            max_patience_dequeue: 1,
            help_delay: 1,
            catchup_bound: 8,
        };
        let q: WcqQueue<(u64, u64)> = WcqQueue::with_config_counters(5, 3, cfg, None);

        std::thread::scope(|s| {
            for p in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 1..=PER_PRODUCER {
                        let mut item = (p, i);
                        while let Err(back) = h.enqueue(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let q = &q;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                let mut last_seen = [0u64; 2];
                let mut got = 0;
                while got < 2 * PER_PRODUCER {
                    if let Some((p, i)) = h.dequeue() {
                        assert!(i > last_seen[p as usize], "per-producer FIFO violated");
                        last_seen[p as usize] = i;
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }

    /// Sequential behaviour matches a VecDeque model for randomized operation
    /// sequences, on both hardware families, across many seeds and orders.
    #[test]
    fn sequential_matches_model_randomized_native() {
        for seed in 1..=48u64 {
            for order in 1..=3u32 {
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let len = 1 + (xorshift(&mut state) % 200) as usize;
                let q: WcqQueue<u64> = WcqQueue::new(order, 1);
                check_against_model(&q, &mut state, len);
            }
        }
    }

    #[test]
    fn sequential_matches_model_randomized_llsc() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        for seed in 1..=24u64 {
            for order in 1..=3u32 {
                let mut state = seed.wrapping_mul(0xA24B_AED4_963E_E407) | 1;
                let len = 1 + (xorshift(&mut state) % 120) as usize;
                let q: WcqQueue<u64, LlscFamily> = WcqQueue::new(order, 1);
                check_against_model(&q, &mut state, len);
            }
        }
    }

    /// A queue of `2^order` slots, one handle, recording into a fresh
    /// counter set.
    fn counted<F: CellFamily>(order: u32) -> (WcqQueue<u64, F>, Arc<CounterSet>) {
        let set = Arc::new(CounterSet::new());
        let q = WcqQueue::with_config_counters(order, 1, WcqConfig::default(), Some(set.clone()));
        (q, set)
    }

    /// An empty poll answers from `aq`'s threshold inline: one ring dequeue
    /// counted per `dequeue`, and one per batch, which the ring's batch
    /// dequeue counts on its threshold check as `dequeue_index` does.
    fn an_empty_poll_counts_one_ring_dequeue<F: CellFamily>() {
        use crate::metrics::Counter::RingDequeues;
        let (q, set) = counted::<F>(3);
        let mut h = q.register().unwrap();
        assert!(q.ring_thresholds().0 < 0, "a fresh aq's threshold is -1");
        let mut out = Vec::new();
        for poll in 0..100 {
            let before = set.get(RingDequeues);
            assert_eq!(h.dequeue(), None);
            assert_eq!(set.get(RingDequeues), before + 1, "poll {poll}");
            assert_eq!(h.dequeue_many(&mut out, 8), 0);
            assert_eq!(set.get(RingDequeues), before + 2, "batch {poll}");
        }
        assert!(out.is_empty());
    }

    #[test]
    fn an_empty_poll_counts_one_ring_dequeue_native() {
        an_empty_poll_counts_one_ring_dequeue::<NativeFamily>();
    }

    #[test]
    fn an_empty_poll_counts_one_ring_dequeue_llsc() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        an_empty_poll_counts_one_ring_dequeue::<LlscFamily>();
    }

    /// A poll whose threshold check lets it on counts its `aq` dequeue once,
    /// not again in the out-of-line rest: when it takes a value, and when
    /// the attempt then finds the ring empty.  A batch counts its run once.
    fn a_poll_past_the_threshold_counts_one_ring_dequeue<F: CellFamily>() {
        use crate::metrics::Counter::RingDequeues;
        let (q, set) = counted::<F>(3);
        let mut h = q.register().unwrap();
        let mut out = Vec::new();
        for v in 0..20 {
            h.enqueue(v).unwrap();
            let before = set.get(RingDequeues);
            assert_eq!(h.dequeue(), Some(v));
            assert_eq!(set.get(RingDequeues), before + 1, "take {v}");
            assert!(q.ring_thresholds().0 >= 0, "a drained ring stays armed");
            let before = set.get(RingDequeues);
            assert_eq!(h.dequeue(), None);
            assert_eq!(set.get(RingDequeues), before + 1, "poll after {v}");
            let mut batch = vec![v, v + 1, v + 2];
            assert_eq!(h.enqueue_many(&mut batch), 3);
            let before = set.get(RingDequeues);
            assert_eq!(h.dequeue_many(&mut out, 8), 3);
            assert_eq!(set.get(RingDequeues), before + 3, "batch after {v}");
            assert_eq!(std::mem::take(&mut out), [v, v + 1, v + 2]);
        }
    }

    #[test]
    fn a_poll_past_the_threshold_counts_one_ring_dequeue_native() {
        a_poll_past_the_threshold_counts_one_ring_dequeue::<NativeFamily>();
    }

    #[test]
    fn a_poll_past_the_threshold_counts_one_ring_dequeue_llsc() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        a_poll_past_the_threshold_counts_one_ring_dequeue::<LlscFamily>();
    }
}
