//! The user-facing wCQ data queue: two wait-free index rings plus a data
//! array (the indirection scheme of Figure 2 applied to wCQ).

use core::cell::UnsafeCell;
use core::marker::PhantomData;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::api::tid_memo;
use crate::metrics::{Counter, CounterSet};

use super::cells::{CellFamily, NativeFamily};
use super::ring::{WcqConfig, WcqRing};

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
/// [`WcqQueue::register`].
pub struct WcqQueue<T, F: CellFamily = NativeFamily> {
    aq: WcqRing<F>,
    fq: WcqRing<F>,
    data: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Registration free-slot hint: the next record index worth probing.
    /// Updated on registration and release so [`WcqQueue::register`] is O(1)
    /// amortized under handle churn instead of scanning from slot 0.
    reg_hint: AtomicUsize,
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
        let fq = WcqRing::<F>::with_config_counters(order, max_threads, config, counters).full();
        let capacity = aq.capacity() as usize;
        let data = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            aq,
            fq,
            data,
            reg_hint: AtomicUsize::new(0),
        }
    }

    /// Maximum number of elements the queue can hold.
    pub fn capacity(&self) -> usize {
        self.data.len()
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

    /// Registers the calling thread with both internal rings, or `None` when
    /// `max_threads` handles are already live.
    ///
    /// Registration is O(1) amortized under handle churn: the slot this
    /// thread last held on this queue is memoized thread-locally
    /// ([`tid_memo`]) and retried first with a single CAS per ring; on a miss
    /// the probe starts from a shared free-slot hint instead of slot 0.
    pub fn register(&self) -> Option<WcqQueueHandle<'_, T, F>> {
        let key = self as *const Self as usize;
        if let Some(tid) = tid_memo::recall(key) {
            if let Some(handle) = self.register_at(tid) {
                // Re-front the LRU entry so a hot queue is not evicted by
                // colder registrations elsewhere.
                tid_memo::remember(key, tid);
                return Some(handle);
            }
        }
        let n = self.max_threads();
        // relaxed: pure probe-start hint — a stale read just means the scan
        // starts at a different slot and walks the same full circle.
        let start = self.reg_hint.load(Relaxed).min(n - 1);
        (0..n).find_map(|i| {
            let tid = (start + i) % n;
            let handle = self.register_at(tid)?;
            // relaxed: hint update; ordering-free by the same argument.
            self.reg_hint.store((tid + 1) % n, Relaxed);
            tid_memo::remember(key, tid);
            Some(handle)
        })
    }

    /// Registers the calling thread at a *specific* record slot of both
    /// internal rings (see [`WcqRing::register_at`]).  Returns `None` when the
    /// slot is taken or out of range.
    pub fn register_at(&self, tid: usize) -> Option<WcqQueueHandle<'_, T, F>> {
        self.try_acquire_slot(tid).then(|| WcqQueueHandle {
            queue: self,
            tid,
            tallies: OpTallies::default(),
            _not_send: PhantomData,
        })
    }

    // ------------------------------------------------------------------
    // Tid-keyed operations without a borrowing handle.  `wcq-unbounded`
    // runs its segments on these under its hazard-domain participant id (a
    // handle would be self-referential through the hazard-protected segment
    // pointer).
    // ------------------------------------------------------------------

    /// Claims record slot `tid` of *both* rings with one CAS each: the
    /// registration a [`WcqQueueHandle`] holds.  Returns `false` when the
    /// slot is taken or out of range.  A successful acquisition must be
    /// paired with [`WcqQueue::release_slot`].
    fn try_acquire_slot(&self, tid: usize) -> bool {
        if tid >= self.max_threads() || !self.aq.try_acquire_record(tid) {
            return false;
        }
        if !self.fq.try_acquire_record(tid) {
            self.aq.release_record(tid);
            return false;
        }
        true
    }

    /// Releases a record slot claimed by [`WcqQueue::try_acquire_slot`].
    ///
    /// # Safety
    /// The caller must currently own slot `tid` (i.e. this release pairs with
    /// exactly one successful `try_acquire_slot`) and must not use the slot
    /// afterwards.
    unsafe fn release_slot(&self, tid: usize) {
        self.aq.release_record(tid);
        self.fq.release_record(tid);
        // relaxed: probe-start hint only (see `register`); the record release
        // above carries the real synchronization.
        self.reg_hint.store(tid, Relaxed);
    }

    /// Attempts to enqueue `value` as the thread owning record slot `tid`;
    /// returns it back inside `Err` when the queue is full (`Enqueue_Ptr`,
    /// Figure 2).
    ///
    /// # Safety
    /// `tid` must be exclusive to the caller: below `max_threads`, no other
    /// thread operating on this queue as `tid` concurrently, and every
    /// earlier user of `tid` ordered before this call (Figure 4's per-thread
    /// cursor is owner-private).  There are two ways to own one:
    /// * a registered [`WcqQueueHandle`], whose slot claim and release order
    ///   successive owners;
    /// * a registration kept outside this queue that never mixes with
    ///   handles on it — `wcq-unbounded` keys a segment's records by its
    ///   hazard-domain participant id, whose release/acquire orders
    ///   successive owners.
    pub unsafe fn enqueue_at(&self, tid: usize, value: T) -> Result<(), T> {
        let Some(index) = self.fq.dequeue_index(tid) else {
            return Err(value);
        };
        // SAFETY: the free index came from `fq`; we own the slot until we
        // publish the index through `aq`.
        unsafe { (*self.data[index as usize].get()).write(value) };
        self.aq.enqueue_index(tid, index);
        Ok(())
    }

    /// Attempts to dequeue an element as the thread owning record slot `tid`;
    /// `None` when the queue was observed empty (`Dequeue_Ptr`, Figure 2).
    ///
    /// # Safety
    /// Same contract as [`WcqQueue::enqueue_at`].
    pub unsafe fn dequeue_at(&self, tid: usize) -> Option<T> {
        let index = self.aq.dequeue_index(tid)?;
        // SAFETY: the index came from `aq`; the matching enqueue fully
        // initialized the slot and nobody else touches it until we hand the
        // index back to `fq`.
        let value = unsafe { (*self.data[index as usize].get()).assume_init_read() };
        self.fq.enqueue_index(tid, index);
        Some(value)
    }

    /// Attempts to enqueue a prefix of `values` as the thread owning record
    /// slot `tid`, with one free-ring F&A claiming the whole run of free
    /// slots and one data-ring F&A publishing it (instead of one pair per
    /// element).  Accepted elements are removed from the *front* of `values`
    /// in order, so the batch preserves per-producer FIFO; the remainder is
    /// left in `values` (partial success — the queue was full, or a
    /// concurrent producer raced the free-slot claim).  Returns the number
    /// of elements accepted.
    ///
    /// `values` is a `VecDeque` so the per-call front drain is O(accepted):
    /// batching layers that feed one buffer through many calls (the
    /// unbounded queue crossing segments) never pay a full front shift of
    /// the remainder.
    ///
    /// # Safety
    /// Same contract as [`WcqQueue::enqueue_at`].
    pub unsafe fn enqueue_many_at(&self, tid: usize, values: &mut VecDeque<T>) -> usize {
        if values.is_empty() {
            return 0;
        }
        let mut free = Vec::with_capacity(values.len().min(self.capacity()));
        self.fq.dequeue_many(tid, &mut free, values.len());
        let accepted = free.len();
        for (&index, value) in free.iter().zip(values.drain(..accepted)) {
            // SAFETY: each free index came from `fq`; we own its slot until
            // the run is published through `aq`.
            unsafe { (*self.data[index as usize].get()).write(value) };
        }
        self.aq.enqueue_many(tid, &free);
        accepted
    }

    /// Dequeues up to `max` elements into `out` as the thread owning record
    /// slot `tid`, with one data-ring F&A claiming the run and one free-ring
    /// F&A recycling the slot indices.  Returns the number appended —
    /// possibly fewer than `max` even while elements remain, but a `0` is
    /// authoritative (see `WcqRing::dequeue_many` for both halves of that
    /// contract).
    ///
    /// # Safety
    /// Same contract as [`WcqQueue::enqueue_at`].
    pub unsafe fn dequeue_many_at(&self, tid: usize, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut indices = Vec::with_capacity(max.min(self.capacity()));
        let got = self.aq.dequeue_many(tid, &mut indices, max);
        for &index in &indices {
            // SAFETY: each index came from `aq`; the matching enqueue fully
            // initialized the slot and nobody else touches it until the run
            // is handed back to `fq`.
            out.push(unsafe { (*self.data[index as usize].get()).assume_init_read() });
        }
        self.fq.enqueue_many(tid, &indices);
        got
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
            + self.data.len() * std::mem::size_of::<UnsafeCell<MaybeUninit<T>>>()
    }
}

impl<T, F: CellFamily> Drop for WcqQueue<T, F> {
    fn drop(&mut self) {
        // Drain and drop any remaining elements.  `&mut self` guarantees no
        // concurrent handles exist (they borrow the queue).
        let mut h = self
            .aq
            .register()
            .expect("no handles can outlive the queue");
        while let Some(index) = h.dequeue() {
            // SAFETY: the index was delivered by `aq`, so the slot holds an
            // initialized element that nobody else owns.
            unsafe { (*self.data[index as usize].get()).assume_init_drop() };
        }
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
/// The handle owns one record slot of both internal rings for its lifetime;
/// dropping it releases the slot for another thread.  Handles are `!Send`:
/// the registration facade memoizes the thread → slot binding thread-locally
/// (see [`tid_memo`]), so a handle is meaningful only on the thread that
/// acquired it.
///
/// ```compile_fail,E0277
/// use wcq_core::wcq::WcqQueue;
/// let q: WcqQueue<u64> = WcqQueue::new(4, 2);
/// std::thread::scope(|s| {
///     let h = q.register().unwrap();
///     s.spawn(move || drop(h)); // ERROR: `WcqQueueHandle` is `!Send`
/// });
/// ```
pub struct WcqQueueHandle<'q, T, F: CellFamily = NativeFamily> {
    queue: &'q WcqQueue<T, F>,
    tid: usize,
    tallies: OpTallies,
    /// Pins the handle to its registering thread (`!Send`/`!Sync`).
    _not_send: PhantomData<*const ()>,
}

/// Plain per-handle operation tallies, accumulated without atomics on the hot
/// path and flushed into the queue's [`CounterSet`] (when one is attached)
/// exactly once, on handle drop.  Keeping these handle-local means the
/// instrumented build adds no shared-cache-line traffic per completed value —
/// only the rare events (helping, patience exhaustion, CAS failures) are
/// recorded immediately, inside the rings.
#[derive(Default)]
pub(crate) struct OpTallies {
    pub(crate) enqueues_completed: u64,
    pub(crate) dequeues_completed: u64,
    pub(crate) batch_values_requested: u64,
    pub(crate) batch_values_granted: u64,
}

impl OpTallies {
    /// Flushes the tallies into `set` and resets them to zero.
    pub(crate) fn flush(&mut self, set: &CounterSet) {
        set.add(Counter::EnqueuesCompleted, self.enqueues_completed);
        set.add(Counter::DequeuesCompleted, self.dequeues_completed);
        set.add(Counter::BatchValuesRequested, self.batch_values_requested);
        set.add(Counter::BatchValuesGranted, self.batch_values_granted);
        *self = Self::default();
    }
}

impl<'q, T, F: CellFamily> WcqQueueHandle<'q, T, F> {
    /// Attempts to enqueue `value`; returns it back inside `Err` when the
    /// queue is full.
    pub fn enqueue(&mut self, value: T) -> Result<(), T> {
        // SAFETY: the handle's existence proves ownership of slot `tid` on
        // the registering thread (`!Send`).
        unsafe { self.queue.enqueue_at(self.tid, value) }?;
        self.tallies.enqueues_completed += 1;
        Ok(())
    }

    /// Attempts to dequeue an element; returns `None` when the queue is
    /// empty.
    pub fn dequeue(&mut self) -> Option<T> {
        // SAFETY: as in `enqueue`.
        let value = unsafe { self.queue.dequeue_at(self.tid) }?;
        self.tallies.dequeues_completed += 1;
        Some(value)
    }

    /// Batch [`WcqQueueHandle::enqueue`]: accepts a FIFO prefix of `values`
    /// with one free-ring and one data-ring F&A for the whole run (see
    /// [`WcqQueue::enqueue_many_at`]); the unaccepted remainder stays in
    /// `values`.  Returns the number accepted.
    pub fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        // The Vec ↔ VecDeque round-trip is one buffer reuse in and at most
        // one memmove out (when a prefix was drained).
        let requested = values.len() as u64;
        let mut pending: VecDeque<T> = std::mem::take(values).into();
        // SAFETY: as in `enqueue`.
        let accepted = unsafe { self.queue.enqueue_many_at(self.tid, &mut pending) };
        *values = pending.into();
        self.tallies.enqueues_completed += accepted as u64;
        self.tallies.batch_values_requested += requested;
        self.tallies.batch_values_granted += accepted as u64;
        accepted
    }

    /// Batch [`WcqQueueHandle::dequeue`]: appends up to `max` elements to
    /// `out` with one data-ring and one free-ring F&A for the whole run (see
    /// [`WcqQueue::dequeue_many_at`] for the partial-success contract).
    pub fn dequeue_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // SAFETY: as in `enqueue`.
        let got = unsafe { self.queue.dequeue_many_at(self.tid, out, max) };
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
        // SAFETY: the handle's existence proves slot ownership; this is the
        // unique release paired with the acquisition in `register_at`.
        unsafe { self.queue.release_slot(self.tid) };
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
        // Churn on the same thread must come back to the same record slot
        // (O(1) re-entry through the thread-local memo).
        for _ in 0..4 {
            let again = q.register().unwrap();
            assert_eq!(again.tid(), tid);
        }
    }

    #[test]
    fn register_at_targets_an_exact_slot() {
        let q: WcqQueue<u8> = WcqQueue::new(3, 4);
        let h = q.register_at(2).unwrap();
        assert_eq!(h.tid(), 2);
        assert!(q.register_at(2).is_none(), "slot 2 is taken");
        assert!(q.register_at(99).is_none(), "out of range");
        drop(h);
        assert!(q.register_at(2).is_some());
    }

    #[test]
    fn raw_slot_api_round_trips_without_a_handle() {
        let q: WcqQueue<u64> = WcqQueue::new(3, 2);
        assert!(q.try_acquire_slot(0));
        assert!(!q.try_acquire_slot(0), "double acquisition must fail");
        // SAFETY: slot 0 acquired above; single-threaded use.
        unsafe {
            assert_eq!(q.enqueue_at(0, 41), Ok(()));
            assert_eq!(q.enqueue_at(0, 42), Ok(()));
            assert_eq!(q.dequeue_at(0), Some(41));
            assert_eq!(q.dequeue_at(0), Some(42));
            assert_eq!(q.dequeue_at(0), None);
            q.release_slot(0);
        }
        assert!(q.try_acquire_slot(0), "release frees the slot");
        // SAFETY: re-acquired just above.
        unsafe { q.release_slot(0) };
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
}
