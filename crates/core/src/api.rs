//! The one queue abstraction every implementation in this workspace speaks.
//!
//! The paper's whole design is mediated by per-thread state (one record per
//! registered thread — Theorem 5.8 counts them), and every queue in the
//! evaluation follows the same usage model: *register, operate through a
//! handle, drop to release*.  This module makes that model a first-class,
//! object-safe trait pair so applications, the benchmark harness and the
//! integration tests all drive every queue — wCQ, wLSCQ and the six §6
//! baselines — through one facade:
//!
//! * [`WaitFreeQueue`] — a queue instance threads can acquire handles from;
//! * [`QueueHandle`] — a per-thread, RAII handle: acquiring it registers the
//!   thread (occupying a record slot where the algorithm needs one), dropping
//!   it releases the slot for another thread.
//!
//! Both traits are object safe, so heterogeneous code (the harness's
//! `make_queue`, a queue-per-config registry, …) can hold
//! `Box<dyn WaitFreeQueue<u64>>` and `Box<dyn QueueHandle<u64>>` without
//! caring which algorithm sits behind them.
//!
//! # Example
//!
//! Drive the paper's wCQ through the trait — any other implementor could be
//! substituted without touching the worker code:
//!
//! ```
//! use wcq_core::api::{QueueHandle, WaitFreeQueue};
//! use wcq_core::wcq::WcqQueue;
//!
//! fn pump(queue: &dyn WaitFreeQueue<u64>, items: u64) -> u64 {
//!     // `handle()` registers the calling thread (RAII: the slot is released
//!     // when the handle drops at the end of this scope).
//!     let mut h = queue.handle();
//!     for i in 0..items {
//!         h.enqueue(i); // retries internally while a bounded queue is full
//!     }
//!     let mut sum = 0;
//!     while let Some(v) = h.dequeue() {
//!         sum += v;
//!     }
//!     sum
//! }
//!
//! let queue: WcqQueue<u64> = WcqQueue::new(6, 4);
//! assert_eq!(pump(&queue, 10), 45);
//! ```
//!
//! Constructing queues goes through the `wcq` umbrella crate's
//! `QueueBuilder` (`wcq::builder()`), which replaces the per-crate
//! constructor zoo; this module only defines the operational surface.

use crate::scq::ScqQueue;
use crate::wcq::{CellFamily, LlscFamily, RingFamily, WcqQueue, WcqQueueHandle};

/// A per-thread, RAII handle to a [`WaitFreeQueue`].
///
/// A handle is obtained from [`WaitFreeQueue::handle`] /
/// [`WaitFreeQueue::try_handle`]; for registration-based queues it owns one
/// thread-record slot for its lifetime and releases it on drop.  Handles are
/// intentionally **not** [`Send`] for the registration-based queues: the
/// facade memoizes the thread → record-slot binding thread-locally, and the
/// unbounded queue's handle additionally pins its last-touched segment.
pub trait QueueHandle<T> {
    /// Attempts to enqueue `value` without waiting; a bounded queue that is
    /// full returns the value back in `Err`.  Unbounded implementations never
    /// fail.
    fn try_enqueue(&mut self, value: T) -> Result<(), T>;

    /// Dequeues a value, or `None` when the queue was observed empty.
    fn dequeue(&mut self) -> Option<T>;

    /// Enqueues `value`, retrying while a bounded queue is momentarily full:
    /// bounded-exponential spinning first (a full queue usually drains within
    /// a few hundred cycles under a live consumer), a scheduler yield per
    /// attempt once the spin cap is reached (so a descheduled consumer gets
    /// the CPU).  This is the blocking-ish convenience the workloads use;
    /// latency-sensitive callers should prefer [`QueueHandle::try_enqueue`]
    /// and their own backpressure policy.
    ///
    /// Each retry passes through `Backoff::snooze_or_yield`'s `wcq-check`
    /// checkpoint seam, so the schedule explorer sees every wait iteration.
    fn enqueue(&mut self, value: T) {
        let mut item = value;
        let mut backoff = wcq_atomics::Backoff::new();
        while let Err(back) = self.try_enqueue(item) {
            item = back;
            backoff.snooze_or_yield();
        }
    }

    /// Enqueues a batch: accepts a prefix of `values` (removed from the
    /// front, in order) and returns the number accepted; the unaccepted
    /// remainder is left in `values`.
    ///
    /// **Partial-success contract.** A return value smaller than
    /// `values.len()` means the queue was full or a concurrent operation
    /// raced the batch reservation — both transient; callers that need the
    /// whole batch in retry the remainder (as [`QueueHandle::enqueue`] does
    /// per element).  A partial batch never reorders: the accepted prefix is
    /// enqueued in `values` order.
    ///
    /// **FIFO guarantee scope.** The batch preserves exactly the underlying
    /// queue's ordering guarantee — for FIFO queues, elements of one batch
    /// dequeue in batch order and batches from one handle dequeue in call
    /// order (per-producer FIFO); no ordering is added *across* concurrent
    /// producers.
    ///
    /// The default walks [`QueueHandle::try_enqueue`]; implementations with
    /// a cheaper bulk path (one ticket-run reservation per batch, one
    /// segment bind per batch, one shard pick per batch) override it.
    fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        let mut rest = std::mem::take(values).into_iter();
        let mut accepted = 0;
        for value in rest.by_ref() {
            match self.try_enqueue(value) {
                Ok(()) => accepted += 1,
                Err(back) => {
                    values.push(back);
                    values.extend(rest);
                    break;
                }
            }
        }
        accepted
    }

    /// Dequeues a batch: appends up to `max` values to `out` and returns the
    /// number appended.  Like a single [`QueueHandle::dequeue`] returning
    /// `None`, a short batch is a *racy* emptiness observation — elements
    /// may remain (or arrive) concurrently; callers poll again.  Appended
    /// values follow the underlying queue's dequeue order.
    ///
    /// The default loops [`QueueHandle::dequeue`]; bulk implementations
    /// override it to reserve the whole run at once.
    fn dequeue_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut got = 0;
        while got < max {
            match self.dequeue() {
                Some(value) => {
                    out.push(value);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }
}

/// A concurrent MPMC FIFO queue that threads operate on through registered
/// [`QueueHandle`]s.
///
/// The trait is object safe; `&dyn WaitFreeQueue<u64>` is the uniform type
/// the benchmark harness drives every algorithm of the paper through.
/// Progress guarantees differ per implementor (wCQ is wait-free, MSQueue is
/// lock-free, CCQueue is blocking) — the trait only fixes the usage model.
pub trait WaitFreeQueue<T>: Send + Sync {
    /// Display name matching the paper's figure legends (e.g. `"wCQ"`).
    fn name(&self) -> &'static str;

    /// Registers the calling thread and returns its handle, or `None` when
    /// all [`WaitFreeQueue::max_threads`] registration slots are taken.
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<T> + '_>>;

    /// Registers the calling thread and returns its handle.
    ///
    /// # Panics
    /// Panics when all registration slots are taken; size `max_threads` for
    /// the peak number of concurrently registered threads, or use
    /// [`WaitFreeQueue::try_handle`] to handle exhaustion gracefully.
    fn handle(&self) -> Box<dyn QueueHandle<T> + '_> {
        self.try_handle().unwrap_or_else(|| {
            panic!(
                "all {} registration slots of this {} queue are in use",
                self.max_threads(),
                self.name()
            )
        })
    }

    /// Maximum number of simultaneously registered threads
    /// (`usize::MAX` for queues that need no registration).
    fn max_threads(&self) -> usize;

    /// Bytes of memory attributable to the queue itself — static structures
    /// plus any growth statistics the implementation tracks (Figure 10a).
    fn memory_footprint(&self) -> usize;

    /// Cheap, racy emptiness hint: `true` when the queue *looked* empty at
    /// some recent instant, `false` when it held elements or the
    /// implementation keeps no counter to tell (the conservative default).
    ///
    /// The hint is advisory only — schedulers and routers use it to order
    /// their polling, never to decide correctness: a `true` can race with a
    /// concurrent enqueue, and a `false` with the final dequeue.  The only
    /// authoritative emptiness observation remains a [`QueueHandle::dequeue`]
    /// that returns `None`.
    ///
    /// Callers that change behaviour on the hint (e.g. an async receiver
    /// deciding whether to spin before parking) must first check
    /// [`WaitFreeQueue::has_empty_hint`]: for a backend without a real hint,
    /// the constant `false` here means "don't know", **not** "non-empty".
    fn is_empty_hint(&self) -> bool {
        false
    }

    /// Whether [`WaitFreeQueue::is_empty_hint`] is backed by a real
    /// observation of this queue's state.  The default is `false`: a backend
    /// that does not override the hint returns a constant `false` from it,
    /// and treating that constant as "non-empty" would make pollers spin
    /// forever (see the async receiver's park path).  Every queue in this
    /// workspace overrides both methods; the default exists for third-party
    /// implementors.
    fn has_empty_hint(&self) -> bool {
        false
    }
}

// --------------------------------------------------------------------------
// Thread-local tid memo
// --------------------------------------------------------------------------

/// The facade's thread → record-slot memo.
///
/// Registration-based queues probe for a free record slot; under handle churn
/// (register, drop, register again — the common pattern when short-lived
/// workers attach to a long-lived queue) a plain scan is O(`max_threads`) per
/// registration.  The memo remembers, per *thread*, the slot index it last
/// held on a given queue; `register` retries that exact slot first with a
/// single CAS, making re-entry O(1).  Entries are hints only: a stale entry
/// (slot since taken by another thread, or the queue freed and its address
/// reused) simply misses and the caller falls back to the hinted scan.
pub mod tid_memo {
    use core::cell::RefCell;

    /// Remembered `(queue address, tid)` pairs per thread, most recent first.
    const MEMO_SLOTS: usize = 16;

    thread_local! {
        static MEMO: RefCell<[(usize, usize); MEMO_SLOTS]> =
            const { RefCell::new([(0, 0); MEMO_SLOTS]) };
    }

    /// Returns the record slot this thread last held on the queue identified
    /// by `queue_addr` (use the queue's address: `queue as *const _ as usize`).
    pub fn recall(queue_addr: usize) -> Option<usize> {
        if queue_addr == 0 {
            return None;
        }
        MEMO.with(|memo| {
            let memo = memo.borrow();
            memo.iter()
                .find(|(addr, _)| *addr == queue_addr)
                .map(|&(_, tid)| tid)
        })
    }

    /// Records that this thread holds record slot `tid` on the queue at
    /// `queue_addr`, displacing the least recently used entry when full.
    pub fn remember(queue_addr: usize, tid: usize) {
        if queue_addr == 0 {
            return;
        }
        MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            // Move-to-front update; the array is tiny, so a rotate is cheap.
            let upto = memo
                .iter()
                .position(|(addr, _)| *addr == queue_addr)
                .unwrap_or(MEMO_SLOTS - 1);
            memo[..=upto].rotate_right(1);
            memo[0] = (queue_addr, tid);
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn recall_returns_last_remembered_tid() {
            remember(0x1000, 3);
            remember(0x2000, 5);
            assert_eq!(recall(0x1000), Some(3));
            assert_eq!(recall(0x2000), Some(5));
            remember(0x1000, 7);
            assert_eq!(recall(0x1000), Some(7));
            assert_eq!(recall(0x3000), None);
        }

        #[test]
        fn memo_is_bounded_and_evicts_lru() {
            for i in 0..MEMO_SLOTS + 4 {
                remember(0x9000 + i, i);
            }
            // The oldest entries fell out; the newest survive.
            assert_eq!(recall(0x9000), None);
            assert_eq!(recall(0x9000 + MEMO_SLOTS + 3), Some(MEMO_SLOTS + 3));
        }

        #[test]
        fn zero_address_is_ignored() {
            remember(0, 9);
            assert_eq!(recall(0), None);
        }
    }
}

// --------------------------------------------------------------------------
// Trait impls for this crate's queues
// --------------------------------------------------------------------------

impl<T: Send, F: CellFamily> QueueHandle<T> for WcqQueueHandle<'_, T, F> {
    fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        WcqQueueHandle::enqueue(self, value)
    }
    fn dequeue(&mut self) -> Option<T> {
        WcqQueueHandle::dequeue(self)
    }
    fn enqueue_many(&mut self, values: &mut Vec<T>) -> usize {
        WcqQueueHandle::enqueue_many(self, values)
    }
    fn dequeue_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        WcqQueueHandle::dequeue_many(self, out, max)
    }
}

impl<T: Send, F: CellFamily> WaitFreeQueue<T> for WcqQueue<T, F> {
    fn name(&self) -> &'static str {
        if F::NAME == LlscFamily::NAME {
            "wCQ (LL/SC)"
        } else {
            "wCQ"
        }
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<T> + '_>> {
        self.register().map(|h| Box::new(h) as _)
    }
    fn max_threads(&self) -> usize {
        WcqQueue::max_threads(self)
    }
    fn memory_footprint(&self) -> usize {
        WcqQueue::memory_footprint(self)
    }
    fn is_empty_hint(&self) -> bool {
        // The data ring's tail−head distance.  Slow-path retries can inflate
        // it (a non-empty reading for an empty queue — the conservative
        // direction), so it is a scheduling hint, not a drain oracle like the
        // unbounded kinds' maintained counters.
        WcqQueue::is_empty_hint(self)
    }
    fn has_empty_hint(&self) -> bool {
        true
    }
}

impl<T: Send> QueueHandle<T> for &ScqQueue<T> {
    fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        ScqQueue::enqueue(self, value)
    }
    fn dequeue(&mut self) -> Option<T> {
        ScqQueue::dequeue(self)
    }
}

impl<T: Send> WaitFreeQueue<T> for ScqQueue<T> {
    fn name(&self) -> &'static str {
        "SCQ"
    }
    fn try_handle(&self) -> Option<Box<dyn QueueHandle<T> + '_>> {
        // SCQ keeps no per-thread records; a "handle" is just shared access.
        Some(Box::new(self))
    }
    fn max_threads(&self) -> usize {
        usize::MAX
    }
    fn memory_footprint(&self) -> usize {
        ScqQueue::memory_footprint(self)
    }
    fn is_empty_hint(&self) -> bool {
        // Same caveat as wCQ's: retries inflate tail−head, so `false` can be
        // stale but `true` means a recent genuinely-empty observation.
        ScqQueue::is_empty_hint(self)
    }
    fn has_empty_hint(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcq_round_trips_through_the_trait() {
        let q: WcqQueue<u64> = WcqQueue::new(4, 2);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        let mut h = dynq.handle();
        h.enqueue(1);
        assert_eq!(h.try_enqueue(2), Ok(()));
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), None);
        assert_eq!(dynq.name(), "wCQ");
        assert!(dynq.memory_footprint() > 0);
    }

    #[test]
    fn batch_defaults_and_overrides_agree_through_the_trait() {
        // The wCQ handle overrides the batch methods (ticket-run
        // reservation); SCQ's shared-access handle uses the trait defaults.
        // Both must show identical prefix-acceptance semantics.
        let wcq: WcqQueue<u64> = WcqQueue::new(2, 1); // capacity 4
        let scq: ScqQueue<u64> = ScqQueue::new(2); // capacity 4
        for dynq in [
            &wcq as &dyn WaitFreeQueue<u64>,
            &scq as &dyn WaitFreeQueue<u64>,
        ] {
            let mut h = dynq.handle();
            let mut batch: Vec<u64> = (0..6).collect();
            let accepted = h.enqueue_many(&mut batch);
            assert_eq!(accepted, 4, "{}", dynq.name());
            assert_eq!(batch, vec![4, 5], "{}", dynq.name());
            let mut out = Vec::new();
            assert_eq!(h.dequeue_into(&mut out, 10), 4, "{}", dynq.name());
            assert_eq!(out, vec![0, 1, 2, 3], "{}", dynq.name());
            assert_eq!(h.dequeue_into(&mut out, 1), 0, "{}", dynq.name());
        }
    }

    #[test]
    fn hint_presence_is_reported_per_backend() {
        let q: WcqQueue<u64> = WcqQueue::new(4, 2);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        assert!(dynq.has_empty_hint());
        assert!(dynq.is_empty_hint());
        let scq: ScqQueue<u64> = ScqQueue::new(4);
        assert!((&scq as &dyn WaitFreeQueue<u64>).has_empty_hint());
    }

    #[test]
    fn wcq_try_enqueue_reports_full_through_the_trait() {
        let q: WcqQueue<u64> = WcqQueue::new(1, 1); // capacity 2
        let mut h = q.handle();
        assert_eq!(h.try_enqueue(1), Ok(()));
        assert_eq!(h.try_enqueue(2), Ok(()));
        assert_eq!(h.try_enqueue(3), Err(3));
    }

    #[test]
    fn trait_handles_are_raii_registrations() {
        let q: WcqQueue<u64> = WcqQueue::new(4, 1);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        let h = dynq.try_handle().expect("one slot free");
        assert!(dynq.try_handle().is_none(), "max_threads = 1");
        drop(h);
        assert!(dynq.try_handle().is_some(), "drop released the slot");
    }

    #[test]
    fn scq_is_unregistered_through_the_trait() {
        let q: ScqQueue<u64> = ScqQueue::new(4);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        assert_eq!(dynq.max_threads(), usize::MAX);
        let mut a = dynq.handle();
        let mut b = dynq.handle();
        a.enqueue(7);
        assert_eq!(b.dequeue(), Some(7));
    }

    #[test]
    fn llsc_wcq_reports_its_legend_name() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        let q: WcqQueue<u64, LlscFamily> = WcqQueue::new(4, 1);
        let dynq: &dyn WaitFreeQueue<u64> = &q;
        assert_eq!(dynq.name(), "wCQ (LL/SC)");
    }
}
