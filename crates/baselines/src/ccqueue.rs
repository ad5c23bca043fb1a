//! CCQueue — a combining queue (the paper's "CCQueue" baseline).
//!
//! Fatourou & Kallimanis' CC-Synch combining approach: instead of every thread
//! fighting over the queue's head/tail with CAS, threads *publish* their
//! operation in a per-thread announcement slot and a single *combiner* thread
//! applies a whole batch of pending operations to a sequential queue, writing
//! results back into the slots.  The technique is **not** non-blocking (a
//! stalled combiner blocks everyone — which is exactly the distinction the
//! paper draws) but achieves good throughput because the sequential queue is
//! touched by one thread at a time.
//!
//! This reproduction keeps the combining structure (announce → combine →
//! collect) with a mutex electing the combiner, which matches the progress
//! class (blocking, combining) the paper assigns to CCQueue.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::Mutex;

use wcq_atomics::{CachePadded, Registry};

/// No operation published.
const IDLE: u8 = 0;
/// An enqueue request is pending.
const ENQ: u8 = 1;
/// A dequeue request is pending.
const DEQ: u8 = 2;
/// The combiner finished the request; the result is available.
const DONE: u8 = 3;

struct Slot<T> {
    state: AtomicU8,
    value: UnsafeCell<Option<T>>,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Self {
            state: AtomicU8::new(IDLE),
            value: UnsafeCell::new(None),
        }
    }
}

/// The combining queue.
///
/// Unbounded FIFO; threads register to obtain a [`CcQueueHandle`] bound to
/// one announcement slot.
pub struct CcQueue<T> {
    slots: Box<[CachePadded<Slot<T>>]>,
    registry: Registry,
    inner: Mutex<VecDeque<T>>,
}

// SAFETY: a slot's `value` cell is only touched by its owning thread while the
// slot state is IDLE/DONE, and only by the combiner while it is ENQ/DEQ; the
// state transitions (SeqCst) order those accesses.
unsafe impl<T: Send> Send for CcQueue<T> {}
unsafe impl<T: Send> Sync for CcQueue<T> {}

impl<T> CcQueue<T> {
    /// Creates a queue with `max_threads` announcement slots.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        Self {
            slots: (0..max_threads)
                .map(|_| CachePadded::new(Slot::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            registry: Registry::new(max_threads),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.registry.capacity()
    }

    /// Registers the calling thread.
    pub fn register(&self) -> Option<CcQueueHandle<'_, T>> {
        let tid = self.registry.claim()?;
        Some(CcQueueHandle { queue: self, tid })
    }

    /// Current number of stored elements (approximate under concurrency).
    pub fn len_hint(&self) -> usize {
        // A poisoned lock only means a combiner panicked mid-batch; the
        // VecDeque itself is still structurally valid, so keep serving
        // rather than hanging every other thread.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// Serve every pending announcement.  Called with the combiner lock held.
    fn combine(&self, inner: &mut VecDeque<T>) {
        for slot in self.slots.iter() {
            match slot.state.load(SeqCst) {
                ENQ => {
                    // SAFETY: the owner published the value and will not touch
                    // the cell until we flip the state to DONE.
                    let value = unsafe { (*slot.value.get()).take() };
                    if let Some(v) = value {
                        inner.push_back(v);
                    }
                    slot.state.store(DONE, SeqCst);
                }
                DEQ => {
                    let result = inner.pop_front();
                    // SAFETY: as above — exclusive access while state is DEQ.
                    unsafe { *slot.value.get() = result };
                    slot.state.store(DONE, SeqCst);
                }
                _ => {}
            }
        }
    }
}

/// Per-thread handle to a [`CcQueue`].
pub struct CcQueueHandle<'q, T> {
    queue: &'q CcQueue<T>,
    tid: usize,
}

impl<'q, T> CcQueueHandle<'q, T> {
    fn run_operation(&mut self, op: u8, value: Option<T>) -> Option<T> {
        let slot = &self.queue.slots[self.tid];
        // Publish the request.
        // SAFETY: the slot is IDLE/DONE, so only this thread touches the cell.
        unsafe { *slot.value.get() = value };
        slot.state.store(op, SeqCst);
        // Either combine ourselves or wait for a combiner to serve us.
        loop {
            if slot.state.load(SeqCst) == DONE {
                break;
            }
            match self.queue.inner.try_lock() {
                Ok(mut inner) => self.queue.combine(&mut inner),
                // Recover from a combiner that panicked while holding the
                // lock: std mutexes poison, and treating Poisoned as "busy"
                // would spin every announcing thread forever.
                Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                    self.queue.combine(&mut poisoned.into_inner());
                }
                Err(std::sync::TryLockError::WouldBlock) => std::hint::spin_loop(),
            }
        }
        slot.state.store(IDLE, SeqCst);
        // SAFETY: state DONE → the combiner has finished writing the cell.
        unsafe { (*slot.value.get()).take() }
    }

    /// Enqueues `value` (unbounded, never fails).
    pub fn enqueue(&mut self, value: T) {
        let _ = self.run_operation(ENQ, Some(value));
    }

    /// Dequeues an element; `None` when the queue was empty at combine time.
    pub fn dequeue(&mut self) -> Option<T> {
        self.run_operation(DEQ, None)
    }
}

impl<'q, T> Drop for CcQueueHandle<'q, T> {
    fn drop(&mut self) {
        // SAFETY: the handle holds `tid` from `register` until here.
        unsafe { self.queue.registry.release(self.tid) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_single_thread() {
        let q: CcQueue<u64> = CcQueue::new(2);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..50 {
            h.enqueue(i);
        }
        for i in 0..50 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn registration_limit_and_reuse() {
        let q: CcQueue<u8> = CcQueue::new(1);
        let h = q.register().unwrap();
        assert!(q.register().is_none());
        drop(h);
        assert!(q.register().is_some());
    }

    #[test]
    fn mpmc_stress_sum_preserved() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let q: CcQueue<u64> = CcQueue::new(THREADS as usize);
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
}
