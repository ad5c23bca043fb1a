//! Michael & Scott's lock-free FIFO queue (the paper's "MSQueue" baseline).
//!
//! The classic two-pointer linked-list queue: enqueue appends at `tail` with a
//! CAS on the last node's `next` pointer, dequeue advances `head` with a CAS.
//! It is correct and portable but slow under contention because both CAS loops
//! hammer a single cache line — which is exactly why the paper uses it as the
//! "well-known but not very performant" baseline.
//!
//! Memory reclamation uses the hazard-pointer domain from `wcq-reclaim`, as in
//! the paper's benchmark ("hazard pointers elsewhere (LCRQ, MSQueue,
//! CRTurn)").

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, Ordering::SeqCst};

use wcq_reclaim::{HazardDomain, HazardHandle};

struct Node<T> {
    item: UnsafeCell<Option<T>>,
    next: AtomicPtr<Node<T>>,
}

impl<T> Node<T> {
    fn new(item: Option<T>) -> *mut Self {
        Box::into_raw(Box::new(Self {
            item: UnsafeCell::new(item),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }
}

/// Michael & Scott lock-free MPMC queue with hazard-pointer reclamation.
///
/// Unbounded: every enqueue allocates one node.  Threads register to obtain a
/// [`MsQueueHandle`] (the registration bound is the hazard-pointer domain
/// size).
pub struct MsQueue<T> {
    head: AtomicPtr<Node<T>>,
    tail: AtomicPtr<Node<T>>,
    domain: HazardDomain,
}

// SAFETY: nodes are only freed through the hazard-pointer domain after they
// become unreachable; item ownership transfers with head advancement.
unsafe impl<T: Send> Send for MsQueue<T> {}
unsafe impl<T: Send> Sync for MsQueue<T> {}

impl<T> MsQueue<T> {
    /// Creates an empty queue usable by up to `max_threads` registered
    /// threads.
    pub fn new(max_threads: usize) -> Self {
        let sentinel = Node::new(None);
        Self {
            head: AtomicPtr::new(sentinel),
            tail: AtomicPtr::new(sentinel),
            domain: HazardDomain::new(max_threads, 2),
        }
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.domain.max_threads()
    }

    /// Registers the calling thread.
    pub fn register(&self) -> Option<MsQueueHandle<'_, T>> {
        Some(MsQueueHandle {
            queue: self,
            hp: self.domain.register()?,
        })
    }

    /// Racy emptiness hint: `head == tail` holds exactly when both point at
    /// the sentinel (empty queue) or while an enqueue's tail swing is still
    /// in flight — a pointer compare, never a dereference, so it needs no
    /// hazard protection.
    pub fn is_empty_hint(&self) -> bool {
        self.head.load(SeqCst) == self.tail.load(SeqCst)
    }
}

impl<T> Drop for MsQueue<T> {
    fn drop(&mut self) {
        // Walk the remaining list, dropping items and nodes.
        let mut cur = self.head.load(SeqCst);
        while !cur.is_null() {
            // SAFETY: exclusive access in Drop; each node freed exactly once.
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed.next.load(SeqCst);
        }
    }
}

/// Per-thread handle to an [`MsQueue`].
pub struct MsQueueHandle<'q, T> {
    queue: &'q MsQueue<T>,
    hp: HazardHandle<'q>,
}

impl<'q, T> MsQueueHandle<'q, T> {
    /// Enqueues `value` at the tail.
    pub fn enqueue(&mut self, value: T) {
        let node = Node::new(Some(value));
        loop {
            let ltail = self.hp.protect(0, &self.queue.tail);
            // SAFETY: ltail is protected, hence not freed.
            let next = unsafe { (*ltail).next.load(SeqCst) };
            if ltail != self.queue.tail.load(SeqCst) {
                continue;
            }
            if !next.is_null() {
                // Help swing the tail forward.
                let _ = self
                    .queue
                    .tail
                    .compare_exchange(ltail, next, SeqCst, SeqCst);
                continue;
            }
            // SAFETY: ltail protected; CAS publishes our node.
            if unsafe { &(*ltail).next }
                .compare_exchange(std::ptr::null_mut(), node, SeqCst, SeqCst)
                .is_ok()
            {
                let _ = self
                    .queue
                    .tail
                    .compare_exchange(ltail, node, SeqCst, SeqCst);
                self.hp.clear();
                return;
            }
        }
    }

    /// Dequeues from the head; `None` when empty.
    pub fn dequeue(&mut self) -> Option<T> {
        loop {
            let lhead = self.hp.protect(0, &self.queue.head);
            // SAFETY: lhead protected.
            let next = self.hp.protect(1, unsafe { &(*lhead).next });
            if lhead != self.queue.head.load(SeqCst) {
                continue;
            }
            if next.is_null() {
                self.hp.clear();
                return None;
            }
            let ltail = self.queue.tail.load(SeqCst);
            if lhead == ltail {
                // Tail is lagging; help it forward and retry.
                let _ = self
                    .queue
                    .tail
                    .compare_exchange(ltail, next, SeqCst, SeqCst);
                continue;
            }
            if self
                .queue
                .head
                .compare_exchange(lhead, next, SeqCst, SeqCst)
                .is_ok()
            {
                // SAFETY: we won the CAS, so `next` is the new sentinel and we
                // are the only thread allowed to take its item; `next` is
                // protected by hazard slot 1.
                let value = unsafe { (*(*next).item.get()).take() };
                self.hp.clear();
                // SAFETY: lhead is now unreachable from the queue and was
                // produced by Box::into_raw; retired exactly once by the CAS
                // winner.
                unsafe { self.hp.retire(lhead) };
                return value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_single_thread() {
        let q: MsQueue<u64> = MsQueue::new(2);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn registration_limit() {
        let q: MsQueue<u64> = MsQueue::new(1);
        let h = q.register().unwrap();
        assert!(q.register().is_none());
        drop(h);
        assert!(q.register().is_some());
    }

    #[test]
    fn drop_frees_remaining_nodes() {
        use std::sync::Arc;
        let probe = Arc::new(());
        {
            let q: MsQueue<Arc<()>> = MsQueue::new(1);
            let mut h = q.register().unwrap();
            for _ in 0..10 {
                h.enqueue(Arc::clone(&probe));
            }
            drop(h);
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn mpmc_stress_sum_preserved() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let q: MsQueue<u64> = MsQueue::new(THREADS as usize);
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
                    // Drain whatever remains.
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
