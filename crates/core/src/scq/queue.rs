//! The user-facing SCQ data queue: two index rings plus a data array
//! (the indirection scheme of Figure 2).

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;

use super::ScqRing;

/// A bounded, lock-free MPMC FIFO queue of `T` with capacity `2^order`.
///
/// Values are stored out-of-band in a data array; the `fq` ring circulates
/// free slot indices and the `aq` ring circulates allocated ones, exactly as
/// `Enqueue_Ptr` / `Dequeue_Ptr` in Figure 2 of the paper.  Because at most
/// `capacity` indices ever circulate, neither ring can overflow, which is what
/// lets SCQ's `Enqueue` skip the full check.
///
/// All operations take `&self`; the queue is `Sync` for `T: Send`.
pub struct ScqQueue<T> {
    aq: ScqRing,
    fq: ScqRing,
    data: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: slots are handed between threads through the rings; a slot index is
// owned either by the enqueuer that dequeued it from `fq` (until it is pushed
// to `aq`) or by the dequeuer that dequeued it from `aq` (until it is pushed
// back to `fq`).  Sequentially consistent ring operations order the data
// accesses on either side of the transfer.
unsafe impl<T: Send> Send for ScqQueue<T> {}
unsafe impl<T: Send> Sync for ScqQueue<T> {}

impl<T> ScqQueue<T> {
    /// Creates a queue with capacity `2^order` elements.
    pub fn new(order: u32) -> Self {
        let aq = ScqRing::new(order);
        let fq = ScqRing::new_full(order);
        let capacity = aq.capacity() as usize;
        let data = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { aq, fq, data }
    }

    /// Maximum number of elements the queue can hold.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Attempts to enqueue `value`; returns it back inside `Err` when the
    /// queue is full.
    pub fn enqueue(&self, value: T) -> Result<(), T> {
        // Dequeue a free slot index; an empty `fq` means the queue is full.
        let Some(index) = self.fq.dequeue() else {
            return Err(value);
        };
        // SAFETY: the slot index was obtained from `fq`, so no other thread
        // owns it until we publish it through `aq`.
        unsafe { (*self.data[index as usize].get()).write(value) };
        self.aq.enqueue(index);
        Ok(())
    }

    /// Attempts to dequeue an element; returns `None` when the queue is
    /// empty.
    pub fn dequeue(&self) -> Option<T> {
        let index = self.aq.dequeue()?;
        // SAFETY: the slot index came from `aq`, so the matching enqueuer has
        // fully initialized it and nobody else will touch it until we release
        // it back to `fq`.
        let value = unsafe { (*self.data[index as usize].get()).assume_init_read() };
        self.fq.enqueue(index);
        Some(value)
    }

    /// Returns `true` if a dequeue would currently observe an empty queue.
    /// Only a hint under concurrency.
    pub fn is_empty_hint(&self) -> bool {
        self.aq.len_hint() == 0
    }

    /// Bytes of memory occupied by the queue (rings + data array), used by the
    /// Figure 10a memory benchmark.
    pub fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.aq.heap_bytes()
            + self.fq.heap_bytes()
            + self.data.len() * std::mem::size_of::<UnsafeCell<MaybeUninit<T>>>()
    }
}

impl<T> Drop for ScqQueue<T> {
    fn drop(&mut self) {
        // Drain and drop any remaining elements.
        while let Some(index) = self.aq.dequeue() {
            // SAFETY: same ownership argument as `dequeue`; we have `&mut
            // self`, so no concurrent access exists.
            unsafe { (*self.data[index as usize].get()).assume_init_drop() };
        }
    }
}

impl<T> std::fmt::Debug for ScqQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScqQueue")
            .field("capacity", &self.capacity())
            .field("aq", &self.aq)
            .field("fq", &self.fq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::xorshift;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn enqueue_dequeue_roundtrip() {
        let q: ScqQueue<String> = ScqQueue::new(3);
        q.enqueue("a".to_string()).unwrap();
        q.enqueue("b".to_string()).unwrap();
        assert_eq!(q.dequeue().as_deref(), Some("a"));
        assert_eq!(q.dequeue().as_deref(), Some("b"));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn full_queue_rejects_and_returns_value() {
        let q: ScqQueue<u32> = ScqQueue::new(2); // capacity 4
        for i in 0..4 {
            q.enqueue(i).unwrap();
        }
        assert_eq!(q.enqueue(99), Err(99));
        assert_eq!(q.dequeue(), Some(0));
        q.enqueue(99).unwrap();
        assert_eq!(q.capacity(), 4);
    }

    #[test]
    fn drop_releases_remaining_elements() {
        use std::rc::Rc;
        let probe = Rc::new(());
        {
            let q: ScqQueue<Rc<()>> = ScqQueue::new(3);
            for _ in 0..5 {
                q.enqueue(Rc::clone(&probe)).unwrap();
            }
            assert_eq!(Rc::strong_count(&probe), 6);
            // q drops here.
        }
        assert_eq!(Rc::strong_count(&probe), 1);
    }

    #[test]
    fn wraparound_does_not_lose_elements() {
        let q: ScqQueue<u64> = ScqQueue::new(2);
        for i in 0..1_000u64 {
            q.enqueue(i).unwrap();
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn mpmc_stress_sum_preserved() {
        const PRODUCERS: u64 = 3;
        const CONSUMERS: u64 = 3;
        const PER_PRODUCER: u64 = 10_000;
        let q: ScqQueue<u64> = ScqQueue::new(7);
        let consumed_sum = AtomicU64::new(0);
        let consumed_cnt = AtomicU64::new(0);

        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i;
                        loop {
                            match q.enqueue(v) {
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
                s.spawn(move || loop {
                    if consumed_cnt.load(Ordering::Relaxed) >= PRODUCERS * PER_PRODUCER {
                        break;
                    }
                    match q.dequeue() {
                        Some(v) => {
                            consumed_sum.fetch_add(v, Ordering::Relaxed);
                            consumed_cnt.fetch_add(1, Ordering::Relaxed);
                        }
                        None => std::thread::yield_now(),
                    }
                });
            }
        });

        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(consumed_cnt.load(Ordering::Relaxed), n);
        assert_eq!(consumed_sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        const PER_PRODUCER: u64 = 5_000;
        let q: ScqQueue<(u64, u64)> = ScqQueue::new(6);
        let mut last_seen = [0u64; 2];

        std::thread::scope(|s| {
            for p in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 1..=PER_PRODUCER {
                        let mut item = (p, i);
                        while let Err(back) = q.enqueue(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // Single consumer checks that each producer's sequence numbers
            // arrive in increasing order (FIFO per producer).
            let q = &q;
            let last_seen = &mut last_seen;
            s.spawn(move || {
                let mut got = 0;
                while got < 2 * PER_PRODUCER {
                    if let Some((p, i)) = q.dequeue() {
                        assert!(i > last_seen[p as usize], "per-producer order violated");
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
    /// sequences (bounded capacity included), across many seeds and orders.
    #[test]
    fn sequential_matches_model_randomized() {
        for seed in 1..=64u64 {
            for order in 1..=4u32 {
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let len = 1 + (xorshift(&mut state) % 300) as usize;
                let q: ScqQueue<u64> = ScqQueue::new(order);
                let mut model: VecDeque<u64> = VecDeque::new();
                let cap = q.capacity();
                let mut next = 0u64;
                for _ in 0..len {
                    if xorshift(&mut state) & 1 == 0 {
                        let res = q.enqueue(next);
                        if model.len() < cap {
                            assert!(res.is_ok(), "seed {seed} order {order}");
                            model.push_back(next);
                        } else {
                            assert_eq!(res, Err(next), "seed {seed} order {order}");
                        }
                        next += 1;
                    } else {
                        assert_eq!(q.dequeue(), model.pop_front(), "seed {seed} order {order}");
                    }
                }
                // Drain and compare the tail of the model.
                while let Some(expect) = model.pop_front() {
                    assert_eq!(q.dequeue(), Some(expect), "seed {seed} order {order}");
                }
                assert_eq!(q.dequeue(), None, "seed {seed} order {order}");
            }
        }
    }
}
