//! The SCQ ring of indices: Figure 3 with nothing added.

use core::sync::atomic::{AtomicU64, Ordering::SeqCst};

use crate::ring::{Deq, Ring};
use crate::wcq::cells::{RingFamily, TicketCtr, ValueCell};

/// Single-word cells: an entry is its `Value`, `Head`/`Tail` are bare
/// counters.  All SCQ needs — there is no `Note` and no help reference.
pub struct WordFamily;

impl ValueCell for AtomicU64 {
    fn new(value: u64) -> Self {
        AtomicU64::new(value)
    }
    #[inline]
    fn load_value(&self) -> u64 {
        self.load(SeqCst)
    }
    #[inline]
    fn cas_value(&self, expected: u64, new: u64) -> bool {
        self.compare_exchange(expected, new, SeqCst, SeqCst).is_ok()
    }
    #[inline]
    fn or_value(&self, bits: u64) -> u64 {
        self.fetch_or(bits, SeqCst)
    }
}

impl TicketCtr for AtomicU64 {
    fn new(init: u64) -> Self {
        AtomicU64::new(init)
    }
    #[inline]
    fn load_cnt(&self) -> u64 {
        self.load(SeqCst)
    }
    #[inline]
    fn fetch_add_cnt(&self) -> u64 {
        self.fetch_add(1, SeqCst)
    }
    #[inline]
    fn fetch_add_cnt_n(&self, n: u64) -> u64 {
        self.fetch_add(n, SeqCst)
    }
    #[inline]
    fn cas_cnt_weak(&self, expected_cnt: u64, new_cnt: u64) -> bool {
        self.compare_exchange(expected_cnt, new_cnt, SeqCst, SeqCst)
            .is_ok()
    }
}

impl RingFamily for WordFamily {
    type Entry = AtomicU64;
    type Ctr = AtomicU64;
    const NAME: &'static str = "native-word";
}

/// The lock-free SCQ circular ring of *indices*: [`Ring`] over single-word
/// cells, with no slow-path state and no hooks.
///
/// The ring stores `u64` values in `[0, capacity)`; storing arbitrary data is
/// the job of [`super::ScqQueue`], which combines two rings (`aq`, `fq`) with
/// a data array.  The ring is operation-wise lock-free: some enqueuer and some
/// dequeuer always completes in a finite number of steps (the property wCQ's
/// slow path relies on, Lemma 5.3).
pub type ScqRing = Ring<WordFamily, ()>;

impl ScqRing {
    /// Creates an empty ring with usable capacity `2^order`.
    pub fn new(order: u32) -> Self {
        Self::empty(order, ())
    }

    /// Creates a ring pre-filled with the indices `0..capacity` — the initial
    /// state of the `fq` free-index ring in the indirection scheme.
    pub fn new_full(order: u32) -> Self {
        Self::new(order).full()
    }

    /// Enqueues `index`, retrying tickets until the insertion succeeds
    /// (`Enqueue_SCQ`).  The ring must not already hold `capacity()` values.
    pub fn enqueue(&self, index: u64) {
        while !self.try_enq(self.tail.fetch_add_cnt(), index, ()) {}
    }

    /// Dequeues an index (`Dequeue_SCQ`): returns `None` when the ring is
    /// empty.
    pub fn dequeue(&self) -> Option<u64> {
        if self.threshold() < 0 {
            return None; // Fast empty check.
        }
        self.dequeue_tickets()
    }

    /// The ticket loop of `Dequeue_SCQ`.  Out of line so that the empty
    /// answer above stays one load and a branch: inlined, the attempt's
    /// register saves would run before the threshold is even read.
    #[inline(never)]
    fn dequeue_tickets(&self) -> Option<u64> {
        loop {
            match self.try_deq(self.head.fetch_add_cnt(), ()) {
                Deq::Got(index) => return Some(index),
                Deq::Empty => return None,
                Deq::Retry => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_dequeues_none() {
        let r = ScqRing::new(3);
        assert_eq!(r.dequeue(), None);
        assert_eq!(r.dequeue(), None);
        assert_eq!(r.threshold(), -1);
    }

    #[test]
    fn fifo_order_single_thread() {
        let r = ScqRing::new(4);
        for i in 0..r.capacity() {
            r.enqueue(i);
        }
        for i in 0..r.capacity() {
            assert_eq!(r.dequeue(), Some(i));
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn new_full_contains_every_index_once() {
        let r = ScqRing::new(5);
        let mut seen = vec![false; r.capacity() as usize];
        while let Some(i) = r.dequeue() {
            assert!(!seen[i as usize], "index {i} duplicated");
            seen[i as usize] = true;
        }
        // An empty "full" ring was never constructed here; build one properly.
        let full = ScqRing::new_full(5);
        let mut seen = vec![false; full.capacity() as usize];
        for _ in 0..full.capacity() {
            let i = full.dequeue().expect("full ring must yield capacity items");
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(full.dequeue(), None);
    }

    #[test]
    fn wraparound_many_cycles() {
        let r = ScqRing::new(2); // capacity 4, so 100 ops wrap many cycles
        for round in 0..100u64 {
            r.enqueue(round % 4);
            assert_eq!(r.dequeue(), Some(round % 4));
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn alternating_partial_fill_preserves_fifo() {
        let r = ScqRing::new(3); // capacity 8
        let mut expected = std::collections::VecDeque::new();
        let mut next = 0u64;
        for step in 0..200 {
            if step % 3 != 0 && (expected.len() as u64) < r.capacity() {
                let v = next % r.capacity();
                next += 1;
                r.enqueue(v);
                expected.push_back(v);
            } else {
                assert_eq!(r.dequeue(), expected.pop_front());
            }
        }
        while let Some(v) = expected.pop_front() {
            assert_eq!(r.dequeue(), Some(v));
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn threshold_resets_on_enqueue_and_decays_on_empty_dequeues() {
        let r = ScqRing::new(3);
        r.enqueue(1);
        assert_eq!(r.threshold(), r.layout().max_threshold());
        assert_eq!(r.dequeue(), Some(1));
        // Repeated empty dequeues keep returning None without wrapping around
        // the ring forever (threshold mechanism).
        for _ in 0..100 {
            assert_eq!(r.dequeue(), None);
        }
    }

    #[test]
    fn mpmc_stress_no_loss_no_duplication() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 5_000;
        let r = ScqRing::new(6); // capacity 64 indices: values must stay < 64
        let produced = AtomicU64::new(0);
        let consumed_count = AtomicU64::new(0);
        let histogram: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();

        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                s.spawn(|| {
                    let mut sent = 0;
                    while sent < PER_PRODUCER {
                        let v = sent % 64;
                        // Respect the capacity discipline: only enqueue when
                        // the ring has room (len hint is conservative here
                        // because every producer checks before enqueuing).
                        if r.len_hint() < 48 {
                            r.enqueue(v);
                            produced.fetch_add(1, Ordering::Relaxed);
                            sent += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                s.spawn(|| loop {
                    if consumed_count.load(Ordering::Relaxed) >= PRODUCERS as u64 * PER_PRODUCER {
                        break;
                    }
                    if let Some(v) = r.dequeue() {
                        histogram[v as usize].fetch_add(1, Ordering::Relaxed);
                        consumed_count.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });

        let total: u64 = histogram.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, PRODUCERS as u64 * PER_PRODUCER);
        assert_eq!(r.dequeue(), None);
    }
}
