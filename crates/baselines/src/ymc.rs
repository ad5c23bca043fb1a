//! YMC — Yang & Mellor-Crummey's wait-free queue (reproduced shape).
//!
//! YMC implements the "infinite array queue" (Figure 1 of the wCQ paper) with
//! fetch-and-add tickets over a linked list of fixed-size segments, plus a
//! helping scheme for wait-freedom.  The wCQ paper's role for YMC is twofold:
//! it is the fast F&A-based competitor, and it is the cautionary tale — its
//! memory reclamation is flawed ("strictly described, forfeits wait-freedom")
//! and its memory usage grows with the number of segments.
//!
//! ## Reproduction scope (documented simplification)
//!
//! This reproduction keeps the parts of YMC that the paper's evaluation
//! actually exercises:
//!
//! * the F&A ticket dispensers over an unbounded, segment-linked infinite
//!   array (throughput shape), and
//! * unbounded segment allocation with no mid-run reclamation (memory-growth
//!   shape, Figure 10a; the original's reclamation is the very part the paper
//!   calls flawed — here segments are reclaimed only when the queue drops,
//!   which makes the growth explicit and measurable).
//!
//! The peer-helping machinery that patches the infinite-array livelock is
//! *not* reproduced; like the original Figure 1 queue, pathological schedules
//! can livelock.  DESIGN.md lists this as a substitution; the benchmarks only
//! rely on the throughput/memory shape.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};

use wcq_atomics::CachePadded;

/// Reserved sentinel: slot never written by an enqueuer.
const SLOT_EMPTY: u64 = u64::MAX;
/// Reserved sentinel: slot invalidated by a dequeuer that arrived early.
const SLOT_TAKEN: u64 = u64::MAX - 1;
/// Largest enqueueable value.
pub const MAX_VALUE: u64 = u64::MAX - 2;

/// Number of cells per segment (the original uses 1024-cell segments).
const SEGMENT_CELLS: u64 = 1024;

struct Segment {
    id: u64,
    cells: Box<[AtomicU64]>,
    next: AtomicPtr<Segment>,
}

impl Segment {
    fn new(id: u64) -> *mut Segment {
        Box::into_raw(Box::new(Segment {
            id,
            cells: (0..SEGMENT_CELLS)
                .map(|_| AtomicU64::new(SLOT_EMPTY))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }
}

/// The YMC-shaped segment queue of `u64` values.
///
/// Unbounded; does not require registration (no per-thread state is needed for
/// the reproduced subset).
pub struct YmcQueue {
    head_ticket: CachePadded<AtomicU64>,
    tail_ticket: CachePadded<AtomicU64>,
    /// First segment ever allocated (segments are only freed on drop).
    first: AtomicPtr<Segment>,
    /// Hints that usually point close to the segments in use.
    head_hint: AtomicPtr<Segment>,
    tail_hint: AtomicPtr<Segment>,
    segments: AtomicUsize,
}

unsafe impl Send for YmcQueue {}
unsafe impl Sync for YmcQueue {}

impl YmcQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let first = Segment::new(0);
        Self {
            head_ticket: CachePadded::new(AtomicU64::new(0)),
            tail_ticket: CachePadded::new(AtomicU64::new(0)),
            first: AtomicPtr::new(first),
            head_hint: AtomicPtr::new(first),
            tail_hint: AtomicPtr::new(first),
            segments: AtomicUsize::new(1),
        }
    }

    /// Segments allocated, all held until drop (the Figure 10a statistic).
    pub fn segments(&self) -> usize {
        self.segments.load(SeqCst)
    }

    /// Racy emptiness hint: the dequeue ticket has caught up with the
    /// enqueue ticket.  Two counter loads, no segment access.
    pub fn is_empty_hint(&self) -> bool {
        self.head_ticket.load(SeqCst) >= self.tail_ticket.load(SeqCst)
    }

    /// Approximate bytes held by the queue's segments.
    pub fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.segments()
                * (std::mem::size_of::<Segment>()
                    + SEGMENT_CELLS as usize * std::mem::size_of::<AtomicU64>())
    }

    /// Finds (allocating on demand) the segment containing `ticket`, starting
    /// from `hint`.
    fn find_cell<'a>(&'a self, hint: &AtomicPtr<Segment>, ticket: u64) -> &'a AtomicU64 {
        let seg_id = ticket / SEGMENT_CELLS;
        let mut cur = hint.load(SeqCst);
        // The hint may be stale (pointing to an earlier segment) but never
        // dangling: segments are only freed when the queue drops.
        // SAFETY: see above.
        unsafe {
            if (*cur).id > seg_id {
                cur = self.first.load(SeqCst);
            }
            while (*cur).id < seg_id {
                let mut next = (*cur).next.load(SeqCst);
                if next.is_null() {
                    let fresh = Segment::new((*cur).id + 1);
                    match (*cur)
                        .next
                        .compare_exchange(std::ptr::null_mut(), fresh, SeqCst, SeqCst)
                    {
                        Ok(_) => {
                            self.segments.fetch_add(1, SeqCst);
                            next = fresh;
                        }
                        Err(existing) => {
                            drop(Box::from_raw(fresh));
                            next = existing;
                        }
                    }
                }
                cur = next;
            }
            hint.store(cur, SeqCst);
            &(*cur).cells[(ticket % SEGMENT_CELLS) as usize]
        }
    }

    /// Enqueues `value` (must be `<= MAX_VALUE`).
    pub fn enqueue(&self, value: u64) {
        assert!(
            value <= MAX_VALUE,
            "the two largest u64 values are reserved"
        );
        loop {
            let t = self.tail_ticket.fetch_add(1, SeqCst);
            let cell = self.find_cell(&self.tail_hint, t);
            // The infinite-array XCHG: succeed if the dequeuer did not get
            // here first (Figure 1 of the wCQ paper).
            if cell.swap(value, SeqCst) == SLOT_EMPTY {
                return;
            }
        }
    }

    /// Dequeues a value; `None` when the queue is empty.
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let h = self.head_ticket.fetch_add(1, SeqCst);
            let cell = self.find_cell(&self.head_hint, h);
            let v = cell.swap(SLOT_TAKEN, SeqCst);
            if v != SLOT_EMPTY && v != SLOT_TAKEN {
                return Some(v);
            }
            if self.tail_ticket.load(SeqCst) <= h + 1 {
                return None;
            }
        }
    }
}

impl Default for YmcQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for YmcQueue {
    fn drop(&mut self) {
        let mut cur = self.first.load(SeqCst);
        while !cur.is_null() {
            // SAFETY: exclusive access during drop; each segment freed once.
            let seg = unsafe { Box::from_raw(cur) };
            cur = seg.next.load(SeqCst);
        }
    }
}

impl std::fmt::Debug for YmcQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("YmcQueue")
            .field("head", &self.head_ticket.load(SeqCst))
            .field("tail", &self.tail_ticket.load(SeqCst))
            .field("segments", &self.segments())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};

    #[test]
    fn fifo_single_thread() {
        let q = YmcQueue::new();
        assert_eq!(q.dequeue(), None);
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn segments_grow_with_usage() {
        let q = YmcQueue::new();
        for i in 0..(3 * SEGMENT_CELLS) {
            q.enqueue(i % 1000);
        }
        assert!(q.segments() >= 3);
        // Memory is not reclaimed mid-run — that is the reproduced YMC flaw.
        while q.dequeue().is_some() {}
        assert!(q.segments() >= 3);
    }

    #[test]
    fn empty_dequeues_after_churn_return_none() {
        let q = YmcQueue::new();
        for round in 0..50 {
            q.enqueue(round);
            assert_eq!(q.dequeue(), Some(round));
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn mpmc_stress_sum_preserved() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let q = YmcQueue::new();
        let sum = StdAtomicU64::new(0);
        let count = StdAtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = &q;
                let sum = &sum;
                let count = &count;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        q.enqueue(t * PER_THREAD + i);
                        if let Some(v) = q.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    while let Some(v) = q.dequeue() {
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
