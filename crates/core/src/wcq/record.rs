//! Per-thread helping records (`thrdrec_t` and `phase2rec_t`, Figure 4).
//!
//! wCQ avoids all dynamic allocation on the slow path: the only state a help
//! request needs is a fixed-size record per registered thread, stored inline
//! in the ring.  A record's *shared* fields describe an outstanding request
//! (enqueue or dequeue, the starting tail/head ticket, the value to insert)
//! and are double-checked with a `seq1`/`seq2` pair so helpers never act on a
//! torn snapshot.  The *private* fields drive the helping round-robin
//! (`nextCheck` / `nextTid`) and are only touched by the owning thread, so
//! they are accessed `Relaxed` (the "private cursor" block of
//! [`ThreadRecord`]).
//!
//! The `localTail` / `localHead` words carry two flag bits above the counter:
//!
//! * [`FIN`] — the request is finished; any cooperative thread stuck in
//!   `slow_F&A` must exit (Lemma 5.4/5.5).
//! * [`INC`] — phase 1 of `slow_F&A` has stored the next counter value but the
//!   global counter has not been advanced/confirmed yet (phase 2 pending).

use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};

/// "Request finished" flag bit within `localTail` / `localHead`.
pub const FIN: u64 = 1 << 63;
/// "Phase-1 increment pending" flag bit within `localTail` / `localHead`.
pub const INC: u64 = 1 << 62;
/// Mask extracting the counter below the flag bits (the paper's `Counter()`).
pub const COUNTER_MASK: u64 = INC - 1;

/// Extracts the counter portion of a local tail/head word.
#[inline]
pub fn counter(v: u64) -> u64 {
    v & COUNTER_MASK
}

/// The phase-2 help request (`phase2rec_t`): asks other threads to finish
/// clearing the [`INC`] flag after the global counter was advanced.
///
/// Instead of the paper's raw pointer to the target `local` word, the record
/// stores the *owning thread index* of that word plus which of its two words
/// (`localTail` or `localHead`) is meant; see `cells.rs` for the rationale.
#[derive(Debug)]
pub struct Phase2Rec {
    /// Sequence number incremented when a new request is prepared.
    pub seq1: AtomicU64,
    /// Thread index whose `localTail`/`localHead` should be completed.
    pub target_tid: AtomicUsize,
    /// `true` → the target word is `localTail`, `false` → `localHead`.
    pub is_tail: AtomicBool,
    /// The counter value whose `INC` flag should be cleared.
    pub cnt: AtomicU64,
    /// Mirror of `seq1` written last; a mismatch means the snapshot is torn.
    pub seq2: AtomicU64,
}

impl Default for Phase2Rec {
    fn default() -> Self {
        Self {
            seq1: AtomicU64::new(1),
            target_tid: AtomicUsize::new(0),
            is_tail: AtomicBool::new(false),
            cnt: AtomicU64::new(0),
            seq2: AtomicU64::new(0),
        }
    }
}

impl Phase2Rec {
    /// Publishes a new phase-2 request (`prepare_phase2`, Figure 7 lines
    /// 38–42).
    pub fn prepare(&self, target_tid: usize, is_tail: bool, cnt: u64) {
        let seq = self.seq1.load(SeqCst) + 1;
        self.seq1.store(seq, SeqCst);
        self.target_tid.store(target_tid, SeqCst);
        self.is_tail.store(is_tail, SeqCst);
        self.cnt.store(cnt, SeqCst);
        self.seq2.store(seq, SeqCst);
    }

    /// Reads a consistent snapshot of the request, or `None` if the record is
    /// being rewritten concurrently.
    pub fn snapshot(&self) -> Option<(usize, bool, u64)> {
        let seq = self.seq2.load(SeqCst);
        let target = self.target_tid.load(SeqCst);
        let is_tail = self.is_tail.load(SeqCst);
        let cnt = self.cnt.load(SeqCst);
        if self.seq1.load(SeqCst) == seq {
            Some((target, is_tail, cnt))
        } else {
            None
        }
    }
}

/// A per-thread helping record (`thrdrec_t`, Figure 4).
#[derive(Debug)]
pub struct ThreadRecord {
    // === Private cursor (Figure 4's `nextCheck` / `nextTid`) ===
    //
    // Read and written only by the thread that currently owns this record;
    // helpers never look at them.  They are atomics only because the record
    // is reached through a shared reference, and every access is `Relaxed`:
    // there is no second thread to order against, and a later owner of the
    // slot is ordered after the previous one by the slot hand-off (see
    // `WcqRing::help_threads`).  On x86 that makes the per-operation
    // countdown a plain `mov` where a `SeqCst` store was an `xchg`.
    /// Operations remaining before the next helping check (`nextCheck`).
    pub next_check: AtomicU64,
    /// Next thread index to inspect for pending requests (`nextTid`).
    pub next_tid: AtomicUsize,

    // === Shared fields (read by helpers) ===
    /// Phase-2 request owned by this thread (used when *it* helps or operates).
    pub phase2: Phase2Rec,
    /// Completed-request sequence number; incremented after each slow path.
    pub seq1: AtomicU64,
    /// `true` → the pending request is an enqueue, `false` → dequeue.
    pub enqueue: AtomicBool,
    /// `true` while a slow-path request is in flight.
    pub pending: AtomicBool,
    /// Last tail ticket tried (with `FIN`/`INC` flags); owned by enqueues.
    pub local_tail: AtomicU64,
    /// Starting tail ticket of the current enqueue request.
    pub init_tail: AtomicU64,
    /// Last head ticket tried (with `FIN`/`INC` flags); owned by dequeues.
    pub local_head: AtomicU64,
    /// Starting head ticket of the current dequeue request.
    pub init_head: AtomicU64,
    /// Index being inserted by the pending enqueue request.
    pub index: AtomicU64,
    /// Mirror of `seq1` written when a request is published.
    pub seq2: AtomicU64,
}

impl ThreadRecord {
    /// Creates an idle record for a thread whose helping scan starts at
    /// `first_check` remaining operations and inspects `start_tid` first.
    pub fn new(help_delay: u64, start_tid: usize) -> Self {
        Self {
            next_check: AtomicU64::new(help_delay.max(1)),
            next_tid: AtomicUsize::new(start_tid),
            phase2: Phase2Rec::default(),
            seq1: AtomicU64::new(1),
            enqueue: AtomicBool::new(false),
            pending: AtomicBool::new(false),
            local_tail: AtomicU64::new(0),
            init_tail: AtomicU64::new(0),
            local_head: AtomicU64::new(0),
            init_head: AtomicU64::new(0),
            index: AtomicU64::new(0),
            seq2: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_bits_do_not_overlap_counters() {
        assert_eq!(FIN & INC, 0);
        assert_eq!(FIN & COUNTER_MASK, 0);
        assert_eq!(INC & COUNTER_MASK, 0);
        let ticket = 0x0123_4567_89ABu64;
        assert_eq!(counter(ticket | FIN), ticket);
        assert_eq!(counter(ticket | INC), ticket);
        assert_eq!(counter(ticket | FIN | INC), ticket);
    }

    #[test]
    fn phase2_snapshot_roundtrip() {
        let p = Phase2Rec::default();
        assert_eq!(
            p.snapshot(),
            None,
            "initial seq1=1 != seq2=0 means no request"
        );
        p.prepare(3, true, 77);
        assert_eq!(p.snapshot(), Some((3, true, 77)));
        p.prepare(5, false, 99);
        assert_eq!(p.snapshot(), Some((5, false, 99)));
    }

    #[test]
    fn phase2_torn_snapshot_detected() {
        let p = Phase2Rec::default();
        p.prepare(1, true, 10);
        // Simulate the start of a new request (seq1 bumped, seq2 not yet).
        p.seq1.store(p.seq1.load(SeqCst) + 1, SeqCst);
        assert_eq!(p.snapshot(), None);
    }

    #[test]
    fn thread_record_initial_state_is_idle() {
        let r = ThreadRecord::new(16, 2);
        assert!(!r.pending.load(SeqCst));
        assert_eq!(r.seq1.load(SeqCst), 1);
        assert_eq!(r.seq2.load(SeqCst), 0);
        assert_eq!(r.next_tid.load(SeqCst), 2);
        assert_eq!(r.next_check.load(SeqCst), 16);
    }
}
