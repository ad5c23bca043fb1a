//! The wCQ ring algorithm: what Figures 5–7 add to the shared Figure 3 ring.
//!
//! The fast path is [`crate::ring`]'s, run with the calling thread as its
//! hook; this module holds the per-thread records, the helping scheme, the
//! slow path, and the per-operation entry points that tie them together —
//! *countdown → one inline attempt → a `#[cold]` remainder* (the rest of the
//! patience loop, request publication, Figures 6–7), so the common case
//! executes SCQ's instructions plus a counter decrement.
//!
//! The implementation follows the paper's pseudo-code line by line; comments
//! reference the figure/line they reproduce.  Differences are limited to the
//! phase-2 reference encoding (thread index instead of a raw pointer — see
//! `cells.rs`) and the `⊥c` guard in the slow-path result gathering, both
//! documented in DESIGN.md.

use core::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::Arc;

use wcq_atomics::CachePadded;

use crate::metrics::{Counter, CounterSet};
use crate::ring::{Deq, Hook, Ring, SlowState};

use super::cells::{CellFamily, EntryCell, GlobalCtr, NativeFamily, TicketCtr, ValueCell};
use super::record::{counter, ThreadRecord, FIN, INC};

/// Tuning knobs of the wait-free machinery.
///
/// The defaults follow §6 of the paper: "we set MAX_PATIENCE to 16 for
/// Enqueue and 64 for Dequeue, which results in taking the slow path
/// relatively infrequently."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcqConfig {
    /// Fast-path attempts before an enqueue falls back to the slow path.
    pub max_patience_enqueue: u32,
    /// Fast-path attempts before a dequeue falls back to the slow path.
    pub max_patience_dequeue: u32,
    /// Operations between two helping checks (`HELP_DELAY`, Figure 6).
    pub help_delay: u64,
    /// Iteration bound of `catchup` (§3.2 "Bounding catchup").
    pub catchup_bound: u32,
}

impl Default for WcqConfig {
    fn default() -> Self {
        Self {
            max_patience_enqueue: 16,
            max_patience_dequeue: 64,
            help_delay: 16,
            catchup_bound: 64,
        }
    }
}

/// What wCQ keeps beside the Figure 3 core: the state of Figures 5–7.
pub struct WcqState {
    config: WcqConfig,
    records: Box<[CachePadded<ThreadRecord>]>,
    slots_taken: Box<[AtomicBool]>,
    counters: Option<Arc<CounterSet>>,
}

impl SlowState for WcqState {
    fn max_catchup(&self) -> u32 {
        self.config.catchup_bound
    }
    fn heap_bytes(&self) -> usize {
        self.records.len() * std::mem::size_of::<CachePadded<ThreadRecord>>()
            + self.slots_taken.len()
    }
}

/// The wait-free circular ring of *indices* (Figures 4–7): [`Ring`] over
/// `(Value, Note)` cells, carrying one helping record per thread.
///
/// Generic over the hardware model `F` ([`NativeFamily`] for machines with a
/// double-width CAS, [`super::LlscFamily`] for the §4 LL/SC construction).
/// Values must be in `[0, capacity)`; arbitrary payloads are stored through
/// [`super::WcqQueue`].
///
/// Threads must register (obtaining a [`WcqHandle`]) before operating on the
/// ring; the number of simultaneously registered threads is bounded by
/// `max_threads`, matching the paper's `k ≤ n` assumption.
pub type WcqRing<F = NativeFamily> = Ring<F, WcqState>;

/// A ring and the record index of the thread running a fast-path attempt
/// on it, as that attempt's [`Hook`].
impl<F: CellFamily> Hook for (&WcqRing<F>, usize) {
    #[inline]
    fn cas_failed(self) {
        self.0.count(Counter::CasFailures, 1);
    }
    #[inline]
    fn finalize(self, h: u64) {
        self.0.finalize_request(self.1, h);
    }
}

impl<F: CellFamily> WcqRing<F> {
    /// Creates an empty ring of capacity `2^order` usable by up to
    /// `max_threads` registered threads, with the default [`WcqConfig`] and
    /// no telemetry.
    pub fn new(order: u32, max_threads: usize) -> Self {
        Self::with_config_counters(order, max_threads, WcqConfig::default(), None)
    }

    /// Creates an empty ring with an explicit configuration and an optional
    /// shared [`CounterSet`] into which the ring records contention telemetry
    /// (ring ops, helping entries, patience exhaustion, CAS failures).  With
    /// `None` every recording site is a single predictable branch on a field
    /// of the ring itself.
    pub fn with_config_counters(
        order: u32,
        max_threads: usize,
        config: WcqConfig,
        counters: Option<Arc<CounterSet>>,
    ) -> Self {
        assert!(
            max_threads >= 1,
            "at least one thread must be able to register"
        );
        assert!(
            max_threads < (1 << 16),
            "help references are encoded in 16 bits"
        );
        let records = (0..max_threads)
            .map(|tid| {
                CachePadded::new(ThreadRecord::new(
                    config.help_delay,
                    (tid + 1) % max_threads,
                ))
            })
            .collect();
        let slots_taken = (0..max_threads).map(|_| AtomicBool::new(false)).collect();
        let state = WcqState {
            config,
            records,
            slots_taken,
            counters,
        };
        let ring = Self::empty(order, state);
        assert!(
            max_threads as u64 <= ring.capacity(),
            "the paper assumes k <= n (threads <= capacity)"
        );
        ring
    }

    /// Records `n` into `counter` when telemetry is attached; a no-op (one
    /// predictable branch) otherwise.
    #[inline]
    fn count(&self, counter: Counter, n: u64) {
        if let Some(set) = &self.slow.counters {
            set.add(counter, n);
        }
    }

    /// The attached telemetry counter set, if any.
    pub fn counter_set(&self) -> Option<&Arc<CounterSet>> {
        self.slow.counters.as_ref()
    }

    /// The active configuration.
    pub fn config(&self) -> &WcqConfig {
        &self.slow.config
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.slow.records.len()
    }

    /// Registers the calling thread, returning a handle bound to a free
    /// thread-record slot, or `None` when `max_threads` handles are live.
    pub fn register(&self) -> Option<WcqHandle<'_, F>> {
        (0..self.slow.slots_taken.len()).find_map(|tid| self.register_at(tid))
    }

    /// Registers the calling thread at a *specific* thread-record slot, or
    /// `None` when `tid` is out of range or the slot is already taken.
    ///
    /// Callers that already own a stable per-thread index (e.g. a thread's
    /// memoized tid) can use this to acquire a record with a single CAS
    /// instead of scanning.
    pub fn register_at(&self, tid: usize) -> Option<WcqHandle<'_, F>> {
        self.try_acquire_record(tid)
            .then(|| WcqHandle { ring: self, tid })
    }

    /// Claims the thread-record slot `tid` with a single CAS, without
    /// constructing a handle.  [`super::WcqQueue`] builds its combined-slot
    /// acquisition on top of this.
    pub(crate) fn try_acquire_record(&self, tid: usize) -> bool {
        self.slow
            .slots_taken
            .get(tid)
            .is_some_and(|slot| slot.compare_exchange(false, true, SeqCst, SeqCst).is_ok())
    }

    /// Releases a record slot previously claimed by
    /// [`WcqRing::try_acquire_record`].  Callers must own the slot.
    pub(crate) fn release_record(&self, tid: usize) {
        self.slow.slots_taken[tid].store(false, SeqCst);
    }

    /// `finalize_request` (Figure 5, lines 4–11): find the enqueuer whose
    /// pending slow-path request produced the entry at ticket `h` and set its
    /// `FIN` flag so no helper re-inserts the element after the slot is
    /// recycled.
    fn finalize_request(&self, my_tid: usize, h: u64) {
        let n = self.slow.records.len();
        let mut i = (my_tid + 1) % n;
        while i != my_tid {
            let tail = &self.slow.records[i].local_tail;
            if counter(tail.load(SeqCst)) == h {
                let _ = tail.compare_exchange(h, h | FIN, SeqCst, SeqCst);
                return;
            }
            i = (i + 1) % n;
        }
    }

    // ------------------------------------------------------------------
    // Helping (Figure 6)
    // ------------------------------------------------------------------

    /// `help_threads`, the part every operation runs: count down to the next
    /// helping check.  Only the due tick — once per `help_delay` operations —
    /// leaves the caller's instruction stream.
    #[inline]
    fn help_threads(&self, my_tid: usize) {
        let rec = &self.slow.records[my_tid];
        // relaxed: `next_check` / `next_tid` are the owner-private cursor of
        // Figure 4 — only the thread holding record `my_tid` ever reads or
        // writes them (helpers inspect the shared fields only), so there is
        // no second thread to order against.  A later owner of the record is
        // ordered after this one by its hand-off: for a handle, the slot's
        // (the `SeqCst` store in `release_record`, the `SeqCst` CAS in
        // `try_acquire_record`); for a segment of the unbounded queue, which
        // claims no slot, the hazard domain's release/acquire of the
        // participant id that keys the record.
        let remaining = rec.next_check.load(Relaxed);
        if remaining > 1 {
            // relaxed: owner-private cursor, see above.
            rec.next_check.store(remaining - 1, Relaxed);
        } else {
            self.help_due(my_tid);
        }
    }

    /// The due tick of `help_threads`: check one other thread (round robin)
    /// for a pending request and help it to completion.
    #[cold]
    #[inline(never)]
    fn help_due(&self, my_tid: usize) {
        let rec = &self.slow.records[my_tid];
        // relaxed: owner-private cursor, see `help_threads`.
        let target = rec.next_tid.load(Relaxed) % self.slow.records.len();
        if target != my_tid {
            let thr = &self.slow.records[target];
            if thr.pending.load(SeqCst) {
                if thr.enqueue.load(SeqCst) {
                    self.help_enqueue(my_tid, target);
                } else {
                    self.help_dequeue(my_tid, target);
                }
                self.count(Counter::HelpingEntries, 1);
            }
        }
        // relaxed: owner-private cursor, see `help_threads`.
        rec.next_check
            .store(self.slow.config.help_delay.max(1), Relaxed);
        // relaxed: owner-private cursor, see `help_threads`.
        rec.next_tid
            .store((target + 1) % self.slow.records.len(), Relaxed);
    }

    /// `help_enqueue`: atomically snapshot the request and run the slow path
    /// on the helpee's behalf.
    fn help_enqueue(&self, my_tid: usize, target: usize) {
        let thr = &self.slow.records[target];
        let seq = thr.seq2.load(SeqCst);
        let enqueue = thr.enqueue.load(SeqCst);
        let idx = thr.index.load(SeqCst);
        let tail = thr.init_tail.load(SeqCst);
        if enqueue && thr.seq1.load(SeqCst) == seq {
            self.enqueue_slow(my_tid, target, tail, idx);
        }
    }

    /// `help_dequeue`: dequeue-side counterpart of [`Self::help_enqueue`].
    fn help_dequeue(&self, my_tid: usize, target: usize) {
        let thr = &self.slow.records[target];
        let seq = thr.seq2.load(SeqCst);
        let enqueue = thr.enqueue.load(SeqCst);
        let head = thr.init_head.load(SeqCst);
        if !enqueue && thr.seq1.load(SeqCst) == seq {
            self.dequeue_slow(my_tid, target, head);
        }
    }

    // ------------------------------------------------------------------
    // Slow path (Figure 7)
    // ------------------------------------------------------------------

    /// `enqueue_slow` (Figure 7, lines 70–72).
    fn enqueue_slow(&self, my_tid: usize, helpee_tid: usize, mut t: u64, index: u64) {
        while self.slow_faa(my_tid, helpee_tid, true, &mut t) {
            if self.try_enq_slow(t, index, helpee_tid) {
                break;
            }
        }
    }

    /// `dequeue_slow` (Figure 7, lines 73–76).
    fn dequeue_slow(&self, my_tid: usize, helpee_tid: usize, mut h: u64) {
        while self.slow_faa(my_tid, helpee_tid, false, &mut h) {
            if self.try_deq_slow(h, helpee_tid) {
                break;
            }
        }
    }

    /// `slow_F&A` (Figure 7, lines 21–37): agree with all cooperative threads
    /// on the next ticket for the helpee's request, incrementing the global
    /// counter exactly once per ticket.
    ///
    /// `is_tail` selects Tail/`localTail` (enqueue) vs Head/`localHead`
    /// (dequeue); for the dequeue side the threshold is decremented once per
    /// successful global increment (Lemma 5.6).  Returns `false` when the
    /// request was finished (`FIN` observed) — the caller must stop.
    fn slow_faa(&self, my_tid: usize, helpee_tid: usize, is_tail: bool, v: &mut u64) -> bool {
        let global: &F::Ctr = if is_tail { &self.tail } else { &self.head };
        let helpee = &self.slow.records[helpee_tid];
        let local: &AtomicU64 = if is_tail {
            &helpee.local_tail
        } else {
            &helpee.local_head
        };
        let cnt;
        loop {
            let loaded = self.load_global_help_phase2(global, local);
            // Phase 1 (line 25): move the helpee's local word from the ticket
            // we last observed (*v) to the fresh global value, flagged INC.
            let phase1 = match loaded {
                Some(c) => {
                    if local.compare_exchange(*v, c | INC, SeqCst, SeqCst).is_ok() {
                        *v = c | INC;
                        Some(c)
                    } else {
                        None
                    }
                }
                None => None,
            };
            let c = match phase1 {
                Some(c) => c,
                None => {
                    // Lines 26–29: somebody else moved the local word (or the
                    // request is finished).
                    *v = local.load(SeqCst);
                    if *v & FIN != 0 {
                        return false;
                    }
                    if *v & INC == 0 {
                        // The increment already completed; *v holds the agreed
                        // ticket for this round.
                        return true;
                    }
                    counter(*v)
                }
            };
            // Lines 31–32: publish the phase-2 request and increment the
            // global counter together (CAS2).
            self.slow.records[my_tid]
                .phase2
                .prepare(helpee_tid, is_tail, c);
            if global.cas((c, 0), (c + 1, my_tid as u64 + 1)) {
                cnt = c;
                break;
            }
            // A fast-path F&A or another cooperative thread advanced the
            // global counter first; run the body again (paper's do-while).
            self.count(Counter::CasFailures, 1);
        }
        // Line 33: the dequeue side pays its threshold decrement exactly once
        // per global head increment.
        if !is_tail {
            self.threshold.fetch_sub(1, SeqCst);
        }
        // Lines 34–36: phase 2 — clear INC on the local word, clear the
        // phase-2 reference on the global pair.
        let _ = local.compare_exchange(cnt | INC, cnt, SeqCst, SeqCst);
        let _ = global.cas((cnt + 1, my_tid as u64 + 1), (cnt + 1, 0));
        *v = cnt;
        true
    }

    /// `load_global_help_phase2` (Figure 7, lines 77–88): read the global
    /// counter, first helping to complete any phase-2 request published in its
    /// reference half.  Returns `None` when the helpee's request is finished.
    fn load_global_help_phase2(&self, global: &F::Ctr, mylocal: &AtomicU64) -> Option<u64> {
        loop {
            if mylocal.load(SeqCst) & FIN != 0 {
                return None;
            }
            let (cnt, help) = global.load();
            if help == 0 {
                return Some(cnt);
            }
            let owner = (help - 1) as usize;
            if owner < self.slow.records.len() {
                if let Some((target_tid, is_tail, p2cnt)) =
                    self.slow.records[owner].phase2.snapshot()
                {
                    let rec = &self.slow.records[target_tid % self.slow.records.len()];
                    let target_local: &AtomicU64 = if is_tail {
                        &rec.local_tail
                    } else {
                        &rec.local_head
                    };
                    // Line 86: complete phase 1→2 for that request (no-op if
                    // already done).
                    let _ = target_local.compare_exchange(p2cnt | INC, p2cnt, SeqCst, SeqCst);
                }
            }
            // Line 87: clear the reference; monotone counters rule out ABA.
            if global.cas((cnt, help), (cnt, 0)) {
                return Some(cnt);
            }
        }
    }

    /// `try_enq_slow` (Figure 7, lines 1–20): attempt to insert `index` at
    /// ticket `t` on behalf of the request owned by `helpee_tid`.  Returns
    /// `true` when the request needs no further tickets.
    fn try_enq_slow(&self, t: u64, index: u64, helpee_tid: usize) -> bool {
        let l = &self.layout;
        let j = l.slot(t);
        let cell = &self.entries[j];
        loop {
            let pair = cell.load();
            let e = l.unpack(pair.0);
            let note = pair.1;
            if e.cycle < l.cycle(t) && note < l.cycle(t) {
                if !(e.is_safe || self.head.load_cnt() <= t) || !l.is_reserved(e.index) {
                    // Lines 6–10: the slot is unusable for this cycle; advance
                    // the Note so every other helper skips it too.
                    if !cell.cas2_note(pair, l.cycle(t)) {
                        continue;
                    }
                    return false;
                }
                // Lines 11–13: produce the entry with Enq = 0 (step one of the
                // two-step insertion).
                let produced = l.pack(l.cycle(t), true, false, index);
                if !cell.cas2_value(pair, produced) {
                    continue;
                }
                // Lines 14–17: finalize the help request; the winner of the
                // FIN CAS flips Enq to 1 (step two).
                let local_tail = &self.slow.records[helpee_tid].local_tail;
                if local_tail
                    .compare_exchange(t, t | FIN, SeqCst, SeqCst)
                    .is_ok()
                {
                    let finalized = produced | l.enq_bit();
                    let _ = cell.cas2_value((produced, note), finalized);
                }
                // Line 18.
                self.rearm_threshold();
                return true;
            } else if e.cycle != l.cycle(t) {
                // Line 19: the slot moved to a different cycle and no
                // cooperative thread inserted for ticket `t`; grab a new one.
                return false;
            } else if e.index == l.bottom() {
                // e.cycle == cycle(t) but the slot holds `⊥`: a dequeuer burned
                // ticket `t` (advancing the slot's cycle with the empty marker)
                // before any cooperative thread deposited.  The element was
                // NOT inserted — treating this as success loses it, so grab a
                // new ticket.  Note `⊥c` (a consumed entry) must still land in
                // the success branch below: the element *was* inserted at `t`
                // and already dequeued.
                return false;
            }
            // Line 20: e.cycle == cycle(t) and the slot holds a real index (or
            // `⊥c`) — some cooperative thread already inserted the element for
            // this ticket.
            return true;
        }
    }

    /// `try_deq_slow` (Figure 7, lines 43–69): attempt to resolve the dequeue
    /// request of `helpee_tid` at ticket `h`.
    fn try_deq_slow(&self, h: u64, helpee_tid: usize) -> bool {
        let l = &self.layout;
        let j = l.slot(h);
        let cell = &self.entries[j];
        let local_head = &self.slow.records[helpee_tid].local_head;
        loop {
            let pair = cell.load();
            let e = l.unpack(pair.0);
            let note = pair.1;
            // Lines 47–49: the slot holds this cycle's element (or it was
            // already consumed) — terminate all helpers; the owner gathers the
            // result afterwards.
            if e.cycle == l.cycle(h) && e.index != l.bottom() {
                let ok = local_head.compare_exchange(h, h | FIN, SeqCst, SeqCst);
                if ok.is_err() && local_head.load(SeqCst) & FIN == 0 {
                    // The CAS lost not to another finalizer but to `slow_faa`
                    // moving the request to a later ticket: the request is
                    // still live, so reporting `true` here would let the owner
                    // exit `dequeue_slow` and gather a stale ticket while an
                    // in-flight helper later finalizes the live request at a
                    // ticket nobody gathers — stranding that element forever.
                    // Keep helping until FIN is actually set.
                    return false;
                }
                return true;
            }
            let mut val = l.pack(l.cycle(h), e.is_safe, true, l.bottom());
            if !l.is_reserved(e.index) {
                if e.cycle < l.cycle(h) && note < l.cycle(h) {
                    // Lines 53–57: advance the Note so late helpers do not use
                    // a slot one of us already skipped, then re-read.
                    let _ = cell.cas2_note(pair, l.cycle(h));
                    continue;
                }
                // Line 58: old unconsumed value — only mark it unsafe.
                val = l.pack(e.cycle, false, e.enq, e.index);
            }
            // Lines 59–62.
            if e.cycle < l.cycle(h) && !cell.cas2_value(pair, val) {
                continue;
            }
            // Lines 63–68: empty detection.  The threshold was already
            // decremented by `slow_faa` for this ticket.
            let t = self.tail.load_cnt();
            if t <= h + 1 {
                self.catchup(t, h + 1);
            }
            if self.threshold.load(SeqCst) < 0 {
                let ok = local_head.compare_exchange(h, h | FIN, SeqCst, SeqCst);
                if ok.is_err() && local_head.load(SeqCst) & FIN == 0 {
                    // Same as the found-an-element case above: a failed FIN
                    // CAS with no FIN bit visible means the request advanced
                    // to a later ticket, not that it finished.
                    return false;
                }
                return true;
            }
            return false;
        }
    }

    // ------------------------------------------------------------------
    // Public operations (Figure 5), driven through handles.
    // ------------------------------------------------------------------

    /// Full enqueue operation for the thread owning record `tid`
    /// (`Enqueue_wCQ`): the helping countdown and one fast-path attempt
    /// inline, [`Self::enqueue_rest`] when that attempt fails.
    #[inline]
    pub(crate) fn enqueue_index(&self, tid: usize, index: u64) {
        self.count(Counter::RingEnqueues, 1);
        self.help_threads(tid);
        let tail = self.tail.fetch_add_cnt();
        if !self.try_enq(tail, index, (self, tid)) {
            self.enqueue_rest(tid, index, tail);
        }
    }

    /// `Enqueue_wCQ` after a failed first attempt at ticket `tail`: the rest
    /// of the patience loop (Figure 5, lines 14–17), then the slow path.
    #[cold]
    #[inline(never)]
    fn enqueue_rest(&self, tid: usize, index: u64, mut tail: u64) {
        for _ in 1..self.slow.config.max_patience_enqueue.max(1) {
            tail = self.tail.fetch_add_cnt();
            if self.try_enq(tail, index, (self, tid)) {
                return;
            }
        }
        self.count(Counter::PatienceExhaustedEnqueues, 1);
        // Slow path: publish the request, then run it; helpers may finish it
        // for us.
        let rec = &self.slow.records[tid];
        let seq = rec.seq1.load(SeqCst);
        rec.local_tail.store(tail, SeqCst);
        rec.init_tail.store(tail, SeqCst);
        rec.index.store(index, SeqCst);
        rec.enqueue.store(true, SeqCst);
        rec.seq2.store(seq, SeqCst);
        rec.pending.store(true, SeqCst);
        self.enqueue_slow(tid, tid, tail, index);
        rec.pending.store(false, SeqCst);
        rec.seq1.store(seq + 1, SeqCst);
    }

    /// Full dequeue operation for the thread owning record `tid`
    /// (`Dequeue_wCQ`); `None` means the ring was empty.  Split like
    /// [`Self::enqueue_index`]; an empty ring answers from the threshold
    /// alone, before anything else runs.
    #[inline]
    pub(crate) fn dequeue_index(&self, tid: usize) -> Option<u64> {
        self.count(Counter::RingDequeues, 1);
        if self.threshold() < 0 {
            return None; // Line 30: empty.
        }
        self.help_threads(tid);
        let head = self.head.fetch_add_cnt();
        match self.try_deq(head, (self, tid)) {
            Deq::Got(index) => Some(index),
            Deq::Empty => None,
            Deq::Retry => self.dequeue_rest(tid, head),
        }
    }

    /// `Dequeue_wCQ` after a first attempt at ticket `head` said retry: the
    /// rest of the patience loop (Figure 5, lines 33–41), then the slow path.
    #[cold]
    #[inline(never)]
    fn dequeue_rest(&self, tid: usize, mut head: u64) -> Option<u64> {
        let l = &self.layout;
        for _ in 1..self.slow.config.max_patience_dequeue.max(1) {
            head = self.head.fetch_add_cnt();
            match self.try_deq(head, (self, tid)) {
                Deq::Got(index) => return Some(index),
                Deq::Empty => return None,
                Deq::Retry => {}
            }
        }
        self.count(Counter::PatienceExhaustedDequeues, 1);
        // Slow path.
        let rec = &self.slow.records[tid];
        let seq = rec.seq1.load(SeqCst);
        rec.local_head.store(head, SeqCst);
        rec.init_head.store(head, SeqCst);
        rec.enqueue.store(false, SeqCst);
        rec.seq2.store(seq, SeqCst);
        rec.pending.store(true, SeqCst);
        self.dequeue_slow(tid, tid, head);
        rec.pending.store(false, SeqCst);
        rec.seq1.store(seq + 1, SeqCst);
        // Gather the slow-path result (Figure 5, lines 48–54).
        let h = counter(rec.local_head.load(SeqCst));
        let j = l.slot(h);
        let raw = self.entries[j].load_value();
        let e = l.unpack(raw);
        if e.cycle == l.cycle(h) && !l.is_reserved(e.index) {
            self.consume(h, j, raw, (self, tid));
            return Some(e.index);
        }
        None
    }

    // ------------------------------------------------------------------
    // Batch operations: one F&A reserves a run of consecutive tickets.
    // ------------------------------------------------------------------

    /// Enqueues every index in `indices`, reserving `indices.len()`
    /// consecutive tail tickets with a single F&A (instead of one F&A per
    /// element).  Always accepts the whole batch — like
    /// [`WcqHandle::enqueue`], callers must respect the capacity discipline
    /// (at most `capacity` values in circulation).
    ///
    /// Elements whose reserved ticket lands on an unusable slot (stale cycle,
    /// unsafe bit, straddling the head) abandon that ticket — exactly what a
    /// failed fast-path attempt does — and fall back to the standard
    /// [`WcqRing::enqueue_index`] path, patience bound and slow-path helping
    /// included, so the wait-freedom argument is unchanged.  After the first
    /// such miss the rest of the run is skipped uninspected and falls back
    /// too, so the batch stays in FIFO order (one extra F&A per skipped
    /// element, on the contended path only: an uncontended batch never
    /// misses).
    ///
    /// Skipped tickets do not loosen the `3n - 1` threshold bound.  To a
    /// dequeuer, a tail ticket nobody deposits at is what every failed
    /// fast-path attempt — or an enqueuer stalled right after its F&A —
    /// already leaves behind; the bound never counted on the tickets below an
    /// element being filled.  It is re-armed by each *successful* deposit, at
    /// that deposit's own ticket `T`, and bounds the head's distance to `T`
    /// through the conditions `try_enq` checks on `T`'s slot alone (its
    /// cycle, its safe bit against the head) — and every fallback deposit
    /// goes through exactly that check on its fresh ticket.
    pub(crate) fn enqueue_many(&self, tid: usize, indices: &[u64]) {
        if indices.is_empty() {
            return;
        }
        self.help_threads(tid);
        let base = self.tail.fetch_add_cnt_n(indices.len() as u64);
        // Elements that used their batch ticket: a prefix of the run.
        let mut on_ticket = 0;
        for (k, &index) in indices.iter().enumerate() {
            // Once one element lost its ticket, the rest of the run abandon
            // theirs too: the fallback below takes a *fresh* (later) ticket,
            // so an element still riding its batch ticket would overtake it
            // and break the batch's FIFO order (pinned by
            // `batch_mpmc_keeps_each_producers_order`).
            if on_ticket == k && self.try_enq(base + k as u64, index, (self, tid)) {
                on_ticket += 1;
            } else {
                // The fallback records its own RingEnqueues (and any further
                // helping entry), so only the on-ticket elements are counted
                // below — no double counting.
                self.enqueue_index(tid, index);
            }
        }
        self.count(Counter::RingEnqueues, on_ticket as u64);
    }

    /// Dequeues up to `max` indices into `out`, reserving the whole run of
    /// head tickets with a single F&A.  Returns the number of indices
    /// appended — possibly fewer than `max` (partial success): the run is
    /// clamped to the visible backlog, and a ticket raced by a concurrent
    /// consumer or a not-yet-visible slow-path insertion counts as a miss
    /// rather than being retried.
    ///
    /// A return of `0` is **authoritative**: when every reserved ticket
    /// misses (each miss is only a racy observation — elements may remain in
    /// slots whose tickets were abandoned), the call falls back to the
    /// standard [`WcqRing::dequeue_index`] path, so `0` carries exactly the
    /// emptiness verdict of a single dequeue returning `None` (patience,
    /// slow-path helping and the threshold check included).
    ///
    /// Every reserved ticket is inspected via `try_deq` even after a miss;
    /// skipping one would let a straggling enqueuer deposit into a slot no
    /// dequeuer revisits (lost element).  A missed ticket pays the same
    /// threshold decrement an individual failed dequeue would (Lemma 5.6).
    pub(crate) fn dequeue_many(&self, tid: usize, out: &mut Vec<u64>, max: usize) -> usize {
        if max == 0 || self.threshold() < 0 {
            return 0;
        }
        self.help_threads(tid);
        // Clamp to the visible backlog so an oversized batch never burns a
        // run of guaranteed-empty tickets (each would cost a threshold
        // decrement and a catchup).
        let run = self.len_hint().min(max as u64);
        self.count(Counter::RingDequeues, run);
        let mut got = 0;
        if run > 0 {
            let base = self.head.fetch_add_cnt_n(run);
            for k in 0..run {
                if let Deq::Got(index) = self.try_deq(base + k, (self, tid)) {
                    out.push(index);
                    got += 1;
                }
            }
        }
        if got == 0 {
            // Two ways to get here: the tail counter lags a slow-path
            // insertion's visibility (`run == 0`), or every ticket in the
            // run missed — a racy observation, since a dropped `Retry` can
            // leave elements behind (e.g. a hole-run longer than `max`).
            // Either way the standard path (patience + helping + threshold)
            // delivers the authoritative verdict.
            return match self.dequeue_index(tid) {
                Some(index) => {
                    out.push(index);
                    1
                }
                None => 0,
            };
        }
        got
    }
}

/// A per-thread handle to a [`WcqRing`].
///
/// The handle owns one of the ring's thread records for its lifetime; dropping
/// it releases the slot for another thread.
pub struct WcqHandle<'q, F: CellFamily = NativeFamily> {
    ring: &'q WcqRing<F>,
    tid: usize,
}

impl<'q, F: CellFamily> WcqHandle<'q, F> {
    /// The thread-record index owned by this handle.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The ring this handle operates on.
    pub fn ring(&self) -> &'q WcqRing<F> {
        self.ring
    }

    /// Enqueues `index` (must be `< capacity`).  Always succeeds provided the
    /// capacity discipline is respected (at most `capacity` values circulate).
    pub fn enqueue(&mut self, index: u64) {
        self.ring.enqueue_index(self.tid, index);
    }

    /// Dequeues an index; `None` means the ring was empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        self.ring.dequeue_index(self.tid)
    }

    /// Enqueues every index in `indices` with one tail F&A for the whole run
    /// (see `WcqRing::enqueue_many`).
    pub fn enqueue_many(&mut self, indices: &[u64]) {
        self.ring.enqueue_many(self.tid, indices);
    }

    /// Dequeues up to `max` indices into `out` with one head F&A for the
    /// whole run; returns the number appended (see
    /// `WcqRing::dequeue_many` for the partial-success contract).
    pub fn dequeue_many(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        self.ring.dequeue_many(self.tid, out, max)
    }
}

impl<'q, F: CellFamily> std::fmt::Debug for WcqHandle<'q, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WcqHandle").field("tid", &self.tid).finish()
    }
}

impl<'q, F: CellFamily> Drop for WcqHandle<'q, F> {
    fn drop(&mut self) {
        self.ring.release_record(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::super::cells::LlscFamily;
    use super::*;

    fn ring<F: CellFamily>(order: u32, threads: usize) -> WcqRing<F> {
        WcqRing::<F>::new(order, threads)
    }

    fn fifo_single_thread<F: CellFamily>() {
        let r = ring::<F>(4, 2);
        let mut h = r.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..r.capacity() {
            h.enqueue(i);
        }
        for i in 0..r.capacity() {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn fifo_single_thread_native() {
        fifo_single_thread::<NativeFamily>();
    }

    #[test]
    fn fifo_single_thread_llsc() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        fifo_single_thread::<LlscFamily>();
    }

    #[test]
    fn wraparound_many_cycles() {
        let r = ring::<NativeFamily>(2, 2);
        let mut h = r.register().unwrap();
        for round in 0..500u64 {
            h.enqueue(round % 4);
            assert_eq!(h.dequeue(), Some(round % 4));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn registration_respects_max_threads() {
        let r = ring::<NativeFamily>(4, 2);
        let h1 = r.register().unwrap();
        let h2 = r.register().unwrap();
        assert!(r.register().is_none());
        assert_ne!(h1.tid(), h2.tid());
        drop(h1);
        assert!(r.register().is_some());
        drop(h2);
    }

    #[test]
    fn forced_slow_path_still_fifo() {
        // MAX_PATIENCE = 1 forces (almost) every operation through the slow
        // path machinery even without contention.
        let cfg = WcqConfig {
            max_patience_enqueue: 1,
            max_patience_dequeue: 1,
            help_delay: 1,
            catchup_bound: 8,
        };
        let r = WcqRing::<NativeFamily>::with_config_counters(4, 2, cfg, None);
        let mut h = r.register().unwrap();
        for i in 0..r.capacity() {
            h.enqueue(i);
        }
        for i in 0..r.capacity() {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn stats_track_fast_and_slow_paths() {
        // The fast/slow split of a ring is `PatienceExhausted*` against
        // `Ring*`: uncontended at paper patience nothing leaves the fast path.
        let counters = Arc::new(CounterSet::new());
        let r = WcqRing::<NativeFamily>::with_config_counters(
            4,
            1,
            WcqConfig::default(),
            Some(Arc::clone(&counters)),
        );
        let mut h = r.register().unwrap();
        h.enqueue(1);
        assert_eq!(h.dequeue(), Some(1));
        let snap = counters.snapshot();
        assert_eq!(snap.get(Counter::RingEnqueues), 1);
        assert_eq!(snap.get(Counter::RingDequeues), 1);
        assert_eq!(snap.get(Counter::PatienceExhaustedEnqueues), 0);
        assert_eq!(snap.get(Counter::PatienceExhaustedDequeues), 0);
        assert_eq!(snap.fast_ring_ops(), 2);
    }

    fn mpmc_stress<F: CellFamily>(producers: usize, consumers: usize, per_producer: u64) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let order = 6;
        let r = ring::<F>(order, producers + consumers);
        let capacity = r.capacity();
        let consumed = AtomicU64::new(0);
        let sum = AtomicU64::new(0);
        let inflight = AtomicU64::new(0);

        std::thread::scope(|s| {
            for _ in 0..producers {
                let r = &r;
                let inflight = &inflight;
                s.spawn(move || {
                    let mut h = r.register().unwrap();
                    let mut sent = 0;
                    while sent < per_producer {
                        // Respect capacity discipline: never exceed `capacity`
                        // values in flight.
                        if inflight.fetch_add(1, Ordering::SeqCst) < capacity - 8 {
                            h.enqueue(sent % capacity);
                            sent += 1;
                        } else {
                            inflight.fetch_sub(1, Ordering::SeqCst);
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..consumers {
                let r = &r;
                let consumed = &consumed;
                let sum = &sum;
                let inflight = &inflight;
                let total = producers as u64 * per_producer;
                s.spawn(move || {
                    let mut h = r.register().unwrap();
                    loop {
                        if consumed.load(Ordering::SeqCst) >= total {
                            break;
                        }
                        match h.dequeue() {
                            Some(v) => {
                                assert!(v < capacity);
                                sum.fetch_add(v, Ordering::SeqCst);
                                consumed.fetch_add(1, Ordering::SeqCst);
                                inflight.fetch_sub(1, Ordering::SeqCst);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                });
            }
        });

        assert_eq!(
            consumed.load(std::sync::atomic::Ordering::SeqCst),
            producers as u64 * per_producer
        );
        // Whatever remains in flight (none) — queue must now be empty.
        let mut h = r.register().unwrap();
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn mpmc_stress_native() {
        mpmc_stress::<NativeFamily>(3, 3, 4_000);
    }

    fn batch_fifo_roundtrip<F: CellFamily>() {
        let r = ring::<F>(4, 2);
        let mut h = r.register().unwrap();
        let capacity = r.capacity();
        let all: Vec<u64> = (0..capacity).collect();
        h.enqueue_many(&all);
        let mut out = Vec::new();
        // Partial success: ask for more than is present.
        let got = h.dequeue_many(&mut out, capacity as usize + 8);
        assert_eq!(got, out.len());
        assert_eq!(out, all);
        assert_eq!(h.dequeue_many(&mut out, 4), 0);
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn batch_fifo_roundtrip_native() {
        batch_fifo_roundtrip::<NativeFamily>();
    }

    #[test]
    fn batch_fifo_roundtrip_llsc() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        batch_fifo_roundtrip::<LlscFamily>();
    }

    #[test]
    fn batch_wraparound_interleaved_with_singles() {
        let r = ring::<NativeFamily>(3, 2);
        let mut h = r.register().unwrap();
        let mut expected = std::collections::VecDeque::new();
        let mut next = 0u64;
        let mut out = Vec::new();
        for round in 0..200u64 {
            // Respect the ring's capacity discipline: a bare-ring enqueue on
            // a full ring spins (the fq/aq pairing in `WcqQueue` is what
            // rules that state out for real users).
            let room = (r.capacity() as usize).saturating_sub(expected.len());
            let batch: Vec<u64> = (0..((round % 5) as usize).min(room))
                .map(|_| {
                    let v = next % r.capacity();
                    next += 1;
                    expected.push_back(v);
                    v
                })
                .collect();
            h.enqueue_many(&batch);
            let want = (round % 3) as usize;
            out.clear();
            let got = h.dequeue_many(&mut out, want.min(expected.len()));
            for &v in &out {
                assert_eq!(Some(v), expected.pop_front());
            }
            assert_eq!(got, out.len());
        }
        out.clear();
        h.dequeue_many(&mut out, expected.len());
        for &v in &out {
            assert_eq!(Some(v), expected.pop_front());
        }
        assert!(expected.is_empty());
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn batch_mpmc_no_loss_or_duplication() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        // Capacity covers every value, so each enqueued index is unique and
        // the consumers can assert exactly-once delivery per element (a lost
        // element can no longer be masked by a duplicated one).  The
        // capacity discipline holds trivially: at most `total <= capacity`
        // values are ever in circulation.
        let order = 13;
        let r = ring::<NativeFamily>(order, 4);
        let per_producer = 4_000u64;
        let producers = 2u64;
        let total = producers * per_producer;
        assert!(total <= r.capacity());
        let batch = 8u64;
        let consumed = AtomicU64::new(0);
        let seen: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|s| {
            for p in 0..producers {
                let r = &r;
                s.spawn(move || {
                    let mut h = r.register().unwrap();
                    let mut sent = 0;
                    while sent < per_producer {
                        let base = p * per_producer + sent;
                        let run: Vec<u64> = (base..base + batch).collect();
                        h.enqueue_many(&run);
                        sent += batch;
                    }
                });
            }
            for _ in 0..2 {
                let r = &r;
                let consumed = &consumed;
                let seen = &seen;
                s.spawn(move || {
                    let mut h = r.register().unwrap();
                    let mut out = Vec::new();
                    while consumed.load(Ordering::SeqCst) < total {
                        out.clear();
                        let got = h.dequeue_many(&mut out, batch as usize) as u64;
                        if got > 0 {
                            for &v in &out {
                                assert!(v < total, "invented value {v}");
                                assert!(
                                    !seen[v as usize].swap(true, Ordering::SeqCst),
                                    "value {v} dequeued twice"
                                );
                            }
                            consumed.fetch_add(got, Ordering::SeqCst);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(consumed.load(std::sync::atomic::Ordering::SeqCst), total);
        for (v, flag) in seen.iter().enumerate() {
            assert!(
                flag.load(std::sync::atomic::Ordering::SeqCst),
                "value {v} was never dequeued"
            );
        }
        let mut h = r.register().unwrap();
        assert_eq!(h.dequeue(), None);
    }

    /// A batch keeps its producer's order even when some of its reserved
    /// tickets are lost to racing dequeuers: every consumer sees each
    /// producer's values ascending (an element still riding its batch ticket
    /// must not overtake a batch-mate that fell back to a fresh, later
    /// ticket), and the tickets skipped on the way never read as a spurious
    /// empty — the half the racing consumers leave behind drains, on one
    /// thread, without a single `None`.
    #[test]
    fn batch_mpmc_keeps_each_producers_order() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // As in `batch_mpmc_no_loss_or_duplication`: capacity covers every
        // value, so the capacity discipline holds trivially.
        let r = ring::<NativeFamily>(13, 4);
        let producers = 2u64;
        let per_producer = 4_000u64;
        let total = producers * per_producer;
        assert!(total <= r.capacity());
        let batch = 8u64;
        let consumed = AtomicU64::new(0);
        // One consumer's view: each producer's values only ever go up.
        let in_order = |last: &mut [Option<u64>; 2], v: u64| {
            let seen = &mut last[(v / per_producer) as usize];
            assert!(*seen < Some(v), "{v} dequeued after {seen:?}");
            *seen = Some(v);
        };
        std::thread::scope(|s| {
            for p in 0..producers {
                let r = &r;
                s.spawn(move || {
                    let mut h = r.register().unwrap();
                    for base in (p * per_producer..(p + 1) * per_producer).step_by(batch as usize) {
                        let run: Vec<u64> = (base..base + batch).collect();
                        h.enqueue_many(&run);
                        // Keep the ring near empty, where a hungry consumer
                        // reaches a reserved ticket before its producer does.
                        std::thread::yield_now();
                    }
                });
            }
            for _ in 0..2 {
                let (r, consumed) = (&r, &consumed);
                s.spawn(move || {
                    let mut h = r.register().unwrap();
                    let mut last = [None; 2];
                    while consumed.load(Ordering::SeqCst) < total / 2 {
                        match h.dequeue() {
                            Some(v) => {
                                in_order(&mut last, v);
                                consumed.fetch_add(1, Ordering::SeqCst);
                            }
                            None => std::hint::spin_loop(),
                        }
                    }
                });
            }
        });
        let mut h = r.register().unwrap();
        let mut last = [None; 2];
        for left in (1..=total - consumed.load(Ordering::SeqCst)).rev() {
            let v = (h.dequeue()).unwrap_or_else(|| panic!("empty answer with {left} left"));
            in_order(&mut last, v);
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn mpmc_stress_llsc() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        mpmc_stress::<LlscFamily>(2, 2, 2_000);
    }

    #[test]
    fn mpmc_stress_with_forced_slow_path() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = WcqConfig {
            max_patience_enqueue: 1,
            max_patience_dequeue: 1,
            help_delay: 1,
            catchup_bound: 8,
        };
        let r = WcqRing::<NativeFamily>::with_config_counters(5, 4, cfg, None);
        let capacity = r.capacity();
        let total = 8_000u64;
        let consumed = AtomicU64::new(0);
        let inflight = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let r = &r;
                let inflight = &inflight;
                s.spawn(move || {
                    let mut h = r.register().unwrap();
                    let mut sent = 0;
                    while sent < total / 2 {
                        if inflight.fetch_add(1, Ordering::SeqCst) < capacity - 4 {
                            h.enqueue(sent % capacity);
                            sent += 1;
                        } else {
                            inflight.fetch_sub(1, Ordering::SeqCst);
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let r = &r;
                let consumed = &consumed;
                let inflight = &inflight;
                s.spawn(move || {
                    let mut h = r.register().unwrap();
                    while consumed.load(Ordering::SeqCst) < total {
                        if h.dequeue().is_some() {
                            consumed.fetch_add(1, Ordering::SeqCst);
                            inflight.fetch_sub(1, Ordering::SeqCst);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(consumed.load(std::sync::atomic::Ordering::SeqCst), total);
    }
}
