//! The one ring: Figure 3 of the wCQ paper, written once.
//!
//! `Enqueue_wCQ` / `Dequeue_wCQ` (Figure 5) *are* SCQ's `try_enq` / `try_deq`
//! tried `MAX_PATIENCE` times; Figures 6–7 run only when that fails.  So both
//! queues are instantiations of one [`Ring`]: [`crate::scq::ScqRing`] over
//! single-word cells with no slow-path state, [`crate::wcq::WcqRing`] over
//! `(Value, Note)` pairs with its thread records in the `slow` field.  This
//! module holds the only copies of `try_enq`, `try_deq`, `catchup`, `consume`,
//! the threshold re-arm, the pre-filled `fq` state and the empty state, each
//! built fresh or rewritten in place — the only code that calls `cas_value` or
//! `or_value` on an entry, or builds an entry or a counter (`wcq-check --lint`
//! fails on a second one).
//!
//! The two places where wCQ's fast path says more than SCQ's are `Hook`
//! methods, empty for SCQ: a failed entry CAS is counted, and `consume`
//! finalizes a pending slow-path enqueue before its `OR` (Figure 5,
//! lines 1–3).  A third textual difference in the paper — a skipped slot is
//! marked unsafe keeping its `Enq` bit where SCQ writes 1 — is none: SCQ
//! never clears `Enq`.

use core::sync::atomic::{AtomicI64, Ordering::SeqCst};

use wcq_atomics::CachePadded;

use crate::pack::Layout;
use crate::wcq::cells::{RingFamily, TicketCtr, ValueCell};

/// What an instantiation keeps beside the Figure 3 core, in [`Ring`]'s last
/// field: nothing for SCQ (`()`), the helping records for wCQ.
pub trait SlowState {
    /// Iteration bound of `catchup` (§3.2 "Bounding catchup").
    fn max_catchup(&self) -> u32;
    /// Heap bytes this state owns, for [`Ring::memory_footprint`].
    fn heap_bytes(&self) -> usize;
}

impl SlowState for () {
    fn max_catchup(&self) -> u32 {
        64
    }
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The two extension points of the fast path, passed by value into each
/// attempt so the no-op instantiation (`()`, SCQ) compiles to Figure 3 alone.
pub(crate) trait Hook: Copy {
    /// An entry CAS lost a race and the attempt re-reads the slot.
    #[inline]
    fn cas_failed(self) {}
    /// `consume` found `Enq = 0` at head ticket `h`: the entry is the
    /// first half of a slow-path insertion whose request is still open.
    #[inline]
    fn finalize(self, _h: u64) {}
}

impl Hook for () {}

/// Outcome of one dequeue attempt at a reserved head ticket.
pub(crate) enum Deq {
    Got(u64),
    Empty,
    Retry,
}

/// A circular ring of *indices* in `[0, capacity)` over the cells of `F`,
/// with the instantiation's slow-path state `S` stored inline.
///
/// `S` is a field rather than a wrapper around the core because the three
/// padded control words round the struct up to 512 bytes either way: wCQ's
/// 64 bytes of state fit in the tail padding SCQ leaves empty, where a
/// nested 128-aligned core would make every wCQ ring 640.
///
/// # Capacity discipline
///
/// As in the paper, an enqueue never checks for a full ring: at most
/// `capacity()` values may circulate at a time, which the `aq`/`fq`
/// indirection of Figure 2 guarantees by construction.
pub struct Ring<F: RingFamily, S> {
    pub(crate) layout: Layout,
    pub(crate) threshold: CachePadded<AtomicI64>,
    pub(crate) tail: CachePadded<F::Ctr>,
    pub(crate) head: CachePadded<F::Ctr>,
    pub(crate) entries: Box<[F::Entry]>,
    pub(crate) slow: S,
}

impl<F: RingFamily, S> std::fmt::Debug for Ring<F, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("family", &F::NAME)
            .field("capacity", &self.layout.capacity())
            .field("head", &self.head.load_cnt())
            .field("tail", &self.tail.load_cnt())
            .field("threshold", &self.threshold.load(SeqCst))
            .finish()
    }
}

impl<F: RingFamily, S> Ring<F, S> {
    /// An empty ring of usable capacity `2^order`.
    pub(crate) fn empty(order: u32, slow: S) -> Self {
        let layout = Layout::with_entry_size(order, core::mem::size_of::<F::Entry>());
        Self {
            layout,
            threshold: CachePadded::new(AtomicI64::new(-1)),
            tail: CachePadded::new(F::Ctr::new(layout.init_counter())),
            head: CachePadded::new(F::Ctr::new(layout.init_counter())),
            entries: (0..layout.ring_size())
                .map(|_| F::Entry::new(layout.init_entry()))
                .collect(),
            slow,
        }
    }

    /// Turns a fresh [`Ring::empty`] into the initial `fq` of Figure 2, every
    /// free index `0..capacity` already in it: [`Ring::fill`] on a ring
    /// nobody else can see yet.
    pub(crate) fn full(mut self) -> Self {
        self.fill();
        self
    }

    /// Rewrites the ring, in place, into the state a new empty ring starts
    /// in: every entry initial, every `Note` zero, `Head` and `Tail` at `2n`
    /// with no help reference, and the threshold at −1.  `&mut self` makes
    /// each write a plain store: no ring operation runs, so no counter moves
    /// (a checked run passes only the two reads of `Head` and `Tail`, which
    /// go through the cells).  The slow-path state (wCQ's thread records) is
    /// left as it is.
    ///
    /// A ring whose `Head` and `Tail` are both still at `2n` took no ticket
    /// since it was built or last cleared, and an entry changes only under a
    /// ticket, so only the threshold is written then.  (`Head` moves only
    /// past a non-negative threshold, which only a deposit — a tail ticket —
    /// or a pre-filled `fq`'s construction sets.)
    pub fn clear(&mut self) {
        let l = self.layout;
        let first = l.init_counter();
        if self.head.load_cnt() != first || self.tail.load_cnt() != first {
            for entry in self.entries.iter_mut() {
                *entry = F::Entry::new(l.init_entry());
            }
            self.head = CachePadded::new(F::Ctr::new(first));
            self.tail = CachePadded::new(F::Ctr::new(first));
        }
        self.threshold = CachePadded::new(AtomicI64::new(-1));
    }

    /// Rewrites the ring, in place, into the state [`Ring::empty`]`.full()`
    /// builds: the state `capacity` uncontended enqueues into a fresh ring
    /// leave behind.  [`Ring::clear`], then the slot of ticket `2n + i`
    /// holds `{cycle 1, safe, Enq, i}` for `i < n`, `Tail` is `3n`, and the
    /// threshold is re-armed — plain stores, as in `clear`.
    pub(crate) fn fill(&mut self) {
        self.clear();
        let l = self.layout;
        let first = l.init_counter();
        for i in 0..l.capacity() {
            let t = first + i;
            self.entries[l.slot(t)] = F::Entry::new(l.pack(l.cycle(t), true, true, i));
        }
        self.tail = CachePadded::new(F::Ctr::new(first + l.capacity()));
        self.threshold = CachePadded::new(AtomicI64::new(l.max_threshold()));
    }

    /// The ring's geometry.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Usable capacity (`2^order`).
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.layout.capacity()
    }

    /// Current threshold value (test/benchmark introspection); negative
    /// means a dequeue answers "empty" without touching `Head`.
    #[inline]
    pub fn threshold(&self) -> i64 {
        self.threshold.load(SeqCst)
    }

    /// Approximate number of stored values (`tail − head`, clamped).  Only a
    /// hint: concurrent operations may make it stale immediately.
    pub fn len_hint(&self) -> u64 {
        self.tail.load_cnt().saturating_sub(self.head.load_cnt())
    }

    /// Re-arms the threshold after a deposit (Figure 3, lines 27–28).
    #[inline]
    pub(crate) fn rearm_threshold(&self) {
        let max = self.layout.max_threshold();
        if self.threshold.load(SeqCst) != max {
            self.threshold.store(max, SeqCst);
        }
    }

    /// `try_enq` after its F&A (Figure 3, lines 19–29): one insertion
    /// attempt at the reserved tail ticket `t`.  `false` means the ticket is
    /// spent and the caller takes a fresh one.
    #[inline]
    pub(crate) fn try_enq(&self, t: u64, index: u64, hook: impl Hook) -> bool {
        let l = &self.layout;
        debug_assert!(index < l.capacity(), "index out of range");
        let cell = &self.entries[l.slot(t)];
        loop {
            let raw = cell.load_value();
            let e = l.unpack(raw);
            if e.cycle < l.cycle(t)
                && (e.is_safe || self.head.load_cnt() <= t)
                && l.is_reserved(e.index)
            {
                if !cell.cas_value(raw, l.pack(l.cycle(t), true, true, index)) {
                    hook.cas_failed();
                    continue; // Line 25: re-read and re-evaluate.
                }
                self.rearm_threshold();
                return true;
            }
            return false;
        }
    }

    /// `consume` (Figure 5, lines 1–3; Figure 3, lines 11–12 when the hook
    /// is empty): mark slot `j`, read as `raw` at head ticket `h`, consumed
    /// with one atomic OR.
    #[inline]
    pub(crate) fn consume(&self, h: u64, j: usize, raw: u64, hook: impl Hook) {
        if raw & self.layout.enq_bit() == 0 {
            hook.finalize(h);
        }
        self.entries[j].or_value(self.layout.consume_mask());
    }
}

impl<F: RingFamily, S: SlowState> Ring<F, S> {
    /// `catchup` (Figure 3, lines 13–17), bounded per §3.2: advance `Tail`
    /// to `Head` after a dequeuer overshot an empty ring.
    pub(crate) fn catchup(&self, mut tail: u64, mut head: u64) {
        for _ in 0..self.slow.max_catchup() {
            if self.tail.cas_cnt_weak(tail, head) {
                return;
            }
            head = self.head.load_cnt();
            tail = self.tail.load_cnt();
            if tail >= head {
                return;
            }
        }
    }

    /// `try_deq` after its F&A (Figure 3, lines 31–52): one consume attempt
    /// at the reserved head ticket `h`.  Every reserved ticket MUST pass
    /// through here: a missed ticket still advances the slot's cycle, so a
    /// straggling enqueuer with an older ticket cannot deposit into a slot no
    /// dequeuer will ever visit again.
    #[inline]
    pub(crate) fn try_deq(&self, h: u64, hook: impl Hook) -> Deq {
        let l = &self.layout;
        let j = l.slot(h);
        let cell = &self.entries[j];
        loop {
            let raw = cell.load_value();
            let e = l.unpack(raw);
            if e.cycle == l.cycle(h) {
                self.consume(h, j, raw, hook);
                return Deq::Got(e.index);
            }
            let new = if l.is_reserved(e.index) {
                // Reserve the slot for our (newer) cycle so a late enqueuer
                // of an older cycle cannot use it.
                l.pack(l.cycle(h), e.is_safe, true, l.bottom())
            } else {
                // An unconsumed value of an older cycle: mark it unsafe
                // rather than destroying it.  Its Enq bit is kept — under
                // wCQ it may be a not-yet-finalized slow-path insertion.
                l.pack(e.cycle, false, e.enq, e.index)
            };
            if e.cycle < l.cycle(h) && !cell.cas_value(raw, new) {
                hook.cas_failed();
                continue;
            }
            // Empty detection.
            let t = self.tail.load_cnt();
            if t <= h + 1 {
                self.catchup(t, h + 1);
                self.threshold.fetch_sub(1, SeqCst);
                return Deq::Empty;
            }
            if self.threshold.fetch_sub(1, SeqCst) <= 0 {
                return Deq::Empty;
            }
            return Deq::Retry;
        }
    }

    /// Heap bytes the ring owns: the entries plus whatever the
    /// instantiation's state adds.  A struct that embeds the ring (the
    /// `aq` + `fq` queues) adds this to its own `size_of`.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.len() * core::mem::size_of::<F::Entry>() + self.slow.heap_bytes()
    }

    /// Bytes the ring occupies, header included — the quantity plotted in
    /// Figure 10a, and exactly what the allocator hands out for it
    /// (`tests/bounded_memory.rs`).
    pub fn memory_footprint(&self) -> usize {
        core::mem::size_of::<Self>() + self.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scq::ScqRing;
    use crate::test_util::xorshift;
    use crate::wcq::cells::EntryCell;
    use crate::wcq::{CellFamily, LlscFamily, NativeFamily, WcqRing};

    /// `(head, tail, threshold, Value words)`, the words listed by ticket
    /// position rather than physical slot: 8- and 16-byte entries remap
    /// differently, the tickets they serve do not.
    fn state<F: RingFamily, S>(r: &Ring<F, S>) -> (u64, u64, i64, Vec<u64>) {
        let values = (0..r.layout.ring_size())
            .map(|p| r.entries[r.layout.slot(p)].load_value())
            .collect();
        (r.head.load_cnt(), r.tail.load_cnt(), r.threshold(), values)
    }

    /// SCQ and a one-thread wCQ are the same function: fed the same
    /// operations they give the same answers and end in the same state.
    #[test]
    fn scq_and_one_thread_wcq_agree_step_for_step() {
        for seed in 1..=64u64 {
            for order in 1..=4u32 {
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let scq = ScqRing::new(order);
                let wcq: WcqRing = WcqRing::new(order, 1);
                let mut h = wcq.register().unwrap();
                let mut stored = 0;
                for step in 0..1 + xorshift(&mut rng) % 300 {
                    // The capacity discipline is the caller's to keep.
                    if xorshift(&mut rng) & 1 == 0 && stored < scq.capacity() {
                        scq.enqueue(step % scq.capacity());
                        h.enqueue(step % scq.capacity());
                        stored += 1;
                    } else {
                        let got = scq.dequeue();
                        assert_eq!(got, h.dequeue(), "seed {seed} order {order} step {step}");
                        stored -= u64::from(got.is_some());
                    }
                }
                assert_eq!(state(&scq), state(&wcq), "seed {seed} order {order}");
            }
        }
    }

    /// `full()` is not a second way to fill a ring, only a shorter one: it
    /// leaves every word — `Note`s included — as `capacity` enqueues do.
    #[test]
    fn full_is_the_state_capacity_enqueues_leave_behind() {
        fn wcq<F: CellFamily>() {
            for order in 1..=4u32 {
                let looped = WcqRing::<F>::new(order, 1);
                let mut h = looped.register().unwrap();
                (0..looped.capacity()).for_each(|i| h.enqueue(i));
                let full = WcqRing::<F>::new(order, 1).full();
                assert_eq!(state(&full), state(&looped), "{} order {order}", F::NAME);
                let pairs = |r: &WcqRing<F>| r.entries.iter().map(|e| e.load()).collect::<Vec<_>>();
                assert_eq!(pairs(&full), pairs(&looped), "{} order {order}", F::NAME);
            }
        }
        wcq::<NativeFamily>();
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        wcq::<LlscFamily>();
        for order in 1..=4u32 {
            let looped = ScqRing::new(order);
            (0..looped.capacity()).for_each(|i| looped.enqueue(i));
            assert_eq!(
                state(&ScqRing::new_full(order)),
                state(&looped),
                "order {order}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn slow_path_state_rides_in_the_cores_padding() {
        assert_eq!(core::mem::size_of::<ScqRing>(), 512);
        assert_eq!(core::mem::size_of::<WcqRing>(), 512);
    }
}
