//! Hardware-model abstraction for wCQ's double-width memory cells.
//!
//! The paper presents wCQ for two classes of machines:
//!
//! * §3 — machines with a true double-width CAS (`CAS2`): x86-64 and AArch64.
//!   Entries are `(Value, Note)` pairs modified with `CAS2`, and the global
//!   `Head`/`Tail` are `(counter, phase-2 reference)` pairs whose counter is
//!   advanced with hardware F&A on the fast path.
//! * §4 — machines with only single-word LL/SC (PowerPC, MIPS): entry pairs
//!   share an LL/SC reservation granule and are updated with the `CAS2_Value`
//!   / `CAS2_Note` constructions of Figure 9; `Head`/`Tail` pack a small
//!   thread index next to a reduced-width counter in a single word, and F&A is
//!   emulated with an LL/SC (CAS) loop.
//!
//! Both models are captured by the [`CellFamily`] trait so that a single
//! implementation of the queue algorithm ([`super::WcqRing`]) covers both.
//! The traits are split where Figure 3 stops: [`ValueCell`], [`TicketCtr`]
//! and [`RingFamily`] are what the shared fast path ([`crate::ring`]) uses —
//! and all SCQ's single-word cells implement — while [`EntryCell`],
//! [`GlobalCtr`] and [`CellFamily`] add the double-width operations of
//! Figures 5–7 on top.
//! [`NativeFamily`] uses `wcq-atomics`' `lock cmpxchg16b` path;
//! [`LlscFamily`] uses the software LL/SC emulation (see DESIGN.md for why
//! this substitution preserves the Figure 12 experiment).
//!
//! One deliberate simplification relative to the paper: instead of storing a
//! raw `phase2rec_t*` pointer in the `Head`/`Tail` pair, both families store
//! the *owner thread index plus one* (0 = no request).  Thread records live in
//! a fixed array inside the ring, so the index identifies the same record the
//! pointer would, removes all raw-pointer handling from the slow path, and is
//! exactly the encoding §4 prescribes for LL/SC machines.  ABA on the
//! reference is prevented by the monotonically increasing counter, as in the
//! paper.

use core::sync::atomic::{AtomicU64, Ordering::SeqCst};

use wcq_atomics::llsc::Granule;
use wcq_atomics::AtomicDouble;

/// The `Value` word of a ring entry — everything Figure 3 asks of one.  An
/// entry that also carries a `Note` ([`EntryCell`]) starts with it zeroed.
pub trait ValueCell: Send + Sync + Sized {
    /// Creates a cell whose `Value` word is `value`.
    fn new(value: u64) -> Self;
    /// Atomic load of the `Value` word.
    fn load_value(&self) -> u64;
    /// Single-word CAS on the `Value` word (fast path insertion).
    fn cas_value(&self, expected: u64, new: u64) -> bool;
    /// Atomic OR on the `Value` word (`consume`), returning the old value.
    fn or_value(&self, bits: u64) -> u64;
}

/// A 16-byte ring-entry cell holding the packed `Value` (low word) and the
/// `Note` (high word): [`ValueCell`] plus what Figures 5–7 need.
pub trait EntryCell: ValueCell {
    /// Atomic double-width load of `(value, note)`.
    fn load(&self) -> (u64, u64);
    /// Double-width CAS replacing the `Value` word while requiring the whole
    /// `(value, note)` pair to match (`CAS2` / `CAS2_Value`).
    fn cas2_value(&self, expected: (u64, u64), new_value: u64) -> bool;
    /// Double-width CAS replacing the `Note` word while requiring the whole
    /// pair to match (`CAS2` / `CAS2_Note`).
    fn cas2_note(&self, expected: (u64, u64), new_note: u64) -> bool;
}

/// The ticket counter half of a global `Head` or `Tail` — everything
/// Figure 3 asks of one.  A counter that also carries a help reference
/// ([`GlobalCtr`]) starts with none, and these operations leave it untouched.
pub trait TicketCtr: Send + Sync + Sized {
    /// Creates a counter initialized to `init`.
    fn new(init: u64) -> Self;
    /// Atomically loads the counter.
    fn load_cnt(&self) -> u64;
    /// Fast-path fetch-and-add on the counter, returning the previous value.
    fn fetch_add_cnt(&self) -> u64;
    /// Fetch-and-add of `n` on the counter, returning the previous value —
    /// the batch-reservation primitive: one increment claims a run of `n`
    /// consecutive tickets.
    fn fetch_add_cnt_n(&self, n: u64) -> u64;
    /// Single attempt to move the counter from `expected_cnt` to `new_cnt`
    /// (used by the bounded `catchup`).
    fn cas_cnt_weak(&self, expected_cnt: u64, new_cnt: u64) -> bool;
}

/// The global `Head` or `Tail` reference: a monotonically increasing counter
/// ([`TicketCtr`]) plus a phase-2 help reference (`tid + 1`, `0` = none).
pub trait GlobalCtr: TicketCtr {
    /// Atomically loads `(counter, help_ref)`.
    fn load(&self) -> (u64, u64);
    /// Double-width CAS on `(counter, help_ref)`.
    fn cas(&self, expected: (u64, u64), new: (u64, u64)) -> bool;
}

/// The cells Figure 3 runs on: what [`crate::ring::Ring`] is generic over,
/// and all that SCQ needs.
pub trait RingFamily: 'static {
    /// Ring-entry cell type.
    type Entry: ValueCell;
    /// Head/Tail counter type.
    type Ctr: TicketCtr;
    /// Human-readable name used by benchmarks ("native-cas2", "llsc-emu").
    const NAME: &'static str;
}

/// A [`RingFamily`] whose cells carry the second word Figures 5–7 work on:
/// one hardware model for wCQ.  Implemented for every such family.
pub trait CellFamily: RingFamily<Entry: EntryCell, Ctr: GlobalCtr> {}

impl<F: RingFamily<Entry: EntryCell, Ctr: GlobalCtr>> CellFamily for F {}

// ---------------------------------------------------------------------------
// Native double-width CAS family (§3).
// ---------------------------------------------------------------------------

/// Hardware model of §3: entries and Head/Tail are 16-byte pairs manipulated
/// with `lock cmpxchg16b`; the fast path uses hardware F&A and atomic OR.
pub struct NativeFamily;

/// Entry cell backed by [`AtomicDouble`].
pub struct NativeEntry(AtomicDouble);

impl ValueCell for NativeEntry {
    fn new(value: u64) -> Self {
        Self(AtomicDouble::new(value, 0))
    }
    #[inline]
    fn load_value(&self) -> u64 {
        self.0.load_lo()
    }
    #[inline]
    fn cas_value(&self, expected: u64, new: u64) -> bool {
        self.0.cas_lo(expected, new)
    }
    #[inline]
    fn or_value(&self, bits: u64) -> u64 {
        self.0.fetch_or_lo(bits)
    }
}

impl EntryCell for NativeEntry {
    #[inline]
    fn load(&self) -> (u64, u64) {
        self.0.load()
    }
    #[inline]
    fn cas2_value(&self, expected: (u64, u64), new_value: u64) -> bool {
        self.0.cas2_lo(expected, new_value)
    }
    #[inline]
    fn cas2_note(&self, expected: (u64, u64), new_note: u64) -> bool {
        self.0.cas2_hi(expected, new_note)
    }
}

/// Head/Tail counter backed by [`AtomicDouble`]: counter in the low word,
/// help reference in the high word.  Under the `check-mutations` feature its
/// fast-path F&A and its run reservation are deliberately torn, for the
/// `wcq-check` mutation proof.
pub struct NativeCtr(AtomicDouble);

impl TicketCtr for NativeCtr {
    fn new(init: u64) -> Self {
        Self(AtomicDouble::new(init, 0))
    }
    #[inline]
    fn load_cnt(&self) -> u64 {
        self.0.load_lo()
    }
    #[inline]
    fn fetch_add_cnt(&self) -> u64 {
        #[cfg(feature = "check-mutations")]
        {
            // MUTATION (check-mutations): models downgrading the Head/Tail
            // counter F&A from one SeqCst read-modify-write to the weaker
            // access the algorithm must NOT use.  A memory-ordering downgrade
            // alone is invisible under a serialized sequentially-consistent
            // explorer, so the mutation realizes the concrete outcome the
            // downgrade licenses: the RMW is torn into a load and a blind
            // store with a schedule point in between, letting two threads
            // claim the same ring ticket.
            let prev = self.0.load_lo();
            wcq_atomics::yield_point("ctr.faa.torn");
            self.0.store_lo(prev.wrapping_add(1));
            prev
        }
        #[cfg(not(feature = "check-mutations"))]
        self.0.fetch_add_lo(1)
    }
    #[inline]
    fn fetch_add_cnt_n(&self, n: u64) -> u64 {
        #[cfg(feature = "check-mutations")]
        {
            // MUTATION (check-mutations): the run reservation torn the same
            // way, so two threads can claim overlapping runs of tickets.
            let prev = self.0.load_lo();
            wcq_atomics::yield_point("ctr.faa_n.torn");
            self.0.store_lo(prev.wrapping_add(n));
            prev
        }
        #[cfg(not(feature = "check-mutations"))]
        self.0.fetch_add_lo(n)
    }
    #[inline]
    fn cas_cnt_weak(&self, expected_cnt: u64, new_cnt: u64) -> bool {
        self.0.cas_lo(expected_cnt, new_cnt)
    }
}

impl GlobalCtr for NativeCtr {
    #[inline]
    fn load(&self) -> (u64, u64) {
        self.0.load()
    }
    #[inline]
    fn cas(&self, expected: (u64, u64), new: (u64, u64)) -> bool {
        self.0.cas2(expected, new)
    }
}

impl RingFamily for NativeFamily {
    type Entry = NativeEntry;
    type Ctr = NativeCtr;
    const NAME: &'static str = "native-cas2";
}

// ---------------------------------------------------------------------------
// Emulated LL/SC family (§4, Figure 9).
// ---------------------------------------------------------------------------

/// Hardware model of §4: no double-width CAS and no native F&A.  Entry pairs
/// live in one emulated LL/SC reservation granule; Head/Tail pack the help
/// reference into the top 16 bits of a single 64-bit word.
pub struct LlscFamily;

/// Entry cell backed by an emulated LL/SC [`Granule`]: word 0 is the `Value`,
/// word 1 the `Note`.
pub struct LlscEntry(Granule);

impl ValueCell for LlscEntry {
    fn new(value: u64) -> Self {
        Self(Granule::new(value, 0))
    }
    #[inline]
    fn load_value(&self) -> u64 {
        self.0.load(0)
    }
    #[inline]
    fn cas_value(&self, expected: u64, new: u64) -> bool {
        self.0.cas_word(0, expected, new)
    }
    #[inline]
    fn or_value(&self, bits: u64) -> u64 {
        self.0.fetch_or_word(0, bits)
    }
}

impl EntryCell for LlscEntry {
    #[inline]
    fn load(&self) -> (u64, u64) {
        self.0.snapshot()
    }
    #[inline]
    fn cas2_value(&self, expected: (u64, u64), new_value: u64) -> bool {
        self.0.cas2_word0(expected, new_value)
    }
    #[inline]
    fn cas2_note(&self, expected: (u64, u64), new_note: u64) -> bool {
        self.0.cas2_word1(expected, new_note)
    }
}

/// Head/Tail counter for LL/SC machines: a single 64-bit word with the
/// counter in the low 48 bits and the help reference (`tid + 1`) in the top
/// 16 bits, as §4 suggests ("packing a small thread index with a reduced
/// counter").  F&A is emulated with a CAS loop because PowerPC/MIPS have no
/// native wait-free F&A.
pub struct LlscCtr(AtomicU64);

impl LlscCtr {
    /// Number of bits reserved for the counter.
    pub const CNT_BITS: u32 = 48;
    const CNT_MASK: u64 = (1 << Self::CNT_BITS) - 1;

    #[inline]
    fn pack(cnt: u64, help: u64) -> u64 {
        debug_assert!(cnt <= Self::CNT_MASK, "counter exceeded 48 bits");
        debug_assert!(help < (1 << 16), "help reference exceeds 16 bits");
        (help << Self::CNT_BITS) | (cnt & Self::CNT_MASK)
    }

    #[inline]
    fn unpack(word: u64) -> (u64, u64) {
        (word & Self::CNT_MASK, word >> Self::CNT_BITS)
    }
}

impl TicketCtr for LlscCtr {
    fn new(init: u64) -> Self {
        Self(AtomicU64::new(Self::pack(init, 0)))
    }
    #[inline]
    fn load_cnt(&self) -> u64 {
        Self::unpack(self.0.load(SeqCst)).0
    }
    #[inline]
    fn fetch_add_cnt(&self) -> u64 {
        self.fetch_add_cnt_n(1)
    }
    #[inline]
    fn fetch_add_cnt_n(&self, n: u64) -> u64 {
        // Emulated F&A: CAS loop preserving the help reference.  A batch
        // reservation is still one *successful* SC, so the amortization
        // carries over to the LL/SC model (n tickets per loop exit).
        loop {
            let cur = self.0.load(SeqCst);
            let (cnt, help) = Self::unpack(cur);
            let new = Self::pack(cnt + n, help);
            if self.0.compare_exchange(cur, new, SeqCst, SeqCst).is_ok() {
                return cnt;
            }
            core::hint::spin_loop();
        }
    }
    #[inline]
    fn cas_cnt_weak(&self, expected_cnt: u64, new_cnt: u64) -> bool {
        let cur = self.0.load(SeqCst);
        let (cnt, help) = Self::unpack(cur);
        if cnt != expected_cnt {
            return false;
        }
        self.0
            .compare_exchange(cur, Self::pack(new_cnt, help), SeqCst, SeqCst)
            .is_ok()
    }
}

impl GlobalCtr for LlscCtr {
    #[inline]
    fn load(&self) -> (u64, u64) {
        Self::unpack(self.0.load(SeqCst))
    }
    #[inline]
    fn cas(&self, expected: (u64, u64), new: (u64, u64)) -> bool {
        self.0
            .compare_exchange(
                Self::pack(expected.0, expected.1),
                Self::pack(new.0, new.1),
                SeqCst,
                SeqCst,
            )
            .is_ok()
    }
}

impl RingFamily for LlscFamily {
    type Entry = LlscEntry;
    type Ctr = LlscCtr;
    const NAME: &'static str = "llsc-emu";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_cell_contract<E: EntryCell>() {
        let c = E::new(5);
        assert_eq!(c.load(), (5, 0));
        assert_eq!(c.load_value(), 5);
        assert!(c.cas_value(5, 6));
        assert!(!c.cas_value(5, 7));
        assert_eq!(c.or_value(0b1000), 6);
        assert_eq!(c.load_value(), 0b1110);
        // cas2_value requires both words to match and keeps the note.
        assert!(!c.cas2_value((0b1110, 99), 1));
        assert!(c.cas2_value((0b1110, 0), 1));
        assert_eq!(c.load(), (1, 0));
        // cas2_note requires both words to match and keeps the value.
        assert!(!c.cas2_note((2, 0), 7));
        assert!(c.cas2_note((1, 0), 7));
        assert_eq!(c.load(), (1, 7));
    }

    fn global_ctr_contract<C: GlobalCtr>() {
        let c = C::new(100);
        assert_eq!(c.load(), (100, 0));
        assert_eq!(c.load_cnt(), 100);
        assert_eq!(c.fetch_add_cnt(), 100);
        assert_eq!(c.fetch_add_cnt(), 101);
        assert_eq!(c.load_cnt(), 102);
        // Install a help reference, counter must advance together with it.
        assert!(c.cas((102, 0), (103, 5)));
        assert_eq!(c.load(), (103, 5));
        // Fast-path F&A leaves the help reference intact.
        assert_eq!(c.fetch_add_cnt(), 103);
        assert_eq!(c.load(), (104, 5));
        // Batch reservation: one F&A claims a run, reference still intact.
        assert_eq!(c.fetch_add_cnt_n(3), 104);
        assert_eq!(c.load(), (107, 5));
        assert!(c.cas((107, 5), (104, 5)));
        // Clearing the reference needs the exact pair.
        assert!(!c.cas((103, 5), (103, 0)));
        assert!(c.cas((104, 5), (104, 0)));
        // catchup-style weak counter CAS preserves the reference field.
        assert!(c.cas((104, 0), (104, 3)));
        assert!(c.cas_cnt_weak(104, 110));
        assert_eq!(c.load(), (110, 3));
        assert!(!c.cas_cnt_weak(104, 120));
    }

    #[test]
    fn native_entry_contract() {
        entry_cell_contract::<NativeEntry>();
    }

    #[test]
    fn llsc_entry_contract() {
        wcq_atomics::llsc::set_spurious_failure_rate(0.0);
        entry_cell_contract::<LlscEntry>();
    }

    #[test]
    fn native_ctr_contract() {
        global_ctr_contract::<NativeCtr>();
    }

    #[test]
    fn llsc_ctr_contract() {
        global_ctr_contract::<LlscCtr>();
    }

    #[test]
    fn llsc_ctr_packing_bounds() {
        let c = LlscCtr::new((1 << LlscCtr::CNT_BITS) - 2);
        assert_eq!(c.load_cnt(), (1 << LlscCtr::CNT_BITS) - 2);
        assert_eq!(c.fetch_add_cnt(), (1 << LlscCtr::CNT_BITS) - 2);
    }
}
