//! `CheckedFamily`: the third hardware model — native double-width cells
//! wrapped with scheduler yield points.
//!
//! Structurally this is [`NativeFamily`](wcq_core::wcq::NativeFamily) (every
//! operation maps to the same [`AtomicDouble`] primitive), but each
//! `EntryCell`/`GlobalCtr` operation first passes through
//! [`maybe_yield`], handing the cooperative token scheduler a preemption
//! point *before* the hardware instruction executes.  Because the scheduler
//! serializes execution, a queue instantiated at `WcqQueue<T, CheckedFamily>`
//! runs the exact §3 algorithm while the explorer enumerates interleavings
//! of its atomic steps.  (The instrumented `AtomicDouble` itself adds a
//! second yield per operation via the `wcq-atomics` checkpoint seam; more
//! preemption points only widen the explored space.)
//!
//! Under the `check-mutations` feature one documented site is deliberately
//! broken — see [`TicketCtr::fetch_add_cnt`] below — so the test-suite can
//! prove the explorer detects a real interleaving bug with a replayable
//! seed.

use wcq_atomics::AtomicDouble;
use wcq_core::wcq::cells::{EntryCell, GlobalCtr, RingFamily, TicketCtr, ValueCell};

use crate::sched::maybe_yield;

/// Hardware model for checking: native CAS2 cells with scheduler yield
/// points at every operation.
pub struct CheckedFamily;

/// Entry cell backed by [`AtomicDouble`] with a yield point per operation.
pub struct CheckedEntry(AtomicDouble);

impl ValueCell for CheckedEntry {
    fn new(value: u64) -> Self {
        Self(AtomicDouble::new(value, 0))
    }
    #[inline]
    fn load_value(&self) -> u64 {
        maybe_yield("entry.load_value");
        self.0.load_lo()
    }
    #[inline]
    fn cas_value(&self, expected: u64, new: u64) -> bool {
        maybe_yield("entry.cas_value");
        self.0.cas_lo(expected, new)
    }
    #[inline]
    fn or_value(&self, bits: u64) -> u64 {
        maybe_yield("entry.or_value");
        self.0.fetch_or_lo(bits)
    }
}

impl EntryCell for CheckedEntry {
    #[inline]
    fn load(&self) -> (u64, u64) {
        maybe_yield("entry.load");
        self.0.load()
    }
    #[inline]
    fn cas2_value(&self, expected: (u64, u64), new_value: u64) -> bool {
        maybe_yield("entry.cas2_value");
        self.0.cas2_lo(expected, new_value)
    }
    #[inline]
    fn cas2_note(&self, expected: (u64, u64), new_note: u64) -> bool {
        maybe_yield("entry.cas2_note");
        self.0.cas2_hi(expected, new_note)
    }
}

/// Head/Tail counter backed by [`AtomicDouble`] with a yield point per
/// operation — and, under `check-mutations`, a deliberately torn fast-path
/// F&A.
pub struct CheckedCtr(AtomicDouble);

impl TicketCtr for CheckedCtr {
    fn new(init: u64) -> Self {
        Self(AtomicDouble::new(init, 0))
    }
    #[inline]
    fn load_cnt(&self) -> u64 {
        maybe_yield("ctr.load_cnt");
        self.0.load_lo()
    }
    #[inline]
    fn fetch_add_cnt(&self) -> u64 {
        maybe_yield("ctr.faa");
        #[cfg(feature = "check-mutations")]
        {
            // MUTATION (check-mutations): models downgrading the Head/Tail
            // counter F&A from one SeqCst read-modify-write to the weaker
            // access the algorithm must NOT use.  A memory-ordering downgrade
            // alone is invisible under a serialized sequentially-consistent
            // explorer, so the mutation realizes the concrete outcome the
            // downgrade licenses: the RMW is torn into a load and a blind
            // store with a schedule point in between, letting two threads
            // claim the same ring ticket.  The oracle then reports the
            // resulting duplicate/lost value with a replayable seed.
            let prev = self.0.load_lo();
            maybe_yield("ctr.faa.torn");
            self.0.store_lo(prev.wrapping_add(1));
            return prev;
        }
        #[cfg(not(feature = "check-mutations"))]
        self.0.fetch_add_lo(1)
    }
    #[inline]
    fn fetch_add_cnt_n(&self, n: u64) -> u64 {
        maybe_yield("ctr.faa_n");
        self.0.fetch_add_lo(n)
    }
    #[inline]
    fn cas_cnt_weak(&self, expected_cnt: u64, new_cnt: u64) -> bool {
        maybe_yield("ctr.cas_cnt");
        self.0.cas_lo(expected_cnt, new_cnt)
    }
}

impl GlobalCtr for CheckedCtr {
    #[inline]
    fn load(&self) -> (u64, u64) {
        maybe_yield("ctr.load");
        self.0.load()
    }
    #[inline]
    fn cas(&self, expected: (u64, u64), new: (u64, u64)) -> bool {
        maybe_yield("ctr.cas");
        self.0.cas2(expected, new)
    }
}

impl RingFamily for CheckedFamily {
    type Entry = CheckedEntry;
    type Ctr = CheckedCtr;
    const NAME: &'static str = "checked-cas2";
}

#[cfg(test)]
mod tests {
    use super::*;

    // The same contract sequences `wcq-core` runs against Native/Llsc cells;
    // with no scheduler registered every yield point is a no-op, so the
    // checked family must behave exactly like the native one.  The torn-F&A
    // mutation is single-thread-equivalent, so the contract holds under
    // `check-mutations` too — by design: only *interleavings* expose it.

    #[test]
    fn entry_contract_matches_native() {
        let c = CheckedEntry::new(5);
        assert_eq!(c.load(), (5, 0));
        assert_eq!(c.load_value(), 5);
        assert!(c.cas_value(5, 6));
        assert!(!c.cas_value(5, 7));
        assert_eq!(c.or_value(0b1000), 6);
        assert!(!c.cas2_value((0b1110, 99), 1));
        assert!(c.cas2_value((0b1110, 0), 1));
        assert!(c.cas2_note((1, 0), 7));
        assert_eq!(c.load(), (1, 7));
    }

    #[test]
    fn ctr_contract_matches_native() {
        let c = CheckedCtr::new(100);
        assert_eq!(c.load(), (100, 0));
        assert_eq!(c.fetch_add_cnt(), 100);
        assert_eq!(c.fetch_add_cnt(), 101);
        assert_eq!(c.load_cnt(), 102);
        assert!(c.cas((102, 0), (103, 5)));
        assert_eq!(c.fetch_add_cnt_n(3), 103);
        assert_eq!(c.load(), (106, 5));
        assert!(c.cas((106, 5), (106, 0)));
        assert!(c.cas_cnt_weak(106, 110));
        assert_eq!(c.load_cnt(), 110);
    }
}
