//! Software emulation of weak LL/SC reservation granules.
//!
//! Section 4 of the wCQ paper shows how to implement the algorithm on
//! architectures that lack a double-width CAS (PowerPC, MIPS) but provide
//! load-linked / store-conditional with a reservation granule larger than one
//! word: both halves of an entry are placed in the same granule, `LL` is
//! performed on the half being modified, the other half is read with a plain
//! load in between, and the `SC` only succeeds if the *whole granule* was left
//! untouched (Figure 9, `CAS2_Value` / `CAS2_Note`).
//!
//! Real LL/SC hardware is not available in this reproduction environment
//! (DESIGN.md, substitution table), so this module emulates the semantics in
//! software:
//!
//! * a [`Granule`] holds two 64-bit words and a version counter,
//! * [`Granule::load_linked`] returns the word plus a [`Reservation`]
//!   capturing the version,
//! * [`Granule::store_conditional`] succeeds only if no store to *either*
//!   word of the granule happened since the reservation was taken, and
//! * spurious failures can be injected (real weak LL/SC may fail spuriously,
//!   e.g. on interrupts) via [`set_spurious_failure_rate`], which the failure
//!   injection tests use to exercise the retry paths.
//!
//! The emulation is linearizable but, being built on a version CAS, it is not
//! itself wait-free; it exists to exercise the identical algorithmic code path
//! that the paper adds for LL/SC machines and to regenerate the Figure 12
//! configuration.

use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::cell::Cell;

// Each granule operation yields at its *entry*, never inside the
// version-odd window, so a suspended thread can never wedge the granule for
// others.
use crate::yield_point as checkpoint;

/// Global spurious-failure rate for `store_conditional`, expressed as
/// failures per 2^32 attempts (0 = never fail spuriously).
static SPURIOUS_RATE: AtomicU32 = AtomicU32::new(0);

/// Process-global tally of injected spurious SC failures (observability; the
/// metrics layer folds this into its snapshots).  Only bumped when injection
/// is enabled, so the rate-0 fast path stays a single load + branch.
static SPURIOUS_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Total spurious store-conditional failures injected since process start.
pub fn spurious_sc_failures() -> u64 {
    // relaxed: monotone observability counter; readers only need an
    // eventually-consistent tally, never ordering against other memory.
    SPURIOUS_FAILURES.load(Ordering::Relaxed)
}

/// Sets the probability (0.0..=1.0) that any `store_conditional` fails even
/// though the reservation is still valid, emulating weak LL/SC.
pub fn set_spurious_failure_rate(p: f64) {
    let clamped = p.clamp(0.0, 1.0);
    let scaled = (clamped * u32::MAX as f64) as u32;
    SPURIOUS_RATE.store(scaled, Ordering::SeqCst);
}

/// Returns the currently configured spurious failure probability.
pub fn spurious_failure_rate() -> f64 {
    SPURIOUS_RATE.load(Ordering::SeqCst) as f64 / u32::MAX as f64
}

thread_local! {
    static RNG_STATE: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
}

fn spurious_failure() -> bool {
    // relaxed: the rate is test-configuration state; a stale read only delays
    // when injection kicks in and has no bearing on granule correctness.
    let rate = SPURIOUS_RATE.load(Ordering::Relaxed);
    if rate == 0 {
        return false;
    }
    RNG_STATE.with(|s| {
        // xorshift64*: cheap, deterministic per thread, good enough for
        // failure injection.
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        let fail = (x as u32) < rate;
        if fail {
            // relaxed: observability tally only (see spurious_sc_failures).
            SPURIOUS_FAILURES.fetch_add(1, Ordering::Relaxed);
        }
        fail
    })
}

/// A reservation handle returned by [`Granule::load_linked`].
///
/// The reservation is only meaningful for the granule it was taken on; using
/// it with another granule makes the corresponding SC fail.
#[derive(Debug, Clone, Copy)]
pub struct Reservation {
    version: u64,
    granule: usize,
}

/// An emulated LL/SC reservation granule holding two 64-bit words.
///
/// The two words model a wCQ entry's `(Value, Note)` pair sharing one
/// reservation granule (one L1 line on PowerPC).  Any successful store —
/// conditional or plain — to either word invalidates all outstanding
/// reservations on the granule, exactly the "false sharing" behaviour §4
/// relies on.
#[repr(C, align(16))]
#[derive(Debug)]
pub struct Granule {
    /// Even = stable, odd = a store is in progress.
    version: AtomicU64,
    words: [AtomicU64; 2],
}

impl Default for Granule {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl Granule {
    /// Creates a granule initialized to `(w0, w1)`.
    pub const fn new(w0: u64, w1: u64) -> Self {
        Self {
            version: AtomicU64::new(0),
            words: [AtomicU64::new(w0), AtomicU64::new(w1)],
        }
    }

    #[inline]
    fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// Load-linked: atomically reads word `idx` and takes a reservation on the
    /// whole granule.
    #[inline]
    pub fn load_linked(&self, idx: usize) -> (u64, Reservation) {
        checkpoint("granule.ll");
        loop {
            let v = self.version.load(Ordering::SeqCst);
            if v % 2 == 1 {
                core::hint::spin_loop();
                continue;
            }
            let word = self.words[idx].load(Ordering::SeqCst);
            if self.version.load(Ordering::SeqCst) == v {
                return (
                    word,
                    Reservation {
                        version: v,
                        granule: self.id(),
                    },
                );
            }
        }
    }

    /// Plain atomic load of word `idx` (the read the paper performs *between*
    /// LL and SC on the other word).
    #[inline]
    pub fn load(&self, idx: usize) -> u64 {
        checkpoint("granule.load");
        self.words[idx].load(Ordering::SeqCst)
    }

    /// Consistent snapshot of both words (used to model a double-width load on
    /// LL/SC architectures; only needed off the critical path).
    pub fn snapshot(&self) -> (u64, u64) {
        checkpoint("granule.snapshot");
        loop {
            let v = self.version.load(Ordering::SeqCst);
            if v % 2 == 1 {
                core::hint::spin_loop();
                continue;
            }
            let w0 = self.words[0].load(Ordering::SeqCst);
            let w1 = self.words[1].load(Ordering::SeqCst);
            if self.version.load(Ordering::SeqCst) == v {
                return (w0, w1);
            }
        }
    }

    /// Store-conditional: writes `value` into word `idx` iff no store to the
    /// granule happened since `res` was taken (and no spurious failure was
    /// injected).  Returns `true` on success.
    #[inline]
    pub fn store_conditional(&self, idx: usize, value: u64, res: Reservation) -> bool {
        checkpoint("granule.sc");
        if res.granule != self.id() {
            return false;
        }
        if spurious_failure() {
            return false;
        }
        // Acquire the granule by moving the version from the reserved (even)
        // value to odd; any intervening store has already advanced the
        // version, so the CAS fails and the SC correctly reports failure.
        if self
            .version
            .compare_exchange(
                res.version,
                res.version + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            return false;
        }
        self.words[idx].store(value, Ordering::SeqCst);
        self.version.store(res.version + 2, Ordering::SeqCst);
        true
    }

    /// Unconditional store (initialisation / fast-path writes); invalidates
    /// all outstanding reservations on the granule.
    pub fn store(&self, idx: usize, value: u64) {
        checkpoint("granule.store");
        loop {
            let v = self.version.load(Ordering::SeqCst);
            if v % 2 == 1 {
                core::hint::spin_loop();
                continue;
            }
            if self
                .version
                .compare_exchange(v, v + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.words[idx].store(value, Ordering::SeqCst);
                self.version.store(v + 2, Ordering::SeqCst);
                return;
            }
        }
    }

    /// Emulated single-word CAS on word `idx`, built from an LL/SC pair
    /// exactly as a PowerPC `cmpxchg` loop would be.  Fails (possibly
    /// spuriously) when the granule changed.
    pub fn cas_word(&self, idx: usize, expected: u64, new: u64) -> bool {
        let (cur, res) = self.load_linked(idx);
        if cur != expected {
            return false;
        }
        self.store_conditional(idx, new, res)
    }

    /// Emulated fetch-OR on word `idx` via an LL/SC retry loop.
    pub fn fetch_or_word(&self, idx: usize, bits: u64) -> u64 {
        loop {
            let (cur, res) = self.load_linked(idx);
            if self.store_conditional(idx, cur | bits, res) {
                return cur;
            }
        }
    }

    /// The §4 `CAS2_Value` construction (Figure 9): LL the low word, plain-load
    /// the high word, compare the pair, SC the low word.
    pub fn cas2_word0(&self, expected: (u64, u64), new_w0: u64) -> bool {
        let (w0, res) = self.load_linked(0);
        let w1 = self.load(1);
        if (w0, w1) != expected {
            return false;
        }
        self.store_conditional(0, new_w0, res)
    }

    /// The §4 `CAS2_Note` construction (Figure 9): LL the high word, plain-load
    /// the low word, compare the pair, SC the high word.
    pub fn cas2_word1(&self, expected: (u64, u64), new_w1: u64) -> bool {
        let (w1, res) = self.load_linked(1);
        let w0 = self.load(0);
        if (w0, w1) != expected {
            return false;
        }
        self.store_conditional(1, new_w1, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn no_spurious() {
        set_spurious_failure_rate(0.0);
    }

    #[test]
    fn ll_sc_succeeds_when_undisturbed() {
        no_spurious();
        let g = Granule::new(5, 6);
        let (v, res) = g.load_linked(0);
        assert_eq!(v, 5);
        assert!(g.store_conditional(0, 7, res));
        assert_eq!(g.load(0), 7);
        assert_eq!(g.load(1), 6);
    }

    #[test]
    fn sc_fails_after_store_to_other_word_in_granule() {
        no_spurious();
        let g = Granule::new(1, 2);
        let (_, res) = g.load_linked(0);
        // A store to the *other* word still kills the reservation: that is the
        // reservation-granularity property §4 exploits.
        g.store(1, 99);
        assert!(!g.store_conditional(0, 42, res));
        assert_eq!(g.load(0), 1);
    }

    #[test]
    fn sc_fails_with_foreign_reservation() {
        no_spurious();
        let g1 = Granule::new(0, 0);
        let g2 = Granule::new(0, 0);
        let (_, res1) = g1.load_linked(0);
        assert!(!g2.store_conditional(0, 1, res1));
    }

    #[test]
    fn cas2_word0_checks_both_words() {
        no_spurious();
        let g = Granule::new(10, 20);
        assert!(!g.cas2_word0((10, 21), 11), "stale high word must fail");
        assert!(g.cas2_word0((10, 20), 11));
        assert_eq!(g.snapshot(), (11, 20));
    }

    #[test]
    fn cas2_word1_checks_both_words() {
        no_spurious();
        let g = Granule::new(10, 20);
        assert!(!g.cas2_word1((11, 20), 21), "stale low word must fail");
        assert!(g.cas2_word1((10, 20), 21));
        assert_eq!(g.snapshot(), (10, 21));
    }

    /// A fetch-and-add built from `cas_word` retries (the loop PowerPC runs
    /// for want of a native F&A) loses no increment under contention.
    #[test]
    fn fetch_add_word_is_atomic_under_contention() {
        no_spurious();
        const THREADS: usize = 4;
        const OPS: u64 = 10_000;
        let g = Arc::new(Granule::new(0, 0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..OPS {
                        loop {
                            let cur = g.load(0);
                            if g.cas_word(0, cur, cur + 1) {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.load(0), THREADS as u64 * OPS);
    }

    #[test]
    fn spurious_failures_are_injected_and_recoverable() {
        set_spurious_failure_rate(0.5);
        let g = Granule::new(0, 0);
        // With 50% spurious failures a bounded retry loop must still complete.
        let mut successes = 0;
        for i in 0..1_000u64 {
            loop {
                let (cur, res) = g.load_linked(0);
                assert_eq!(cur, i);
                if g.store_conditional(0, i + 1, res) {
                    successes += 1;
                    break;
                }
            }
        }
        assert_eq!(successes, 1_000);
        assert_eq!(g.load(0), 1_000);
        set_spurious_failure_rate(0.0);
    }

    #[test]
    fn snapshot_is_consistent_under_writers() {
        no_spurious();
        let g = Arc::new(Granule::new(0, 0));
        let writer = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                for i in 1..=20_000u64 {
                    // Keep both words equal; readers must never observe a
                    // mixed snapshot.
                    g.store(0, i);
                    g.store(1, i);
                }
            })
        };
        let reader = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let (a, b) = g.snapshot();
                    assert!(a == b || a == b + 1 || b == a + 1);
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn rate_set_and_get_roundtrip() {
        set_spurious_failure_rate(0.25);
        assert!((spurious_failure_rate() - 0.25).abs() < 1e-6);
        set_spurious_failure_rate(0.0);
        assert_eq!(spurious_failure_rate(), 0.0);
    }
}
