//! Double-width (2 × 64-bit) atomic cell.
//!
//! The wCQ paper stores two kinds of 16-byte objects that must be updated with
//! double-width CAS (`CAS2`):
//!
//! * ring entries: `(Value, Note)` pairs (Figure 4), where the *fast path* only
//!   ever CASes / ORs the `Value` half with single-word instructions and the
//!   *slow path* uses `CAS2` on the whole pair, and
//! * the global `Head` / `Tail` references: `(counter, help-reference)` pairs
//!   (§3.2), where the fast path performs a hardware fetch-and-add on the
//!   counter half and the slow path `CAS2`es the whole pair to install or clear
//!   a phase-2 help request.
//!
//! [`AtomicDouble`] supports exactly that mixed access pattern.  On `x86_64`
//! the pair is a 16-byte aligned `[AtomicU64; 2]`; single-word operations use
//! the ordinary `AtomicU64` API and the double-width compare-exchange is an
//! inline-assembly `lock cmpxchg16b` (stable Rust does not yet expose
//! `AtomicU128`, which is why the paper's repro hint calls out the need for an
//! asm workaround).  Mixing `lock`-prefixed single-word RMWs with
//! `lock cmpxchg16b` on the same 16-byte location is the standard technique
//! used by LCRQ/wCQ C implementations and is well-defined at the hardware
//! level; it is encapsulated here so the queue code never touches raw asm.
//!
//! On non-x86_64 targets every operation is routed through a striped spin lock
//! so the data structure remains linearizable (tests and examples still pass),
//! at the cost of the non-blocking progress guarantee.  [`crate::has_native_cas2`]
//! reports which path is active.

use core::sync::atomic::{AtomicU64, Ordering};

// Each atomic operation yields at its entry, before the hardware
// instruction runs.
use crate::yield_point as checkpoint;

/// A 16-byte aligned pair of `u64` words with atomic single-word operations on
/// each half and a double-width compare-and-exchange over the whole pair.
///
/// Word 0 is called `lo` and word 1 `hi`.  For wCQ entries `lo` holds the
/// packed `Value` and `hi` holds the `Note`; for the global `Head`/`Tail`
/// pairs `lo` holds the monotonically increasing counter and `hi` holds the
/// phase-2 help reference.
#[repr(C, align(16))]
pub struct AtomicDouble {
    lo: AtomicU64,
    hi: AtomicU64,
}

impl core::fmt::Debug for AtomicDouble {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (lo, hi) = self.load();
        f.debug_struct("AtomicDouble")
            .field("lo", &lo)
            .field("hi", &hi)
            .finish()
    }
}

impl Default for AtomicDouble {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl AtomicDouble {
    /// Creates a new pair initialized to `(lo, hi)`.
    pub const fn new(lo: u64, hi: u64) -> Self {
        Self {
            lo: AtomicU64::new(lo),
            hi: AtomicU64::new(hi),
        }
    }

    /// Atomically loads both halves as a single 128-bit access.
    ///
    /// On x86_64 this issues `lock cmpxchg16b` with a desired value equal to
    /// the expected value, which is the canonical way to obtain an atomic
    /// 16-byte load without AVX guarantees.
    #[inline]
    pub fn load(&self) -> (u64, u64) {
        checkpoint("double.load");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            // SAFETY: `as_ptr()` is 16-byte aligned (`repr(C, align(16))`)
            // and valid for the `&self` borrow.  A cmpxchg16b with old == new
            // either fails (returning the current value) or "succeeds" by
            // rewriting the identical value; both are side-effect free and
            // yield an atomic snapshot.
            let (_, lo, hi) = unsafe { cmpxchg16b(self.as_ptr(), 0, 0, 0, 0) };
            (lo, hi)
        }
        #[cfg(any(not(target_arch = "x86_64"), miri))]
        {
            let _g = fallback::lock_for(self as *const _ as usize);
            // relaxed: serialized under the stripe lock, whose acquire/release
            // pair publishes these accesses.
            (
                self.lo.load(Ordering::Relaxed),
                self.hi.load(Ordering::Relaxed),
            )
        }
    }

    /// Atomically compares the whole pair with `expected` and, if equal,
    /// replaces it with `new`.  Returns `Ok(expected)` on success and
    /// `Err(current)` with the observed pair on failure.
    #[inline]
    pub fn compare_exchange(
        &self,
        expected: (u64, u64),
        new: (u64, u64),
    ) -> Result<(u64, u64), (u64, u64)> {
        checkpoint("double.cas2");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            // SAFETY: `as_ptr()` is 16-byte aligned (`repr(C, align(16))`)
            // and valid for the `&self` borrow.
            let (ok, lo, hi) =
                unsafe { cmpxchg16b(self.as_ptr(), expected.0, expected.1, new.0, new.1) };
            if ok {
                Ok(expected)
            } else {
                Err((lo, hi))
            }
        }
        #[cfg(any(not(target_arch = "x86_64"), miri))]
        {
            let _g = fallback::lock_for(self as *const _ as usize);
            // relaxed: serialized under the stripe lock, whose acquire/release
            // pair publishes these accesses.
            let cur = (
                self.lo.load(Ordering::Relaxed),
                self.hi.load(Ordering::Relaxed),
            );
            if cur == expected {
                // relaxed: still under the same stripe lock.
                self.lo.store(new.0, Ordering::Relaxed);
                self.hi.store(new.1, Ordering::Relaxed);
                Ok(expected)
            } else {
                Err(cur)
            }
        }
    }

    /// Double-width CAS returning only success/failure (the common shape used
    /// by the paper's pseudo-code).
    #[inline]
    pub fn cas2(&self, expected: (u64, u64), new: (u64, u64)) -> bool {
        self.compare_exchange(expected, new).is_ok()
    }

    /// Atomically loads the low word.
    #[inline]
    pub fn load_lo(&self) -> u64 {
        checkpoint("double.load_lo");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            self.lo.load(Ordering::SeqCst)
        }
        #[cfg(any(not(target_arch = "x86_64"), miri))]
        {
            let _g = fallback::lock_for(self as *const _ as usize);
            // relaxed: serialized under the stripe lock.
            self.lo.load(Ordering::Relaxed)
        }
    }

    /// Atomically loads the high word.
    #[inline]
    pub fn load_hi(&self) -> u64 {
        checkpoint("double.load_hi");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            self.hi.load(Ordering::SeqCst)
        }
        #[cfg(any(not(target_arch = "x86_64"), miri))]
        {
            let _g = fallback::lock_for(self as *const _ as usize);
            // relaxed: serialized under the stripe lock.
            self.hi.load(Ordering::Relaxed)
        }
    }

    /// Atomically stores the low word, leaving the high word untouched.
    #[inline]
    pub fn store_lo(&self, value: u64) {
        checkpoint("double.store_lo");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            self.lo.store(value, Ordering::SeqCst);
        }
        #[cfg(any(not(target_arch = "x86_64"), miri))]
        {
            let _g = fallback::lock_for(self as *const _ as usize);
            // relaxed: serialized under the stripe lock.
            self.lo.store(value, Ordering::Relaxed);
        }
    }

    /// Atomic fetch-and-add on the low word (the paper's `F&A` on the counter
    /// component of `Head`/`Tail`), returning the previous value.
    #[inline]
    pub fn fetch_add_lo(&self, delta: u64) -> u64 {
        checkpoint("double.faa_lo");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            self.lo.fetch_add(delta, Ordering::SeqCst)
        }
        #[cfg(any(not(target_arch = "x86_64"), miri))]
        {
            let _g = fallback::lock_for(self as *const _ as usize);
            // relaxed: serialized under the stripe lock.
            let prev = self.lo.load(Ordering::Relaxed);
            self.lo.store(prev.wrapping_add(delta), Ordering::Relaxed);
            prev
        }
    }

    /// Atomic fetch-OR on the low word (the paper's `OR` used by `consume`),
    /// returning the previous value.
    #[inline]
    pub fn fetch_or_lo(&self, bits: u64) -> u64 {
        checkpoint("double.or_lo");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            self.lo.fetch_or(bits, Ordering::SeqCst)
        }
        #[cfg(any(not(target_arch = "x86_64"), miri))]
        {
            let _g = fallback::lock_for(self as *const _ as usize);
            // relaxed: serialized under the stripe lock.
            let prev = self.lo.load(Ordering::Relaxed);
            self.lo.store(prev | bits, Ordering::Relaxed);
            prev
        }
    }

    /// Single-word CAS on the low word only (the wCQ fast path CASes the entry
    /// `Value` without touching the `Note`).
    #[inline]
    pub fn cas_lo(&self, expected: u64, new: u64) -> bool {
        checkpoint("double.cas_lo");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            self.lo
                .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        }
        #[cfg(any(not(target_arch = "x86_64"), miri))]
        {
            let _g = fallback::lock_for(self as *const _ as usize);
            // relaxed: serialized under the stripe lock.
            if self.lo.load(Ordering::Relaxed) == expected {
                self.lo.store(new, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
    }

    /// Double-width CAS that replaces only the low word, requiring the whole
    /// pair to match `expected` (the §4 `CAS2_Value` shape).
    #[inline]
    pub fn cas2_lo(&self, expected: (u64, u64), new_lo: u64) -> bool {
        self.cas2(expected, (new_lo, expected.1))
    }

    /// Double-width CAS that replaces only the high word, requiring the whole
    /// pair to match `expected` (the §4 `CAS2_Note` shape).
    #[inline]
    pub fn cas2_hi(&self, expected: (u64, u64), new_hi: u64) -> bool {
        self.cas2(expected, (expected.0, new_hi))
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[inline]
    fn as_ptr(&self) -> *mut u64 {
        self as *const Self as *mut u64
    }
}

/// Raw `lock cmpxchg16b` wrapper.
///
/// Returns `(success, observed_lo, observed_hi)`.  `rbx` is reserved by LLVM
/// for internal use, so the new-low operand is exchanged into `rbx` around the
/// instruction — the standard stable-Rust workaround for the missing
/// 128-bit atomic.
///
/// # Safety
/// `ptr` must be valid for reads and writes of 16 bytes and 16-byte aligned.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
unsafe fn cmpxchg16b(
    ptr: *mut u64,
    expected_lo: u64,
    expected_hi: u64,
    new_lo: u64,
    new_hi: u64,
) -> (bool, u64, u64) {
    debug_assert!(
        (ptr as usize).is_multiple_of(16),
        "cmpxchg16b requires 16-byte alignment"
    );
    let ok: u8;
    let out_lo: u64;
    let out_hi: u64;
    // SAFETY: caller guarantees alignment/validity; rbx is saved and restored
    // around the instruction via the xchg pair.  `ptr` and `ok` are pinned to
    // explicit registers (rdi / r8b): LLVM may otherwise allocate a generic
    // `reg`/`reg_byte` operand to rbx/bl, which the xchg window clobbers —
    // the `new_lo` operand is the only one that stays correct if it lands on
    // rbx (the xchg then degenerates to a no-op and cmpxchg16b leaves rbx
    // unchanged).
    unsafe {
        core::arch::asm!(
            "xchg {new_lo}, rbx",
            "lock cmpxchg16b [rdi]",
            "sete r8b",
            "xchg {new_lo}, rbx",
            new_lo = inout(reg) new_lo => _,
            in("rdi") ptr,
            in("rcx") new_hi,
            inout("rax") expected_lo => out_lo,
            inout("rdx") expected_hi => out_hi,
            out("r8b") ok,
            options(nostack),
        );
    }
    (ok != 0, out_lo, out_hi)
}

/// Striped spin-lock fallback used on targets without `cmpxchg16b` (and under
/// Miri, which cannot interpret the inline-assembly path).
#[cfg(any(not(target_arch = "x86_64"), miri))]
mod fallback {
    use core::sync::atomic::{AtomicBool, Ordering};

    const STRIPES: usize = 64;

    struct Spin(AtomicBool);

    static LOCKS: [Spin; STRIPES] = {
        #[allow(clippy::declare_interior_mutable_const)]
        const INIT: Spin = Spin(AtomicBool::new(false));
        [INIT; STRIPES]
    };

    pub(super) struct Guard(&'static Spin);

    impl Drop for Guard {
        fn drop(&mut self) {
            self.0 .0.store(false, Ordering::Release);
        }
    }

    pub(super) fn lock_for(addr: usize) -> Guard {
        let stripe = (addr >> 4) % STRIPES;
        let lock = &LOCKS[stripe];
        while lock
            .0
            // relaxed: failure ordering of a spin-lock acquire; the retry
            // loop re-attempts with Acquire, so nothing is read under the
            // failed CAS.
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            core::hint::spin_loop();
        }
        Guard(lock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn new_and_load_roundtrip() {
        let d = AtomicDouble::new(7, 9);
        assert_eq!(d.load(), (7, 9));
        assert_eq!(d.load_lo(), 7);
        assert_eq!(d.load_hi(), 9);
    }

    #[test]
    fn alignment_is_sixteen_bytes() {
        assert_eq!(core::mem::align_of::<AtomicDouble>(), 16);
        assert_eq!(core::mem::size_of::<AtomicDouble>(), 16);
        let d = AtomicDouble::new(0, 0);
        assert_eq!((&d as *const AtomicDouble as usize) % 16, 0);
    }

    #[test]
    fn compare_exchange_success_and_failure() {
        let d = AtomicDouble::new(1, 2);
        assert_eq!(d.compare_exchange((1, 2), (3, 4)), Ok((1, 2)));
        assert_eq!(d.load(), (3, 4));
        assert_eq!(d.compare_exchange((1, 2), (5, 6)), Err((3, 4)));
        assert_eq!(d.load(), (3, 4));
    }

    #[test]
    fn cas2_lo_keeps_hi() {
        let d = AtomicDouble::new(10, 20);
        assert!(d.cas2_lo((10, 20), 11));
        assert_eq!(d.load(), (11, 20));
        // Stale expectation fails.
        assert!(!d.cas2_lo((10, 20), 12));
    }

    #[test]
    fn cas2_hi_keeps_lo() {
        let d = AtomicDouble::new(10, 20);
        assert!(d.cas2_hi((10, 20), 21));
        assert_eq!(d.load(), (10, 21));
        assert!(!d.cas2_hi((10, 20), 22));
    }

    #[test]
    fn single_word_ops_do_not_disturb_other_half() {
        let d = AtomicDouble::new(0, 0xDEAD);
        assert_eq!(d.fetch_add_lo(5), 0);
        assert_eq!(d.fetch_add_lo(1), 5);
        assert_eq!(d.fetch_or_lo(0b1000), 6);
        assert_eq!(d.load(), (0b1110, 0xDEAD));
        d.store_lo(42);
        assert_eq!(d.load(), (42, 0xDEAD));
        assert!(d.cas_lo(42, 43));
        assert!(!d.cas_lo(42, 44));
        assert_eq!(d.load(), (43, 0xDEAD));
    }

    #[test]
    fn concurrent_fetch_add_and_cas2_agree() {
        // Threads hammer the counter half with F&A while another thread flips
        // the pointer half with CAS2, mirroring the paper's Head/Tail usage.
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 20_000;
        let d = Arc::new(AtomicDouble::new(0, 0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    d.fetch_add_lo(1);
                }
            }));
        }
        {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    loop {
                        let cur = d.load();
                        if d.cas2(cur, (cur.0, i)) {
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (lo, hi) = d.load();
        assert_eq!(lo, THREADS as u64 * PER_THREAD);
        assert_eq!(hi, 999);
    }

    #[test]
    fn concurrent_cas2_is_mutually_exclusive() {
        // Many threads CAS2 the pair from (x, x) to (x+1, x+1); every value is
        // claimed exactly once, so the final pair equals the total count.
        const THREADS: usize = 8;
        const OPS: u64 = 5_000;
        let d = Arc::new(AtomicDouble::new(0, 0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let mut claimed = 0u64;
                while claimed < OPS {
                    let cur = d.load();
                    assert_eq!(cur.0, cur.1, "pair halves must always match");
                    if d.cas2(cur, (cur.0 + 1, cur.1 + 1)) {
                        claimed += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.load(), (THREADS as u64 * OPS, THREADS as u64 * OPS));
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        // A 128-bit counter `(lo, hi)` incremented by CAS2 from a start just
        // below the word boundary: every thread's increments carry across it,
        // so a torn or lost CAS2 shows up in either half.
        const THREADS: u64 = 4;
        const OPS: u64 = 10_000;
        let start = u64::MAX - 2 * OPS;
        let d = Arc::new(AtomicDouble::new(start, 0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for _ in 0..OPS {
                        let mut cur = d.load();
                        loop {
                            let (lo, carry) = cur.0.overflowing_add(1);
                            match d.compare_exchange(cur, (lo, cur.1 + u64::from(carry))) {
                                Ok(_) => break,
                                Err(seen) => cur = seen,
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (lo, hi) = d.load();
        let total = (u128::from(hi) << 64) | u128::from(lo);
        assert_eq!(total, u128::from(start) + u128::from(THREADS * OPS));
        assert_eq!(hi, 1, "the count carried into the high word once");
    }
}
