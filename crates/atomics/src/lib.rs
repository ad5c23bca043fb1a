//! # wcq-atomics
//!
//! Low-level atomic substrate for the wCQ reproduction (Nikolaev & Ravindran,
//! SPAA '22).
//!
//! The wCQ algorithm requires *double-width* compare-and-swap (`CAS2` in the
//! paper): every ring entry is a 16-byte `(Value, Note)` pair and the global
//! `Head`/`Tail` references are 16-byte `(counter, help-reference)` pairs.
//! Stable Rust does not expose `core::sync::atomic::AtomicU128`, so this crate
//! provides:
//!
//! * [`AtomicDouble`] — a 16-byte aligned pair of 64-bit words supporting
//!   single-word atomic operations on either half (load/store/F&A/OR/CAS) *and*
//!   a full double-width compare-and-exchange.  On `x86_64` the double-width
//!   operations are implemented with an inline-assembly `lock cmpxchg16b`; on
//!   other targets a striped spin-lock fallback keeps the crate portable (the
//!   fallback preserves linearizability but not wait-freedom, and is intended
//!   for running the test-suite only).
//! * [`llsc`] — a software emulation of weak LL/SC reservation granules used to
//!   reproduce the paper's §4 PowerPC/MIPS construction (`CAS2_Value` /
//!   `CAS2_Note`, Figure 9) on commodity hardware.
//! * [`Backoff`] — bounded exponential backoff used by the baseline queues.
//! * [`CachePadded`] — cache-line padding (dependency-free local
//!   implementation; the build environment is offline).
//! * [`Registry`] — the one way an owner claims an exclusive id (a ring's
//!   thread record, a hazard-domain participant, a baseline's slot).
//!
//! All operations in this crate but the registry's (an `AcqRel` claim read
//! from a `Release` hand-off) use sequentially-consistent ordering, matching
//! the paper's presentation ("we assume a sequentially consistent memory
//! model"); on x86-64 the extra cost relative to acquire/release is limited to
//! plain stores, and every hot-path operation here is a read-modify-write that
//! is already fully fenced.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod backoff;
mod cache_pad;
#[cfg(feature = "checkpoint")]
pub mod checkpoint;
mod double;
pub mod llsc;
mod registry;

pub use backoff::Backoff;
pub use cache_pad::CachePadded;
pub use double::AtomicDouble;
pub use registry::Registry;

/// A labelled yield point for the `wcq-check` schedule explorer: calls the
/// installed hook under the `checkpoint` feature (a no-op until a checker
/// installs one), and compiles to nothing without it.  The LL/SC granule and
/// the double-width cell pass one before each operation; a layer above puts
/// one in a window between two plain atomics that no cell operation
/// separates, so a schedule can stop a thread there.
#[inline(always)]
pub fn yield_point(label: &'static str) {
    #[cfg(feature = "checkpoint")]
    checkpoint::hit(label);
    #[cfg(not(feature = "checkpoint"))]
    let _ = label;
}

/// Returns `true` when the double-width operations use the native
/// `lock cmpxchg16b` instruction rather than the portable lock-based fallback.
///
/// The wait-freedom guarantee of the wCQ slow path only holds on the native
/// path; the fallback exists so the library and its tests remain portable.
pub const fn has_native_cas2() -> bool {
    // Miri cannot interpret the inline-assembly cmpxchg16b, so the fallback is
    // used there even on x86_64 (see `double.rs`).
    cfg!(all(target_arch = "x86_64", not(miri)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_cas2_reported_on_x86_64() {
        if cfg!(all(target_arch = "x86_64", not(miri))) {
            assert!(has_native_cas2());
        } else {
            assert!(!has_native_cas2());
        }
    }
}
