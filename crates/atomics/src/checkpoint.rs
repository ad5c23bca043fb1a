//! Global checkpoint hook for cooperative schedule exploration.
//!
//! The `wcq-check` crate explores thread interleavings by serialising a run:
//! every participating thread must pass through a *yield point* before each
//! atomic operation so a deterministic scheduler can decide who runs next.
//! This is the one seam for both hardware models: [`crate::AtomicDouble`]
//! (under `NativeFamily`'s cells) and `llsc::Granule` (under `LlscFamily`'s)
//! pass it at the entry of every operation, so the checker schedules the
//! cells that ship, reached through the ordinary queue and channel builders.
//!
//! The seam is a single process-global function pointer.  It is:
//!
//! * **feature-gated** — only compiled under the `checkpoint` cargo feature,
//!   so production builds don't even pay the null check;
//! * **install-once** — [`install`] refuses to replace a different hook, which
//!   keeps concurrent test binaries well-defined (the hook itself must
//!   dispatch per-thread, which the `wcq-check` scheduler does via a
//!   thread-local registration);
//! * **cheap when idle** — a single `Relaxed` pointer load for unregistered
//!   threads.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Signature of a checkpoint hook: receives a static label naming the atomic
/// operation about to execute (e.g. `"granule.sc"`).
pub type CheckpointFn = fn(&'static str);

// A function pointer stored as usize; 0 means "no hook installed".  A plain
// `AtomicPtr<()>` would need a cast through a fn-pointer anyway, and fn
// pointers are always non-null, so 0 is a safe sentinel.
static HOOK: AtomicUsize = AtomicUsize::new(0);

/// Installs the process-global checkpoint hook.
///
/// Returns `true` if the hook was installed (or was already installed to the
/// same function), `false` if a *different* hook is already present.  The
/// hook can never be uninstalled: schedule explorers install a dispatcher
/// once and route per-thread via thread-locals, so a stale pointer can never
/// be observed.
pub fn install(hook: CheckpointFn) -> bool {
    let raw = hook as usize;
    match HOOK.compare_exchange(0, raw, Ordering::SeqCst, Ordering::SeqCst) {
        Ok(_) => true,
        Err(existing) => existing == raw,
    }
}

/// Invokes the installed hook, if any.  Called at the entry of every
/// instrumented atomic operation.
#[inline]
pub fn hit(op: &'static str) {
    // relaxed: the hook pointer is written once (null -> fn) before any
    // checked run starts; threads that race the installation simply miss a
    // yield point, which only narrows the explored schedule space.
    let raw = HOOK.load(Ordering::Relaxed);
    if raw != 0 {
        // SAFETY: `raw` was produced by casting a valid `CheckpointFn` in
        // `install` and is never mutated afterwards (CAS from 0 only), so
        // casting back yields the same valid function pointer.
        let f: CheckpointFn = unsafe { std::mem::transmute::<usize, CheckpointFn>(raw) };
        f(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static HITS: AtomicU64 = AtomicU64::new(0);

    fn count(_op: &'static str) {
        HITS.fetch_add(1, Ordering::SeqCst);
    }

    fn other(_op: &'static str) {}

    #[test]
    fn install_once_and_hit() {
        hit("noop-before-install");
        assert!(install(count));
        // Same hook again: idempotent.
        assert!(install(count));
        // Different hook: refused.
        assert!(!install(other));
        let before = HITS.load(Ordering::SeqCst);
        hit("op");
        assert_eq!(HITS.load(Ordering::SeqCst), before + 1);
    }
}
