//! The workspace's one registration mechanism: a fixed set of ids, each held
//! by at most one owner at a time.
//!
//! Figure 4 gives every registered thread one record, and all a record needs
//! from registration is an index nobody else holds, handed from one owner to
//! the next with a happens-before edge.  Every registry in the workspace —
//! the wCQ rings' records, the hazard domain's participants, the baselines'
//! announcement slots — is this one type.

use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A fixed set of `capacity` ids, claimed and released one at a time.
///
/// [`Registry::claim`] probes the ids from a free-slot hint that
/// [`Registry::release`] points at the id it frees, so re-entry after a
/// release is one CAS.  The claim (`AcqRel`) reads from the last owner's
/// release (`Release`), which orders everything that owner did under the id
/// before everything the next one does.
#[derive(Debug)]
pub struct Registry {
    taken: Box<[AtomicBool]>,
    /// Next id worth probing.
    hint: AtomicUsize,
}

impl Registry {
    /// A registry of `capacity` free ids, `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a registry needs at least one id");
        Self {
            taken: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            hint: AtomicUsize::new(0),
        }
    }

    /// Number of ids: the most owners at once.
    pub fn capacity(&self) -> usize {
        self.taken.len()
    }

    /// Heap bytes of the claim flags, for an owner's `memory_footprint()`.
    pub fn heap_bytes(&self) -> usize {
        core::mem::size_of_val(&*self.taken)
    }

    /// Claims a free id, or `None` when all `capacity` are held.  The probe
    /// starts at the free-slot hint and walks the ids once round.
    pub fn claim(&self) -> Option<usize> {
        let n = self.taken.len();
        // relaxed: probe-start hint only — a stale read starts the walk at
        // another id and covers the same full circle; the flag CAS carries
        // the synchronization.
        let start = self.hint.load(Ordering::Relaxed).min(n - 1);
        let id = (0..n).map(|i| (start + i) % n).find(|&id| {
            // Success acquires the previous owner's `release`, ordering this
            // owner after everything that one did under the id.
            // relaxed: the failure ordering — a failed claim takes no id and
            // reads nothing an owner wrote.
            self.taken[id]
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        })?;
        // relaxed: probe-start hint, ordering-free by the same argument.
        self.hint.store((id + 1) % n, Ordering::Relaxed);
        Some(id)
    }

    /// Frees `id` and points the free-slot hint at it, so the next claim
    /// takes it with one CAS.
    ///
    /// # Safety
    /// The caller holds `id` (it came from [`Registry::claim`] on this
    /// registry and has not been released since), and does nothing under it
    /// afterwards.
    pub unsafe fn release(&self, id: usize) {
        // The release the next owner's claim acquires.
        self.taken[id].store(false, Ordering::Release);
        // relaxed: probe-start hint only (see `claim`).
        self.hint.store(id, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_fill_capacity_then_refuse() {
        let r = Registry::new(3);
        let mut ids: Vec<usize> = (0..3).map(|_| r.claim().unwrap()).collect();
        assert_eq!(r.claim(), None);
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2]);
    }

    #[test]
    fn a_release_makes_the_freed_id_the_next_claim() {
        let r = Registry::new(4);
        let ids: Vec<usize> = (0..3).map(|_| r.claim().unwrap()).collect();
        for &id in &ids {
            // SAFETY: `id` was claimed above and is released once.
            unsafe { r.release(id) };
            assert_eq!(r.claim(), Some(id), "one-CAS re-entry");
        }
    }

    #[test]
    fn concurrent_claims_never_share_an_id() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 10_000;
        let r = Registry::new(2);
        let held: Vec<AtomicBool> = (0..2).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut rounds = 0;
                    while rounds < ROUNDS {
                        let Some(id) = r.claim() else {
                            std::thread::yield_now();
                            continue;
                        };
                        assert!(
                            !held[id].swap(true, Ordering::SeqCst),
                            "id {id} has two holders"
                        );
                        held[id].store(false, Ordering::SeqCst);
                        // SAFETY: `id` was claimed just above and is released once.
                        unsafe { r.release(id) };
                        rounds += 1;
                    }
                });
            }
        });
    }
}
