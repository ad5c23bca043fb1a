//! Michael-style hazard pointers with a fixed number of participants.
//!
//! The scheme is deliberately classical so the baseline queues behave the way
//! the paper's benchmark configured them:
//!
//! 1. Before dereferencing a shared node, a thread *publishes* the pointer in
//!    one of its hazard slots and re-validates the source ([`HazardHandle::protect`]).
//! 2. A node removed from the data structure is *retired*
//!    ([`HazardHandle::retire`]) rather than freed.
//! 3. When a thread has accumulated enough retired nodes, it *scans* all
//!    hazard slots and frees every retired node that no thread protects.
//!
//! The number of unreclaimed retired nodes is bounded by
//! `threshold × max_threads`, so memory usage of the *reclamation layer* is
//! bounded; whether the queue built on top is memory-bounded is a property of
//! the queue (LCRQ is not — that is Figure 10a of the paper).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

use wcq_atomics::CachePadded;

/// A retired allocation awaiting reclamation.
struct Retired {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: a retired node is exclusively owned by the reclamation machinery;
// the raw pointer is only dereferenced (dropped) once, by whichever thread
// performs the freeing scan.
unsafe impl Send for Retired {}

impl Retired {
    fn new<T>(ptr: *mut T) -> Self {
        unsafe fn drop_box<T>(p: *mut u8) {
            // SAFETY: `p` was produced by `Box::into_raw::<T>` and is dropped
            // exactly once.
            drop(unsafe { Box::from_raw(p.cast::<T>()) });
        }
        Self {
            ptr: ptr.cast(),
            drop_fn: drop_box::<T>,
        }
    }

    fn with_reclaimer<T>(ptr: *mut T, reclaim_fn: unsafe fn(*mut u8)) -> Self {
        Self {
            ptr: ptr.cast(),
            drop_fn: reclaim_fn,
        }
    }

    /// Frees the allocation.
    fn reclaim(self) {
        // SAFETY: per construction, `ptr` is a valid, uniquely owned
        // allocation of the type captured in `drop_fn`.
        unsafe { (self.drop_fn)(self.ptr) };
    }
}

/// A hazard-pointer domain shared by all threads operating on one (or more)
/// data structures.
///
/// `max_threads` participants may be registered simultaneously; each gets
/// `hazards_per_thread` hazard slots (LCRQ needs 1, MSQueue 2, CRTurn 3 — the
/// baselines ask for what they need).
pub struct HazardDomain {
    /// Flat `max_threads × hazards_per_thread` array of published pointers.
    slots: Box<[CachePadded<AtomicPtr<u8>>]>,
    /// Which participant slots are currently taken.
    in_use: Box<[AtomicBool]>,
    hazards_per_thread: usize,
    /// Retire-buffer length that triggers a scan.
    scan_threshold: usize,
    /// Registration free-slot hint: next participant index worth probing.
    /// Keeps [`HazardDomain::register`] O(1) amortized under handle churn.
    reg_hint: AtomicUsize,
    /// Nodes abandoned by de-registered threads; freed by later scans or on
    /// domain drop.
    orphans: Mutex<Vec<Retired>>,
    /// Statistics: total number of nodes ever retired / reclaimed.
    retired_count: AtomicUsize,
    reclaimed_count: AtomicUsize,
}

// SAFETY: all interior state is atomics or mutex-protected; raw pointers are
// only stored, never dereferenced except during reclamation of owned nodes.
unsafe impl Send for HazardDomain {}
unsafe impl Sync for HazardDomain {}

impl std::fmt::Debug for HazardDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardDomain")
            .field("max_threads", &self.in_use.len())
            .field("hazards_per_thread", &self.hazards_per_thread)
            // relaxed: statistics for display; the counts publish nothing.
            .field("retired", &self.retired_count.load(Ordering::Relaxed))
            .field("reclaimed", &self.reclaimed_count.load(Ordering::Relaxed))
            .finish()
    }
}

impl HazardDomain {
    /// Creates a domain for up to `max_threads` concurrent participants, each
    /// owning `hazards_per_thread` hazard slots.
    pub fn new(max_threads: usize, hazards_per_thread: usize) -> Self {
        assert!(max_threads > 0, "need at least one participant");
        assert!(
            hazards_per_thread > 0,
            "need at least one hazard per thread"
        );
        let total = max_threads * hazards_per_thread;
        let slots = (0..total)
            .map(|_| CachePadded::new(AtomicPtr::new(std::ptr::null_mut())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let in_use = (0..max_threads)
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            in_use,
            hazards_per_thread,
            // Classical choice: scan when the retire buffer is ~2× the number
            // of hazard slots in the whole domain.
            scan_threshold: (2 * total).max(8),
            reg_hint: AtomicUsize::new(0),
            orphans: Mutex::new(Vec::new()),
            retired_count: AtomicUsize::new(0),
            reclaimed_count: AtomicUsize::new(0),
        }
    }

    /// Maximum number of simultaneously registered participants.
    pub fn max_threads(&self) -> usize {
        self.in_use.len()
    }

    /// Number of hazard slots owned by each participant.
    pub fn hazards_per_thread(&self) -> usize {
        self.hazards_per_thread
    }

    /// Heap bytes of the domain's two fixed arrays (hazard slots and
    /// participant flags), for an owner's `memory_footprint()`.  Retired
    /// nodes are their owner's to count: the domain only holds pointers.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots) + std::mem::size_of_val(&*self.in_use)
    }

    /// Total nodes retired so far (statistics for the memory benchmark).
    pub fn retired_total(&self) -> usize {
        // relaxed: a statistic; the count publishes nothing (a retired node
        // travels in its retirer's own buffer).
        self.retired_count.load(Ordering::Relaxed)
    }

    /// Total nodes reclaimed (freed) so far.
    pub fn reclaimed_total(&self) -> usize {
        // relaxed: a statistic, as in `retired_total`.
        self.reclaimed_count.load(Ordering::Relaxed)
    }

    /// Nodes retired but not yet reclaimed (live garbage).
    pub fn pending(&self) -> usize {
        self.retired_total().saturating_sub(self.reclaimed_total())
    }

    /// Registers the calling thread, returning a handle with exclusive use of
    /// one participant slot.  Returns `None` when all participant slots are
    /// taken.
    pub fn register(&self) -> Option<HazardHandle<'_>> {
        let n = self.in_use.len();
        // relaxed: probe-start hint only — a stale read starts the scan at
        // another slot and walks the same full circle; the `in_use` claim
        // carries the synchronization.
        let start = self.reg_hint.load(Ordering::Relaxed).min(n - 1);
        (0..n).find_map(|i| {
            let tid = (start + i) % n;
            let handle = self.register_at(tid)?;
            // relaxed: hint update, ordering-free by the same argument.
            self.reg_hint.store((tid + 1) % n, Ordering::Relaxed);
            Some(handle)
        })
    }

    /// Registers the calling thread at a *specific* participant slot with a
    /// single CAS, or `None` when `tid` is out of range or the slot is taken.
    /// Callers that memoize their participant id (e.g. the facade's
    /// thread-local tid memo) use this for O(1) re-registration.
    pub fn register_at(&self, tid: usize) -> Option<HazardHandle<'_>> {
        let flag = self.in_use.get(tid)?;
        // Success acquires the previous owner's release in `Drop`, ordering
        // this owner of the id after everything that one did under it:
        // hazard slots, and the segment thread records the unbounded queue
        // keys by the id.
        // relaxed: the failure ordering — a failed claim creates no handle
        // and reads nothing the owner wrote.
        flag.compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .ok()?;
        Some(HazardHandle {
            domain: self,
            tid,
            retired: Vec::new(),
        })
    }

    #[inline]
    fn slot(&self, tid: usize, idx: usize) -> &AtomicPtr<u8> {
        &self.slots[tid * self.hazards_per_thread + idx]
    }

    /// Collects the set of currently protected raw pointers.
    fn protected_set(&self) -> HashSet<*mut u8> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .filter(|p| !p.is_null())
            .collect()
    }

    /// Frees every node in `buffer` that is not protected; unprotected-but-
    /// kept nodes remain in the buffer.
    fn scan(&self, buffer: &mut Vec<Retired>) {
        let protected = self.protected_set();
        // Also try to drain orphans while we are here.
        if let Ok(mut orphans) = self.orphans.try_lock() {
            buffer.append(&mut orphans);
        }
        let mut kept = Vec::with_capacity(buffer.len());
        for node in buffer.drain(..) {
            if protected.contains(&node.ptr) {
                kept.push(node);
            } else {
                node.reclaim();
                // relaxed: a statistic, as in `retired_total`.
                self.reclaimed_count.fetch_add(1, Ordering::Relaxed);
            }
        }
        *buffer = kept;
    }
}

impl Drop for HazardDomain {
    fn drop(&mut self) {
        // All handles borrow the domain, so none can be alive here; every
        // orphaned retired node is safe to free.
        let mut orphans = self.orphans.lock().unwrap();
        for node in orphans.drain(..) {
            node.reclaim();
            // relaxed: a statistic, as in `retired_total`.
            self.reclaimed_count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-thread handle to a [`HazardDomain`].
///
/// Dropping the handle releases the participant slot and hands any remaining
/// retired nodes back to the domain.
pub struct HazardHandle<'d> {
    domain: &'d HazardDomain,
    tid: usize,
    retired: Vec<Retired>,
}

impl<'d> std::fmt::Debug for HazardHandle<'d> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardHandle")
            .field("tid", &self.tid)
            .field("retired_pending", &self.retired.len())
            .finish()
    }
}

impl<'d> HazardHandle<'d> {
    /// The participant index of this handle within its domain.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Publishes `ptr` in hazard slot `idx` without validation.  The caller
    /// must re-check the source pointer itself (the CRTurn baseline uses this
    /// "protectPtr" shape).
    #[inline]
    pub fn protect_raw<T>(&self, idx: usize, ptr: *mut T) -> *mut T {
        self.domain
            .slot(self.tid, idx)
            .store(ptr.cast(), Ordering::SeqCst);
        ptr
    }

    /// Publishes the pointer currently stored in `src` in hazard slot `idx`,
    /// retrying until the published value matches a re-read of `src`
    /// (Michael's validated protect).  Returns the protected pointer, which is
    /// safe to dereference until the slot is cleared or overwritten.
    #[inline]
    pub fn protect<T>(&self, idx: usize, src: &AtomicPtr<T>) -> *mut T {
        let mut ptr = src.load(Ordering::SeqCst);
        loop {
            self.protect_raw(idx, ptr);
            let again = src.load(Ordering::SeqCst);
            if again == ptr {
                return ptr;
            }
            ptr = again;
        }
    }

    /// The pointer currently published in hazard slot `idx` (null when the
    /// slot is clear).  Diagnostics and tests.
    pub fn protected(&self, idx: usize) -> *mut u8 {
        self.domain.slot(self.tid, idx).load(Ordering::SeqCst)
    }

    /// Clears a single hazard slot.
    #[inline]
    pub fn clear_one(&self, idx: usize) {
        self.domain
            .slot(self.tid, idx)
            .store(std::ptr::null_mut(), Ordering::SeqCst);
    }

    /// Clears all hazard slots owned by this handle (the paper's `hp.clear()`).
    #[inline]
    pub fn clear(&self) {
        for idx in 0..self.domain.hazards_per_thread {
            self.clear_one(idx);
        }
    }

    /// Retires a node previously removed from the data structure.  The node
    /// is freed by a later scan once no thread protects it.
    ///
    /// # Safety
    /// `ptr` must have been produced by `Box::into_raw`, must not be reachable
    /// by new readers, and must not be retired twice.
    pub unsafe fn retire<T>(&mut self, ptr: *mut T) {
        self.push_retired(Retired::new(ptr));
    }

    /// Like [`HazardHandle::retire`], but the node is handed to `reclaim_fn`
    /// instead of being freed once no thread protects it.  This lets callers
    /// recycle memory (e.g. return a drained queue segment to a free-list)
    /// rather than release it.
    ///
    /// # Safety
    /// `ptr` must have been produced by `Box::into_raw`, must not be reachable
    /// by new readers, and must not be retired twice.  `reclaim_fn` receives
    /// the erased pointer exactly once and becomes its owner; it must free or
    /// re-own the allocation without dereferencing anything else unsafely.
    pub unsafe fn retire_with<T>(&mut self, ptr: *mut T, reclaim_fn: unsafe fn(*mut u8)) {
        self.push_retired(Retired::with_reclaimer(ptr, reclaim_fn));
    }

    fn push_retired(&mut self, node: Retired) {
        // relaxed: a statistic, as in `HazardDomain::retired_total`.
        self.domain.retired_count.fetch_add(1, Ordering::Relaxed);
        self.retired.push(node);
        if self.retired.len() >= self.domain.scan_threshold {
            self.domain.scan(&mut self.retired);
        }
    }

    /// Forces a scan of this handle's retire buffer right now (used by tests
    /// and by the memory benchmark between measurement phases).
    pub fn flush(&mut self) {
        self.domain.scan(&mut self.retired);
    }

    /// Number of nodes this handle has retired but not yet freed.
    pub fn pending(&self) -> usize {
        self.retired.len()
    }
}

impl<'d> Drop for HazardHandle<'d> {
    fn drop(&mut self) {
        self.clear();
        // One last attempt to free what we can, then orphan the rest.
        self.domain.scan(&mut self.retired);
        if !self.retired.is_empty() {
            let mut orphans = self.domain.orphans.lock().unwrap();
            orphans.append(&mut self.retired);
        }
        // The release the next owner's claim in `register_at` acquires.
        self.domain.in_use[self.tid].store(false, Ordering::Release);
        // relaxed: probe-start hint only (see `HazardDomain::register`).
        self.domain.reg_hint.store(self.tid, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// A payload that counts how many instances are alive, so tests can prove
    /// nodes are freed exactly once and only when unprotected.
    struct Counted {
        _payload: u64,
        live: Arc<AtomicUsize>,
    }

    impl Counted {
        fn boxed(live: &Arc<AtomicUsize>) -> *mut Counted {
            live.fetch_add(1, Ordering::SeqCst);
            Box::into_raw(Box::new(Counted {
                _payload: 42,
                live: Arc::clone(live),
            }))
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn register_respects_max_threads() {
        let dom = HazardDomain::new(2, 1);
        let h1 = dom.register().unwrap();
        let h2 = dom.register().unwrap();
        assert!(dom.register().is_none());
        assert_ne!(h1.tid(), h2.tid());
        drop(h1);
        // Slot becomes reusable after the handle drops.
        let h3 = dom.register().unwrap();
        assert_ne!(h3.tid(), h2.tid());
    }

    #[test]
    fn register_at_targets_an_exact_participant_slot() {
        let dom = HazardDomain::new(3, 1);
        let h = dom.register_at(1).unwrap();
        assert_eq!(h.tid(), 1);
        assert!(dom.register_at(1).is_none(), "slot 1 is taken");
        assert!(dom.register_at(5).is_none(), "out of range");
        drop(h);
        // The drop hint points registration back at the freed slot.
        assert_eq!(dom.register().unwrap().tid(), 1);
    }

    #[test]
    fn unprotected_nodes_are_freed_by_scan() {
        let live = Arc::new(AtomicUsize::new(0));
        let dom = HazardDomain::new(2, 2);
        let mut h = dom.register().unwrap();
        for _ in 0..100 {
            let p = Counted::boxed(&live);
            unsafe { h.retire(p) };
        }
        h.flush();
        assert_eq!(live.load(Ordering::SeqCst), 0);
        assert_eq!(dom.retired_total(), 100);
        assert_eq!(dom.reclaimed_total(), 100);
    }

    #[test]
    fn protected_node_survives_scan_until_cleared() {
        let live = Arc::new(AtomicUsize::new(0));
        let dom = HazardDomain::new(2, 1);
        let mut owner = dom.register().unwrap();
        let reader = dom.register().unwrap();

        let p = Counted::boxed(&live);
        let shared = AtomicPtr::new(p);
        let protected = reader.protect(0, &shared);
        assert_eq!(protected, p);

        // Owner unlinks and retires the node while the reader protects it.
        shared.store(std::ptr::null_mut(), Ordering::SeqCst);
        unsafe { owner.retire(p) };
        owner.flush();
        assert_eq!(
            live.load(Ordering::SeqCst),
            1,
            "protected node must survive"
        );

        reader.clear();
        owner.flush();
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "freed after protection cleared"
        );
    }

    #[test]
    fn protect_revalidates_when_source_changes() {
        let live = Arc::new(AtomicUsize::new(0));
        let dom = HazardDomain::new(1, 1);
        let h = dom.register().unwrap();
        let a = Counted::boxed(&live);
        let shared = AtomicPtr::new(a);
        let got = h.protect(0, &shared);
        assert_eq!(got, a);
        unsafe {
            drop(Box::from_raw(a));
        }
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn dropped_handle_orphans_are_freed_by_domain_drop() {
        let live = Arc::new(AtomicUsize::new(0));
        {
            let dom = HazardDomain::new(2, 1);
            let blocker = dom.register().unwrap();
            let p = Counted::boxed(&live);
            // Protect p from another handle so the dropping handle cannot free it.
            blocker.protect_raw(0, p);
            {
                let mut h = dom.register().unwrap();
                unsafe { h.retire(p) };
                // h drops here; p is still protected, so it becomes an orphan.
            }
            assert_eq!(live.load(Ordering::SeqCst), 1);
            drop(blocker);
            // Domain drop reclaims orphans.
        }
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_stress_no_leaks_and_no_use_after_free() {
        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        let live = Arc::new(AtomicUsize::new(0));
        let dom = Arc::new(HazardDomain::new(THREADS, 1));
        // A single shared cell that threads repeatedly swap out and retire.
        let init = Counted::boxed(&live);
        let shared = Arc::new(AtomicPtr::new(init));

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let dom = Arc::clone(&dom);
                let shared = Arc::clone(&shared);
                let live = Arc::clone(&live);
                s.spawn(move || {
                    let mut h = dom.register().unwrap();
                    for _ in 0..OPS {
                        // Read side: protect and touch the payload.
                        let p = h.protect(0, &shared);
                        if !p.is_null() {
                            // SAFETY: protected by hazard slot 0.
                            let val = unsafe { (*p)._payload };
                            assert_eq!(val, 42);
                        }
                        h.clear();
                        // Write side: install a new node, retire the old one.
                        let fresh = Counted::boxed(&live);
                        let old = shared.swap(fresh, Ordering::SeqCst);
                        if !old.is_null() {
                            unsafe { h.retire(old) };
                        }
                    }
                    h.flush();
                });
            }
        });

        // Free the final node.
        let last = shared.swap(std::ptr::null_mut(), Ordering::SeqCst);
        unsafe { drop(Box::from_raw(last)) };
        drop(shared);
        drop(dom);
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "every node reclaimed exactly once"
        );
    }
}
