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
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use wcq_atomics::{CachePadded, Registry};

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

/// Most hazard slots a participant can own: CRTurn's count, the most any
/// user needs.
pub const MAX_HAZARDS: usize = 3;

/// A value on a 64 B line of its own.
#[repr(align(64))]
#[derive(Default)]
struct Line<T>(T);

/// One participant's block, a 128 B line pair: its hazard slots on the first
/// line, its word ([`HazardDomain::word`]) on the second.  Both have one
/// writer, the participant, but others read the word far more often than
/// the slots: a reader polling the word must not hold the line its owner's
/// next publication stores to.  (The word beside the slots cost a paced
/// two-thread channel ≈ 10 % of its latency, measured in DESIGN.md "One
/// writer per line".)
#[repr(C)]
#[derive(Default)]
struct Block {
    slots: Line<[AtomicPtr<u8>; MAX_HAZARDS]>,
    word: Line<AtomicU64>,
}

/// A hazard-pointer domain shared by all threads operating on one (or more)
/// data structures.
///
/// `max_threads` participants may be registered simultaneously; each gets
/// `hazards_per_thread` hazard slots (LCRQ needs 1, MSQueue 2, CRTurn 3 — the
/// baselines ask for what they need, up to [`MAX_HAZARDS`]).
pub struct HazardDomain {
    /// One padded [`Block`] per participant: its published pointers and its
    /// word.  Everything in a block has one writer, the participant itself,
    /// so only participants are kept apart, a line pair each; slots past
    /// `hazards_per_thread` stay null.
    blocks: Box<[CachePadded<Block>]>,
    /// Which participant ids are held.
    participants: Registry,
    hazards_per_thread: usize,
    /// Retire-buffer length that triggers a scan.
    scan_threshold: usize,
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
            .field("max_threads", &self.max_threads())
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
            (1..=MAX_HAZARDS).contains(&hazards_per_thread),
            "need between one and {MAX_HAZARDS} hazards per thread"
        );
        let total = max_threads * hazards_per_thread;
        let blocks = (0..max_threads)
            .map(|_| CachePadded::default())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            blocks,
            participants: Registry::new(max_threads),
            hazards_per_thread,
            // Classical choice: scan when the retire buffer is ~2× the number
            // of hazard slots in the whole domain.
            scan_threshold: (2 * total).max(8),
            orphans: Mutex::new(Vec::new()),
            retired_count: AtomicUsize::new(0),
            reclaimed_count: AtomicUsize::new(0),
        }
    }

    /// Maximum number of simultaneously registered participants.
    pub fn max_threads(&self) -> usize {
        self.participants.capacity()
    }

    /// Number of hazard slots owned by each participant.
    pub fn hazards_per_thread(&self) -> usize {
        self.hazards_per_thread
    }

    /// Heap bytes of the domain's two fixed arrays (participant blocks and
    /// participant flags), for an owner's `memory_footprint()`.  Retired
    /// nodes are their owner's to count: the domain only holds pointers.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.blocks) + self.participants.heap_bytes()
    }

    /// Participant `tid`'s word: a `u64` that belongs to the participant id,
    /// not to a handle, so it starts at 0 and a dropped handle's value
    /// carries over to the id's next owner.  The domain gives it no meaning;
    /// an owner keeps a per-participant count there (the unbounded queue's
    /// length hint), and anyone may read it as an advisory snapshot.
    #[inline]
    pub fn word(&self, tid: usize) -> u64 {
        // relaxed: an advisory snapshot; the word publishes nothing.
        self.word_cell(tid).load(Ordering::Relaxed)
    }

    /// Adds `delta` to participant `tid`'s word, modulo 2^64 (a negated
    /// count subtracts).  Only the handle holding `tid` may call this.
    #[inline]
    pub fn add_to_word(&self, tid: usize, delta: u64) {
        let word = self.word_cell(tid);
        // relaxed: one writer, so a load then a store loses no update, and
        // the value publishes nothing.  The id's next owner is ordered after
        // this one by the participant hand-off (`register`, `Drop`).
        let now = word.load(Ordering::Relaxed).wrapping_add(delta);
        // relaxed: see above.
        word.store(now, Ordering::Relaxed);
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

    /// Registers a participant, returning a handle with exclusive use of one
    /// participant slot.  Returns `None` when all participant slots are
    /// taken.  A dropped handle's id is the next one claimed, so
    /// re-registering after a drop is one CAS.
    pub fn register(&self) -> Option<HazardHandle<'_>> {
        // The claim acquires the previous owner's release in `Drop`, ordering
        // this owner of the id after everything that one did under it:
        // hazard slots, and the segment thread records the unbounded queue
        // keys by the id.
        let tid = self.participants.claim()?;
        Some(HazardHandle {
            domain: self,
            tid,
            retired: Vec::new(),
        })
    }

    #[inline]
    fn word_cell(&self, tid: usize) -> &AtomicU64 {
        &self.blocks[tid].word.0
    }

    #[inline]
    fn slot(&self, tid: usize, idx: usize) -> &AtomicPtr<u8> {
        debug_assert!(idx < self.hazards_per_thread, "hazard slot out of range");
        &self.blocks[tid].slots.0[idx]
    }

    /// Number of participants whose hazard slot `idx` holds `ptr` — read with
    /// `SeqCst` loads, so a publication ([`HazardHandle::protect_raw`]) that
    /// precedes the caller's own `SeqCst` operations in the total order is
    /// counted, unless its owner has cleared the slot since.  A slot used as
    /// an announcement ("I am working inside `ptr`") makes this the count of
    /// participants still at work there.
    pub fn count_publishing(&self, idx: usize, ptr: *const u8) -> usize {
        debug_assert!(idx < self.hazards_per_thread, "hazard slot out of range");
        self.blocks
            .iter()
            .filter(|block| ptr::eq(block.slots.0[idx].load(Ordering::SeqCst), ptr))
            .count()
    }

    /// Collects the set of currently protected raw pointers.
    fn protected_set(&self) -> HashSet<*mut u8> {
        self.blocks
            .iter()
            .flat_map(|block| &block.slots.0[..self.hazards_per_thread])
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

    /// Clears hazard slot `idx` with a `Release` store, not `SeqCst`: a plain
    /// store on x86, not a locked one.  Enough for a slot used as an
    /// announcement: a reader of [`HazardDomain::count_publishing`] that sees
    /// the slot clear also sees everything its owner did before clearing it.
    /// A protecting slot must keep [`HazardHandle::clear_one`].
    #[inline]
    pub fn clear_release(&self, idx: usize) {
        self.domain
            .slot(self.tid, idx)
            .store(std::ptr::null_mut(), Ordering::Release);
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
        // SAFETY: the handle holds `tid` from `register` until here.
        unsafe { self.domain.participants.release(self.tid) };
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
    fn a_word_shares_no_line_pair_with_another_participant_nor_a_line_with_its_slots() {
        const LINE: usize = 64;
        let dom = HazardDomain::new(4, MAX_HAZARDS);
        let word = |tid: usize| dom.word_cell(tid) as *const AtomicU64 as usize;
        for tid in 0..4 {
            for other in 0..4 {
                if other != tid {
                    assert_ne!(word(tid) / (2 * LINE), word(other) / (2 * LINE));
                }
            }
            for idx in 0..MAX_HAZARDS {
                let slot = dom.slot(tid, idx) as *const AtomicPtr<u8> as usize;
                assert_ne!(
                    word(tid) / LINE,
                    slot / LINE,
                    "participant {tid} slot {idx}"
                );
            }
        }
    }

    #[test]
    fn a_word_belongs_to_the_id_and_outlives_its_handle() {
        let dom = HazardDomain::new(2, 1);
        let h = dom.register().unwrap();
        let tid = h.tid();
        dom.add_to_word(tid, 5);
        dom.add_to_word(tid, 2u64.wrapping_neg());
        assert_eq!(dom.word(tid), 3);
        drop(h);
        let again = dom.register().unwrap();
        assert_eq!(again.tid(), tid);
        assert_eq!(dom.word(tid), 3, "registration keeps the id's word");
        assert_eq!(dom.word(1 - tid), 0);
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
