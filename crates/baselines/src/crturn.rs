//! CRTurn — Correia & Ramalhete's turn-based wait-free queue (baseline).
//!
//! CRTurn is the paper's representative of *truly* wait-free queues with
//! built-in (hazard-pointer) memory reclamation: correct and bounded, but slow
//! because every operation may have to help every other thread and because the
//! queue is a single linked list.  The wCQ evaluation uses it to show the
//! price existing wait-free queues pay — wCQ matches SCQ's speed while CRTurn
//! trails far behind.
//!
//! The reproduction keeps CRTurn's structure: per-thread *enqueue request*
//! slots served round-robin starting from the thread that owns the current
//! tail node, and per-thread *dequeue request* slots satisfied by assigning
//! the node after the current head to the next pending dequeuer (the "turn"),
//! with hazard pointers protecting traversal and each thread retiring the node
//! it was assigned two requests ago.  Dequeue requests carry the original's
//! per-request identity (`deqself`/`deqhelp`, see [`CrTurnQueue`]), the
//! give-up path for empty queues, the round-robin turn selection and the
//! retire-previous-request reclamation are as published.
//!
//! Values are `u64` (the benchmark payload); the queue is unbounded.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::SeqCst};

use wcq_reclaim::{HazardDomain, HazardHandle};

const NOIDX: usize = usize::MAX;

/// Hazard slots: head/tail traversal, the node after the head, and the
/// `deqhelp` value a helper is about to CAS away from.
const HP_HEAD: usize = 0;
const HP_NEXT: usize = 1;
const HP_DEQ: usize = 2;

struct Node {
    item: u64,
    enq_tid: usize,
    deq_tid: AtomicUsize,
    next: AtomicPtr<Node>,
}

impl Node {
    fn new(item: u64, enq_tid: usize) -> *mut Node {
        Box::into_raw(Box::new(Node {
            item,
            enq_tid,
            deq_tid: AtomicUsize::new(NOIDX),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }
}

/// The turn-based wait-free queue.
pub struct CrTurnQueue {
    head: AtomicPtr<Node>,
    tail: AtomicPtr<Node>,
    /// Pending enqueue requests: the node thread `i` wants linked.
    enqueuers: Box<[AtomicPtr<Node>]>,
    /// Dequeue requests.  Thread `i`'s request is *open* exactly while
    /// `deqself[i] == deqhelp[i]`: the owner opens it by copying `deqhelp[i]`
    /// (the node it was served last time) into `deqself[i]`, and a helper
    /// closes it by CASing `deqhelp[i]` from that previous node to the newly
    /// assigned one.  The previous node *is* the request's identity — it is
    /// not retired until two requests later and helpers hazard-protect it —
    /// so a stalled helper's CAS from an earlier round can never match a
    /// later request (a shared "pending" marker could, and delivered nodes
    /// twice).
    deqself: Box<[AtomicPtr<Node>]>,
    deqhelp: Box<[AtomicPtr<Node>]>,
    /// Also the registry: a handle's hazard participant id is its tid.
    domain: HazardDomain,
    /// The very first sentinel, freed on drop (it is never retired).
    initial: *mut Node,
}

unsafe impl Send for CrTurnQueue {}
unsafe impl Sync for CrTurnQueue {}

impl CrTurnQueue {
    /// Creates an empty queue usable by up to `max_threads` registered
    /// threads.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        let sentinel = Node::new(0, 0);
        Self {
            head: AtomicPtr::new(sentinel),
            tail: AtomicPtr::new(sentinel),
            enqueuers: (0..max_threads)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            // Two distinct dummy nodes per thread: unequal means "no request".
            deqself: (0..max_threads)
                .map(|_| AtomicPtr::new(Node::new(0, 0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            deqhelp: (0..max_threads)
                .map(|_| AtomicPtr::new(Node::new(0, 0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            domain: HazardDomain::new(max_threads, 3),
            initial: sentinel,
        }
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.domain.max_threads()
    }

    /// Registers the calling thread: one hazard-domain participant, whose id
    /// is the handle's tid.  The request slots (and the nodes in them) belong
    /// to the tid, not the handle: the next handle on this tid picks them up,
    /// ordered after the last one by the domain's release and claim of the id.
    pub fn register(&self) -> Option<CrTurnHandle<'_>> {
        let hp = self.domain.register()?;
        Some(CrTurnHandle {
            queue: self,
            tid: hp.tid(),
            hp,
        })
    }

    /// Racy emptiness hint: `head == tail` holds exactly when both point at
    /// the sentinel (empty queue) or while an enqueue's tail swing is still
    /// in flight — a pointer compare, never a dereference, so it needs no
    /// hazard protection.
    pub fn is_empty_hint(&self) -> bool {
        self.head.load(SeqCst) == self.tail.load(SeqCst)
    }
}

impl Drop for CrTurnQueue {
    fn drop(&mut self) {
        // Free everything still reachable from head, then the initial
        // sentinel if head has moved past it.
        let head = self.head.load(SeqCst);
        let mut cur = head;
        while !cur.is_null() {
            // SAFETY: exclusive access during drop.
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed.next.load(SeqCst);
        }
        if self.initial != head && !self.initial.is_null() {
            // SAFETY: the initial sentinel is never retired through hazard
            // pointers and is unreachable from `head` once head moved on.
            drop(unsafe { Box::from_raw(self.initial) });
        }
        // The request slots own their nodes (dummies, or served nodes not yet
        // retired).  All of them are at or behind the head; the one that *is*
        // the head was freed by the walk above.
        for slot in self.deqself.iter().chain(self.deqhelp.iter()) {
            let node = slot.load(SeqCst);
            if node != head {
                // SAFETY: exclusive access during drop; a node sits in at
                // most one request slot and is retired only after leaving it.
                drop(unsafe { Box::from_raw(node) });
            }
        }
    }
}

/// Per-thread handle to a [`CrTurnQueue`].
pub struct CrTurnHandle<'q> {
    queue: &'q CrTurnQueue,
    hp: HazardHandle<'q>,
    tid: usize,
}

impl<'q> CrTurnHandle<'q> {
    /// Enqueues `value` at the tail.
    pub fn enqueue(&mut self, value: u64) {
        let n = self.queue.enqueuers.len();
        let node = Node::new(value, self.tid);
        self.queue.enqueuers[self.tid].store(node, SeqCst);
        // Help link pending enqueue requests, round-robin from the owner of
        // the current tail, until our own request has been linked.  The
        // original bounds this loop by NUM_THRDS iterations; we loop until the
        // request flag clears, which the round-robin turn guarantees happens
        // within a bounded number of helping rounds.
        loop {
            if self.queue.enqueuers[self.tid].load(SeqCst).is_null() {
                break;
            }
            let ltail = self.hp.protect(0, &self.queue.tail);
            if ltail != self.queue.tail.load(SeqCst) {
                continue;
            }
            // SAFETY: ltail is hazard-protected.
            let ltail_ref = unsafe { &*ltail };
            // Retire the request flag of the thread whose node is the tail.
            let owner = ltail_ref.enq_tid;
            if self.queue.enqueuers[owner].load(SeqCst) == ltail {
                let _ = self.queue.enqueuers[owner].compare_exchange(
                    ltail,
                    std::ptr::null_mut(),
                    SeqCst,
                    SeqCst,
                );
            }
            // Link the next pending request (turn order: owner + 1, ...).
            if ltail_ref.next.load(SeqCst).is_null() {
                for j in 1..=n {
                    let cand_tid = (owner + j) % n;
                    let cand = self.queue.enqueuers[cand_tid].load(SeqCst);
                    if cand.is_null() {
                        continue;
                    }
                    let _ =
                        ltail_ref
                            .next
                            .compare_exchange(std::ptr::null_mut(), cand, SeqCst, SeqCst);
                    break;
                }
            }
            let lnext = ltail_ref.next.load(SeqCst);
            if !lnext.is_null() {
                let _ = self
                    .queue
                    .tail
                    .compare_exchange(ltail, lnext, SeqCst, SeqCst);
            }
        }
        self.hp.clear();
    }

    /// Dequeues a value; `None` when the queue is empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        let q = self.queue;
        let tid = self.tid;
        let pr_req = q.deqself[tid].load(SeqCst); // previous request
        let my_req = q.deqhelp[tid].load(SeqCst);
        q.deqself[tid].store(my_req, SeqCst); // open the request
        loop {
            if q.deqhelp[tid].load(SeqCst) != my_req {
                break; // Our request was served.
            }
            let lhead = self.hp.protect(HP_HEAD, &q.head);
            if lhead == q.tail.load(SeqCst) {
                // Empty: roll the request back, then make sure no helper
                // assigned us a node while it was open.
                q.deqself[tid].store(pr_req, SeqCst);
                self.give_up(my_req);
                if q.deqhelp[tid].load(SeqCst) != my_req {
                    q.deqself[tid].store(my_req, SeqCst);
                    break; // Served concurrently; fall through to collect it.
                }
                self.hp.clear();
                return None;
            }
            // SAFETY: lhead is hazard-protected and validated.
            let lnext = self.hp.protect(HP_NEXT, unsafe { &(*lhead).next });
            if lhead != q.head.load(SeqCst) {
                continue;
            }
            if self.search_next(lhead, lnext) != NOIDX {
                self.cas_deq_and_head(lhead, lnext);
            }
        }
        // Collect the node assigned to us.
        let node = q.deqhelp[tid].load(SeqCst);
        // Make sure the head has advanced past our node before we retire the
        // previous request (CRTurn's final step).
        let lhead = self.hp.protect(HP_HEAD, &q.head);
        // SAFETY: lhead protected and validated.
        if unsafe { (*lhead).next.load(SeqCst) } == node {
            let _ = q.head.compare_exchange(lhead, node, SeqCst, SeqCst);
        }
        // SAFETY: `node` is assigned exclusively to us; it stays valid until
        // *we* retire it, two requests from now.
        let value = unsafe { (*node).item };
        self.hp.clear();
        // SAFETY: `pr_req` was assigned to us two requests ago (or is our
        // initial dummy), it just left `deqself[tid]` for good, the head is
        // past it, and only we retire it.
        unsafe { self.hp.retire(pr_req) };
        Some(value)
    }

    /// Picks the dequeuer `lnext` goes to — the first open request in turn
    /// order after the thread `lhead` went to — and returns `lnext`'s
    /// assignee (`NOIDX` if no request is open).
    ///
    /// `lhead` and `lnext` must be hazard-protected with `lhead` re-validated
    /// as the head afterwards.
    fn search_next(&self, lhead: *mut Node, lnext: *mut Node) -> usize {
        let q = self.queue;
        let n = q.deqself.len();
        // SAFETY: protected by the caller; while head == lhead neither node
        // can have been retired.
        let (lhead_ref, lnext_ref) = unsafe { (&*lhead, &*lnext) };
        let start = match lhead_ref.deq_tid.load(SeqCst) {
            NOIDX => 0,
            v => (v + 1) % n,
        };
        for j in 0..n {
            let cand = (start + j) % n;
            if q.deqself[cand].load(SeqCst) != q.deqhelp[cand].load(SeqCst) {
                continue;
            }
            let _ = lnext_ref
                .deq_tid
                .compare_exchange(NOIDX, cand, SeqCst, SeqCst);
            break;
        }
        lnext_ref.deq_tid.load(SeqCst)
    }

    /// Serves `lnext` to its assignee, then advances the head.  Same
    /// protection contract as [`Self::search_next`]; `lnext` must be assigned.
    fn cas_deq_and_head(&self, lhead: *mut Node, lnext: *mut Node) {
        let q = self.queue;
        // SAFETY: protected by the caller.
        let assigned = unsafe { (*lnext).deq_tid.load(SeqCst) };
        if assigned == self.tid {
            q.deqhelp[assigned].store(lnext, SeqCst);
        } else {
            // Protect the request's identity against retire-free-reallocate-
            // reassign ABA; the head re-check proves it was still the open
            // request's node when the hazard was published.
            let ldeqhelp = self
                .hp
                .protect_raw(HP_DEQ, q.deqhelp[assigned].load(SeqCst));
            if ldeqhelp != lnext && lhead == q.head.load(SeqCst) {
                let _ = q.deqhelp[assigned].compare_exchange(ldeqhelp, lnext, SeqCst, SeqCst);
            }
        }
        let _ = q.head.compare_exchange(lhead, lnext, SeqCst, SeqCst);
    }

    /// The give-up procedure of an empty-looking dequeue, run after the
    /// request was rolled back: if a node showed up meanwhile it may already
    /// carry our tid (a helper saw the request open), so it must be served —
    /// to whoever is in turn, or to us when nobody is.
    fn give_up(&self, my_req: *mut Node) {
        let q = self.queue;
        let lhead = q.head.load(SeqCst);
        if q.deqhelp[self.tid].load(SeqCst) != my_req || lhead == q.tail.load(SeqCst) {
            return;
        }
        self.hp.protect_raw(HP_HEAD, lhead);
        if lhead != q.head.load(SeqCst) {
            return;
        }
        // SAFETY: lhead is hazard-protected and validated.
        let lnext = self.hp.protect(HP_NEXT, unsafe { &(*lhead).next });
        if lhead != q.head.load(SeqCst) {
            return;
        }
        if self.search_next(lhead, lnext) == NOIDX {
            // SAFETY: lnext protected before the head re-validation.
            let _ = unsafe { &(*lnext).deq_tid }.compare_exchange(NOIDX, self.tid, SeqCst, SeqCst);
        }
        self.cas_deq_and_head(lhead, lnext);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_single_thread() {
        let q = CrTurnQueue::new(2);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn empty_then_refill_cycles() {
        let q = CrTurnQueue::new(1);
        let mut h = q.register().unwrap();
        for round in 0..50u64 {
            assert_eq!(h.dequeue(), None);
            h.enqueue(round);
            assert_eq!(h.dequeue(), Some(round));
        }
    }

    #[test]
    fn registration_limit_and_reuse() {
        let q = CrTurnQueue::new(1);
        let h = q.register().unwrap();
        assert!(q.register().is_none());
        drop(h);
        assert!(q.register().is_some());
    }

    /// Regression: a handle used to free its tid flag before its hazard
    /// participant, so a registration in between claimed the flag, found
    /// every participant taken, and stranded the flag for good.  Three
    /// threads churning on two ids must leave both ids free.
    #[test]
    fn registration_churn_leaks_no_id() {
        const ROUNDS: u64 = 20_000;
        /// Failed registrations in a row that mean no id will come free.
        const STARVED: u64 = 1_000_000;
        let q = CrTurnQueue::new(2);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let q = &q;
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let mut failed = 0;
                        let mut h = loop {
                            match q.register() {
                                Some(h) => break h,
                                None => {
                                    failed += 1;
                                    assert!(failed < STARVED, "no id came free: one leaked");
                                    std::thread::yield_now();
                                }
                            }
                        };
                        h.enqueue(t * ROUNDS + round);
                        h.dequeue();
                    }
                });
            }
        });
        let a = q.register().expect("first id free");
        let b = q.register().expect("second id free");
        assert!(q.register().is_none(), "only two ids");
        drop((a, b));
    }

    #[test]
    fn mpmc_stress_sum_preserved() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 3_000;
        let q = CrTurnQueue::new(THREADS as usize);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = &q;
                let sum = &sum;
                let count = &count;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..PER_THREAD {
                        h.enqueue(t * PER_THREAD + i);
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    while let Some(v) = h.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let n = THREADS * PER_THREAD;
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn per_producer_order_preserved() {
        const PER_PRODUCER: u64 = 2_000;
        let q = CrTurnQueue::new(3);
        std::thread::scope(|s| {
            for p in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 1..=PER_PRODUCER {
                        h.enqueue(p * 1_000_000 + i);
                    }
                });
            }
            let q = &q;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                let mut last = [0u64; 2];
                let mut got = 0;
                while got < 2 * PER_PRODUCER {
                    if let Some(v) = h.dequeue() {
                        let p = (v / 1_000_000) as usize;
                        let i = v % 1_000_000;
                        assert!(i > last[p], "per-producer FIFO violated");
                        last[p] = i;
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }

    /// Regression: every dequeue request used to be opened with the *same*
    /// pending marker, so a stalled helper's serve-CAS from an earlier round
    /// could match the owner's *next* request — the node came back twice (a
    /// duplicate element) and was later retired twice (a double free).
    #[test]
    fn two_thread_pairs_deliver_every_value_exactly_once() {
        const PER_THREAD: u64 = 150_000;
        let q = CrTurnQueue::new(2);
        let seen: Vec<AtomicU64> = (0..2 * PER_THREAD).map(|_| AtomicU64::new(0)).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (q, seen, start) = (&q, &seen, &start);
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    let take = |v: u64| {
                        let before = seen[v as usize].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(before, 0, "value {v} delivered twice (tid {t})");
                    };
                    start.wait();
                    for i in 0..PER_THREAD {
                        h.enqueue(t * PER_THREAD + i);
                        if let Some(v) = h.dequeue() {
                            take(v);
                        }
                    }
                    while let Some(v) = h.dequeue() {
                        take(v);
                    }
                });
            }
        });
        let missing = seen
            .iter()
            .filter(|c| c.load(Ordering::SeqCst) != 1)
            .count();
        assert_eq!(missing, 0, "values lost or duplicated");
    }
}
