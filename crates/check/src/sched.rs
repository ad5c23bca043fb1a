//! Cooperative token scheduler: the heart of the schedule explorer.
//!
//! A checked run serializes its worker threads: exactly one registered thread
//! holds the *token* at any moment and every other one blocks on its own
//! condition variable, so a hand-off wakes the next holder and no one else.
//! Before every instrumented atomic operation (the `wcq-atomics` checkpoint
//! seam, whose hook this module installs) and once per driver loop iteration
//! ([`maybe_yield`]) the running thread passes a yield point, where a
//! seeded [`DetRng`] decides whether the token moves and to whom.  Because
//! every scheduling decision is drawn from the PRNG and execution between
//! yield points is single-threaded, the entire run — every interleaving,
//! every oracle observation — is a pure function of the
//! ([`Schedule::seed`], [`Schedule::depth`]) pair and can be replayed
//! exactly.
//!
//! `depth` controls preemption density in the spirit of probabilistic
//! concurrency testing: at each yield point the token switches to a uniformly
//! random runnable thread with probability `1/depth`.  `depth = 1` re-draws
//! the running thread at every atomic step (the finest interleavings);
//! larger depths produce longer bursts, covering coarser context-switch
//! patterns.  Unlike strict-priority PCT the switch is probabilistic, which
//! keeps the driver's spin loops (a consumer polling an empty queue) live:
//! any runnable thread is re-picked with probability 1 in finitely many
//! yields, so a schedule can never starve the thread that would unblock the
//! spinner.
//!
//! Threads register with an explicit *logical id* chosen by the driver.  The
//! PRNG is consulted only while holding the token (or by the final
//! registrant, whoever that is), so OS-level registration races cannot leak
//! into the schedule.
//!
//! A step bound ([`STEP_BOUND`]) converts any residual livelock into a
//! deterministic panic carrying the schedule pair, rather than a hung test.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, Once};

use wcq_harness::DetRng;

/// Abort bound on yield points per run.  The largest smoke plan (4 threads,
/// 64 operations, forced slow path) finishes in a few thousand yields; a run
/// still spinning at ten times that is stuck, not slow.  The bound does not
/// consume PRNG state, so raising it never changes an interleaving — only
/// where a livelocked run is cut off.
pub const STEP_BOUND: u64 = 50_000;

/// A replayable schedule identity: everything the scheduler ever randomizes
/// derives from this pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// PRNG seed for every scheduling decision.
    pub seed: u64,
    /// Expected burst length: the token switches with probability `1/depth`
    /// at each yield point (`depth >= 1`; `1` = switch every step).
    pub depth: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Vacant,
    Runnable,
    Finished,
}

struct State {
    rng: DetRng,
    depth: u64,
    slots: Vec<Slot>,
    registered: usize,
    started: bool,
    current: Option<usize>,
    steps: u64,
    max_steps: u64,
    aborted: bool,
}

/// The cooperative token scheduler for one checked run.
///
/// Create one per run with [`Scheduler::new`], have every worker thread call
/// [`Scheduler::register`] with a distinct logical id before touching the
/// structure under test, and drop the returned [`Registration`] when the
/// worker is done.  The run begins once all expected threads have
/// registered.
pub struct Scheduler {
    state: Mutex<State>,
    /// One per logical thread: thread `id` waits for the token on `cvs[id]`.
    cvs: Box<[Condvar]>,
    /// Mirror of `state.steps` readable without the lock after the run.
    steps_mirror: AtomicU64,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
    static INTRUDER: RefCell<Option<Intruder>> = const { RefCell::new(None) };
}

/// What a *directed* run does at its yield points (see [`with_intruder`]).
type Intruder = Box<dyn FnMut(&'static str)>;

/// The process-global checkpoint dispatcher: routes an instrumented atomic
/// operation to the scheduler the calling thread registered with, or to the
/// intruder a directed run installed on it, and is a no-op on every other
/// thread (other tests in the same process, the driver's main thread).
fn dispatcher(op: &'static str) {
    let entry = CURRENT.with(|c| c.borrow().clone());
    if let Some((sched, id)) = entry {
        sched.yield_point(id, op);
        return;
    }
    // Taken out of the slot while it runs, so the yield points of the
    // intruder's own queue operations do not re-enter it.
    if let Some(mut intruder) = INTRUDER.with(|i| i.borrow_mut().take()) {
        intruder(op);
        INTRUDER.with(|i| *i.borrow_mut() = Some(intruder));
    }
}

/// Runs `body` as a *directed* run: `intruder` is called, on this same
/// thread, at every yield point `body` passes, and may operate on the
/// structure under test itself — the serialized equivalent of "this thread
/// was preempted exactly here while another one did all that".  Where the
/// random schedules of a [`Scheduler`] sample interleavings, a directed run
/// constructs one that is too long a preemption for sampling to find.
pub fn with_intruder<R>(
    intruder: impl FnMut(&'static str) + 'static,
    body: impl FnOnce() -> R,
) -> R {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            INTRUDER.with(|i| *i.borrow_mut() = None);
        }
    }
    install_global_hook();
    INTRUDER.with(|i| *i.borrow_mut() = Some(Box::new(intruder)));
    let _uninstall = Uninstall;
    body()
}

fn install_global_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        assert!(
            wcq_atomics::checkpoint::install(dispatcher),
            "a foreign checkpoint hook is already installed in this process"
        );
    });
}

/// Explicit yield point for the explorer's driver loops, which touch no
/// cell between two queue operations.  The queues' own yield points are the
/// `wcq-atomics` checkpoint seam's, which reach the same dispatcher.  No-op
/// unless the calling thread holds a live [`Registration`] or runs under
/// [`with_intruder`].
#[inline]
pub fn maybe_yield(op: &'static str) {
    dispatcher(op);
}

/// RAII registration of the calling thread with a [`Scheduler`].  Dropping it
/// (normally or during a panic unwind) marks the thread finished and passes
/// the token on, so one worker's assertion failure cannot wedge the rest.
pub struct Registration {
    sched: Arc<Scheduler>,
    id: usize,
}

impl Drop for Registration {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
        self.sched.finish(self.id);
    }
}

/// Leaves a yield point of an aborted schedule by panicking with `why` —
/// unless the thread is already unwinding, in which case it returns and the
/// thread runs the rest of its destructors unscheduled.  A second panic from
/// a `Drop` on the unwind path would abort the whole process instead of
/// letting [`crate::run_one`] report the first.
fn abandon(why: std::fmt::Arguments<'_>) {
    if !std::thread::panicking() {
        panic!("{why}");
    }
}

/// Picks the next thread to run among runnable slots, excluding `exclude`
/// when an alternative exists.  Consumes PRNG state only when there is a
/// real choice, keeping replay stable across slot counts.
fn pick_next(st: &mut State, exclude: Option<usize>) -> Option<usize> {
    let mut candidates: [usize; 64] = [0; 64];
    let mut n = 0;
    for (i, s) in st.slots.iter().enumerate() {
        if *s == Slot::Runnable && Some(i) != exclude {
            candidates[n] = i;
            n += 1;
        }
    }
    if n == 0 {
        return exclude.filter(|&e| st.slots[e] == Slot::Runnable);
    }
    if n == 1 {
        return Some(candidates[0]);
    }
    Some(candidates[st.rng.next_below(n as u64) as usize])
}

impl Scheduler {
    /// Creates a scheduler expecting exactly `threads` registrations.
    pub fn new(threads: usize, schedule: Schedule) -> Arc<Self> {
        assert!((1..=64).contains(&threads), "1..=64 worker threads");
        Arc::new(Self {
            state: Mutex::new(State {
                rng: DetRng::new(schedule.seed ^ 0x5CED_0123_4567_89AB),
                depth: schedule.depth.max(1) as u64,
                slots: vec![Slot::Vacant; threads],
                registered: 0,
                started: false,
                current: None,
                steps: 0,
                max_steps: STEP_BOUND,
                aborted: false,
            }),
            cvs: (0..threads).map(|_| Condvar::new()).collect(),
            steps_mirror: AtomicU64::new(0),
        })
    }

    /// Total yield points passed during the run (deterministic per schedule;
    /// the determinism tests compare it across replays).
    pub fn steps(&self) -> u64 {
        self.steps_mirror.load(SeqCst)
    }

    /// Registers the calling thread under logical id `id` and blocks until
    /// the schedule grants it the token for the first time.  Panics if `id`
    /// is already taken or out of range.
    pub fn register(self: &Arc<Self>, id: usize) -> Registration {
        install_global_hook();
        let mut st = self.state.lock().unwrap();
        assert!(
            st.slots[id] == Slot::Vacant,
            "logical thread id {id} registered twice"
        );
        st.slots[id] = Slot::Runnable;
        st.registered += 1;
        if st.registered == st.slots.len() {
            st.started = true;
            st.current = pick_next(&mut st, None);
            self.hand_to(st.current);
        }
        while !(st.aborted || st.started && st.current == Some(id)) {
            st = self.cvs[id].wait(st).unwrap();
        }
        let aborted = st.aborted;
        drop(st);
        if aborted {
            panic!("schedule aborted before thread {id} first ran");
        }
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(self), id)));
        Registration {
            sched: Arc::clone(self),
            id,
        }
    }

    fn yield_point(&self, id: usize, op: &'static str) {
        let mut st = self.state.lock().unwrap();
        if st.aborted {
            drop(st);
            return abandon(format_args!(
                "schedule aborted (step bound hit elsewhere) at {op}"
            ));
        }
        debug_assert_eq!(
            st.current,
            Some(id),
            "yield from a thread without the token"
        );
        st.steps += 1;
        self.steps_mirror.store(st.steps, SeqCst);
        if st.steps > st.max_steps {
            st.aborted = true;
            self.wake_all();
            let steps = st.steps;
            drop(st);
            return abandon(format_args!(
                "scheduler step bound exceeded ({steps} yields) at {op}: \
                 livelock under this schedule"
            ));
        }
        let depth = st.depth;
        let switch = depth <= 1 || st.rng.next_below(depth) == 0;
        if switch {
            if let Some(next) = pick_next(&mut st, Some(id)) {
                if next != id {
                    st.current = Some(next);
                    self.hand_to(st.current);
                    while !st.aborted && st.current != Some(id) {
                        st = self.cvs[id].wait(st).unwrap();
                    }
                    if st.aborted {
                        drop(st);
                        abandon(format_args!(
                            "schedule aborted while {op} waited for the token"
                        ));
                    }
                }
            }
        }
    }

    fn finish(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        st.slots[id] = Slot::Finished;
        if st.current == Some(id) {
            st.current = pick_next(&mut st, Some(id));
            self.hand_to(st.current);
        }
    }

    /// Wakes the token's new holder, if any, and no other thread.  Called
    /// with the state locked, after `current` changed.
    fn hand_to(&self, holder: Option<usize>) {
        if let Some(holder) = holder {
            self.cvs[holder].notify_one();
        }
    }

    /// Wakes every waiting thread (an abort).  Called with the state locked.
    fn wake_all(&self) {
        for cv in self.cvs.iter() {
            cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// N threads append their id at every loop turn; the interleaving string
    /// must be identical across replays of the same schedule and (almost
    /// always) differ across seeds.
    fn trace(seed: u64, depth: u32) -> Vec<usize> {
        let sched = Scheduler::new(3, Schedule { seed, depth });
        let log = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for id in 0..3 {
                let sched = &sched;
                let log = &log;
                s.spawn(move || {
                    let _reg = sched.register(id);
                    for _ in 0..40 {
                        maybe_yield("test.step");
                        log.lock().unwrap().push(id);
                    }
                });
            }
        });
        log.into_inner().unwrap()
    }

    #[test]
    fn replays_are_identical() {
        for depth in [1, 4, 16] {
            let a = trace(0xABCD, depth);
            let b = trace(0xABCD, depth);
            assert_eq!(a, b, "same (seed, depth) must replay identically");
            assert_eq!(a.len(), 120);
        }
    }

    #[test]
    fn different_seeds_explore_different_interleavings() {
        let distinct: std::collections::HashSet<Vec<usize>> =
            (0..8u64).map(|s| trace(s, 2)).collect();
        assert!(distinct.len() > 1, "seeds must vary the interleaving");
    }

    #[test]
    fn token_sections_are_mutually_exclusive() {
        // After maybe_yield returns, the thread holds the token until its
        // next yield point; no other registered thread may run in between.
        let owner = AtomicU64::new(u64::MAX);
        let sched = Scheduler::new(4, Schedule { seed: 7, depth: 1 });
        std::thread::scope(|s| {
            for id in 0..4u64 {
                let sched = &sched;
                let owner = &owner;
                s.spawn(move || {
                    let _reg = sched.register(id as usize);
                    for _ in 0..200 {
                        maybe_yield("test.enter");
                        owner.store(id, SeqCst);
                        std::hint::black_box(owner);
                        assert_eq!(
                            owner.load(SeqCst),
                            id,
                            "another thread ran inside a token-held section"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn torn_read_modify_write_is_exposed_by_some_schedule() {
        // read -> yield -> write is exactly the torn-RMW shape the
        // `check-mutations` mode injects; the explorer's value lies in some
        // schedule interleaving two threads inside the window and losing an
        // increment.
        let mut lost_somewhere = false;
        for seed in 0..16u64 {
            let counter = AtomicU64::new(0);
            let sched = Scheduler::new(4, Schedule { seed, depth: 1 });
            std::thread::scope(|s| {
                for id in 0..4 {
                    let sched = &sched;
                    let counter = &counter;
                    s.spawn(move || {
                        let _reg = sched.register(id);
                        for _ in 0..50 {
                            maybe_yield("test.read");
                            let v = counter.load(SeqCst);
                            maybe_yield("test.write");
                            counter.store(v + 1, SeqCst);
                        }
                    });
                }
            });
            if counter.load(SeqCst) < 200 {
                lost_somewhere = true;
            }
        }
        assert!(
            lost_somewhere,
            "no schedule interleaved the torn RMW window; the explorer lost its teeth"
        );
    }

    /// A destructor that crosses a yield point while its thread unwinds from
    /// an aborted schedule must not panic again: a panic in a destructor
    /// during cleanup aborts the process, taking every other checked run (and
    /// this test binary) down with it.
    #[test]
    fn an_aborted_schedule_lets_unwinding_destructors_yield() {
        struct YieldsOnDrop;
        impl Drop for YieldsOnDrop {
            fn drop(&mut self) {
                maybe_yield("test.drop");
            }
        }
        let sched = Scheduler::new(2, Schedule { seed: 3, depth: 1 });
        sched.state.lock().unwrap().max_steps = 20;
        let payloads: Vec<String> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|id| {
                    let sched = &sched;
                    s.spawn(move || {
                        let _reg = sched.register(id);
                        // Declared after `_reg`, so it drops first: still
                        // registered, on the unwind path.
                        let _guard = YieldsOnDrop;
                        loop {
                            maybe_yield("test.spin");
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| {
                    let payload = w.join().expect_err("both workers unwind");
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default()
                })
                .collect()
        });
        assert!(
            payloads.iter().any(|p| p.contains("step bound exceeded")),
            "the step-bound panic must be the one reported: {payloads:?}"
        );
        assert!(
            payloads.iter().any(|p| p.contains("schedule aborted")),
            "the other worker leaves through the abort: {payloads:?}"
        );
    }

    #[test]
    fn single_thread_never_blocks() {
        let sched = Scheduler::new(1, Schedule { seed: 1, depth: 1 });
        std::thread::scope(|s| {
            let sched = &sched;
            s.spawn(move || {
                let _reg = sched.register(0);
                for _ in 0..1000 {
                    maybe_yield("solo");
                }
            });
        });
        assert!(sched.steps() >= 1000);
    }
}
