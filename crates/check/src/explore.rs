//! Schedule-exploring checker driver.
//!
//! A [`CheckPlan`] is a deliberately *tiny* stress shape (1–2 producers,
//! 1–2 consumers, tens of operations over an 8–16 slot ring) derived from a
//! seed exactly like [`StressPlan::from_seed`](wcq_harness::StressPlan)
//! derives the big ones.  Small shapes matter: under the serializing
//! scheduler each run explores one interleaving, so coverage comes from
//! running *thousands of schedules*, not thousands of operations.
//!
//! Every run drives one [`Target`] under one [`Schedule`].  The four
//! *sampled* targets — the bounded queue under the native-CAS2 model
//! ([`NativeFamily`]) or the LL/SC model, the unbounded wLSCQ and the
//! two-shard sharded queue — share one producer/consumer driver
//! (`run_sampled`).  The channel close protocol and the directed
//! hazard-window probe keep their own loops.  Every target runs the shipped
//! cells, preempted at each cell operation through the one `wcq-atomics`
//! checkpoint seam.  Every run feeds its
//! observations to the shared no-loss/no-duplication/per-producer-FIFO oracle
//! ([`verify_observations`]) plus the invariant probes the big stress suite
//! cannot sample deterministically:
//!
//! * **threshold monotonicity bound** — both ring thresholds never exceed
//!   the §5 `3n - 1` bound, sampled by every consumer on every poll;
//! * **close balance** — after a channel run quiesces, no send is still
//!   announced where the backend decides the drain (the bounded backend's
//!   announce flags, the unbounded head segment), and no send that started
//!   after a completed close was accepted;
//! * **segment residency** — after a drained unbounded, sharded or
//!   hazard-window run flushes reclamation, resident segments stay within
//!   the Theorem 5.8-style `live + cache + hazard` bound (per shard).
//!
//! A failing run becomes a [`Violation`] carrying its full replay
//! coordinates; [`replay`] re-executes exactly that run, which is how the
//! regression corpus in `tests/check_schedules.rs` pins fixed bugs forever.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use wcq::{builder, ChannelBackend, TryRecvError, TrySendError};
use wcq_core::wcq::cells::CellFamily;
use wcq_core::wcq::{LlscFamily, NativeFamily, WcqConfig, WcqQueue, WcqQueueHandle};
use wcq_harness::{decode, encode, verify_observations, DetRng};
use wcq_unbounded::{
    SegmentStats, ShardedWcq, ShardedWcqHandle, UnboundedWcq, UnboundedWcqHandle,
    DEFAULT_SEGMENT_CACHE,
};

use crate::sched::{maybe_yield, with_intruder, Schedule, Scheduler};

/// Which structure a checked run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Bounded `WcqQueue<u64, NativeFamily>` — the shipped native-CAS2
    /// cells, preempted at every `AtomicDouble` operation through the
    /// `wcq-atomics` checkpoint seam.
    Bounded,
    /// Bounded `WcqQueue<u64, LlscFamily>` — the LL/SC emulation, preempted
    /// through the same seam in its `Granule`.  (The packed `LlscCtr`
    /// counter is a plain atomic and is *not* a preemption point; coverage
    /// there comes from the `Bounded` model, whose counter is an
    /// `AtomicDouble`.)
    BoundedLlsc,
    /// Unbounded wLSCQ over [`NativeFamily`] segments, plus the segment
    /// residency probe.
    Unbounded,
    /// The channel close protocol over an LL/SC backend the plan picks —
    /// the bounded wCQ, or the unbounded wLSCQ on the smallest segments the
    /// plan's threads admit, so closes race appends and crossings — plus the
    /// close-balance probe.
    Channel,
    /// Two-shard [`ShardedWcq`] over [`NativeFamily`] segments: producers
    /// on distinct home shards, consumers draining their own home and
    /// stealing from the other while its producer is still enqueueing —
    /// under the full oracle (per-producer FIFO included) plus the segment
    /// residency bound composed over the shard set.
    Sharded,
    /// Directed, not sampled: one handle of an unbounded wLSCQ is stalled at
    /// the first yield point of a seed-chosen dequeue while a second handle
    /// turns the whole queue over — fills past two segment boundaries,
    /// drains everything, flushes reclamation, leaves a few values — and
    /// every result of the run is checked against a sequential model.  A
    /// segment the stalled operation holds must survive that, which is what
    /// hazard protection is for; a random schedule never parks a thread for
    /// the hundreds of steps a segment's whole life takes, so the sampled
    /// targets above never exercise it.  The schedule's seed and depth
    /// together pick the stalled operation and the traffic around it.
    HazardWindow,
}

impl Target {
    /// Every target, in the order the explorer sweeps them.
    pub fn all() -> [Target; 6] {
        [
            Target::Bounded,
            Target::BoundedLlsc,
            Target::Unbounded,
            Target::Channel,
            Target::Sharded,
            Target::HazardWindow,
        ]
    }

    /// Stable name used by the CLI and replay coordinates.
    pub fn name(&self) -> &'static str {
        match self {
            Target::Bounded => "bounded",
            Target::BoundedLlsc => "bounded-llsc",
            Target::Unbounded => "unbounded",
            Target::Channel => "channel",
            Target::Sharded => "sharded",
            Target::HazardWindow => "hazard-window",
        }
    }

    /// Inverse of [`Target::name`].
    pub fn parse(s: &str) -> Option<Target> {
        Target::all().into_iter().find(|t| t.name() == s)
    }
}

/// A tiny, fully seed-derived stress shape for one checked run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckPlan {
    /// The seed every other field derives from.
    pub seed: u64,
    /// Pure-producer threads (1..=2).
    pub producers: usize,
    /// Pure-consumer threads (1..=2; the channel target always uses 1, the
    /// single `Receiver`).
    pub consumers: usize,
    /// Enqueues per producer (8..=31 — small enough that one schedule stays
    /// in the hundreds of yield points).
    pub ops_per_producer: u64,
    /// Ring order (3..=4: 8 or 16 slots, so Full/empty transitions are hit
    /// constantly).
    pub ring_order: u32,
    /// Whether the wCQ patience knobs force every operation down the §4
    /// wait-free slow path.
    pub force_slow_path: bool,
    /// For the channel target: close the receiver after this many values
    /// (`None` = close by dropping all senders).
    pub close_after: Option<u64>,
    /// For the channel target: the unbounded backend instead of the bounded
    /// one.
    pub unbounded_channel: bool,
}

impl CheckPlan {
    /// Derives a plan from `seed`; the same seed always yields the same plan.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0xC11E_C4ED_0001_5A17);
        let producers = rng.range_inclusive(1, 2) as usize;
        let consumers = rng.range_inclusive(1, 2) as usize;
        let ops_per_producer = 8 + rng.next_below(24);
        let ring_order = rng.range_inclusive(3, 4) as u32;
        let force_slow_path = rng.chance(0.5);
        let close_after = rng
            .chance(0.5)
            .then(|| (producers as u64 * ops_per_producer) / 2);
        let unbounded_channel = rng.chance(0.5);
        Self {
            seed,
            producers,
            consumers,
            ops_per_producer,
            ring_order,
            force_slow_path,
            close_after,
            unbounded_channel,
        }
    }

    /// Worker threads the plan registers with the scheduler for `target`.
    pub fn threads(&self, target: Target) -> usize {
        match target {
            Target::Channel => self.producers + 1,
            Target::HazardWindow => 1,
            _ => self.producers + self.consumers,
        }
    }

    /// An unbounded wLSCQ over [`NativeFamily`] segments for `handles`
    /// registered handles.
    fn unbounded(&self, handles: usize) -> UnboundedWcq<u64, NativeFamily> {
        UnboundedWcq::with_config_counters(self.ring_order, handles, self.config(), None)
    }

    fn config(&self) -> WcqConfig {
        if self.force_slow_path {
            WcqConfig {
                max_patience_enqueue: 1,
                max_patience_dequeue: 1,
                help_delay: 1,
                catchup_bound: 8,
            }
        } else {
            WcqConfig::default()
        }
    }
}

/// One oracle or probe failure, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Seed of the [`CheckPlan`] that was running.
    pub plan_seed: u64,
    /// Structure under test.
    pub target: Target,
    /// The exact schedule that exposed the failure.
    pub schedule: Schedule,
    /// What the oracle or probe reported (or the panic payload).
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{msg}\n  replay: wcq-check --replay {plan:#x} {target} {seed:#x} {depth}",
            msg = self.message,
            plan = self.plan_seed,
            target = self.target.name(),
            seed = self.schedule.seed,
            depth = self.schedule.depth,
        )
    }
}

/// Outcome of an exploration sweep.
#[derive(Debug, Default)]
pub struct ExploreOutcome {
    /// Schedules executed.
    pub runs: u64,
    /// Total scheduler yield points across all runs.
    pub steps: u64,
    /// Every failure found, in sweep order.
    pub violations: Vec<Violation>,
}

/// Runs one `(plan, target, schedule)` triple and reports the first oracle
/// or probe failure, if any.  Panics inside workers (including the
/// scheduler's livelock step bound) are caught and reported as violations
/// too — a checked run must never take the test process down with it.
pub fn run_one(plan: &CheckPlan, target: Target, schedule: Schedule) -> Result<u64, Violation> {
    let result = catch_unwind(AssertUnwindSafe(|| match target {
        Target::Bounded => sample_bounded::<NativeFamily>(plan, target, schedule),
        Target::BoundedLlsc => sample_bounded::<LlscFamily>(plan, target, schedule),
        Target::Unbounded => sample_unbounded(plan, schedule),
        Target::Channel => run_channel(plan, schedule),
        Target::Sharded => sample_sharded(plan, schedule),
        Target::HazardWindow => run_hazard_window(plan, schedule),
    }));
    let violation = |message: String| Violation {
        plan_seed: plan.seed,
        target,
        schedule,
        message,
    };
    match result {
        Ok(Ok(steps)) => Ok(steps),
        Ok(Err(msg)) => Err(violation(msg)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(violation(format!("worker panicked: {msg}")))
        }
    }
}

/// Replays one exact run from its printed coordinates; `Ok` means the
/// schedule passes (the bug it once exposed stays fixed).
pub fn replay(
    plan_seed: u64,
    target: Target,
    sched_seed: u64,
    depth: u32,
) -> Result<u64, Violation> {
    run_one(
        &CheckPlan::from_seed(plan_seed),
        target,
        Schedule {
            seed: sched_seed,
            depth,
        },
    )
}

/// Sweeps `plan_seeds` × all targets × `depths` × `sched_seeds_per`
/// schedules each, collecting every violation (it does not stop at the
/// first: one sweep characterizes a bug's schedule sensitivity).
///
/// Runs execute on a worker pool: each run is fully self-contained (its own
/// [`Scheduler`], its own queue, its own oracle state, thread-local
/// checkpoint registration), so independent runs parallelize freely.  The
/// outcome is indexed by grid position, not completion order, so the result
/// — including violation order — is identical to a sequential sweep.
pub fn explore(plan_seeds: &[u64], depths: &[u32], sched_seeds_per: u64) -> ExploreOutcome {
    let mut jobs = Vec::new();
    for &plan_seed in plan_seeds {
        for target in Target::all() {
            for &depth in depths {
                for s in 0..sched_seeds_per {
                    // Schedule seeds are derived, not dense, so sweeping a
                    // different `sched_seeds_per` still shares a prefix.
                    let schedule = Schedule {
                        seed: plan_seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(s),
                        depth,
                    };
                    jobs.push((plan_seed, target, schedule));
                }
            }
        }
    }

    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<Result<u64, Violation>>>> =
        jobs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, SeqCst);
                let Some(&(plan_seed, target, schedule)) = jobs.get(i) else {
                    break;
                };
                let plan = CheckPlan::from_seed(plan_seed);
                let r = run_one(&plan, target, schedule);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });

    let mut out = ExploreOutcome::default();
    for slot in results {
        out.runs += 1;
        match slot
            .into_inner()
            .unwrap()
            .expect("worker pool ran every job")
        {
            Ok(steps) => out.steps += steps,
            Err(v) => out.violations.push(v),
        }
    }
    out
}

/// The bounded CI sweep: a fixed seed batch sized to finish well under a
/// minute while still covering every target, both patience modes and three
/// preemption densities.
pub fn smoke() -> ExploreOutcome {
    explore(&[1, 2, 3, 4, 5, 6], &[1, 4, 16], 30)
}

/// Shared post-run oracle: exact count balance plus
/// no-invention/no-duplication/per-producer-FIFO.
fn verify_counts(
    enqueue_counts: &HashMap<usize, u64>,
    observations: &[Vec<u64>],
) -> Result<(), String> {
    let expected: u64 = enqueue_counts.values().sum();
    let got: u64 = observations.iter().map(|o| o.len() as u64).sum();
    if got != expected {
        return Err(format!(
            "loss or over-consumption: {expected} values enqueued but {got} dequeued"
        ));
    }
    verify_observations(enqueue_counts, observations, true)
}

/// A joined worker's result.  A worker panic is re-raised with its original
/// payload, so the `catch_unwind` in [`run_one`] reports the real message
/// (e.g. the scheduler's livelock diagnosis), not a generic one.
fn joined<T>(worker: std::thread::Result<T>) -> T {
    worker.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Theorem 5.8-style residency probe: after a verified full drain with
/// reclamation flushed, memory must have collapsed back to each shard's live
/// segment, its bounded reuse cache, and at most one hazard-pinned straggler
/// per handle.
fn residency(stats: SegmentStats, shards: usize, handles: usize) -> Result<(), String> {
    let bound = shards * (1 + DEFAULT_SEGMENT_CACHE + handles);
    if stats.resident() <= bound {
        return Ok(());
    }
    Err(format!(
        "segment residency bound violated after drain: {resident} resident \
         (live {live} + cached {cached} + retired {retired}) > {bound}",
        resident = stats.resident(),
        live = stats.live,
        cached = stats.cached,
        retired = stats.retired_pending,
    ))
}

/// One worker's handle on a sampled target: all [`run_sampled`] calls.
trait Worker {
    /// One enqueue attempt; hands `v` back when the ring is full.
    fn try_enqueue(&mut self, v: u64) -> Result<(), u64>;
    /// One dequeue attempt.
    fn try_dequeue(&mut self) -> Option<u64>;
    /// Runs when the worker's loop ends, while it still holds the token.
    fn finish(&mut self) {}
}

impl<F: CellFamily> Worker for WcqQueueHandle<'_, u64, F> {
    fn try_enqueue(&mut self, v: u64) -> Result<(), u64> {
        self.enqueue(v)
    }
    fn try_dequeue(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

/// The segmented handles: an enqueue never refuses, and a worker flushes
/// its reclamation before it lets go of the token.
macro_rules! segmented_worker {
    ($($handle:ident),*) => {$(
        impl Worker for $handle<'_, u64, NativeFamily> {
            fn try_enqueue(&mut self, v: u64) -> Result<(), u64> {
                self.enqueue(v);
                Ok(())
            }
            fn try_dequeue(&mut self) -> Option<u64> {
                self.dequeue()
            }
            fn finish(&mut self) {
                self.flush_reclamation();
            }
        }
    )*};
}
segmented_worker!(UnboundedWcqHandle, ShardedWcqHandle);

/// The one driver of the sampled targets.  Workers `0..plan.producers` each
/// enqueue their `ops_per_producer` values, retrying while the ring is full;
/// the rest poll until every value is out.  Then the oracle runs, then the
/// target's post-drain probe.  A target supplies:
///
/// * `build` — the queue, given the plan's thread count;
/// * `register` — worker `id`'s handle, taken on the worker's own thread
///   while it holds the token;
/// * `poll` — a probe every consumer runs on every poll;
/// * `drained` — the probe of the drained queue, given the thread count.
fn run_sampled<Q: Sync>(
    plan: &CheckPlan,
    target: Target,
    schedule: Schedule,
    build: impl FnOnce(usize) -> Q,
    register: impl Fn(&Q, usize) -> Box<dyn Worker + '_> + Sync,
    poll: impl Fn(&Q) -> Result<(), String> + Sync,
    drained: impl FnOnce(&Q, usize) -> Result<(), String>,
) -> Result<u64, String> {
    let threads = plan.threads(target);
    let sched = Scheduler::new(threads, schedule);
    // `ManuallyDrop`: a violating run (especially under `check-mutations`)
    // can leave the queue corrupt enough that its draining `Drop` panics —
    // and when that happens during the unwind of the worker's original
    // panic, the double panic aborts the whole sweep process.  Every runner
    // leaks its queue on a non-clean exit; the clean path still exercises
    // `Drop`.
    let queue = ManuallyDrop::new(build(threads));
    let expected = plan.producers as u64 * plan.ops_per_producer;
    let consumed = AtomicU64::new(0);

    let observations = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|id| {
                let sched = Arc::clone(&sched);
                let (queue, consumed, register, poll) = (&*queue, &consumed, &register, &poll);
                s.spawn(move || -> Result<Vec<u64>, String> {
                    let _reg = sched.register(id);
                    let mut h = register(queue, id);
                    let mut local = Vec::new();
                    if id < plan.producers {
                        for seq in 1..=plan.ops_per_producer {
                            let mut v = encode(id, seq);
                            loop {
                                maybe_yield("driver.enqueue");
                                match h.try_enqueue(v) {
                                    Ok(()) => break,
                                    Err(back) => v = back, // ring full: retry
                                }
                            }
                        }
                    } else {
                        while consumed.load(SeqCst) < expected {
                            // The threshold<0 empty fast-exit touches no
                            // cell, so the driver loop itself must be a
                            // preemption point or a polling consumer would
                            // hold the token forever.
                            maybe_yield("driver.poll");
                            poll(queue)?;
                            if let Some(v) = h.try_dequeue() {
                                local.push(v);
                                consumed.fetch_add(1, SeqCst);
                            }
                        }
                    }
                    h.finish();
                    Ok(local)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| joined(w.join()))
            .collect::<Result<Vec<_>, String>>()
    })?;

    let enqueue_counts: HashMap<usize, u64> = (0..plan.producers)
        .map(|wid| (wid, plan.ops_per_producer))
        .collect();
    verify_counts(&enqueue_counts, &observations)?;
    drained(&queue, threads)?;
    drop(ManuallyDrop::into_inner(queue));
    Ok(sched.steps())
}

/// [`Target::Bounded`] and [`Target::BoundedLlsc`]: the threshold bound on
/// every poll, and no value left once the drain verified.
fn sample_bounded<F: CellFamily>(
    plan: &CheckPlan,
    target: Target,
    schedule: Schedule,
) -> Result<u64, String> {
    run_sampled(
        plan,
        target,
        schedule,
        |threads| {
            WcqQueue::<u64, F>::with_config_counters(plan.ring_order, threads, plan.config(), None)
        },
        |q, _| Box::new(q.register().expect("one record slot per worker")),
        |q| match q.ring_thresholds() {
            (aq, fq, max) if aq > max || fq > max => Err(format!(
                "threshold bound violated: aq={aq} fq={fq} exceeds 3n-1={max}"
            )),
            _ => Ok(()),
        },
        |q, _| match q.register().and_then(|mut h| h.dequeue()).map(decode) {
            Some((w, s)) => Err(format!(
                "value left behind after verified drain: worker {w} seq {s}"
            )),
            None => Ok(()),
        },
    )
}

/// [`Target::Unbounded`]: segment residency once drained.
fn sample_unbounded(plan: &CheckPlan, schedule: Schedule) -> Result<u64, String> {
    run_sampled(
        plan,
        Target::Unbounded,
        schedule,
        |threads| plan.unbounded(threads),
        |q, _| Box::new(q.register().expect("one record slot per worker")),
        |_| Ok(()),
        |q, threads| residency(q.segment_stats(), 1, threads),
    )
}

/// [`Target::Sharded`]: workers register in logical-id order, and segment
/// residency, composed over the shard set, once drained.
fn sample_sharded(plan: &CheckPlan, schedule: Schedule) -> Result<u64, String> {
    const SHARDS: usize = 2;
    // Registering in logical-id order makes record slots — and with them
    // home shards — a function of the plan, not of the schedule: worker `id`
    // lives on shard `id % SHARDS`.  Two producers sit on distinct shards; a
    // lone producer's shard is drained by a consumer whose home is the
    // *other* one, so each of its dequeues is a steal.  Nobody starts until
    // everybody has registered: a worker that finished its plan would drop
    // its handle, and a later worker could then claim the freed slot.
    let workers = plan.threads(Target::Sharded) as u64;
    let turn = AtomicU64::new(0);
    run_sampled(
        plan,
        Target::Sharded,
        schedule,
        |threads| {
            ShardedWcq::<u64, NativeFamily>::with_config_counters(
                SHARDS,
                plan.ring_order,
                threads,
                plan.config(),
                None,
            )
        },
        |q, id| {
            while turn.load(SeqCst) != id as u64 {
                maybe_yield("driver.register");
            }
            let h = q.register().expect("one record slot per worker");
            assert_eq!(h.home_shard(), id % SHARDS);
            turn.fetch_add(1, SeqCst);
            while turn.load(SeqCst) != workers {
                maybe_yield("driver.register");
            }
            Box::new(h)
        },
        |_| Ok(()),
        |q, threads| residency(q.segment_stats(), SHARDS, threads),
    )
}

/// State the stalled handle's script and the intruder share in a
/// [`Target::HazardWindow`] run (one thread, so plain cells).
struct Window {
    queue: ManuallyDrop<UnboundedWcq<u64, NativeFamily>>,
    /// What the queue must hold, front first: every operation of either
    /// handle is applied here too, and every dequeue is checked against it.
    model: RefCell<VecDeque<u64>>,
    rng: RefCell<DetRng>,
    /// Set around the dequeue to stall; the intruder fires once, at the first
    /// yield point it sees while this is set.
    armed: Cell<bool>,
    fired: Cell<bool>,
    /// Yield points the stalled handle passed (the run's step count).
    yields: Cell<u64>,
    /// Values enqueued so far by each of the two handles.
    sent: [Cell<u64>; 2],
    violation: RefCell<Option<String>>,
}

impl Window {
    fn enqueue(&self, h: &mut UnboundedWcqHandle<'_, u64, NativeFamily>, who: usize) {
        let seq = self.sent[who].get() + 1;
        self.sent[who].set(seq);
        let v = encode(who, seq);
        h.enqueue(v);
        self.model.borrow_mut().push_back(v);
    }

    /// Dequeues through `h` and checks the result against the model; `false`
    /// (with the violation recorded) on a mismatch.
    fn dequeue(&self, h: &mut UnboundedWcqHandle<'_, u64, NativeFamily>, what: &str) -> bool {
        let got = h.dequeue();
        let want = self.model.borrow_mut().pop_front();
        if got != want {
            let show = |v: Option<u64>| v.map(decode);
            self.violation.borrow_mut().get_or_insert(format!(
                "{what} returned {:?} where the sequential model holds {:?} \
                 (worker, seq): a segment was used after it was recycled",
                show(got),
                show(want),
            ));
        }
        got == want
    }

    /// The intruder: the second handle's whole-queue turnover.
    fn turn_over(&self) {
        let cap = self.queue.segment_capacity() as u64;
        let mut b = self.queue.register().expect("intruder slot");
        let grow = 2 * cap + self.rng.borrow_mut().next_below(cap);
        for _ in 0..grow {
            self.enqueue(&mut b, 1);
        }
        while !self.model.borrow().is_empty() {
            if !self.dequeue(&mut b, "the intruder's drain") {
                return;
            }
        }
        b.flush_reclamation();
        let leave = 1 + self.rng.borrow_mut().next_below(cap);
        for _ in 0..leave {
            self.enqueue(&mut b, 1);
        }
    }
}

fn run_hazard_window(plan: &CheckPlan, schedule: Schedule) -> Result<u64, String> {
    const OPS: u64 = 48;
    let mut rng = DetRng::new(
        schedule.seed ^ u64::from(schedule.depth).rotate_left(32) ^ 0x4A2A_12D0_57A1_1ED0,
    );
    let stall_at = rng.next_below(OPS / 2);
    // `ManuallyDrop`: leaked on a non-clean exit, as in `run_sampled`.
    let w = Rc::new(Window {
        queue: ManuallyDrop::new(plan.unbounded(2)),
        model: RefCell::new(VecDeque::new()),
        rng: RefCell::new(rng),
        armed: Cell::new(false),
        fired: Cell::new(false),
        yields: Cell::new(0),
        sent: [Cell::new(0), Cell::new(0)],
        violation: RefCell::new(None),
    });

    let intruder = {
        let w = Rc::clone(&w);
        move |_op: &'static str| {
            w.yields.set(w.yields.get() + 1);
            if w.armed.replace(false) {
                w.fired.set(true);
                w.turn_over();
            }
        }
    };
    with_intruder(intruder, || {
        let mut a = w.queue.register().expect("stalled handle's slot");
        let mut dequeues = 0;
        for _ in 0..OPS {
            // Enqueue-heavy, so the backlog soon spans segments and the
            // handle's segment memo keeps moving between tail and head.
            if w.rng.borrow_mut().chance(0.6) {
                w.enqueue(&mut a, 0);
                continue;
            }
            // From the chosen dequeue on, until one reaches a yield point
            // (an empty-ring early exit passes none).
            w.armed.set(dequeues >= stall_at && !w.fired.get());
            dequeues += 1;
            let ok = w.dequeue(&mut a, "a dequeue");
            w.armed.set(false);
            if !ok {
                return;
            }
        }
        while !w.model.borrow().is_empty() {
            if !w.dequeue(&mut a, "the final drain") {
                return;
            }
        }
        w.dequeue(&mut a, "the dequeue after the drain");
        a.flush_reclamation();
    });
    if let Some(violation) = w.violation.borrow_mut().take() {
        return Err(violation);
    }

    residency(w.queue.segment_stats(), 1, 2)?;
    let steps = w.yields.get();
    if let Ok(w) = Rc::try_unwrap(w) {
        drop(ManuallyDrop::into_inner(w.queue));
    }
    Ok(steps)
}

fn run_channel(plan: &CheckPlan, schedule: Schedule) -> Result<u64, String> {
    let threads = plan.threads(Target::Channel);
    let sched = Scheduler::new(threads, schedule);
    // LL/SC cells so the Granule checkpoint seam supplies in-algorithm
    // preemption points.  The bounded backend makes Full and the close
    // flag's hand-off happen; the unbounded one, on segments as small as the
    // plan's threads admit (k ≤ n: two slots for one producer, four for
    // two), makes nearly every send an append or a crossing for a close to
    // race.
    let (backend, order) = if plan.unbounded_channel {
        let order = usize::BITS - (threads - 1).leading_zeros();
        (ChannelBackend::Unbounded, order)
    } else {
        (ChannelBackend::Bounded, plan.ring_order)
    };
    let (tx, mut rx) = builder()
        .llsc()
        .threads(threads)
        .capacity_order(order)
        .config(plan.config())
        .backend(backend)
        .build_channel::<u64>();
    let close_after = plan.close_after;
    // Set once the receiver's `close()` has returned: a send that starts
    // after that must be refused.
    let closed = AtomicBool::new(false);

    // Clone every producer's sender up front and drop the original *before*
    // any scheduled thread runs.  The driver thread is not registered with
    // the scheduler, so a late `drop(tx)` on it would be an unscheduled
    // liveness dependency: the consumer (scheduled, yielding every poll) can
    // exhaust the step bound waiting for a close signal that only the
    // OS-starved driver thread can deliver — a nondeterministic harness
    // artifact, not an algorithm bug.  After this point the close signal is
    // driven entirely by scheduled producer drops.
    let mut handles: Vec<_> = (0..plan.producers).map(|_| tx.clone()).collect();
    drop(tx);

    let (accepted_counts, consumer) = std::thread::scope(|s| {
        let mut producers = Vec::new();
        for wid in 0..plan.producers {
            let sched = Arc::clone(&sched);
            let mut tx = handles.pop().expect("one sender clone per producer");
            let ops = plan.ops_per_producer;
            let closed = &closed;
            producers.push(s.spawn(move || {
                let _reg = sched.register(wid);
                let mut accepted = 0u64;
                let mut late = None;
                'send: for seq in 1..=ops {
                    let mut v = encode(wid, seq);
                    loop {
                        maybe_yield("driver.send");
                        let after_close = closed.load(SeqCst);
                        match tx.try_send(v) {
                            Ok(()) => {
                                accepted += 1;
                                if after_close {
                                    late.get_or_insert(seq);
                                }
                                break;
                            }
                            Err(TrySendError::Full(back)) => v = back,
                            Err(TrySendError::Closed(_)) => break 'send,
                        }
                    }
                }
                // Drop the sender while this thread is still registered (and
                // thus holds the token): a closure capture would otherwise
                // drop *after* `_reg`, putting the final sender-drop — the
                // close signal the consumer spins on — outside the scheduler
                // again.
                drop(tx);
                match late {
                    Some(seq) => Err(format!(
                        "worker {wid} seq {seq} was accepted by a send that started \
                         after the channel's close had returned"
                    )),
                    None => Ok((wid, accepted)),
                }
            }));
        }
        let consumer = {
            let sched = Arc::clone(&sched);
            let closed = &closed;
            s.spawn(move || {
                let _reg = sched.register(plan.producers);
                let mut local = Vec::new();
                loop {
                    maybe_yield("driver.recv");
                    match rx.try_recv() {
                        Ok(v) => {
                            local.push(v);
                            if close_after == Some(local.len() as u64) {
                                rx.close();
                                closed.store(true, SeqCst);
                            }
                        }
                        Err(TryRecvError::Empty) => {}
                        Err(TryRecvError::Closed) => break,
                    }
                }
                (local, rx)
            })
        };
        let accepted: Result<Vec<(usize, u64)>, String> =
            producers.into_iter().map(|h| joined(h.join())).collect();
        (accepted, consumer.join())
    });
    // A send accepted after the close is the cause whenever the receiver
    // then never saw the channel settle, so it is reported first.
    let accepted_counts = accepted_counts?;
    let (observed, mut rx) = joined(consumer);

    // Close balance: with every endpoint quiesced, no send may still be
    // announced — a leaked announcement means the close protocol lost track
    // of a straggling send.
    let inflight = rx.debug_inflight();
    if inflight != 0 {
        return Err(format!(
            "close balance violated: {inflight} sends still announced after quiescence"
        ));
    }

    // Accepted sends form a contiguous per-producer prefix (each producer
    // stops at its first Closed), so the full oracle applies with the
    // accepted counts as the enqueue counts: every *accepted* value must
    // come out exactly once, in order, before Closed was reported.
    let enqueue_counts: HashMap<usize, u64> = accepted_counts.into_iter().collect();
    verify_counts(&enqueue_counts, &[observed])?;
    Ok(sched.steps())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_reproducible() {
        for seed in [0u64, 1, 7, u64::MAX] {
            assert_eq!(CheckPlan::from_seed(seed), CheckPlan::from_seed(seed));
        }
    }

    #[test]
    fn plans_vary_and_stay_tiny() {
        let plans: Vec<_> = (0..32u64).map(CheckPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.force_slow_path));
        assert!(plans.iter().any(|p| !p.force_slow_path));
        assert!(plans.iter().any(|p| p.close_after.is_some()));
        assert!(plans.iter().any(|p| p.unbounded_channel));
        assert!(plans.iter().any(|p| !p.unbounded_channel));
        for p in &plans {
            assert!(p.producers >= 1 && p.producers <= 2);
            assert!(p.consumers >= 1 && p.consumers <= 2);
            assert!(p.ops_per_producer >= 8 && p.ops_per_producer <= 31);
            assert!(p.ring_order == 3 || p.ring_order == 4);
        }
    }

    #[test]
    fn target_names_roundtrip() {
        for t in Target::all() {
            assert_eq!(Target::parse(t.name()), Some(t));
        }
        assert_eq!(Target::parse("nope"), None);
    }

    #[test]
    fn violation_prints_replay_coordinates() {
        let v = Violation {
            plan_seed: 0x2A,
            target: Target::Channel,
            schedule: Schedule {
                seed: 0x1B,
                depth: 4,
            },
            message: "probe failed".into(),
        };
        let s = v.to_string();
        assert!(s.contains("--replay 0x2a channel 0x1b 4"), "{s}");
    }
}
