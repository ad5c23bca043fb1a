//! The six workloads, one repetition at a time.
//!
//! Every repetition builds fresh channels (and, for the 2-thread workloads,
//! a fresh helper thread), warms up, times a fixed message count between two
//! calibration slices, then drains, verifies and closes.  The traced and
//! untraced loops are the same source monomorphised on `const TRACE`, so the
//! untraced build carries no tracing code at all.
//!
//! All channels are the default `wcq::builder().build_channel::<u64>()`:
//! sync channel → `dyn WaitFreeQueue` → `UnboundedWcq` → `WcqQueue` segments
//! → two `WcqRing`s.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::Duration;

use wcq::{Counter, Instrument, MetricsSnapshot, Receiver, RecvTimeoutError, Sender, TryRecvError};
use wcq_harness::memtrack::{self, MemSnapshot};

use crate::calib::{
    faa_slice_ns, pin, Clock, Mailbox, Reference, FAA_SLICE_OPS, REFERENCE_SLICE_STEPS,
};
use crate::oracle::{Failures, FlowCheck};
use crate::stats::percentile_sorted;

/// One message (or poll, or batch call) in this many carries spans in a
/// traced run.
pub const SAMPLE_EVERY: u64 = 64;

/// Messages per `send_iter` / `recv_many` call on `batch_1t`.
pub const BATCH: u64 = 64;

/// Messages sent before each drain on `burst_1t` (≈ 16 segments of backlog).
pub const BURST: u64 = 16_384;

/// Outstanding echoes the `echo_2t` client allows itself.  A bounded window
/// removes the producer-ahead/consumer-ahead mode flip that makes a
/// free-running pipe bimodal; 16 repeated in the prototype, 256 did not.
pub const ECHO_WINDOW: u64 = 16;

/// Offered load of `paced_2t`, messages per second: a 40 µs mean gap, so the
/// consumer parks before nearly every message and each send pays a wake-up.
/// (At 250 000 msg/s the generator's own wake-up calls saturate it on this
/// box: repetitions flip between a 14 µs and a 2.5 ms median transit.)
pub const PACED_RATE: f64 = 25_000.0;

/// A `paced_2t` receive that waits this long has lost its message.
const RECV_DEADLINE: Duration = Duration::from_millis(100);

/// Latency limit behind `bench.over_limit_pct`.
pub const TRANSIT_LIMIT_NS: u64 = 200_000;

/// The workloads, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 1 client: `send` then `recv`.
    Pairs1t,
    /// Closed loop, 1 client: `send_iter` of 64 then `recv_many`.
    Batch1t,
    /// Closed loop, 1 client: 16 384 `send`s then drain.
    Burst1t,
    /// Closed loop, 1 client: `try_recv` on an empty open channel.
    Empty1t,
    /// Closed loop, window 16: client thread and echo thread over two
    /// channels.
    Echo2t,
    /// Open loop, seeded Poisson at 25 000 msg/s into a parked consumer.
    Paced2t,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 6] = [
        Workload::Pairs1t,
        Workload::Batch1t,
        Workload::Burst1t,
        Workload::Empty1t,
        Workload::Echo2t,
        Workload::Paced2t,
    ];

    /// Name on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairs1t => "pairs_1t",
            Workload::Batch1t => "batch_1t",
            Workload::Burst1t => "burst_1t",
            Workload::Empty1t => "empty_1t",
            Workload::Echo2t => "echo_2t",
            Workload::Paced2t => "paced_2t",
        }
    }

    /// Why the workload exists, in one line (also `BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Pairs1t => {
                "closed loop, 1 client, send then recv: zero contention, waiting and segment turnover, so every layer's fast path and nothing else"
            }
            Workload::Batch1t => {
                "closed loop, 1 client, send_iter of 64 then recv_many: one F&A reserves a run and per-call checks amortise; a single-op win that taxes batches shows here"
            }
            Workload::Burst1t => {
                "closed loop, 1 client, 16384 sends then drain: segment link/retire, hazard reclamation, SegmentCache and the allocator do most of the work"
            }
            Workload::Empty1t => {
                "closed loop, 1 client, try_recv on an empty open channel: the threshold-based empty check (Fig. 11a) that pollers and select loops live on"
            }
            Workload::Echo2t => {
                "closed loop, window 16, client and echo thread over two channels: the only cross-core traffic (CAS failures, helping, spin-wait in recv)"
            }
            Workload::Paced2t => {
                "open loop, seeded Poisson 25000 msg/s into recv_timeout: latency at a known load through the park/wake path (WakerRegistry, thread_waker, futex), timed from the due time"
            }
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Messages (polls on `empty_1t`) in one full-size timed section, sized
    /// to ≈ 0.2 s (`paced_2t`: three segments of 51 ms of arrivals, each
    /// followed by as long a reference segment).
    pub fn full_units(self) -> u64 {
        match self {
            Workload::Pairs1t => 1_000_000,
            Workload::Batch1t => 4_096_000,
            Workload::Burst1t => 48 * BURST,
            Workload::Empty1t => 6_000_000,
            Workload::Echo2t => 76_800,
            Workload::Paced2t => 3 * 1_280,
        }
    }

    /// Messages between two readings of the yardstick, ≈ 3 ms of work: short
    /// enough that the work and the yardstick next to it see the same host
    /// state.  An open loop cannot pause mid-schedule, so a `paced_2t` chunk
    /// is a whole 51 ms segment of arrivals.
    pub fn chunk_units(self) -> u64 {
        match self {
            Workload::Pairs1t => 12_800,
            Workload::Batch1t => 51_200,
            Workload::Burst1t => BURST,
            Workload::Empty1t => 102_400,
            Workload::Echo2t => 3_200,
            Workload::Paced2t => 1_280,
        }
    }

    /// `false` for the workloads `BENCHMARK.json` leaves out: their numbers
    /// are reported and their outputs verified, but no bound is applied to
    /// their metrics, because on this box they do not repeat closely enough
    /// to gate (README.md, "Machine note").  `echo_2t`'s pipelined exchange
    /// spreads 10–20 % between runs even with both threads pinned and the
    /// heap layout varied per repetition.  `batch_1t` is mostly plain
    /// (instruction-throughput-bound) work, which the host's slow state taxes
    /// ≈ 12 % more than it taxes the reference step: ten runs that straddle
    /// the two states spread 10.7 %, past the 10 % the other workloads can be
    /// held to.
    pub fn gated(self) -> bool {
        !matches!(self, Workload::Batch1t | Workload::Echo2t)
    }

    /// `true` for the workloads with a helper thread.
    pub fn two_threads(self) -> bool {
        matches!(self, Workload::Echo2t | Workload::Paced2t)
    }
}

/// Sizes of one repetition (full, or ÷ 20 under `--smoke`).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Messages (polls, for `empty_1t`) in the timed section.
    pub units: u64,
    /// Messages pushed through before timing starts.
    pub warmup: u64,
    /// Messages between two reference slices.
    pub chunk: u64,
    /// Fetch-and-adds per FAA calibration slice.
    pub faa_ops: u64,
    /// Reference steps per reference slice.
    pub reference_steps: u64,
}

impl Sizes {
    /// Sizes of `workload`, divided by `divisor` (1 = full, 20 = smoke) and
    /// rounded so batches and bursts stay whole.
    pub fn of(workload: Workload, divisor: u64) -> Sizes {
        let raw = workload.full_units() / divisor;
        let granule = match workload {
            Workload::Batch1t => BATCH,
            Workload::Burst1t => BURST,
            _ => SAMPLE_EVERY,
        };
        let units = (raw / granule).max(1) * granule;
        Sizes {
            units,
            warmup: (20_000 / divisor).max(SAMPLE_EVERY),
            chunk: workload.chunk_units().min(units),
            faa_ops: FAA_SLICE_OPS / divisor,
            reference_steps: REFERENCE_SLICE_STEPS,
        }
    }
}

/// Clock stamps of the sampled messages of one traced repetition, indexed by
/// `id / SAMPLE_EVERY`.  Each vector is written by exactly one thread; they
/// are allocated before the repetition starts so tracing never allocates
/// inside it.
#[derive(Debug, Default)]
pub struct TraceBuf {
    /// Producer side: `[due, send_start, send_end]`.
    pub prod: Vec<[u64; 3]>,
    /// Consumer side: `[recv_start, recv_end]` of the call that returned it.
    pub cons: Vec<[u64; 2]>,
    /// `echo_2t` only: the echo thread's `[recv_start, recv_end]` on the
    /// outbound channel.
    pub echo: Vec<[u64; 2]>,
}

impl TraceBuf {
    /// Zeroed buffers for a repetition of `units` messages.
    pub fn for_units(units: u64) -> Self {
        let slots = (units / SAMPLE_EVERY + 1) as usize;
        Self {
            prod: vec![[0; 3]; slots],
            cons: vec![[0; 2]; slots],
            echo: vec![[0; 2]; slots],
        }
    }
}

/// Everything one repetition needs from outside.
pub struct RepInput<'a, I: Instrument> {
    /// The run's clock.
    pub clock: &'a Clock,
    /// The run's yardstick.
    pub reference: &'a Reference,
    /// Payload salt (from `--seed`).
    pub salt: u64,
    /// Repetition sizes.
    pub sizes: Sizes,
    /// `paced_2t`'s due times (ns from the start of the timed section).
    pub schedule: &'a [u64],
    /// Instrument to build the channels with.
    pub instr: I,
    /// Reads the instrument's counters (`None` when it keeps none).
    pub snapshot: &'a dyn Fn() -> Option<MetricsSnapshot>,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Build + warm-up, ns.
    pub setup_ns: u64,
    /// Timed section, ns: the chunks of work, without the reference slices
    /// between them.
    pub timed_ns: u64,
    /// Messages delivered (polls answered) in the timed section.
    pub units: u64,
    /// What one message cost its user, ns: `timed_ns ÷ units` on the closed
    /// loops; on the open loop, where the time per message is the
    /// schedule's and latency is what a user waits for, the median due →
    /// `recv` transit.
    pub cost_ns: f64,
    /// ns per reference step, mean of the slices before, between and after
    /// the chunks of the timed section.
    pub reference_ns: f64,
    /// ns per uncontended fetch-and-add, mean of the slices before and after
    /// the timed section.
    pub faa_ns: f64,
    /// Peak live heap above the pre-build level, bytes.
    pub peak_heap: u64,
    /// Live heap after the full drain, channel still open, above the
    /// pre-build level, bytes.
    pub retained_heap: u64,
    /// Heap allocations from the build to the end of the timed section.
    pub allocs: u64,
    /// Operations attempted in the timed section.
    pub attempted: u64,
    /// Oracle verdict.
    pub failures: Failures,
    /// `paced_2t`: due → `recv` return per message, ns.
    pub transit_ns: Vec<u32>,
    /// `paced_2t`: due → `send` start per message, ns.
    pub gen_late_ns: Vec<u32>,
    /// Counter deltas over the timed section (instrumented runs).
    pub counters: Option<CounterDelta>,
}

/// Counter increments over the timed section.
#[derive(Debug, Clone, Copy)]
pub struct CounterDelta {
    before: MetricsSnapshot,
    at_stop: MetricsSnapshot,
    after_drop: MetricsSnapshot,
}

impl CounterDelta {
    /// Increment of `counter` over the timed section.  Event counters are
    /// recorded as they happen and are read when timing stops, so the drain
    /// and close probes that follow are not in them; the per-handle value
    /// and batch tallies only reach the set when the endpoints drop, and are
    /// read then (nothing after the timed section adds to them).
    pub fn get(&self, counter: Counter) -> u64 {
        let end = match counter {
            Counter::EnqueuesCompleted
            | Counter::DequeuesCompleted
            | Counter::BatchValuesRequested
            | Counter::BatchValuesGranted => &self.after_drop,
            _ => &self.at_stop,
        };
        end.get(counter).saturating_sub(self.before.get(counter))
    }
}

/// Runs one repetition of `workload`.  `trace` is written only when `TRACE`.
pub fn run_rep<I: Instrument, const TRACE: bool>(
    workload: Workload,
    input: &RepInput<'_, I>,
    trace: &mut TraceBuf,
) -> Rep {
    match workload {
        Workload::Pairs1t => pairs_1t::<I, TRACE>(input, trace),
        Workload::Batch1t => batch_1t::<I, TRACE>(input, trace),
        Workload::Burst1t => burst_1t::<I, TRACE>(input, trace),
        Workload::Empty1t => empty_1t::<I, TRACE>(input, trace),
        Workload::Echo2t => echo_2t::<I, TRACE>(input, trace),
        Workload::Paced2t => paced_2t::<I, TRACE>(input, trace),
    }
}

// --------------------------------------------------------------------------
// The frame every repetition shares
// --------------------------------------------------------------------------

/// Set-up phase of a repetition: heap baseline taken, set-up clock running.
struct Frame {
    mem0: MemSnapshot,
    t0: u64,
}

/// Timed phase: set-up recorded, first calibration slices done.  The timed
/// section is a sequence of chunks of work with a reference slice before,
/// between and after them.
struct Timed<'a, I: Instrument> {
    input: &'a RepInput<'a, I>,
    mem0: MemSnapshot,
    setup_ns: u64,
    faa_before: f64,
    counters_before: Option<MetricsSnapshot>,
    work_ns: u64,
    reference_ns_sum: f64,
    reference_slices: u32,
}

impl Frame {
    fn begin(clock: &Clock) -> Frame {
        let mem0 = memtrack::snapshot();
        memtrack::reset_peak();
        Frame {
            mem0,
            t0: clock.now(),
        }
    }

    /// Ends set-up (build + warm-up), calibrates, and starts the timed
    /// section.
    fn start_timing<'a, I: Instrument>(self, input: &'a RepInput<'a, I>) -> Timed<'a, I> {
        let setup_ns = input.clock.now() - self.t0;
        Timed {
            input,
            mem0: self.mem0,
            setup_ns,
            faa_before: faa_slice_ns(input.clock, input.sizes.faa_ops),
            counters_before: (input.snapshot)(),
            work_ns: 0,
            reference_ns_sum: 0.0,
            reference_slices: 0,
        }
    }
}

impl<I: Instrument> Timed<'_, I> {
    /// One reading of the closed loops' yardstick: a slice of reference
    /// steps on the client thread.
    fn reference_step_slice(&mut self) {
        self.reference_ns_sum += self
            .input
            .reference
            .slice_ns(self.input.clock, self.input.sizes.reference_steps);
        self.reference_slices += 1;
    }

    /// Times one chunk of work.
    #[inline(always)]
    fn chunk<R>(&mut self, work: impl FnOnce() -> R) -> R {
        let start = self.input.clock.now();
        let result = work();
        self.work_ns += self.input.clock.now() - start;
        result
    }

    /// Times one chunk of single-thread work, then runs the reference-step
    /// slice that follows it.
    #[inline(always)]
    fn chunk_then_steps<R>(&mut self, work: impl FnOnce() -> R) -> R {
        let result = self.chunk(work);
        self.reference_step_slice();
        result
    }

    /// Ends the timed section and calibrates again.  Heap and oracle fields
    /// are filled in by the caller as it drains and closes.
    fn stop(self, units: u64) -> (Rep, Settle) {
        let mem = memtrack::snapshot();
        let counters_at_stop = (self.input.snapshot)();
        let faa_after = faa_slice_ns(self.input.clock, self.input.sizes.faa_ops);
        let rep = Rep {
            setup_ns: self.setup_ns,
            timed_ns: self.work_ns,
            units,
            cost_ns: self.work_ns as f64 / units as f64,
            // `paced_2t` takes no slices and fills this in itself.
            reference_ns: self.reference_ns_sum / f64::from(self.reference_slices.max(1)),
            faa_ns: (self.faa_before + faa_after) / 2.0,
            peak_heap: mem.peak_bytes.saturating_sub(self.mem0.live_bytes) as u64,
            allocs: (mem.total_allocs - self.mem0.total_allocs) as u64,
            attempted: units,
            ..Rep::default()
        };
        (
            rep,
            Settle {
                mem0: self.mem0,
                counters_before: self.counters_before,
                counters_at_stop,
            },
        )
    }
}

/// `0..n` in runs of at most `chunk`.
fn chunks(n: u64, chunk: u64) -> impl Iterator<Item = std::ops::Range<u64>> {
    (0..n.div_ceil(chunk)).map(move |i| i * chunk..n.min((i + 1).saturating_mul(chunk)))
}

/// Drain/close phase: what is still needed to finish the [`Rep`].
struct Settle {
    mem0: MemSnapshot,
    counters_before: Option<MetricsSnapshot>,
    counters_at_stop: Option<MetricsSnapshot>,
}

impl Settle {
    /// Call with the channel fully drained and still open.
    fn retained(&self) -> u64 {
        memtrack::snapshot()
            .live_bytes
            .saturating_sub(self.mem0.live_bytes) as u64
    }

    /// Call after every endpoint is dropped, so drop-flushed counters are in.
    fn counters<I: Instrument>(&self, input: &RepInput<'_, I>) -> Option<CounterDelta> {
        Some(CounterDelta {
            before: self.counters_before?,
            at_stop: self.counters_at_stop?,
            after_drop: (input.snapshot)()?,
        })
    }
}

type Tx<I> = Sender<u64, I>;
type Rx<I> = Receiver<u64, I>;

fn build<I: Instrument>(input: &RepInput<'_, I>) -> (Tx<I>, Rx<I>) {
    wcq::builder()
        .instrument(input.instr.clone())
        .build_channel::<u64>()
}

#[inline(always)]
fn send_one<I: Instrument>(tx: &mut Tx<I>, value: u64, fails: &mut Failures) {
    if tx.send(value).is_err() {
        fails.refused += 1;
    }
}

/// `recv` that feeds the flow check; `false` when the channel reported
/// `Closed` while it was open (the caller stops: nothing more will arrive).
#[inline(always)]
fn recv_one<I: Instrument>(
    rx: &mut Rx<I>,
    salt: u64,
    flow: &mut FlowCheck,
    fails: &mut Failures,
) -> bool {
    match rx.recv() {
        Ok(value) => {
            flow.observe(value ^ salt);
            true
        }
        Err(_) => {
            fails.bad_close += 1;
            false
        }
    }
}

/// Warm-up shared by the single-thread workloads: `send`/`recv` pairs, which
/// bind the first segment and register both endpoints' handles.
fn warm_pairs<I: Instrument>(
    tx: &mut Tx<I>,
    rx: &mut Rx<I>,
    input: &RepInput<'_, I>,
    fails: &mut Failures,
) {
    let mut flow = FlowCheck::new();
    for id in 0..input.sizes.warmup {
        send_one(tx, id ^ input.salt, fails);
        if !recv_one(rx, input.salt, &mut flow, fails) {
            break;
        }
    }
    fails.add(&flow.finish(input.sizes.warmup));
}

/// The channel must be empty and open now, and report `Closed` — not before
/// — once its last sender is gone.
fn check_drained_then_closed<I: Instrument>(tx: Tx<I>, rx: &mut Rx<I>, fails: &mut Failures) {
    if rx.try_recv() != Err(TryRecvError::Empty) {
        fails.bad_close += 1;
    }
    drop(tx);
    if rx.try_recv() != Err(TryRecvError::Closed) {
        fails.bad_close += 1;
    }
}

/// How every single-thread repetition begins: heap baseline, build, warm-up,
/// calibration, first reading of the yardstick.
fn start_single_thread<'a, I: Instrument>(
    input: &'a RepInput<'a, I>,
    fails: &mut Failures,
) -> (Tx<I>, Rx<I>, Timed<'a, I>) {
    let frame = Frame::begin(input.clock);
    let (mut tx, mut rx) = build(input);
    warm_pairs(&mut tx, &mut rx, input, fails);
    let mut timed = frame.start_timing(input);
    timed.reference_step_slice();
    (tx, rx, timed)
}

/// How every single-thread repetition ends: stop timing, read the retained
/// heap with the channel drained and open, check the close protocol, drop
/// the endpoints, collect the counters.
fn finish_single_thread<I: Instrument>(
    timed: Timed<'_, I>,
    (tx, mut rx): (Tx<I>, Rx<I>),
    mut fails: Failures,
) -> Rep {
    let (input, units) = (timed.input, timed.input.sizes.units);
    let (mut rep, settle) = timed.stop(units);
    rep.retained_heap = settle.retained();
    check_drained_then_closed(tx, &mut rx, &mut fails);
    drop(rx);
    rep.counters = settle.counters(input);
    rep.failures = fails;
    rep
}

#[inline(always)]
fn sampled(id: u64) -> bool {
    id.is_multiple_of(SAMPLE_EVERY)
}

#[inline(always)]
fn slot(id: u64) -> usize {
    (id / SAMPLE_EVERY) as usize
}

// --------------------------------------------------------------------------
// Single-thread workloads
// --------------------------------------------------------------------------

fn pairs_1t<I: Instrument, const TRACE: bool>(
    input: &RepInput<'_, I>,
    trace: &mut TraceBuf,
) -> Rep {
    let (clock, salt, n) = (input.clock, input.salt, input.sizes.units);
    let mut fails = Failures::default();
    let (mut tx, mut rx, mut timed) = start_single_thread(input, &mut fails);

    let mut flow = FlowCheck::new();
    for ids in chunks(n, input.sizes.chunk) {
        let alive = timed.chunk_then_steps(|| {
            for id in ids {
                if TRACE && sampled(id) {
                    let s0 = clock.now();
                    send_one(&mut tx, id ^ salt, &mut fails);
                    let s1 = clock.now();
                    let alive = recv_one(&mut rx, salt, &mut flow, &mut fails);
                    let r1 = clock.now();
                    trace.prod[slot(id)] = [s0, s0, s1];
                    trace.cons[slot(id)] = [s1, r1];
                    if !alive {
                        return false;
                    }
                } else {
                    send_one(&mut tx, id ^ salt, &mut fails);
                    if !recv_one(&mut rx, salt, &mut flow, &mut fails) {
                        return false;
                    }
                }
            }
            true
        });
        if !alive {
            break;
        }
    }

    fails.add(&flow.finish(n));
    finish_single_thread(timed, (tx, rx), fails)
}

fn batch_1t<I: Instrument, const TRACE: bool>(
    input: &RepInput<'_, I>,
    trace: &mut TraceBuf,
) -> Rep {
    let (clock, salt, n) = (input.clock, input.salt, input.sizes.units);
    let mut fails = Failures::default();
    let (mut tx, mut rx, mut timed) = start_single_thread(input, &mut fails);
    let mut out: Vec<u64> = Vec::with_capacity(BATCH as usize);

    let mut flow = FlowCheck::new();
    for ids in chunks(n, input.sizes.chunk) {
        let alive = timed.chunk_then_steps(|| {
            for base in ids.step_by(BATCH as usize) {
                // `base` is a multiple of BATCH = SAMPLE_EVERY, so a traced
                // run stamps every call pair; the overhead is three clock
                // reads per 64 messages and is reported as
                // `bench.trace_overhead_pct`.
                let s0 = if TRACE { clock.now() } else { 0 };
                match tx.send_iter((base..base + BATCH).map(|id| id ^ salt)) {
                    Ok(sent) => fails.refused += BATCH - sent as u64,
                    Err(unsent) => fails.refused += unsent.0.len() as u64,
                }
                let s1 = if TRACE { clock.now() } else { 0 };
                let mut got = 0;
                while got < BATCH {
                    out.clear();
                    match rx.recv_many(&mut out, (BATCH - got) as usize) {
                        Ok(k) => {
                            out.iter().for_each(|v| flow.observe(v ^ salt));
                            got += k as u64;
                        }
                        Err(_) => {
                            fails.bad_close += 1;
                            return false;
                        }
                    }
                }
                if TRACE {
                    trace.prod[slot(base)] = [s0, s0, s1];
                    trace.cons[slot(base)] = [s1, clock.now()];
                }
            }
            true
        });
        if !alive {
            break;
        }
    }

    fails.add(&flow.finish(n));
    finish_single_thread(timed, (tx, rx), fails)
}

fn burst_1t<I: Instrument, const TRACE: bool>(
    input: &RepInput<'_, I>,
    trace: &mut TraceBuf,
) -> Rep {
    let (clock, salt, n) = (input.clock, input.salt, input.sizes.units);
    let mut fails = Failures::default();
    let (mut tx, mut rx, mut timed) = start_single_thread(input, &mut fails);

    let mut flow = FlowCheck::new();
    // One chunk is one round: BURST sends, then the drain.
    for ids in chunks(n, BURST) {
        let alive = timed.chunk_then_steps(|| {
            for id in ids.clone() {
                if TRACE && sampled(id) {
                    let s0 = clock.now();
                    send_one(&mut tx, id ^ salt, &mut fails);
                    trace.prod[slot(id)] = [s0, s0, clock.now()];
                } else {
                    send_one(&mut tx, id ^ salt, &mut fails);
                }
            }
            for id in ids {
                let alive = if TRACE && sampled(id) {
                    let r0 = clock.now();
                    let alive = recv_one(&mut rx, salt, &mut flow, &mut fails);
                    trace.cons[slot(id)] = [r0, clock.now()];
                    alive
                } else {
                    recv_one(&mut rx, salt, &mut flow, &mut fails)
                };
                if !alive {
                    return false;
                }
            }
            true
        });
        if !alive {
            break;
        }
    }

    fails.add(&flow.finish(n));
    finish_single_thread(timed, (tx, rx), fails)
}

fn empty_1t<I: Instrument, const TRACE: bool>(
    input: &RepInput<'_, I>,
    trace: &mut TraceBuf,
) -> Rep {
    let (clock, n) = (input.clock, input.sizes.units);
    let mut fails = Failures::default();
    let (tx, mut rx, mut timed) = start_single_thread(input, &mut fails);

    // Every poll of an empty, open channel must answer `Empty`: a value or
    // a `Closed` is a refused operation.
    for polls in chunks(n, input.sizes.chunk) {
        timed.chunk_then_steps(|| {
            for poll in polls {
                let answer = if TRACE && sampled(poll) {
                    let r0 = clock.now();
                    let answer = rx.try_recv();
                    trace.cons[slot(poll)] = [r0, clock.now()];
                    answer
                } else {
                    rx.try_recv()
                };
                if answer != Err(TryRecvError::Empty) {
                    fails.refused += 1;
                }
            }
        });
    }

    finish_single_thread(timed, (tx, rx), fails)
}

// --------------------------------------------------------------------------
// Two-thread workloads
// --------------------------------------------------------------------------

/// The client side of a window-`ECHO_WINDOW` echo exchange of `ids`: send
/// while the window has room, otherwise collect an echo.  Returns with every
/// echo collected, or `false` if the return channel closed.
fn echo_client<I: Instrument, const TRACE: bool>(
    (tx, rx): (&mut Tx<I>, &mut Rx<I>),
    ids: std::ops::Range<u64>,
    flow: &mut FlowCheck,
    input: &RepInput<'_, I>,
    trace: &mut TraceBuf,
    fails: &mut Failures,
) -> bool {
    let (clock, salt) = (input.clock, input.salt);
    let (mut sent, count) = (ids.start, ids.end);
    for received in ids {
        while sent < count && sent - received < ECHO_WINDOW {
            if TRACE && sampled(sent) {
                let s0 = clock.now();
                send_one(tx, sent ^ salt, fails);
                trace.prod[slot(sent)] = [s0, s0, clock.now()];
            } else {
                send_one(tx, sent ^ salt, fails);
            }
            sent += 1;
        }
        let alive = if TRACE && sampled(received) {
            let r0 = clock.now();
            let alive = recv_one(rx, salt, flow, fails);
            trace.cons[slot(received)] = [r0, clock.now()];
            alive
        } else {
            recv_one(rx, salt, flow, fails)
        };
        if !alive {
            return false;
        }
    }
    true
}

fn echo_2t<I: Instrument, const TRACE: bool>(input: &RepInput<'_, I>, trace: &mut TraceBuf) -> Rep {
    let (clock, salt, n) = (input.clock, input.salt, input.sizes.units);
    let (warmup, chunk) = (input.sizes.warmup, input.sizes.chunk);
    let mut fails = Failures::default();
    let TraceBuf { prod, cons, echo } = trace;
    let mut client_trace = TraceBuf {
        prod: std::mem::take(prod),
        cons: std::mem::take(cons),
        echo: Vec::new(),
    };
    let mut scratch = TraceBuf::for_units(if TRACE { warmup } else { 0 });

    let frame = Frame::begin(clock);
    let (mut out_tx, mut out_rx) = build(input);
    let (mut back_tx, mut back_rx) = build(input);

    let rep = std::thread::scope(|s| {
        // The echo thread returns whatever arrives until the outbound
        // channel closes; it checks its own side of the flow.  Warm-up ids
        // restart at 0, so it runs one flow check per phase.
        let echo_thread = s.spawn(move || {
            pin::as_helper();
            let mut fails = Failures::default();
            for phase_len in [warmup, n] {
                let mut flow = FlowCheck::new();
                while flow.expected() < phase_len {
                    let stamp = TRACE && phase_len == n && sampled(flow.expected());
                    let e0 = if stamp { clock.now() } else { 0 };
                    let Ok(value) = out_rx.recv() else {
                        fails.bad_close += 1;
                        return fails;
                    };
                    if stamp {
                        echo[slot(flow.expected())] = [e0, clock.now()];
                    }
                    flow.observe(value ^ salt);
                    send_one(&mut back_tx, value, &mut fails);
                }
                fails.add(&flow.finish(phase_len));
            }
            // Closed, and only now: the client drops its sender after the
            // last echo came back.
            if out_rx.recv().is_ok() {
                fails.duplicated += 1;
            }
            fails
        });

        // The warm-up round trip doubles as the start flag: when it is
        // through, both threads are registered, bound and spinning.
        let mut warm_flow = FlowCheck::new();
        echo_client::<I, TRACE>(
            (&mut out_tx, &mut back_rx),
            0..warmup,
            &mut warm_flow,
            input,
            &mut scratch,
            &mut fails,
        );
        fails.add(&warm_flow.finish(warmup));
        let mut timed = frame.start_timing(input);
        timed.reference_step_slice();
        let mut flow = FlowCheck::new();
        // Each chunk ends with its window drained, so the reference slice
        // runs with nothing in flight (the echo thread spins in `recv`).
        for ids in chunks(n, chunk) {
            let alive = timed.chunk_then_steps(|| {
                echo_client::<I, TRACE>(
                    (&mut out_tx, &mut back_rx),
                    ids,
                    &mut flow,
                    input,
                    &mut client_trace,
                    &mut fails,
                )
            });
            if !alive {
                break;
            }
        }
        fails.add(&flow.finish(n));
        let (mut rep, settle) = timed.stop(n);

        rep.retained_heap = settle.retained();
        drop(out_tx);
        match echo_thread.join() {
            Ok(echo_fails) => fails.add(&echo_fails),
            Err(_) => fails.refused += 1,
        }
        // The echo thread's sender went with it: drained, then closed.
        if back_rx.try_recv() != Err(TryRecvError::Closed) {
            fails.bad_close += 1;
        }
        drop(back_rx);
        rep.counters = settle.counters(input);
        rep
    });

    *prod = client_trace.prod;
    *cons = client_trace.cons;
    Rep {
        failures: fails,
        ..rep
    }
}

/// What the generator of `paced_2t` does next.  `origin` is the clock value
/// the segment's first offset counts from.
#[derive(Clone, Copy)]
enum Segment {
    /// Send `ids` on the channel at their due times.
    Channel { origin: u64 },
    /// Post as many words to the mailbox at the same due times.
    Mailbox { origin: u64 },
}

fn paced_2t<I: Instrument, const TRACE: bool>(
    input: &RepInput<'_, I>,
    trace: &mut TraceBuf,
) -> Rep {
    let (clock, salt, n) = (input.clock, input.salt, input.sizes.units);
    let (warmup, chunk) = (input.sizes.warmup, input.sizes.chunk);
    let schedule = &input.schedule[..n as usize];
    let mut fails = Failures::default();
    let TraceBuf { prod, cons, .. } = trace;
    let mut transit_ns = vec![0u32; n as usize];
    let mut reference_transit_ns = vec![0u64; n as usize];
    let mut gen_late_ns = vec![0u32; n as usize];
    let mailbox = Mailbox::for_current_thread();
    // The segment protocol: the consumer publishes a new origin (odd for a
    // channel segment, even for a mailbox one; 0 means "not yet"), the
    // generator runs that segment and waits for the next.
    let next_segment = AtomicU64::new(0);
    let read_segment = |last: u64| -> Segment {
        loop {
            let word = next_segment.load(SeqCst);
            if word != last {
                let origin = word & !1;
                return if word & 1 == 1 {
                    Segment::Channel { origin }
                } else {
                    Segment::Mailbox { origin }
                };
            }
            std::hint::spin_loop();
        }
    };
    // Offsets are rebased so every segment starts at its own time 0.
    let segments: Vec<std::ops::Range<u64>> = chunks(n, chunk).collect();

    let frame = Frame::begin(clock);
    let (mut tx, mut rx) = build(input);

    let rep = std::thread::scope(|s| {
        let (mailbox, gen_late_ns, segments) = (&mailbox, &mut gen_late_ns, &segments);
        let generator = s.spawn(move || {
            pin::as_helper();
            let mut fails = Failures::default();
            for id in 0..warmup {
                send_one(&mut tx, id ^ salt, &mut fails);
            }
            let mut last = 0;
            for ids in segments.iter().flat_map(|ids| [ids.clone(), ids.clone()]) {
                let segment = read_segment(last);
                let base = schedule[ids.start as usize];
                for id in ids.clone() {
                    let offset = schedule[id as usize] - base;
                    match segment {
                        Segment::Channel { origin } => {
                            last = origin | 1;
                            let due = origin + offset;
                            let mut now = clock.now();
                            while now < due {
                                std::hint::spin_loop();
                                now = clock.now();
                            }
                            send_one(&mut tx, id ^ salt, &mut fails);
                            gen_late_ns[id as usize] = (now - due).min(u64::from(u32::MAX)) as u32;
                            if TRACE && sampled(id) {
                                prod[slot(id)] = [due, now, clock.now()];
                            }
                        }
                        Segment::Mailbox { origin } => {
                            last = origin;
                            while clock.now() < origin + offset {
                                std::hint::spin_loop();
                            }
                            mailbox.post(id - ids.start + 1);
                        }
                    }
                }
            }
            fails
            // `tx` drops here: the consumer must see `Closed` after id n-1.
        });

        // The generator blasts the warm-up; taking it with the spinning
        // `recv` keeps set-up short and the same every time (a parked
        // receive here would add a random number of wake-ups to it).
        let mut warm_flow = FlowCheck::new();
        for _ in 0..warmup {
            if !recv_one(&mut rx, salt, &mut warm_flow, &mut fails) {
                break;
            }
        }
        fails.add(&warm_flow.finish(warmup));
        let mut timed = frame.start_timing(input);
        let mut flow = FlowCheck::new();
        // An origin a moment from now, so the generator is already spinning
        // on the first due time when it arrives; even, so bit 0 is free.
        let new_origin = || (clock.now() + 50_000) & !1;

        'segments: for ids in segments {
            let base = schedule[ids.start as usize];
            // The channel segment: an open loop cannot pause, so it is one
            // chunk of work.
            let origin = new_origin();
            next_segment.store(origin | 1, SeqCst);
            let alive = timed.chunk(|| {
                while flow.expected() < ids.end {
                    let expected = flow.expected();
                    let stamp = TRACE && sampled(expected);
                    let r0 = if stamp { clock.now() } else { 0 };
                    match rx.recv_timeout(RECV_DEADLINE) {
                        Ok(value) => {
                            let now = clock.now();
                            let id = value ^ salt;
                            if ids.contains(&id) {
                                let transit =
                                    now.saturating_sub(origin + schedule[id as usize] - base);
                                transit_ns[id as usize] = transit.min(u64::from(u32::MAX)) as u32;
                            }
                            if stamp {
                                cons[slot(expected)] = [r0, now];
                            }
                            flow.observe(id);
                        }
                        Err(RecvTimeoutError::Closed) => return false,
                        // No gap of the schedule is anywhere near the
                        // deadline: a timeout is a lost wake-up.  Keep
                        // draining.
                        Err(RecvTimeoutError::Timeout) => fails.refused += 1,
                    }
                }
                true
            });
            if !alive {
                fails.bad_close += 1;
                break 'segments;
            }
            // The reference segment: the same arrivals through the mailbox.
            mailbox.reset();
            let origin = new_origin();
            next_segment.store(origin, SeqCst);
            let mut seen = 0;
            while seen < ids.end - ids.start {
                let posted = mailbox.wait_beyond(seen, RECV_DEADLINE);
                let now = clock.now();
                for word in seen..posted {
                    let id = ids.start + word;
                    reference_transit_ns[id as usize] =
                        now.saturating_sub(origin + schedule[id as usize] - base);
                }
                seen = posted;
            }
        }
        let (mut rep, settle) = timed.stop(n);
        fails.add(&flow.finish(n));
        match generator.join() {
            Ok(gen_fails) => fails.add(&gen_fails),
            Err(_) => fails.refused += 1,
        }
        // The generator's sender is gone: drained, so closed — and the
        // "drained and still open" state retained heap is read in is this
        // one, as the channel cannot be open without its only sender.
        if rx.recv_timeout(RECV_DEADLINE) != Err(RecvTimeoutError::Closed) {
            fails.bad_close += 1;
        }
        rep.retained_heap = settle.retained();
        drop(rx);
        rep.counters = settle.counters(input);
        rep
    });

    let mut transit_sorted: Vec<u64> = transit_ns.iter().map(|&t| u64::from(t)).collect();
    transit_sorted.sort_unstable();
    reference_transit_ns.sort_unstable();
    Rep {
        failures: fails,
        cost_ns: percentile_sorted(&transit_sorted, 50.0) as f64,
        reference_ns: percentile_sorted(&reference_transit_ns, 50.0) as f64,
        transit_ns,
        gen_late_ns,
        ..rep
    }
}
