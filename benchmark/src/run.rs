//! One run: a workload measured for `--seconds`, untraced (the end-to-end
//! metrics) or traced (the per-layer metrics).

use std::path::PathBuf;

use wcq::{Counter, CountingInstrument, NoopInstrument, WaitFreeQueue};

use crate::calib::{pin, Clock, Reference};
use crate::json::Value;
use crate::ledger::{self, RUNGS};
use crate::names::{per_layer, Statistic, END_TO_END};
use crate::oracle::{self, Failures};
use crate::schedule::poisson_schedule;
use crate::stats::{self, Summary};
use crate::trace::{self, SpanSamples};
use crate::workloads::{
    run_rep, Rep, RepInput, Sizes, TraceBuf, Workload, PACED_RATE, TRANSIT_LIMIT_NS,
};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of payload values and the Poisson schedule.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Sizes ÷ 20 and fewer repetitions, for CI.
    pub smoke: bool,
    /// Where `trace-<workload>.jsonl` goes (traced runs).
    pub out_dir: PathBuf,
}

impl RunConfig {
    fn divisor(&self) -> u64 {
        if self.smoke {
            20
        } else {
            1
        }
    }

    /// Fewest repetitions a summary is made of, whatever `--seconds` says.
    fn min_reps(&self) -> usize {
        if self.smoke {
            3
        } else {
            5
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: `statistic` of the repetitions.
    pub value: f64,
    /// Which statistic `value` is.
    pub statistic: Statistic,
    /// Median and quartiles over repetitions (a single reading is its own).
    pub summary: Summary,
    /// The repetitions, for the compare tool's side test.
    pub reps: Vec<f64>,
}

impl Metric {
    fn of_reps(name: &str, unit: &'static str, reps: Vec<f64>) -> Metric {
        let summary = stats::summarize(&reps);
        Metric {
            name: name.to_string(),
            unit,
            value: summary.median,
            statistic: Statistic::Median,
            summary,
            reps,
        }
    }

    fn min_of_reps(name: &str, unit: &'static str, reps: Vec<f64>) -> Metric {
        Metric {
            value: reps.iter().copied().fold(f64::INFINITY, f64::min),
            statistic: Statistic::Min,
            ..Metric::of_reps(name, unit, reps)
        }
    }

    fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric::of_reps(name, unit, vec![value])
    }
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload.
    pub workload: Workload,
    /// `true` when every output verified.
    pub correct: bool,
    /// Operations attempted in the timed sections.
    pub attempted: u64,
    /// Oracle violations and refused operations, by kind.
    pub failures: Failures,
    /// Traced-run invariants that did not hold (one line each).
    pub broken_invariants: Vec<String>,
    /// The contract's metrics: every end-to-end metric (untraced) or every
    /// per-layer metric (traced), in table order.
    pub metrics: Vec<Metric>,
    /// Ungated extras worth printing (raw rates, calibration, percentiles).
    pub info: Vec<Metric>,
}

impl RunResult {
    /// Failed operations, including broken invariants.
    pub fn failed(&self) -> u64 {
        self.failures.total() + self.broken_invariants.len() as u64
    }

    /// `100 × failed ÷ attempted`.
    pub fn failed_ops_pct(&self) -> f64 {
        100.0 * self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The last line the driver reads.
    pub fn contract_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Seed of repetition `rep`'s schedule: a different stream per repetition,
/// the same streams for the same `--seed`.
fn schedule_for(cfg: &RunConfig, sizes: Sizes, rep: usize) -> Vec<u64> {
    if cfg.workload == Workload::Paced2t {
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(rep as u64);
        poisson_schedule(seed, PACED_RATE, sizes.units as usize)
    } else {
        Vec::new()
    }
}

/// Heap allocations from the build to the end of the timed section, per 10⁶
/// timed messages.
fn allocs_per_mmsg(rep: &Rep) -> f64 {
    rep.allocs as f64 * 1e6 / rep.units as f64
}

fn noop_snapshot() -> Option<wcq::MetricsSnapshot> {
    None
}

fn rep_untraced(
    cfg: &RunConfig,
    clock: &Clock,
    reference: &Reference,
    sizes: Sizes,
    schedule: &[u64],
    rep: usize,
) -> Rep {
    let input = RepInput {
        clock,
        reference,
        salt: oracle::salt(cfg.seed),
        sizes,
        schedule,
        instr: NoopInstrument,
        snapshot: &noop_snapshot,
    };
    let _shift = heap_shift(cfg.seed, rep);
    run_rep::<NoopInstrument, false>(cfg.workload, &input, &mut TraceBuf::default())
}

/// A block that moves where the repetition's allocations land.  Within one
/// process every repetition would otherwise get the addresses the last one
/// freed, so a whole run would measure one heap layout — and where the hot
/// lines (heads, tails, thresholds) fall among cache sets and L3 slices moves
/// the 2-thread exchange by ±10 % from process to process.  Shifting the
/// layout per repetition makes the run's median a median over layouts.
/// Allocated before the repetition's heap baseline is taken and held until
/// it ends; below glibc's mmap threshold, so it comes from (and displaces)
/// the main heap.
fn heap_shift(seed: u64, rep: usize) -> Vec<u8> {
    let mut rng = wcq_harness::DetRng::new(seed ^ 0xA110C).stream(rep as u64);
    vec![0u8; 64 * (1 + rng.next_below(1024) as usize)]
}

/// `true` while another repetition as long as the last one still fits.
fn time_left(clock: &Clock, deadline: u64, last_rep_started: u64) -> bool {
    let now = clock.now();
    now + (now - last_rep_started) <= deadline
}

/// An untraced run: repetitions until `--seconds` are used, every
/// end-to-end metric as the median over them.
pub fn run_untraced(cfg: &RunConfig) -> RunResult {
    pin::as_client();
    let clock = Clock::new();
    let reference = Reference::new();
    let sizes = Sizes::of(cfg.workload, cfg.divisor());
    let deadline = clock.now() + (cfg.seconds * 1e9) as u64;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let started = clock.now();
        let schedule = schedule_for(cfg, sizes, reps.len());
        reps.push(rep_untraced(
            cfg,
            &clock,
            &reference,
            sizes,
            &schedule,
            reps.len(),
        ));
        if reps.len() >= cfg.min_reps() && !time_left(&clock, deadline, started) {
            break;
        }
    }

    let column = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let w = cfg.workload;
    let values: [Vec<f64>; 4] = [
        column(&|r| r.setup_ns as f64 / 1e9),
        column(&|r| r.cost_ns / r.reference_ns),
        column(&|r| r.peak_heap as f64),
        column(&|r| r.retained_heap as f64),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, reps)| match m.statistic {
            Statistic::Min => Metric::min_of_reps(m.name, m.unit, reps),
            Statistic::Median => Metric::of_reps(m.name, m.unit, reps),
        })
        .collect();

    let mut info = vec![
        Metric::of_reps(
            "bench.raw_mops",
            "Mmsg/s",
            column(&|r| r.units as f64 * 1e3 / r.timed_ns as f64),
        ),
        Metric::of_reps("alloc.allocs_per_mmsg", "count", column(&allocs_per_mmsg)),
        Metric::of_reps("bench.reference_ns", "ns", column(&|r| r.reference_ns)),
        Metric::of_reps("bench.faa_ns", "ns", column(&|r| r.faa_ns)),
        Metric::of_reps("bench.cost_faa", "faa", column(&|r| r.cost_ns / r.faa_ns)),
    ];
    if w == Workload::Paced2t {
        info.push(Metric::of_reps(
            "bench.transit_p50_us",
            "us",
            column(&|r| r.cost_ns / 1e3),
        ));
    }

    let mut failures = Failures::default();
    reps.iter().for_each(|r| failures.add(&r.failures));
    RunResult {
        workload: w,
        correct: failures.total() == 0,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failures,
        broken_invariants: Vec::new(),
        metrics,
        info,
    }
}

// --------------------------------------------------------------------------
// The traced run
// --------------------------------------------------------------------------

/// Share of a traced run's seconds spent on the traced workload itself (the
/// rest goes to the ledger and the fixed probes).
const TRACED_WORKLOAD_SHARE: f64 = 0.35;

/// Share of a traced run's seconds after which the ledger stops starting
/// rounds.
const LEDGER_UNTIL_SHARE: f64 = 0.88;

/// Counters summed over the traced repetitions, with the messages they cover.
#[derive(Default)]
struct Counted {
    units: u64,
    ring_ops: u64,
    cas_failures: u64,
    helping_entries: u64,
    patience_exhausted: u64,
    patience_raised: u64,
    batch_requested: u64,
    batch_granted: u64,
    segment_allocs: u64,
    segments_retired: u64,
    cache_hits: u64,
    cache_misses: u64,
    parks: u64,
    wakes: u64,
}

impl Counted {
    fn absorb(&mut self, rep: &Rep) {
        let Some(delta) = rep.counters else { return };
        self.units += rep.units;
        self.ring_ops += delta.get(Counter::RingEnqueues) + delta.get(Counter::RingDequeues);
        self.cas_failures += delta.get(Counter::CasFailures);
        self.helping_entries += delta.get(Counter::HelpingEntries);
        self.patience_exhausted += delta.get(Counter::PatienceExhaustedEnqueues)
            + delta.get(Counter::PatienceExhaustedDequeues);
        self.patience_raised += delta.get(Counter::PatienceRaised);
        self.batch_requested += delta.get(Counter::BatchValuesRequested);
        self.batch_granted += delta.get(Counter::BatchValuesGranted);
        self.segment_allocs += delta.get(Counter::SegmentAllocs);
        self.segments_retired += delta.get(Counter::SegmentsRetired);
        self.cache_hits += delta.get(Counter::SegmentCacheHits);
        self.cache_misses += delta.get(Counter::SegmentCacheMisses);
        self.parks += delta.get(Counter::ChannelParks);
        self.wakes += delta.get(Counter::ChannelWakes);
    }

    fn per_mmsg(&self, count: u64) -> f64 {
        count as f64 * 1e6 / self.units.max(1) as f64
    }

    /// `100 × part ÷ whole`; `if_none` when there was no whole to take a
    /// share of.
    fn pct(part: u64, whole: u64, if_none: f64) -> f64 {
        if whole == 0 {
            if_none
        } else {
            100.0 * part as f64 / whole as f64
        }
    }
}

/// `facade.handle_acquire_ns`: acquiring and releasing a handle through
/// `dyn WaitFreeQueue` on a thread that has held one before (the memoised
/// re-entry every channel endpoint's first operation on a thread pays).
fn handle_acquire_ns(clock: &Clock, divisor: u64) -> f64 {
    let queue: Box<dyn WaitFreeQueue<u64>> = Box::new(wcq::builder().build_unbounded::<u64>());
    drop(queue.handle());
    let rounds = 20_000 / divisor;
    let start = clock.now();
    for _ in 0..rounds {
        drop(std::hint::black_box(queue.handle()));
    }
    (clock.now() - start) as f64 / rounds as f64
}

/// A traced run: the workload with `CountingInstrument` and spans, untraced
/// repetitions interleaved for the overhead, then the ledger and the fixed
/// probes.  Reports every per-layer metric.
pub fn run_traced(cfg: &RunConfig) -> RunResult {
    pin::as_client();
    let clock = Clock::new();
    let reference = Reference::new();
    let w = cfg.workload;
    let sizes = Sizes::of(w, cfg.divisor());
    let budget = |share: f64| clock.now() + (cfg.seconds * share * 1e9) as u64;
    let (workload_until, ledger_until) =
        (budget(TRACED_WORKLOAD_SHARE), budget(LEDGER_UNTIL_SHARE));
    let timer_ns = clock.timer_ns();

    // --- the workload, traced and untraced alternately -------------------
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut counted = Counted::default();
    let mut samples = SpanSamples::default();
    let mut buf;
    let min_pairs = if cfg.smoke { 1 } else { 2 };
    loop {
        let started = clock.now();
        let schedule = schedule_for(cfg, sizes, traced.len());
        plain.push(rep_untraced(
            cfg,
            &clock,
            &reference,
            sizes,
            &schedule,
            plain.len(),
        ));

        let instr = CountingInstrument::new();
        let snapshot = || Some(instr.snapshot());
        let input = RepInput {
            clock: &clock,
            reference: &reference,
            salt: oracle::salt(cfg.seed),
            sizes,
            schedule: &schedule,
            instr: instr.clone(),
            snapshot: &snapshot,
        };
        buf = TraceBuf::for_units(sizes.units);
        let _shift = heap_shift(cfg.seed, traced.len());
        let rep = run_rep::<CountingInstrument, true>(w, &input, &mut buf);
        counted.absorb(&rep);
        samples.absorb(&buf, timer_ns as u64);
        traced.push(rep);
        if traced.len() >= min_pairs && !time_left(&clock, workload_until, started) {
            break;
        }
    }
    let trace_path = cfg.out_dir.join(format!("trace-{}.jsonl", w.name()));
    let trace_written =
        std::fs::create_dir_all(&cfg.out_dir).and_then(|()| trace::write_jsonl(&trace_path, &buf));

    // --- the ledger and the fixed probes ---------------------------------
    let min_rounds = if cfg.smoke { 1 } else { 3 };
    let ledger = ledger::run(w, cfg.divisor(), cfg.seed, &clock, ledger_until, min_rounds);
    let rtt_n = 20_000 / cfg.divisor();
    let (spin_rtt_ns, spin_ok) = ledger::ping_pong(rtt_n, false, &clock);
    let (park_rtt_ns, park_ok) = ledger::ping_pong(rtt_n / 10, true, &clock);

    // --- derive the metrics ----------------------------------------------
    let median_of = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| {
        stats::median(&reps.iter().map(f).collect::<Vec<_>>())
    };
    let cost_ref = |r: &Rep| r.cost_ns / r.reference_ns;
    let (plain_cost, traced_cost) = (median_of(&plain, &cost_ref), median_of(&traced, &cost_ref));

    // Transit: every message on the open loop (the payload carries the id,
    // so it costs no extra stamp), the sampled `msg` spans elsewhere.
    let mut transit: Vec<u64> = if w == Workload::Paced2t {
        traced
            .iter()
            .flat_map(|r| r.transit_ns.iter().map(|&t| u64::from(t)))
            .collect()
    } else {
        std::mem::take(&mut samples.msg)
    };
    let over_limit = transit.iter().filter(|&&t| t > TRANSIT_LIMIT_NS).count();
    let transit_n = transit.len();
    let (transit_p50, transit_p99, transit_p999) = stats::p50_p99_p999(&mut transit);
    let mut gen_late: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.gen_late_ns.iter().map(|&t| u64::from(t)))
        .collect();
    let (late_p50, late_p99, _) = stats::p50_p99_p999(&mut gen_late);
    let (send_p50, send_p99, _) = stats::p50_p99_p999(&mut samples.send);
    let (recv_p50, recv_p99, _) = stats::p50_p99_p999(&mut samples.recv);
    let (wait_p50, _, _) = stats::p50_p99_p999(&mut samples.queue_wait);

    let retired_per_mmsg = counted.per_mmsg(counted.segments_retired);
    let value_of = |name: &str| -> f64 {
        if let Some((rung, what)) = name.split_once('.') {
            if RUNGS.iter().any(|(r, _)| *r == rung) {
                match what {
                    "op_ns" => return ledger.op_ns(rung),
                    "self_ns" => return ledger.self_ns(rung),
                    _ => {}
                }
            }
        }
        match name {
            "core.wcq_vs_scq" => ledger.op_ns("wcq_queue") / ledger.op_ns("scq_queue"),
            "core.ring_ops_per_msg" => counted.ring_ops as f64 / counted.units.max(1) as f64,
            "core.cas_failures_per_mmsg" => counted.per_mmsg(counted.cas_failures),
            "core.helping_entries_per_mmsg" => counted.per_mmsg(counted.helping_entries),
            "core.slow_path_pct" => Counted::pct(counted.patience_exhausted, counted.ring_ops, 0.0),
            "core.patience_raised_per_mmsg" => counted.per_mmsg(counted.patience_raised),
            // Nothing requested is nothing refused.
            "core.batch_grant_pct" => {
                Counted::pct(counted.batch_granted, counted.batch_requested, 100.0)
            }
            "unbounded.segment_allocs_per_mmsg" => counted.per_mmsg(counted.segment_allocs),
            "unbounded.segments_retired_per_mmsg" => retired_per_mmsg,
            "unbounded.segment_cache_hit_pct" => Counted::pct(
                counted.cache_hits,
                counted.cache_hits + counted.cache_misses,
                0.0,
            ),
            // The unbounded layer's own time per message, spread over the
            // segments it retires per message; 0 where it retires none.
            "unbounded.turnover_ns_per_segment" if retired_per_mmsg > 0.0 => {
                ledger.self_ns("unbounded") * 1e6 / retired_per_mmsg
            }
            "unbounded.turnover_ns_per_segment" => 0.0,
            "unbounded.footprint_bytes" => ledger.footprint_bytes as f64,
            "reclaim.retained_segments" => ledger.retained_segments as f64,
            "shard.steals_per_mmsg" => ledger.steals_per_mmsg,
            "alloc.allocs_per_mmsg" => median_of(&plain, &allocs_per_mmsg),
            "facade.handle_acquire_ns" => handle_acquire_ns(&clock, cfg.divisor()),
            "channel.send_call_p50_ns" => send_p50 as f64,
            "channel.send_call_p99_ns" => send_p99 as f64,
            "channel.recv_call_p50_ns" => recv_p50 as f64,
            "channel.recv_call_p99_ns" => recv_p99 as f64,
            "channel.queue_wait_p50_us" => wait_p50 as f64 / 1e3,
            "channel.parks_per_kmsg" => counted.per_mmsg(counted.parks) / 1e3,
            "channel.wakes_per_kmsg" => counted.per_mmsg(counted.wakes) / 1e3,
            "channel.spin_rtt_ns" => spin_rtt_ns,
            "channel.park_wake_rtt_us" => park_rtt_ns / 1e3,
            "bench.reference_ns" => median_of(&plain, &|r| r.reference_ns),
            "bench.faa_ns" => median_of(&plain, &|r| r.faa_ns),
            "bench.cost_faa" => median_of(&plain, &|r| r.cost_ns / r.faa_ns),
            "bench.timer_ns" => timer_ns,
            "bench.raw_mops" => median_of(&plain, &|r| r.units as f64 * 1e3 / r.timed_ns as f64),
            "bench.trace_overhead_pct" => 100.0 * (traced_cost / plain_cost - 1.0),
            "bench.transit_p50_us" => transit_p50 as f64 / 1e3,
            "bench.transit_p99_us" => transit_p99 as f64 / 1e3,
            "bench.transit_p999_us" => transit_p999 as f64 / 1e3,
            "bench.over_limit_pct" => Counted::pct(over_limit as u64, transit_n as u64, 0.0),
            "bench.gen_late_p50_us" => late_p50 as f64 / 1e3,
            "bench.gen_late_p99_us" => late_p99 as f64 / 1e3,
            other => unreachable!("per-layer metric {other} has no source"),
        }
    };
    let metrics: Vec<Metric> = per_layer()
        .iter()
        .map(|m| Metric::single(&m.name, m.unit, value_of(&m.name)))
        .collect();

    // --- verify ----------------------------------------------------------
    let mut failures = Failures::default();
    plain
        .iter()
        .chain(&traced)
        .for_each(|r| failures.add(&r.failures));
    let mut broken = Vec::new();
    let mut require = |holds: bool, what: String| {
        if !holds {
            broken.push(what);
        }
    };
    require(
        ledger.correct,
        "a ledger shape's outputs did not add up".to_string(),
    );
    require(
        spin_ok && park_ok,
        "a ping-pong probe's outputs did not add up".to_string(),
    );
    if let Err(e) = trace_written {
        require(
            false,
            format!("could not write {}: {e}", trace_path.display()),
        );
    }
    for (rung, _) in RUNGS {
        require(
            ledger.op_ns(rung) > 0.0,
            format!("{rung}.op_ns is not positive"),
        );
    }
    if !w.two_threads() {
        // One thread cannot contend, help, exhaust its patience or park.
        for (what, count) in [
            ("cas_failures", counted.cas_failures),
            ("helping_entries", counted.helping_entries),
            ("patience_exhausted", counted.patience_exhausted),
            ("channel_parks", counted.parks),
        ] {
            require(
                count == 0,
                format!("{what} = {count} on a single-thread workload"),
            );
        }
    }
    if w == Workload::Pairs1t {
        // aq + fq, enqueue + dequeue: exactly four ring operations a message.
        require(
            counted.ring_ops == 4 * counted.units,
            format!(
                "ring_ops_per_msg = {} / {}, not 4",
                counted.ring_ops, counted.units
            ),
        );
    }

    let info = vec![
        Metric::single("bench.transit_n", "count", transit_n as f64),
        Metric::single(
            "bench.transit_top_pct",
            "%",
            stats::highest_percentile_with_tail(transit_n, 10).unwrap_or(0.0),
        ),
        Metric::single(
            "bench.ledger_rounds",
            "count",
            ledger.rounds[0].len() as f64,
        ),
        Metric::single("bench.traced_reps", "count", traced.len() as f64),
    ];
    RunResult {
        workload: w,
        correct: failures.total() == 0 && broken.is_empty(),
        attempted: plain.iter().chain(&traced).map(|r| r.attempted).sum(),
        failures,
        broken_invariants: broken,
        metrics,
        info,
    }
}
