//! The single table of what the benchmark reports: every metric's name,
//! unit, direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json`, the compare tool and the self-tests all read this
//! table; `wcq-benchmark --print-benchmark-json` renders it.

use crate::json::Value;
use crate::ledger::RUNGS;
use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric's repetitions become its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statistic {
    /// The middle repetition: every timing.
    Median,
    /// The least any repetition needed: heap bytes.  Interference only ever
    /// adds heap (an extra segment turned over, a backlog while a thread was
    /// preempted), so the floor is what repeats; single-thread repetitions
    /// all read the same.
    Min,
}

impl Statistic {
    /// `"median"` / `"min"`, as `result.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Statistic::Median => "median",
            Statistic::Min => "min",
        }
    }
}

/// A metric a user of the system would see, reported by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the base median the metric may worsen by before a change
    /// counts as a regression.
    pub bound: f64,
    /// How a run's repetitions become the metric's value.
    pub statistic: Statistic,
    /// Whether `--compare` also asks that the repetitions spread no wider
    /// than the bound (`unresolved` otherwise).  Not for `setup_s`: a
    /// repetition's set-up is a few ms of raw wall-clock time, mostly the
    /// warm-up, and scatters with the host's clock; like the acceptance
    /// driver, the compare tool holds it to its bound and not to its spread.
    pub spread_matters: bool,
}

/// Seconds one run measures for (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The end-to-end metrics.  See README.md for each definition.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        statistic: Statistic::Median,
        spread_matters: false,
    },
    EndToEnd {
        name: "cost_ref",
        unit: "ref",
        better: Better::Lower,
        bound: 0.10,
        statistic: Statistic::Median,
        spread_matters: true,
    },
    EndToEnd {
        name: "peak_heap_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
        // A minimum sits on a floor its repetitions scatter above; it
        // repeats or it does not, and the bound alone decides.
        statistic: Statistic::Min,
        spread_matters: false,
    },
    EndToEnd {
        name: "retained_heap_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
        // A minimum sits on a floor its repetitions scatter above; it
        // repeats or it does not, and the bound alone decides.
        statistic: Statistic::Min,
        spread_matters: false,
    },
];

/// A metric of a single layer, from a traced run.  No bound.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The per-layer metrics, in reporting order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit, better| out.push(PerLayer { name, unit, better });
    for (rung, _) in RUNGS {
        add(format!("{rung}.op_ns"), "ns", Lower);
        add(format!("{rung}.self_ns"), "ns", Lower);
    }
    for (name, unit, better) in [
        ("core.wcq_vs_scq", "x", Lower),
        ("core.ring_ops_per_msg", "count", Lower),
        ("core.cas_failures_per_mmsg", "count", Lower),
        ("core.helping_entries_per_mmsg", "count", Lower),
        ("core.slow_path_pct", "%", Lower),
        ("core.patience_raised_per_mmsg", "count", Lower),
        ("core.batch_grant_pct", "%", Higher),
        ("unbounded.segment_allocs_per_mmsg", "count", Lower),
        ("unbounded.segments_retired_per_mmsg", "count", Lower),
        ("unbounded.segment_cache_hit_pct", "%", Higher),
        ("unbounded.turnover_ns_per_segment", "ns", Lower),
        ("unbounded.footprint_bytes", "bytes", Lower),
        ("reclaim.retained_segments", "count", Lower),
        ("shard.steals_per_mmsg", "count", Lower),
        ("alloc.allocs_per_mmsg", "count", Lower),
        ("facade.handle_acquire_ns", "ns", Lower),
        ("channel.send_call_p50_ns", "ns", Lower),
        ("channel.send_call_p99_ns", "ns", Lower),
        ("channel.recv_call_p50_ns", "ns", Lower),
        ("channel.recv_call_p99_ns", "ns", Lower),
        ("channel.queue_wait_p50_us", "us", Lower),
        ("channel.parks_per_kmsg", "count", Lower),
        ("channel.wakes_per_kmsg", "count", Lower),
        ("channel.spin_rtt_ns", "ns", Lower),
        ("channel.park_wake_rtt_us", "us", Lower),
        ("bench.reference_ns", "ns", Lower),
        ("bench.faa_ns", "ns", Lower),
        ("bench.cost_faa", "faa", Lower),
        ("bench.timer_ns", "ns", Lower),
        ("bench.raw_mops", "Mmsg/s", Higher),
        ("bench.trace_overhead_pct", "%", Lower),
        ("bench.transit_p50_us", "us", Lower),
        ("bench.transit_p99_us", "us", Lower),
        ("bench.transit_p999_us", "us", Lower),
        ("bench.over_limit_pct", "%", Lower),
        ("bench.gen_late_p50_us", "us", Lower),
        ("bench.gen_late_p99_us", "us", Lower),
    ] {
        add(name.to_string(), unit, better);
    }
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .filter(|w| w.gated())
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name.clone())),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
