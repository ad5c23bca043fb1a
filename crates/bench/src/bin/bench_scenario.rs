//! Open-loop scenario latency: tail percentiles under seeded steady vs
//! bursty arrivals, across channel backends.
//!
//! Every other binary here drives the queues closed-loop and scores
//! throughput.  This one drives the `wcq-scenario` pipeline — N frontends
//! replaying a seeded open-loop arrival schedule into hi/lo priority lanes,
//! M workers draining both lanes through one parked `recv_any_timeout`
//! wait — and reports **latency measured from each request's intended start
//! time**, so queueing delay under overload is inside every percentile
//! (no coordinated omission).
//!
//! Rows (series) per `(pattern, backend, stage)`:
//!
//! * pattern — `steady/` (fixed-rate Poisson) vs `bursty/` (on-off bursts);
//!   bursts are the tail stressor: each one front-loads a backlog.
//! * backend — the unbounded wLSCQ and the 4-shard sharded wLSCQ.
//! * stage — `queue-wait` (intended start → worker dequeue) and `e2e`
//!   (intended start → completion collected), as `p50`/`p90`/`p99`/`p999`
//!   percentile rows in ns.
//!
//! The table column is the worker count (the sweep axis); frontends match
//! the worker count.  Every run verifies exactly-once delivery and an exact
//! post-close drain as it goes — a completed run *is* the oracle passing —
//! and races the seeded churn plan (endpoint clone/drop storms) against the
//! close.
//!
//! Usage:
//! ```text
//! cargo run --release -p wcq-bench --bin bench_scenario -- \
//!     [--threads 1,2,4] [--ops N] [--quick]
//! ```
//!
//! `--ops` is the total request count per run; `--quick` is the CI-smoke /
//! committed-baseline shape.  Emits `BENCH_scenario_latency.json` (unit
//! "ns": `bench_diff` flags percentile *growth* as a regression).

use std::time::Duration;

use wcq::ChannelBackend;
use wcq_bench::latency::record_percentiles;
use wcq_bench::sweep::{print_table, write_tables_json};
use wcq_bench::BenchOpts;
use wcq_harness::report::FigureTable;
use wcq_scenario::{ArrivalPattern, Scenario, ScenarioConfig};

/// Shard count for the sharded-backend rows (the workspace's usual x4).
const SCENARIO_SHARDS: usize = 4;

/// Offered load of the steady schedule (requests/s across all frontends).
const STEADY_RATE: f64 = 2_000_000.0;

/// The bursty schedule: 4M/s bursts for 250µs, then 750µs of silence —
/// the same 1M/s average as a steady schedule at a quarter the peak.
const BURST_RATE: f64 = 4_000_000.0;
const BURST_ON_NS: u64 = 250_000;
const BURST_OFF_NS: u64 = 750_000;

fn patterns() -> [(&'static str, ArrivalPattern); 2] {
    [
        (
            "steady",
            ArrivalPattern::Steady {
                rate_per_sec: STEADY_RATE,
            },
        ),
        (
            "bursty",
            ArrivalPattern::Bursty {
                burst_per_sec: BURST_RATE,
                on_ns: BURST_ON_NS,
                off_ns: BURST_OFF_NS,
            },
        ),
    ]
}

fn backends() -> [(&'static str, ChannelBackend); 2] {
    [
        ("wLSCQ", ChannelBackend::Unbounded),
        ("Sharded wLSCQ x4", ChannelBackend::Sharded),
    ]
}

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    // One request is several queue ops (send, two-lane recv, completion);
    // `--ops` maps to requests directly so `--quick` stays a sub-second run.
    let requests = opts.ops.min(1_000_000) as usize;
    let mut table = FigureTable::new(
        "Open-loop scenario latency from intended start: steady vs bursty arrivals",
        "ns",
    );

    for &workers in &opts.threads {
        let workers = workers.max(1);
        for (pattern_name, pattern) in patterns() {
            for (backend_name, backend) in backends() {
                let scenario = Scenario::new(ScenarioConfig {
                    seed: 0xBEEF + workers as u64,
                    frontends: workers,
                    workers,
                    requests,
                    pattern,
                    backend,
                    shards: SCENARIO_SHARDS,
                    work_ns: 200,
                    churn_events: 64,
                    worker_timeout: Duration::from_micros(500),
                    worker_stall: Duration::ZERO,
                });
                let report = scenario.run();
                assert_eq!(report.completed, requests as u64, "scenario lost requests");
                record_percentiles(
                    &mut table,
                    &format!("{pattern_name}/{backend_name} queue-wait"),
                    workers,
                    &report.queue_wait,
                );
                record_percentiles(
                    &mut table,
                    &format!("{pattern_name}/{backend_name} e2e"),
                    workers,
                    &report.end_to_end,
                );
            }
        }
    }

    print_table(&table);
    write_tables_json("BENCH_scenario_latency.json", &[table]);
}
