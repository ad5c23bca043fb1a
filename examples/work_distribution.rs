//! Work distribution under open-loop load: the scenario driver on a task
//! pool of unbounded channels.
//!
//! The paper's introduction motivates fast wait-free queues with "user-space
//! message passing and scheduling".  Earlier revisions of this example
//! hand-rolled that pipeline (producers, stealing workers, a collector,
//! ad-hoc idle-spin shutdown); all of that machinery now lives in the
//! `wcq-scenario` driver, which adds what the hand-rolled loop could not
//! measure honestly:
//!
//! * **open-loop arrivals** — requests are released on a seeded schedule
//!   whether or not the pool keeps up, so overload shows up as queueing
//!   delay instead of silently slowing the producers (no coordinated
//!   omission: latency is measured from each request's *intended* start);
//! * **connection churn** — a seeded endpoint clone/drop storm races the
//!   close, exercising the exact-drain shutdown instead of an idle-spin
//!   heuristic;
//! * **a built-in oracle** — the run panics unless every request completes
//!   exactly once through the close.
//!
//! The same workload is run twice — steady arrivals, then the same average
//! rate delivered in bursts — to show what burstiness alone does to the
//! tail percentiles of the pool.
//!
//! Run with:
//! ```text
//! cargo run --release --example work_distribution
//! ```

use std::time::Duration;

use wcq::ChannelBackend;
use wcq_scenario::{ArrivalPattern, Scenario, ScenarioConfig, ScenarioReport};

const FRONTENDS: usize = 2;
const WORKERS: usize = 3;
const REQUESTS: usize = 40_000;

/// Average offered load for both runs (requests per second) — chosen under
/// the pool's drain capacity so the *steady* run keeps up and the bursty
/// run's tail comes from its bursts, not from plain overload.
const AVG_RATE: f64 = 200_000.0;

fn run(label: &str, pattern: ArrivalPattern) -> ScenarioReport {
    let report = Scenario::new(ScenarioConfig {
        seed: 0x5EED_D157,
        frontends: FRONTENDS,
        workers: WORKERS,
        requests: REQUESTS,
        pattern,
        // The task pool: every frontend sends into one unbounded wLSCQ
        // channel per priority lane, and every worker receives from both.
        backend: ChannelBackend::Unbounded,
        // Simulated service time per request (the old trial-factoring).
        work_ns: 400,
        churn_events: 128,
        worker_timeout: Duration::from_millis(1),
        worker_stall: Duration::ZERO,
    })
    .run();

    // `run` returning at all means the oracle passed: every request was
    // delivered exactly once and the post-close drain was exact.
    assert_eq!(report.completed, REQUESTS as u64);
    println!("{label}:");
    println!(
        "  completed {} requests ({} via the hi-priority lane), {} churn events raced the run",
        report.completed, report.hi_lane, report.churn_executed
    );
    println!(
        "  queue wait (intended start -> worker dequeue): p50 {:>7} ns  p99 {:>9} ns  p999 {:>9} ns",
        report.queue_wait.p50(),
        report.queue_wait.p99(),
        report.queue_wait.p999()
    );
    println!(
        "  end to end (intended start -> collected):      p50 {:>7} ns  p99 {:>9} ns  p999 {:>9} ns",
        report.end_to_end.p50(),
        report.end_to_end.p99(),
        report.end_to_end.p999()
    );
    println!(
        "  send-call time p99: {} ns, expired parked waits: {}",
        report.send_op.p99(),
        report.timeouts
    );
    report
}

fn main() {
    let steady = run(
        "steady arrivals",
        ArrivalPattern::Steady {
            rate_per_sec: AVG_RATE,
        },
    );

    // Same average rate, delivered as 4x bursts with matching silences.
    let bursty = run(
        "bursty arrivals (same average rate)",
        ArrivalPattern::Bursty {
            burst_per_sec: 4.0 * AVG_RATE,
            on_ns: 250_000,
            off_ns: 750_000,
        },
    );

    println!(
        "burstiness alone moved queue-wait p99 from {} ns to {} ns",
        steady.queue_wait.p99(),
        bursty.queue_wait.p99()
    );
}
