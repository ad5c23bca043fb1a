//! The scenario driver: an N-frontend / M-worker request pipeline under
//! open-loop load, seeded connection churn, and per-stage latency capture.
//!
//! One [`Scenario::run`] models the fan-in/fan-out server shape the ROADMAP
//! north-star describes:
//!
//! * **Frontends** replay a pre-drawn [`ArrivalProcess`] schedule: each
//!   request is released at its *intended* start time whether or not the
//!   pipeline is keeping up (open loop), stamped with that intended time,
//!   and sent on one of two priority lanes (hi/lo channels over the
//!   configured backend).
//! * **Workers** drain both lanes through one parked wait —
//!   [`wcq::recv_any_timeout`] — preferring the hi lane, simulate
//!   `work_ns` of service time, and forward completions.
//! * A **collector** drains completions via [`Receiver::recv_timeout`] and
//!   verifies exactly-once delivery: every request id exactly once, the
//!   drain exact through close.
//! * A **churn** thread replays the seeded [`ChurnPlan`]: sender/receiver
//!   clones appear and disappear mid-run, and the leftovers drop at
//!   shutdown, racing the frontends' own close — the window where wakes are
//!   easiest to lose.
//!
//! Latencies are recorded from the **intended** start (schedule offset), not
//! from the moment the send call happened to run, so queueing delay — the
//! part coordinated omission hides — is inside every histogram:
//!
//! * `queue_wait`: intended start → worker dequeue,
//! * `end_to_end`: intended start → completion collected,
//! * `send_op`: duration of the send call itself (frontend-side pushback).
//!
//! The schedule and churn plan are pure functions of the config
//! ([`Scenario::plan`]); the run itself is real concurrency on real time.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wcq::{
    ChannelBackend, HistogramSnapshot, LatencyHistogram, Receiver, RecvTimeoutError, Sender,
};
use wcq_harness::DetRng;

use crate::arrival::{ArrivalPattern, ArrivalProcess};
use crate::churn::{ChurnEvent, ChurnPlan};

/// Fraction (1/n) of requests routed to the hi-priority lane.
const HI_LANE_ONE_IN: u64 = 8;

/// One request travelling the pipeline.
#[derive(Debug, Clone, Copy)]
struct Request {
    id: u64,
    intended_ns: u64,
}

/// Everything a scenario run is parameterized by.  The `(seed, requests,
/// frontends, pattern, churn_events)` subset fully determines the schedule
/// and churn plan (see [`Scenario::plan`]); the rest shapes the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Master seed: arrivals, lane priorities and churn all derive from it.
    pub seed: u64,
    /// Number of frontend (load-generating) threads.
    pub frontends: usize,
    /// Number of worker (service) threads.
    pub workers: usize,
    /// Total requests across all frontends.
    pub requests: usize,
    /// The open-loop arrival shape.
    pub pattern: ArrivalPattern,
    /// Which queue shape backs the request lanes and the completion channel.
    pub backend: ChannelBackend,
    /// Simulated service time per request, in nanoseconds of spinning.
    pub work_ns: u64,
    /// Number of churn events raced against the run (0 disables churn).
    pub churn_events: usize,
    /// Parked-wait bound for the workers' multi-lane receive and the
    /// collector's `recv_timeout`.
    pub worker_timeout: Duration,
    /// Injected stall before each worker starts draining — the
    /// coordinated-omission probe: with latencies measured from intended
    /// start, a stalled consumer *must* inflate the recorded tail.
    pub worker_stall: Duration,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            frontends: 2,
            workers: 2,
            requests: 2_000,
            pattern: ArrivalPattern::Steady {
                rate_per_sec: 200_000.0,
            },
            backend: ChannelBackend::Unbounded,
            work_ns: 500,
            churn_events: 64,
            worker_timeout: Duration::from_millis(1),
            worker_stall: Duration::ZERO,
        }
    }
}

/// The deterministic half of a scenario: per-frontend intended-start
/// schedules, per-request lane priorities, and the churn plan.  Two calls to
/// [`Scenario::plan`] with the same config return equal plans — this is the
/// replayability contract the determinism test pins down.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPlan {
    /// `lanes[f][j]` = intended start (ns from epoch) of frontend `f`'s
    /// `j`-th request.
    pub lanes: Vec<Vec<u64>>,
    /// `hi[f][j]` = whether that request rides the hi-priority lane.
    pub hi: Vec<Vec<bool>>,
    /// The churn storm raced against the run.
    pub churn: ChurnPlan,
}

impl ScenarioPlan {
    /// The virtual-time span of the whole schedule (ns from epoch to the
    /// last intended start).
    pub fn span_ns(&self) -> u64 {
        self.lanes
            .iter()
            .filter_map(|l| l.last().copied())
            .max()
            .unwrap_or(0)
    }
}

/// What one scenario run measured.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Intended start → worker dequeue, per request (ns).
    pub queue_wait: HistogramSnapshot,
    /// Intended start → completion collected, per request (ns).
    pub end_to_end: HistogramSnapshot,
    /// Duration of each frontend send call (ns).
    pub send_op: HistogramSnapshot,
    /// Requests verified delivered exactly once (equals the config's
    /// `requests` on success; [`Scenario::run`] panics otherwise).
    pub completed: u64,
    /// Parked waits that expired empty across workers + collector.
    pub timeouts: u64,
    /// Requests that travelled the hi-priority lane.
    pub hi_lane: u64,
    /// Churn events actually executed.
    pub churn_executed: u64,
}

/// A configured scenario, ready to plan or run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scenario {
    /// The run's parameters.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// Wraps a config.
    pub fn new(config: ScenarioConfig) -> Self {
        Self { config }
    }

    /// Materializes the deterministic half of the run.  Pure function of the
    /// config: same seed → byte-identical plan.
    pub fn plan(&self) -> ScenarioPlan {
        let cfg = &self.config;
        let root = DetRng::new(cfg.seed);
        let mut arrivals = ArrivalProcess::new(cfg.pattern, root.stream(1).next_u64());
        let lanes = arrivals.schedule_per_lane(cfg.requests, cfg.frontends.max(1));
        let mut prio = root.stream(2);
        let hi = lanes
            .iter()
            .map(|lane| {
                lane.iter()
                    .map(|_| prio.next_below(HI_LANE_ONE_IN) == 0)
                    .collect()
            })
            .collect();
        let span = lanes
            .iter()
            .filter_map(|l| l.last().copied())
            .max()
            .unwrap_or(0);
        let churn = ChurnPlan::from_seed(root.stream(3).next_u64(), span.max(1), cfg.churn_events);
        ScenarioPlan { lanes, hi, churn }
    }

    /// Runs the pipeline to completion and returns the measured report.
    ///
    /// Panics on any correctness violation: a lost request, a duplicated
    /// completion, or a drain that ends before every accepted request came
    /// out — so a green run *is* the oracle passing.
    pub fn run(&self) -> ScenarioReport {
        let cfg = self.config;
        let plan = self.plan();
        let frontends = cfg.frontends.max(1);
        let workers = cfg.workers.max(1);

        // Every thread that binds an endpoint of a queue holds one
        // registration slot on it while bound: frontends and workers on the
        // request lanes, workers and the collector on the completion
        // channel.  +2 covers the main thread and a churn-thread bind.
        let request_slots = frontends + workers + 2;
        let lane_builder = || {
            wcq::builder()
                .capacity_order(10)
                .threads(request_slots)
                .backend(cfg.backend)
        };
        let (hi_tx, hi_rx) = lane_builder().build_channel::<Request>();
        let (lo_tx, lo_rx) = lane_builder().build_channel::<Request>();
        let (done_tx, mut done_rx) = wcq::builder()
            .capacity_order(10)
            .threads(workers + 2)
            .backend(cfg.backend)
            .build_channel::<Request>();

        let queue_wait = LatencyHistogram::new();
        let end_to_end = LatencyHistogram::new();
        let send_op = LatencyHistogram::new();
        let timeouts = AtomicU64::new(0);
        let hi_lane = AtomicU64::new(0);
        let churn_executed = AtomicU64::new(0);

        let epoch = Instant::now();
        let completed = std::thread::scope(|s| {
            // Frontends: replay the schedule open-loop.
            for (f, (lane, hi_flags)) in plan.lanes.iter().zip(&plan.hi).enumerate() {
                let mut hi_tx = hi_tx.clone();
                let mut lo_tx = lo_tx.clone();
                let send_op = &send_op;
                let hi_lane = &hi_lane;
                s.spawn(move || {
                    for (j, (&intended_ns, &is_hi)) in lane.iter().zip(hi_flags).enumerate() {
                        wait_until(epoch, intended_ns);
                        let req = Request {
                            // Round-robin split: lane f position j was
                            // global arrival j*frontends + f.
                            id: (j * frontends + f) as u64,
                            intended_ns,
                        };
                        let t0 = Instant::now();
                        let sent = if is_hi {
                            hi_lane.fetch_add(1, Relaxed);
                            hi_tx.send(req)
                        } else {
                            lo_tx.send(req)
                        };
                        sent.expect("request lanes outlive the frontends");
                        send_op.record(t0.elapsed().as_nanos() as u64);
                    }
                    // Drop both senders here: the frontend disconnecting is
                    // part of the close race the churn plan stresses.
                });
            }

            // Churn: clone/drop storms against both lanes, racing close.
            if !plan.churn.events.is_empty() {
                let churn = &plan.churn;
                let hi_template = hi_tx.clone();
                let lo_template = lo_tx.clone();
                let hi_rx_template = hi_rx.clone();
                let lo_rx_template = lo_rx.clone();
                let churn_executed = &churn_executed;
                s.spawn(move || {
                    let mut tx_pool: Vec<Sender<Request>> = Vec::new();
                    let mut rx_pool: Vec<Receiver<Request>> = Vec::new();
                    for (i, event) in churn.events.iter().enumerate() {
                        wait_until(epoch, event.at_ns());
                        match event {
                            ChurnEvent::CloneSender { .. } => tx_pool.push(if i % 2 == 0 {
                                lo_template.clone()
                            } else {
                                hi_template.clone()
                            }),
                            ChurnEvent::DropSender { .. } => drop(tx_pool.pop()),
                            ChurnEvent::CloneReceiver { .. } => rx_pool.push(if i % 2 == 0 {
                                hi_rx_template.clone()
                            } else {
                                lo_rx_template.clone()
                            }),
                            ChurnEvent::DropReceiver { .. } => drop(rx_pool.pop()),
                        }
                        churn_executed.fetch_add(1, Relaxed);
                    }
                    // The leftover pool (and the templates) drop here — the
                    // last of them racing the frontends' own disconnects for
                    // who actually closes the lanes.
                });
            }

            // Workers: one parked wait across both lanes, hi preferred.
            for _ in 0..workers {
                let mut hi_rx = hi_rx.clone();
                let mut lo_rx = lo_rx.clone();
                let mut done_tx = done_tx.clone();
                let queue_wait = &queue_wait;
                let timeouts = &timeouts;
                s.spawn(move || {
                    if !cfg.worker_stall.is_zero() {
                        std::thread::sleep(cfg.worker_stall);
                    }
                    loop {
                        let mut lanes = [&mut hi_rx, &mut lo_rx];
                        match wcq::recv_any_timeout(&mut lanes, cfg.worker_timeout) {
                            Ok((_, req)) => {
                                let now_ns = epoch.elapsed().as_nanos() as u64;
                                queue_wait.record(now_ns.saturating_sub(req.intended_ns));
                                busy_work(cfg.work_ns);
                                done_tx.send(req).expect("collector outlives the workers");
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                timeouts.fetch_add(1, Relaxed);
                            }
                            // Closed only once *both* lanes are closed and
                            // fully drained — nothing left to serve.
                            Err(RecvTimeoutError::Closed) => break,
                        }
                    }
                    // Worker disconnects from the completion channel; the
                    // last one out closes it.
                });
            }
            // The scope keeps the original request-lane endpoints alive until
            // every thread above has cloned what it needs; release them now
            // so the channel can actually close when the clones go.
            drop(hi_tx);
            drop(lo_tx);
            drop(hi_rx);
            drop(lo_rx);
            drop(done_tx);

            // Collector (this thread): drain completions through
            // `recv_timeout` until the exact-drain close, verifying
            // exactly-once delivery.
            let seen = Mutex::new(vec![false; cfg.requests]);
            let mut got = 0u64;
            loop {
                match done_rx.recv_timeout(cfg.worker_timeout) {
                    Ok(req) => {
                        let now_ns = epoch.elapsed().as_nanos() as u64;
                        end_to_end.record(now_ns.saturating_sub(req.intended_ns));
                        let mut seen = seen.lock().unwrap();
                        assert!(
                            !std::mem::replace(&mut seen[req.id as usize], true),
                            "request {} completed twice",
                            req.id
                        );
                        got += 1;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        timeouts.fetch_add(1, Relaxed);
                    }
                    Err(RecvTimeoutError::Closed) => break,
                }
            }
            assert_eq!(
                got, cfg.requests as u64,
                "the post-close drain must deliver every accepted request"
            );
            got
        });

        ScenarioReport {
            queue_wait: queue_wait.snapshot(),
            end_to_end: end_to_end.snapshot(),
            send_op: send_op.snapshot(),
            completed,
            timeouts: timeouts.into_inner(),
            hi_lane: hi_lane.into_inner(),
            churn_executed: churn_executed.into_inner(),
        }
    }
}

/// Sleeps coarsely, then spins, until `epoch + offset_ns`.  The spin tail
/// keeps release jitter well under the latency buckets the histograms can
/// resolve; the sleep head keeps idle schedules from burning a core.
fn wait_until(epoch: Instant, offset_ns: u64) {
    let target = Duration::from_nanos(offset_ns);
    loop {
        let elapsed = epoch.elapsed();
        if elapsed >= target {
            return;
        }
        let remaining = target - elapsed;
        if remaining > Duration::from_millis(2) {
            std::thread::sleep(remaining - Duration::from_millis(1));
        } else if remaining > Duration::from_micros(50) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Burns roughly `ns` nanoseconds of CPU — the simulated service time.
fn busy_work(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ScenarioConfig {
        ScenarioConfig {
            requests: 400,
            pattern: ArrivalPattern::Steady {
                rate_per_sec: 400_000.0,
            },
            work_ns: 0,
            churn_events: 32,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn plan_is_deterministic_byte_for_byte() {
        let scenario = Scenario::new(quick_config());
        let a = scenario.plan();
        let b = scenario.plan();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // A different seed moves every deterministic component.
        let other = Scenario::new(ScenarioConfig {
            seed: quick_config().seed + 1,
            ..quick_config()
        })
        .plan();
        assert_ne!(a.lanes, other.lanes);
        assert_ne!(a.churn, other.churn);
    }

    #[test]
    fn plan_covers_every_request_exactly_once() {
        let cfg = quick_config();
        let plan = Scenario::new(cfg).plan();
        assert_eq!(plan.lanes.len(), cfg.frontends);
        let total: usize = plan.lanes.iter().map(Vec::len).sum();
        assert_eq!(total, cfg.requests);
        // Ids reconstructed the way the frontends stamp them cover 0..n.
        let mut seen = vec![false; cfg.requests];
        for (f, lane) in plan.lanes.iter().enumerate() {
            for j in 0..lane.len() {
                let id = j * cfg.frontends + f;
                assert!(!std::mem::replace(&mut seen[id], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn run_delivers_exactly_once_across_backends() {
        // The default unbounded backend; the bounded one has its own test.
        let report = Scenario::new(quick_config()).run();
        assert_eq!(report.completed, 400);
        assert_eq!(report.queue_wait.count(), 400);
        assert_eq!(report.end_to_end.count(), 400);
        assert_eq!(report.send_op.count(), 400);
        assert_eq!(report.churn_executed, 32);
        assert!(report.hi_lane > 0, "hi lane never exercised");
    }

    #[test]
    fn bounded_backend_round_trips_too() {
        let report = Scenario::new(ScenarioConfig {
            backend: ChannelBackend::Bounded,
            churn_events: 16,
            ..quick_config()
        })
        .run();
        assert_eq!(report.completed, 400);
    }

    #[test]
    fn stalled_consumer_inflates_p99_from_intended_start() {
        // The coordinated-omission probe: the workers sleep 200ms before
        // draining, while the open-loop schedule keeps arriving in the first
        // ~1ms.  Measured from *intended* start, the backlog's wait is the
        // stall itself, so p99 (indeed p50) must show it.  A measurement
        // taken from dequeue time — the closed-loop mistake — would show
        // sub-millisecond waits and fail this test.
        let report = Scenario::new(ScenarioConfig {
            worker_stall: Duration::from_millis(200),
            churn_events: 0,
            ..quick_config()
        })
        .run();
        let p99_ms = report.queue_wait.p99() / 1_000_000;
        assert!(
            p99_ms >= 50,
            "stalled consumer must inflate queue-wait p99: got {p99_ms}ms"
        );
        assert!(
            report.end_to_end.p99() >= report.queue_wait.p50(),
            "end-to-end includes the queue wait"
        );
    }

    #[test]
    fn worker_timeouts_fire_while_stalled_but_drop_nothing() {
        // A schedule with one long silent gap: the workers' parked waits
        // time out (retryable) without ever dropping an accepted element.
        let report = Scenario::new(ScenarioConfig {
            pattern: ArrivalPattern::Bursty {
                burst_per_sec: 400_000.0,
                // ~40 arrivals per 0.1ms burst: 200 requests span several
                // 20ms silent gaps, each expiring many 1ms parked waits.
                on_ns: 100_000,
                off_ns: 20_000_000,
            },
            worker_timeout: Duration::from_millis(1),
            requests: 200,
            churn_events: 0,
            ..quick_config()
        })
        .run();
        assert_eq!(report.completed, 200);
        assert!(
            report.timeouts > 0,
            "the off-phases must expire some parked waits"
        );
    }
}
