//! # wcq-scenario — seeded open-loop load generation for the channel layer
//!
//! Every other benchmark in this workspace is closed-loop: N threads spin on
//! the queue as fast as it lets them, and throughput is the score.  A
//! production channel is judged differently — on p99/p999 latency under
//! *open-loop* arrivals it does not control, where a measurement that only
//! starts the clock when the send call runs quietly hides every stall
//! (coordinated omission).  This crate is the load-generation half of that
//! evaluation; `wcq_core::metrics::LatencyHistogram` is the measurement half.
//!
//! Three pieces:
//!
//! * [`ArrivalProcess`] — seeded steady / bursty (on-off) / ramp schedules
//!   of **intended start times** in virtual nanoseconds, drawn from
//!   [`wcq_harness::DetRng`]; same seed, byte-identical schedule.
//! * [`ChurnPlan`] — a seeded endpoint clone/drop storm raced against the
//!   run, leftovers dropping at shutdown to race the close.
//! * [`Scenario`] — the N-frontend / M-worker pipeline that replays both
//!   over real channels (either backend), records intended-start-relative
//!   latencies per stage, and verifies
//!   exactly-once delivery and exact post-close drains as it goes.
//!
//! ## Quickstart
//!
//! ```
//! use wcq_scenario::{ArrivalPattern, Scenario, ScenarioConfig};
//!
//! let report = Scenario::new(ScenarioConfig {
//!     requests: 200,
//!     pattern: ArrivalPattern::Steady { rate_per_sec: 400_000.0 },
//!     churn_events: 16,
//!     ..ScenarioConfig::default()
//! })
//! .run();
//! assert_eq!(report.completed, 200);
//! // Tail latency measured from the *intended* start of each request:
//! let _p99_ns = report.queue_wait.p99();
//! ```
//!
//! ## Reproducibility contract
//!
//! [`Scenario::plan`] is a pure function of the config: the arrival
//! schedule, the hi/lo lane assignment and the churn plan replay byte for
//! byte from the same seed.  The *run* executes that plan on real threads
//! and a real clock, so its latencies vary — but which requests exist, when
//! they were supposed to start, and which churn events race the close do
//! not.  A failing run is rerun with the printed seed and the same plan.

#![warn(missing_docs)]

pub mod arrival;
pub mod churn;
pub mod scenario;

pub use arrival::{ArrivalPattern, ArrivalProcess};
pub use churn::{ChurnEvent, ChurnPlan};
pub use scenario::{Scenario, ScenarioConfig, ScenarioPlan, ScenarioReport};
