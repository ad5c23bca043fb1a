//! # wcq-harness
//!
//! The benchmark harness that regenerates the wCQ paper's evaluation (§6).
//!
//! The paper's methodology, reproduced here:
//!
//! * every queue is driven through the same workloads — an empty-dequeue tight
//!   loop (Figs. 11a/12a), pairwise enqueue–dequeue (Figs. 11b/12b), a 50%/50%
//!   random mix (Figs. 11c/12c) and the memory test with tiny random delays
//!   (Fig. 10);
//! * each configuration is measured `repeats` times over a fixed number of
//!   operations and reported as mean Mops/s with the coefficient of variation;
//! * memory usage is tracked with a counting global allocator plus each
//!   queue's self-reported static footprint (Fig. 10a).
//!
//! The [`queues`] module selects implementations (wCQ in both hardware
//! models, wLSCQ, SCQ, MSQueue, LCRQ, YMC, CCQueue, CRTurn, FAA) behind the
//! *public* [`WaitFreeQueue`]/[`QueueHandle`] facade of `wcq_core::api` —
//! there is no harness-private adapter layer; the workload driver and the
//! integration tests drive exactly the API applications use, and every
//! wCQ-family queue is constructed through `wcq::builder()`.
//!
//! Beyond benchmarking, the harness is also the project's correctness-test
//! subsystem: [`stress`] provides seed-reproducible [`StressPlan`]s with a
//! loss/duplication/per-producer-FIFO oracle shared by every queue kind, and
//! [`rng`] the deterministic PRNG both layers draw from.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod channel_stress;
pub mod exec;
pub mod memtrack;
pub mod queues;
pub mod report;
pub mod rng;
pub mod stats;
pub mod stress;
pub mod workload;

pub use channel_stress::{all_channel_backends, ChannelStressPlan, ChannelStressReport};
pub use exec::{block_on, block_on_instrumented};
pub use queues::{
    make_counting_queue, make_queue, make_queue_configured, QueueHandle, QueueKind, WaitFreeQueue,
};
pub use rng::DetRng;
pub use stress::{all_real_queues, decode, encode, verify_observations, StressPlan, StressReport};
pub use wcq_core::wcq::WcqConfig;
pub use workload::{run_workload, RunResult, Workload, WorkloadConfig};
