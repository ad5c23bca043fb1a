//! # wcq-check
//!
//! Deterministic analysis subsystem for the wCQ reproduction: a cooperative
//! token **scheduler** ([`sched`]) that serializes threads and explores
//! interleavings PCT-style from a `(seed, depth)` pair and preempts the
//! shipped cells of both hardware models at the one `wcq-atomics`
//! checkpoint seam, an **explorer** ([`explore()`]) that runs shrunken
//! stress plans under thousands of schedules against the no-loss/no-dup/FIFO
//! oracle plus invariant probes (threshold bound, close balance,
//! segment residency) — its four sampled targets through one
//! producer/consumer driver, the channel close protocol and the directed
//! hazard-window probe through their own — and a hand-rolled source
//! **lint** ([`lint`]) enforcing
//! `// relaxed:` / `// SAFETY:` justification comments, the hot-path
//! `Mutex` / `static mut` ban and four structural guards (one fast path, one
//! ring constructor, one registry, no per-thread registration state).
//!
//! Everything is deterministic and replayable: a failing schedule prints its
//! `(plan_seed, target, sched_seed, depth)` coordinates, and
//! [`explore::replay`] re-runs exactly that execution as a one-line
//! regression test (see `tests/check_schedules.rs` at the workspace root).
//! A replay is the same schedule in every build profile: no debug-only check
//! reads a cell.
//!
//! No external dependencies; the scheduler reuses the workspace's
//! [`DetRng`](wcq_harness::DetRng) and the oracle reuses
//! [`verify_observations`](wcq_harness::verify_observations).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod explore;
pub mod lint;
pub mod sched;

pub use explore::{explore, replay, run_one, smoke, CheckPlan, ExploreOutcome, Target, Violation};
pub use lint::{lint_source, lint_tree, Finding};
pub use sched::{Schedule, Scheduler};
