//! # wcq-benchmark
//!
//! The one benchmark every performance or simplicity claim about the wCQ
//! stack is judged by.  See `README.md` next to this crate for the
//! workloads, the metric definitions and how to read the output.
//!
//! Everything is measured from outside the program under test: by timing
//! calls into each layer's public functions and by reading the public
//! `CountingInstrument` snapshot.

#![warn(missing_docs)]

pub mod calib;
pub mod compare;
pub mod json;
pub mod ledger;
pub mod names;
pub mod oracle;
pub mod report;
pub mod run;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod workloads;
