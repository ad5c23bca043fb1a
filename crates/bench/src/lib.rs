//! # wcq-bench
//!
//! Figure-reproduction binaries and Criterion benchmarks for the wCQ paper.
//!
//! Every table/figure of the evaluation section has a regenerating target
//! (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! * `fig10_memory` — Figure 10a/10b: memory usage and throughput of the
//!   random-operations memory test.
//! * `fig11_x86` — Figures 11a/11b/11c: empty-dequeue, pairwise and 50/50
//!   throughput with the native-CAS2 wCQ.
//! * `fig12_llsc` — Figures 12a/12b/12c: the same three workloads in the
//!   LL/SC (PowerPC) hardware model; LCRQ is omitted as in the paper.
//! * `ablation_patience` — the §6 claim that the slow path is taken rarely
//!   with MAX_PATIENCE = 16/64, plus a patience/help-delay sweep.
//! * `bench_unbounded` — beyond the paper: wLSCQ (`wcq-unbounded`, both
//!   hardware models) against the unbounded baselines LCRQ and MSQueue,
//!   throughput plus post-run footprint.
//! * `bench_sharded` — beyond the paper: the `ShardedWcq` shard-count sweep
//!   (1/2/4/8 shards) against plain wLSCQ and LCRQ; `--quick` reproduces the CI
//!   smoke / committed-baseline shape.
//! * `bench_channel` — beyond the paper: the typed `Sender`/`Receiver`
//!   channel endpoints (sync and async, all three backends) against raw
//!   facade handles on a producer→consumer pipeline, measuring what the
//!   close/wake layer costs.
//!
//! The binaries accept `--threads`, `--ops`, and `--repeats` overrides so the
//! full paper-scale sweep and a quick smoke run use the same code.  The
//! plain-runner benches in `benches/` mirror the same workloads at reduced
//! sizes so `cargo bench --workspace` regenerates a row of every figure.
//! Each figure binary additionally writes its tables as machine-readable
//! `BENCH_*.json` (`{algorithm → threads → value}`) for cross-PR tracking.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod diff;
pub mod latency;
pub mod sweep;

use wcq_harness::{QueueKind, Workload};

/// Thread counts used for the x86 sweep in the paper (Figure 10/11).
pub const PAPER_X86_THREADS: &[usize] = &[1, 2, 4, 8, 18, 36, 72, 144];

/// Thread counts used for the PowerPC sweep (Figure 12).
pub const PAPER_PPC_THREADS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// Thread counts suitable for a quick run on a small machine; the shape
/// comparison in EXPERIMENTS.md uses these by default.
pub const QUICK_THREADS: &[usize] = &[1, 2, 4, 8];

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Total operations per measurement.
    pub ops: u64,
    /// Repetitions per point.
    pub repeats: u32,
    /// Ring order for bounded queues (paper: 16).
    pub ring_order: u32,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            threads: QUICK_THREADS.to_vec(),
            ops: 200_000,
            repeats: 3,
            ring_order: 14,
        }
    }
}

impl BenchOpts {
    /// Parses `--threads a,b,c`, `--ops N`, `--repeats N`, `--order N`,
    /// `--paper` (full paper-scale sweep) and `--quick` (the CI-smoke /
    /// committed-baseline shape) from an argument iterator.  Presets apply
    /// in argument order, so explicit flags *after* a preset override it.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--threads" => {
                    i += 1;
                    opts.threads = args[i]
                        .split(',')
                        .filter_map(|s| s.trim().parse().ok())
                        .collect();
                }
                "--ops" => {
                    i += 1;
                    opts.ops = args[i].parse().unwrap_or(opts.ops);
                }
                "--repeats" => {
                    i += 1;
                    opts.repeats = args[i].parse().unwrap_or(opts.repeats);
                }
                "--order" => {
                    i += 1;
                    opts.ring_order = args[i].parse().unwrap_or(opts.ring_order);
                }
                "--paper" => {
                    opts.threads = PAPER_X86_THREADS.to_vec();
                    opts.ops = 10_000_000;
                    opts.repeats = 10;
                    opts.ring_order = 16;
                }
                "--quick" => {
                    // Small ops, but an 8-thread row so contention-scaling
                    // claims (the sharded sweep) stay visible.
                    opts.threads = vec![1, 2, 8];
                    opts.ops = 60_000;
                    opts.repeats = 1;
                    opts.ring_order = 8;
                }
                _ => {}
            }
            i += 1;
        }
        if opts.threads.is_empty() {
            opts.threads = QUICK_THREADS.to_vec();
        }
        opts
    }
}

/// Maps a workload-selection argument (`empty`, `pairs`, `mixed`) to the
/// corresponding [`Workload`]s; no argument selects all three.
pub fn select_workloads(arg: Option<&str>) -> Vec<Workload> {
    match arg {
        Some("empty") => vec![Workload::EmptyDequeue],
        Some("pairs") => vec![Workload::Pairs],
        Some("mixed") => vec![Workload::Mixed],
        _ => vec![Workload::EmptyDequeue, Workload::Pairs, Workload::Mixed],
    }
}

/// The queue set for a figure family (`x86` or `ppc`).
pub fn queue_set(ppc: bool) -> Vec<QueueKind> {
    if ppc {
        QueueKind::powerpc_set()
    } else {
        QueueKind::x86_set()
    }
}

/// Filename for a figure's JSON artifact: the canonical `BENCH_<figure>.json`
/// only when the full workload set ran; a workload-filtered run gets
/// `BENCH_<figure>_<workload>.json` instead, so a partial smoke run never
/// overwrites the cross-PR tracking artifact with a subset of its series.
pub fn json_artifact_name(figure: &str, workload_arg: Option<&str>) -> String {
    match workload_arg {
        Some(w @ ("empty" | "pairs" | "mixed")) => format!("BENCH_{figure}_{w}.json"),
        _ => format!("BENCH_{figure}.json"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_overrides() {
        let o = BenchOpts::parse(std::iter::empty());
        assert_eq!(o.threads, QUICK_THREADS);
        let o = BenchOpts::parse(
            [
                "--threads",
                "1,3,5",
                "--ops",
                "1000",
                "--repeats",
                "2",
                "--order",
                "6",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(o.threads, vec![1, 3, 5]);
        assert_eq!(o.ops, 1000);
        assert_eq!(o.repeats, 2);
        assert_eq!(o.ring_order, 6);
    }

    #[test]
    fn paper_flag_selects_paper_scale() {
        let o = BenchOpts::parse(["--paper"].iter().map(|s| s.to_string()));
        assert_eq!(o.threads, PAPER_X86_THREADS);
        assert_eq!(o.ops, 10_000_000);
        assert_eq!(o.repeats, 10);
        assert_eq!(o.ring_order, 16);
    }

    #[test]
    fn quick_flag_selects_the_smoke_shape_and_later_flags_override() {
        let o = BenchOpts::parse(["--quick"].iter().map(|s| s.to_string()));
        assert_eq!(o.threads, vec![1, 2, 8]);
        assert_eq!(o.ops, 60_000);
        assert_eq!(o.repeats, 1);
        assert_eq!(o.ring_order, 8);
        // Presets apply in argument order: an explicit flag after the preset
        // wins, so one knob of the baseline shape can be varied.
        let o = BenchOpts::parse(
            ["--quick", "--threads", "1,2,4,8"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.threads, vec![1, 2, 4, 8]);
        assert_eq!(o.ops, 60_000);
    }

    #[test]
    fn workload_selection() {
        assert_eq!(select_workloads(Some("empty")).len(), 1);
        assert_eq!(select_workloads(Some("pairs")).len(), 1);
        assert_eq!(select_workloads(None).len(), 3);
    }

    #[test]
    fn queue_sets_differ_between_architectures() {
        assert_eq!(queue_set(false).len(), 8);
        assert_eq!(queue_set(true).len(), 7);
    }

    #[test]
    fn json_artifacts_keep_filtered_runs_separate() {
        assert_eq!(json_artifact_name("fig11", None), "BENCH_fig11.json");
        assert_eq!(
            json_artifact_name("fig11", Some("pairs")),
            "BENCH_fig11_pairs.json"
        );
        // An unknown filter argument selects all workloads (lenient parsing),
        // so it maps to the canonical artifact.
        assert_eq!(
            json_artifact_name("fig11", Some("bogus")),
            "BENCH_fig11.json"
        );
    }
}
