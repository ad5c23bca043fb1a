//! # wcq-bench
//!
//! Figure-reproduction binaries for the wCQ paper's evaluation (§6).  They
//! reproduce the *shape* of each figure on whatever machine runs them and sit
//! outside every gate: a number this repo argues from is a `benchmark/` row
//! compared by `benchmark/run.sh --compare` (DESIGN.md, "One measurement
//! system").
//!
//! * `fig10_memory` — Figure 10a/10b: memory usage and throughput of the
//!   random-operations memory test.
//! * `fig11_x86` — Figures 11a/11b/11c: empty-dequeue, pairwise and 50/50
//!   throughput with the native-CAS2 wCQ.
//! * `fig12_llsc` — Figures 12a/12b/12c: the same three workloads in the
//!   LL/SC (PowerPC) hardware model; LCRQ is omitted as in the paper.
//! * `bench_unbounded` — beyond the paper: wLSCQ (`wcq-unbounded`, both
//!   hardware models) against the unbounded baselines LCRQ and MSQueue,
//!   throughput plus post-run footprint — the one place wLSCQ meets the §6
//!   baselines, which `benchmark/` excludes by design.
//! * `benches/figures.rs` — one reduced-size row of every figure plus the
//!   `MAX_PATIENCE` ablation (throughput and slow-path fraction), so
//!   `cargo bench --workspace` proves each still runs.
//!
//! The binaries share `--threads`, `--ops`, `--repeats`, `--order` and
//! `--paper`, so the paper-scale sweep and a smoke run are the same code, and
//! each writes its tables as `BENCH_*.json` (`{algorithm → threads → value}`).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod sweep;

use wcq_harness::{QueueKind, Workload};

/// Thread counts used for the x86 sweep in the paper (Figure 10/11).
pub const PAPER_X86_THREADS: &[usize] = &[1, 2, 4, 8, 18, 36, 72, 144];

/// Thread counts used for the PowerPC sweep (Figure 12).
pub const PAPER_PPC_THREADS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// Thread counts suitable for a quick run on a small machine: the default
/// sweep.
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
    /// Parses `--threads a,b,c`, `--ops N`, `--repeats N`, `--order N` and
    /// `--paper` (full paper-scale sweep; explicit flags after it override
    /// it).  Anything else — an unknown argument, a flag without its value, a
    /// value that is not a number, a thread count of zero — is an error
    /// naming the flag, never a silently different sweep.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self::default();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--threads" => {
                    opts.threads = value()?
                        .split(',')
                        .map(|s| match s.trim().parse() {
                            Ok(n) if n >= 1 => Ok(n),
                            _ => Err(format!("--threads: `{s}` is not a thread count >= 1")),
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--ops" => opts.ops = number(&flag, &value()?)?,
                "--repeats" => opts.repeats = number(&flag, &value()?)?,
                "--order" => opts.ring_order = number(&flag, &value()?)?,
                "--paper" => {
                    opts.threads = PAPER_X86_THREADS.to_vec();
                    opts.ops = 10_000_000;
                    opts.repeats = 10;
                    opts.ring_order = 16;
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(opts)
    }

    /// [`parse`](Self::parse) for a binary's `main`: on error, prints it and
    /// the usage line (`command` is the binary's name and positional
    /// arguments) to stderr and exits with status 2, before anything is
    /// measured or written.
    pub fn parse_or_exit(args: impl Iterator<Item = String>, command: &str) -> Self {
        Self::parse(args).unwrap_or_else(|e| {
            eprintln!(
                "error: {e}\nusage: {command} \
                 [--threads 1,2,4,8] [--ops N] [--repeats N] [--order N] [--paper]"
            );
            std::process::exit(2)
        })
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a number"))
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
/// overwrites the full figure's artifact with a subset of its series.
pub fn json_artifact_name(figure: &str, workload_arg: Option<&str>) -> String {
    match workload_arg {
        Some(w @ ("empty" | "pairs" | "mixed")) => format!("BENCH_{figure}_{w}.json"),
        _ => format!("BENCH_{figure}.json"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchOpts, String> {
        BenchOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_defaults_and_overrides() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.threads, QUICK_THREADS);
        let o = parse(&[
            "--threads",
            "1,3,5",
            "--ops",
            "1000",
            "--repeats",
            "2",
            "--order",
            "6",
        ])
        .unwrap();
        assert_eq!(o.threads, vec![1, 3, 5]);
        assert_eq!(o.ops, 1000);
        assert_eq!(o.repeats, 2);
        assert_eq!(o.ring_order, 6);
        // Every malformed line is an error that names the offending flag —
        // none panics, none falls back to the default sweep.
        for (args, names) in [
            (&["--threads", "1,2", "--ops"][..], "--ops"),
            (&["--threads"][..], "--threads"),
            (&["--threads", "0"][..], "--threads"),
            (&["--threads", "1,,2"][..], "--threads"),
            (&["--threads", "abc"][..], "--threads"),
            (&["--ops", "abc"][..], "--ops"),
            (&["--repeats", "-1"][..], "--repeats"),
            (&["--order", "1e3"][..], "--order"),
            (&["--bogus"][..], "--bogus"),
            (&["--ops", "10", "stray"][..], "stray"),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(
                err.contains(names),
                "{args:?}: `{err}` does not name {names}"
            );
        }
    }

    #[test]
    fn paper_flag_selects_paper_scale() {
        let o = parse(&["--paper"]).unwrap();
        assert_eq!(o.threads, PAPER_X86_THREADS);
        assert_eq!(o.ops, 10_000_000);
        assert_eq!(o.repeats, 10);
        assert_eq!(o.ring_order, 16);
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
