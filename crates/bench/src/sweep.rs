//! Shared sweep driver used by the figure-reproduction binaries.

use wcq_harness::report::FigureTable;
use wcq_harness::{make_queue, run_workload, QueueKind, Workload, WorkloadConfig};

use crate::BenchOpts;

/// Runs `workload` for every queue kind over the thread sweep and returns the
/// filled throughput table (Mops/s).
pub fn throughput_sweep(
    title: &str,
    kinds: &[QueueKind],
    workload: Workload,
    opts: &BenchOpts,
) -> FigureTable {
    let mut table = FigureTable::new(title, "Mops/s");
    for &threads in &opts.threads {
        for &kind in kinds {
            let queue = make_queue(kind, threads + 1, opts.ring_order);
            let cfg = WorkloadConfig {
                threads,
                total_ops: opts.ops,
                repeats: opts.repeats,
                seed: 0x5EED_0000 + threads as u64,
            };
            let res = run_workload(queue.as_ref(), workload, &cfg);
            table.record(kind.name(), threads, res.mops.mean);
            eprintln!(
                "  [{title}] {:<12} threads={threads:<3} {:>10.3} Mops/s (cv {:.4})",
                kind.name(),
                res.mops.mean,
                res.mops.cv
            );
        }
    }
    table
}

/// Prints a table in both human-readable and CSV form.
pub fn print_table(table: &FigureTable) {
    println!("{}", table.render());
    println!("--- CSV ---");
    println!("{}", table.render_csv());
}

/// Writes several figure tables to `path` as one JSON array (the
/// figure's `BENCH_*.json` artifact).  IO errors are logged, not
/// fatal, so the binaries still print their tables on read-only filesystems.
pub fn write_tables_json(path: &str, tables: &[FigureTable]) {
    let parts: Vec<String> = tables
        .iter()
        .map(|t| t.render_json().trim_end().to_string())
        .collect();
    let body = format!("[\n{}\n]\n", parts.join(",\n"));
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("  [json] wrote {path}"),
        Err(e) => eprintln!("  [json] could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_a_cell_per_queue_and_thread_count() {
        let opts = BenchOpts {
            threads: vec![1, 2],
            ops: 4_000,
            repeats: 1,
            ring_order: 8,
        };
        let kinds = [QueueKind::Wcq, QueueKind::Scq];
        let table = throughput_sweep("smoke", &kinds, Workload::Pairs, &opts);
        for &t in &[1usize, 2] {
            for k in &kinds {
                assert!(table.get(k.name(), t).unwrap() > 0.0);
            }
        }
    }
}
