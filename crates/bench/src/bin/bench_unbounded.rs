//! Unbounded-queue comparison: wLSCQ (linked wCQ segments, both hardware
//! models) against the dynamically allocating unbounded baselines LCRQ and
//! MSQueue, on the Figure 11 workloads plus a post-run footprint table.
//!
//! wLSCQ is this repo's extension of the paper: §2.3 notes SCQ rings "can be
//! linked into LSCQ to make the queue unbounded"; `wcq-unbounded` does that
//! with the *wait-free* wCQ ring and hazard-pointer segment recycling.  The
//! interesting questions are (a) how close the segmented design stays to the
//! bounded wCQ's throughput and (b) how much smaller its footprint is than
//! LCRQ's close-happy ring turnover.
//!
//! Usage:
//! ```text
//! cargo run --release -p wcq-bench --bin bench_unbounded -- [empty|pairs|mixed] \
//!     [--threads 1,2,4,8] [--ops N] [--repeats N] [--order N]
//! ```

use wcq_bench::sweep::{print_table, throughput_sweep, write_tables_json};
use wcq_bench::{json_artifact_name, select_workloads, BenchOpts};
use wcq_harness::report::FigureTable;
use wcq_harness::{make_queue, run_workload, QueueKind, Workload, WorkloadConfig};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let workload_arg = args.next_if(|a| !a.starts_with("--"));
    let opts = BenchOpts::parse_or_exit(args, "bench_unbounded [empty|pairs|mixed]");
    let kinds = QueueKind::unbounded_set();

    let mut tables = Vec::new();
    for workload in select_workloads(workload_arg.as_deref()) {
        let title = format!("Unbounded comparison: {} throughput", workload.name());
        let table = throughput_sweep(&title, &kinds, workload, &opts);
        print_table(&table);
        tables.push(table);
    }

    // Post-run footprint: how much memory each unbounded design holds after
    // sustaining the 50/50 mixed workload (LCRQ's figure-10a weakness is ring
    // turnover; wLSCQ recycles segments through its cache).
    let mut mem_table = FigureTable::new("Unbounded comparison: post-run footprint", "KiB");
    for &threads in &opts.threads {
        for &kind in &kinds {
            let queue = make_queue(kind, threads + 1, opts.ring_order);
            let cfg = WorkloadConfig {
                threads,
                total_ops: opts.ops,
                repeats: 1,
                seed: 0xF00D_0000 + threads as u64,
            };
            let _ = run_workload(queue.as_ref(), Workload::Mixed, &cfg);
            let kib = queue.memory_footprint() as f64 / 1024.0;
            mem_table.record(kind.name(), threads, kib);
            eprintln!(
                "  [footprint] {:<14} threads={threads:<3} {kib:>10.1} KiB",
                kind.name()
            );
        }
    }
    print_table(&mem_table);
    tables.push(mem_table);

    write_tables_json(
        &json_artifact_name("unbounded", workload_arg.as_deref()),
        &tables,
    );
}
