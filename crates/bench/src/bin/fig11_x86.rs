//! Reproduces Figures 11a/11b/11c (x86, native CAS2): empty-dequeue,
//! pairwise enqueue-dequeue, and 50%/50% random workloads for every queue.
//!
//! Usage:
//! ```text
//! cargo run --release -p wcq-bench --bin fig11_x86 -- [empty|pairs|mixed] \
//!     [--threads 1,2,4,8] [--ops N] [--repeats N] [--order N] [--paper]
//! ```

use wcq_bench::sweep::{print_table, throughput_sweep, write_tables_json};
use wcq_bench::{json_artifact_name, queue_set, select_workloads, BenchOpts};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let workload_arg = args.next_if(|a| !a.starts_with("--"));
    let opts = BenchOpts::parse_or_exit(args, "fig11_x86 [empty|pairs|mixed]");
    let kinds = queue_set(false);
    let mut tables = Vec::new();
    for workload in select_workloads(workload_arg.as_deref()) {
        let figure = match workload {
            wcq_harness::Workload::EmptyDequeue => "Figure 11a: empty-dequeue throughput (x86)",
            wcq_harness::Workload::Pairs => "Figure 11b: pairwise enqueue-dequeue (x86)",
            _ => "Figure 11c: 50%/50% enqueue-dequeue (x86)",
        };
        let table = throughput_sweep(figure, &kinds, workload, &opts);
        print_table(&table);
        tables.push(table);
    }
    write_tables_json(
        &json_artifact_name("fig11", workload_arg.as_deref()),
        &tables,
    );
}
