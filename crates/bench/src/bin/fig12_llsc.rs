//! Reproduces Figures 12a/12b/12c (PowerPC hardware model): the same three
//! workloads as Figure 11, but with wCQ running over the emulated LL/SC
//! construction of §4 and without LCRQ (which requires a true CAS2).
//!
//! Usage:
//! ```text
//! cargo run --release -p wcq-bench --bin fig12_llsc -- [empty|pairs|mixed] \
//!     [--threads 1,2,4,8] [--ops N] [--repeats N] [--order N]
//! ```

use wcq_bench::sweep::{print_table, throughput_sweep, write_tables_json};
use wcq_bench::{json_artifact_name, queue_set, select_workloads, BenchOpts};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let workload_arg = args.next_if(|a| !a.starts_with("--"));
    let opts = BenchOpts::parse_or_exit(args, "fig12_llsc [empty|pairs|mixed]");
    let kinds = queue_set(true);
    let mut tables = Vec::new();
    for workload in select_workloads(workload_arg.as_deref()) {
        let figure = match workload {
            wcq_harness::Workload::EmptyDequeue => {
                "Figure 12a: empty-dequeue throughput (LL/SC model)"
            }
            wcq_harness::Workload::Pairs => "Figure 12b: pairwise enqueue-dequeue (LL/SC model)",
            _ => "Figure 12c: 50%/50% enqueue-dequeue (LL/SC model)",
        };
        let table = throughput_sweep(figure, &kinds, workload, &opts);
        print_table(&table);
        tables.push(table);
    }
    write_tables_json(
        &json_artifact_name("fig12", workload_arg.as_deref()),
        &tables,
    );
}
