//! Reproduces Figure 10: memory usage (10a) and throughput (10b) of the
//! memory test — 50/50 random operations with tiny random delays, standard
//! allocator.
//!
//! Memory is reported as the queue's self-reported footprint plus the peak
//! heap bytes allocated while the workload ran (tracked by the counting
//! global allocator installed below).
//!
//! Usage:
//! ```text
//! cargo run --release -p wcq-bench --bin fig10_memory -- \
//!     [--threads 1,2,4,8] [--ops N] [--repeats N] [--order N] [--paper]
//! ```

use wcq_bench::sweep::{print_table, write_tables_json};
use wcq_bench::{queue_set, BenchOpts};
use wcq_harness::memtrack::{self, CountingAllocator};
use wcq_harness::report::FigureTable;
use wcq_harness::{make_queue, run_workload, Workload, WorkloadConfig};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    let opts = BenchOpts::parse_or_exit(std::env::args().skip(1), "fig10_memory");
    let kinds = queue_set(false);
    let mut mem_table = FigureTable::new("Figure 10a: memory usage (memory test)", "MB");
    let mut thr_table = FigureTable::new("Figure 10b: throughput (memory test)", "Mops/s");

    for &threads in &opts.threads {
        for &kind in &kinds {
            let before = memtrack::snapshot();
            memtrack::reset_peak();
            let queue = make_queue(kind, threads + 1, opts.ring_order);
            let cfg = WorkloadConfig {
                threads,
                total_ops: opts.ops,
                repeats: opts.repeats,
                seed: 0x1234_5678 + threads as u64,
            };
            let res = run_workload(queue.as_ref(), Workload::MemoryTest, &cfg);
            let after = memtrack::snapshot();
            // Peak heap growth during the run plus the queue's self-reported
            // static footprint (rings allocated up front are part of `before`
            // vs `after` live bytes too, but self-reporting keeps FAA/CCQueue
            // comparable).
            let d = memtrack::delta(before, after);
            let bytes = d.peak_bytes.max(res.queue_footprint);
            mem_table.record(kind.name(), threads, bytes as f64 / (1024.0 * 1024.0));
            thr_table.record(kind.name(), threads, res.mops.mean);
            eprintln!(
                "  [fig10] {:<12} threads={threads:<3} {:>8.2} MB  {:>8.3} Mops/s",
                kind.name(),
                bytes as f64 / (1024.0 * 1024.0),
                res.mops.mean
            );
            drop(queue);
        }
    }

    print_table(&mem_table);
    print_table(&thr_table);
    write_tables_json("BENCH_memory.json", &[mem_table, thr_table]);
}
