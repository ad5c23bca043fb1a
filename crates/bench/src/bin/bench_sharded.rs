//! Shard-count scaling sweep: `ShardedWcq` at 1/2/4/8 shards against the
//! single-shard wLSCQ and LCRQ, on the Figure 11 workloads.
//!
//! The sharded queue exists to break the single head/tail hot spots at high
//! thread counts (ROADMAP item landed in PR 4); this binary measures exactly
//! that claim: with enough threads, the shards=4 row should beat shards=1 on
//! the pairwise workload, while shards=1 stays within noise of the plain
//! (unsharded) wLSCQ — i.e. the shard-router layer itself is close to free.
//!
//! Every thread enqueues on its home shard (the one routing rule), so
//! contention falls with the shard count.
//!
//! The empty-dequeue workload is the honest worst case for sharding: a
//! dequeue on an empty queue must observe *every* shard empty before
//! returning `None`, so its cost grows linearly with the shard count.
//!
//! The pairwise table additionally records `enqueue_many(batch=64)` rows for
//! plain wLSCQ and the x4 shards: the same traffic through the batched
//! entry points, which claim a run of tickets with one F&A and pay the
//! shard-routing / segment-memo cost once per batch (ROADMAP item 1 tracks
//! this against LCRQ's single-op pairwise row).
//!
//! When the pairwise workload runs, a second table records per-op
//! **latency percentiles** (p50/p90/p99/p999, in ns) of raw-handle enqueue
//! and dequeue on plain wLSCQ and the x4 shards, sampled with the
//! zero-dependency [`wcq::LatencyHistogram`] — the tail-latency view of the
//! same hot-spot-splitting claim the throughput table makes.  It goes to the
//! separate artifact `BENCH_sharded_latency.json` so the committed throughput
//! baseline keeps its exact PR-to-PR shape.
//!
//! Usage:
//! ```text
//! cargo run --release -p wcq-bench --bin bench_sharded -- [empty|pairs|mixed] \
//!     [--threads 1,2,4,8] [--ops N] [--repeats N] [--order N] [--quick]
//! ```
//!
//! `--quick` selects the reduced CI-smoke shape (threads 1,2,8 / 60k ops /
//! 1 repeat / order 8) — the same flags the committed
//! `bench_baselines/BENCH_sharded.json` was recorded with.

use wcq::{LatencyHistogram, WaitFreeQueue};
use wcq_bench::batch::{run_batched_pairs_once, PAIRWISE_BATCH};
use wcq_bench::latency::{record_percentiles, timed};
use wcq_bench::sweep::{print_table, write_tables_json};
use wcq_bench::{json_artifact_name, select_workloads, BenchOpts};
use wcq_harness::report::FigureTable;
use wcq_harness::stats::summarize;
use wcq_harness::{make_queue, run_workload, QueueKind, Workload, WorkloadConfig};

/// Shard counts the sweep covers.
const SHARD_SWEEP: &[usize] = &[1, 2, 4, 8];

fn sharded_queue(shards: usize, threads: usize, ring_order: u32) -> Box<dyn WaitFreeQueue<u64>> {
    Box::new(
        wcq::builder()
            // Same per-segment cap as the harness uses for the segmented
            // designs, so the LCRQ comparison stays like for like.
            .capacity_order(ring_order.min(12))
            // +1 slot for the between-repetitions drain handle.
            .threads(threads + 1)
            .shards(shards)
            .build_sharded::<u64>(),
    )
}

fn sweep_cell(
    table: &mut FigureTable,
    series: &str,
    queue: &dyn WaitFreeQueue<u64>,
    workload: Workload,
    threads: usize,
    opts: &BenchOpts,
) {
    let cfg = WorkloadConfig {
        threads,
        total_ops: opts.ops,
        repeats: opts.repeats,
        seed: 0x5AAD_0000 + threads as u64,
    };
    let res = run_workload(queue, workload, &cfg);
    table.record(series, threads, res.mops.mean);
    eprintln!(
        "  [{}] {:<22} threads={threads:<3} {:>10.3} Mops/s (cv {:.4})",
        workload.name(),
        series,
        res.mops.mean,
        res.mops.cv
    );
}

/// One pairwise repetition with every raw-handle enqueue and dequeue timed
/// individually into the shared histograms.
fn latency_pairs_once(
    queue: &dyn WaitFreeQueue<u64>,
    threads: usize,
    total_ops: u64,
    enq_hist: &LatencyHistogram,
    deq_hist: &LatencyHistogram,
) {
    let per_thread = (total_ops / threads as u64).max(1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let queue = &queue;
            s.spawn(move || {
                let mut h = queue.handle();
                for i in 0..per_thread {
                    timed(enq_hist, || h.enqueue((t as u64) << 40 | i));
                    timed(deq_hist, || h.dequeue());
                }
            });
        }
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload_arg = args.first().filter(|a| !a.starts_with("--")).cloned();
    // `--quick` (the CI smoke / committed-baseline shape) is a BenchOpts
    // preset, so explicit flags after it still override, like `--paper`.
    let opts = BenchOpts::parse(args.into_iter());

    let mut tables = Vec::new();
    for workload in select_workloads(workload_arg.as_deref()) {
        let mut table = FigureTable::new(
            format!("Sharded wLSCQ scaling: {} throughput", workload.name()),
            "Mops/s",
        );
        for &threads in &opts.threads {
            for &shards in SHARD_SWEEP {
                let queue = sharded_queue(shards, threads, opts.ring_order);
                let series = format!("Sharded wLSCQ x{shards}");
                sweep_cell(
                    &mut table,
                    &series,
                    queue.as_ref(),
                    workload,
                    threads,
                    &opts,
                );
            }
            for kind in [QueueKind::WcqUnbounded, QueueKind::Lcrq] {
                let queue = make_queue(kind, threads + 1, opts.ring_order);
                sweep_cell(
                    &mut table,
                    kind.name(),
                    queue.as_ref(),
                    workload,
                    threads,
                    &opts,
                );
            }
            // Batched pairwise rows: the same traffic through
            // `enqueue_many`/`dequeue_into`, next to the per-op series they
            // are meant to beat (ROADMAP item 1, the LCRQ pairwise gap).
            if matches!(workload, Workload::Pairs) {
                for (series, queue) in [
                    (
                        format!("wLSCQ enqueue_many(batch={PAIRWISE_BATCH})"),
                        make_queue(QueueKind::WcqUnbounded, threads + 1, opts.ring_order),
                    ),
                    (
                        format!("Sharded wLSCQ x4 enqueue_many(batch={PAIRWISE_BATCH})"),
                        sharded_queue(4, threads, opts.ring_order),
                    ),
                ] {
                    let samples: Vec<f64> = (0..opts.repeats)
                        .map(|_| {
                            run_batched_pairs_once(
                                queue.as_ref(),
                                threads,
                                opts.ops,
                                PAIRWISE_BATCH,
                            )
                        })
                        .collect();
                    let stats = summarize(&samples);
                    table.record(&series, threads, stats.mean);
                    eprintln!(
                        "  [{}] {:<22} threads={threads:<3} {:>10.3} Mops/s (cv {:.4})",
                        workload.name(),
                        series,
                        stats.mean,
                        stats.cv
                    );
                }
            }
        }
        print_table(&table);
        tables.push(table);
    }

    write_tables_json(
        &json_artifact_name("sharded", workload_arg.as_deref()),
        &tables,
    );

    // Latency percentiles for the pairwise workload only (the workload whose
    // hot-spot contention sharding targets), in a separate artifact so the
    // throughput baseline above keeps its exact PR-to-PR shape.  A
    // pairs-filtered run produces the same content as a full run, so both
    // write the canonical name; an empty/mixed-only run skips it.
    if select_workloads(workload_arg.as_deref()).contains(&Workload::Pairs) {
        let mut latency = FigureTable::new(
            "Sharded wLSCQ latency: per-op raw-handle enqueue/dequeue, pairwise",
            "ns",
        );
        for &threads in &opts.threads {
            for (prefix, queue) in [
                (
                    "wLSCQ",
                    make_queue(QueueKind::WcqUnbounded, threads + 1, opts.ring_order),
                ),
                (
                    "Sharded wLSCQ x4",
                    sharded_queue(4, threads, opts.ring_order),
                ),
            ] {
                let enq_hist = LatencyHistogram::new();
                let deq_hist = LatencyHistogram::new();
                for _ in 0..opts.repeats {
                    latency_pairs_once(queue.as_ref(), threads, opts.ops, &enq_hist, &deq_hist);
                }
                record_percentiles(
                    &mut latency,
                    &format!("{prefix} enqueue"),
                    threads,
                    &enq_hist.snapshot(),
                );
                record_percentiles(
                    &mut latency,
                    &format!("{prefix} dequeue"),
                    threads,
                    &deq_hist.snapshot(),
                );
            }
        }
        print_table(&latency);
        write_tables_json("BENCH_sharded_latency.json", &[latency]);
    }
}
