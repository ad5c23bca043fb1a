//! Channel-endpoint overhead: the typed `Sender`/`Receiver` layer against
//! raw facade handles, on a producer→consumer pipeline.
//!
//! The channel layer (ISSUE 5) adds a closed check, an in-flight credit and a
//! wake hook around every queue operation; this binary measures what that
//! costs.  Each measurement runs `t` producers sending a fixed total through
//! `t` consumers:
//!
//! * **channel rows** — endpoints from `build_channel()` over the unbounded,
//!   bounded and sharded (x4) backends; the run ends through the
//!   channel's own close-and-drain protocol (producers drop, consumers recv
//!   until `Closed`);
//! * **batched rows** — the unbounded and sharded backends again, but with
//!   producers pushing `send_iter` chunks of 64 and consumers draining with
//!   `recv_many`, so the closed-check and in-flight credit amortize over the
//!   batch (series `… enqueue_many(batch=64)`);
//! * **async row** — the same pipeline through `build_async()` endpoints,
//!   each thread driving its futures with the dependency-free
//!   `wcq_harness::exec::block_on` shim;
//! * **raw row** — the same pipeline over bare `queue.handle()`s with a
//!   done-flag termination protocol, i.e. what an application would hand-roll
//!   without the channel layer;
//! * **counting row** — the unbounded backend once more, but built with a
//!   live [`wcq::CountingInstrument`] (series `channel/wLSCQ (counting)`).
//!   Against the default `channel/wLSCQ` row it is the observability layer's
//!   overhead measurement: the default `NoopInstrument` build must sit within
//!   noise of it being absent, and the counting build shows the real cost of
//!   the atomic counters.
//!
//! A second table reports per-op **latency percentiles** (p50/p90/p99/p999,
//! in ns) of send and recv on the unbounded backend, sampled with the
//! zero-dependency [`wcq::LatencyHistogram`].  It is written to the separate
//! artifact `BENCH_channel_latency.json` so the committed throughput baseline
//! keeps its PR-to-PR shape.
//!
//! Usage:
//! ```text
//! cargo run --release -p wcq-bench --bin bench_channel -- \
//!     [--threads 1,2,4,8] [--ops N] [--repeats N] [--order N] [--quick]
//! ```
//!
//! `--threads` counts producer/consumer *pairs*: `--threads 4` runs 4
//! producers and 4 consumers.  `--quick` is the CI-smoke / committed-baseline
//! shape shared with the other binaries.  Emits `BENCH_channel.json` and
//! `BENCH_channel_latency.json`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::time::Instant;

use wcq::channel::{Receiver, Sender};
use wcq::{ChannelBackend, CountingInstrument, Instrument, LatencyHistogram, WaitFreeQueue};
use wcq_bench::latency::{record_percentiles, timed};
use wcq_bench::sweep::{print_table, write_tables_json};
use wcq_bench::BenchOpts;
use wcq_harness::exec::block_on;
use wcq_harness::report::FigureTable;
use wcq_harness::stats::summarize;

/// Shard count for the sharded-backend row (matches `bench_sharded`'s sweet
/// spot and the harness default).
const CHANNEL_SHARDS: usize = 4;

/// Batch size for the `send_iter`/`recv_many` rows (the same size
/// `bench_sharded` records, so the two artifacts stay comparable).
const PIPELINE_BATCH: usize = wcq_bench::batch::PAIRWISE_BATCH;

fn channel_builder(
    backend: ChannelBackend,
    pairs: usize,
    ring_order: u32,
) -> wcq::QueueBuilder<wcq::NativeFamily> {
    wcq::builder()
        // Bounded rows get the full ring; the segmented backends share
        // LCRQ's 2^12 segment cap like everywhere else in the harness.
        .capacity_order(match backend {
            ChannelBackend::Bounded => ring_order,
            _ => ring_order.min(12),
        })
        .threads(2 * pairs + 1)
        .shards(if backend == ChannelBackend::Sharded {
            CHANNEL_SHARDS
        } else {
            1
        })
        .backend(backend)
}

/// One timed pipeline repetition over sync channel endpoints; returns Mops/s
/// counting both sends and receives, like the pairwise workload.  Generic
/// over the channel's [`Instrument`] so the default and counting rows run
/// the exact same pipeline code.
fn run_channel_once<I: Instrument>(
    tx: Sender<u64, I>,
    rx: Receiver<u64, I>,
    pairs: usize,
    total_ops: u64,
) -> f64 {
    let per_producer = (total_ops / pairs as u64).max(1);
    let moved = per_producer * pairs as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for p in 0..pairs {
            let mut tx = tx.clone();
            s.spawn(move || {
                for i in 0..per_producer {
                    tx.send((p as u64) << 40 | i).expect("receivers alive");
                }
            });
        }
        for _ in 0..pairs {
            let mut rx = rx.clone();
            s.spawn(move || while rx.recv().is_ok() {});
        }
        drop(tx); // producers' clones hold the channel open until done
        drop(rx);
    });
    2.0 * moved as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6
}

/// The batched twin of [`run_channel_once`]: producers push chunks through
/// `send_iter` and consumers drain with `recv_many`, so the closed-check and
/// in-flight credit are paid once per batch instead of once per value.
fn run_channel_batched_once<I: Instrument>(
    tx: Sender<u64, I>,
    rx: Receiver<u64, I>,
    pairs: usize,
    total_ops: u64,
    batch: usize,
) -> f64 {
    let per_producer = (total_ops / pairs as u64).max(1);
    let moved = per_producer * pairs as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for p in 0..pairs {
            let mut tx = tx.clone();
            s.spawn(move || {
                let mut i = 0u64;
                while i < per_producer {
                    let n = (batch as u64).min(per_producer - i);
                    tx.send_iter((i..i + n).map(|v| (p as u64) << 40 | v))
                        .expect("receivers alive");
                    i += n;
                }
            });
        }
        for _ in 0..pairs {
            let mut rx = rx.clone();
            s.spawn(move || {
                let mut grab = Vec::with_capacity(batch);
                while rx.recv_many(&mut grab, batch).is_ok() {
                    grab.clear();
                }
            });
        }
        drop(tx);
        drop(rx);
    });
    2.0 * moved as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6
}

/// The async twin: every thread drives its endpoint with `block_on`.
fn run_async_once(pairs: usize, total_ops: u64, ring_order: u32) -> f64 {
    let (tx, rx) =
        channel_builder(ChannelBackend::Unbounded, pairs, ring_order).build_async::<u64>();
    let per_producer = (total_ops / pairs as u64).max(1);
    let moved = per_producer * pairs as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for p in 0..pairs {
            let mut tx = tx.clone();
            s.spawn(move || {
                block_on(async move {
                    for i in 0..per_producer {
                        tx.send((p as u64) << 40 | i)
                            .await
                            .expect("receivers alive");
                    }
                })
            });
        }
        for _ in 0..pairs {
            let mut rx = rx.clone();
            s.spawn(move || block_on(async move { while rx.recv().await.is_ok() {} }));
        }
        drop(tx);
        drop(rx);
    });
    2.0 * moved as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6
}

/// The latency twin of [`run_channel_once`]: the same pipeline, but every
/// send and recv is timed individually into the shared histograms (the final
/// `Closed` recv of each consumer included — that is the close-and-drain
/// latency applications actually see).
fn run_channel_latency_once(
    tx: Sender<u64>,
    rx: Receiver<u64>,
    pairs: usize,
    total_ops: u64,
    send_hist: &LatencyHistogram,
    recv_hist: &LatencyHistogram,
) {
    let per_producer = (total_ops / pairs as u64).max(1);
    std::thread::scope(|s| {
        for p in 0..pairs {
            let mut tx = tx.clone();
            s.spawn(move || {
                for i in 0..per_producer {
                    timed(send_hist, || tx.send((p as u64) << 40 | i)).expect("receivers alive");
                }
            });
        }
        for _ in 0..pairs {
            let mut rx = rx.clone();
            s.spawn(move || while timed(recv_hist, || rx.recv()).is_ok() {});
        }
        drop(tx);
        drop(rx);
    });
}

/// The hand-rolled alternative the channel layer replaces: raw handles plus
/// a done-flag/counter termination protocol (the stress driver's shape).
fn run_raw_once(queue: &dyn WaitFreeQueue<u64>, pairs: usize, total_ops: u64) -> f64 {
    let per_producer = (total_ops / pairs as u64).max(1);
    let moved = per_producer * pairs as u64;
    let consumed = AtomicU64::new(0);
    let producers_done = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for p in 0..pairs {
            let producers_done = &producers_done;
            let queue = &queue;
            s.spawn(move || {
                let mut h = queue.handle();
                for i in 0..per_producer {
                    h.enqueue((p as u64) << 40 | i);
                }
                producers_done.fetch_add(1, SeqCst);
            });
        }
        for _ in 0..pairs {
            let consumed = &consumed;
            let producers_done = &producers_done;
            let queue = &queue;
            s.spawn(move || {
                let mut h = queue.handle();
                loop {
                    if h.dequeue().is_some() {
                        consumed.fetch_add(1, SeqCst);
                    } else if producers_done.load(SeqCst) == pairs && consumed.load(SeqCst) >= moved
                    {
                        break;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        }
    });
    2.0 * moved as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6
}

fn record(table: &mut FigureTable, series: &str, threads: usize, samples: &[f64]) {
    let stats = summarize(samples);
    table.record(series, threads, stats.mean);
    eprintln!(
        "  {series:<28} pairs={threads:<3} {:>10.3} Mops/s (cv {:.4})",
        stats.mean, stats.cv
    );
}

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let mut table = FigureTable::new(
        "Channel endpoints vs raw handles: producer->consumer pipeline",
        "Mops/s",
    );

    for &pairs in &opts.threads {
        for (backend, series) in [
            (ChannelBackend::Unbounded, "channel/wLSCQ"),
            (ChannelBackend::Bounded, "channel/wCQ (bounded)"),
            (ChannelBackend::Sharded, "channel/Sharded wLSCQ x4"),
        ] {
            let samples: Vec<f64> = (0..opts.repeats)
                .map(|_| {
                    let (tx, rx) =
                        channel_builder(backend, pairs, opts.ring_order).build_channel::<u64>();
                    run_channel_once(tx, rx, pairs, opts.ops)
                })
                .collect();
            record(&mut table, series, pairs, &samples);
        }

        for (backend, series) in [
            (
                ChannelBackend::Unbounded,
                format!("channel/wLSCQ enqueue_many(batch={PIPELINE_BATCH})"),
            ),
            (
                ChannelBackend::Sharded,
                format!("channel/Sharded wLSCQ x4 enqueue_many(batch={PIPELINE_BATCH})"),
            ),
        ] {
            let samples: Vec<f64> = (0..opts.repeats)
                .map(|_| {
                    let (tx, rx) =
                        channel_builder(backend, pairs, opts.ring_order).build_channel::<u64>();
                    run_channel_batched_once(tx, rx, pairs, opts.ops, PIPELINE_BATCH)
                })
                .collect();
            record(&mut table, &series, pairs, &samples);
        }

        // The observability-overhead row: the same unbounded pipeline, but
        // with live atomic counters attached.  The gap between this and the
        // "channel/wLSCQ" row above is what instrumentation costs; the
        // default (NoopInstrument) row is the zero-overhead contract.
        let samples: Vec<f64> = (0..opts.repeats)
            .map(|_| {
                let (tx, rx) = channel_builder(ChannelBackend::Unbounded, pairs, opts.ring_order)
                    .instrument(CountingInstrument::new())
                    .build_channel::<u64>();
                run_channel_once(tx, rx, pairs, opts.ops)
            })
            .collect();
        record(&mut table, "channel/wLSCQ (counting)", pairs, &samples);

        let samples: Vec<f64> = (0..opts.repeats)
            .map(|_| run_async_once(pairs, opts.ops, opts.ring_order))
            .collect();
        record(&mut table, "channel/wLSCQ (async)", pairs, &samples);

        let samples: Vec<f64> = (0..opts.repeats)
            .map(|_| {
                let queue = channel_builder(ChannelBackend::Unbounded, pairs, opts.ring_order)
                    .build_unbounded::<u64>();
                run_raw_once(&queue, pairs, opts.ops)
            })
            .collect();
        record(&mut table, "wLSCQ raw handles", pairs, &samples);
    }

    print_table(&table);
    write_tables_json("BENCH_channel.json", &[table]);

    // Latency percentiles go to a separate artifact so the throughput
    // baseline above keeps its exact PR-to-PR series shape.
    let mut latency = FigureTable::new(
        "Channel endpoint latency: per-op send/recv, wLSCQ backend",
        "ns",
    );
    for &pairs in &opts.threads {
        let send_hist = LatencyHistogram::new();
        let recv_hist = LatencyHistogram::new();
        for _ in 0..opts.repeats {
            let (tx, rx) = channel_builder(ChannelBackend::Unbounded, pairs, opts.ring_order)
                .build_channel::<u64>();
            run_channel_latency_once(tx, rx, pairs, opts.ops, &send_hist, &recv_hist);
        }
        record_percentiles(
            &mut latency,
            "channel/wLSCQ send",
            pairs,
            &send_hist.snapshot(),
        );
        record_percentiles(
            &mut latency,
            "channel/wLSCQ recv",
            pairs,
            &recv_hist.snapshot(),
        );
    }
    print_table(&latency);
    write_tables_json("BENCH_channel_latency.json", &[latency]);
}
