//! Ablation study: how often is the slow path taken, and how do wCQ's
//! tuning knobs (MAX_PATIENCE, HELP_DELAY) affect throughput?
//!
//! §6 of the paper states that with MAX_PATIENCE = 16 (enqueue) / 64
//! (dequeue) the slow path is taken "relatively infrequently".  This binary
//! measures exactly that: for several patience settings it runs the
//! pairwise workload with a live [`wcq::CountingInstrument`] attached and reports
//! throughput plus the slow-path fraction, the number of helping entries
//! (Kogan-Petrank round-robin help checks that found a pending request) and
//! the number of patience exhaustions (fast-path give-ups) — all from the
//! same [`wcq::MetricsSnapshot`] the observability layer exposes to
//! applications.
//!
//! Usage:
//! ```text
//! cargo run --release -p wcq-bench --bin ablation_patience -- \
//!     [--threads 1,2,4] [--ops N]
//! ```

use std::time::Instant;

use wcq::{Counter, CountingInstrument, WcqConfig};
use wcq_bench::BenchOpts;

struct ConfigRun {
    mops: f64,
    slow_frac: f64,
    helping_entries: u64,
    patience_exhausted: u64,
}

fn run_config(cfg: WcqConfig, threads: usize, total_ops: u64, order: u32) -> ConfigRun {
    // Construction goes through the public QueueBuilder so the ablation
    // measures exactly the configuration the library hands applications —
    // including the instrumented one.
    let instr = CountingInstrument::new();
    let queue = wcq::builder()
        .capacity_order(order)
        .threads(threads + 1)
        .config(cfg)
        .instrument(instr.clone())
        .build_bounded::<u64>();
    let per_thread = total_ops / threads as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let queue = &queue;
            s.spawn(move || {
                let mut h = queue.register().unwrap();
                for i in 0..per_thread {
                    while h.enqueue(i & 0xFFF).is_err() {}
                    let _ = h.dequeue();
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mops = (per_thread * threads as u64 * 2) as f64 / elapsed / 1e6;
    let snap = instr.snapshot();
    ConfigRun {
        mops,
        slow_frac: snap.slow_path_fraction(),
        helping_entries: snap.get(Counter::HelpingEntries),
        patience_exhausted: snap.get(Counter::PatienceExhaustedEnqueues)
            + snap.get(Counter::PatienceExhaustedDequeues),
    }
}

fn main() {
    let opts = BenchOpts::parse(std::env::args().skip(1));
    let order = opts.ring_order.min(14);
    println!("# Ablation: MAX_PATIENCE / HELP_DELAY sweep (pairwise workload)");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "threads",
        "patience_e",
        "patience_d",
        "help_delay",
        "Mops/s",
        "slow-path frac",
        "helping",
        "exhausted"
    );
    for &threads in &opts.threads {
        for (pe, pd, hd) in [
            (1u32, 1u32, 1u64),
            (4, 16, 4),
            (16, 64, 16), // paper defaults
            (64, 256, 64),
        ] {
            let cfg = WcqConfig {
                max_patience_enqueue: pe,
                max_patience_dequeue: pd,
                help_delay: hd,
                catchup_bound: 64,
            };
            let run = run_config(cfg, threads, opts.ops, order);
            println!(
                "{:>8} {:>10} {:>10} {:>12} {:>12.3} {:>14.6} {:>12} {:>12}",
                threads,
                pe,
                pd,
                hd,
                run.mops,
                run.slow_frac,
                run.helping_entries,
                run.patience_exhausted
            );
        }
    }
    println!();
    println!(
        "The paper's defaults (16/64) should show a slow-path fraction close to 0, \
         reproducing the §6 claim that the slow path is taken relatively infrequently. \
         The helping and exhausted columns are absolute event counts from the metrics \
         snapshot: helping entries bound the wait-free help cost, patience exhaustions \
         are exactly the slow-path entries."
    );
}
