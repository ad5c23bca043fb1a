//! Benchmarks mirroring every figure of the paper's evaluation at reduced
//! size, so `cargo bench --workspace` regenerates one row of each figure.
//! The full thread sweeps (and the paper-scale operation counts) are produced
//! by the `fig10_memory` / `fig11_x86` / `fig12_llsc` binaries.
//!
//! This is a plain `harness = false` bench (the offline build environment has
//! no Criterion); it times each workload a few times with `std::time` and
//! prints mean throughput with the coefficient of variation, the same summary
//! statistics the paper reports.
//!
//! Groups:
//! * `fig11a_empty_dequeue` / `fig11b_pairs` / `fig11c_mixed` — x86 set.
//! * `fig12a_empty_dequeue_llsc` / `fig12b_pairs_llsc` / `fig12c_mixed_llsc`
//!   — PowerPC (LL/SC) set.
//! * `fig10_memory_test` — the Figure 10 workload (throughput side; the
//!   memory side needs the counting allocator and lives in the binary).
//! * `wlscq_unbounded_pairs` / `wlscq_unbounded_mixed` — the unbounded
//!   comparison set (wLSCQ vs. LCRQ/MSQueue; full sweep in `bench_unbounded`).
//! * `wcq_ablation` — MAX_PATIENCE ablation: throughput and the slow-path
//!   fraction (§6: ≈ 0 at the paper's 16/64; asserted for one thread in
//!   `tests/metrics.rs`).

use std::time::Instant;

use wcq::{CountingInstrument, WcqConfig};
use wcq_harness::{make_queue, run_workload, QueueKind, Workload, WorkloadConfig};

const RING_ORDER: u32 = 10;
const THREADS: usize = 2;
const OPS: u64 = 20_000;
const REPEATS: u32 = 3;

fn bench_workload(group_name: &str, kinds: &[QueueKind], workload: Workload) {
    println!("\n## {group_name}");
    for &kind in kinds {
        let queue = make_queue(kind, THREADS + 1, RING_ORDER);
        let cfg = WorkloadConfig {
            threads: THREADS,
            total_ops: OPS,
            repeats: REPEATS,
            seed: 7,
        };
        let res = run_workload(queue.as_ref(), workload, &cfg);
        println!(
            "  {:<12} {:>10.3} Mops/s (cv {:.4})",
            kind.name(),
            res.mops.mean,
            res.mops.cv
        );
    }
}

fn fig11() {
    let kinds = QueueKind::x86_set();
    bench_workload("fig11a_empty_dequeue", &kinds, Workload::EmptyDequeue);
    bench_workload("fig11b_pairs", &kinds, Workload::Pairs);
    bench_workload("fig11c_mixed", &kinds, Workload::Mixed);
}

fn fig12() {
    let kinds = QueueKind::powerpc_set();
    bench_workload("fig12a_empty_dequeue_llsc", &kinds, Workload::EmptyDequeue);
    bench_workload("fig12b_pairs_llsc", &kinds, Workload::Pairs);
    bench_workload("fig12c_mixed_llsc", &kinds, Workload::Mixed);
}

fn fig10() {
    let kinds = QueueKind::x86_set();
    bench_workload("fig10_memory_test", &kinds, Workload::MemoryTest);
}

fn unbounded() {
    let kinds = QueueKind::unbounded_set();
    bench_workload("wlscq_unbounded_pairs", &kinds, Workload::Pairs);
    bench_workload("wlscq_unbounded_mixed", &kinds, Workload::Mixed);
}

fn ablation() {
    println!("\n## wcq_ablation");
    for (label, pe, pd) in [
        ("patience_1_1", 1u32, 1u32),
        ("patience_16_64", 16, 64),
        ("patience_64_256", 64, 256),
    ] {
        let cfg = WcqConfig {
            max_patience_enqueue: pe,
            max_patience_dequeue: pd,
            help_delay: 16,
            catchup_bound: 64,
        };
        let instr = CountingInstrument::new();
        let queue = wcq::builder()
            .capacity_order(RING_ORDER)
            .threads(THREADS)
            .config(cfg)
            .instrument(instr.clone())
            .build_bounded::<u64>();
        let mut samples = Vec::new();
        for _ in 0..REPEATS {
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        let mut h = queue.register().unwrap();
                        for i in 0..OPS / 2 / THREADS as u64 {
                            while h.enqueue(i & 0xFF).is_err() {}
                            let _ = h.dequeue();
                        }
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            samples.push(OPS as f64 / elapsed / 1e6);
        }
        let summary = wcq_harness::stats::summarize(&samples);
        println!(
            "  {label:<16} {:>10.3} Mops/s (cv {:.4})  slow-path fraction {:.6}",
            summary.mean,
            summary.cv,
            instr.snapshot().slow_path_fraction()
        );
    }
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; a plain runner just
    // ignores them.
    fig11();
    fig12();
    fig10();
    unbounded();
    ablation();
}
