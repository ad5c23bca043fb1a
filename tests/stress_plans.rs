//! Seeded StressPlan sweep: every real queue algorithm must satisfy the
//! loss/duplication/per-producer-FIFO oracle under randomized (but fully
//! reproducible) thread/op-mix/patience configurations.
//!
//! Each test prints nothing on success; on failure the panic message carries
//! the seed, and `StressPlan::from_seed(kind, seed)` replays the exact run.

use wcq_harness::{all_real_queues, QueueKind, StressPlan, WcqConfig};

/// Two seeds per kind keeps the sweep broad but CI-fast; the seeds are
/// arbitrary and fixed so runs are comparable.  The sweep covers 10 real
/// kinds.
const SEEDS: [u64; 2] = [0xC0FF_EE00, 0x5EED_0002];

#[test]
fn stress_oracle_holds_for_all_real_queues() {
    for kind in all_real_queues() {
        for seed in SEEDS {
            StressPlan::from_seed(kind, seed).assert_holds();
        }
    }
}

#[test]
fn stress_oracle_holds_with_forced_slow_path() {
    // Override the derived patience so every operation of both wCQ hardware
    // models (bounded and unbounded) runs the Figure 5-7 slow-path
    // machinery.
    for kind in [
        QueueKind::Wcq,
        QueueKind::WcqLlsc,
        QueueKind::WcqUnbounded,
        QueueKind::WcqUnboundedLlsc,
    ] {
        let mut plan = StressPlan::from_seed(kind, 0xBAD_FA57);
        plan.wcq_config = WcqConfig {
            max_patience_enqueue: 1,
            max_patience_dequeue: 1,
            help_delay: 1,
            catchup_bound: 8,
        };
        plan.assert_holds();
    }
}

#[test]
fn stress_oracle_holds_for_unbounded_under_forced_segment_growth() {
    // Tiny 16-slot segments with thousands of enqueues per producer: every
    // burst overflows many segments, so the plan constantly appends, closes,
    // retires and recycles segments while the oracle watches for loss,
    // duplication and per-producer FIFO (ISSUE 2 acceptance criterion).
    // Since ISSUE 3 every worker drives the queue through the public facade
    // handle, whose memoized segment binding must chase head/tail across all
    // that churn without dropping a value.
    for kind in [QueueKind::WcqUnbounded, QueueKind::WcqUnboundedLlsc] {
        for seed in SEEDS {
            let mut plan = StressPlan::from_seed(kind, seed);
            plan.ring_order = 4; // 2^4 slots per segment << ops_per_producer
            plan.assert_holds();
        }
    }
}

#[test]
fn stress_oracle_holds_under_injected_llsc_spurious_failures() {
    // The §4 LL/SC construction must stay correct when store-conditionals
    // fail spuriously (weak LL/SC hardware); inject a harsh 25% rate.
    let mut plan = StressPlan::from_seed(QueueKind::WcqLlsc, 0x115C_FA11);
    plan.spurious_rate = 0.25;
    plan.assert_holds();
}

#[test]
fn stress_plans_are_reproducible() {
    for kind in all_real_queues() {
        for seed in [0u64, 7, 0xFFFF_FFFF_FFFF_FFFF] {
            assert_eq!(
                StressPlan::from_seed(kind, seed),
                StressPlan::from_seed(kind, seed),
            );
        }
    }
}

#[test]
fn stress_reports_expose_observations_for_custom_checks() {
    // The report is usable programmatically, not only via assert_holds:
    // future suites can layer extra invariants on the raw observations.
    let mut plan = StressPlan::from_seed(QueueKind::Wcq, 0xD00D);
    plan.ops_per_producer = 800;
    plan.ops_per_mixer = 300;
    let report = plan.run();
    report.verify().expect("oracle must pass");
    assert_eq!(report.total_enqueued(), report.total_consumed());
    assert!(report.total_enqueued() >= 800, "at least one producer ran");
    assert_eq!(
        report.observations.len(),
        plan.consumers + plan.mixers,
        "every consumer and mixer contributes an observation list"
    );
}
