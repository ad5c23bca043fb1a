//! Integration tests for the checker itself: the sweep is clean on the real
//! tree, deterministic run-for-run, and — with the `check-mutations` feature
//! — reliably detects both documented injected bugs.
//!
//! The clean-sweep and mutation-detection tests are feature-complementary:
//! `cargo test -p wcq-check` runs the former, `cargo test -p wcq-check
//! --features check-mutations` the latter.  CI runs both.

use wcq_check::{explore, run_one, CheckPlan, Schedule, Target};

/// A reduced grid (subset of `smoke()`'s): enough schedules to hit the
/// torn-F&A window reliably, small enough for a test binary.
fn mini_sweep() -> explore::ExploreOutcome {
    explore::explore(&[1, 2, 3], &[1, 4], 10)
}

#[cfg(not(feature = "check-mutations"))]
#[test]
fn mini_sweep_is_clean_on_the_real_tree() {
    if cfg!(miri) {
        return; // serialized schedule replays are interpreter-hostile
    }
    let out = mini_sweep();
    assert!(out.runs >= 360, "sweep shrank: {} runs", out.runs);
    assert!(
        out.violations.is_empty(),
        "clean tree produced violations:\n{}",
        out.violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(feature = "check-mutations")]
#[test]
fn mutation_is_detected_and_coordinates_are_stable() {
    if cfg!(miri) {
        return;
    }
    // Each mutant must be caught by the fixed-seed sweep on a target only
    // it can trip: the torn Head/Tail F&A on the bounded ring (which has no
    // hazards), the skipped hazard protection on the directed window (whose
    // single thread a torn F&A cannot hurt)...
    let first = mini_sweep();
    for (target, mutant) in [
        (Target::Bounded, "torn-F&A"),
        (Target::HazardWindow, "skipped-hazard"),
    ] {
        assert!(
            first.violations.iter().any(|v| v.target == target),
            "the injected {mutant} mutation survived {} schedules undetected on {}",
            first.runs,
            target.name()
        );
    }
    // ...and a second identical sweep must flag the *same* schedules: the
    // explorer is a pure function of its seeds, mutations included.
    let second = mini_sweep();
    let coords = |o: &explore::ExploreOutcome| {
        o.violations
            .iter()
            .map(|v| (v.plan_seed, v.target, v.schedule))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        coords(&first),
        coords(&second),
        "mutation detection must be deterministic"
    );
}

#[test]
fn run_one_is_deterministic() {
    if cfg!(miri) {
        return;
    }
    // Same (plan, target, schedule) ⇒ same verdict and same yield count —
    // the property the replay workflow and the regression corpus rest on.
    let plan = CheckPlan::from_seed(3);
    for target in Target::all() {
        for depth in [1, 4] {
            let schedule = Schedule {
                seed: 0xDE7_E12,
                depth,
            };
            let a = run_one(&plan, target, schedule);
            let b = run_one(&plan, target, schedule);
            match (a, b) {
                (Ok(sa), Ok(sb)) => assert_eq!(
                    sa,
                    sb,
                    "yield counts diverged on {} depth {depth}",
                    target.name()
                ),
                (Err(va), Err(vb)) => assert_eq!(
                    va.message,
                    vb.message,
                    "violation messages diverged on {} depth {depth}",
                    target.name()
                ),
                (a, b) => panic!(
                    "verdicts diverged on {} depth {depth}: {a:?} vs {b:?}",
                    target.name()
                ),
            }
        }
    }
}
