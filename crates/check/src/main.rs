//! `wcq-check` — the analysis CLI.
//!
//! ```text
//! wcq-check --lint [ROOT]                  source lint and structural guards
//! wcq-check --smoke                        fixed-seed bounded exploration (CI, <60s)
//! wcq-check --explore [PLANS] [SCHEDS]     wider sweep (default 16 plans x 100 schedules)
//! wcq-check --replay PLAN TARGET SEED DEPTH   re-run one schedule from a violation
//! ```
//!
//! Exit codes: `0` clean, `1` violations/findings, `2` usage or I/O error.
//!
//! The binary installs the harness's counting allocator so exploration can
//! report peak heap alongside the per-run segment-residency probe (library
//! users and the test suites run without it; the probes that need it detect
//! its absence and skip).

use std::path::Path;
use std::process::ExitCode;

use wcq_check::{explore, lint, replay, smoke, CheckPlan, Schedule, Target};
use wcq_harness::memtrack;

#[global_allocator]
static ALLOC: memtrack::CountingAllocator = memtrack::CountingAllocator;

fn usage() -> ExitCode {
    let targets: Vec<&str> = Target::all().iter().map(Target::name).collect();
    eprintln!(
        "usage: wcq-check --lint [root]\n\
         \x20      wcq-check --smoke\n\
         \x20      wcq-check --explore [plan_count] [sched_seeds_per]\n\
         \x20      wcq-check --replay <plan_seed> <target> <sched_seed> <depth>\n\
         targets: {}",
        targets.join(" ")
    );
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Silences the default panic hook for the duration of a sweep: worker
/// panics (livelock bound, invariant probes) are an expected violation
/// signal, captured by `run_one`'s `catch_unwind` and reported through
/// [`explore::Violation`] — the default hook would print a full backtrace
/// per violating schedule and drown the summary.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn report(outcome: &explore::ExploreOutcome) -> ExitCode {
    let mem = memtrack::snapshot();
    println!(
        "explored {} schedules ({} yield points), peak heap {} KiB",
        outcome.runs,
        outcome.steps,
        mem.peak_bytes / 1024
    );
    if outcome.violations.is_empty() {
        println!("no violations");
        ExitCode::SUCCESS
    } else {
        println!("{} violation(s):", outcome.violations.len());
        for v in &outcome.violations {
            println!("- {v}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["--lint"] | ["--lint", _] => {
            let root = args.get(1).copied().unwrap_or(".");
            match lint::lint_tree(Path::new(root)) {
                Err(e) => {
                    eprintln!("wcq-check --lint: {e}");
                    ExitCode::from(2)
                }
                Ok(findings) if findings.is_empty() => {
                    println!("lint clean: {:?}", lint::HOT_PATH_CRATES);
                    ExitCode::SUCCESS
                }
                Ok(findings) => {
                    for f in &findings {
                        println!("{f}");
                    }
                    println!("{} finding(s)", findings.len());
                    ExitCode::FAILURE
                }
            }
        }
        ["--smoke"] => {
            quiet_panics();
            report(&smoke())
        }
        ["--explore", rest @ ..] => {
            let plans = rest.first().and_then(|s| parse_u64(s)).unwrap_or(16);
            let scheds = rest.get(1).and_then(|s| parse_u64(s)).unwrap_or(100);
            if rest.len() > 2 {
                return usage();
            }
            quiet_panics();
            let plan_seeds: Vec<u64> = (1..=plans).collect();
            report(&explore::explore(&plan_seeds, &[1, 4, 16], scheds))
        }
        ["--replay", plan, target, seed, depth] => {
            let (Some(plan_seed), Some(target), Some(sched_seed), Some(depth)) = (
                parse_u64(plan),
                Target::parse(target),
                parse_u64(seed),
                depth.parse::<u32>().ok(),
            ) else {
                return usage();
            };
            println!(
                "replaying plan {:?} on {} under schedule {:?}",
                CheckPlan::from_seed(plan_seed),
                target.name(),
                Schedule {
                    seed: sched_seed,
                    depth
                }
            );
            match replay(plan_seed, target, sched_seed, depth) {
                Ok(steps) => {
                    println!("pass ({steps} yield points)");
                    ExitCode::SUCCESS
                }
                Err(v) => {
                    println!("{v}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
