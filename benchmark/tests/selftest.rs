//! The benchmark's tests of itself: its statistics, its schedule, its JSON,
//! its names, and that a `--smoke` run emits exactly what `BENCHMARK.json`
//! lists.  `cargo test --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use wcq_benchmark::compare::{judge, Verdict};
use wcq_benchmark::json::{self, Value};
use wcq_benchmark::names::{benchmark_json, per_layer, Better, END_TO_END};
use wcq_benchmark::oracle::FlowCheck;
use wcq_benchmark::schedule::poisson_schedule;
use wcq_benchmark::stats;
use wcq_benchmark::trace::spans_of_slot;
use wcq_benchmark::workloads::{TraceBuf, Workload, SAMPLE_EVERY};

// --- statistics -------------------------------------------------------------

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(stats::median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    let (q1, q2, q3) = stats::quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
    assert_eq!((q1, q2, q3), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4)
    let (q1, q2, q3) = stats::quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
    assert_eq!((q1, q2, q3), (1.5, 4.0, 12.0));
    // statistics.quantiles([1, 3], n=4): the exclusive method extrapolates,
    // so a quartile can lie outside the data.
    let (q1, q2, q3) = stats::quartiles(&[3.0, 1.0]);
    assert_eq!((q1, q2, q3), (0.5, 2.0, 3.5));
    assert_eq!(stats::quartiles(&[5.0]), (5.0, 5.0, 5.0));
}

#[test]
fn spread_is_iqr_over_median() {
    let summary = stats::summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
    assert_eq!(summary.n, 10);
    assert!((summary.spread() - 1.0).abs() < 1e-12);
}

#[test]
fn percentiles_are_nearest_rank() {
    let sorted: Vec<u64> = (1..=1000).collect();
    assert_eq!(stats::percentile_sorted(&sorted, 50.0), 500);
    assert_eq!(stats::percentile_sorted(&sorted, 99.0), 990);
    assert_eq!(stats::percentile_sorted(&sorted, 99.9), 999);
    assert_eq!(stats::percentile_sorted(&sorted, 100.0), 1000);
    assert_eq!(stats::percentile_sorted(&[42], 99.9), 42);
    let mut unsorted = vec![5, 1, 4, 2, 3];
    assert_eq!(stats::p50_p99_p999(&mut unsorted), (3, 5, 5));
    assert_eq!(stats::p50_p99_p999(&mut []), (0, 0, 0));
}

#[test]
fn highest_percentile_needs_ten_samples_beyond_it() {
    // 10 samples beyond p99.9 takes 10 000 samples; 9 999 fall one short.
    assert_eq!(stats::highest_percentile_with_tail(10_000, 10), Some(99.9));
    assert_eq!(stats::highest_percentile_with_tail(9_999, 10), Some(99.0));
    assert_eq!(stats::highest_percentile_with_tail(1_000, 10), Some(99.0));
    assert_eq!(stats::highest_percentile_with_tail(999, 10), Some(90.0));
    assert_eq!(stats::highest_percentile_with_tail(20, 10), Some(50.0));
    assert_eq!(stats::highest_percentile_with_tail(19, 10), None);
    assert_eq!(
        stats::highest_percentile_with_tail(500_000, 10),
        Some(99.99)
    );
}

// --- schedule ---------------------------------------------------------------

#[test]
fn poisson_schedule_is_a_function_of_its_seed() {
    let a = poisson_schedule(7, 250_000.0, 10_000);
    let b = poisson_schedule(7, 250_000.0, 10_000);
    let c = poisson_schedule(8, 250_000.0, 10_000);
    assert_eq!(a, b, "equal seeds must give the identical schedule");
    assert_ne!(a, c, "different seeds must give different schedules");
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
    // 10 000 arrivals at 250 k/s take 40 ms on average; the sum of that many
    // exponential gaps is within a few percent of it.
    let span_ms = *a.last().unwrap() as f64 / 1e6;
    assert!((36.0..44.0).contains(&span_ms), "span was {span_ms} ms");
}

// --- JSON -------------------------------------------------------------------

#[test]
fn json_round_trips_through_the_writer_and_the_parser() {
    let doc = Value::obj([
        (
            "name",
            Value::str("quote \" backslash \\ newline \n tab \t é"),
        ),
        ("third", Value::Num(1.0 / 3.0)),
        ("big", Value::Num(3_638_780.0)),
        ("tiny", Value::Num(4.0209500000000006e-3)),
        ("negative", Value::Num(-2.5)),
        ("flag", Value::Bool(true)),
        ("nothing", Value::Null),
        (
            "list",
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Arr(vec![]),
                Value::obj::<String>([]),
            ]),
        ),
    ]);
    for text in [doc.render(), doc.render_pretty()] {
        assert_eq!(
            json::parse(&text).expect("writer output parses"),
            doc,
            "{text}"
        );
    }
    assert!(
        json::parse("{\"a\": 1} x").is_err(),
        "trailing characters are refused"
    );
    assert!(json::parse("[1, 2").is_err());
    assert!(
        json::parse(&"[".repeat(1000)).is_err(),
        "nesting is bounded"
    );
}

#[test]
fn json_writes_non_finite_numbers_as_null() {
    assert_eq!(Value::Num(f64::NAN).render(), "null");
    assert_eq!(Value::Num(f64::INFINITY).render(), "null");
}

// --- names ------------------------------------------------------------------

fn name_is_well_formed(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    let rest_ok = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    first_ok && rest_ok && name.len() <= 64
}

fn unit_is_well_formed(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn every_name_and_unit_fits_the_contract() {
    let mut seen = BTreeSet::new();
    for workload in Workload::ALL {
        assert!(name_is_well_formed(workload.name()), "{}", workload.name());
        assert!(
            seen.insert(workload.name().to_string()),
            "{} is used twice",
            workload.name()
        );
        let why = workload.why();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{}: why is {} chars",
            workload.name(),
            why.len()
        );
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
    }
    for metric in END_TO_END {
        assert!(name_is_well_formed(metric.name), "{}", metric.name);
        assert!(
            unit_is_well_formed(metric.unit),
            "{}: unit {}",
            metric.name,
            metric.unit
        );
        assert!(
            seen.insert(metric.name.to_string()),
            "{} is used twice",
            metric.name
        );
        assert!(
            metric.bound > 0.0 && metric.bound <= 0.25,
            "{}: bound {}",
            metric.name,
            metric.bound
        );
    }
    let layers = per_layer();
    assert!((1..=128).contains(&layers.len()));
    for metric in &layers {
        assert!(name_is_well_formed(&metric.name), "{}", metric.name);
        assert!(
            unit_is_well_formed(metric.unit),
            "{}: unit {}",
            metric.name,
            metric.unit
        );
        assert!(
            seen.insert(metric.name.clone()),
            "{} is used twice",
            metric.name
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}

fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

#[test]
fn benchmark_json_is_the_rendered_table() {
    let text = std::fs::read_to_string(benchmark_json_path())
        .expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024);
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with `benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
    );
    let keys: Vec<&str> = on_disk
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

// --- the oracle and the spans -----------------------------------------------

#[test]
fn flow_check_tells_loss_duplication_and_reordering_apart() {
    let run = |ids: &[u64], sent: u64| {
        let mut flow = FlowCheck::new();
        ids.iter().for_each(|&id| flow.observe(id));
        flow.finish(sent)
    };
    assert_eq!(run(&[0, 1, 2, 3], 4).total(), 0);
    let lost = run(&[0, 1, 3], 4);
    assert_eq!((lost.lost, lost.out_of_order), (1, 1), "{lost:?}");
    let duplicated = run(&[0, 1, 1, 2, 3], 4);
    assert_eq!(
        (duplicated.duplicated, duplicated.out_of_order),
        (1, 1),
        "{duplicated:?}"
    );
    let swapped = run(&[0, 2, 1, 3], 4);
    assert_eq!((swapped.lost, swapped.duplicated), (0, 0));
    assert!(swapped.out_of_order >= 1, "{swapped:?}");
    assert_eq!(run(&[], 0).total(), 0);
}

#[test]
fn spans_of_a_message_tile_its_root() {
    let mut buf = TraceBuf::for_units(2 * SAMPLE_EVERY);
    // Open loop: due 100, send 130..150, receiver already waiting since 90,
    // returns at 400.
    buf.prod[1] = [100, 130, 150];
    buf.cons[1] = [90, 400];
    let spans = spans_of_slot(&buf, 1);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "msg",
            "gen_wait",
            "channel.send",
            "queue_wait",
            "channel.recv"
        ]
    );
    let root = &spans[0];
    assert_eq!(
        (root.trace, root.parent, root.start_ns, root.end_ns),
        (SAMPLE_EVERY, None, 100, 400)
    );
    let children = &spans[1..];
    assert!(children.iter().all(|s| s.parent == Some(0)));
    assert_eq!(children[0].start_ns, root.start_ns);
    assert_eq!(children.last().unwrap().end_ns, root.end_ns);
    assert!(
        children.windows(2).all(|w| w[0].end_ns == w[1].start_ns),
        "{children:?}"
    );
    let covered: u64 = children.iter().map(|s| s.end_ns - s.start_ns).sum();
    assert_eq!(covered, root.end_ns - root.start_ns);

    // A poll has no send side; an unfinished slot has no spans at all.
    buf.cons[0] = [10, 35];
    let poll: Vec<&str> = spans_of_slot(&buf, 0).iter().map(|s| s.name).collect();
    assert_eq!(poll, ["msg", "channel.recv"]);
    assert!(spans_of_slot(&buf, 2).is_empty());
}

// --- the compare tool ----------------------------------------------------------

#[test]
fn compare_says_ok_worse_or_unresolved() {
    let tight_a = [100.0, 101.0, 99.0, 100.0, 100.5];
    let spread = |reps: &[f64]| stats::summarize(reps).spread();
    let side = |reps: &'static [f64]| (stats::median(reps), spread(reps), reps);

    const A: &[f64] = &[100.0, 101.0, 99.0, 100.0, 100.5];
    const SAME: &[f64] = &[101.0, 102.0, 100.0, 101.0, 101.5];
    const WORSE: &[f64] = &[112.0, 113.0, 111.0, 112.0, 112.5];
    const NOISY: &[f64] = &[80.0, 100.0, 120.0, 90.0, 110.0];
    const FAR_BETTER: &[f64] = &[40.0, 60.0, 50.0, 45.0, 55.0];
    assert!(spread(&tight_a) < 0.10);

    let (by, verdict) = judge(Better::Lower, 0.10, side(A), side(SAME));
    assert_eq!(verdict, Verdict::Ok);
    assert!((by - 0.01).abs() < 1e-9, "ratio is given against A: {by}");
    assert_eq!(
        judge(Better::Lower, 0.10, side(A), side(WORSE)).1,
        Verdict::Worse
    );
    // The same numbers are an improvement for a higher-is-better metric.
    assert_eq!(
        judge(Better::Higher, 0.10, side(A), side(WORSE)).1,
        Verdict::Ok
    );
    // Median within the bound, but repetitions spread wider than it.
    assert_eq!(
        judge(Better::Lower, 0.10, side(A), side(NOISY)).1,
        Verdict::Unresolved
    );
    // Wide spread, but every repetition of B beats every repetition of A.
    assert_eq!(
        judge(Better::Lower, 0.10, side(A), side(FAR_BETTER)).1,
        Verdict::Ok
    );
}

// --- a smoke run emits what BENCHMARK.json lists ----------------------------------

fn metric_names(doc: &Value, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a metric has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_runs_emit_exactly_the_names_benchmark_json_lists() {
    let listed = json::parse(&std::fs::read_to_string(benchmark_json_path()).unwrap()).unwrap();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let workloads: Vec<String> = listed
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    let gated: Vec<String> = Workload::ALL
        .iter()
        .filter(|w| w.gated())
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, gated);

    // The workload the file leaves out reports the same names.
    for workload in Workload::ALL.map(Workload::name) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_wcq-benchmark"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--trace",
                    trace,
                    "--smoke",
                    "--out",
                ])
                .arg(&out_dir)
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
            let emitted: BTreeSet<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
            assert_eq!(
                emitted,
                metric_names(&listed, key),
                "{workload} --trace {trace}"
            );
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                assert!(metric.get("unit").and_then(Value::as_str).is_some());
                if trace == "0" {
                    assert!(
                        value.unwrap() > 0.0,
                        "{workload}: end-to-end {name} must never be 0"
                    );
                }
            }
        }
        assert!(out_dir.join(format!("trace-{workload}.jsonl")).is_file());
    }
}
