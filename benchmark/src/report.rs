//! Human-readable tables and `result.json`.

use std::io::Write;

use crate::json::Value;
use crate::names::{EndToEnd, END_TO_END};
use crate::run::{Metric, RunResult};

/// Prints one run: every metric by name with its unit, then the verdict.
pub fn print_run(out: &mut impl Write, result: &RunResult, traced: bool) -> std::io::Result<()> {
    writeln!(
        out,
        "== {} ({}) ==",
        result.workload.name(),
        if traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        }
    )?;
    for m in result.metrics.iter().chain(&result.info) {
        let s = m.summary;
        if s.n > 1 {
            let bound = END_TO_END
                .iter()
                .find(|e| e.name == m.name)
                .map(bound_note)
                .unwrap_or_default();
            writeln!(
                out,
                "  {:<36} {:>16.4} {:<7} q1 {:.4}  q3 {:.4}  n {}{bound}",
                m.name, m.value, m.unit, s.q1, s.q3, s.n
            )?;
        } else {
            writeln!(out, "  {:<36} {:>16.4} {}", m.name, m.value, m.unit)?;
        }
    }
    writeln!(
        out,
        "  {:<36} {:>16.4} %       ({} failed of {} attempted: {:?})",
        "failed_ops_pct",
        result.failed_ops_pct(),
        result.failed(),
        result.attempted,
        result.failures
    )?;
    for broken in &result.broken_invariants {
        writeln!(out, "  BROKEN: {broken}")?;
    }
    Ok(())
}

fn bound_note(m: &EndToEnd) -> String {
    format!("  bound {}%", m.bound * 100.0)
}

fn metric_json(m: &Metric) -> Value {
    let mut members = vec![
        ("value".to_string(), Value::Num(m.value)),
        ("unit".to_string(), Value::str(m.unit)),
    ];
    if m.summary.n > 1 {
        members.extend([
            ("stat".to_string(), Value::str(m.statistic.as_str())),
            ("q1".to_string(), Value::Num(m.summary.q1)),
            ("q3".to_string(), Value::Num(m.summary.q3)),
            ("n".to_string(), Value::Num(m.summary.n as f64)),
            (
                "reps".to_string(),
                Value::Arr(m.reps.iter().map(|v| Value::Num(*v)).collect()),
            ),
        ]);
    }
    Value::Obj(members)
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| (m.name.clone(), metric_json(m))))
}

/// One run on its own (what `--trace 0|1` leaves in `run-<workload>-trace<n>.json`).
pub fn run_json(result: &RunResult, traced: bool) -> Value {
    Value::obj([
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed() as f64)),
        (
            if traced { "per_layer" } else { "end_to_end" },
            metrics_json(&result.metrics),
        ),
        ("info", metrics_json(&result.info)),
    ])
}

/// One workload's entry of `result.json`: its untraced and its traced run.
pub fn workload_json(untraced: &RunResult, traced: &RunResult) -> Value {
    let failed = untraced.failed() + traced.failed();
    let attempted = untraced.attempted + traced.attempted;
    let info: Vec<Metric> = untraced.info.iter().chain(&traced.info).cloned().collect();
    Value::obj([
        ("correct", Value::Bool(untraced.correct && traced.correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "failed_ops_pct",
            Value::Num(100.0 * failed as f64 / attempted.max(1) as f64),
        ),
        ("end_to_end", metrics_json(&untraced.metrics)),
        ("per_layer", metrics_json(&traced.metrics)),
        ("info", metrics_json(&info)),
    ])
}

/// The whole `result.json`.
pub fn result_json(seed: u64, seconds: f64, smoke: bool, workloads: Vec<(String, Value)>) -> Value {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("schema", Value::Num(1.0)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("available_parallelism", Value::Num(threads as f64)),
        ("workloads", Value::Obj(workloads)),
    ])
}
