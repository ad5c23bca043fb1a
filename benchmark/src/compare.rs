//! `--compare A.json B.json`: each end-to-end metric's bound applied per
//! workload, one row per workload × metric.
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — it is not, but the spread between repetitions (IQR ÷
//!   median, on either side) is wider than the bound, so "no worse" cannot
//!   be told from "cannot tell" — unless every repetition of B is better
//!   than every repetition of A (`setup_s` and the heap minima are held to
//!   their bound only);
//! * `ok` — otherwise;
//! * `ungated` — a row of a workload `BENCHMARK.json` leaves out
//!   (`Workload::gated`): printed, never counted.
//!
//! Every ratio is printed with its base.

use std::io::Write;

use crate::json::Value;
use crate::names::{Better, END_TO_END};
use crate::stats;
use crate::workloads::Workload;

/// Outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread lets us say so.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound, but the spread is wider than the bound.
    Unresolved,
    /// The workload is reported but not gated.
    Ungated,
}

impl Verdict {
    /// `ok` / `worse` / `unresolved`.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Ungated => "ungated",
        }
    }
}

/// One workload × metric comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// A's median (the base of every ratio in the row).
    pub base: f64,
    /// B's median.
    pub new: f64,
    /// Share of `base` by which B is worse (negative: better).
    pub worse_by: f64,
    /// The metric's bound, as a share of `base`.
    pub bound: f64,
    /// Wider of the two sides' IQR ÷ median.
    pub spread: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// Median, spread and repetitions of one metric entry of `result.json`.
fn side(entry: &Value) -> Result<(f64, f64, Vec<f64>), String> {
    let value = entry
        .get("value")
        .and_then(Value::as_f64)
        .ok_or("metric entry has no numeric `value`")?;
    let reps: Vec<f64> = match entry.get("reps").and_then(Value::as_arr) {
        Some(items) => items.iter().filter_map(Value::as_f64).collect(),
        None => vec![value],
    };
    let spread = stats::summarize(&reps).spread();
    Ok((value, spread, reps))
}

/// Judges one metric given both sides' repetitions.
pub fn judge(
    better: Better,
    bound: f64,
    base: (f64, f64, &[f64]),
    new: (f64, f64, &[f64]),
) -> (f64, Verdict) {
    let (a, spread_a, reps_a) = base;
    let (b, spread_b, reps_b) = new;
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let all_better = match better {
        Better::Lower => reps_b.iter().all(|nb| reps_a.iter().all(|na| nb < na)),
        Better::Higher => reps_b.iter().all(|nb| reps_a.iter().all(|na| nb > na)),
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread_a.max(spread_b) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compares two parsed `result.json` documents; rows in A's workload order.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |doc: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("no `workloads` object")?
            .to_vec())
    };
    let (in_a, in_b) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (workload, entry_a) in &in_a {
        let gated = Workload::from_name(workload).is_none_or(Workload::gated);
        let gate = |verdict| if gated { verdict } else { Verdict::Ungated };
        let entry_b = in_b
            .iter()
            .find(|(name, _)| name == workload)
            .map(|(_, entry)| entry)
            .ok_or(format!("workload {workload} is missing from B"))?;
        for metric in END_TO_END {
            let find = |entry: &Value| {
                entry
                    .get("end_to_end")
                    .and_then(|m| m.get(metric.name))
                    .ok_or(format!("{workload}: no end-to-end metric {}", metric.name))
                    .and_then(side)
            };
            let (base, mut spread_a, reps_a) = find(entry_a)?;
            let (new, mut spread_b, reps_b) = find(entry_b)?;
            if !metric.spread_matters {
                (spread_a, spread_b) = (0.0, 0.0);
            }
            let (worse_by, verdict) = judge(
                metric.better,
                metric.bound,
                (base, spread_a, &reps_a),
                (new, spread_b, &reps_b),
            );
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.to_string(),
                unit: metric.unit.to_string(),
                base,
                new,
                worse_by,
                bound: metric.bound,
                spread: spread_a.max(spread_b),
                verdict: gate(verdict),
            });
        }
        // Failures have no tolerance: any failed operation in B is worse.
        let failed = |entry: &Value| {
            entry
                .get("failed_ops_pct")
                .and_then(Value::as_f64)
                .ok_or(format!("{workload}: no failed_ops_pct"))
        };
        let (base, new) = (failed(entry_a)?, failed(entry_b)?);
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_ops_pct".to_string(),
            unit: "%".to_string(),
            base,
            new,
            worse_by: new - base,
            bound: 0.0,
            spread: 0.0,
            // Correctness is gated on every workload.
            verdict: if new > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

/// Prints the rows; returns `true` when no gated row is `worse` or
/// `unresolved`.
pub fn print_rows(out: &mut impl Write, rows: &[Row]) -> std::io::Result<bool> {
    writeln!(
        out,
        "{:<10} {:<20} {:>14} {:>14} {:<6} {:>22} {:>8} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "unit", "B vs A", "bound", "spread"
    )?;
    for row in rows {
        let change = if row.metric == "failed_ops_pct" {
            format!("{:+.4} points", row.worse_by)
        } else {
            format!(
                "{:+.2}% {} of {:.4}",
                row.worse_by.abs() * 100.0,
                if row.worse_by > 0.0 {
                    "worse"
                } else {
                    "better"
                },
                row.base
            )
        };
        writeln!(
            out,
            "{:<10} {:<20} {:>14.4} {:>14.4} {:<6} {:>22} {:>7.1}% {:>7.1}%  {}",
            row.workload,
            row.metric,
            row.base,
            row.new,
            row.unit,
            change,
            row.bound * 100.0,
            row.spread * 100.0,
            row.verdict.as_str()
        )?;
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let all_ok = count(Verdict::Worse) + count(Verdict::Unresolved) == 0;
    writeln!(
        out,
        "{} rows: {} ok, {} worse, {} unresolved, {} ungated",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Ungated)
    )?;
    Ok(all_ok)
}
