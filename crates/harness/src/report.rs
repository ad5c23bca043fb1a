//! Paper-style table output.
//!
//! Each figure in the paper is a set of series (one per queue) over a thread
//! sweep.  [`FigureTable`] accumulates `(queue, threads) → value` cells and
//! prints them as an aligned text table plus a CSV block, which is what
//! EXPERIMENTS.md records.

use std::collections::BTreeMap;

/// An accumulating table: rows are thread counts, columns are queue names.
#[derive(Debug, Default)]
pub struct FigureTable {
    title: String,
    unit: String,
    columns: Vec<String>,
    /// threads -> column -> value
    rows: BTreeMap<usize, BTreeMap<String, f64>>,
}

impl FigureTable {
    /// Creates an empty table with a title and a value unit (e.g. "Mops/s").
    pub fn new(title: impl Into<String>, unit: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            unit: unit.into(),
            columns: Vec::new(),
            rows: BTreeMap::new(),
        }
    }

    /// Records one measurement cell.
    pub fn record(&mut self, queue: &str, threads: usize, value: f64) {
        if !self.columns.iter().any(|c| c == queue) {
            self.columns.push(queue.to_string());
        }
        self.rows
            .entry(threads)
            .or_default()
            .insert(queue.to_string(), value);
    }

    /// Retrieves a recorded cell (used by tests and cross-checks).
    pub fn get(&self, queue: &str, threads: usize) -> Option<f64> {
        self.rows.get(&threads).and_then(|r| r.get(queue)).copied()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} [{}]\n", self.title, self.unit));
        out.push_str(&format!("{:>8}", "threads"));
        for c in &self.columns {
            out.push_str(&format!("{:>14}", c));
        }
        out.push('\n');
        for (threads, row) in &self.rows {
            out.push_str(&format!("{:>8}", threads));
            for c in &self.columns {
                match row.get(c) {
                    Some(v) => out.push_str(&format!("{:>14.3}", v)),
                    None => out.push_str(&format!("{:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as machine-readable JSON:
    /// `{"title", "unit", "series": {algorithm: {threads: value}}}`.
    ///
    /// This is the `BENCH_*.json` format the figure binaries emit, so a
    /// figure can be re-plotted without parsing tables.
    pub fn render_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"title\": \"{}\",\n", escape(&self.title)));
        out.push_str(&format!("  \"unit\": \"{}\",\n", escape(&self.unit)));
        out.push_str("  \"series\": {\n");
        for (ci, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {{", escape(c)));
            let mut first = true;
            for (threads, row) in &self.rows {
                if let Some(v) = row.get(c) {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    out.push_str(&format!("\"{threads}\": {v:.4}"));
                }
            }
            out.push('}');
            if ci + 1 < self.columns.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Renders the same data as CSV (header row first).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("threads");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (threads, row) in &self.rows {
            out.push_str(&threads.to_string());
            for c in &self.columns {
                out.push(',');
                if let Some(v) = row.get(c) {
                    out.push_str(&format!("{v:.4}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_cells() {
        let mut t = FigureTable::new("Fig X", "Mops/s");
        t.record("wCQ", 1, 10.5);
        t.record("SCQ", 1, 11.0);
        t.record("wCQ", 2, 9.25);
        assert_eq!(t.get("wCQ", 1), Some(10.5));
        assert_eq!(t.get("SCQ", 2), None);
        let text = t.render();
        assert!(text.contains("Fig X"));
        assert!(text.contains("wCQ"));
        assert!(text.contains("10.500"));
        let csv = t.render_csv();
        assert!(csv.starts_with("threads,wCQ,SCQ"));
        assert!(csv.contains("1,10.5000,11.0000"));
        assert!(csv.contains("2,9.2500,"));
    }

    #[test]
    fn json_maps_algorithm_to_threads_to_value() {
        let mut t = FigureTable::new("Fig \"X\"", "Mops/s");
        t.record("wCQ", 1, 10.5);
        t.record("wCQ", 2, 9.25);
        t.record("SCQ", 1, 11.0);
        let json = t.render_json();
        assert!(json.contains("\"title\": \"Fig \\\"X\\\"\""), "{json}");
        assert!(json.contains("\"unit\": \"Mops/s\""));
        assert!(
            json.contains("\"wCQ\": {\"1\": 10.5000, \"2\": 9.2500}"),
            "{json}"
        );
        assert!(json.contains("\"SCQ\": {\"1\": 11.0000}"), "{json}");
        // Missing cells are omitted, not emitted as null.
        assert!(!json.contains("null"));
    }
}
