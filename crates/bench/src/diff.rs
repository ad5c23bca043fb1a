//! Cross-PR bench comparison: parse `BENCH_*.json` artifacts and flag
//! throughput regressions.
//!
//! The figure binaries emit machine-readable tables
//! (`[{title, unit, series: {algorithm: {threads: value}}}]`, see
//! [`wcq_harness::report::FigureTable::render_json`]).  This module reads two
//! such artifacts — a committed baseline and a freshly emitted run — matches
//! their tables by title and their cells by `(algorithm, threads)`, and
//! reports every throughput cell (`Mops/s` tables) that dropped by more than
//! a configurable threshold.  Memory tables (`KiB`/`MB`) and latency tables
//! (`ns`, the `BENCH_*_latency.json` percentile artifacts) regress in the
//! other direction, so for those a *growth* beyond the threshold is flagged.
//!
//! The build environment is offline, so the JSON subset the artifacts use is
//! parsed by a ~100-line recursive-descent parser below instead of a serde
//! dependency.

use std::collections::BTreeMap;

/// One parsed figure table: `series[algorithm][threads] = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTable {
    /// Table title, e.g. `"Figure 11a: empty dequeue"`.
    pub title: String,
    /// Value unit, e.g. `"Mops/s"` or `"KiB"`.
    pub unit: String,
    /// algorithm → threads → value.
    pub series: BTreeMap<String, BTreeMap<usize, f64>>,
}

impl BenchTable {
    /// `true` when larger values are better — i.e. for throughput tables
    /// (`"Mops/s"` and friends).  Every other unit regresses *upward*:
    /// memory tables (`"KiB"`/`"MB"`) and the latency-percentile tables
    /// (`"ns"`), where a higher p99 is a worse tail.
    pub fn higher_is_better(&self) -> bool {
        self.unit.contains("ops") // "Mops/s"
    }
}

/// One regressed cell of a table comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Title of the table the cell belongs to.
    pub table: String,
    /// Algorithm (series) name.
    pub series: String,
    /// Thread count of the row.
    pub threads: usize,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Relative change, signed so that negative is always *worse*
    /// (throughput drop, or memory growth flipped in sign).
    pub change: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} @ {} threads: {:.3} -> {:.3} ({:+.1}%)",
            self.table,
            self.series,
            self.threads,
            self.baseline,
            self.current,
            100.0 * (self.current - self.baseline) / self.baseline
        )
    }
}

/// Compares `current` against `baseline` and returns every cell whose value
/// got worse by more than `threshold` (e.g. `0.10` = 10%).  Tables are
/// matched by title, cells by `(series, threads)`; cells present on only one
/// side are ignored (new algorithms / dropped rows are not regressions).
pub fn compare(baseline: &[BenchTable], current: &[BenchTable], threshold: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|t| t.title == base.title) else {
            continue;
        };
        let sign = if base.higher_is_better() { 1.0 } else { -1.0 };
        for (series, rows) in &base.series {
            let Some(cur_rows) = cur.series.get(series) else {
                continue;
            };
            for (&threads, &b) in rows {
                let Some(&c) = cur_rows.get(&threads) else {
                    continue;
                };
                if b <= 0.0 {
                    continue;
                }
                // Negative change = worse, whatever the unit's direction.
                let change = sign * (c - b) / b;
                if change < -threshold {
                    out.push(Regression {
                        table: base.title.clone(),
                        series: series.clone(),
                        threads,
                        baseline: b,
                        current: c,
                        change,
                    });
                }
            }
        }
    }
    // Worst first.
    out.sort_by(|a, b| a.change.partial_cmp(&b.change).unwrap());
    out
}

// --------------------------------------------------------------------------
// Minimal JSON parsing (the subset the artifacts use)
// --------------------------------------------------------------------------

/// A parsed JSON value (no bool/null — the artifacts never emit them).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Collect raw bytes and decode once at the closing quote, so
        // multi-byte UTF-8 sequences (em dashes in titles, "µs" units)
        // survive intact instead of being decoded byte-by-byte.
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let esc = self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| self.error("dangling escape"))?;
                    out.push(match esc {
                        b'"' => b'"',
                        b'\\' => b'\\',
                        b'n' => b'\n',
                        b't' => b'\t',
                        _ => return Err(self.error("unsupported escape")),
                    });
                    self.pos += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parses the contents of a `BENCH_*.json` artifact (a JSON array of figure
/// tables, or a single table object) into [`BenchTable`]s.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchTable>, String> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing garbage"));
    }
    let tables = match value {
        Json::Arr(items) => items,
        obj @ Json::Obj(_) => vec![obj],
        _ => return Err("artifact root must be an array or object".into()),
    };
    tables.into_iter().map(table_from_json).collect()
}

fn table_from_json(value: Json) -> Result<BenchTable, String> {
    let Json::Obj(fields) = value else {
        return Err("each table must be a JSON object".into());
    };
    let mut title = None;
    let mut unit = None;
    let mut series = BTreeMap::new();
    for (key, val) in fields {
        match (key.as_str(), val) {
            ("title", Json::Str(s)) => title = Some(s),
            ("unit", Json::Str(s)) => unit = Some(s),
            ("series", Json::Obj(algos)) => {
                for (algo, rows) in algos {
                    let Json::Obj(cells) = rows else {
                        return Err(format!("series {algo:?} must map threads to values"));
                    };
                    let mut parsed = BTreeMap::new();
                    for (threads, v) in cells {
                        let t: usize = threads
                            .parse()
                            .map_err(|_| format!("bad thread count {threads:?}"))?;
                        let Json::Num(n) = v else {
                            return Err(format!("non-numeric cell in series {algo:?}"));
                        };
                        parsed.insert(t, n);
                    }
                    series.insert(algo, parsed);
                }
            }
            _ => {} // unknown fields are forward-compatible
        }
    }
    Ok(BenchTable {
        title: title.ok_or("table missing \"title\"")?,
        unit: unit.ok_or("table missing \"unit\"")?,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcq_harness::report::FigureTable;

    fn table(title: &str, unit: &str, cells: &[(&str, usize, f64)]) -> BenchTable {
        let mut series: BTreeMap<String, BTreeMap<usize, f64>> = BTreeMap::new();
        for &(algo, threads, v) in cells {
            series.entry(algo.into()).or_default().insert(threads, v);
        }
        BenchTable {
            title: title.into(),
            unit: unit.into(),
            series,
        }
    }

    #[test]
    fn parses_the_figure_table_emitter_output() {
        let mut t = FigureTable::new("Fig \"11a\"", "Mops/s");
        t.record("wCQ", 1, 10.5);
        t.record("wCQ", 2, 9.25);
        t.record("SCQ", 1, 11.0);
        let json = format!("[\n{}\n]\n", t.render_json().trim_end());
        let parsed = parse_bench_json(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].title, "Fig \"11a\"");
        assert_eq!(parsed[0].unit, "Mops/s");
        assert_eq!(parsed[0].series["wCQ"][&2], 9.25);
        assert_eq!(parsed[0].series["SCQ"][&1], 11.0);
    }

    #[test]
    fn multi_byte_utf8_survives_parsing() {
        let json = r#"[{"title": "Figure 10 — memory (µs)", "unit": "µs", "series": {}}]"#;
        let parsed = parse_bench_json(json).unwrap();
        assert_eq!(parsed[0].title, "Figure 10 — memory (µs)");
        assert_eq!(parsed[0].unit, "µs");
    }

    #[test]
    fn parse_rejects_malformed_artifacts() {
        assert!(parse_bench_json("").is_err());
        assert!(
            parse_bench_json("[{\"title\": \"x\"}]").is_err(),
            "missing unit"
        );
        assert!(parse_bench_json("[1, 2]").is_err());
        assert!(parse_bench_json("{\"title\": \"t\", \"unit\": \"u\"} trailing").is_err());
    }

    #[test]
    fn throughput_drops_beyond_threshold_are_flagged() {
        let base = [table(
            "fig11",
            "Mops/s",
            &[("wCQ", 1, 10.0), ("wCQ", 2, 20.0)],
        )];
        let cur = [table(
            "fig11",
            "Mops/s",
            &[("wCQ", 1, 8.5), ("wCQ", 2, 19.0)],
        )];
        let regs = compare(&base, &cur, 0.10);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].series, "wCQ");
        assert_eq!(regs[0].threads, 1);
        assert!(regs[0].change < -0.10);
        assert!(regs[0].to_string().contains("fig11"));
    }

    #[test]
    fn memory_tables_regress_in_the_other_direction() {
        let base = [table("footprint", "KiB", &[("LCRQ", 2, 100.0)])];
        let shrunk = [table("footprint", "KiB", &[("LCRQ", 2, 50.0)])];
        let grown = [table("footprint", "KiB", &[("LCRQ", 2, 150.0)])];
        assert!(compare(&base, &shrunk, 0.10).is_empty(), "smaller is fine");
        assert_eq!(compare(&base, &grown, 0.10).len(), 1, "growth regresses");
    }

    #[test]
    fn latency_tables_regress_upward() {
        // The BENCH_*_latency.json artifacts report percentile rows in "ns";
        // lower is better there, so only growth beyond the threshold flags.
        let base = [table(
            "channel latency",
            "ns",
            &[("channel/wLSCQ send p99", 8, 1000.0)],
        )];
        assert!(!base[0].higher_is_better());
        let faster = [table(
            "channel latency",
            "ns",
            &[("channel/wLSCQ send p99", 8, 500.0)],
        )];
        let slower = [table(
            "channel latency",
            "ns",
            &[("channel/wLSCQ send p99", 8, 1500.0)],
        )];
        assert!(
            compare(&base, &faster, 0.10).is_empty(),
            "a lower percentile is an improvement"
        );
        let regs = compare(&base, &slower, 0.10);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].series, "channel/wLSCQ send p99");
        assert!(regs[0].change < -0.10, "signed so negative is worse");
    }

    #[test]
    fn improvements_and_unmatched_cells_are_ignored() {
        let base = [table(
            "fig11",
            "Mops/s",
            &[("wCQ", 1, 10.0), ("gone", 1, 5.0)],
        )];
        let cur = [table(
            "fig11",
            "Mops/s",
            &[("wCQ", 1, 30.0), ("new", 1, 1.0)],
        )];
        assert!(compare(&base, &cur, 0.10).is_empty());
        // Entirely unmatched tables are skipped too.
        let other = [table("fig12", "Mops/s", &[("wCQ", 1, 0.1)])];
        assert!(compare(&base, &other, 0.10).is_empty());
    }

    #[test]
    fn sharded_artifact_shape_round_trips_and_diffs_per_shard_series() {
        // The BENCH_sharded.json shape: one table per workload whose series
        // are the shard-count sweep ("Sharded wLSCQ x1" ... "x8") and the
        // unsharded wLSCQ and LCRQ baselines — exactly the series
        // bench_sharded emits.
        let mut t = FigureTable::new(
            "Sharded wLSCQ scaling: pairwise enq-deq throughput",
            "Mops/s",
        );
        for (shards, v) in [(1, 10.0), (2, 14.0), (4, 19.0), (8, 21.0)] {
            t.record(&format!("Sharded wLSCQ x{shards}"), 8, v);
        }
        t.record("wLSCQ", 8, 9.5);
        t.record("LCRQ", 8, 11.0);
        let json = format!("[\n{}\n]\n", t.render_json().trim_end());
        let parsed = parse_bench_json(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        let table = &parsed[0];
        assert!(table.higher_is_better());
        assert_eq!(table.series.len(), 6, "{:?}", table.series.keys());
        assert_eq!(table.series["Sharded wLSCQ x4"][&8], 19.0);

        // A drop in one shard-count series is attributed to that series only.
        let mut current = parsed.clone();
        current[0]
            .series
            .get_mut("Sharded wLSCQ x4")
            .unwrap()
            .insert(8, 12.0);
        let regs = compare(&parsed, &current, 0.10);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].series, "Sharded wLSCQ x4");
        assert_eq!(regs[0].threads, 8);
    }

    #[test]
    fn scenario_latency_artifact_shape_round_trips_and_regresses_upward() {
        // The BENCH_scenario_latency.json shape: one "ns" table whose series
        // are "{pattern}/{backend} {stage} {percentile}" rows — steady and
        // bursty arrivals, two backends, queue-wait and e2e stages — keyed by
        // worker count.  Exactly what bench_scenario emits.
        let mut t = FigureTable::new(
            "Open-loop scenario latency from intended start: steady vs bursty arrivals",
            "ns",
        );
        for pattern in ["steady", "bursty"] {
            for backend in ["wLSCQ", "Sharded wLSCQ x4"] {
                for stage in ["queue-wait", "e2e"] {
                    for (p, v) in [
                        ("p50", 800.0),
                        ("p90", 2_000.0),
                        ("p99", 9_000.0),
                        ("p999", 40_000.0),
                    ] {
                        t.record(&format!("{pattern}/{backend} {stage} {p}"), 4, v);
                    }
                }
            }
        }
        let json = format!("[\n{}\n]\n", t.render_json().trim_end());
        let parsed = parse_bench_json(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        let table = &parsed[0];
        assert_eq!(table.unit, "ns");
        assert!(
            !table.higher_is_better(),
            "latency percentiles regress upward"
        );
        assert_eq!(table.series.len(), 32, "{:?}", table.series.keys());
        assert_eq!(
            table.series["bursty/Sharded wLSCQ x4 e2e p999"][&4],
            40_000.0
        );

        // A grown p99 tail is a regression pinned to that exact row; a
        // shrunken one is an improvement and stays silent.
        let mut slower = parsed.clone();
        slower[0]
            .series
            .get_mut("bursty/wLSCQ queue-wait p99")
            .unwrap()
            .insert(4, 12_000.0);
        let regs = compare(&parsed, &slower, 0.10);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].series, "bursty/wLSCQ queue-wait p99");
        assert!(regs[0].change < -0.10, "signed so negative is worse");
        let mut faster = parsed.clone();
        faster[0]
            .series
            .get_mut("bursty/wLSCQ queue-wait p99")
            .unwrap()
            .insert(4, 2_000.0);
        assert!(compare(&parsed, &faster, 0.10).is_empty());
    }

    #[test]
    fn worst_regression_sorts_first() {
        let base = [table("t", "Mops/s", &[("a", 1, 10.0), ("b", 1, 10.0)])];
        let cur = [table("t", "Mops/s", &[("a", 1, 8.0), ("b", 1, 2.0)])];
        let regs = compare(&base, &cur, 0.10);
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].series, "b");
    }
}
