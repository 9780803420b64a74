//! Tier-1: the deterministic bench gates, and the `BENCH_*.json` row
//! writer they share.
//!
//! Each gate runs its bench scenario from `proverguard_bench` and
//! asserts the report lists no violated invariant; the matching bin
//! prints the same report as a table. Thresholds (E10 15 %, E12 3 %,
//! E13 2 %, E15 hit rate 99 %, telemetry 1 %) are pinned here so
//! loosening one fails a test. Nothing here writes a file: the rows are rendered and parsed in
//! memory.

use proverguard_bench::{campaign, fleet_verify, segcache, session, toctou, trace_report, Rows};

/// A JSON scalar: the row files hold only strings and numbers.
#[derive(Debug, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
}

type Row = Vec<(String, Json)>;

fn get<'a>(row: &'a Row, key: &str) -> &'a Json {
    &row.iter().find(|(k, _)| k == key).expect(key).1
}

/// A strict parser for the row-file shape: a JSON array of flat objects
/// whose values are strings or numbers.
struct Parser<'a>(std::iter::Peekable<std::str::Chars<'a>>);

impl Parser<'_> {
    fn eat(&mut self, want: char) -> bool {
        while self.0.next_if(|c| c.is_whitespace()).is_some() {}
        self.0.next_if_eq(&want).is_some()
    }

    fn expect(&mut self, want: char) {
        assert!(self.eat(want), "expected {want:?}");
    }

    /// Parses `open item (, item)* close`, or an empty `open close`.
    fn list<T>(&mut self, open: char, close: char, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        self.expect(open);
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                items.push(item(self));
                if self.eat(close) {
                    return items;
                }
                self.expect(',');
            }
        }
        items
    }

    fn string(&mut self) -> String {
        self.expect('"');
        let mut out = String::new();
        loop {
            match self.0.next().expect("unterminated string") {
                '"' => return out,
                '\\' => match self.0.next().expect("escape") {
                    'u' => {
                        let hex: String = (0..4).filter_map(|_| self.0.next()).collect();
                        let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                        out.push(char::from_u32(code).expect("scalar value"));
                    }
                    c @ ('"' | '\\' | '/') => out.push(c),
                    c => panic!("unexpected escape \\{c}"),
                },
                c => {
                    assert!(u32::from(c) >= 0x20, "raw control character in a string");
                    out.push(c);
                }
            }
        }
    }

    fn value(&mut self) -> Json {
        while self.0.next_if(|c| c.is_whitespace()).is_some() {}
        if self.0.peek() == Some(&'"') {
            return Json::Str(self.string());
        }
        let number = |c: &char| c.is_ascii_digit() || "+-.eE".contains(*c);
        let literal: String = std::iter::from_fn(|| self.0.next_if(number)).collect();
        Json::Num(literal.parse().expect("a JSON number"))
    }
}

/// Parses a whole row file.
fn parse_rows(text: &str) -> Vec<Row> {
    let mut p = Parser(text.chars().peekable());
    let rows = p.list('[', ']', |p| {
        p.list('{', '}', |p| {
            let key = p.string();
            p.expect(':');
            (key, p.value())
        })
    });
    let rest: String = p.0.collect();
    assert_eq!(rest.trim(), "", "trailing input after the rows");
    rows
}

/// Asserts the gate held, and that every row of its file parses and
/// carries the bench name and seed under a unique metric name.
fn assert_gate(violations: &[String], rows: &Rows, bench: &str, seed: u64) {
    assert!(
        violations.is_empty(),
        "{bench} gate violations:\n  {}",
        violations.join("\n  ")
    );
    let parsed = parse_rows(&rows.to_json().expect("finite rows"));
    assert!(!parsed.is_empty(), "{bench}: no rows");
    let mut metrics = Vec::new();
    for row in &parsed {
        assert_eq!(get(row, "bench"), &Json::Str(bench.to_string()));
        assert_eq!(get(row, "seed"), &Json::Num(seed as f64));
        assert!(matches!(get(row, "value"), Json::Num(_)));
        assert!(matches!(get(row, "unit"), Json::Str(u) if !u.is_empty()));
        let Json::Str(metric) = get(row, "metric") else {
            panic!("{bench}: metric is not a string");
        };
        assert!(!metrics.contains(metric), "{bench}: metric {metric} twice");
        metrics.push(metric.clone());
    }
}

#[test]
fn trace_report_gate_holds() {
    assert_eq!(trace_report::MAX_MAC_DEVIATION, 0.01);
    let report = trace_report::run();
    assert!(
        report.violations.is_empty(),
        "telemetry violations:\n  {}",
        report.violations.join("\n  ")
    );
}

#[test]
fn segcache_gate_holds() {
    assert_eq!(segcache::MAX_RATIO, 0.15);
    let report = segcache::run();
    assert_gate(
        &report.violations,
        &report.rows(),
        "segcache",
        segcache::SEED,
    );
}

#[test]
fn campaign_gate_holds() {
    let report = campaign::run();
    assert_gate(
        &report.violations,
        &report.rows(),
        "campaign",
        campaign::SEED,
    );
}

#[test]
fn toctou_gate_holds() {
    assert_eq!(toctou::MAX_RATIO, 0.03);
    let report = toctou::run();
    assert_gate(&report.violations, &report.rows(), "toctou", 0);
}

#[test]
fn session_gate_holds() {
    assert_eq!(session::MAX_RATIO, 0.02);
    let report = session::run();
    assert_gate(&report.violations, &report.rows(), "session", 0);
}

#[test]
fn fleet_verify_gate_holds() {
    assert_eq!(fleet_verify::MIN_HIT_RATE, 0.99);
    let report = fleet_verify::run();
    assert!(
        report.violations.is_empty(),
        "fleet-verify violations:\n  {}",
        report.violations.join("\n  ")
    );
    assert_eq!(report.fleet.devices, fleet_verify::CHECK_DEVICES);
    assert_eq!(report.fleet.digest_sweeps, fleet_verify::IMAGES as u64);
}

#[test]
fn row_labels_round_trip_through_json() {
    let label = "quote \" backslash \\ tab \t bell \u{7} end";
    let mut rows = Rows::new("writer \"test\"", 7);
    rows.push(label, 1.5, "unit \\ \"u\"");
    rows.push("integral", 18_284_856.0, "cycles");
    let parsed = parse_rows(&rows.to_json().expect("finite rows"));
    assert_eq!(parsed.len(), 2);
    assert_eq!(get(&parsed[0], "metric"), &Json::Str(label.to_string()));
    assert_eq!(
        get(&parsed[0], "unit"),
        &Json::Str("unit \\ \"u\"".to_string())
    );
    assert_eq!(
        get(&parsed[0], "bench"),
        &Json::Str("writer \"test\"".to_string())
    );
    assert_eq!(get(&parsed[0], "value"), &Json::Num(1.5));
    assert_eq!(get(&parsed[1], "value"), &Json::Num(18_284_856.0));
    assert_eq!(get(&parsed[1], "seed"), &Json::Num(7.0));
}

#[test]
fn row_writer_rejects_non_finite_values() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut rows = Rows::new("writer", 0);
        rows.push("fine", 1.0, "count");
        rows.push("broken", bad, "ratio");
        let err = rows
            .to_json()
            .expect_err("a non-finite value has no JSON form");
        assert!(err.contains("broken"), "error names the metric: {err}");
    }
}
