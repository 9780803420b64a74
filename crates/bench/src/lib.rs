//! Shared helpers for the table generators, and the deterministic bench
//! gates.
//!
//! Each binary in `src/bin/` regenerates one artefact of the paper's
//! evaluation (see `DESIGN.md` §4 for the experiment index). The
//! deterministic gates live in the modules below: each runs its scenario
//! and returns a report whose `violations` list is empty when every
//! invariant held. The tier-1 tests in `tests/bench_gates.rs` assert that
//! list is empty; the bins print the report's table, write its
//! `BENCH_<name>.json` through [`Rows`], and exit 1 on any violation.
//! Host-side performance is the standalone `perfbench` package's job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::Instant;

pub mod campaign;
pub mod fleet_verify;
pub mod segcache;
pub mod session;
pub mod toctou;
pub mod trace_report;

/// Quick host-side timing: median nanoseconds per iteration of `f` over
/// `iters` runs (keeps the table binaries fast and dependency-free).
pub fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    // Warm up.
    f();
    let mut samples: Vec<f64> = (0..iters.min(32))
        .map(|_| {
            let inner = (iters / 32).max(1);
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(inner)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// Renders a simple fixed-width table with a header row.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>], widths: &[usize]) -> String {
    assert_eq!(headers.len(), widths.len(), "headers and widths must align");
    let mut out = String::new();
    let fmt_row = |cells: &[String], out: &mut String| {
        for (cell, width) in cells.iter().zip(widths.iter()) {
            out.push_str(&format!("{cell:>width$}  "));
        }
        out.push('\n');
    };
    fmt_row(
        &headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>(),
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &mut out);
    }
    out
}

/// Formats a milliseconds value the way the paper's tables do.
#[must_use]
pub fn fmt_ms(ms: f64) -> String {
    format!("{ms:.3}")
}

/// SplitMix64: the seeded generator behind every bench's random inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The rows of one `BENCH_<bench>.json` file. Every row is the object
/// `{bench, metric, value, unit, seed}`; `bench` and `seed` are shared by
/// all rows of a file. A seed of 0 marks a bench that draws no
/// randomness.
#[derive(Debug)]
pub struct Rows {
    bench: &'static str,
    seed: u64,
    rows: Vec<(String, f64, &'static str)>,
}

impl Rows {
    /// An empty row set for `bench`, run with `seed`.
    #[must_use]
    pub fn new(bench: &'static str, seed: u64) -> Self {
        Self {
            bench,
            seed,
            rows: Vec::new(),
        }
    }

    /// Appends one metric row.
    pub fn push(&mut self, metric: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((metric.into(), value, unit));
    }

    /// The JSON array of rows, one row per line.
    ///
    /// # Errors
    ///
    /// A non-finite value has no JSON spelling; it is reported with its
    /// metric name instead of being written.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = String::from("[\n");
        for (i, (metric, value, unit)) in self.rows.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!(
                    "{}: metric {metric:?} is {value}, not a finite number",
                    self.bench
                ));
            }
            let _ = writeln!(
                out,
                "  {{\"bench\": {}, \"metric\": {}, \"value\": {value}, \"unit\": {}, \"seed\": {}}}{}",
                json_string(self.bench),
                json_string(metric),
                json_string(unit),
                self.seed,
                if i + 1 == self.rows.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        Ok(out)
    }
}

/// Ends a gate binary: writes `rows` (if any) to `BENCH_<bench>.json` in
/// the working directory, then prints `held` and returns, or prints every
/// violation prefixed with `tag` and exits 1.
pub fn finish(rows: Option<&Rows>, mut violations: Vec<String>, tag: &str, held: &str) {
    if let Some(rows) = rows {
        let path = format!("BENCH_{}.json", rows.bench);
        match rows.to_json().and_then(|json| {
            std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))
        }) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => violations.push(e),
        }
    }
    if violations.is_empty() {
        println!("{held}");
        return;
    }
    for violation in &violations {
        eprintln!("{tag}: {violation}");
    }
    std::process::exit(1);
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_returns_positive() {
        let ns = time_ns(64, || {
            std::hint::black_box(1 + 1);
        });
        assert!(ns >= 0.0);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "b"],
            &[vec!["1".to_string(), "2".to_string()]],
            &[5, 8],
        );
        assert!(t.contains("a"));
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn fmt_ms_three_decimals() {
        assert_eq!(fmt_ms(754.0321), "754.032");
        assert_eq!(fmt_ms(0.017), "0.017");
    }

    #[test]
    #[should_panic(expected = "headers and widths")]
    fn render_table_checks_widths() {
        let _ = render_table(&["a"], &[], &[1, 2]);
    }
}
