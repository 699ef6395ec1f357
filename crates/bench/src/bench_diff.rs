//! Compare two `nca-criterion-baseline` JSON documents (the format the
//! criterion shim's `--save-baseline` writes and the committed
//! `BENCH_*.json` files hold).
//!
//! This is the engine behind `ncmt_cli bench-diff`, which the CI
//! `bench-gate` job runs to hold the perf floor: a fresh baseline is
//! measured on the runner and compared against the committed one on
//! throughput (`per_sec`). Throughput is the comparison axis — not raw
//! mean nanoseconds — because every tracked bench declares a unit
//! (pkts, bytes, runs) and `per_sec` is the number the experiments
//! report, so a regression here is a regression in a headline figure.
//!
//! Policy (mirrored in `DESIGN.md` §4e): a bench whose new throughput
//! is more than `fail_over` percent below the committed baseline fails
//! the gate; above `warn_over` percent it warns; improvements never
//! fail. A tracked bench that vanished from the new run is a failure —
//! a silently skipped bench would otherwise read as "no regression".
//! Benches only present in the new run are reported as `new` and pass
//! (they gain a floor once the baseline is regenerated). `--require
//! A>B` assertions compare two benches of the *new* run against each
//! other, for invariants that a single-bench threshold cannot express
//! (the parallel sweep must beat the serial sweep).

use nca_telemetry::json::Json;

/// One tracked benchmark from a baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub name: String,
    pub per_sec: f64,
    pub mean_ns: f64,
    pub unit: String,
}

/// Parse an `nca-criterion-baseline` document into its bench entries.
pub fn parse_baseline(text: &str) -> Result<Vec<BenchEntry>, String> {
    let json = Json::parse(text)?;
    match json.path("kind").and_then(Json::as_str) {
        Some("nca-criterion-baseline") => {}
        Some(other) => return Err(format!("not a bench baseline (kind = {other:?})")),
        None => return Err("not a bench baseline (no `kind` field)".into()),
    }
    // Committed baselines predate the `version` field; absent means v1.
    match json.path("version").and_then(Json::as_f64) {
        None => {}
        Some(1.0) => {}
        Some(v) => return Err(format!("unsupported bench-baseline version {v}")),
    }
    let benches = json
        .path("benches")
        .and_then(Json::as_arr)
        .ok_or("baseline has no `benches` array")?;
    benches
        .iter()
        .map(|b| {
            let mean_ns = b
                .path("mean_ns")
                .and_then(Json::as_f64)
                .ok_or("bench entry missing numeric `mean_ns`")?;
            // Benches without a declared throughput (e.g. the
            // telemetry_overhead group) are gated on iterations/sec, so
            // everything compares on one faster-is-more axis.
            let per_sec = b
                .path("per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(1e9 / mean_ns);
            Ok(BenchEntry {
                name: b
                    .path("name")
                    .and_then(Json::as_str)
                    .ok_or("bench entry missing `name`")?
                    .to_string(),
                per_sec,
                mean_ns,
                unit: b
                    .path("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("iter")
                    .to_string(),
            })
        })
        .collect()
}

/// Verdict for one benchmark of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the warn threshold (or improved).
    Ok,
    /// Slower than baseline by more than the warn threshold.
    Warn,
    /// Slower than baseline by more than the fail threshold.
    Fail,
    /// Tracked in the baseline but absent from the new run.
    Missing,
    /// Present only in the new run (no floor yet).
    New,
}

/// One row of the comparison table.
#[derive(Debug, Clone)]
pub struct DiffLine {
    pub name: String,
    pub unit: String,
    /// Baseline throughput (0 for `New` rows).
    pub base_per_sec: f64,
    /// New throughput (0 for `Missing` rows).
    pub new_per_sec: f64,
    /// Relative throughput change in percent (positive = faster).
    pub change_pct: f64,
    pub verdict: Verdict,
}

/// One `--require A>B` assertion, evaluated on the new run.
#[derive(Debug, Clone)]
pub struct RequireLine {
    pub faster: String,
    pub slower: String,
    /// `per_sec` of the two sides in the new run, when both exist.
    pub values: Option<(f64, f64)>,
    pub passed: bool,
}

/// The full comparison: per-bench rows plus cross-bench assertions.
#[derive(Debug)]
pub struct BenchDiff {
    pub lines: Vec<DiffLine>,
    pub requires: Vec<RequireLine>,
    pub warn_over: f64,
    pub fail_over: f64,
}

impl BenchDiff {
    /// Number of gate failures (regressions beyond `fail_over`, tracked
    /// benches missing from the new run, failed `--require` assertions).
    pub fn failures(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| matches!(l.verdict, Verdict::Fail | Verdict::Missing))
            .count()
            + self.requires.iter().filter(|r| !r.passed).count()
    }

    /// Number of warn-level slowdowns.
    pub fn warnings(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.verdict == Verdict::Warn)
            .count()
    }

    /// Human-readable table, one row per bench plus assertion lines.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let (n, b, s, c, v) = ("bench", "base/s", "new/s", "change", "verdict");
        let _ = writeln!(out, "{n:<44} {b:>14} {s:>14} {c:>9}  {v}");
        for l in &self.lines {
            let verdict = match l.verdict {
                Verdict::Ok => "ok",
                Verdict::Warn => "WARN",
                Verdict::Fail => "FAIL",
                Verdict::Missing => "FAIL (missing)",
                Verdict::New => "new",
            };
            let fmt = |v: f64| {
                if v == 0.0 {
                    "-".to_string()
                } else {
                    format!("{v:.0}")
                }
            };
            let change = match l.verdict {
                Verdict::Missing | Verdict::New => "-".to_string(),
                _ => format!("{:+.1}%", l.change_pct),
            };
            let _ = writeln!(
                out,
                "{:<44} {:>14} {:>14} {:>9}  {}",
                format!("{} ({})", l.name, l.unit),
                fmt(l.base_per_sec),
                fmt(l.new_per_sec),
                change,
                verdict
            );
        }
        for r in &self.requires {
            let detail = match r.values {
                Some((a, b)) => format!("{:.0}/s vs {:.0}/s", a, b),
                None => "bench missing from new run".to_string(),
            };
            let _ = writeln!(
                out,
                "require {} > {}: {} ({})",
                r.faster,
                r.slower,
                if r.passed { "ok" } else { "FAIL" },
                detail
            );
        }
        let _ = writeln!(
            out,
            "{} bench(es): {} failure(s), {} warning(s) (fail > {:.0}%, warn > {:.0}%)",
            self.lines.len(),
            self.failures(),
            self.warnings(),
            self.fail_over,
            self.warn_over
        );
        out
    }
}

/// Compare `new` against `base` on throughput, with `requires` as
/// `(faster, slower)` bench-name pairs asserted on the new run.
pub fn diff_baselines(
    base: &[BenchEntry],
    new: &[BenchEntry],
    warn_over: f64,
    fail_over: f64,
    requires: &[(String, String)],
) -> BenchDiff {
    let find = |set: &[BenchEntry], name: &str| -> Option<BenchEntry> {
        set.iter().find(|e| e.name == name).cloned()
    };
    let mut lines = Vec::new();
    for b in base {
        match find(new, &b.name) {
            Some(n) => {
                // Positive = faster. The drop (negative change) is what
                // the thresholds judge.
                let change_pct = if b.per_sec > 0.0 {
                    (n.per_sec - b.per_sec) / b.per_sec * 100.0
                } else {
                    0.0
                };
                let verdict = if -change_pct > fail_over {
                    Verdict::Fail
                } else if -change_pct > warn_over {
                    Verdict::Warn
                } else {
                    Verdict::Ok
                };
                lines.push(DiffLine {
                    name: b.name.clone(),
                    unit: b.unit.clone(),
                    base_per_sec: b.per_sec,
                    new_per_sec: n.per_sec,
                    change_pct,
                    verdict,
                });
            }
            None => lines.push(DiffLine {
                name: b.name.clone(),
                unit: b.unit.clone(),
                base_per_sec: b.per_sec,
                new_per_sec: 0.0,
                change_pct: 0.0,
                verdict: Verdict::Missing,
            }),
        }
    }
    for n in new {
        if find(base, &n.name).is_none() {
            lines.push(DiffLine {
                name: n.name.clone(),
                unit: n.unit.clone(),
                base_per_sec: 0.0,
                new_per_sec: n.per_sec,
                change_pct: 0.0,
                verdict: Verdict::New,
            });
        }
    }
    let requires = requires
        .iter()
        .map(|(faster, slower)| {
            let values = find(new, faster).zip(find(new, slower));
            match values {
                Some((a, b)) => RequireLine {
                    faster: faster.clone(),
                    slower: slower.clone(),
                    values: Some((a.per_sec, b.per_sec)),
                    passed: a.per_sec > b.per_sec,
                },
                None => RequireLine {
                    faster: faster.clone(),
                    slower: slower.clone(),
                    values: None,
                    passed: false,
                },
            }
        })
        .collect();
    BenchDiff {
        lines,
        requires,
        warn_over,
        fail_over,
    }
}

/// Parse a `--require` value of the form `A>B` into `(A, B)`.
pub fn parse_require(s: &str) -> Option<(String, String)> {
    let (a, b) = s.split_once('>')?;
    let (a, b) = (a.trim(), b.trim());
    (!a.is_empty() && !b.is_empty()).then(|| (a.to_string(), b.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(benches: &[(&str, f64)]) -> String {
        let entries: Vec<String> = benches
            .iter()
            .map(|(name, per_sec)| {
                format!(
                    r#"{{"name": "{name}", "mean_ns": {:.1}, "p50_ns": 1.0, "p95_ns": 1.0, "unit": "pkts", "per_iter": 1, "per_sec": {per_sec:.1}}}"#,
                    1e9 / per_sec
                )
            })
            .collect();
        format!(
            r#"{{"kind": "nca-criterion-baseline", "baseline": "t", "benches": [{}]}}"#,
            entries.join(", ")
        )
    }

    #[test]
    fn parses_the_committed_baseline_format() {
        let entries = parse_baseline(&doc(&[("packet_path_pkts/Specialized", 262331.0)])).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "packet_path_pkts/Specialized");
        assert!((entries[0].per_sec - 262331.0).abs() < 0.5);
        assert_eq!(entries[0].unit, "pkts");
    }

    #[test]
    fn rejects_non_baseline_documents() {
        assert!(parse_baseline(r#"{"kind": "ncmt-run-report"}"#).is_err());
        assert!(parse_baseline(r#"{"benches": []}"#).is_err());
    }

    #[test]
    fn version_field_is_enforced_when_present() {
        // The nca-criterion shim now stamps `"version": 1`; committed
        // baselines without the field stay readable as v1.
        let versioned =
            r#"{"kind": "nca-criterion-baseline", "version": 1, "baseline": "t", "benches": []}"#;
        assert!(parse_baseline(versioned).unwrap().is_empty());
        let future =
            r#"{"kind": "nca-criterion-baseline", "version": 2, "baseline": "t", "benches": []}"#;
        let err = parse_baseline(future).unwrap_err();
        assert!(err.contains("version 2"), "{err}");
    }

    #[test]
    fn synthetic_regression_beyond_10_percent_fails_the_gate() {
        let base = parse_baseline(&doc(&[("a", 1000.0), ("b", 1000.0)])).unwrap();
        // `a` drops 12% (fail), `b` drops 7% (warn only).
        let new = parse_baseline(&doc(&[("a", 880.0), ("b", 930.0)])).unwrap();
        let diff = diff_baselines(&base, &new, 5.0, 10.0, &[]);
        assert_eq!(diff.failures(), 1);
        assert_eq!(diff.warnings(), 1);
        assert_eq!(diff.lines[0].verdict, Verdict::Fail);
        assert_eq!(diff.lines[1].verdict, Verdict::Warn);
    }

    #[test]
    fn improvements_and_small_noise_pass() {
        let base = parse_baseline(&doc(&[("a", 1000.0), ("b", 1000.0)])).unwrap();
        let new = parse_baseline(&doc(&[("a", 3000.0), ("b", 970.0)])).unwrap();
        let diff = diff_baselines(&base, &new, 5.0, 10.0, &[]);
        assert_eq!(diff.failures(), 0);
        assert_eq!(diff.warnings(), 0);
    }

    #[test]
    fn missing_tracked_bench_fails_and_new_bench_passes() {
        let base = parse_baseline(&doc(&[("gone", 1000.0)])).unwrap();
        let new = parse_baseline(&doc(&[("fresh", 1000.0)])).unwrap();
        let diff = diff_baselines(&base, &new, 5.0, 10.0, &[]);
        assert_eq!(diff.failures(), 1);
        let gone = diff.lines.iter().find(|l| l.name == "gone").unwrap();
        assert_eq!(gone.verdict, Verdict::Missing);
        let fresh = diff.lines.iter().find(|l| l.name == "fresh").unwrap();
        assert_eq!(fresh.verdict, Verdict::New);
    }

    #[test]
    fn require_assertion_compares_benches_of_the_new_run() {
        let base = parse_baseline(&doc(&[])).unwrap();
        let new = parse_baseline(&doc(&[("sweep/jobs4", 400.0), ("sweep/serial", 300.0)])).unwrap();
        let req = vec![parse_require("sweep/jobs4>sweep/serial").unwrap()];
        let diff = diff_baselines(&base, &new, 5.0, 10.0, &req);
        assert_eq!(diff.failures(), 0);
        assert!(diff.requires[0].passed);

        let inverted = vec![parse_require("sweep/serial > sweep/jobs4").unwrap()];
        let diff = diff_baselines(&base, &new, 5.0, 10.0, &inverted);
        assert_eq!(diff.failures(), 1);

        // An assertion over a bench the new run never produced fails
        // loudly instead of vacuously passing.
        let absent = vec![parse_require("sweep/jobs8>sweep/serial").unwrap()];
        let diff = diff_baselines(&base, &new, 5.0, 10.0, &absent);
        assert_eq!(diff.failures(), 1);
        assert!(diff.requires[0].values.is_none());
    }

    #[test]
    fn render_mentions_thresholds_and_failures() {
        let base = parse_baseline(&doc(&[("a", 1000.0)])).unwrap();
        let new = parse_baseline(&doc(&[("a", 500.0)])).unwrap();
        let diff = diff_baselines(&base, &new, 5.0, 10.0, &[]);
        let text = diff.render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("-50.0%"));
        assert!(text.contains("fail > 10%"));
    }
}
