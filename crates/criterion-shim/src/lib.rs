//! # nca-criterion — offline stand-in for the `criterion` crate
//!
//! The workspace builds in containers with no access to crates.io, so
//! the external `criterion` dev-dependency is replaced by this shim
//! (wired up via dependency renaming in the workspace `Cargo.toml`).
//!
//! It keeps the criterion 0.5 API the workspace's benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`], [`BenchmarkId`],
//! [`Throughput`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros — but the statistics are deliberately simple: per sample it
//! times a fixed iteration batch and reports min / mean / max
//! nanoseconds per iteration (plus derived throughput). There are no
//! saved baselines, HTML reports, or outlier analysis.
//!
//! Default budget per benchmark is small (10 samples, ~1 s measurement,
//! 500 ms warm-up) so `cargo bench` over the whole workspace stays
//! fast; groups can override via the usual `sample_size` /
//! `measurement_time` / `warm_up_time` setters.
//!
//! Each report line carries min/mean/max plus nearest-rank p50/p95.
//! Criterion's named baselines are supported in TSV form:
//! `cargo bench -- --save-baseline NAME` records every benchmark's
//! stats under `target/nca-criterion/NAME.tsv` (or
//! `$NCA_CRITERION_DIR`), and `cargo bench -- --baseline NAME` prints
//! the percent change of mean/p50/p95 against that file.
//!
//! Alongside the TSV, `--save-baseline NAME` also writes a
//! machine-readable `NAME.json` (`nca-criterion-baseline` document):
//! one entry per benchmark with mean/p50/p95 ns-per-iteration and, when
//! the group declared a [`Throughput`], the per-iteration amount plus
//! the derived per-second rate. This is the artifact committed as a
//! benchmark wall (e.g. `BENCH_packet_path.json`) and diffed by CI.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use nca_telemetry::json::{
    self,
    Layout::{Block, Line},
};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortizes setup cost. The shim times each routine
/// call individually, so the variants only influence batching hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many per batch.
    SmallInput,
    /// Large inputs: few per batch.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// Units for reporting throughput alongside time per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A benchmark's display identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id naming a function/parameter pair.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// An id that is just the parameter (group name supplies the rest).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

#[derive(Debug, Clone)]
struct MeasureConfig {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(500),
            throughput: None,
        }
    }
}

/// Passed to the benchmark closure; runs and times the routine.
pub struct Bencher<'a> {
    cfg: &'a MeasureConfig,
    /// Nanoseconds per iteration, one entry per sample.
    samples: Vec<f64>,
}

impl Bencher<'_> {
    /// Time `routine`, called in batches until the measurement budget
    /// is spent.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and estimate a single iteration's cost.
        let warm_start = Instant::now();
        let mut warm_iters: u32 = 0;
        while warm_start.elapsed() < self.cfg.warm_up_time || warm_iters == 0 {
            std_black_box(routine());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let est_per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        let per_sample = self.cfg.measurement_time.as_secs_f64() / self.cfg.sample_size as f64;
        let iters = ((per_sample / est_per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);

        self.samples.clear();
        for _ in 0..self.cfg.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                std_black_box(routine());
            }
            let dt = t0.elapsed().as_nanos() as f64;
            self.samples.push(dt / iters as f64);
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        let mut warm_iters: u32 = 0;
        while warm_start.elapsed() < self.cfg.warm_up_time || warm_iters == 0 {
            let input = setup();
            std_black_box(routine(input));
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }

        let per_sample = self.cfg.measurement_time.as_secs_f64() / self.cfg.sample_size as f64;
        let est = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters = ((per_sample / est.max(1e-9)) as u64).clamp(1, 1_000_000);

        self.samples.clear();
        for _ in 0..self.cfg.sample_size {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let t0 = Instant::now();
            for input in inputs {
                std_black_box(routine(input));
            }
            let dt = t0.elapsed().as_nanos() as f64;
            self.samples.push(dt / iters as f64);
        }
    }
}

/// Nearest-rank percentile of `samples` (any order); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let k = ((q / 100.0) * xs.len() as f64).ceil().max(1.0) as usize;
    xs[k.min(xs.len()) - 1]
}

/// Summary stats of one benchmark as stored in a baseline file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Mean nanoseconds per iteration.
    pub mean: f64,
    /// Median ns/iter (nearest rank).
    pub p50: f64,
    /// 95th-percentile ns/iter (nearest rank).
    pub p95: f64,
}

impl Stats {
    /// Summarize raw per-sample timings.
    pub fn of(samples: &[f64]) -> Option<Stats> {
        if samples.is_empty() {
            return None;
        }
        Some(Stats {
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: percentile(samples, 50.0),
            p95: percentile(samples, 95.0),
        })
    }
}

/// Where baseline TSVs live: `$NCA_CRITERION_DIR` or
/// `target/nca-criterion` relative to the working directory.
pub fn baseline_dir() -> PathBuf {
    std::env::var_os("NCA_CRITERION_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/nca-criterion"))
}

fn baseline_path(dir: &Path, baseline: &str) -> PathBuf {
    dir.join(format!("{baseline}.tsv"))
}

// Baseline files accumulate one line per benchmark across the whole
// `cargo bench` process (many groups, one file): the first write in
// this process truncates any stale file, later ones append.
fn fresh_files() -> &'static Mutex<HashSet<PathBuf>> {
    static SET: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Append one benchmark's stats to baseline `baseline` under `dir`
/// (TSV: `name\tmean\tp50\tp95`). The first save per file in this
/// process truncates it.
pub fn save_baseline_entry(
    dir: &Path,
    baseline: &str,
    bench: &str,
    s: &Stats,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = baseline_path(dir, baseline);
    let truncate = fresh_files().lock().unwrap().insert(path.clone());
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(!truncate)
        .write(true)
        .truncate(truncate)
        .open(&path)?;
    writeln!(f, "{bench}\t{}\t{}\t{}", s.mean, s.p50, s.p95)
}

/// Load baseline `baseline` from `dir`; benchmarks keyed by name.
/// Malformed lines are skipped (forward compatibility).
pub fn load_baseline(dir: &Path, baseline: &str) -> std::io::Result<BTreeMap<String, Stats>> {
    let text = std::fs::read_to_string(baseline_path(dir, baseline))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let mut it = line.split('\t');
        let (Some(name), Some(mean), Some(p50), Some(p95)) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            continue;
        };
        let (Ok(mean), Ok(p50), Ok(p95)) = (mean.parse(), p50.parse(), p95.parse()) else {
            continue;
        };
        out.insert(name.to_string(), Stats { mean, p50, p95 });
    }
    Ok(out)
}

/// One benchmark's entry in the JSON baseline document.
#[derive(Debug, Clone)]
struct JsonEntry {
    name: String,
    stats: Stats,
    throughput: Option<Throughput>,
}

// Entries accumulated per JSON baseline file over the whole process, so
// each `record` can rewrite the complete document (there is no end-of-
// run hook in the criterion_main! contract to flush once).
fn json_entries() -> &'static Mutex<BTreeMap<PathBuf, Vec<JsonEntry>>> {
    static MAP: OnceLock<Mutex<BTreeMap<PathBuf, Vec<JsonEntry>>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Append one benchmark's stats to the JSON mirror of `baseline` under
/// `dir` and rewrite the whole document. Mirrors the TSV lifecycle: the
/// first save per file in this process starts a fresh entry list.
pub fn save_baseline_json_entry(
    dir: &Path,
    baseline: &str,
    bench: &str,
    s: &Stats,
    throughput: Option<Throughput>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{baseline}.json"));
    let mut map = json_entries().lock().unwrap();
    let entries = map.entry(path.clone()).or_default();
    entries.retain(|e| e.name != bench);
    entries.push(JsonEntry {
        name: bench.to_string(),
        stats: *s,
        throughput,
    });
    let doc = json::document(|w| {
        w.field("kind", "nca-criterion-baseline")
            .field("version", 1u64)
            .field("baseline", baseline)
            .key("benches")
            .array(Block, |w| {
                for e in entries.iter() {
                    w.object(Line, |w| {
                        w.field("name", &e.name)
                            .field("mean_ns", e.stats.mean)
                            .field("p50_ns", e.stats.p50)
                            .field("p95_ns", e.stats.p95);
                        if let Some(tp) = e.throughput {
                            let (amount, unit) = match tp {
                                Throughput::Bytes(n) => (n, "bytes"),
                                Throughput::Elements(n) => (n, "elements"),
                            };
                            w.field("unit", unit)
                                .field("per_iter", amount)
                                .field("per_sec", amount as f64 / (e.stats.mean / 1e9));
                        }
                    });
                }
            });
    });
    std::fs::write(&path, doc)
}

#[derive(Debug, Clone, Default)]
enum BaselineMode {
    #[default]
    Off,
    Save(String),
    Compare(String, BTreeMap<String, Stats>),
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| {
            let prefix = format!("{name}=");
            args.iter()
                .find_map(|a| a.strip_prefix(&prefix).map(str::to_string))
        })
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn report(name: &str, cfg: &MeasureConfig, samples: &[f64]) -> Option<Stats> {
    let Some(stats) = Stats::of(samples) else {
        println!("{name:<40} (no samples collected)");
        return None;
    };
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut line = format!(
        "{:<40} time: [{} {} {}] p50: {} p95: {}",
        name,
        fmt_ns(min),
        fmt_ns(stats.mean),
        fmt_ns(max),
        fmt_ns(stats.p50),
        fmt_ns(stats.p95)
    );
    let mean = stats.mean;
    if let Some(tp) = cfg.throughput {
        let (amount, unit) = match tp {
            Throughput::Bytes(n) => (n as f64, "B"),
            Throughput::Elements(n) => (n as f64, "elem"),
        };
        let per_sec = amount / (mean / 1e9);
        let thr = if unit == "B" && per_sec >= 1e9 {
            format!("{:.3} GiB/s", per_sec / (1u64 << 30) as f64)
        } else if unit == "B" && per_sec >= 1e6 {
            format!("{:.3} MiB/s", per_sec / (1u64 << 20) as f64)
        } else {
            format!("{per_sec:.0} {unit}/s")
        };
        line.push_str(&format!(" thrpt: {thr}"));
    }
    println!("{line}");
    Some(stats)
}

/// Benchmark registry/driver (stand-in for `criterion::Criterion`).
/// `Default` picks up `--save-baseline NAME` / `--baseline NAME` from
/// the process arguments (the criterion CLI contract under
/// `cargo bench -- …`).
pub struct Criterion {
    mode: BaselineMode,
    dir: PathBuf,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let dir = baseline_dir();
        let mode = if let Some(name) = arg_value(&args, "--save-baseline") {
            BaselineMode::Save(name)
        } else if let Some(name) = arg_value(&args, "--baseline") {
            match load_baseline(&dir, &name) {
                Ok(entries) => BaselineMode::Compare(name, entries),
                Err(e) => {
                    eprintln!("warning: cannot load baseline '{name}': {e}");
                    BaselineMode::Off
                }
            }
        } else {
            BaselineMode::Off
        };
        Criterion { mode, dir }
    }
}

impl Criterion {
    fn record(&mut self, name: &str, cfg: &MeasureConfig, samples: &[f64]) {
        let Some(stats) = report(name, cfg, samples) else {
            return;
        };
        match &self.mode {
            BaselineMode::Off => {}
            BaselineMode::Save(b) => {
                if let Err(e) = save_baseline_entry(&self.dir, b, name, &stats) {
                    eprintln!("warning: cannot save baseline '{b}': {e}");
                }
                if let Err(e) = save_baseline_json_entry(&self.dir, b, name, &stats, cfg.throughput)
                {
                    eprintln!("warning: cannot save JSON baseline '{b}': {e}");
                }
            }
            BaselineMode::Compare(b, entries) => match entries.get(name) {
                Some(base) => {
                    let pct = |new: f64, old: f64| {
                        if old > 0.0 {
                            (new - old) / old * 100.0
                        } else {
                            0.0
                        }
                    };
                    println!(
                        "{:<40} change vs '{b}': mean {:+.2}%  p50 {:+.2}%  p95 {:+.2}%",
                        "",
                        pct(stats.mean, base.mean),
                        pct(stats.p50, base.p50),
                        pct(stats.p95, base.p95)
                    );
                }
                None => println!("{:<40} (no entry in baseline '{b}')", ""),
            },
        }
    }

    /// Run a single benchmark function.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let cfg = MeasureConfig::default();
        let mut b = Bencher {
            cfg: &cfg,
            samples: Vec::new(),
        };
        f(&mut b);
        self.record(name, &cfg, &b.samples);
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            cfg: MeasureConfig::default(),
        }
    }
}

/// A group of benchmarks sharing a name prefix and measurement config.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    cfg: MeasureConfig,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.cfg.sample_size = n.max(1);
        self
    }

    /// Set the total measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.cfg.measurement_time = d;
        self
    }

    /// Set the warm-up budget per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.cfg.warm_up_time = d;
        self
    }

    /// Report throughput derived from time-per-iteration.
    pub fn throughput(&mut self, tp: Throughput) -> &mut Self {
        self.cfg.throughput = Some(tp);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            cfg: &self.cfg,
            samples: Vec::new(),
        };
        f(&mut b);
        let name = format!("{}/{}", self.name, id.id);
        self.parent.record(&name, &self.cfg, &b.samples);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher {
            cfg: &self.cfg,
            samples: Vec::new(),
        };
        f(&mut b, input);
        let name = format!("{}/{}", self.name, id.id);
        self.parent.record(&name, &self.cfg, &b.samples);
        self
    }

    /// End the group (no-op; provided for API compatibility).
    pub fn finish(self) {}
}

/// Bundle benchmark functions into a single runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> MeasureConfig {
        MeasureConfig {
            sample_size: 3,
            measurement_time: Duration::from_millis(30),
            warm_up_time: Duration::from_millis(5),
            throughput: None,
        }
    }

    #[test]
    fn iter_collects_requested_samples() {
        let cfg = fast_cfg();
        let mut b = Bencher {
            cfg: &cfg,
            samples: Vec::new(),
        };
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(b.samples.len(), 3);
        assert!(b.samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn iter_batched_runs_setup_per_input() {
        let cfg = fast_cfg();
        let mut b = Bencher {
            cfg: &cfg,
            samples: Vec::new(),
        };
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert_eq!(b.samples.len(), 3);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 95.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let s = Stats::of(&xs).unwrap();
        assert_eq!(s.mean, 3.0);
        assert_eq!((s.p50, s.p95), (3.0, 5.0));
    }

    #[test]
    fn baseline_save_load_round_trips_and_first_save_truncates() {
        let dir = std::env::temp_dir().join(format!("nca-criterion-test-{}", std::process::id()));
        // A stale file from a previous run must not leak entries.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.tsv"), "stale\t1\t1\t1\n").unwrap();
        let s1 = Stats {
            mean: 10.0,
            p50: 9.0,
            p95: 12.5,
        };
        let s2 = Stats {
            mean: 20.0,
            p50: 19.0,
            p95: 25.0,
        };
        save_baseline_entry(&dir, "b", "bench/one", &s1).unwrap();
        save_baseline_entry(&dir, "b", "bench/two", &s2).unwrap();
        let loaded = load_baseline(&dir, "b").unwrap();
        assert!(!loaded.contains_key("stale"), "first save must truncate");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded["bench/one"], s1);
        assert_eq!(loaded["bench/two"], s2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_baseline_accumulates_entries_with_throughput() {
        let dir = std::env::temp_dir().join(format!("nca-criterion-json-{}", std::process::id()));
        let s = Stats {
            mean: 1000.0,
            p50: 900.0,
            p95: 1500.0,
        };
        save_baseline_json_entry(&dir, "j", "grp/one", &s, Some(Throughput::Elements(50))).unwrap();
        save_baseline_json_entry(&dir, "j", "grp/two", &s, None).unwrap();
        // Re-recording the same bench must replace, not duplicate.
        save_baseline_json_entry(&dir, "j", "grp/one", &s, Some(Throughput::Bytes(64))).unwrap();
        let text = std::fs::read_to_string(dir.join("j.json")).unwrap();
        assert!(text.contains("\"kind\": \"nca-criterion-baseline\""));
        assert!(text.contains("\"version\": 1"));
        assert!(text.contains("\"baseline\": \"j\""));
        assert_eq!(text.matches("grp/one").count(), 1, "no duplicate entries");
        assert!(text.contains("\"unit\": \"bytes\", \"per_iter\": 64"));
        // 64 bytes per 1000 ns mean -> 64e6 bytes/s.
        assert!(text.contains("\"per_sec\": 64000000"));
        assert!(text.contains("\"name\": \"grp/two\", \"mean_ns\": 1000"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_baseline_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("nca-criterion-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("m.tsv"),
            "good\t1\t2\t3\nbad line\nworse\tx\ty\tz\n",
        )
        .unwrap();
        let loaded = load_baseline(&dir, "m").unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded["good"].p95, 3.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_api_chains() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim_selftest");
        g.sample_size(2)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(2))
            .throughput(Throughput::Bytes(64));
        g.bench_with_input(BenchmarkId::from_parameter("p"), &3u32, |b, &n| {
            b.iter(|| n * 2)
        });
        g.finish();
    }
}
