//! End-to-end benchmark of the receive-path simulator.
//!
//! One run sets a workload up several times, then repeats timed rounds
//! of it on an `nca_sim::Pool` for a fixed number of seconds. A round is
//! the workload's whole job list plus its post-processing (report and
//! trace rendering, the traffic document). End-to-end metrics come from
//! untraced rounds; with tracing on, traced rounds alternate with
//! untraced ones and give the per-layer split. See `README.md` for the
//! metric table and the layer → metric → workload map.

pub mod host;
mod jobs;
mod setup;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

use nca_core::report::{report_config, strategy_report};
use nca_core::runner::{Experiment, Strategy};
use nca_ddt::dataloop::compile_cached;
use nca_ddt::segment::Segment;
use nca_ddt::sink::NullSink;
use nca_sim::Pool;
use nca_telemetry::hist::LogHistogram;
use nca_telemetry::report::{RunReportDoc, TrafficCell, TrafficDoc};
use nca_telemetry::{export, merge_ring_events, StreamAggregate};

use crate::jobs::{Counts, Ctx, JobOut, Output};
use crate::setup::{mix, Prepared};
use crate::trace::span;

/// The seed claims are made on.
pub const DEFAULT_SEED: u64 = 1;
/// The seed kept back for checking a claim on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 8_675_309;
/// Set-ups per run, at least; `setup_s` is their median. Cheap set-ups
/// repeat until [`SETUP_BUDGET_S`] is spent, so their median settles too.
pub const SETUP_REPS: usize = 5;
pub const SETUP_BUDGET_S: f64 = 1.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AppsFig16,
    FineGrain,
    TrafficMixed,
    Observed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AppsFig16,
        Workload::FineGrain,
        Workload::TrafficMixed,
        Workload::Observed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AppsFig16 => "apps-fig16",
            Workload::FineGrain => "fine-grain",
            Workload::TrafficMixed => "traffic-mixed",
            Workload::Observed => "observed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the seed changes the workload's inputs.
    pub fn seeded(self) -> bool {
        self != Workload::AppsFig16
    }

    /// Untraced rounds every run makes at least, whatever the time
    /// budget: enough timed jobs that the workload, not host speed,
    /// fixes which percentile `job_ms.tail` reports.
    pub fn min_rounds(self) -> usize {
        match self {
            Workload::AppsFig16 => 2,
            Workload::FineGrain => 5,
            Workload::TrafficMixed => 10,
            Workload::Observed => 30,
        }
    }

    /// Output digest of the full-size workload at [`DEFAULT_SEED`]
    /// (any seed for an unseeded workload). Update it only together with
    /// a change that is meant to move simulated outputs.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::AppsFig16 => 0x7302_8740_00ba_943e,
            Workload::FineGrain => 0x642c_07ef_e489_9621,
            Workload::TrafficMixed => 0xb449_f7be_8e26_ff57,
            Workload::Observed => 0x8595_4b51_64f1_5e5d,
        }
    }
}

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A few small inputs instead of the full workload (self-tests).
    pub tiny: bool,
    /// Pool width cap (the pool never exceeds `nproc`).
    pub jobs: usize,
    /// Corrupt a copy of the first receive buffer before verifying it.
    pub corrupt_first: bool,
}

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            tiny: false,
            jobs: host::nproc(),
            corrupt_first: false,
        }
    }
}

/// FNV-1a over the canonical simulated outputs.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Simulated results of a round (deterministic).
#[derive(Debug, Default, Clone)]
struct SimResults {
    /// apps-fig16: host-unpack ÷ best offloaded time, per input.
    pub speedups: Vec<f64>,
    /// traffic-mixed: tenant offer→completion p99 (µs), all cells merged.
    pub p99_us: Option<f64>,
    /// traffic-mixed: total tenant goodput, mean over cells (Gbit/s).
    pub goodput_gbit: Option<f64>,
    /// traffic-mixed: modelled losses ÷ offered.
    pub lost_frac: Option<f64>,
}

/// One timed round.
struct Round {
    /// The untimed first round: it fills caches and arenas, and its
    /// outputs are checked like every other round's.
    pub warmup: bool,
    pub traced: bool,
    pub wall_s: f64,
    /// Peak RSS of the process during the round (MiB).
    pub peak_rss_mib: f64,
    pub pool_wall_s: f64,
    pub workers: usize,
    pub job_ms: Vec<f64>,
    pub busy_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub counts: Counts,
    pub digest: u64,
    pub trace_bytes: u64,
    pub sim: SimResults,
    /// Per-span-name self time and calls (traced rounds).
    pub spans: BTreeMap<&'static str, trace::Totals>,
    /// Spans whose children outlast them (traced rounds; must be 0).
    pub overlaps: u64,
    /// The spans themselves (traced rounds).
    pub raw_spans: Vec<trace::Span>,
}

fn run_round(prep: &Prepared, pool: &Pool, ctx: Ctx) -> Round {
    trace::set_enabled(ctx.traced);
    host::reset_peak_rss();
    let start = Instant::now();
    let mut round = {
        let _r = span("bench.round");
        let pool_start = Instant::now();
        let outs: Vec<JobOut> = {
            let _s = span("sim.pool");
            pool.par_map(prep.jobs.clone(), |i, job| jobs::run(i, &job, ctx))
        };
        let pool_wall_s = pool_start.elapsed().as_secs_f64();
        post_process(
            prep,
            outs,
            pool_wall_s,
            pool.jobs().min(prep.jobs.len()).max(1),
        )
    };
    round.wall_s = start.elapsed().as_secs_f64();
    round.peak_rss_mib = host::peak_rss_mib();
    round.traced = ctx.traced;
    trace::set_enabled(false);
    if ctx.traced {
        let spans = trace::take();
        let (totals, overlaps) = trace::self_times(&spans);
        round.spans = totals;
        round.overlaps = overlaps;
        round.raw_spans = spans;
    }
    round
}

fn post_process(prep: &Prepared, mut outs: Vec<JobOut>, pool_wall_s: f64, workers: usize) -> Round {
    let mut digest = Digest::new();
    let mut counts = Counts::default();
    let mut errors = Vec::new();
    let mut job_ms = Vec::new();
    let mut busy_ms = 0.0;
    for o in &outs {
        digest.write(o.line.as_bytes());
        counts.add(&o.counts);
        busy_ms += o.ms;
        if o.timed {
            job_ms.push(o.ms);
        }
        if let Some(e) = &o.error {
            errors.push(e.clone());
        }
    }
    let mut sim = SimResults::default();
    let mut trace_bytes = 0;
    if let Some(cap) = prep.capture {
        // Observed: each input's four strategy jobs are consecutive.
        for (k, group) in outs.chunks_mut(Strategy::ALL.len()).enumerate() {
            let mut caps = Vec::new();
            for o in group.iter_mut() {
                if let Some(Output::Receive {
                    captured: Some(c), ..
                }) = o.output.take()
                {
                    caps.push(c);
                }
            }
            if caps.len() != Strategy::ALL.len() {
                continue; // a failed job is already counted
            }
            let input = &prep.inputs[k];
            let per_job = caps
                .iter_mut()
                .map(|c| std::mem::take(&mut c.ring))
                .collect();
            let (events, dropped) = {
                let _s = span("telemetry.merge");
                merge_ring_events(per_job, cap.ring_capacity)
            };
            let report = {
                let _s = span("telemetry.report");
                let mut exp = Experiment::new(input.dt.clone(), input.count, input.params.clone());
                exp.epsilon = input.epsilon;
                RunReportDoc {
                    version: RunReportDoc::VERSION,
                    trace_dropped_events: dropped,
                    config: report_config(&exp),
                    strategies: caps
                        .iter()
                        .zip(Strategy::ALL)
                        .map(|(c, s)| strategy_report(&exp, &c.run, &events, s.label()))
                        .collect(),
                }
                .to_json()
            };
            let trace_json = {
                let _s = span("telemetry.trace");
                let aggs: Vec<(&str, &StreamAggregate)> = caps
                    .iter()
                    .zip(Strategy::ALL)
                    .map(|(c, s)| (s.label(), &c.agg))
                    .collect();
                export::chrome_trace_json_with_aggregates(&events, &aggs)
            };
            digest.write(report.as_bytes());
            digest.write(trace_json.as_bytes());
            trace_bytes += trace_json.len() as u64;
        }
    }
    if !prep.traffic.is_empty() {
        let mut cells: Vec<Vec<TrafficCell>> = prep.traffic.iter().map(|_| Vec::new()).collect();
        let mut latency = LogHistogram::new();
        let mut goodput = Vec::new();
        for o in &mut outs {
            if let Some(Output::Cell {
                group,
                cell,
                latency: l,
            }) = o.output.take()
            {
                for h in &l {
                    latency.merge(h);
                }
                goodput.push(cell.tenants.iter().map(|t| t.goodput_gbit).sum::<f64>());
                cells[group].push(cell);
            }
        }
        let _s = span("traffic.report");
        for (spec, cells) in prep.traffic.iter().zip(cells) {
            let doc = TrafficDoc {
                version: TrafficDoc::VERSION,
                seed: spec.seed,
                hpus: spec.hpus as u64,
                strategy: spec.strategy.label().to_string(),
                arrival: spec.arrival.label().to_string(),
                horizon_ps: spec.horizon_ps,
                cells,
            };
            digest.write(doc.to_json().as_bytes());
        }
        sim.p99_us = latency.quantile(0.99).map(|ps| ps as f64 / 1e6);
        sim.goodput_gbit = Some(goodput.iter().sum::<f64>() / goodput.len().max(1) as f64);
        sim.lost_frac = Some(ratio(counts.msgs_lost, counts.msgs_offered));
    }
    // apps-fig16: each input is four receives followed by its baselines.
    let mut best = u64::MAX;
    for o in &outs {
        match &o.output {
            Some(Output::Receive { processing_ps, .. }) => best = best.min(*processing_ps),
            Some(Output::Baselines { host_ps }) => {
                if best != u64::MAX {
                    sim.speedups.push(*host_ps as f64 / best as f64);
                }
                best = u64::MAX;
            }
            _ => {}
        }
    }
    let failed = errors.len() as u64;
    Round {
        warmup: false,
        traced: false,
        wall_s: 0.0,
        peak_rss_mib: 0.0,
        pool_wall_s,
        workers,
        job_ms,
        busy_ms,
        attempted: outs.len() as u64,
        failed,
        errors,
        counts,
        digest: digest.0,
        trace_bytes,
        sim,
        spans: BTreeMap::new(),
        overlaps: 0,
        raw_spans: Vec::new(),
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Candidate tail percentiles, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that leaves at least ten of `n` samples
/// beyond it.
fn tail_percentile(n: usize) -> f64 {
    let mut best = TAIL_LADDER[0];
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= rank + 10 {
            best = p;
        }
    }
    best
}

/// A metric as printed and reported.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        note: String::new(),
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub workload: Workload,
    pub fingerprint: host::Fingerprint,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: u64,
    pub digest_note: String,
    /// Untraced end-to-end metrics, the ones `BENCHMARK.json` gates.
    pub end_to_end: Vec<Metric>,
    /// End-to-end metrics printed for people, not gated (`failed_frac`
    /// and the simulated results).
    pub reported: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
    /// Spans of the last traced round, for writing out.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.reported)
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable report, one metric per line.
    pub fn render(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(o, "workload {}", self.workload.name());
        let _ = writeln!(o, "host {}", self.fingerprint.to_json());
        for m in self
            .end_to_end
            .iter()
            .chain(&self.reported)
            .chain(&self.per_layer)
        {
            let _ = writeln!(
                o,
                "  {:<28} {:>16.6} {:<10} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let _ = writeln!(o, "digest {:016x} {}", self.digest, self.digest_note);
        for n in &self.notes {
            let _ = writeln!(o, "note: {n}");
        }
        for e in self.errors.iter().take(10) {
            let _ = writeln!(o, "FAILED: {e}");
        }
        o
    }

    /// The result line: `correct`, `attempted`, `failed` and the gated
    /// metrics (end-to-end untraced, per-layer traced).
    pub fn result_json(&self, traced: bool) -> String {
        let ms = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = ms
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Replays `Segment::process_range` over every input's packet ranges,
/// once in order and once shuffled; returns blocks walked per second.
fn segment_replay(prep: &Prepared, seed: u64) -> f64 {
    /// Shuffled replays restart from the message start whenever they
    /// step backwards; cap the ranges so the replay stays short.
    const MAX_SHUFFLED: usize = 256;
    let mut blocks = 0u64;
    let mut secs = 0.0;
    for (k, input) in prep.inputs.iter().enumerate() {
        let dl = compile_cached(&input.dt, input.count);
        let k_pay = input.params.payload_size;
        let npkt = dl.size.div_ceil(k_pay).max(1);
        let in_order: Vec<u64> = (0..npkt).collect();
        let mut shuffled = in_order.clone();
        for i in (1..shuffled.len()).rev() {
            let j = (mix(seed, (k as u64) << 32 | i as u64) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        shuffled.truncate(MAX_SHUFFLED);
        for order in [in_order, shuffled] {
            let mut seg = Segment::new(dl.clone());
            let t = Instant::now();
            for p in order {
                let first = p * k_pay;
                let last = (first + k_pay).min(dl.size);
                seg.process_range(first, last, &mut NullSink)
                    .expect("packet range within message");
            }
            secs += t.elapsed().as_secs_f64();
            blocks += seg.stats.blocks_emitted + seg.stats.catchup_blocks;
        }
    }
    if secs > 0.0 {
        blocks as f64 / secs
    } else {
        0.0
    }
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Outcome {
    let pool = Pool::new(opts.jobs.clamp(1, host::nproc()));
    let fingerprint = host::Fingerprint::probe(pool.jobs());

    // Set-up, several times; the last one is kept.
    trace::set_enabled(opts.trace);
    let mut setup_s = Vec::new();
    let mut prep = None;
    let budget = if opts.tiny { 0.0 } else { SETUP_BUDGET_S };
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < budget {
        let t = Instant::now();
        prep = Some(setup::prepare(opts.workload, opts.seed, opts.tiny));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);
    let setup_spans = trace::self_times(&trace::take()).0;
    let prep = prep.expect("at least one set-up");

    let ctx = Ctx {
        engine: prep.engine,
        capture: prep.capture,
        traffic_bucket_ps: prep.traffic.first().map_or(0, |s| s.stream_bucket_ps),
        traffic_hpus: prep.traffic.first().map_or(0, |s| s.hpus as u64),
        traced: false,
        corrupt_first: opts.corrupt_first,
    };
    let timed_jobs = prep
        .jobs
        .iter()
        .filter(|j| !matches!(j, setup::Job::Baselines { .. }))
        .count();
    // A traced run reports per-layer metrics only, so it needs no tail.
    let need = if opts.tiny || opts.trace {
        1
    } else {
        opts.workload.min_rounds()
    };

    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    if !opts.tiny {
        let mut warm = run_round(&prep, &pool, ctx);
        warm.warmup = true;
        rounds.push(warm);
    }
    loop {
        let untraced = rounds.iter().filter(|r| !r.traced && !r.warmup).count();
        let traced = rounds.iter().filter(|r| r.traced).count();
        let want_traced = opts.trace && traced < untraced;
        rounds.push(run_round(
            &prep,
            &pool,
            Ctx {
                traced: want_traced,
                ..ctx
            },
        ));
        let untraced = rounds.iter().filter(|r| !r.traced && !r.warmup).count();
        let traced = rounds.iter().filter(|r| r.traced).count();
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        let next = median(&walls);
        let enough = untraced >= need && (!opts.trace || traced >= 1);
        if enough && start.elapsed().as_secs_f64() + next > opts.seconds {
            break;
        }
    }
    let seg_rate = if opts.trace {
        segment_replay(&prep, opts.seed)
    } else {
        0.0
    };
    summarize(
        opts,
        fingerprint,
        &setup_s,
        &setup_spans,
        &rounds,
        timed_jobs,
        seg_rate,
    )
}

fn summarize(
    opts: &Options,
    fingerprint: host::Fingerprint,
    setup_s: &[f64],
    setup_spans: &BTreeMap<&'static str, trace::Totals>,
    rounds: &[Round],
    timed_jobs: usize,
    seg_rate: f64,
) -> Outcome {
    let w = opts.workload;
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced && !r.warmup).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    let mut notes = Vec::new();

    // Output check: every round must reproduce the same digest, and the
    // full-size workload at the default seed must match the recorded one.
    let digest = rounds[0].digest;
    let mut digest_note = String::from("(consistent across rounds)");
    let mut digest_ok = rounds.iter().all(|r| r.digest == digest);
    if !digest_ok {
        digest_note = "MISMATCH between rounds".to_string();
    } else if !opts.tiny && (opts.seed == DEFAULT_SEED || !w.seeded()) {
        if digest == w.recorded_digest() {
            digest_note = "(matches the recorded digest)".to_string();
        } else {
            digest_ok = false;
            digest_note = format!("MISMATCH: recorded {:016x}", w.recorded_digest());
        }
    }
    if !digest_ok {
        errors.push(format!("output digest check failed {digest_note}"));
        failed = attempted;
    }
    attempted = attempted.max(1);

    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    notes.push(format!(
        "untraced rounds (wall_s/peak_rss_mib): {}",
        plain
            .iter()
            .map(|r| format!("{:.3}/{:.0}", r.wall_s, r.peak_rss_mib))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let pkt_rates: Vec<f64> = plain
        .iter()
        .map(|r| r.counts.pkts as f64 / r.wall_s)
        .collect();
    let job_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.job_ms.iter().copied())
        .collect();
    let p_tail = tail_percentile(timed_jobs * opts.workload.min_rounds());
    let mut tail = metric("job_ms.tail", "ms", percentile(&job_ms, p_tail));
    tail.note = format!("p{p_tail} of n={}", job_ms.len());
    let end_to_end = vec![
        metric("setup_s", "s", median(setup_s)),
        metric("wall_s", "s", wall_s),
        metric("pkts_per_s", "pkt/s", median(&pkt_rates)),
        metric("job_ms.p50", "ms", median(&job_ms)),
        tail,
        metric(
            "peak_rss_mib",
            "MiB",
            median(&plain.iter().map(|r| r.peak_rss_mib).collect::<Vec<_>>()),
        ),
    ];

    let sim = &rounds[0].sim;
    let mut reported = vec![metric("failed_frac", "ratio", ratio(failed, attempted))];
    let na = |name: &'static str, unit: &'static str, only: &str| Metric {
        name,
        unit,
        value: 0.0,
        note: format!("n/a: {only} only"),
    };
    if sim.speedups.is_empty() {
        reported.push(na("sim.speedup_geomean", "x", "apps-fig16"));
        reported.push(na("sim.speedup_max", "x", "apps-fig16"));
    } else {
        let n = sim.speedups.len() as f64;
        let geo = (sim.speedups.iter().map(|s| s.ln()).sum::<f64>() / n).exp();
        reported.push(metric("sim.speedup_geomean", "x", geo));
        let mut max = metric(
            "sim.speedup_max",
            "x",
            sim.speedups.iter().copied().fold(0.0, f64::max),
        );
        max.note = "(paper: up to ~12x)".to_string();
        reported.push(max);
    }
    match (sim.p99_us, sim.goodput_gbit, sim.lost_frac) {
        (Some(p99), Some(g), Some(l)) => {
            reported.push(metric("sim.p99_us", "us", p99));
            reported.push(metric("sim.goodput_gbit", "Gbit/s", g));
            reported.push(metric("sim.lost_frac", "ratio", l));
        }
        _ => {
            reported.push(na("sim.p99_us", "us", "traffic-mixed"));
            reported.push(na("sim.goodput_gbit", "Gbit/s", "traffic-mixed"));
            reported.push(na("sim.lost_frac", "ratio", "traffic-mixed"));
        }
    }

    let mut per_layer = Vec::new();
    if opts.trace {
        per_layer = layers(
            setup_spans,
            setup_s.len(),
            &plain,
            &traced,
            seg_rate,
            &mut notes,
        );
    }
    Outcome {
        workload: w,
        fingerprint,
        attempted,
        failed,
        errors,
        digest,
        digest_note,
        end_to_end,
        reported,
        per_layer,
        notes,
        spans: traced
            .last()
            .map(|r| r.raw_spans.clone())
            .unwrap_or_default(),
    }
}

/// Median over traced rounds of one span name's self time (s).
fn self_s(traced: &[&Round], name: &str) -> f64 {
    let v: Vec<f64> = traced
        .iter()
        .map(|r| r.spans.get(name).map_or(0, |t| t.self_ns) as f64 / 1e9)
        .collect();
    median(&v)
}

fn layers(
    setup_spans: &BTreeMap<&'static str, trace::Totals>,
    setups: usize,
    plain: &[&Round],
    traced: &[&Round],
    seg_rate: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let per_setup = |name: &str| {
        setup_spans.get(name).map_or(0, |t| t.self_ns) as f64 / 1e9 / setups.max(1) as f64
    };
    let c = traced.last().map(|r| r.counts).unwrap_or_default();
    let s = |name| self_s(traced, name);

    // Pool: busy worker time against the pool's capacity, untraced rounds.
    let busy: Vec<f64> = plain
        .iter()
        .map(|r| r.busy_ms / 1e3 / (r.pool_wall_s * r.workers as f64))
        .collect();
    let wait: Vec<f64> = plain
        .iter()
        .map(|r| (r.pool_wall_s * r.workers as f64 - r.busy_ms / 1e3).max(0.0))
        .collect();

    // Tiling: layer self times plus the harness's own spans and pool idle
    // time must fill the traced rounds' capacity (workers × pool wall +
    // the serial rest of the round).
    let capacity: Vec<f64> = traced
        .iter()
        .map(|r| r.pool_wall_s * r.workers as f64 + (r.wall_s - r.pool_wall_s))
        .collect();
    let attributed: Vec<f64> = traced
        .iter()
        .map(|r| {
            let spans: u64 = r.spans.values().map(|t| t.self_ns).sum();
            let pool_idle = r.pool_wall_s * r.workers as f64 - r.busy_ms / 1e3;
            // `sim.pool` is the main thread waiting for the workers; its
            // time is the capacity the workers fill, not extra work.
            let main_wait = r.spans.get("sim.pool").map_or(0, |t| t.self_ns) as f64 / 1e9;
            spans as f64 / 1e9 - main_wait + pool_idle.max(0.0)
        })
        .collect();
    let gap: Vec<f64> = capacity
        .iter()
        .zip(&attributed)
        .map(|(c, a)| (c - a) / c)
        .collect();
    let overlaps: u64 = traced.iter().map(|r| r.overlaps).sum();
    if overlaps > 0 {
        notes.push(format!(
            "{overlaps} traced span(s) outlast their parent: self times do not tile"
        ));
    }
    let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let trace_mib = traced.last().map_or(0, |r| r.trace_bytes) as f64 / (1 << 20) as f64;
    let handler = s(trace::HANDLER);
    let record = s(trace::RECORD);
    notes.push(format!(
        "traced rounds {}, untraced {}; tracing overhead {:+.4} s per round; unattributed {:.4} of traced capacity",
        traced.len(),
        plain.len(),
        traced_wall - plain_wall,
        median(&gap)
    ));
    notes.push(
        "not measurable from outside: traffic-mixed runs its own receive pipeline inside \
         run_traffic_with, so ddt.*, core.* and spin.* read 0 there, and traffic.cell_self_s \
         holds that pipeline's whole cost"
            .to_string(),
    );

    vec![
        metric("ddt.compile_s", "s", per_setup("ddt.compile")),
        metric("ddt.pack_s", "s", s("ddt.pack")),
        metric(
            "ddt.pack_span_mib",
            "MiB",
            c.pack_bytes as f64 / (1 << 20) as f64,
        ),
        metric("ddt.unpack_s", "s", s("ddt.unpack")),
        metric("ddt.unpack_blocks", "count", c.unpack_blocks as f64),
        metric("ddt.segment_blocks_per_s", "blocks/s", seg_rate),
        metric("core.build_s", "s", s("core.build")),
        metric("core.handler_self_s", "s", handler),
        metric("core.handler_calls", "count", c.handler_calls as f64),
        metric("core.handler_blocks", "count", c.handler_blocks as f64),
        metric("core.catchup_blocks", "count", c.catchup_blocks as f64),
        metric(
            "core.useful_block_frac",
            "ratio",
            ratio(c.handler_blocks, c.handler_blocks + c.catchup_blocks),
        ),
        metric("core.verify_s", "s", s("core.verify")),
        metric("core.baselines_s", "s", s("core.baselines")),
        metric("spin.receive_self_s", "s", s("spin.receive")),
        metric(
            "spin.pkts",
            "count",
            if c.receives > 0 { c.pkts as f64 } else { 0.0 },
        ),
        metric("spin.dma_writes", "count", c.dma_writes as f64),
        metric("spin.eager_frac", "ratio", ratio(c.eager, c.receives)),
        metric(
            "spin.rtx_frac",
            "ratio",
            ratio(c.retransmissions, c.transmissions),
        ),
        metric(
            "spin.host_fallback_pkts",
            "count",
            c.host_fallback_pkts as f64,
        ),
        metric("sim.pool_busy_frac", "ratio", median(&busy)),
        metric("sim.pool_wait_s", "s", median(&wait)),
        metric("traffic.cell_self_s", "s", s("traffic.cell")),
        metric("traffic.msgs_completed", "count", c.msgs_completed as f64),
        metric(
            "traffic.admit_frac",
            "ratio",
            ratio(c.msgs_admitted, c.msgs_offered + c.msgs_retried),
        ),
        metric("traffic.report_s", "s", s("traffic.report")),
        metric(
            "telemetry.events",
            "count",
            traced
                .last()
                .and_then(|r| r.spans.get(trace::RECORD))
                .map_or(0, |t| t.calls) as f64,
        ),
        metric("telemetry.record_s", "s", record),
        metric("telemetry.merge_s", "s", s("telemetry.merge")),
        metric("telemetry.report_s", "s", s("telemetry.report")),
        metric("telemetry.trace_s", "s", s("telemetry.trace")),
        metric("telemetry.trace_mib", "MiB", trace_mib),
        metric("scenario.compile_s", "s", per_setup("scenario.compile")),
        metric("trace.overhead_s", "s", traced_wall - plain_wall),
        metric("trace.unattributed_frac", "ratio", median(&gap)),
        metric("bench.harness_s", "s", s("bench.job") + s("bench.round")),
    ]
}
