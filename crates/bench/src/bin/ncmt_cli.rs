//! `ncmt_cli` — command-line experiment driver.
//!
//! Run custom datatype-offload experiments without writing code:
//!
//! ```sh
//! # a strided vector receive: 4096 blocks of 32 doubles, stride 64
//! ncmt_cli vector --count 4096 --blocklen 32 --stride 64 [--hpus 16] [--ooo 7]
//!
//! # irregular fixed-size blocks at seeded random offsets
//! ncmt_cli indexed --blocks 8192 --blocklen 4 --seed 42
//!
//! # one of the Fig. 16 application workloads
//! ncmt_cli app MILC/b
//!
//! # a declarative scenario file (see scenarios/)
//! ncmt_cli run scenarios/fig16.json --report-out fig16.tsv
//! ```
//!
//! Every experiment family compiles down to [`nca_scenario`]: the
//! `vector`/`indexed`/`app`/`fault-sweep`/`traffic` subcommands are
//! thin flag-to-[`Scenario`] wrappers over the same execution layer
//! `run <scenario.json>` uses, so both entry points produce
//! byte-identical tables and artifacts.

use nca_core::report::UTILIZATION_BUCKET_PS;
use nca_core::runner::{CaptureSpec, Experiment, Strategy};
use nca_ddt::types::{elem, Datatype, DatatypeExt};
use nca_scenario::{
    parse_scenario, parse_strategy, FaultsSpec, RunOptions, Scenario, ScenarioKind, TrafficSpec,
    WorkloadSpec,
};
use nca_sim::{profile, FaultSpec, Pool};
use nca_spin::nic::EngineMode;
use nca_spin::params::NicParams;
use nca_spin::sched::QueueDiscipline;
use nca_telemetry::json::Json;
use nca_telemetry::report::{
    diff_reports, ProfileDoc, ProfilePhase, ProfileWorker, DEFAULT_THRESHOLD,
};
use nca_traffic::{app_group, ArrivalKind, APP_GROUPS};
use nca_workloads::apps::all_workloads;

/// One dispatch-table entry: every subcommand is a diverging function,
/// with an optional dedicated `--help` renderer (commands without one
/// fall back to the global usage).
struct Cmd {
    name: &'static str,
    help: Option<fn() -> !>,
    run: fn(&[String]) -> !,
}

/// The single subcommand table: lookup, help dispatch and the
/// unknown-subcommand message all derive from it.
const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "vector",
        help: None,
        run: vector_cmd,
    },
    Cmd {
        name: "indexed",
        help: None,
        run: indexed_cmd,
    },
    Cmd {
        name: "app",
        help: None,
        run: app_cmd,
    },
    Cmd {
        name: "list",
        help: None,
        run: list_cmd,
    },
    Cmd {
        name: "run",
        help: Some(run_usage),
        run: run_cmd,
    },
    Cmd {
        name: "report-diff",
        help: None,
        run: report_diff,
    },
    Cmd {
        name: "bench-diff",
        help: None,
        run: bench_diff,
    },
    Cmd {
        name: "fault-sweep",
        help: Some(fault_sweep_usage),
        run: fault_sweep,
    },
    Cmd {
        name: "traffic",
        help: Some(traffic_usage),
        run: traffic,
    },
    Cmd {
        name: "profile",
        help: Some(profile_usage),
        run: profile_cmd,
    },
];

fn names() -> Vec<&'static str> {
    COMMANDS.iter().map(|c| c.name).collect()
}

/// Whether the args ask for help (`--help`/`-h` anywhere).
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_u64(args: &[String], name: &str, default: u64) -> u64 {
    flag(args, name)
        .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad {name}"))))
        .unwrap_or(default)
}

fn flag_f64(args: &[String], name: &str, default: f64) -> f64 {
    flag(args, name)
        .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad {name}"))))
        .unwrap_or(default)
}

/// Build the worker pool from `--jobs` (falling back to `NCMT_JOBS`,
/// then to the detected core count; see [`Pool::from_env`]).
fn pool(args: &[String]) -> Pool {
    let requested = flag(args, "--jobs").map(|v| v.parse().unwrap_or_else(|_| die("bad --jobs")));
    Pool::from_env(requested)
}

/// Parse the shared fault knobs (`--drop/--dup/--corrupt/--reorder-ns/
/// --fault-seed`) into a [`FaultSpec`]; inert when none are given.
fn fault_spec(args: &[String]) -> FaultSpec {
    FaultSpec {
        drop: flag_f64(args, "--drop", 0.0),
        duplicate: flag_f64(args, "--dup", 0.0),
        corrupt: flag_f64(args, "--corrupt", 0.0),
        reorder_window: flag_u64(args, "--reorder-ns", 0) * 1_000,
        seed: flag_u64(args, "--fault-seed", 1),
    }
}

/// The scenario-schema faults section for the same flags.
fn faults_section(args: &[String]) -> FaultsSpec {
    let f = fault_spec(args);
    FaultsSpec {
        drop: f.drop,
        duplicate: f.duplicate,
        corrupt: f.corrupt,
        reorder_ns: f.reorder_window / 1_000,
        seed: f.seed,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ncmt_cli <{}> [flags]  (see --help)",
        names().join("|")
    );
    std::process::exit(2)
}

fn usage() -> ! {
    println!(
        "ncmt_cli — datatype-offload experiment driver

subcommands:
  vector   --count N --blocklen B --stride S   strided blocks (doubles)
  indexed  --blocks N --blocklen B --seed K    irregular fixed-size blocks
  app      <LABEL>                             a Fig. 16 workload (see `ncmt_cli list`)
  list                                         list application workloads
  run      <SCENARIO.json>                     compile and run a declarative
                                               scenario file (workload × traffic ×
                                               faults × scheduling × sweep; see
                                               scenarios/ and `ncmt_cli run --help`)
  report-diff <BASE> <NEW> [--threshold T]     compare two --report-out files;
                                               exit 1 when any metric regresses
                                               more than T (default 0.05)
  bench-diff <BASE> <NEW> [--fail-over P]      compare two nca-criterion-baseline
             [--warn-over P] [--require A>B]   JSONs (BENCH_*.json) on per_sec;
                                               exit 1 when any bench is more than
                                               P% slower (default fail 10, warn 5)
                                               or a --require assertion fails
  fault-sweep [--seeds N] [fault flags]        run a seed × fault-rate matrix over
                                               all strategies; exit 1 unless every
                                               run is byte-exact & exactly-once
  traffic [--apps A --loads L ...]             open-loop multi-tenant traffic sweep:
                                               offered-load × discipline grid with
                                               per-tenant p50/p99/p999 + drop counts
  profile [--count N ...]                      self-profile a serial strategy sweep:
                                               attribute host wall-clock to simulator
                                               phases (event queue, handlers, DMA
                                               copies, telemetry, allocation) and
                                               write an ncmt-profile JSON artifact

`ncmt_cli run --help` / `ncmt_cli fault-sweep --help` /
`ncmt_cli traffic --help` / `ncmt_cli profile --help` print the full
per-subcommand flag reference.

fault flags (vector/indexed/app/fault-sweep):
  --drop P        per-packet drop probability (default 0)
  --dup P         per-packet duplication probability (default 0)
  --corrupt P     per-packet payload-corruption probability (default 0)
  --reorder-ns W  extra-delay reordering window in ns (default 0)
  --fault-seed K  fault-schedule seed (default 1; sweep uses K..K+N-1)

common flags:
  --jobs N        worker threads for the strategy/sweep loops (default:
                  NCMT_JOBS, else the detected core count; 0 = auto;
                  artifacts are byte-identical at any N)
  --hpus N        handler processing units (default 16)
  --copies N      datatype repetition count (default 1)
  --ooo SEED      shuffle payload-packet arrival order
  --engine M      DMA engine: auto | event | eager (default auto; an
                  eager request under telemetry capture falls back to
                  the event engine and flags it in the run report)
  --epsilon E     RW-CP scheduling-overhead bound (default 0.2)
  --trace-out F   write a Chrome/Perfetto trace of all strategy runs to F
                  (load at https://ui.perfetto.dev; one process per
                  strategy/component, HPU spans, DMA-queue counters)
  --report-out F  write a machine-readable JSON run report to F: per-strategy
                  latency attribution, histograms, and model-vs-measured
                  validation (schema in EXPERIMENTS.md)"
    );
    std::process::exit(0)
}

/// Shared tail of the `vector`/`indexed`/`app` wrappers: fold the
/// common flags into the scenario, compile, run, emit.
fn strategy_cmd(mut scn: Scenario, args: &[String]) -> ! {
    scn.scheduling.hpus = flag_u64(args, "--hpus", 16);
    scn.scheduling.epsilon = flag_f64(args, "--epsilon", 0.2);
    scn.scheduling.copies = flag_u64(args, "--copies", 1) as u32;
    scn.scheduling.out_of_order =
        flag(args, "--ooo").map(|v| v.parse().unwrap_or_else(|_| die("bad --ooo")));
    scn.scheduling.engine = flag(args, "--engine")
        .map(|s| EngineMode::parse(&s).unwrap_or_else(|| die(&format!("bad --engine {s:?}"))))
        .unwrap_or(EngineMode::Auto);
    scn.faults = faults_section(args);
    run_scenario(&scn, args)
}

/// Compile and run a scenario, then print/write/exit like the legacy
/// subcommands always did.
fn run_scenario(scn: &Scenario, args: &[String]) -> ! {
    let trace_out = flag(args, "--trace-out");
    let report_out = flag(args, "--report-out");
    let plan = scn.compile().unwrap_or_else(|e| die(&e));
    let out = plan.run(
        &pool(args),
        &RunOptions {
            want_trace: trace_out.is_some(),
            want_report: report_out.is_some(),
        },
    );
    emit(out, trace_out.as_ref(), report_out.as_ref())
}

/// Print the run's table, write any requested artifacts, and exit
/// with the run's status.
fn emit(out: nca_scenario::Outcome, trace_out: Option<&String>, report_out: Option<&String>) -> ! {
    print!("{}", out.stdout);
    if let Some(w) = &out.warn {
        eprintln!("{w}");
    }
    if let (Some(t), Some(path)) = (&out.trace, trace_out) {
        std::fs::write(path, &t.text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("{}", t.line.replace("{path}", path));
    }
    if let (Some(a), Some(path)) = (&out.artifact, report_out) {
        std::fs::write(path, &a.text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("{}", a.line.replace("{path}", path));
    }
    if let Some(f) = &out.fail {
        eprintln!("{f}");
        std::process::exit(1)
    }
    if let Some(v) = &out.verdict {
        println!("{v}");
    }
    std::process::exit(0)
}

fn vector_cmd(args: &[String]) -> ! {
    let mut scn = Scenario::new("cli-vector", ScenarioKind::StrategyRun);
    scn.workload = Some(WorkloadSpec::Vector {
        count: flag_u64(args, "--count", 4096) as u32,
        blocklen: flag_u64(args, "--blocklen", 32) as u32,
        stride: flag_u64(args, "--stride", 64) as i64,
    });
    strategy_cmd(scn, args)
}

fn indexed_cmd(args: &[String]) -> ! {
    let mut scn = Scenario::new("cli-indexed", ScenarioKind::StrategyRun);
    scn.workload = Some(WorkloadSpec::Indexed {
        blocks: flag_u64(args, "--blocks", 8192),
        blocklen: flag_u64(args, "--blocklen", 4) as u32,
        seed: flag_u64(args, "--seed", 1),
    });
    strategy_cmd(scn, args)
}

fn app_cmd(args: &[String]) -> ! {
    let label = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| die("app needs a label"));
    if !all_workloads().iter().any(|w| w.label() == label) {
        die(&format!("unknown workload {label}; try `ncmt_cli list`"));
    }
    let mut scn = Scenario::new("cli-app", ScenarioKind::StrategyRun);
    scn.workload = Some(WorkloadSpec::App { label });
    strategy_cmd(scn, args)
}

fn list_cmd(_args: &[String]) -> ! {
    println!(
        "{:<14} {:<20} {:>10} {:>8}",
        "workload", "class", "size KiB", "gamma"
    );
    for w in all_workloads() {
        println!(
            "{:<14} {:<20} {:>10.1} {:>8.1}",
            w.label(),
            w.ddt_class,
            w.msg_bytes() as f64 / 1024.0,
            w.gamma(2048)
        );
    }
    std::process::exit(0)
}

fn run_usage() -> ! {
    println!(
        "ncmt_cli run — compile and run a declarative scenario file

A scenario is one JSON document naming the workload, fault model,
scheduling setup, telemetry capture, traffic mix and sweep axes; the
strict parser rejects unknown keys with the offending path. Scenario
kinds: strategy-run, fault-sweep, traffic, fig16, ddt-host-compare.
Shipped scenarios live in scenarios/; the full schema reference is in
EXPERIMENTS.md.

usage: ncmt_cli run <SCENARIO.json> [flags]

flags:
  --jobs N        worker threads (default: NCMT_JOBS, else cores;
                  artifacts are byte-identical at any N)
  --report-out F  write the scenario's machine-readable artifact to F
                  (run report, fault-sweep matrix, traffic document,
                  figure table or ddt-compare document, by kind)
  --trace-out F   strategy-run scenarios: write a Perfetto trace to F

exit status follows the scenario's own verification (e.g. 1 when a
fault-sweep cell is not byte-exact exactly-once)."
    );
    std::process::exit(0)
}

fn run_cmd(args: &[String]) -> ! {
    let path = args
        .get(1)
        .filter(|p| !p.starts_with("--"))
        .unwrap_or_else(|| die("run needs a scenario file; see `ncmt_cli run --help`"));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let scn = parse_scenario(&text).unwrap_or_else(|e| die(&e));
    run_scenario(&scn, args)
}

fn fault_sweep_usage() -> ! {
    println!(
        "ncmt_cli fault-sweep — seed × fault-rate matrix over all strategies

Runs every strategy at fault scales 0.0/0.5/1.0 of the given rates for
each seed and verifies byte-exact, exactly-once delivery in every cell.
Exits 1 when any cell fails. Equivalent to a `fault-sweep` scenario
(see `ncmt_cli run --help`).

flags:
  --seeds N       number of fault seeds (default 4; uses K..K+N-1)
  --fault-seed K  first fault-schedule seed (default 1)
  --drop P        per-packet drop probability at scale 1.0 (default 0)
  --dup P         per-packet duplication probability (default 0)
  --corrupt P     per-packet payload-corruption probability (default 0)
  --reorder-ns W  extra-delay reordering window in ns (default 0)
  --count N       vector blocks of the swept datatype (default 512)
  --blocklen B    block length in doubles (default 16)
  --stride S      block stride (default 32)
  --hpus N        handler processing units (default 16)
  --jobs N        worker threads (default: NCMT_JOBS, else cores)
  --report-out F  write the ncmt-fault-sweep JSON matrix to F

at least one of --drop/--dup/--corrupt/--reorder-ns must be nonzero."
    );
    std::process::exit(0)
}

/// `fault-sweep`: thin wrapper building a `fault-sweep` scenario from
/// the legacy flags; the matrix itself runs in [`nca_scenario::exec`].
fn fault_sweep(args: &[String]) -> ! {
    let base = fault_spec(args);
    if base.is_inert() {
        die("fault-sweep needs at least one nonzero fault rate (--drop/--dup/--corrupt/--reorder-ns)");
    }
    let mut scn = Scenario::new("cli-fault-sweep", ScenarioKind::FaultSweep);
    scn.workload = Some(WorkloadSpec::Vector {
        count: flag_u64(args, "--count", 512) as u32,
        blocklen: flag_u64(args, "--blocklen", 16) as u32,
        stride: flag_u64(args, "--stride", 32) as i64,
    });
    scn.scheduling.hpus = flag_u64(args, "--hpus", 16);
    scn.faults = faults_section(args);
    scn.sweep.seeds = flag_u64(args, "--seeds", 4);
    scn.sweep.seed0 = flag_u64(args, "--fault-seed", 1);
    run_scenario(&scn, args)
}

fn traffic_usage() -> ! {
    println!(
        "ncmt_cli traffic — open-loop multi-tenant traffic sweep

Drives the NIC model with concurrent tenants at sustained offered loads
and reports per-tenant p50/p99/p999 offer→completion latency, drops and
goodput for each (app × load × discipline) grid cell. All cells of one
(app, load) point share the arrival schedule, so latency differences
between disciplines are attributable to scheduling alone. The artifact
is byte-identical at any --jobs count. Equivalent to a `traffic`
scenario (see `ncmt_cli run --help`).

flags:
  --apps A,B      application mixes: a Fig. 16 family ({}),
                  or an exact workload label like MILC/b
                  (default milc,comb,fft2d)
  --loads L,M     offered loads as fractions of line rate
                  (default 0.3,0.6,0.9,1.2)
  --disciplines D queue disciplines: blocked-rr,cfcfs,dfcfs (default all)
  --tenants N     concurrent tenants (default 4)
  --strategy S    strategy all tenants run: specialized|hpu-local|
                  ro-cp|rw-cp (default rw-cp)
  --arrival A     poisson | lognormal | mixed (default poisson;
                  mixed alternates per tenant)
  --sigma S       lognormal shape parameter (default 1.5)
  --flows N       flows per tenant for RSS steering (default 8)
  --rss N         RSS indirection-table slots (default 64)
  --horizon-us T  open-loop generation horizon in us (default 400)
  --buffer-kib N  override the NIC packet-buffer admission budget
  --seed K        master schedule seed (default 1)
  --hpus N        handler processing units (default 16)
  --jobs N        worker threads (default: NCMT_JOBS, else cores;
                  the report is byte-identical at any N)
  --report-out F  write the ncmt-traffic JSON document to F

exit status is 1 when any completed message failed byte verification.",
        APP_GROUPS.join(", ")
    );
    std::process::exit(0)
}

/// Parse a comma-separated flag value through `parse`, with a default.
fn flag_csv<T>(
    args: &[String],
    name: &str,
    default: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Vec<T> {
    flag(args, name)
        .unwrap_or_else(|| default.to_string())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).unwrap_or_else(|| die(&format!("bad {name} entry {s:?}"))))
        .collect()
}

/// `traffic`: thin wrapper building a `traffic` scenario from the
/// legacy flags; the grid itself runs in [`nca_scenario::exec`].
fn traffic(args: &[String]) -> ! {
    let mut scn = Scenario::new("cli-traffic", ScenarioKind::Traffic);
    scn.scheduling.hpus = flag_u64(args, "--hpus", 16);
    scn.traffic = Some(TrafficSpec {
        apps: flag_csv(args, "--apps", "milc,comb,fft2d", |s| {
            app_group(s).map(|_| s.to_string())
        }),
        loads: flag_csv(args, "--loads", "0.3,0.6,0.9,1.2", |s| {
            s.parse::<f64>().ok().filter(|l| *l > 0.0)
        }),
        disciplines: flag_csv(
            args,
            "--disciplines",
            "blocked-rr,cfcfs,dfcfs",
            QueueDiscipline::parse,
        ),
        tenants: flag_u64(args, "--tenants", 4),
        strategy: flag(args, "--strategy")
            .map(|s| parse_strategy(&s).unwrap_or_else(|| die(&format!("bad --strategy {s:?}"))))
            .unwrap_or(Strategy::RwCp),
        arrival: flag(args, "--arrival")
            .map(|s| ArrivalKind::parse(&s).unwrap_or_else(|| die(&format!("bad --arrival {s:?}"))))
            .unwrap_or(ArrivalKind::Poisson),
        sigma: flag_f64(args, "--sigma", 1.5),
        flows_per_tenant: flag_u64(args, "--flows", 8),
        rss_entries: flag_u64(args, "--rss", 64),
        horizon_us: flag_u64(args, "--horizon-us", 400),
        buffer_kib: flag(args, "--buffer-kib")
            .map(|v| v.parse::<u64>().unwrap_or_else(|_| die("bad --buffer-kib"))),
        seed: flag_u64(args, "--seed", 1),
    });
    run_scenario(&scn, args)
}

fn profile_usage() -> ! {
    println!(
        "ncmt_cli profile — simulator self-profiler

Runs the full strategy sweep serially with the self-profiler on and
attributes the host wall-clock of the sweep to simulator phases:
event-queue operations, handler execution, DMA-copy kernels, telemetry
emission, and allocation/packing. Phases nest innermost-wins, so the
totals are disjoint and tile the wall-clock exactly
(attributed + other = wall).

flags:
  --count N       vector blocks of the profiled datatype (default 512)
  --blocklen B    block length in doubles (default 16)
  --stride S      block stride (default 32)
  --copies N      datatype repetition count (default 1)
  --hpus N        handler processing units (default 16)
  --epsilon E     RW-CP scheduling-overhead bound (default 0.2)
  --out F         write the ncmt-profile JSON artifact to F

needs a binary compiled with the nca-sim `self-profile` feature (the
nca-bench build turns it on); otherwise the subcommand exits 2."
    );
    std::process::exit(0)
}

/// `profile`: run the strategy sweep serially under the self-profiler
/// and render/write the `ncmt-profile` phase attribution.
fn profile_cmd(args: &[String]) -> ! {
    if !profile::is_compiled() {
        die("this binary was built without the nca-sim `self-profile` feature");
    }
    let count = flag_u64(args, "--count", 512) as u32;
    let blocklen = flag_u64(args, "--blocklen", 16) as u32;
    let stride = flag_u64(args, "--stride", 32) as i64;
    let copies = flag_u64(args, "--copies", 1) as u32;
    let hpus = flag_u64(args, "--hpus", 16) as usize;
    let out = flag(args, "--out");

    let dt = Datatype::vector(count, blocklen, stride, &elem::double());
    let mut exp = Experiment::new(dt.clone(), copies, NicParams::with_hpus(hpus));
    exp.epsilon = flag_f64(args, "--epsilon", 0.2);
    let command = format!(
        "profile vector --count {count} --blocklen {blocklen} --stride {stride} \
         --copies {copies} --hpus {hpus}"
    );
    println!(
        "profiling: {} × {copies}, {hpus} HPUs (serial sweep)",
        dt.signature()
    );

    // Serial pool: the whole sweep runs on this thread, so the profile
    // is one clean timeline under worker 0. Streaming aggregation stays
    // on so the telemetry phase reflects the production emission path.
    profile::reset();
    profile::set_enabled(true);
    let wall = std::time::Instant::now();
    let sweep = exp.run_all_captured(
        &Pool::serial(),
        CaptureSpec {
            ring_capacity: None,
            stream_bucket_ps: Some(UTILIZATION_BUCKET_PS),
        },
    );
    let wall_ns = wall.elapsed().as_nanos() as u64;
    profile::set_enabled(false);
    let snap = profile::snapshot();
    profile::reset();
    drop(sweep);

    let doc = ProfileDoc {
        version: ProfileDoc::VERSION,
        command,
        wall_ns,
        workers: snap
            .iter()
            .map(|w| ProfileWorker {
                worker: w.worker as u64,
                phases: profile::Phase::ALL
                    .iter()
                    .map(|p| ProfilePhase {
                        phase: p.label().to_string(),
                        ns: w.ns[p.index()],
                        count: w.counts[p.index()],
                    })
                    .collect(),
            })
            .collect(),
    };

    println!();
    println!(
        "{:<14} {:>12} {:>12} {:>8}",
        "phase", "ms", "enters", "% wall"
    );
    for p in doc.totals() {
        println!(
            "{:<14} {:>12.3} {:>12} {:>8.1}",
            p.phase,
            p.ns as f64 / 1e6,
            p.count,
            if wall_ns > 0 {
                p.ns as f64 / wall_ns as f64 * 100.0
            } else {
                0.0
            }
        );
    }
    println!(
        "{:<14} {:>12.3} {:>12} {:>8.1}",
        "other",
        doc.other_ns() as f64 / 1e6,
        "",
        if wall_ns > 0 {
            doc.other_ns() as f64 / wall_ns as f64 * 100.0
        } else {
            0.0
        }
    );
    println!(
        "{:<14} {:>12.3}  ({} worker(s); attributed + other = wall)",
        "wall",
        wall_ns as f64 / 1e6,
        doc.workers.len()
    );
    if let Some(path) = &out {
        std::fs::write(path, doc.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("\nprofile  → {path}");
    }
    std::process::exit(0)
}

fn report_diff(args: &[String]) -> ! {
    let (Some(base_path), Some(new_path)) = (args.get(1), args.get(2)) else {
        die("report-diff needs <BASE> <NEW>")
    };
    let threshold: f64 = flag(args, "--threshold")
        .map(|v| v.parse().unwrap_or_else(|_| die("bad --threshold")))
        .unwrap_or(DEFAULT_THRESHOLD);
    let parse = |path: &String| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2)
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2)
        })
    };
    let (base, new) = (parse(base_path), parse(new_path));
    let diff = diff_reports(&base, &new, threshold).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    print!("{}", diff.render());
    std::process::exit(if diff.regressions() > 0 { 1 } else { 0 })
}

/// `bench-diff`: gate a fresh criterion-shim baseline against a
/// committed one on throughput. This is what the CI `bench-gate` job
/// runs; the thresholds and the missing-bench policy live in
/// [`nca_bench::bench_diff`].
fn bench_diff(args: &[String]) -> ! {
    use nca_bench::bench_diff::{diff_baselines, parse_baseline, parse_require};
    let (Some(base_path), Some(new_path)) = (args.get(1), args.get(2)) else {
        die("bench-diff needs <BASE> <NEW>")
    };
    let warn_over = flag_f64(args, "--warn-over", 5.0);
    let fail_over = flag_f64(args, "--fail-over", 10.0);
    // Every `--require A>B` occurrence, in order.
    let requires: Vec<(String, String)> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--require")
        .map(|(i, _)| {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| die("--require needs a value"));
            parse_require(v).unwrap_or_else(|| die(&format!("bad --require {v:?} (want A>B)")))
        })
        .collect();
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2)
        });
        parse_baseline(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2)
        })
    };
    let (base, new) = (load(base_path), load(new_path));
    let diff = diff_baselines(&base, &new, warn_over, fail_over, &requires);
    print!("{}", diff.render());
    std::process::exit(if diff.failures() > 0 { 1 } else { 0 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == args[0]) else {
        if wants_help(&args) {
            usage();
        }
        die(&format!(
            "unknown subcommand {}; valid subcommands: {}",
            args[0],
            names().join(", ")
        ))
    };
    if wants_help(&args) {
        // Commands with a dedicated flag reference print it; the rest
        // fall back to the global usage — no special-case name list.
        match cmd.help {
            Some(help) => help(),
            None => usage(),
        }
    }
    (cmd.run)(&args)
}
