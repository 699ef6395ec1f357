//! Workload set-up: build the datatypes, fill the compile cache, compile
//! the scenario documents and the traffic cell configs. Everything the
//! timed rounds run is fixed here, before the first timed job.
//!
//! The seed reaches only generated inputs: the random `indexed`
//! displacements, the out-of-order and fault seeds, and the traffic
//! master seed. The application datatypes never depend on it.

use std::sync::Arc;

use nca_core::report::UTILIZATION_BUCKET_PS;
use nca_core::runner::Strategy;
use nca_ddt::dataloop::{compile, compile_cached};
use nca_ddt::types::{elem, Datatype, DatatypeExt};
use nca_scenario::{parse_scenario, Plan};
use nca_sim::{FaultSpec, Time};
use nca_spin::nic::EngineMode;
use nca_spin::params::NicParams;
use nca_spin::sched::QueueDiscipline;
use nca_traffic::engine::TrafficConfig;
use nca_traffic::TrafficSweepSpec;
use nca_workloads::apps::{self, all_workloads, AppWorkload};

use crate::trace::span;
use crate::Workload;

/// HPUs of every strategy receive (the Fig. 16 configuration).
const HPUS: usize = 16;

/// One receive datatype.
pub struct Input {
    pub label: String,
    pub dt: Datatype,
    pub count: u32,
    pub params: NicParams,
    pub epsilon: f64,
}

impl Input {
    fn new(label: String, dt: Datatype, count: u32) -> Input {
        Input {
            label,
            dt,
            count,
            params: NicParams::with_hpus(HPUS),
            epsilon: 0.2,
        }
    }

    fn from_app(w: AppWorkload) -> Input {
        Input::new(w.label(), w.dt, w.count)
    }

    pub fn msg_bytes(&self) -> u64 {
        self.dt.size * self.count as u64
    }
}

/// How the packets of a receive arrive.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    InOrder,
    /// Payload packets shuffled with this seed.
    OutOfOrder(u64),
    /// Seeded drop/duplicate/corrupt/reorder schedule.
    Lossy(FaultSpec),
}

impl Mode {
    pub fn label(&self) -> &'static str {
        match self {
            Mode::InOrder => "in-order",
            Mode::OutOfOrder(_) => "out-of-order",
            Mode::Lossy(_) => "lossy",
        }
    }
}

/// One traffic grid point.
pub struct Cell {
    /// Index of the scenario document (and spec) it came from.
    pub group: usize,
    pub app: String,
    pub load: f64,
    pub discipline: QueueDiscipline,
    pub cfg: TrafficConfig,
}

/// One pool job of a timed round.
#[derive(Clone)]
pub enum Job {
    /// One strategy receive of one input.
    Receive {
        input: Arc<Input>,
        strategy: Strategy,
        mode: Mode,
    },
    /// The host-unpack and Portals iovec baselines of one input.
    Baselines { input: Arc<Input> },
    /// One traffic cell.
    Cell(Arc<Cell>),
}

/// Ring and stream capture of the observed workload.
#[derive(Debug, Clone, Copy)]
pub struct Capture {
    pub ring_capacity: usize,
    pub bucket_ps: Time,
}

/// Everything a timed round runs.
pub struct Prepared {
    pub jobs: Vec<Job>,
    /// Distinct receive inputs, in job order.
    pub inputs: Vec<Arc<Input>>,
    pub engine: EngineMode,
    /// Observed workload only.
    pub capture: Option<Capture>,
    /// Traffic workload only: one compiled grid per scenario document.
    pub traffic: Vec<TrafficSweepSpec>,
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sub-seed small enough for a scenario document's JSON integers.
fn doc_seed(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) >> 32
}

/// Compile every input once uncached (the commit cost `ddt.compile_s`
/// measures) and fill the shared compile cache the strategies read.
fn commit(inputs: &[Arc<Input>]) {
    for i in inputs {
        {
            let _s = span("ddt.compile");
            std::hint::black_box(compile(&i.dt, i.count));
        }
        compile_cached(&i.dt, i.count);
    }
}

fn scenario(text: &str) -> Plan {
    let _s = span("scenario.compile");
    parse_scenario(text)
        .and_then(|s| s.compile())
        .unwrap_or_else(|e| panic!("benchmark scenario does not compile: {e}"))
}

/// Every strategy of every input, in each of the input's arrival modes.
fn receives(inputs: &[Arc<Input>], modes_of: impl Fn(usize) -> Vec<Mode>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        for mode in modes_of(i) {
            for strategy in Strategy::ALL {
                jobs.push(Job::Receive {
                    input: input.clone(),
                    strategy,
                    mode,
                });
            }
        }
    }
    jobs
}

/// Build the workload's jobs for `seed`. `tiny` keeps a few small
/// inputs, for the benchmark's own tests.
pub fn prepare(w: Workload, seed: u64, tiny: bool) -> Prepared {
    match w {
        Workload::AppsFig16 => apps_fig16(tiny),
        Workload::FineGrain => fine_grain(seed, tiny),
        Workload::TrafficMixed => traffic_mixed(seed, tiny),
        Workload::Observed => observed(seed, tiny),
    }
}

const TINY_APPS: [&str; 3] = ["COMB/b", "LAMMPS/a", "WRF-Y/a"];

fn apps_fig16(tiny: bool) -> Prepared {
    let inputs: Vec<Arc<Input>> = all_workloads()
        .into_iter()
        .filter(|w| !tiny || TINY_APPS.contains(&w.label().as_str()))
        .map(|w| Arc::new(Input::from_app(w)))
        .collect();
    commit(&inputs);
    let mut jobs = Vec::new();
    for input in &inputs {
        for strategy in Strategy::ALL {
            jobs.push(Job::Receive {
                input: input.clone(),
                strategy,
                mode: Mode::InOrder,
            });
        }
        jobs.push(Job::Baselines {
            input: input.clone(),
        });
    }
    Prepared {
        jobs,
        inputs,
        engine: EngineMode::Eager,
        capture: None,
        traffic: Vec::new(),
    }
}

/// A seeded `indexed` type of `blocks` blocks of 1–4 doubles, separated
/// by gaps of 1–2 doubles (span/size ≤ 3, every block its own region).
fn random_indexed(seed: u64, blocks: usize) -> Input {
    let mut lens = Vec::with_capacity(blocks);
    let mut displs = Vec::with_capacity(blocks);
    let mut at = 0i64;
    for b in 0..blocks {
        let r = mix(seed, b as u64);
        let len = 1 + (r % 4) as u32;
        lens.push(len);
        displs.push(at);
        at += len as i64 + 1 + ((r >> 8) % 2) as i64;
    }
    let dt = Datatype::indexed(&lens, &displs, &elem::double()).expect("valid indexed type");
    Input::new(format!("indexed/{blocks}"), dt, 1)
}

fn fine_grain(seed: u64, tiny: bool) -> Prepared {
    let mut apps: Vec<AppWorkload> = Vec::new();
    for family in [
        apps::lammps(),
        apps::lammps_full(),
        apps::spec_cm(),
        apps::spec_oc(),
    ] {
        apps.extend(family.into_iter().take(if tiny { 1 } else { 4 }));
    }
    if tiny {
        apps.truncate(2);
    }
    let mut inputs: Vec<Arc<Input>> = apps
        .into_iter()
        .map(|w| Arc::new(Input::from_app(w)))
        .collect();
    inputs.push(Arc::new(random_indexed(
        mix(seed, 0x1d),
        if tiny { 512 } else { 32768 },
    )));
    commit(&inputs);
    let jobs = receives(&inputs, |i| {
        let s = mix(seed, 0x100 + i as u64);
        vec![
            Mode::InOrder,
            Mode::OutOfOrder(s),
            Mode::Lossy(FaultSpec {
                drop: 0.05,
                duplicate: 0.02,
                corrupt: 0.01,
                reorder_window: nca_sim::ns(2000),
                seed: mix(s, 0xfa),
            }),
        ]
    });
    Prepared {
        jobs,
        inputs,
        engine: EngineMode::Eager,
        capture: None,
        traffic: Vec::new(),
    }
}

/// One traffic scenario document per (application, load) pair, each
/// with its own seed: the disciplines of a pair share one offered
/// schedule, while the pairs draw independent ones, so the seed's effect
/// on the amount of work averages out over the grid.
fn traffic_mixed(seed: u64, tiny: bool) -> Prepared {
    let (apps, loads, disciplines, tenants, horizon_us): (&[&str], &[&str], &str, u64, u64) =
        if tiny {
            (&["COMB/b"], &["0.5", "1.2"], r#"["blocked-rr"]"#, 2, 40)
        } else {
            (
                &TRAFFIC_APPS,
                &["0.5", "1.2"],
                r#"["blocked-rr", "cfcfs", "dfcfs"]"#,
                4,
                TRAFFIC_HORIZON_US,
            )
        };
    let mut specs = Vec::new();
    let mut jobs = Vec::new();
    for app in apps {
        for load in loads {
            let doc = format!(
                r#"{{
  "name": "bench-traffic-mixed",
  "version": 1,
  "kind": "traffic",
  "scheduling": {{ "hpus": {HPUS} }},
  "traffic": {{
    "apps": ["{app}"],
    "loads": [{load}],
    "disciplines": {disciplines},
    "tenants": {tenants},
    "arrival": "mixed",
    "sigma": {TRAFFIC_SIGMA},
    "horizon_us": {horizon_us},
    "seed": {}
  }}
}}"#,
                doc_seed(seed, 0x7a00 + specs.len() as u64)
            );
            let Plan::Traffic(spec) = scenario(&doc) else {
                panic!("traffic document compiled to another plan kind")
            };
            for &discipline in &spec.disciplines {
                jobs.push(Job::Cell(Arc::new(Cell {
                    group: specs.len(),
                    app: spec.apps[0].clone(),
                    load: spec.loads[0],
                    discipline,
                    cfg: spec.cell_config(&spec.apps[0], spec.loads[0], discipline),
                })));
            }
            specs.push(spec);
        }
    }
    Prepared {
        jobs,
        inputs: Vec::new(),
        engine: EngineMode::Eager,
        capture: None,
        traffic: specs,
    }
}

/// Small-message mixes: two single inputs and two whole families.
const TRAFFIC_APPS: [&str; 4] = ["COMB/b", "NAS-MG/a", "wrf_x", "wrf_y"];
/// Open-loop horizon of every traffic cell (µs of simulated time).
const TRAFFIC_HORIZON_US: u64 = 200;
/// Shape of the lognormal tenants' interarrival times.
const TRAFFIC_SIGMA: f64 = 1.0;

fn observed(seed: u64, tiny: bool) -> Prepared {
    let (elems, apps): (u64, &[&str]) = if tiny {
        (64, &[])
    } else {
        (2048, &OBSERVED_APPS)
    };
    let mut workloads = vec![
        (
            "vector".to_string(),
            format!(r#"{{ "kind": "vector", "count": {elems}, "blocklen": 4, "stride": 8 }}"#),
        ),
        (
            "indexed".to_string(),
            format!(
                r#"{{ "kind": "indexed", "blocks": {elems}, "blocklen": 2, "seed": {} }}"#,
                doc_seed(seed, 0x0b)
            ),
        ),
    ];
    for label in apps {
        workloads.push((
            label.to_string(),
            format!(r#"{{ "kind": "app", "label": "{label}" }}"#),
        ));
    }
    let mut inputs = Vec::new();
    let mut capture = None;
    let mut engine = EngineMode::Eager;
    for (i, (label, wl)) in workloads.iter().enumerate() {
        let doc = format!(
            r#"{{
  "name": "bench-observed-{i}",
  "version": 1,
  "kind": "strategy-run",
  "workload": {wl},
  "scheduling": {{ "hpus": {HPUS}, "engine": "eager" }}
}}"#
        );
        let Plan::Strategy(p) = scenario(&doc) else {
            panic!("observed document compiled to another plan kind")
        };
        let mut input = Input::new(label.clone(), p.dt, p.copies);
        input.params = NicParams::with_hpus(p.hpus);
        input.epsilon = p.epsilon;
        inputs.push(Arc::new(input));
        engine = p.engine;
        // The same fallbacks `run_strategy` uses when an artifact is asked for.
        capture = Some(Capture {
            ring_capacity: p.ring_capacity.unwrap_or(1 << 22),
            bucket_ps: p.bucket_ps.unwrap_or(UTILIZATION_BUCKET_PS),
        });
    }
    commit(&inputs);
    let jobs = receives(&inputs, |_| vec![Mode::InOrder]);
    Prepared {
        jobs,
        inputs,
        engine,
        capture,
        traffic: Vec::new(),
    }
}

/// Applications of the observed workload (messages ≤ 1 MiB).
const OBSERVED_APPS: [&str; 2] = ["MILC/a", "WRF-X/b"];
