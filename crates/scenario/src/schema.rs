//! The declarative scenario schema: a JSON document that names a
//! workload, fault model, scheduling setup, telemetry capture, traffic
//! mix and sweep axes, compiled by [`crate::exec`] into pool jobs.
//!
//! Every struct here is plain data with explicit defaults — no
//! [`Datatype`](nca_ddt::types::Datatype) or simulator state — so a
//! scenario value round-trips exactly through [`Scenario::to_json`]
//! and [`crate::parse_scenario`].

use nca_core::runner::Strategy;
use nca_spin::nic::EngineMode;
use nca_spin::sched::QueueDiscipline;
use nca_telemetry::json::{
    self,
    Layout::{Block, Line, Spaced},
};
use nca_telemetry::json_fields;
use nca_traffic::ArrivalKind;

/// Schema version this build reads and writes.
pub const VERSION: u64 = 1;

/// What the scenario runs: one of the five experiment families the CLI
/// exposes. The label is the `"kind"` string in the JSON document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// One datatype through every strategy plus the host/iovec
    /// baselines (the `vector`/`indexed`/`app` subcommands).
    StrategyRun,
    /// Seed × fault-scale matrix over all strategies.
    FaultSweep,
    /// Open-loop multi-tenant traffic sweep.
    Traffic,
    /// The Fig. 16 application-speedup table.
    Fig16,
    /// Host-side DDT unpack: dataloop/kernels engine vs a naive
    /// element-wise manual copy, per application datatype.
    DdtHostCompare,
}

impl ScenarioKind {
    /// All kinds, for help text and error messages.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::StrategyRun,
        ScenarioKind::FaultSweep,
        ScenarioKind::Traffic,
        ScenarioKind::Fig16,
        ScenarioKind::DdtHostCompare,
    ];

    /// The `"kind"` string in the scenario document.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::StrategyRun => "strategy-run",
            ScenarioKind::FaultSweep => "fault-sweep",
            ScenarioKind::Traffic => "traffic",
            ScenarioKind::Fig16 => "fig16",
            ScenarioKind::DdtHostCompare => "ddt-host-compare",
        }
    }

    /// Inverse of [`ScenarioKind::label`].
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        Self::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Which receive datatype the scenario drives.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Strided blocks of doubles (`MPI_Type_vector`).
    Vector {
        count: u32,
        blocklen: u32,
        stride: i64,
    },
    /// Irregular fixed-size blocks at seeded random offsets.
    Indexed {
        blocks: u64,
        blocklen: u32,
        seed: u64,
    },
    /// One Fig. 16 application workload by exact label (e.g. `MILC/b`).
    App { label: String },
    /// Every Fig. 16 application workload, optionally capped at
    /// `max_kib` KiB of message size (the figures' quick mode is 512).
    Apps { max_kib: Option<u64> },
}

/// The fault-injection knobs (PR 3); rates are per packet at scale 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSpec {
    pub drop: f64,
    pub duplicate: f64,
    pub corrupt: f64,
    /// Extra-delay reordering window in nanoseconds.
    pub reorder_ns: u64,
    /// Fault-schedule seed (sweeps use `sweep.seed0..+seeds` instead).
    pub seed: u64,
}

impl Default for FaultsSpec {
    fn default() -> Self {
        FaultsSpec {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder_ns: 0,
            seed: 1,
        }
    }
}

impl FaultsSpec {
    /// No fault machinery engaged at these rates.
    pub fn is_inert(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.corrupt == 0.0 && self.reorder_ns == 0
    }
}

/// Pipeline/scheduling knobs shared by every kind.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingSpec {
    /// Handler processing units.
    pub hpus: u64,
    /// RW-CP scheduling-overhead bound ε.
    pub epsilon: f64,
    /// DMA engine selection (`auto` keeps the historical behaviour:
    /// eager when nothing needs per-event timing).
    pub engine: EngineMode,
    /// Datatype repetition count (strategy runs and fault sweeps).
    pub copies: u32,
    /// Shuffle payload-packet arrival order with this seed.
    pub out_of_order: Option<u64>,
}

impl Default for SchedulingSpec {
    fn default() -> Self {
        SchedulingSpec {
            hpus: 16,
            epsilon: 0.2,
            engine: EngineMode::Auto,
            copies: 1,
            out_of_order: None,
        }
    }
}

/// Telemetry capture request. Absent knobs fall back to each kind's
/// historical default (strategy runs: a 4 Mi-event ring only when an
/// artifact is requested; fault sweeps: a 1 Mi ring per cell).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySpec {
    /// Ring capacity in events.
    pub ring_capacity: Option<u64>,
    /// Streaming-aggregation bucket width (ps).
    pub bucket_ps: Option<u64>,
}

/// The open-loop traffic grid (`kind: "traffic"` only).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Application mixes: Fig. 16 family names or exact labels.
    pub apps: Vec<String>,
    /// Offered loads as fractions of line rate.
    pub loads: Vec<f64>,
    /// Queue disciplines to grid over.
    pub disciplines: Vec<QueueDiscipline>,
    pub tenants: u64,
    /// Strategy all tenants run.
    pub strategy: Strategy,
    pub arrival: ArrivalKind,
    /// Log-normal shape parameter.
    pub sigma: f64,
    /// Flows per tenant for RSS steering.
    pub flows_per_tenant: u64,
    /// RSS indirection-table slots.
    pub rss_entries: u64,
    /// Open-loop generation horizon in microseconds.
    pub horizon_us: u64,
    /// Override the NIC packet-buffer admission budget (KiB).
    pub buffer_kib: Option<u64>,
    /// Master schedule seed.
    pub seed: u64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            apps: vec!["milc".into(), "comb".into(), "fft2d".into()],
            loads: vec![0.3, 0.6, 0.9, 1.2],
            disciplines: QueueDiscipline::ALL.to_vec(),
            tenants: 4,
            strategy: Strategy::RwCp,
            arrival: ArrivalKind::Poisson,
            sigma: 1.5,
            flows_per_tenant: 8,
            rss_entries: 64,
            horizon_us: 400,
            buffer_kib: None,
            seed: 1,
        }
    }
}

/// The fault-sweep axes; the grid is the cartesian product
/// `seed0..seed0+seeds × scales` run over every strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    pub seeds: u64,
    pub seed0: u64,
    /// Scale factors applied to the base fault rates (0.0 = lossless
    /// control).
    pub scales: Vec<f64>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            seeds: 4,
            seed0: 1,
            scales: vec![0.0, 0.5, 1.0],
        }
    }
}

impl SweepSpec {
    /// The expanded (seed, scale) grid, seed-major — the exact job
    /// order [`nca_core::sweep::FaultSweepSpec::cells`] runs.
    pub fn expand(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity((self.seeds as usize) * self.scales.len());
        for s in 0..self.seeds {
            for &scale in &self.scales {
                out.push((self.seed0 + s, scale));
            }
        }
        out
    }
}

/// One parsed scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Free-form scenario name (shows up nowhere load-bearing).
    pub name: String,
    pub kind: ScenarioKind,
    pub workload: Option<WorkloadSpec>,
    pub faults: FaultsSpec,
    pub scheduling: SchedulingSpec,
    pub telemetry: TelemetrySpec,
    pub traffic: Option<TrafficSpec>,
    pub sweep: SweepSpec,
}

impl Scenario {
    /// A scenario of `kind` with every section at its default.
    pub fn new(name: &str, kind: ScenarioKind) -> Scenario {
        Scenario {
            name: name.to_string(),
            kind,
            workload: None,
            faults: FaultsSpec::default(),
            scheduling: SchedulingSpec::default(),
            telemetry: TelemetrySpec::default(),
            traffic: None,
            sweep: SweepSpec::default(),
        }
    }
}

// ---------------------------------------------------------------- JSON out

impl Scenario {
    /// Render the scenario in canonical form: every section written,
    /// every present field explicit. `parse_scenario(to_json(s)) == s`.
    pub fn to_json(&self) -> String {
        let (f, s, t, sw) = (&self.faults, &self.scheduling, &self.telemetry, &self.sweep);
        json::document(|w| {
            w.field("name", &self.name)
                .field("version", VERSION)
                .field("kind", self.kind.label());
            if let Some(workload) = &self.workload {
                w.key("workload").object(Spaced, |w| match workload {
                    WorkloadSpec::Vector {
                        count,
                        blocklen,
                        stride,
                    } => {
                        json_fields!(w.field("kind", "vector"); count, blocklen, stride);
                    }
                    WorkloadSpec::Indexed {
                        blocks,
                        blocklen,
                        seed,
                    } => {
                        json_fields!(w.field("kind", "indexed"); blocks, blocklen, seed);
                    }
                    WorkloadSpec::App { label } => {
                        w.field("kind", "app").field("label", label);
                    }
                    WorkloadSpec::Apps { max_kib } => {
                        w.field("kind", "apps").field_some("max_kib", *max_kib);
                    }
                });
            }
            w.key("faults").object(Spaced, |w| {
                json_fields!(w, f; drop, duplicate, corrupt, reorder_ns, seed);
            });
            w.key("scheduling").object(Spaced, |w| {
                w.field("hpus", s.hpus)
                    .field("epsilon", s.epsilon)
                    .field("engine", s.engine.label())
                    .field("copies", s.copies)
                    .field_some("out_of_order", s.out_of_order);
            });
            w.key("telemetry").object(Spaced, |w| {
                w.field_some("ring_capacity", t.ring_capacity)
                    .field_some("bucket_ps", t.bucket_ps);
            });
            if let Some(t) = &self.traffic {
                w.key("traffic").object(Block, |w| {
                    w.key("apps")
                        .list(Line, &t.apps)
                        .key("loads")
                        .list(Line, &t.loads)
                        .key("disciplines")
                        .list(Line, t.disciplines.iter().map(|d| d.label()))
                        .field("tenants", t.tenants)
                        .field("strategy", t.strategy.label())
                        .field("arrival", t.arrival.label());
                    json_fields!(w, t; sigma, flows_per_tenant, rss_entries, horizon_us)
                        .field_some("buffer_kib", t.buffer_kib)
                        .field("seed", t.seed);
                });
            }
            w.key("sweep").object(Spaced, |w| {
                json_fields!(w, sw; seeds, seed0)
                    .key("scales")
                    .list(Line, &sw.scales);
            });
        })
    }
}
