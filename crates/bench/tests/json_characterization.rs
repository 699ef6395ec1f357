//! Characterization of every JSON document the workspace writes.
//!
//! The expected values below were recorded from the emitters before
//! they were routed through one shared JSON writer; they pin the exact
//! bytes of each document kind — layout, escaping, number formatting,
//! `null`/empty handling — so any later change to the writer that moves
//! a byte fails here first. Large documents are pinned by FNV-1a hash
//! and length, small ones as literals.
//!
//! Covered: `RunReportDoc` (full and bare), `FaultSweepDoc`,
//! `TrafficDoc` (with and without utilization), `ProfileDoc`,
//! `Scenario::to_json` (every workload variant, telemetry and traffic
//! shapes), `DdtCompareDoc`, a criterion-shim JSON baseline and the
//! Perfetto trace over every event kind plus streaming series.

use std::collections::BTreeMap;
use std::sync::Arc;

use nca_core::runner::Strategy;
use nca_scenario::ddt_compare::{CompareRow, DdtCompareDoc};
use nca_scenario::{Scenario, ScenarioKind, TelemetrySpec, TrafficSpec, WorkloadSpec};
use nca_spin::nic::EngineMode;
use nca_spin::sched::QueueDiscipline;
use nca_telemetry::export::chrome_trace_json_with_aggregates;
use nca_telemetry::hist::LogHistogram;
use nca_telemetry::report::{
    FaultSummary, FaultSweepDoc, HistSummary, ModelValidation, ProfileDoc, ProfilePhase,
    ProfileWorker, ReportConfig, RunReportDoc, StrategyReport, SweepCell, TenantTrafficReport,
    TrafficCell, TrafficDoc, UtilizationReport,
};
use nca_telemetry::{EventKind, StreamAggregate, TraceEvent};
use nca_traffic::ArrivalKind;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Compare each `(name, text)` against its recorded `(hash, len)`; on
/// any mismatch, fail with the full table of current values so an
/// intended format change can update the literals in one step.
fn check_hashes(cases: &[(&str, String, u64, usize)]) {
    let mut bad = Vec::new();
    let mut table = String::new();
    for (name, text, hash, len) in cases {
        let got = (fnv1a(text.as_bytes()), text.len());
        table.push_str(&format!("{name:<28} 0x{:016x}, {}\n", got.0, got.1));
        if got != (*hash, *len) {
            bad.push(format!("{name}:\n{text}"));
        }
    }
    assert!(
        bad.is_empty(),
        "document bytes moved:\n{}\ncurrent table:\n{table}",
        bad.join("\n")
    );
}

fn hist(samples: &[(u64, u64)]) -> HistSummary {
    let mut h = LogHistogram::new();
    for &(v, n) in samples {
        h.record_n(v, n);
    }
    HistSummary::of(&h)
}

fn faults() -> FaultSummary {
    FaultSummary {
        transmissions: 40,
        retransmissions: 8,
        drops_injected: 5,
        dups_injected: 2,
        dups_suppressed: 2,
        corrupts_injected: 1,
        corrupts_rejected: 1,
        acks_received: 32,
        host_fallback_packets: 3,
        nic_mem_fallback: true,
        delivered_exactly_once: true,
        checkpoint_reverts: 3,
        catchup_blocks: 17,
    }
}

fn utilization() -> UtilizationReport {
    UtilizationReport {
        bucket_ps: 1_000_000,
        hpu_busy_frac: vec![0.5, 0.25, 1.0 / 3.0, 0.0],
        peak_queue_depth: 9.0,
        dma_chan_occupancy: vec![0.75, f64::NAN],
    }
}

fn full_strategy() -> StrategyReport {
    let mut histograms = BTreeMap::new();
    histograms.insert("handler_ps".to_string(), hist(&[(100, 50), (5_000, 1)]));
    histograms.insert("queue\"wait\\ps".to_string(), hist(&[(7, 3)]));
    StrategyReport {
        name: "RW-CP".to_string(),
        end_to_end_ps: 1_000_000,
        host_setup_ps: 1_000,
        throughput_gbit: 150.125,
        nic_mem_bytes: 4096,
        nic_mem_hwm_bytes: 4000,
        dma_writes: 512,
        dma_bytes: 65536,
        dma_max_queue: 9,
        attribution: vec![("handler_proc", 400_000), ("idle", 600_000)],
        hpu_busy_ps: 500_000,
        hpu_utilization: 0.03,
        histograms,
        utilization: Some(utilization()),
        model: Some(ModelValidation {
            delta_r: 3,
            delta_p: 4,
            num_checkpoints: 8,
            ckpt_nic_bytes: 2048,
            epsilon: 0.2,
            planned_epsilon_violated: true,
            t_ph_predicted_ps: 90_000,
            t_ph_measured_ps: 92_000.5,
            sched_budget_ps: 36_000,
            sched_overhead_ps: 20_000,
            epsilon_respected: false,
        }),
        faults: Some(faults()),
        eager_fallback: true,
    }
}

fn bare_strategy() -> StrategyReport {
    StrategyReport {
        name: "Specialized\n\t\u{1}".to_string(),
        end_to_end_ps: 0,
        host_setup_ps: 0,
        throughput_gbit: f64::INFINITY,
        nic_mem_bytes: 0,
        nic_mem_hwm_bytes: 0,
        dma_writes: 0,
        dma_bytes: 0,
        dma_max_queue: 0,
        attribution: Vec::new(),
        hpu_busy_ps: 0,
        hpu_utilization: f64::NAN,
        histograms: BTreeMap::new(),
        utilization: None,
        model: None,
        faults: None,
        eager_fallback: false,
    }
}

fn run_report(strategies: Vec<StrategyReport>, out_of_order: Option<u64>) -> RunReportDoc {
    RunReportDoc {
        version: RunReportDoc::VERSION,
        trace_dropped_events: 7,
        config: ReportConfig {
            datatype: "vec(512,16,32,\"f64\")\\r\r".to_string(),
            msg_bytes: 65536,
            npkt: 32,
            gamma: 16.5,
            hpus: 16,
            payload_size: 2048,
            epsilon: 0.2,
            out_of_order,
        },
        strategies,
    }
}

fn traffic_doc() -> TrafficDoc {
    let tenant = |name: &str, lat: HistSummary| TenantTrafficReport {
        tenant: name.to_string(),
        offered: 1000,
        admitted: 950,
        completed: 910,
        dropped: 60,
        retried: 55,
        lost: 5,
        goodput_gbit: 88.5,
        latency: lat,
    };
    TrafficDoc {
        version: TrafficDoc::VERSION,
        seed: 11,
        hpus: 16,
        strategy: "RW-CP".to_string(),
        arrival: "mixed".to_string(),
        horizon_ps: 1_000_000_000,
        cells: vec![
            TrafficCell {
                app: "MILC/b".to_string(),
                discipline: "cfcfs".to_string(),
                offered_load: 0.9,
                byte_exact: true,
                utilization: Some(utilization()),
                tenants: vec![
                    tenant("t0", hist(&[(2_000_000, 995), (40_000_000, 5)])),
                    tenant("t\"1", hist(&[])),
                ],
            },
            TrafficCell {
                app: "COMB/a".to_string(),
                discipline: "blocked-rr".to_string(),
                offered_load: 1.2,
                byte_exact: false,
                utilization: None,
                tenants: Vec::new(),
            },
        ],
    }
}

fn profile_doc() -> ProfileDoc {
    let phase = |p: &str, ns, count| ProfilePhase {
        phase: p.to_string(),
        ns,
        count,
    };
    ProfileDoc {
        version: ProfileDoc::VERSION,
        command: "vector --count \"512\"".to_string(),
        wall_ns: 1_000_000,
        workers: vec![
            ProfileWorker {
                worker: 0,
                phases: vec![
                    phase("event_queue", 100_000, 512),
                    phase("handler", 600_000, 512),
                ],
            },
            ProfileWorker {
                worker: 1,
                phases: Vec::new(),
            },
            ProfileWorker {
                worker: 2,
                phases: vec![phase("handler", 200_000, 128)],
            },
        ],
    }
}

fn scenario(name: &str, kind: ScenarioKind) -> Scenario {
    Scenario::new(name, kind)
}

/// Every scenario shape the canonical serializer distinguishes.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    let mut out = Vec::new();
    out.push(("scn.fig16.default", scenario("fig16", ScenarioKind::Fig16)));

    let mut s = scenario("vec \"q\"\\", ScenarioKind::StrategyRun);
    s.workload = Some(WorkloadSpec::Vector {
        count: 512,
        blocklen: 16,
        stride: -32,
    });
    s.scheduling.out_of_order = Some(7);
    s.scheduling.engine = EngineMode::Eager;
    s.telemetry = TelemetrySpec {
        ring_capacity: Some(4096),
        bucket_ps: Some(1_000_000),
    };
    out.push(("scn.vector", s));

    let mut s = scenario("idx", ScenarioKind::FaultSweep);
    s.workload = Some(WorkloadSpec::Indexed {
        blocks: 64,
        blocklen: 3,
        seed: 9,
    });
    s.faults.drop = 0.05;
    s.faults.duplicate = 0.02;
    s.faults.corrupt = 0.01;
    s.faults.reorder_ns = 2000;
    s.sweep.scales = vec![0.0, 0.5, 1.0, 2.25];
    s.telemetry.ring_capacity = Some(1 << 20);
    out.push(("scn.indexed", s));

    let mut s = scenario("app", ScenarioKind::StrategyRun);
    s.workload = Some(WorkloadSpec::App {
        label: "MILC/b\n".to_string(),
    });
    s.telemetry.bucket_ps = Some(500);
    s.scheduling.epsilon = f64::NAN;
    out.push(("scn.app", s));

    let mut s = scenario("apps", ScenarioKind::DdtHostCompare);
    s.workload = Some(WorkloadSpec::Apps { max_kib: Some(512) });
    out.push(("scn.apps.max", s));

    let mut s = scenario("apps", ScenarioKind::Fig16);
    s.workload = Some(WorkloadSpec::Apps { max_kib: None });
    out.push(("scn.apps.all", s));

    let mut s = scenario("traffic", ScenarioKind::Traffic);
    s.traffic = Some(TrafficSpec::default());
    out.push(("scn.traffic.default", s));

    let mut s = scenario("traffic", ScenarioKind::Traffic);
    s.traffic = Some(TrafficSpec {
        apps: vec!["COMB/b".into(), "na\"s".into()],
        loads: vec![0.4, 1.0],
        disciplines: vec![QueueDiscipline::ALL[1]],
        tenants: 3,
        strategy: Strategy::Specialized,
        arrival: ArrivalKind::LogNormal,
        sigma: 0.75,
        flows_per_tenant: 2,
        rss_entries: 16,
        horizon_us: 200,
        buffer_kib: Some(256),
        seed: 5,
    });
    out.push(("scn.traffic.buffer", s));
    out
}

fn compare_doc(rows: Vec<CompareRow>) -> DdtCompareDoc {
    DdtCompareDoc {
        version: DdtCompareDoc::VERSION,
        rows,
    }
}

fn compare_row(label: &str, ratio: f64) -> CompareRow {
    CompareRow {
        label: label.to_string(),
        class: "vector",
        msg_bytes: 65536,
        blocks: 512,
        elements: 8192,
        byte_exact: true,
        engine_ps: 1_234_567,
        manual_ps: 9_876_543,
        engine_gbit: 424.75,
        manual_gbit: 53.0625,
        ratio,
    }
}

fn trace_events() -> Vec<TraceEvent> {
    let mut h = LogHistogram::new();
    h.record_n(100, 9);
    h.record(1_000_000);
    let ev = |scope, component, name, track, time, kind| TraceEvent {
        scope,
        component,
        name,
        track,
        time,
        kind,
    };
    vec![
        ev(
            "RW-CP",
            "spin",
            "handler",
            3,
            1_000_000,
            EventKind::Span { end: 2_500_000 },
        ),
        ev(
            "RW-CP",
            "spin",
            "dma_queue",
            0,
            1_200_000,
            EventKind::Gauge { value: 4.0 },
        ),
        ev(
            "RW-CP",
            "core",
            "checkpoint_revert",
            1,
            2_000_000,
            EventKind::Instant,
        ),
        ev(
            "RW-CP",
            "sim",
            "events",
            0,
            500_000,
            EventKind::Counter { delta: 2 },
        ),
        ev(
            "RW-CP",
            "sim",
            "events",
            0,
            900_000,
            EventKind::Counter { delta: 3 },
        ),
        ev(
            "",
            "spin",
            "handler_ps",
            0,
            3_000_000,
            EventKind::Value { value: 12.5 },
        ),
        ev(
            "",
            "x",
            "we\"ird\\\n",
            0,
            3_333_333,
            EventKind::Gauge { value: 0.1 },
        ),
        ev(
            "RO-CP",
            "spin",
            "handler_ps",
            0,
            4_000_000,
            EventKind::Hist { hist: Arc::new(h) },
        ),
    ]
}

fn aggregate() -> StreamAggregate {
    let mut agg = StreamAggregate::new(1_000_000);
    for ev in [
        TraceEvent {
            scope: "",
            component: "spin",
            name: "handler",
            track: 2,
            time: 500_000,
            kind: EventKind::Span { end: 2_250_000 },
        },
        TraceEvent {
            scope: "",
            component: "dma",
            name: "dma_chan",
            track: 0,
            time: 0,
            kind: EventKind::Span { end: 333_333 },
        },
        TraceEvent {
            scope: "",
            component: "spin",
            name: "dma_queue",
            track: 0,
            time: 100_000,
            kind: EventKind::Gauge { value: 3.0 },
        },
        TraceEvent {
            scope: "",
            component: "spin",
            name: "dma_queue",
            track: 0,
            time: 2_100_000,
            kind: EventKind::Gauge { value: 1.5 },
        },
    ] {
        agg.fold(&ev);
    }
    agg
}

#[test]
fn report_documents_keep_their_bytes() {
    let mut fault_cell = SweepCell {
        seed: 7,
        scale: 0.5,
        strategy: "RW-CP".to_string(),
        byte_exact: true,
        end_to_end_ps: 123_456,
        faults: faults(),
    };
    let sweep = FaultSweepDoc {
        version: FaultSweepDoc::VERSION,
        drop: 0.05,
        duplicate: 0.02,
        corrupt: f64::NEG_INFINITY,
        reorder_ns: 2000,
        cells: vec![fault_cell.clone(), {
            fault_cell.seed = 8;
            fault_cell.strategy = "HPU\\local".to_string();
            fault_cell.byte_exact = false;
            fault_cell.faults = FaultSummary::default();
            fault_cell
        }],
    };
    let empty_sweep = FaultSweepDoc {
        cells: Vec::new(),
        ..sweep.clone()
    };
    let mut bare_traffic = traffic_doc();
    bare_traffic.cells.truncate(0);
    check_hashes(&[
        (
            "run_report.full",
            run_report(vec![full_strategy(), bare_strategy()], Some(42)).to_json(),
            0x50bfcd1dd80e4954,
            2843,
        ),
        (
            "run_report.bare",
            run_report(vec![bare_strategy()], None).to_json(),
            0xec59187b42c6af7c,
            816,
        ),
        (
            "run_report.empty",
            run_report(Vec::new(), None).to_json(),
            0x7b6fa3a41d96f6a0,
            312,
        ),
        ("fault_sweep", sweep.to_json(), 0x42edcf626e362fc2, 1315),
        (
            "fault_sweep.empty",
            empty_sweep.to_json(),
            0x9e8ceaed88544a44,
            168,
        ),
        ("traffic", traffic_doc().to_json(), 0x342811b961aa86b5, 1723),
        (
            "traffic.empty",
            bare_traffic.to_json(),
            0xc86b40d347636eab,
            190,
        ),
        ("profile", profile_doc().to_json(), 0xe5e33d23cf0e196a, 609),
    ]);
}

#[test]
fn profile_document_literal() {
    let doc = ProfileDoc {
        version: ProfileDoc::VERSION,
        command: "x".to_string(),
        wall_ns: 100,
        workers: vec![ProfileWorker {
            worker: 0,
            phases: vec![ProfilePhase {
                phase: "handler".to_string(),
                ns: 60,
                count: 2,
            }],
        }],
    };
    assert_eq!(
        doc.to_json(),
        r#"{
  "kind": "ncmt-profile",
  "version": 1,
  "command": "x",
  "wall_ns": 100,
  "attributed_ns": 60,
  "other_ns": 40,
  "totals": {
    "handler": {"ns": 60, "count": 2}
  },
  "workers": [
    {
      "worker": 0,
      "phases": {
        "handler": {"ns": 60, "count": 2}
      }
    }
  ]
}
"#
    );
}

#[test]
fn scenario_documents_keep_their_bytes() {
    let expected: [(u64, usize); 8] = [
        (0x517a305b5eee9530, 302),
        (0x380caddde581a9a3, 461),
        (0x658596add946327a, 427),
        (0xcbe8d9b7d5687079, 377),
        (0x9913805c07abf3d3, 362),
        (0x82fa5690001448d4, 335),
        (0x49bf127fc3b9a881, 627),
        (0xcb147c6be1aa1182, 618),
    ];
    let scns = scenarios();
    assert_eq!(scns.len(), expected.len());
    let cases: Vec<_> = scns
        .into_iter()
        .zip(expected)
        .map(|((name, s), (hash, len))| (name, s.to_json(), hash, len))
        .collect();
    check_hashes(&cases);
}

#[test]
fn scenario_document_literal() {
    let mut s = scenario("t", ScenarioKind::Traffic);
    s.workload = Some(WorkloadSpec::Apps { max_kib: Some(64) });
    s.telemetry.bucket_ps = Some(250);
    s.traffic = Some(TrafficSpec {
        buffer_kib: Some(8),
        ..TrafficSpec::default()
    });
    assert_eq!(
        s.to_json(),
        r#"{
  "name": "t",
  "version": 1,
  "kind": "traffic",
  "workload": { "kind": "apps", "max_kib": 64 },
  "faults": { "drop": 0, "duplicate": 0, "corrupt": 0, "reorder_ns": 0, "seed": 1 },
  "scheduling": { "hpus": 16, "epsilon": 0.2, "engine": "auto", "copies": 1 },
  "telemetry": { "bucket_ps": 250 },
  "traffic": {
    "apps": ["milc", "comb", "fft2d"],
    "loads": [0.3, 0.6, 0.9, 1.2],
    "disciplines": ["blocked-rr", "cfcfs", "dfcfs"],
    "tenants": 4,
    "strategy": "RW-CP",
    "arrival": "poisson",
    "sigma": 1.5,
    "flows_per_tenant": 8,
    "rss_entries": 64,
    "horizon_us": 400,
    "buffer_kib": 8,
    "seed": 1
  },
  "sweep": { "seeds": 4, "seed0": 1, "scales": [0, 0.5, 1] }
}
"#
    );
}

#[test]
fn ddt_compare_document_keeps_its_bytes() {
    check_hashes(&[
        (
            "ddt_compare",
            compare_doc(vec![
                compare_row("MILC/b", 8.0),
                compare_row("NAS\"LU", f64::NAN),
            ])
            .to_json(),
            0xd4e657aa9912fd17,
            650,
        ),
        (
            "ddt_compare.empty",
            compare_doc(Vec::new()).to_json(),
            0xb62dd37daf33aa2e,
            66,
        ),
    ]);
    assert_eq!(
        compare_doc(vec![compare_row("a", 1.5)]).to_json(),
        r#"{
  "kind": "ncmt-ddt-compare",
  "version": 1,
  "rows": [
    {
      "label": "a",
      "class": "vector",
      "msg_bytes": 65536,
      "blocks": 512,
      "elements": 8192,
      "byte_exact": true,
      "engine_ps": 1234567,
      "manual_ps": 9876543,
      "engine_gbit": 424.75,
      "manual_gbit": 53.0625,
      "ratio": 1.5
    }
  ]
}
"#
    );
}

#[test]
fn criterion_baseline_document_keeps_its_bytes() {
    let dir = std::env::temp_dir().join(format!("nca-json-char-{}", std::process::id()));
    let s = criterion::Stats {
        mean: 1000.0,
        p50: 900.5,
        p95: 1500.0,
    };
    criterion::save_baseline_json_entry(
        &dir,
        "base\"line",
        "grp/one",
        &s,
        Some(criterion::Throughput::Elements(50)),
    )
    .unwrap();
    criterion::save_baseline_json_entry(&dir, "base\"line", "grp/t\\wo", &s, None).unwrap();
    criterion::save_baseline_json_entry(
        &dir,
        "base\"line",
        "grp/three",
        &s,
        Some(criterion::Throughput::Bytes(64)),
    )
    .unwrap();
    let text = std::fs::read_to_string(dir.join("base\"line.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        text,
        r#"{
  "kind": "nca-criterion-baseline",
  "version": 1,
  "baseline": "base\"line",
  "benches": [
    {"name": "grp/one", "mean_ns": 1000, "p50_ns": 900.5, "p95_ns": 1500, "unit": "elements", "per_iter": 50, "per_sec": 50000000},
    {"name": "grp/t\\wo", "mean_ns": 1000, "p50_ns": 900.5, "p95_ns": 1500},
    {"name": "grp/three", "mean_ns": 1000, "p50_ns": 900.5, "p95_ns": 1500, "unit": "bytes", "per_iter": 64, "per_sec": 64000000}
  ]
}
"#
    );
}

#[test]
fn perfetto_trace_keeps_its_bytes() {
    let events = trace_events();
    let agg = aggregate();
    check_hashes(&[
        (
            "trace.events",
            chrome_trace_json_with_aggregates(&events, &[]),
            0x3c425518cbb35448,
            1064,
        ),
        (
            "trace.events+aggs",
            chrome_trace_json_with_aggregates(&events, &[("RW-CP", &agg), ("", &agg)]),
            0xee014d97e566e37f,
            2322,
        ),
        (
            "trace.aggs",
            chrome_trace_json_with_aggregates(&[], &[("RO-CP", &agg)]),
            0x353a996970873474,
            706,
        ),
        (
            "trace.empty",
            chrome_trace_json_with_aggregates(&[], &[]),
            0x957bcb65661cdaa7,
            4,
        ),
    ]);
    let small = &events[..3];
    assert_eq!(
        chrome_trace_json_with_aggregates(small, &[]),
        r#"[
{"ph":"M","pid":1,"name":"process_name","args":{"name":"RW-CP/spin"}},
{"ph":"M","pid":2,"name":"process_name","args":{"name":"RW-CP/core"}},
{"ph":"X","pid":1,"tid":3,"ts":1,"dur":1.5,"name":"handler","cat":"spin"},
{"ph":"C","pid":1,"tid":0,"ts":1.2,"name":"dma_queue","args":{"dma_queue":4}},
{"ph":"i","pid":2,"tid":1,"ts":2,"name":"checkpoint_revert","s":"t"}
]
"#
    );
}
