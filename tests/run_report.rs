//! Acceptance test for the flight-recorder/run-report layer: for an
//! RW-CP run, (a) the attributed per-stage times must sum to the
//! span-measured end-to-end window within 1% (they tile it exactly by
//! construction), and (b) the observed scheduling overhead must respect
//! the ε bound — or the report must flag the violation.

use ncmt::core::report::{report_config, strategy_report};
use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::spin::params::NicParams;
use ncmt::telemetry::report::RunReportDoc;
use ncmt::telemetry::Telemetry;

fn rwcp_report() -> (ncmt::telemetry::report::StrategyReport, Experiment) {
    let dt = Datatype::vector(512, 16, 32, &elem::double());
    let mut exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
    let (tel, sink) = Telemetry::ring(1 << 20);
    exp.telemetry = tel.scoped("RW-CP");
    let run = exp.run_modeled(Strategy::RwCp);
    let rep = strategy_report(&exp, &run, &sink.events(), "RW-CP");
    (rep, exp)
}

#[test]
fn attributed_times_sum_to_the_measured_window_within_one_percent() {
    let (rep, _exp) = rwcp_report();
    let e2e = rep.end_to_end_ps as f64;
    let sum = rep.attribution_sum() as f64;
    assert!(e2e > 0.0);
    assert!(
        (sum - e2e).abs() <= 0.01 * e2e,
        "attribution sum {sum} vs end-to-end {e2e}"
    );
    // The attribution is meaningful, not one catch-all bucket: real
    // handler work and DMA time both show up.
    let get = |label: &str| {
        rep.attribution
            .iter()
            .find(|&&(l, _)| l == label)
            .map(|&(_, t)| t)
            .unwrap_or(0)
    };
    assert!(get("handler_proc") > 0, "handler time attributed");
    assert!(get("dma") + get("drain") > 0, "DMA time attributed");
}

#[test]
fn observed_scheduling_overhead_respects_epsilon_or_is_flagged() {
    let (rep, _exp) = rwcp_report();
    let m = rep.model.expect("RW-CP must carry a model block");
    assert!(m.sched_budget_ps > 0, "budget derives from ε·⌈npkt/P⌉·T_PH");
    assert!(
        m.sched_overhead_ps <= m.sched_budget_ps || !m.epsilon_respected,
        "overhead {} exceeds budget {} without being flagged",
        m.sched_overhead_ps,
        m.sched_budget_ps
    );
    if m.planned_epsilon_violated {
        assert!(!m.epsilon_respected, "a planned violation must propagate");
    }
    assert!(m.t_ph_predicted_ps > 0);
    assert!(m.t_ph_measured_ps > 0.0);
}

#[test]
fn full_document_round_trips_with_the_rwcp_entry() {
    let (rep, exp) = rwcp_report();
    let doc = RunReportDoc {
        version: RunReportDoc::VERSION,
        trace_dropped_events: 0,
        config: report_config(&exp),
        strategies: vec![rep],
    };
    let v = ncmt::telemetry::json::Json::parse(&doc.to_json()).expect("own JSON parses");
    let strat = &v
        .get("strategies")
        .and_then(ncmt::telemetry::json::Json::as_arr)
        .unwrap()[0];
    assert_eq!(
        strat
            .path("attribution_sum_ps")
            .and_then(ncmt::telemetry::json::Json::as_f64),
        strat
            .path("end_to_end_ps")
            .and_then(ncmt::telemetry::json::Json::as_f64),
    );
    assert!(strat.path("model.epsilon_respected").is_some());
}
