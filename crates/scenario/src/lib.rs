//! Declarative scenario configs for the NCMT reproduction: one JSON
//! document names workload × traffic × faults × scheduling × telemetry
//! × sweep, a strict hand-rolled parser rejects anything it does not
//! understand (unknown keys are hard errors naming the JSON path), and
//! the compiler turns the result into the same deterministic pool jobs
//! the individual CLI subcommands always ran — so `ncmt_cli run
//! scenarios/fig16.json` and the legacy `fig16`/`fault-sweep`/`traffic`
//! entry points produce byte-identical artifacts at any `--jobs` value.
//!
//! Layers:
//! - [`schema`] — the scenario document as plain data with defaults
//!   and a canonical serializer.
//! - [`parse_scenario`] — strict JSON → [`Scenario`].
//! - [`exec`] — [`Scenario::compile`] into a [`exec::Plan`] and run it.
//! - [`fig16`] — the Fig. 16 application-speedup table (moved here
//!   from `nca-bench`, which re-exports it).
//! - [`ddt_compare`] — dataloop/kernels engine vs naive element-wise
//!   manual copy, per application datatype.

pub mod ddt_compare;
pub mod exec;
pub mod fig16;
mod parse;
pub mod schema;

pub use exec::{Artifact, Outcome, Plan, RunOptions, StrategyPlan};
pub use parse::{parse_scenario, parse_strategy};
pub use schema::{
    FaultsSpec, Scenario, ScenarioKind, SchedulingSpec, SweepSpec, TelemetrySpec, TrafficSpec,
    WorkloadSpec, VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_for_every_kind() {
        for kind in ScenarioKind::ALL {
            let mut scn = Scenario::new("rt", kind);
            if matches!(kind, ScenarioKind::Traffic) {
                scn.traffic = Some(TrafficSpec::default());
            }
            if matches!(kind, ScenarioKind::StrategyRun | ScenarioKind::FaultSweep) {
                scn.workload = Some(WorkloadSpec::Vector {
                    count: 512,
                    blocklen: 16,
                    stride: 32,
                });
            }
            let text = scn.to_json();
            let back = parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(back, scn, "{} round trip", kind.label());
        }
    }

    #[test]
    fn escaped_surrogate_pair_names_round_trip() {
        // Python's json.dump escapes non-ASCII text by default, writing
        // astral characters such as emoji as UTF-16 surrogate pairs.
        let text = r#"{ "name": "run \ud83d\ude00", "version": 1, "kind": "fig16" }"#;
        let scn = parse_scenario(text).unwrap();
        assert_eq!(scn.name, "run \u{1f600}");
        assert_eq!(parse_scenario(&scn.to_json()).unwrap(), scn);
    }

    #[test]
    fn unknown_top_level_key_is_rejected_with_its_path() {
        let err =
            parse_scenario(r#"{ "name": "x", "version": 1, "kind": "fig16", "workloads": {} }"#)
                .unwrap_err();
        assert!(err.contains("scenario.workloads"), "{err}");
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn nested_unknown_key_names_the_full_path() {
        let err = parse_scenario(
            r#"{ "name": "x", "version": 1, "kind": "traffic",
                 "traffic": { "loadz": [0.5] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("scenario.traffic.loadz"), "{err}");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let err = parse_scenario(r#"{ "name": "x", "version": 2, "kind": "fig16" }"#).unwrap_err();
        assert!(err.contains("scenario.version"), "{err}");
    }

    #[test]
    fn bad_array_entries_name_their_index() {
        let err = parse_scenario(
            r#"{ "name": "x", "version": 1, "kind": "traffic",
                 "traffic": { "loads": [0.5, -1.0] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("scenario.traffic.loads[1]"), "{err}");
    }

    #[test]
    fn fault_sweep_without_rates_fails_to_compile() {
        let mut scn = Scenario::new("s", ScenarioKind::FaultSweep);
        scn.workload = Some(WorkloadSpec::Vector {
            count: 512,
            blocklen: 16,
            stride: 32,
        });
        let err = scn.compile().unwrap_err();
        assert!(err.contains("scenario.faults"), "{err}");
    }

    #[test]
    fn traffic_section_is_rejected_on_other_kinds() {
        let mut scn = Scenario::new("s", ScenarioKind::Fig16);
        scn.traffic = Some(TrafficSpec::default());
        let err = scn.compile().unwrap_err();
        assert!(err.contains("scenario.traffic"), "{err}");
    }

    #[test]
    fn sweep_expansion_is_seed_major() {
        let sweep = SweepSpec {
            seeds: 2,
            seed0: 5,
            scales: vec![0.0, 1.0],
        };
        assert_eq!(sweep.expand(), vec![(5, 0.0), (5, 1.0), (6, 0.0), (6, 1.0)]);
    }
}
