//! The benchmark's own checks, at a tiny size.

use std::sync::Mutex;

use ncmt_perfbench::{run, Options, Outcome, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Span tracing is process-wide: run one benchmark at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(w: Workload, seed: u64, trace: bool) -> Options {
    let mut o = Options::new(w, seed, 0.05, trace);
    o.tiny = true;
    o
}

fn bench(opts: &Options) -> Outcome {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(opts)
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("section present");
    let field = |entry: &str, key: &str| {
        entry
            .split(&format!("\"{key}\": \""))
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("field present")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn names(ms: &[ncmt_perfbench::Metric]) -> Vec<(String, String)> {
    ms.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_metric_is_reported_with_its_unit_for_every_workload() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let printed_only = [
        "failed_frac",
        "sim.speedup_geomean",
        "sim.speedup_max",
        "sim.p99_us",
        "sim.goodput_gbit",
        "sim.lost_frac",
    ];
    for w in Workload::ALL {
        let plain = bench(&tiny(w, DEFAULT_SEED, false));
        assert!(plain.correct(), "{}: {:?}", w.name(), plain.errors);
        assert_eq!(names(&plain.end_to_end), e2e, "{}", w.name());
        let json = plain.result_json(false);
        let text = plain.render();
        for (name, unit) in &e2e {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing"
            );
            assert!(
                json.contains(&format!("\"unit\": \"{unit}\"")),
                "{unit} missing"
            );
        }
        for name in printed_only {
            assert!(text.contains(name), "{}: {name} not printed", w.name());
        }
        let traced = bench(&tiny(w, DEFAULT_SEED, true));
        assert_eq!(names(&traced.per_layer), layers, "{}", w.name());
    }
}

#[test]
fn a_corrupted_receive_buffer_copy_fails_jobs() {
    let mut opts = tiny(Workload::AppsFig16, DEFAULT_SEED, false);
    opts.corrupt_first = true;
    let out = bench(&opts);
    assert!(!out.correct());
    assert!(out.get("failed_frac").unwrap() > 0.0);
    assert!(out.result_json(false).starts_with("{\"correct\": false"));
}

#[test]
fn telemetry_stays_off_on_apps_fig16() {
    let out = bench(&tiny(Workload::AppsFig16, DEFAULT_SEED, true));
    assert_eq!(out.get("telemetry.events"), Some(0.0));
    assert_eq!(out.get("telemetry.record_s"), Some(0.0));
    let observed = bench(&tiny(Workload::Observed, DEFAULT_SEED, true));
    assert!(observed.get("telemetry.events").unwrap() > 0.0);
}

#[test]
fn the_seed_moves_only_generated_inputs() {
    for w in Workload::ALL {
        let a = bench(&tiny(w, DEFAULT_SEED, false));
        let b = bench(&tiny(w, HELD_OUT_SEED, false));
        assert!(a.correct() && b.correct(), "{}", w.name());
        if w.seeded() {
            assert_ne!(
                a.digest,
                b.digest,
                "{}: seed left the digest unchanged",
                w.name()
            );
        } else {
            assert_eq!(a.digest, b.digest, "{}: seed moved the digest", w.name());
        }
    }
}

#[test]
fn the_digest_does_not_depend_on_the_pool_width() {
    for w in Workload::ALL {
        let mut serial = tiny(w, DEFAULT_SEED, false);
        serial.jobs = 1;
        let mut wide = serial.clone();
        wide.jobs = 4;
        assert_eq!(bench(&serial).digest, bench(&wide).digest, "{}", w.name());
    }
}
