//! The eager (event-free) DMA engine must be observationally identical
//! to the event-driven one: same completion time, same landed bytes,
//! same write/byte counters and the same `dma_max_queue` high-water
//! mark. The eager engine runs whenever telemetry is off and no DMA
//! occupancy time series was requested — i.e. in every benchmark and
//! figure hot loop — so this equivalence is what keeps the perf fast
//! path honest against the reference pipeline.
//!
//! The reference runs are forced onto the event-driven engine two ways:
//! with a live (ring) telemetry sink, and with telemetry off but the
//! occupancy series on. Both must agree with the eager run.
//!
//! All three front ends of the shared pipeline are covered: single
//! messages (with and without faults), concurrent message sets whose
//! DMA writes interleave in one FIFO (a data write queued behind another
//! message's completion write must not overtake it), and open-loop
//! traffic cells, where admission depends on when completions land.
//! The concurrent and traffic front ends take the event engine when
//! traced, so their references run with a ring sink.

use ncmt::core::runner::{packed_message, Experiment, Strategy};
use ncmt::ddt::pack::buffer_span;
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::sim::{FaultSpec, Time};
use ncmt::spin::builtin::ContigProcessor;
use ncmt::spin::multi::{run_concurrent, run_concurrent_traced, MessageSpec};
use ncmt::spin::nic::RunReport;
use ncmt::spin::params::NicParams;
use ncmt::spin::sched::QueueDiscipline;
use ncmt::telemetry::Telemetry;
use ncmt::traffic::{run_traffic, run_traffic_with, TrafficSweepSpec};

fn assert_equiv(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.t_complete, b.t_complete, "{what}: t_complete");
    assert_eq!(a.t_first_byte, b.t_first_byte, "{what}: t_first_byte");
    assert_eq!(a.dma_writes, b.dma_writes, "{what}: dma_writes");
    assert_eq!(a.dma_bytes, b.dma_bytes, "{what}: dma_bytes");
    assert_eq!(a.dma_max_queue, b.dma_max_queue, "{what}: dma_max_queue");
    assert_eq!(*a.host_buf, *b.host_buf, "{what}: host_buf");
    assert_eq!(
        a.nic_mem_hwm_bytes, b.nic_mem_hwm_bytes,
        "{what}: nic_mem_hwm"
    );
}

/// Workloads spanning γ regimes: fine blocks (DMA queue backlog), wide
/// blocks (service-bound) and a multi-count message.
fn workloads() -> Vec<(Datatype, u32)> {
    vec![
        (Datatype::vector(512, 16, 32, &elem::double()), 1),
        (Datatype::vector(64, 256, 512, &elem::double()), 1),
        (Datatype::vector(128, 4, 8, &elem::double()), 3),
    ]
}

#[test]
fn eager_dma_matches_event_driven_engine() {
    for (dt, count) in workloads() {
        for s in Strategy::ALL {
            let mut exp = Experiment::new(dt.clone(), count, NicParams::with_hpus(16));
            exp.verify = false;
            let eager = exp.run(s); // telemetry off, no history: eager engine

            let mut hist = exp.clone();
            hist.record_dma_history = true; // event-driven, telemetry still off
            let evented = hist.run(s);
            assert_equiv(&eager, &evented, &format!("{} history-run", s.label()));
            assert!(
                !evented.dma_history.is_empty(),
                "reference run must have taken the event-driven engine"
            );

            let mut tel = exp.clone();
            let (sink, _ring) = Telemetry::ring(1 << 14);
            tel.telemetry = sink; // event-driven via the telemetry gate
            let traced = tel.run(s);
            assert_equiv(&eager, &traced, &format!("{} traced-run", s.label()));
        }
    }
}

#[test]
fn eager_dma_matches_event_driven_engine_under_faults() {
    // The reliable-delivery path re-runs handlers for retransmitted
    // packets; DMA arrivals stay FIFO at nondecreasing times, which is
    // the property the eager schedule rests on.
    let dt = Datatype::vector(256, 8, 16, &elem::double());
    let mut exp = Experiment::new(dt, 1, NicParams::with_hpus(16));
    exp.verify = true;
    exp.faults = FaultSpec {
        drop: 0.08,
        ..FaultSpec::inert()
    };
    for s in Strategy::ALL {
        let eager = exp.run(s);
        let mut hist = exp.clone();
        hist.record_dma_history = true;
        let evented = hist.run(s);
        assert_equiv(&eager, &evented, &format!("{} faulty", s.label()));
    }
}

/// Fine-grained messages (many small writes per handler, a deep DMA
/// backlog) next to wide and contiguous ones, all with the same start
/// offset `stagger` apart.
fn concurrent_specs(params: &NicParams, stagger: Time) -> Vec<MessageSpec> {
    let fine = Datatype::vector(128, 2, 4, &elem::double());
    let wide = Datatype::vector(16, 256, 512, &elem::double());
    let mut specs: Vec<MessageSpec> = [&fine, &wide, &fine, &fine]
        .into_iter()
        .zip([
            Strategy::RwCp,
            Strategy::Specialized,
            Strategy::HpuLocal,
            Strategy::RoCp,
        ])
        .map(|(dt, s)| {
            let (origin, span) = buffer_span(dt, 2);
            MessageSpec {
                packed: packed_message(dt, 2).into(),
                proc: s.build(dt, 2, params.clone(), 0.2, Telemetry::disabled()),
                host_origin: origin,
                host_span: span,
                start_time: 0,
            }
        })
        .collect();
    specs.push(MessageSpec {
        packed: vec![7u8; 9000].into(),
        proc: Box::new(ContigProcessor::new(0, params.spin_min_handler())),
        host_origin: 0,
        host_span: 9000,
        start_time: 0,
    });
    for (i, s) in specs.iter_mut().enumerate() {
        s.start_time = i as Time * stagger;
    }
    specs
}

#[test]
fn eager_dma_matches_event_driven_engine_for_concurrent_messages() {
    for d in QueueDiscipline::ALL {
        for hpus in [1, 4, 16] {
            for stagger in [0, ncmt::sim::ns(700), ncmt::sim::us(4)] {
                let mut params = NicParams::with_hpus(hpus);
                params.discipline = d;
                params.dma_channels = 2;
                let what = format!("{} hpus={hpus} stagger={stagger}", d.label());
                let eager = run_concurrent(concurrent_specs(&params, stagger), &params);
                let (tel, _ring) = Telemetry::ring(1 << 10);
                let evented =
                    run_concurrent_traced(concurrent_specs(&params, stagger), &params, tel);
                assert_eq!(eager.len(), evented.len());
                for (m, (a, b)) in eager.iter().zip(&evented).enumerate() {
                    assert_eq!(a.t_first_byte, b.t_first_byte, "{what} m{m}: t_first_byte");
                    assert_eq!(a.t_complete, b.t_complete, "{what} m{m}: t_complete");
                    assert_eq!(a.handler_costs, b.handler_costs, "{what} m{m}: costs");
                    assert_eq!(a.host_buf, b.host_buf, "{what} m{m}: host_buf");
                }
            }
        }
    }
}

#[test]
fn eager_dma_matches_event_driven_engine_for_traffic_cells() {
    for d in QueueDiscipline::ALL {
        for s in [Strategy::RwCp, Strategy::Specialized] {
            for (load, buffer) in [(0.8, None), (2.0, Some(64 << 10))] {
                let mut spec = TrafficSweepSpec::new(9);
                spec.tenants = 3;
                spec.hpus = 4;
                spec.strategy = s;
                spec.horizon_ps = ncmt::sim::us(40);
                spec.pkt_buffer_bytes = buffer;
                let cfg = spec.cell_config("NAS-MG/a", load, d);
                let what = format!("{} {} load={load}", d.label(), s.label());
                let eager = run_traffic(&cfg);
                let (tel, _ring) = Telemetry::ring(1 << 10);
                let evented = run_traffic_with(&cfg, &tel);
                assert!(eager.byte_exact && evented.byte_exact, "{what}: byte_exact");
                assert_eq!(eager.t_end, evented.t_end, "{what}: t_end");
                for (a, b) in eager.tenants.iter().zip(&evented.tenants) {
                    let counts = |t: &ncmt::traffic::TenantStats| {
                        let c = [t.offered, t.admitted, t.completed, t.dropped, t.retried];
                        (c, t.lost, t.bytes_completed)
                    };
                    assert_eq!(counts(a), counts(b), "{what} {}: accounting", a.name);
                    assert_eq!(a.latency, b.latency, "{what} {}: latency", a.name);
                }
            }
        }
    }
}
