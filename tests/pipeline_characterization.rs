//! Characterization of the concurrent and traffic receive paths.
//!
//! The expected tables below were recorded from the pipeline before the
//! single-message, concurrent and traffic front ends were folded onto
//! one shared NIC core; they pin every simulated output those front
//! ends expose so the refactor (and any later one) keeps them
//! byte-identical. Both runs use telemetry off, i.e. whichever DMA
//! engine `EngineMode::Auto` selects for an untraced run.
//!
//! - `run_concurrent`: per message `t_first_byte`, `t_complete`, the
//!   summed handler cost (init/setup/processing) and an FNV-1a hash of
//!   the landed receive buffer, over every queue discipline, 1 and 16
//!   HPUs, and simultaneous vs staggered starts.
//! - `run_traffic`: per tenant offered/admitted/completed/dropped/lost
//!   and an FNV-1a hash of the latency histogram's nonempty buckets,
//!   over every discipline × {RW-CP, Specialized}, at a light load and
//!   at an overload that exercises admission backoff and loss.

use std::fmt::Write as _;

use ncmt::core::runner::{Experiment, Strategy};
use ncmt::ddt::pack::buffer_span;
use ncmt::ddt::types::{elem, Datatype, DatatypeExt};
use ncmt::sim::Time;
use ncmt::spin::builtin::ContigProcessor;
use ncmt::spin::handler::HandlerCost;
use ncmt::spin::multi::{run_concurrent, MessageSpec};
use ncmt::spin::params::NicParams;
use ncmt::spin::sched::QueueDiscipline;
use ncmt::telemetry::Telemetry;
use ncmt::traffic::{run_traffic, TrafficSweepSpec};

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Four messages mixing fine-grained datatypes (deep DMA backlog, many
/// writes per handler) with a plain contiguous one.
fn concurrent_specs(params: &NicParams, stagger: Time) -> Vec<MessageSpec> {
    let fine = Datatype::vector(256, 4, 8, &elem::double());
    let wide = Datatype::vector(32, 128, 256, &elem::double());
    let mut specs = Vec::new();
    for (i, (dt, s)) in [
        (&fine, Strategy::RwCp),
        (&wide, Strategy::Specialized),
        (&fine, Strategy::Specialized),
    ]
    .into_iter()
    .enumerate()
    {
        let (origin, span) = buffer_span(dt, 1);
        specs.push(MessageSpec {
            packed: Experiment::new(dt.clone(), 1, params.clone())
                .packed_message()
                .into(),
            proc: s.build(dt, 1, params.clone(), 0.2, Telemetry::disabled()),
            host_origin: origin,
            host_span: span,
            start_time: i as Time * stagger,
        });
    }
    let contig: Vec<u8> = (0..20_000).map(|i| (i % 253) as u8).collect();
    specs.push(MessageSpec {
        packed: contig.into(),
        proc: Box::new(ContigProcessor::new(0, params.spin_min_handler())),
        host_origin: 0,
        host_span: 20_000,
        start_time: 3 * stagger,
    });
    specs
}

fn render_concurrent() -> String {
    let mut out = String::new();
    for d in QueueDiscipline::ALL {
        for hpus in [1, 16] {
            for stagger in [0, ncmt::sim::us(3)] {
                let mut params = NicParams::with_hpus(hpus);
                params.discipline = d;
                let reports = run_concurrent(concurrent_specs(&params, stagger), &params);
                for (m, r) in reports.iter().enumerate() {
                    let mut c = HandlerCost::default();
                    for h in &r.handler_costs {
                        c.add(h);
                    }
                    writeln!(
                        out,
                        "{} hpus={hpus} stagger={stagger} m{m}: first={} complete={} \
                         cost={}/{}/{} buf={:016x}",
                        d.label(),
                        r.t_first_byte,
                        r.t_complete,
                        c.init,
                        c.setup,
                        c.processing,
                        fnv1a(r.host_buf.iter().copied()),
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

fn render_traffic() -> String {
    let mut out = String::new();
    for d in QueueDiscipline::ALL {
        for s in [Strategy::RwCp, Strategy::Specialized] {
            for (load, buffer) in [(0.6, None), (2.5, Some(96 << 10))] {
                let mut spec = TrafficSweepSpec::new(5);
                spec.tenants = 3;
                spec.hpus = 8;
                spec.strategy = s;
                spec.horizon_ps = ncmt::sim::us(150);
                spec.pkt_buffer_bytes = buffer;
                let r = run_traffic(&spec.cell_config("COMB/b", load, d));
                writeln!(
                    out,
                    "{} {} load={load}: byte_exact={} t_end={}",
                    d.label(),
                    s.label(),
                    r.byte_exact,
                    r.t_end
                )
                .unwrap();
                for t in &r.tenants {
                    let buckets = t.latency.nonempty_buckets();
                    let hash =
                        fnv1a(buckets.iter().flat_map(|&(lo, n)| {
                            lo.to_le_bytes().into_iter().chain(n.to_le_bytes())
                        }));
                    writeln!(
                        out,
                        "  {}: offered={} admitted={} completed={} dropped={} lost={} \
                         latency={}x{:016x}",
                        t.name,
                        t.offered,
                        t.admitted,
                        t.completed,
                        t.dropped,
                        t.lost,
                        t.latency.count(),
                        hash,
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

const CONCURRENT: &str = r"blocked-rr hpus=1 stagger=0 m0: first=745000 complete=19184915 cost=600000/400000/11520000 buf=08711c4ddc15cd07
blocked-rr hpus=1 stagger=0 m1: first=829480 complete=25108627 cost=2400000/0/480000 buf=90af7f4d10ad2621
blocked-rr hpus=1 stagger=0 m2: first=913960 complete=20574915 cost=600000/0/3840000 buf=08711c4ddc15cd07
blocked-rr hpus=1 stagger=0 m3: first=998440 complete=23728627 cost=2260000/0/0 buf=39b2636f2c0a3995
blocked-rr hpus=1 stagger=3000000 m0: first=745000 complete=14186915 cost=600000/400000/11520000 buf=08711c4ddc15cd07
blocked-rr hpus=1 stagger=3000000 m1: first=3745000 complete=17708627 cost=2400000/0/480000 buf=90af7f4d10ad2621
blocked-rr hpus=1 stagger=3000000 m2: first=6745000 complete=22506915 cost=600000/0/3840000 buf=08711c4ddc15cd07
blocked-rr hpus=1 stagger=3000000 m3: first=9745000 complete=25108627 cost=2260000/0/0 buf=39b2636f2c0a3995
blocked-rr hpus=16 stagger=0 m0: first=745000 complete=5660675 cost=600000/400000/11520000 buf=08711c4ddc15cd07
blocked-rr hpus=16 stagger=0 m1: first=829480 complete=4307267 cost=2400000/0/480000 buf=90af7f4d10ad2621
blocked-rr hpus=16 stagger=0 m2: first=913960 complete=3848184 cost=600000/0/3840000 buf=08711c4ddc15cd07
blocked-rr hpus=16 stagger=0 m3: first=998440 complete=3921006 cost=2260000/0/0 buf=39b2636f2c0a3995
blocked-rr hpus=16 stagger=3000000 m0: first=745000 complete=5360875 cost=600000/400000/11520000 buf=08711c4ddc15cd07
blocked-rr hpus=16 stagger=3000000 m1: first=3745000 complete=5805827 cost=2400000/0/480000 buf=90af7f4d10ad2621
blocked-rr hpus=16 stagger=3000000 m2: first=6745000 complete=9251779 cost=600000/0/3840000 buf=08711c4ddc15cd07
blocked-rr hpus=16 stagger=3000000 m3: first=9745000 complete=11316806 cost=2260000/0/0 buf=39b2636f2c0a3995
cfcfs hpus=1 stagger=0 m0: first=745000 complete=19184915 cost=600000/400000/11520000 buf=08711c4ddc15cd07
cfcfs hpus=1 stagger=0 m1: first=829480 complete=25108627 cost=2400000/0/480000 buf=90af7f4d10ad2621
cfcfs hpus=1 stagger=0 m2: first=913960 complete=20574915 cost=600000/0/3840000 buf=08711c4ddc15cd07
cfcfs hpus=1 stagger=0 m3: first=998440 complete=23728627 cost=2260000/0/0 buf=39b2636f2c0a3995
cfcfs hpus=1 stagger=3000000 m0: first=745000 complete=14186915 cost=600000/400000/11520000 buf=08711c4ddc15cd07
cfcfs hpus=1 stagger=3000000 m1: first=3745000 complete=17708627 cost=2400000/0/480000 buf=90af7f4d10ad2621
cfcfs hpus=1 stagger=3000000 m2: first=6745000 complete=22506915 cost=600000/0/3840000 buf=08711c4ddc15cd07
cfcfs hpus=1 stagger=3000000 m3: first=9745000 complete=25108627 cost=2260000/0/0 buf=39b2636f2c0a3995
cfcfs hpus=16 stagger=0 m0: first=745000 complete=5660675 cost=600000/400000/11520000 buf=08711c4ddc15cd07
cfcfs hpus=16 stagger=0 m1: first=829480 complete=4307267 cost=2400000/0/480000 buf=90af7f4d10ad2621
cfcfs hpus=16 stagger=0 m2: first=913960 complete=3848184 cost=600000/0/3840000 buf=08711c4ddc15cd07
cfcfs hpus=16 stagger=0 m3: first=998440 complete=3921006 cost=2260000/0/0 buf=39b2636f2c0a3995
cfcfs hpus=16 stagger=3000000 m0: first=745000 complete=5360875 cost=600000/400000/11520000 buf=08711c4ddc15cd07
cfcfs hpus=16 stagger=3000000 m1: first=3745000 complete=5805827 cost=2400000/0/480000 buf=90af7f4d10ad2621
cfcfs hpus=16 stagger=3000000 m2: first=6745000 complete=9251779 cost=600000/0/3840000 buf=08711c4ddc15cd07
cfcfs hpus=16 stagger=3000000 m3: first=9745000 complete=11316806 cost=2260000/0/0 buf=39b2636f2c0a3995
dfcfs hpus=1 stagger=0 m0: first=745000 complete=19184915 cost=600000/400000/11520000 buf=08711c4ddc15cd07
dfcfs hpus=1 stagger=0 m1: first=829480 complete=25108627 cost=2400000/0/480000 buf=90af7f4d10ad2621
dfcfs hpus=1 stagger=0 m2: first=913960 complete=20574915 cost=600000/0/3840000 buf=08711c4ddc15cd07
dfcfs hpus=1 stagger=0 m3: first=998440 complete=23728627 cost=2260000/0/0 buf=39b2636f2c0a3995
dfcfs hpus=1 stagger=3000000 m0: first=745000 complete=14186915 cost=600000/400000/11520000 buf=08711c4ddc15cd07
dfcfs hpus=1 stagger=3000000 m1: first=3745000 complete=17708627 cost=2400000/0/480000 buf=90af7f4d10ad2621
dfcfs hpus=1 stagger=3000000 m2: first=6745000 complete=22506915 cost=600000/0/3840000 buf=08711c4ddc15cd07
dfcfs hpus=1 stagger=3000000 m3: first=9745000 complete=25108627 cost=2260000/0/0 buf=39b2636f2c0a3995
dfcfs hpus=16 stagger=0 m0: first=745000 complete=8164835 cost=600000/400000/11520000 buf=08711c4ddc15cd07
dfcfs hpus=16 stagger=0 m1: first=829480 complete=5394467 cost=2400000/0/480000 buf=90af7f4d10ad2621
dfcfs hpus=16 stagger=0 m2: first=913960 complete=3848184 cost=600000/0/3840000 buf=08711c4ddc15cd07
dfcfs hpus=16 stagger=0 m3: first=998440 complete=8558547 cost=2260000/0/0 buf=39b2636f2c0a3995
dfcfs hpus=16 stagger=3000000 m0: first=745000 complete=7911395 cost=600000/400000/11520000 buf=08711c4ddc15cd07
dfcfs hpus=16 stagger=3000000 m1: first=3745000 complete=5805827 cost=2400000/0/480000 buf=90af7f4d10ad2621
dfcfs hpus=16 stagger=3000000 m2: first=6745000 complete=9251779 cost=600000/0/3840000 buf=08711c4ddc15cd07
dfcfs hpus=16 stagger=3000000 m3: first=9745000 complete=11316806 cost=2260000/0/0 buf=39b2636f2c0a3995
";

const TRAFFIC: &str = r"blocked-rr RW-CP load=0.6: byte_exact=true t_end=173523123
  t0: offered=728 admitted=728 completed=728 dropped=0 lost=0 latency=728x37d4a139012291ff
  t1: offered=650 admitted=650 completed=650 dropped=0 lost=0 latency=650xee4cc3aadb308ee6
  t2: offered=699 admitted=699 completed=699 dropped=0 lost=0 latency=699x3f985c671f8ed175
blocked-rr RW-CP load=2.5: byte_exact=true t_end=556616523
  t0: offered=2944 admitted=2315 completed=2315 dropped=16911 lost=629 latency=2315x60961ca386dec643
  t1: offered=2772 admitted=2212 completed=2212 dropped=16029 lost=560 latency=2212xe7f24951b1e7b351
  t2: offered=2820 admitted=2201 completed=2201 dropped=16178 lost=619 latency=2201x26d497f3c11c9eb8
blocked-rr Specialized load=0.6: byte_exact=true t_end=151604851
  t0: offered=728 admitted=728 completed=728 dropped=0 lost=0 latency=728x3d6f92238203e3e5
  t1: offered=650 admitted=650 completed=650 dropped=0 lost=0 latency=650x716934eeb9a9c3d8
  t2: offered=699 admitted=699 completed=699 dropped=0 lost=0 latency=699x95fed0c48c64493f
blocked-rr Specialized load=2.5: byte_exact=true t_end=429939199
  t0: offered=2944 admitted=2944 completed=2944 dropped=10704 lost=0 latency=2944x8cee8fef1e82d92f
  t1: offered=2772 admitted=2772 completed=2772 dropped=9727 lost=0 latency=2772x9b349aea58501843
  t2: offered=2820 admitted=2820 completed=2820 dropped=9981 lost=0 latency=2820x477a7e3ae2b64373
cfcfs RW-CP load=0.6: byte_exact=true t_end=173523123
  t0: offered=728 admitted=728 completed=728 dropped=0 lost=0 latency=728x37d4a139012291ff
  t1: offered=650 admitted=650 completed=650 dropped=0 lost=0 latency=650xee4cc3aadb308ee6
  t2: offered=699 admitted=699 completed=699 dropped=0 lost=0 latency=699x3f985c671f8ed175
cfcfs RW-CP load=2.5: byte_exact=true t_end=556616523
  t0: offered=2944 admitted=2315 completed=2315 dropped=16911 lost=629 latency=2315x60961ca386dec643
  t1: offered=2772 admitted=2212 completed=2212 dropped=16029 lost=560 latency=2212xe7f24951b1e7b351
  t2: offered=2820 admitted=2201 completed=2201 dropped=16178 lost=619 latency=2201x26d497f3c11c9eb8
cfcfs Specialized load=0.6: byte_exact=true t_end=151604851
  t0: offered=728 admitted=728 completed=728 dropped=0 lost=0 latency=728x3d6f92238203e3e5
  t1: offered=650 admitted=650 completed=650 dropped=0 lost=0 latency=650x716934eeb9a9c3d8
  t2: offered=699 admitted=699 completed=699 dropped=0 lost=0 latency=699x95fed0c48c64493f
cfcfs Specialized load=2.5: byte_exact=true t_end=429939199
  t0: offered=2944 admitted=2944 completed=2944 dropped=10704 lost=0 latency=2944x8cee8fef1e82d92f
  t1: offered=2772 admitted=2772 completed=2772 dropped=9727 lost=0 latency=2772x9b349aea58501843
  t2: offered=2820 admitted=2820 completed=2820 dropped=9981 lost=0 latency=2820x477a7e3ae2b64373
dfcfs RW-CP load=0.6: byte_exact=true t_end=364580090
  t0: offered=728 admitted=728 completed=728 dropped=315 lost=0 latency=728x1910659d61fd532c
  t1: offered=650 admitted=650 completed=650 dropped=312 lost=0 latency=650x2e1f5968ec152e46
  t2: offered=699 admitted=699 completed=699 dropped=298 lost=0 latency=699xb192d673f48e37bd
dfcfs RW-CP load=2.5: byte_exact=true t_end=608009483
  t0: offered=2944 admitted=1220 completed=1220 dropped=21228 lost=1724 latency=1220x835cf57a3b5d89b3
  t1: offered=2772 admitted=1192 completed=1192 dropped=19921 lost=1580 latency=1192xb11200daa71517c1
  t2: offered=2820 admitted=1144 completed=1144 dropped=20278 lost=1676 latency=1144x01aa37db98f6684c
dfcfs Specialized load=0.6: byte_exact=true t_end=177971610
  t0: offered=728 admitted=728 completed=728 dropped=0 lost=0 latency=728xc92fc68fd9ad9c5d
  t1: offered=650 admitted=650 completed=650 dropped=0 lost=0 latency=650x996f6a9ce9f9de5b
  t2: offered=699 admitted=699 completed=699 dropped=0 lost=0 latency=699x1ad867f6c5d45fc7
dfcfs Specialized load=2.5: byte_exact=true t_end=573629483
  t0: offered=2944 admitted=2306 completed=2306 dropped=16698 lost=638 latency=2306x6c6976b1f9fffb9b
  t1: offered=2772 admitted=2146 completed=2146 dropped=15670 lost=626 latency=2146x1996db6f6128c33b
  t2: offered=2820 admitted=2225 completed=2225 dropped=15632 lost=595 latency=2225xda3e911488038794
";

#[test]
fn concurrent_front_end_outputs_are_pinned() {
    assert_eq!(render_concurrent(), CONCURRENT);
}

#[test]
fn traffic_front_end_outputs_are_pinned() {
    assert_eq!(render_traffic(), TRAFFIC);
}
