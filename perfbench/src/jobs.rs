//! One pool job: a strategy receive, the two baselines of an input, or
//! a traffic cell. Each drives the layers through their public calls and
//! checks what they produced.

use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

use nca_core::costmodel::HandlerCycles;
use nca_core::heuristic::select_checkpoint_interval;
use nca_core::runner::{Experiment, ModeledRun, Strategy};
use nca_core::strategies::estimate_t_ph;
use nca_ddt::dataloop::compile_cached;
use nca_ddt::pack::{buffer_span, unpack};
use nca_sim::{FaultSpec, WireBuf};
use nca_spin::handler::MessageProcessor;
use nca_spin::nic::{EngineMode, ReceiveSim, RunConfig, RunReport};
use nca_spin::params::{NicParams, ReliabilityParams};
use nca_telemetry::hist::LogHistogram;
use nca_telemetry::report::{TrafficCell, UtilizationReport};
use nca_telemetry::{
    Recorder, RingRecorder, StreamAggregate, StreamingRecorder, TeeRecorder, Telemetry, TraceEvent,
};
use nca_traffic::engine::run_traffic_with;
use nca_traffic::sweep::cell_report;

use crate::setup::{Capture, Cell, Input, Job, Mode};
use crate::trace::{span, TimedProcessor, TimedRecorder};

/// Deterministic counts of one job (they repeat exactly run to run).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Strategy receives completed.
    pub receives: u64,
    /// Packets of completed receives (message packets, or traffic
    /// payload-handler invocations).
    pub pkts: u64,
    pub handler_calls: u64,
    pub handler_blocks: u64,
    pub catchup_blocks: u64,
    pub dma_writes: u64,
    pub transmissions: u64,
    pub retransmissions: u64,
    pub host_fallback_pkts: u64,
    /// Receives that ran the eager engine.
    pub eager: u64,
    /// Bytes `packed_message` touched: span-sized source fill, gather
    /// read and packed write.
    pub pack_bytes: u64,
    pub unpack_blocks: u64,
    pub msgs_offered: u64,
    pub msgs_admitted: u64,
    pub msgs_retried: u64,
    pub msgs_completed: u64,
    pub msgs_lost: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.receives += o.receives;
        self.pkts += o.pkts;
        self.handler_calls += o.handler_calls;
        self.handler_blocks += o.handler_blocks;
        self.catchup_blocks += o.catchup_blocks;
        self.dma_writes += o.dma_writes;
        self.transmissions += o.transmissions;
        self.retransmissions += o.retransmissions;
        self.host_fallback_pkts += o.host_fallback_pkts;
        self.eager += o.eager;
        self.pack_bytes += o.pack_bytes;
        self.unpack_blocks += o.unpack_blocks;
        self.msgs_offered += o.msgs_offered;
        self.msgs_admitted += o.msgs_admitted;
        self.msgs_retried += o.msgs_retried;
        self.msgs_completed += o.msgs_completed;
        self.msgs_lost += o.msgs_lost;
    }
}

/// Telemetry a captured receive leaves for the report and trace writers.
pub struct Captured {
    pub run: ModeledRun,
    pub ring: (Vec<TraceEvent>, u64),
    pub agg: StreamAggregate,
}

/// What a job leaves for the round.
pub enum Output {
    Receive {
        /// Simulated processing time (ps).
        processing_ps: u64,
        captured: Option<Box<Captured>>,
    },
    Baselines {
        host_ps: u64,
    },
    Cell {
        group: usize,
        cell: TrafficCell,
        latency: Vec<LogHistogram>,
    },
}

/// The result of one job.
pub struct JobOut {
    pub ms: f64,
    /// `None` when the job passed its checks.
    pub error: Option<String>,
    /// Canonical simulated outputs, hashed into the workload digest.
    pub line: String,
    pub counts: Counts,
    pub output: Option<Output>,
    /// Counts toward `job_ms` (receives and cells; not baselines).
    pub timed: bool,
}

/// How a round runs its jobs.
#[derive(Clone, Copy)]
pub struct Ctx {
    pub engine: EngineMode,
    pub capture: Option<Capture>,
    pub traffic_bucket_ps: u64,
    pub traffic_hpus: u64,
    pub traced: bool,
    /// Corrupt a copy of job 0's receive buffer before verifying it
    /// (the benchmark's own check that verification bites).
    pub corrupt_first: bool,
}

/// Run job `i`, catching panics so one failure cannot end the round.
pub fn run(i: usize, job: &Job, ctx: Ctx) -> JobOut {
    crate::trace::set_job(i as u64);
    let t = Instant::now();
    let res = {
        let _s = span("bench.job");
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job {
            Job::Receive {
                input,
                strategy,
                mode,
            } => receive(input, *strategy, *mode, ctx, ctx.corrupt_first && i == 0),
            Job::Baselines { input } => Ok(baselines(input)),
            Job::Cell(cell) => traffic_cell(cell, ctx),
        }))
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    crate::trace::set_job(crate::trace::NO_JOB);
    crate::trace::flush();
    let timed = !matches!(job, Job::Baselines { .. });
    match res {
        Ok(Ok(mut out)) => {
            out.ms = ms;
            out.timed = timed;
            out
        }
        Ok(Err(e)) => failed(ms, timed, e),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            failed(ms, timed, format!("panicked: {msg}"))
        }
    }
}

fn failed(ms: f64, timed: bool, error: String) -> JobOut {
    JobOut {
        ms,
        line: format!("FAILED {error}\n"),
        error: Some(error),
        counts: Counts::default(),
        output: None,
        timed,
    }
}

/// Payload-handler blocks and catch-up blocks from the run's own
/// per-handler cost samples (the cost model charges a fixed cycle count
/// per block, so the counts come back exactly).
fn handler_blocks(report: &RunReport, strategy: Strategy, params: &NicParams) -> (u64, u64) {
    let cyc = HandlerCycles::default();
    let per_block = params.cycles(match strategy {
        Strategy::Specialized => cyc.block_specialized,
        _ => cyc.block_general,
    });
    let (setup0, catchup) = (params.cycles(cyc.setup), params.cycles(cyc.block_catchup));
    let mut blocks = 0;
    let mut skipped = 0;
    for c in &report.handler_costs {
        blocks += c.processing / per_block;
        if strategy != Strategy::Specialized {
            skipped += c.setup.saturating_sub(setup0) / catchup;
        }
    }
    (blocks, skipped)
}

fn receive(
    input: &Input,
    strategy: Strategy,
    mode: Mode,
    ctx: Ctx,
    corrupt: bool,
) -> Result<JobOut, String> {
    let exp = Experiment::new(input.dt.clone(), input.count, input.params.clone());
    let (origin, span_len) = buffer_span(&input.dt, input.count);
    let packed: WireBuf = {
        let _s = span("ddt.pack");
        exp.packed_message().into()
    };

    let ring = ctx
        .capture
        .map(|c| Arc::new(RingRecorder::new(c.ring_capacity)));
    let stream = ctx
        .capture
        .map(|c| Arc::new(StreamingRecorder::new(c.bucket_ps)));
    let telemetry = match (&ring, &stream) {
        (Some(r), Some(s)) => {
            let tee: Arc<dyn Recorder> = Arc::new(TeeRecorder::new(
                r.clone() as Arc<dyn Recorder>,
                s.clone() as Arc<dyn Recorder>,
            ));
            let rec: Arc<dyn Recorder> = if ctx.traced {
                Arc::new(TimedRecorder(tee))
            } else {
                tee
            };
            s.begin_job();
            Telemetry::with_recorder(rec).scoped(strategy.label())
        }
        _ => Telemetry::disabled(),
    };

    let proc = {
        let _s = span("core.build");
        strategy.build(
            &input.dt,
            input.count,
            input.params.clone(),
            input.epsilon,
            telemetry.clone(),
        )
    };
    let proc: Box<dyn MessageProcessor> = if ctx.traced {
        Box::new(TimedProcessor(proc))
    } else {
        proc
    };
    let (out_of_order, faults) = match mode {
        Mode::InOrder => (None, FaultSpec::inert()),
        Mode::OutOfOrder(seed) => (Some(seed), FaultSpec::inert()),
        Mode::Lossy(f) => (None, f),
    };
    let cfg = RunConfig {
        params: input.params.clone(),
        out_of_order,
        record_dma_history: false,
        portals: None,
        telemetry,
        faults,
        reliability: ReliabilityParams::default(),
        engine: ctx.engine,
    };
    let mut report = {
        let _s = span("spin.receive");
        ReceiveSim::run(proc, packed.clone(), origin, span_len, &cfg)
    };

    let unpack_blocks = {
        let _s = span("core.verify");
        let mut expect = vec![0u8; span_len as usize];
        let stats = {
            let _s = span("ddt.unpack");
            unpack(&input.dt, input.count, &packed, &mut expect, origin)
                .map_err(|e| format!("reference unpack failed: {e}"))?
        };
        let exact = if corrupt {
            let mut copy = report.host_buf.to_vec();
            copy[0] ^= 0xff;
            copy == expect
        } else {
            report.host_buf[..] == expect[..]
        };
        if !exact {
            return Err(format!(
                "{} {} {}: receive buffer is not byte-exact",
                input.label,
                strategy.label(),
                mode.label()
            ));
        }
        stats.blocks_emitted
    };
    if !report.rel.delivered_exactly_once {
        return Err(format!(
            "{} {} {}: not delivered exactly once",
            input.label,
            strategy.label(),
            mode.label()
        ));
    }

    let (blocks, catchup) = handler_blocks(&report, strategy, &input.params);
    let msg_bytes = input.msg_bytes();
    let counts = Counts {
        receives: 1,
        pkts: report.npkt,
        handler_calls: report.handler_costs.len() as u64,
        handler_blocks: blocks,
        catchup_blocks: catchup,
        dma_writes: report.dma_writes,
        transmissions: report.rel.transmissions.max(report.npkt),
        retransmissions: report.rel.retransmissions,
        host_fallback_pkts: report.rel.host_fallback_packets,
        eager: u64::from(match ctx.engine {
            EngineMode::Eager => !report.eager_fallback,
            EngineMode::Auto => ctx.capture.is_none(),
            EngineMode::Event => false,
        }),
        pack_bytes: span_len + 2 * msg_bytes,
        unpack_blocks,
        ..Counts::default()
    };
    let line = format!(
        "{}|{}|{}|{}|{}|{}|{}+{}\n",
        input.label,
        strategy.label(),
        mode.label(),
        report.t_complete,
        report.dma_bytes,
        report.nic_mem_hwm_bytes,
        report.host_origin,
        report.host_buf.len()
    );
    let processing_ps = report.processing_time();
    let captured = match (ring, stream) {
        (Some(ring), Some(stream)) => {
            // The report writers need the run, not the receive buffer.
            report.host_buf = Vec::new().into();
            let dl = compile_cached(&input.dt, input.count);
            let t_ph = estimate_t_ph(&input.params, &HandlerCycles::default(), &dl);
            let plan = matches!(strategy, Strategy::RoCp | Strategy::RwCp)
                .then(|| select_checkpoint_interval(&input.params, dl.size, t_ph, input.epsilon));
            Some(Box::new(Captured {
                run: ModeledRun {
                    report,
                    plan,
                    t_ph_predicted: t_ph,
                },
                ring: (ring.events(), ring.dropped()),
                agg: stream.take(),
            }))
        }
        _ => None,
    };
    Ok(JobOut {
        ms: 0.0,
        error: None,
        line,
        counts,
        output: Some(Output::Receive {
            processing_ps,
            captured,
        }),
        timed: true,
    })
}

fn baselines(input: &Input) -> JobOut {
    let exp = Experiment::new(input.dt.clone(), input.count, input.params.clone());
    let (host, iovec) = {
        let _s = span("core.baselines");
        (exp.run_host(), exp.run_iovec())
    };
    let mut line = String::new();
    let _ = writeln!(
        line,
        "{}|host|{}|iovec|{}|{}",
        input.label, host.processing_time, iovec.processing_time, iovec.nic_bytes
    );
    JobOut {
        ms: 0.0,
        error: None,
        line,
        counts: Counts::default(),
        output: Some(Output::Baselines {
            host_ps: host.processing_time,
        }),
        timed: false,
    }
}

fn traffic_cell(cell: &Cell, ctx: Ctx) -> Result<JobOut, String> {
    let rec = Arc::new(StreamingRecorder::new(ctx.traffic_bucket_ps));
    let inner = rec.clone() as Arc<dyn Recorder>;
    let tel = Telemetry::with_recorder(if ctx.traced {
        Arc::new(TimedRecorder(inner))
    } else {
        inner
    });
    let r = {
        let _s = span("traffic.cell");
        run_traffic_with(&cell.cfg, &tel)
    };
    let agg = rec.take();
    let report = {
        let _s = span("traffic.report");
        let mut c = cell_report(&cell.app, cell.discipline, cell.load, &r);
        c.utilization = Some(UtilizationReport::from_aggregate(
            &agg,
            "traffic",
            r.t_end,
            ctx.traffic_hpus,
        ));
        c
    };
    let what = format!(
        "{} load {} {}",
        cell.app,
        cell.load,
        cell.discipline.label()
    );
    if !r.byte_exact {
        return Err(format!("{what}: a completed message is not byte-exact"));
    }
    let mut counts = Counts::default();
    for t in &r.tenants {
        if t.admitted + t.lost != t.offered || t.dropped != t.retried + t.lost {
            return Err(format!("{what}: tenant {} breaks conservation", t.name));
        }
        counts.msgs_offered += t.offered;
        counts.msgs_admitted += t.admitted;
        counts.msgs_retried += t.retried;
        counts.msgs_completed += t.completed;
        counts.msgs_lost += t.lost;
    }
    counts.pkts = agg
        .span_total("traffic", "handler")
        .map_or(0, |(n, _)| n as u64);
    let line = format!("{what}|{}|{}\n", r.t_end, counts.pkts);
    Ok(JobOut {
        ms: 0.0,
        error: None,
        line,
        counts,
        output: Some(Output::Cell {
            group: cell.group,
            cell: report,
            latency: r.tenants.iter().map(|t| t.latency.clone()).collect(),
        }),
        timed: true,
    })
}
