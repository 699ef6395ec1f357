//! The single-message front end of the sPIN receive pipeline.
//!
//! [`ReceiveSim`] drives one message through the shared NIC core
//! ([`crate::pipeline`]):
//!
//! ```text
//! network (serialization + latency, optional reordering, optional
//!   fault layer with checksums, acks and RTO retransmission)
//!   → inbound engine (parse, Portals matching on the header packet,
//!     payload copy into NIC memory)
//!   → scheduler (vHPU assignment per policy, dispatch to idle HPUs)
//!   → handler execution (the strategy: real byte scatter + modelled cost)
//!   → DMA/PCIe engine (FIFO, per-write overhead + bandwidth, occupancy
//!     tracked for Figs. 14/15)
//!   → host memory (actual bytes land in the receive buffer)
//! ```
//!
//! This front end owns the wire schedule, the reliable-delivery protocol
//! and the Portals data-path decision (sPIN, non-processing RDMA
//! landing, unexpected overflow, discard); the core owns everything
//! from the inbound engine to the host.
//!
//! The *message processing time* reported is the paper's definition:
//! from the first byte of the message arriving at the NIC to the last
//! byte landing in the receive buffer (signalled by the completion
//! handler's event-generating zero-byte DMA).

use nca_portals::event::{EventKind, EventQueue, FullEvent};
use nca_portals::matching::{MatchOutcome, MatchingUnit};
use nca_portals::packet::{packetize_wire, stamp_checksums};
use nca_sim::{DeliveredCopy, FaultInjector, FaultSpec, Sim, Time, WireBuf};
use nca_telemetry::{probe::SimTelemetryProbe, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::handler::{DmaWrite, HandlerCost, MessageProcessor};
use crate::params::{NicParams, ReliabilityParams};
use crate::pipeline::{FrontEnd, Nic};

/// Portals 4 state for a matched receive: the posted lists plus the
/// match bits the incoming message carries.
#[derive(Debug, Clone, Default)]
pub struct PortalsSetup {
    /// Pre-populated matching unit (priority + overflow lists).
    pub matching: MatchingUnit,
    /// Match bits of the incoming message's header packet.
    pub match_bits: u64,
}

/// Which data path the matching walk selected for the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgPath {
    /// Matched an ME with an execution context: sPIN handler processing.
    Spin,
    /// Matched a plain ME: non-processing (RDMA) path, contiguous landing.
    NonProcessing,
    /// Matched only on the overflow list: unexpected message, contiguous
    /// landing + `PutOverflow` event (host unpacks later, Sec. 3.2.6).
    Unexpected,
    /// No match anywhere: the message is discarded.
    Discarded,
}

/// Which DMA/handler engine a run uses (the eager batched-DMA mode
/// vs the fully event-driven engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Pick automatically: eager whenever nothing needs per-event DMA
    /// timing (no telemetry capture, no DMA-history recording),
    /// event-driven otherwise. This is the historical behaviour.
    #[default]
    Auto,
    /// Always the event-driven engine.
    Event,
    /// Request the eager engine. When telemetry capture or DMA-history
    /// recording needs per-event times the run silently *cannot* honour
    /// the request: it falls back to the event engine, warns once on
    /// stderr, and sets [`RunReport::eager_fallback`].
    Eager,
}

impl EngineMode {
    /// Every mode, declaration order.
    pub const ALL: [EngineMode; 3] = [EngineMode::Auto, EngineMode::Event, EngineMode::Eager];

    /// Stable label used in scenario files and reports.
    pub fn label(&self) -> &'static str {
        match self {
            EngineMode::Auto => "auto",
            EngineMode::Event => "event",
            EngineMode::Eager => "eager",
        }
    }

    /// Parse a scenario/CLI label.
    pub fn parse(s: &str) -> Option<EngineMode> {
        match s {
            "auto" => Some(EngineMode::Auto),
            "event" => Some(EngineMode::Event),
            "eager" => Some(EngineMode::Eager),
            _ => None,
        }
    }

    /// Whether a run takes the eager engine, given whether anything
    /// needs per-event DMA timing (telemetry capture or a DMA-history
    /// series). The concurrent and traffic front ends run
    /// [`EngineMode::Auto`].
    pub fn is_eager(self, needs_events: bool) -> bool {
        match self {
            EngineMode::Event => false,
            EngineMode::Auto | EngineMode::Eager => !needs_events,
        }
    }
}

/// Configuration of one simulated receive.
pub struct RunConfig {
    /// NIC parameters.
    pub params: NicParams,
    /// `Some(seed)` shuffles payload-packet arrival order (header stays
    /// first, completion stays last) to exercise out-of-order handling.
    pub out_of_order: Option<u64>,
    /// Record the full DMA-queue occupancy time series (Fig. 15).
    pub record_dma_history: bool,
    /// Portals matching state. `None` models an implicit
    /// execution-context-attached ME (every packet goes to sPIN).
    pub portals: Option<PortalsSetup>,
    /// Trace sink for the run. Disabled by default: every record call
    /// is then a single branch.
    pub telemetry: Telemetry,
    /// Network fault model. When inert (the default), the run takes the
    /// exact lossless code path — no sequence tracking, no acks, no
    /// timers — so fault-free results are bit-identical to a build
    /// without the fault layer.
    pub faults: FaultSpec,
    /// Retransmission/ack protocol parameters (consulted only when
    /// `faults` is not inert).
    pub reliability: ReliabilityParams,
    /// DMA/handler engine selection ([`EngineMode::Auto`] by default).
    pub engine: EngineMode,
}

impl RunConfig {
    /// In-order run with default parameters and an implicit sPIN ME.
    pub fn new(params: NicParams) -> Self {
        RunConfig {
            params,
            out_of_order: None,
            record_dma_history: false,
            portals: None,
            telemetry: Telemetry::disabled(),
            faults: FaultSpec::inert(),
            reliability: ReliabilityParams::default(),
            engine: EngineMode::Auto,
        }
    }
}

/// Reliable-delivery outcome of one run: what the fault layer injected
/// and how the protocol recovered. All-zero (with
/// `delivered_exactly_once: true`) for lossless runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Wire transmissions (first attempts + retransmissions).
    pub transmissions: u64,
    /// Sender retransmissions triggered by timeout.
    pub retransmissions: u64,
    /// Transmissions the fault layer dropped.
    pub drops_injected: u64,
    /// Transmissions the fault layer duplicated.
    pub dups_injected: u64,
    /// Arrivals discarded by receiver duplicate suppression.
    pub dups_suppressed: u64,
    /// Delivered copies the fault layer corrupted in flight.
    pub corrupts_injected: u64,
    /// Arrivals rejected by the per-packet checksum.
    pub corrupts_rejected: u64,
    /// Acknowledgements that reached the sender.
    pub acks_received: u64,
    /// Packets recovered over the reliable host-fallback channel after
    /// retry-budget exhaustion.
    pub host_fallback_packets: u64,
    /// The whole message was degraded to contiguous landing + host
    /// unpack because the strategy did not fit NIC memory (set by the
    /// runner's admission control, not by this pipeline).
    pub nic_mem_fallback: bool,
    /// Every packet was accepted exactly once (dedup discarded the rest)
    /// and none is missing.
    pub delivered_exactly_once: bool,
}

/// Sender-side retransmission state for one packet.
#[derive(Clone, Default)]
struct TxState {
    acked: bool,
    attempt: u32,
    fallback: bool,
}

/// Reliable-delivery state (present only when faults are active).
struct RelState {
    injector: FaultInjector,
    rparams: ReliabilityParams,
    tx: Vec<TxState>,
    received: Vec<bool>,
    stats: ReliabilityStats,
}

/// Everything a run produced.
pub struct RunReport {
    /// Strategy name.
    pub strategy: &'static str,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Packets in the message.
    pub npkt: u64,
    /// First byte at the NIC (ps).
    pub t_first_byte: Time,
    /// Completion event time (last byte in receive buffer, ps).
    pub t_complete: Time,
    /// The receive buffer after the run (index 0 ↔ `host_origin`).
    /// A pooled buffer (derefs to `Vec<u8>`): dropping the report returns
    /// the storage to the worker's arena for the next run.
    pub host_buf: nca_sim::PooledBuf,
    /// Host-buffer offset of index 0.
    pub host_origin: i64,
    /// Total DMA writes issued (data writes + completion signal).
    pub dma_writes: u64,
    /// Total bytes DMA-written.
    pub dma_bytes: u64,
    /// Maximum DMA queue occupancy.
    pub dma_max_queue: usize,
    /// DMA queue occupancy series (if recorded).
    pub dma_history: Vec<(Time, usize)>,
    /// Per-handler cost samples (payload handlers, dispatch order).
    pub handler_costs: Vec<HandlerCost>,
    /// NIC memory the strategy occupied.
    pub nic_mem_bytes: u64,
    /// NIC-memory high-water mark: the strategy's static footprint plus
    /// the peak payload bytes resident in NIC memory at once (charged
    /// when the inbound engine lands a packet, released when its handler
    /// completes).
    pub nic_mem_hwm_bytes: u64,
    /// One-time host preparation (checkpoint creation/copy).
    pub host_setup_time: Time,
    /// Data path the matching walk selected.
    pub path: MsgPath,
    /// Full events posted during the run (Put / PutOverflow / DMA).
    pub events: Vec<FullEvent>,
    /// Fault-injection and reliable-delivery outcome.
    pub rel: ReliabilityStats,
    /// The eager engine was explicitly requested
    /// ([`EngineMode::Eager`]) but telemetry capture / DMA-history
    /// recording forced the event-driven engine instead.
    pub eager_fallback: bool,
}

impl RunReport {
    /// Message processing time (paper definition).
    pub fn processing_time(&self) -> Time {
        self.t_complete - self.t_first_byte
    }

    /// Receive throughput in Gbit/s over the processing time.
    pub fn throughput_gbit(&self) -> f64 {
        nca_sim::units::throughput_gbit(self.msg_bytes, self.processing_time())
    }

    /// Aggregate handler cost (sums of the three phases).
    pub fn handler_cost_sum(&self) -> HandlerCost {
        let mut acc = HandlerCost::default();
        for c in &self.handler_costs {
            acc.add(c);
        }
        acc
    }

    /// Mean payload-handler runtime (ps).
    pub fn mean_handler_time(&self) -> f64 {
        if self.handler_costs.is_empty() {
            return 0.0;
        }
        self.handler_costs
            .iter()
            .map(|c| c.total() as f64)
            .sum::<f64>()
            / self.handler_costs.len() as f64
    }
}

/// The single-message front end: one message, optionally reordered on
/// the wire, optionally through the fault layer with reliable delivery,
/// optionally through Portals matching.
struct Single {
    matching: Option<MatchingUnit>,
    match_bits: u64,
    path: MsgPath,
    arrived: u64,
    events: EventQueue,
    /// Reliable-delivery state; `None` on a lossless network.
    rel: Option<RelState>,
}

impl FrontEnd for Single {
    /// No flow table: vHPUs map straight onto physical HPUs.
    fn steer(&self, _m: usize, vhpu: u64) -> usize {
        vhpu as usize
    }

    /// The header packet triggers the Portals matching walk and fixes
    /// the message's data path (the pinned ME serves the rest); only
    /// the sPIN path continues into the inbound engine.
    fn divert(nic: &mut Nic<Single>, sim: &mut Sim<Nic<Single>>, m: usize, idx: usize) -> bool {
        let hdr = nic.msgs[m].packets[idx].hdr;
        let fe = &mut nic.fe;
        fe.arrived += 1;
        if let Some(mu) = fe.matching.as_mut() {
            if hdr.kind.is_header() {
                let (outcome, me) = mu.match_header(hdr.msg_id, fe.match_bits);
                fe.path = match (outcome, me.and_then(|m| m.exec_ctx)) {
                    (MatchOutcome::Priority, Some(_)) => MsgPath::Spin,
                    (MatchOutcome::Priority, None) => MsgPath::NonProcessing,
                    (MatchOutcome::Overflow, _) => MsgPath::Unexpected,
                    (MatchOutcome::Discard, _) => MsgPath::Discarded,
                };
            }
            if hdr.kind.is_completion() {
                mu.complete(hdr.msg_id);
            }
        }
        let last = fe.arrived == nic.msgs[m].packets.len() as u64;
        let passthrough = nic.params.nic_passthrough;
        match fe.path {
            MsgPath::Spin => return false,
            MsgPath::NonProcessing | MsgPath::Unexpected => {
                // RDMA landing: one contiguous DMA write per packet at its
                // stream offset; no HPU involvement. The write reuses the
                // packet's payload view — no bytes are copied.
                let kind = match fe.path {
                    MsgPath::Unexpected => EventKind::PutOverflow,
                    _ => EventKind::Put,
                };
                sim.schedule_in(passthrough, move |w, s| {
                    let payload = w.msgs[m].packets[idx].payload.clone();
                    let host_off = w.msgs[m].host_origin + hdr.offset as i64;
                    w.enqueue_dma(s, m, DmaWrite::data(host_off, payload));
                    if last {
                        w.fe.events.post(FullEvent {
                            kind,
                            msg_id: hdr.msg_id,
                            size: w.msgs[m].packets.iter().map(|p| p.len).sum(),
                            time: s.now(),
                        });
                        w.enqueue_dma(s, m, DmaWrite::completion_signal());
                    }
                });
            }
            MsgPath::Discarded => {
                // Dropped: no data movement, no events. The run ends when
                // the last packet has been parsed.
                if last {
                    nic.msgs[m].t_complete = Some(sim.now() + passthrough);
                }
            }
        }
        true
    }
}

impl Nic<Single> {
    /// One wire transmission attempt of packet `idx` with nominal
    /// arrival time `arrival` (serialization already accounted). The
    /// fault injector renders the deterministic verdict; every delivered
    /// copy becomes an arrival event and a retransmission timer guards
    /// the attempt.
    fn transmit(&mut self, sim: &mut Sim<Nic<Single>>, idx: usize, attempt: u32, arrival: Time) {
        let hdr = self.msgs[0].packets[idx].hdr;
        let (msg_id, seq) = (hdr.msg_id, hdr.seq);
        let now = sim.now();
        let rel = self.fe.rel.as_mut().expect("transmit requires fault mode");
        rel.stats.transmissions += 1;
        let verdict = rel.injector.judge(msg_id, seq, attempt);
        if verdict.dropped {
            rel.stats.drops_injected += 1;
            self.tel.counter("spin", "fault_drop", 0, now, 1);
        }
        if verdict.duplicated {
            rel.stats.dups_injected += 1;
            self.tel.counter("spin", "fault_dup", 0, now, 1);
        }
        if verdict.corrupted {
            rel.stats.corrupts_injected += 1;
            self.tel.counter("spin", "fault_corrupt", 0, now, 1);
        }
        for copy in verdict.copies {
            sim.schedule(arrival + copy.extra_delay, move |w, s| {
                w.packet_rx(s, idx, Some(copy));
            });
        }
        // Capped exponential backoff plus a seeded uniform jitter, so the
        // timers of a correlated drop burst spread out instead of firing
        // in lockstep (retransmit storms under open-loop overload). The
        // jitter draw is a pure function of (seed, msg, seq, attempt):
        // replays are identical.
        let jitter = rel
            .injector
            .jitter(msg_id, seq, attempt, rel.rparams.rto_jitter);
        let deadline = arrival + rel.rparams.backoff(attempt) + jitter;
        sim.schedule(deadline, move |w, s| w.retry_timeout(s, idx, attempt));
    }

    /// Retransmission timer for `attempt` of packet `idx` fired.
    fn retry_timeout(&mut self, sim: &mut Sim<Nic<Single>>, idx: usize, attempt: u32) {
        let now = sim.now();
        let wire = self.params.pkt_wire_time(self.msgs[0].packets[idx].len);
        let arrival = now + self.params.net_latency + wire;
        let rel = self.fe.rel.as_mut().expect("fault mode");
        let tx = &mut rel.tx[idx];
        if tx.acked || tx.fallback || tx.attempt != attempt {
            return; // delivered, degraded, or a newer attempt owns the timer
        }
        if attempt >= rel.rparams.max_retries {
            // Retry budget exhausted: recover the fragment over the
            // reliable host channel instead of wedging the receive.
            tx.fallback = true;
            rel.stats.host_fallback_packets += 1;
            let at = now + rel.rparams.fallback_latency;
            self.tel.counter("spin", "host_fallback", 0, now, 1);
            sim.schedule(at, move |w, s| w.packet_rx(s, idx, None));
            return;
        }
        tx.attempt = attempt + 1;
        rel.stats.retransmissions += 1;
        self.tel.counter("spin", "retransmission", 0, now, 1);
        self.tel.span("spin", "wire", 0, now, now + wire);
        self.transmit(sim, idx, attempt + 1, arrival);
    }

    /// A copy of packet `idx` reached the NIC. `copy: None` means the
    /// reliable host-fallback channel delivered it (never faulty).
    fn packet_rx(&mut self, sim: &mut Sim<Nic<Single>>, idx: usize, copy: Option<DeliveredCopy>) {
        let now = sim.now();
        // Corruption detection: recompute the checksum over the bytes as
        // they arrived. The fault layer materializes corrupted copies
        // copy-on-write, so the shared wire buffer is never mutated. A
        // single-byte flip always breaks FNV-1a, so a corrupted copy
        // never reaches the pipeline.
        let rel = self.fe.rel.as_mut().expect("fault mode");
        if let Some(c) = copy {
            let pkt = &self.msgs[0].packets[idx];
            if c.corrupt && pkt.len > 0 {
                let intact = pkt.hdr.verify_payload(&c.materialize(&pkt.payload));
                debug_assert!(!intact, "single-byte flip must break the checksum");
                if !intact {
                    rel.stats.corrupts_rejected += 1;
                    self.tel.counter("spin", "corrupt_rejected", 0, now, 1);
                    return; // discarded; the sender's timer recovers it
                }
            }
        }
        if rel.received[idx] {
            rel.stats.dups_suppressed += 1;
            self.tel.counter("spin", "dup_suppressed", 0, now, 1);
            return;
        }
        rel.received[idx] = true;
        // Acknowledge so the sender cancels the retransmission timer.
        sim.schedule(now + rel.rparams.ack_latency, move |w, _| {
            let rel = w.fe.rel.as_mut().expect("fault mode");
            if !rel.tx[idx].acked {
                rel.tx[idx].acked = true;
                rel.stats.acks_received += 1;
            }
        });
        self.packet_arrival(sim, 0, idx);
    }
}

/// The receive-pipeline runner.
pub struct ReceiveSim;

impl ReceiveSim {
    /// Simulate receiving `packed` (the packed message bytes, anything
    /// convertible into a shared [`WireBuf`] — a `Vec<u8>` costs one
    /// copy at conversion, a `WireBuf` clone costs a refcount bump)
    /// processed by `proc`, landing in a receive buffer spanning
    /// `[host_origin, host_origin + host_span)`.
    pub fn run(
        proc: Box<dyn MessageProcessor>,
        packed: impl Into<WireBuf>,
        host_origin: i64,
        host_span: u64,
        cfg: &RunConfig,
    ) -> RunReport {
        let packed: WireBuf = packed.into();
        let params = &cfg.params;
        let faulty = !cfg.faults.is_inert();
        assert!(
            !faulty || cfg.portals.is_none(),
            "fault injection requires an implicit sPIN ME: the matching walk \
             assumes the header packet arrives first, which a lossy network \
             cannot guarantee"
        );
        let mut packets = packetize_wire(0, &packed, params.payload_size);
        if faulty {
            // Checksums only matter when the network can corrupt bytes;
            // the lossless path skips the per-byte FNV pass entirely.
            stamp_checksums(&mut packets);
        }
        let npkt = packets.len() as u64;

        // Network arrival schedule: serialization at line rate after the
        // one-way latency; optionally shuffle which payload packet
        // occupies which serialization slot.
        let mut order: Vec<usize> = (0..packets.len()).collect();
        if let Some(seed) = cfg.out_of_order {
            if packets.len() > 3 {
                let mut rng = StdRng::seed_from_u64(seed);
                order[1..packets.len() - 1].shuffle(&mut rng);
            }
        }

        let strategy_name = proc.name();
        let nic_mem = proc.nic_mem_bytes();
        let host_setup = proc.host_setup_time();

        // The eager engine resolves DMA service windows arithmetically,
        // so it cannot emit per-event DMA timing: telemetry capture and
        // DMA-history recording force the event-driven engine.
        let needs_events = cfg.telemetry.is_enabled() || cfg.record_dma_history;
        let eager_fallback = cfg.engine == EngineMode::Eager && needs_events;
        if eager_fallback {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: eager DMA engine requested, but telemetry capture or \
                     DMA-history recording needs per-event timing; falling back to the \
                     event-driven engine (recorded as eager_fallback in the run report)"
                );
            });
        }

        let fe = Single {
            matching: cfg.portals.as_ref().map(|p| p.matching.clone()),
            match_bits: cfg.portals.as_ref().map(|p| p.match_bits).unwrap_or(0),
            path: MsgPath::Spin,
            arrived: 0,
            events: EventQueue::new(),
            rel: faulty.then(|| RelState {
                injector: FaultInjector::new(cfg.faults),
                rparams: cfg.reliability.clone(),
                tx: vec![TxState::default(); npkt as usize],
                received: vec![false; npkt as usize],
                stats: ReliabilityStats::default(),
            }),
        };
        let eager = cfg.engine.is_eager(needs_events);
        let tel = cfg.telemetry.clone();
        let mut nic = Nic::new(params.clone(), tel, eager, cfg.record_dma_history, fe);
        let host_buf = nca_sim::arena::take_zeroed(host_span as usize);
        nic.admit(packets, proc, host_buf, host_origin);

        let mut sim: Sim<Nic<Single>> = Sim::new();
        if nic.tel.is_enabled() {
            sim.set_probe(Box::new(SimTelemetryProbe::new(nic.tel.clone(), "sim")));
            // One-shot allocation sample: the strategy's NIC-memory
            // footprint is fixed for the lifetime of the receive.
            nic.tel.gauge("spin", "nic_mem_bytes", 0, 0, nic_mem as f64);
        }
        let t_first_byte = params.net_latency;
        let mut t = t_first_byte;
        let mut slots = Vec::with_capacity(order.len());
        for &idx in &order {
            let wire = params.pkt_wire_time(nic.msgs[0].packets[idx].len);
            nic.tel.span("spin", "wire", 0, t, t + wire);
            t += wire;
            slots.push((idx, t));
        }
        for (idx, at) in slots {
            if faulty {
                // Reliable mode: each serialization slot is a
                // *transmission* through the fault layer; retransmission
                // and receiver dedup guarantee exactly-once processing.
                nic.transmit(&mut sim, idx, 0, at);
            } else {
                Nic::schedule_arrival(&mut sim, at, 0, idx);
            }
        }
        sim.run(&mut nic);

        let msg = nic.msgs.pop().expect("one message");
        let t_complete = msg.t_complete.unwrap_or_else(|| sim.now());
        nic.emit_histograms(t_complete);
        let rel = match nic.fe.rel.take() {
            Some(r) => ReliabilityStats {
                delivered_exactly_once: r.received.iter().all(|&x| x),
                ..r.stats
            },
            None => ReliabilityStats {
                delivered_exactly_once: true,
                ..ReliabilityStats::default()
            },
        };
        let dma = &mut nic.dma;
        RunReport {
            strategy: strategy_name,
            msg_bytes: packed.len() as u64,
            npkt,
            t_first_byte,
            t_complete,
            host_buf: msg.host_buf,
            host_origin,
            dma_writes: dma.writes,
            dma_bytes: dma.bytes,
            dma_max_queue: dma.queue.max_occupancy().max(dma.max_occ),
            dma_history: dma.queue.take_history(),
            handler_costs: msg.handler_costs,
            nic_mem_bytes: nic_mem,
            nic_mem_hwm_bytes: nic_mem + nic.resident_hwm,
            host_setup_time: host_setup,
            path: nic.fe.path,
            events: nic.fe.events.into_all(),
            rel,
            eager_fallback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::ContigProcessor;
    use nca_portals::event::EventKind;
    use nca_portals::matching::MatchEntry;

    fn me(bits: u64, exec_ctx: Option<u32>) -> MatchEntry {
        MatchEntry {
            id: 0,
            match_bits: bits,
            ignore_bits: 0,
            start: 0,
            length: 1 << 20,
            exec_ctx,
            use_once: false,
        }
    }

    fn msg(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    fn run_with(portals: Option<PortalsSetup>, n: usize) -> RunReport {
        let params = NicParams::with_hpus(4);
        let handler = params.spin_min_handler();
        let proc_ = Box::new(ContigProcessor::new(0, handler));
        let cfg = RunConfig {
            params,
            out_of_order: None,
            record_dma_history: false,
            portals,
            telemetry: Telemetry::disabled(),
            faults: FaultSpec::inert(),
            reliability: ReliabilityParams::default(),
            engine: EngineMode::Auto,
        };
        ReceiveSim::run(proc_, msg(n), 0, n as u64, &cfg)
    }

    #[test]
    fn explicit_eager_request_under_telemetry_falls_back_and_flags_it() {
        let params = NicParams::with_hpus(4);
        let handler = params.spin_min_handler();
        let (tel, _sink) = Telemetry::ring(1 << 16);
        let mut cfg = RunConfig::new(params.clone());
        cfg.engine = EngineMode::Eager;
        cfg.telemetry = tel;
        let proc_ = Box::new(ContigProcessor::new(0, handler));
        let r = ReceiveSim::run(proc_, msg(8192), 0, 8192, &cfg);
        assert!(r.eager_fallback, "telemetry must force the event engine");

        // Without capture the request is honoured: no fallback, and the
        // result is observationally identical either way (pinned more
        // broadly in tests/dma_engine_equiv.rs).
        let mut cfg2 = RunConfig::new(params);
        cfg2.engine = EngineMode::Eager;
        let proc2 = Box::new(ContigProcessor::new(0, handler));
        let r2 = ReceiveSim::run(proc2, msg(8192), 0, 8192, &cfg2);
        assert!(!r2.eager_fallback);
        assert_eq!(r2.t_complete, r.t_complete);
        assert_eq!(r2.host_buf, r.host_buf);
    }

    #[test]
    fn engine_mode_labels_round_trip() {
        for m in [EngineMode::Auto, EngineMode::Event, EngineMode::Eager] {
            assert_eq!(EngineMode::parse(m.label()), Some(m));
        }
        assert_eq!(EngineMode::parse("lazy"), None);
    }

    #[test]
    fn matched_priority_with_exec_ctx_takes_spin_path() {
        let mut mu = MatchingUnit::new();
        mu.append_priority(me(0xCAFE, Some(1)));
        let r = run_with(
            Some(PortalsSetup {
                matching: mu,
                match_bits: 0xCAFE,
            }),
            8192,
        );
        assert_eq!(r.path, MsgPath::Spin);
        assert_eq!(r.host_buf, msg(8192));
        assert!(!r.handler_costs.is_empty(), "handlers must have run");
    }

    #[test]
    fn matched_plain_me_takes_non_processing_path() {
        let mut mu = MatchingUnit::new();
        mu.append_priority(me(0xCAFE, None));
        let r = run_with(
            Some(PortalsSetup {
                matching: mu,
                match_bits: 0xCAFE,
            }),
            8192,
        );
        assert_eq!(r.path, MsgPath::NonProcessing);
        assert_eq!(r.host_buf, msg(8192), "RDMA path must still land the bytes");
        assert!(r.handler_costs.is_empty(), "no handlers on the RDMA path");
        assert!(r.events.iter().any(|e| e.kind == EventKind::Put));
    }

    #[test]
    fn overflow_match_is_unexpected_with_event() {
        let mut mu = MatchingUnit::new();
        mu.append_priority(me(0x1111, Some(1))); // does not match
        mu.append_overflow(MatchEntry {
            ignore_bits: !0,
            ..me(0, None)
        }); // wildcard
        let r = run_with(
            Some(PortalsSetup {
                matching: mu,
                match_bits: 0xCAFE,
            }),
            8192,
        );
        assert_eq!(r.path, MsgPath::Unexpected);
        assert_eq!(
            r.host_buf,
            msg(8192),
            "overflow buffer receives the packed bytes"
        );
        assert!(r.events.iter().any(|e| e.kind == EventKind::PutOverflow));
    }

    #[test]
    fn no_match_discards_the_message() {
        let mut mu = MatchingUnit::new();
        mu.append_priority(me(0x1111, Some(1)));
        let r = run_with(
            Some(PortalsSetup {
                matching: mu,
                match_bits: 0xCAFE,
            }),
            8192,
        );
        assert_eq!(r.path, MsgPath::Discarded);
        assert_eq!(r.dma_bytes, 0, "discarded messages move no data");
        assert!(r.host_buf.iter().all(|&b| b == 0));
        assert!(r.events.is_empty());
    }

    #[test]
    fn spin_path_faster_processing_visibility_than_unexpected_plus_unpack() {
        // The unexpected path only lands packed bytes; the MPI layer
        // still has to unpack on the host. The sPIN path delivers
        // unpacked data at completion time directly.
        let mut mu_spin = MatchingUnit::new();
        mu_spin.append_priority(me(7, Some(1)));
        let spin = run_with(
            Some(PortalsSetup {
                matching: mu_spin,
                match_bits: 7,
            }),
            65536,
        );
        let mut mu_over = MatchingUnit::new();
        mu_over.append_overflow(MatchEntry {
            ignore_bits: !0,
            ..me(0, None)
        });
        let over = run_with(
            Some(PortalsSetup {
                matching: mu_over,
                match_bits: 7,
            }),
            65536,
        );
        // Both deliver; the overflow landing itself is comparable, but it
        // represents *packed* data (host unpack still pending).
        assert_eq!(spin.path, MsgPath::Spin);
        assert_eq!(over.path, MsgPath::Unexpected);
        assert!(spin.t_complete > 0 && over.t_complete > 0);
    }
}
