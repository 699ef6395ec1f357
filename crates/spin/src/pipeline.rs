//! The sPIN NIC receive pipeline, written once.
//!
//! ```text
//! packet at the NIC
//!   → inbound engine (parse, payload copy into NIC memory)
//!   → HER → scheduler (vHPU queues, dispatch to idle HPUs)
//!   → handler execution (the strategy: real byte scatter + modelled cost)
//!   → DMA/PCIe engine (multi-channel FIFO, per-write overhead +
//!     bandwidth; the event-generating completion write waits for every
//!     channel to drain, the Portals ordering guarantee)
//!   → host memory (bytes land in the message's receive buffer; the
//!     completion write's landing completes the message)
//! ```
//!
//! [`Nic`] owns everything packets share once they reach the NIC:
//! per-message state in a `Vec` ([`Msg`]), the HPU [`Scheduler`], the
//! DMA engine in both its event-driven and eager modes, NIC-memory
//! accounting and the latency histograms. Every per-packet stage is an
//! allocation-free `schedule_call` event body.
//!
//! A [`FrontEnd`] — statically dispatched, never `dyn` — supplies what
//! differs between callers: when messages are admitted ([`Nic::admit`])
//! and when their packets reach the NIC ([`Nic::schedule_arrival`]), the
//! dFCFS steering hint, which trace families the core emits, and what a
//! completed message means. The three front ends are
//! [`crate::nic::ReceiveSim`] (one message, optional reorder, faults and
//! Portals matching), [`crate::multi::run_concurrent`] (a static set
//! interleaved round-robin on the link) and the `nca-traffic` engine
//! (open-loop offers with admission and backoff).

use std::collections::{HashMap, VecDeque};

use nca_portals::packet::Packet;
use nca_sim::{PooledBuf, Sim, Time, TrackedFifo};
use nca_telemetry::{hist::LogHistogram, Telemetry};

use crate::handler::{DirectDst, DmaWrite, HandlerCost, MessageProcessor, PacketCtx};
use crate::params::NicParams;
use crate::sched::Scheduler;

/// What a caller of the shared pipeline decides. The hooks run inside
/// the per-packet stages; their defaults are the single-message
/// behaviour.
pub trait FrontEnd: Sized + 'static {
    /// Trace component of the handler and DMA busy series.
    const COMPONENT: &'static str = "spin";
    /// Also trace the per-stage families under `"spin"`: packet
    /// arrivals, inbound spans, NIC-memory gauges, queue waits,
    /// dispatches, DMA drains, completion instants and the latency
    /// histograms (`handler_ps`, `queue_wait_ps`, `dma_service_ps`).
    const STAGE_TRACE: bool = true;

    /// dFCFS steering hint for vHPU `vhpu` of message `m`.
    fn steer(&self, m: usize, vhpu: u64) -> usize;

    /// Trace track of a handler busy span on physical HPU slot `hpu`
    /// (meaningful under dFCFS only); the default is the vHPU.
    fn handler_track(&mut self, vhpu: u64, _hpu: usize, _now: Time, _runtime: Time) -> u64 {
        vhpu
    }

    /// Packet `idx` of message `m` reached the NIC. Return `true` to
    /// take it off the sPIN path (the front end then owns its fate).
    fn divert(_nic: &mut Nic<Self>, _sim: &mut Sim<Nic<Self>>, _m: usize, _idx: usize) -> bool {
        false
    }

    /// Message `m`'s completion write landed; `t` is the current time.
    fn complete(_nic: &mut Nic<Self>, _m: usize, _t: Time) {}
}

/// Per-message pipeline state.
pub struct Msg {
    /// The message's packets, indexed by the arrival handle.
    pub packets: Vec<Packet>,
    /// The receive strategy, dropped once its completion handler ran
    /// (an open-loop run keeps every message's state until the end).
    proc: Option<Box<dyn MessageProcessor>>,
    /// The receive buffer (index 0 ↔ `host_origin`).
    pub host_buf: PooledBuf,
    /// Receive-buffer offset of index 0.
    pub(crate) host_origin: i64,
    /// Per-handler cost samples (payload handlers, dispatch order).
    pub handler_costs: Vec<HandlerCost>,
    /// Landing time of the completion write.
    pub(crate) t_complete: Option<Time>,
    pending_payload: u64,
}

const LIVE: &str = "a strategy lives until its completion handler runs";

impl Msg {
    fn strategy(&mut self) -> &mut dyn MessageProcessor {
        self.proc.as_deref_mut().expect(LIVE)
    }
}

pub(crate) struct DmaEngine {
    pub(crate) queue: TrackedFifo<(usize, DmaWrite)>,
    /// The `(message, write)` each channel is servicing (`None` = idle;
    /// index = channel, i.e. the trace track). Parking the write here
    /// lets the service-done event be a plain function call.
    chan_slot: Vec<Option<(usize, DmaWrite)>>,
    /// Eager mode: with telemetry off and no occupancy time series
    /// requested, the multi-channel FIFO service discipline is computed
    /// algebraically at enqueue time and the bytes land immediately, so
    /// the engine emits no simulator events except one per completion.
    /// Timing is exact: landing time is service completion plus the
    /// constant PCIe latency either way.
    eager: bool,
    /// Eager mode: per-channel service-completion times.
    free_at: Vec<Time>,
    /// Eager mode: service-start (= queue-leave) times not yet folded
    /// into the occupancy model. Starts are nondecreasing (FIFO), so a
    /// deque suffices.
    starts: VecDeque<Time>,
    /// Eager mode: modelled queue occupancy and its high-water mark
    /// (`dma_max_queue` must match the event-driven engine).
    occ: usize,
    pub(crate) max_occ: usize,
    pub(crate) writes: u64,
    pub(crate) bytes: u64,
}

/// Parked `handler_done` arguments: `(msg, vhpu, packet, hpu, writes)`.
type DoneArgs = (usize, u64, usize, usize, Vec<DmaWrite>);

/// The shared NIC: the simulator world of every front end.
pub struct Nic<F> {
    /// NIC parameters.
    pub params: NicParams,
    /// Admitted messages; the index is the message handle.
    pub msgs: Vec<Msg>,
    /// Trace sink (disabled handles make every emission a no-op).
    pub tel: Telemetry,
    /// `tel` when the front end wants the per-stage families
    /// ([`FrontEnd::STAGE_TRACE`]), a disabled handle otherwise.
    stage: Telemetry,
    /// The front end's own state.
    pub fe: F,
    /// Keyed by `(message, vHPU)` packed into one scalar, so vHPUs are
    /// namespaced per message.
    sched: Scheduler<u64>,
    pub(crate) dma: DmaEngine,
    /// `(msg, packet)` → time it entered its vHPU queue (only populated
    /// when stage tracing is on).
    enq_time: HashMap<(usize, usize), Time>,
    /// Parked arguments of in-flight `handler_done` events: the slot
    /// index rides in the event's scalar payload. Slots are recycled
    /// through a free list.
    done_slots: Vec<Option<DoneArgs>>,
    done_free: Vec<u32>,
    hist_handler: LogHistogram,
    hist_queue_wait: LogHistogram,
    hist_dma: LogHistogram,
    /// Static NIC-memory footprint of the admitted messages (read by
    /// the traced NIC-memory gauge only).
    nic_mem: u64,
    /// Payload bytes resident in NIC memory (landed by the inbound
    /// engine, not yet consumed by a handler) and their peak.
    resident_payload: u64,
    pub(crate) resident_hwm: u64,
}

/// Two 32-bit handles in one scalar: the `(message, vHPU)` scheduler
/// key, or a `(packet, HPU)` event argument.
fn pack2(hi: usize, lo: u64) -> u64 {
    debug_assert!(hi >> 32 == 0 && lo >> 32 == 0, "handle exceeds 32 bits");
    ((hi as u64) << 32) | lo
}

fn unpack2(x: u64) -> (usize, u64) {
    ((x >> 32) as usize, x & 0xFFFF_FFFF)
}

impl<F: FrontEnd> Nic<F> {
    /// An idle NIC. `eager` selects the eager DMA engine (see
    /// [`crate::nic::EngineMode::is_eager`]); `record_dma_history` keeps
    /// the DMA-queue occupancy series (event engine only).
    pub fn new(
        params: NicParams,
        tel: Telemetry,
        eager: bool,
        record_dma_history: bool,
        fe: F,
    ) -> Self {
        let chans = params.dma_channels.max(1);
        Nic {
            sched: Scheduler::new(params.discipline, params.hpus),
            dma: DmaEngine {
                queue: TrackedFifo::new(record_dma_history),
                chan_slot: (0..chans).map(|_| None).collect(),
                eager,
                free_at: vec![0; chans],
                starts: VecDeque::new(),
                occ: 0,
                max_occ: 0,
                writes: 0,
                bytes: 0,
            },
            params,
            msgs: Vec::new(),
            stage: if F::STAGE_TRACE {
                tel.clone()
            } else {
                Telemetry::disabled()
            },
            tel,
            fe,
            enq_time: HashMap::new(),
            done_slots: Vec::new(),
            done_free: Vec::new(),
            hist_handler: LogHistogram::new(),
            hist_queue_wait: LogHistogram::new(),
            hist_dma: LogHistogram::new(),
            nic_mem: 0,
            resident_payload: 0,
            resident_hwm: 0,
        }
    }

    /// Admit a message; returns its handle (packets should carry it as
    /// their `msg_id`).
    pub fn admit(
        &mut self,
        packets: Vec<Packet>,
        proc: Box<dyn MessageProcessor>,
        host_buf: PooledBuf,
        host_origin: i64,
    ) -> usize {
        if self.stage.is_enabled() {
            // Some strategies size their footprint by walking the
            // dataloop; untraced runs never read it.
            self.nic_mem += proc.nic_mem_bytes();
        }
        self.msgs.push(Msg {
            pending_payload: packets.len() as u64,
            handler_costs: Vec::with_capacity(packets.len()),
            packets,
            proc: Some(proc),
            host_buf,
            host_origin,
            t_complete: None,
        });
        self.msgs.len() - 1
    }

    /// Packet `idx` of message `m` reaches the NIC at `at`.
    pub fn schedule_arrival(sim: &mut Sim<Self>, at: Time, m: usize, idx: usize) {
        sim.schedule_call(at, ev_packet_arrival::<F>, m as u64, idx as u64);
    }

    /// Emit the accumulated latency distributions as single mergeable
    /// `Hist` events at `t` (they survive however much a ring evicted).
    pub(crate) fn emit_histograms(&self, t: Time) {
        for (name, h) in [
            ("handler_ps", &self.hist_handler),
            ("queue_wait_ps", &self.hist_queue_wait),
            ("dma_service_ps", &self.hist_dma),
        ] {
            self.stage.histogram("spin", name, 0, t, h);
        }
    }

    fn nic_mem_gauge(&self, now: Time) {
        let bytes = self.nic_mem + self.resident_payload;
        self.stage
            .gauge("spin", "nic_mem_bytes", 0, now, bytes as f64);
    }

    /// Packet `idx` of message `m` is at the NIC now.
    pub(crate) fn packet_arrival(&mut self, sim: &mut Sim<Self>, m: usize, idx: usize) {
        let now = sim.now();
        self.stage
            .counter("spin", "packets_arrived", m as u64, now, 1);
        if F::divert(self, sim, m, idx) {
            return;
        }
        // Inbound engine: copy the payload into NIC memory, then HER.
        let len = self.msgs[m].packets[idx].len;
        let inbound = self.params.nic_passthrough + self.params.nicmem_copy_time(len);
        self.stage
            .span("spin", "inbound", m as u64, now, now + inbound);
        sim.schedule_call_in(inbound, ev_her_ready::<F>, m as u64, idx as u64);
    }

    fn her_ready(&mut self, sim: &mut Sim<Self>, m: usize, idx: usize) {
        // The payload is in NIC memory: charge it against the budget
        // until its handler consumes it.
        let pkt = &self.msgs[m].packets[idx];
        let seq = pkt.seq;
        self.resident_payload += pkt.len;
        self.resident_hwm = self.resident_hwm.max(self.resident_payload);
        self.nic_mem_gauge(sim.now());
        let vhpu = self.msgs[m].strategy().policy().vhpu_of(seq);
        if self.stage.is_enabled() {
            self.enq_time.insert((m, idx), sim.now());
        }
        let hint = self.fe.steer(m, vhpu);
        self.sched.enqueue(pack2(m, vhpu), idx, hint);
        self.try_dispatch(sim);
    }

    fn try_dispatch(&mut self, sim: &mut Sim<Self>) {
        while let Some(d) = self.sched.next_dispatch() {
            let ((m, vhpu), idx, hpu) = (unpack2(d.key), d.pkt, d.hpu);
            let dispatch = self.params.sched_dispatch;
            let now = sim.now();
            // Only populated when tracing; skip the hash otherwise.
            if !self.enq_time.is_empty() {
                if let Some(enq) = self.enq_time.remove(&(m, idx)) {
                    self.hist_queue_wait.record(now - enq);
                    if now > enq {
                        self.stage.span("spin", "queue_wait", vhpu, enq, now);
                    }
                }
            }
            self.stage.instant("spin", "dispatch", vhpu, now);
            self.stage.span("spin", "sched", vhpu, now, now + dispatch);
            sim.schedule_call_in(dispatch, ev_run_handler::<F>, d.key, pack2(idx, hpu as u64));
        }
    }

    fn run_handler(&mut self, sim: &mut Sim<Self>, m: usize, idx: usize, vhpu: u64, hpu: usize) {
        let now = sim.now();
        let st = &mut self.msgs[m];
        let pkt = &st.packets[idx];
        // In the eager regime the handler scatters payload bytes straight
        // into the receive buffer (length-only DMA writes); the event
        // engine needs view-carrying writes so bytes land at their
        // simulated DMA times.
        let direct = self.dma.eager.then(|| DirectDst {
            buf: &mut st.host_buf[..],
            origin: st.host_origin,
        });
        let mut ctx = PacketCtx {
            payload: &pkt.payload,
            stream_offset: pkt.offset,
            seq: pkt.seq,
            npkt: st.packets.len() as u64,
            vhpu,
            now,
            direct,
        };
        let out = st.proc.as_mut().expect(LIVE).on_payload(&mut ctx);
        st.handler_costs.push(out.cost);
        let runtime = out.cost.total();
        if self.stage.is_enabled() {
            self.hist_handler.record(runtime);
        }
        let track = self.fe.handler_track(vhpu, hpu, now, runtime);
        self.tel
            .span(F::COMPONENT, "handler", track, now, now + runtime);
        let args = (m, vhpu, idx, hpu, out.dma);
        let slot = match self.done_free.pop() {
            Some(i) => {
                self.done_slots[i as usize] = Some(args);
                i
            }
            None => {
                self.done_slots.push(Some(args));
                (self.done_slots.len() - 1) as u32
            }
        };
        sim.schedule_call_in(runtime, ev_handler_done::<F>, slot as u64, 0);
    }

    fn handler_done(&mut self, sim: &mut Sim<Self>, args: DoneArgs) {
        let (m, vhpu, idx, hpu, mut dma) = args;
        // The handler consumed the packet: its payload leaves NIC memory.
        self.resident_payload -= self.msgs[m].packets[idx].len;
        self.nic_mem_gauge(sim.now());
        for w in dma.drain(..) {
            self.enqueue_dma(sim, m, w);
        }
        let st = &mut self.msgs[m];
        // Hand the emptied scratch vector back to the strategy so the
        // next handler invocation reuses its capacity.
        st.strategy().recycle_dma(dma);
        self.sched.done(pack2(m, vhpu), hpu);
        st.pending_payload -= 1;
        if st.pending_payload == 0 {
            // Every payload handler finished: the completion handler
            // runs next, then the strategy is dropped.
            sim.schedule_in(self.params.sched_dispatch, move |nic, s| {
                let out = nic.msgs[m].proc.take().expect(LIVE).on_completion();
                s.schedule_in(out.cost.total(), move |nic, s| {
                    for w in out.dma {
                        nic.enqueue_dma(s, m, w);
                    }
                });
            });
        }
        self.try_dispatch(sim);
    }

    /// Queue a DMA write of message `m` toward host memory.
    pub(crate) fn enqueue_dma(&mut self, sim: &mut Sim<Self>, m: usize, w: DmaWrite) {
        if self.dma.eager {
            let land = self.eager_schedule(sim.now(), &w);
            self.dma_landed(sim, land, m, &w);
            return;
        }
        self.dma.queue.push(sim.now(), (m, w));
        // Sampled at exactly the FIFO's own history points (occupancy
        // after the push/pop) so a trace-driven Fig. 15 reproduces
        // `dma_history` sample for sample.
        let len = self.dma.queue.len() as f64;
        self.tel.gauge(F::COMPONENT, "dma_queue", 0, sim.now(), len);
        self.kick_dma(sim);
    }

    /// Eager DMA service: resolve the write's service window now instead
    /// of round-tripping through per-write simulator events. Arrivals
    /// are FIFO at nondecreasing times, so "start on the earliest-free
    /// channel, no earlier than now and no earlier than the previous
    /// write's start" reproduces the event engine's multi-server FIFO
    /// exactly; the ordered completion write instead waits for every
    /// channel to drain (the `kick_dma` guard), and whatever queues
    /// behind it — another message's data — starts no earlier than it
    /// does. The occupancy model replays queue-leave (service-start)
    /// times against push times so `dma_max_queue` matches too.
    /// Returns the landing time.
    fn eager_schedule(&mut self, now: Time, w: &DmaWrite) -> Time {
        let d = &mut self.dma;
        // Writes whose service started by `now` have left the queue —
        // the event engine's `kick_dma` pops them before this push.
        while d.starts.front().is_some_and(|&t| t <= now) {
            d.starts.pop_front();
            d.occ -= 1;
        }
        d.occ += 1;
        d.max_occ = d.max_occ.max(d.occ);
        let chans = 0..d.free_at.len();
        let chan = if w.event {
            chans.max_by_key(|&i| d.free_at[i])
        } else {
            chans.min_by_key(|&i| d.free_at[i])
        }
        .expect("at least one DMA channel");
        let service = self.params.dma_service_time(w.len);
        let start = now
            .max(d.free_at[chan])
            .max(d.starts.back().copied().unwrap_or(0));
        d.free_at[chan] = start + service;
        d.starts.push_back(start);
        d.writes += 1;
        d.bytes += w.len;
        start + service + self.params.pcie_latency
    }

    fn kick_dma(&mut self, sim: &mut Sim<Self>) {
        let now = sim.now();
        while let Some(chan) = self.dma.chan_slot.iter().position(Option::is_none) {
            // The event-generating completion write must land after all
            // data writes: dispatch it only once every channel is idle
            // (Portals ordering guarantee).
            let busy = self.dma.chan_slot.iter().any(Option::is_some);
            if busy && self.dma.queue.front().is_some_and(|(_, w)| w.event) {
                return;
            }
            let Some((m, w)) = self.dma.queue.pop(now) else {
                return;
            };
            let len = self.dma.queue.len() as f64;
            self.tel.gauge(F::COMPONENT, "dma_queue", 0, now, len);
            let service = self.params.dma_service_time(w.len);
            if self.tel.is_enabled() {
                if self.stage.is_enabled() {
                    self.hist_dma.record(service);
                }
                // Busy-interval span on the channel's own track (the
                // Perfetto PCIe-utilization view).
                self.tel
                    .span(F::COMPONENT, "dma_chan", chan as u64, now, now + service);
            }
            self.dma.chan_slot[chan] = Some((m, w));
            sim.schedule_call_in(service, ev_dma_service_done::<F>, chan as u64, 0);
        }
    }

    /// A channel finished putting its write on the wire. The write lands
    /// in host memory one PCIe latency later.
    fn dma_service_done(&mut self, sim: &mut Sim<Self>, chan: usize) {
        let (m, w) = self.dma.chan_slot[chan]
            .take()
            .expect("service-done on idle channel");
        self.dma.writes += 1;
        self.dma.bytes += w.len;
        let now = sim.now();
        let t = now + self.params.pcie_latency;
        if self.tel.is_enabled() {
            // Telemetry path: keep every landing as its own event so the
            // per-event probe stream and span timeline stay complete.
            if w.event {
                // The completion drain: everything is on the wire, the
                // run now waits for the final PCIe landing.
                self.stage.span("spin", "dma_drain", chan as u64, now, t);
            }
            sim.schedule(t, move |nic, s| {
                nic.copy_in(m, &w);
                if w.event {
                    nic.complete(m, s.now());
                }
            });
        } else {
            // Every landing is service-done plus a constant, so landing
            // order equals service order and the bytes may land now.
            self.dma_landed(sim, t, m, &w);
        }
        self.kick_dma(sim);
    }

    /// Land `w`'s bytes now; a completion write completes its message
    /// at its landing time `t` through an event, so front ends observe
    /// completions at their simulated time.
    fn dma_landed(&mut self, sim: &mut Sim<Self>, t: Time, m: usize, w: &DmaWrite) {
        self.copy_in(m, w);
        if w.event {
            sim.schedule_call(t, ev_complete::<F>, m as u64, 0);
        }
    }

    fn copy_in(&mut self, m: usize, w: &DmaWrite) {
        if !w.data.is_empty() {
            let _phase = nca_sim::profile::enter(nca_sim::profile::Phase::DmaCopy);
            let st = &mut self.msgs[m];
            let start = (w.host_off - st.host_origin) as usize;
            st.host_buf[start..start + w.data.len()].copy_from_slice(&w.data);
        }
    }

    fn complete(&mut self, m: usize, t: Time) {
        // The message is fully in its receive buffer.
        self.msgs[m].t_complete = Some(t);
        self.stage.instant("spin", "message_complete", m as u64, t);
        F::complete(self, m, t);
    }
}

// Allocation-free event bodies for the per-packet hot path (scheduled via
// `Sim::schedule_call`): a function pointer plus two scalars instead of a
// boxed closure per event.

fn ev_packet_arrival<F: FrontEnd>(w: &mut Nic<F>, s: &mut Sim<Nic<F>>, m: u64, idx: u64) {
    w.packet_arrival(s, m as usize, idx as usize);
}

fn ev_her_ready<F: FrontEnd>(w: &mut Nic<F>, s: &mut Sim<Nic<F>>, m: u64, idx: u64) {
    w.her_ready(s, m as usize, idx as usize);
}

fn ev_run_handler<F: FrontEnd>(w: &mut Nic<F>, s: &mut Sim<Nic<F>>, key: u64, idx_hpu: u64) {
    let ((m, vhpu), (idx, hpu)) = (unpack2(key), unpack2(idx_hpu));
    w.run_handler(s, m, idx, vhpu, hpu as usize);
}

fn ev_handler_done<F: FrontEnd>(w: &mut Nic<F>, s: &mut Sim<Nic<F>>, slot: u64, _b: u64) {
    let args = w.done_slots[slot as usize].take().expect("armed done slot");
    w.done_free.push(slot as u32);
    w.handler_done(s, args);
}

fn ev_dma_service_done<F: FrontEnd>(w: &mut Nic<F>, s: &mut Sim<Nic<F>>, chan: u64, _b: u64) {
    w.dma_service_done(s, chan as usize);
}

fn ev_complete<F: FrontEnd>(w: &mut Nic<F>, s: &mut Sim<Nic<F>>, m: u64, _b: u64) {
    w.complete(m as usize, s.now());
}
