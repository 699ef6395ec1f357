//! NIC model parameters.
//!
//! Every constant is anchored to a number the paper states explicitly
//! (Sec. 5.1 simulation setup, Fig. 2 latency breakdown, Sec. 4 design
//! targets); see the field docs for the anchor.

use nca_sim::units::Bandwidth;
use nca_sim::Time;

use crate::sched::QueueDiscipline;

/// All timing/size parameters of the simulated sPIN NIC.
#[derive(Debug, Clone)]
pub struct NicParams {
    /// Link rate. Paper: "models a 200 Gib/s NIC".
    pub line_rate: Bandwidth,
    /// Per-packet payload. Paper: "configure the network simulator to
    /// send 2 KiB of payload data".
    pub payload_size: u64,
    /// Link-level packet header bytes (framing + Portals header;
    /// Portals 4 spec-sized assumption).
    pub pkt_header_bytes: u64,
    /// One-way network latency (first byte in). Fig. 2: 745 ns network
    /// component.
    pub net_latency: Time,
    /// NIC passthrough latency on the non-processing (RDMA) path.
    /// Fig. 2: 119 ns NIC component.
    pub nic_passthrough: Time,
    /// Scheduler dispatch latency: HER generation + vHPU→HPU assignment.
    /// Together with the minimal handler runtime this reproduces Fig. 2's
    /// 24.4% sPIN latency overhead for a 1-byte put (NIC component grows
    /// 119 ns → ~395 ns = passthrough + dispatch + minimal handler).
    pub sched_dispatch: Time,
    /// PCIe write completion latency (host side). Fig. 2: 266 ns PCIe
    /// component.
    pub pcie_latency: Time,
    /// Effective PCIe data bandwidth. Sec. 5.1: x32 PCIe Gen4 with
    /// 128b/130b encoding → ≈63 GB/s.
    pub pcie_bw: Bandwidth,
    /// Fixed per-DMA-write engine/TLP overhead; makes many tiny writes
    /// expensive (the paper's γ=512 pathology: "512 DMA writes of
    /// 4 bytes ... inefficient utilization of the PCIe bus").
    pub dma_write_overhead: Time,
    /// Parallel DMA engines sharing the PCIe link. Two channels keep
    /// γ=16 write streams at line rate (Fig. 14: the PCIe request
    /// buffer stays bounded, "PCIe was not a bottleneck") while tiny
    /// 4 B writes still lose to host unpack (Fig. 8 crossover).
    pub dma_channels: usize,
    /// Number of Handler Processing Units. Sec. 5.1: 32 Cortex-A15
    /// (Fig. 8 uses 16).
    pub hpus: usize,
    /// HPU clock. Sec. 5.1: 800 MHz.
    pub hpu_clock_mhz: u64,
    /// NIC memory bandwidth. Sec. 5.1: 50 GiB/s, `2 × hpus` channels.
    pub nic_mem_bw: Bandwidth,
    /// NIC memory capacity available to DDT state (checkpoints,
    /// dataloops, offset lists). Sec. 4: ≥6 MiB recommended; we default
    /// to 4 MiB for the accounting experiments.
    pub nic_mem_capacity: u64,
    /// Packet buffer capacity in bytes (for the checkpoint-interval
    /// heuristic's third constraint, and the traffic engine's admission
    /// limit on in-flight message payload).
    pub pkt_buffer_bytes: u64,
    /// HPU queueing discipline of the scheduler. [`QueueDiscipline::BlockedRR`]
    /// reproduces the paper's scheduler bit-exactly and is the default;
    /// the alternatives exist for the multi-tenant traffic experiments.
    pub discipline: QueueDiscipline,
}

impl Default for NicParams {
    fn default() -> Self {
        NicParams {
            line_rate: Bandwidth::gbit_per_s(200.0),
            payload_size: 2048,
            pkt_header_bytes: 64,
            net_latency: nca_sim::ns(745),
            nic_passthrough: nca_sim::ns(119),
            sched_dispatch: nca_sim::ns(50),
            pcie_latency: nca_sim::ns(266),
            pcie_bw: Bandwidth::gib_per_s(58.6), // 63 GB/s ≈ 58.6 GiB/s
            dma_write_overhead: nca_sim::ns(6),
            dma_channels: 2,
            hpus: 32,
            hpu_clock_mhz: 800,
            nic_mem_bw: Bandwidth::gib_per_s(50.0),
            nic_mem_capacity: 4 << 20,
            pkt_buffer_bytes: 512 << 10,
            discipline: QueueDiscipline::BlockedRR,
        }
    }
}

impl NicParams {
    /// The Fig. 8 / microbenchmark configuration (16 HPUs).
    pub fn with_hpus(hpus: usize) -> Self {
        NicParams {
            hpus,
            ..Default::default()
        }
    }

    /// Picoseconds per HPU cycle.
    pub fn cycle_ps(&self) -> Time {
        1_000_000 / self.hpu_clock_mhz
    }

    /// Convert HPU cycles to simulated time.
    pub fn cycles(&self, n: u64) -> Time {
        n * self.cycle_ps()
    }

    /// Wire serialization time of one packet carrying `payload` bytes.
    pub fn pkt_wire_time(&self, payload: u64) -> Time {
        self.line_rate.time_for(payload + self.pkt_header_bytes)
    }

    /// Effective packet arrival interval (the paper's `T_pkt`) for
    /// full-payload packets at line rate.
    pub fn t_pkt(&self) -> Time {
        self.pkt_wire_time(self.payload_size)
    }

    /// Time to copy a packet payload into NIC memory (one of the
    /// `2 × hpus` channels at 50 GiB/s serves the copy).
    pub fn nicmem_copy_time(&self, bytes: u64) -> Time {
        self.nic_mem_bw.time_for(bytes)
    }

    /// Service time of one DMA write of `bytes` at the PCIe engine.
    pub fn dma_service_time(&self, bytes: u64) -> Time {
        self.dma_write_overhead + self.pcie_bw.time_for(bytes)
    }

    /// Minimal handler occupancy (launch + one DMA command issue) — the
    /// calibration residual that closes Fig. 2's 1-byte-put budget:
    /// 119 (passthrough) + 50 (dispatch) + 226 (this) ≈ 395 ns sPIN NIC
    /// component.
    pub fn spin_min_handler(&self) -> Time {
        nca_sim::ns(226)
    }
}

/// Reliable-delivery protocol parameters (sender retransmission state
/// machine + receiver acknowledgements). Only consulted when the run's
/// [`nca_sim::FaultSpec`] is not inert: on a lossless network the
/// pipeline behaves exactly as if this machinery did not exist.
#[derive(Debug, Clone)]
pub struct ReliabilityParams {
    /// Base retransmission timeout (ps). Must exceed one data-direction
    /// latency + processing + one ack-direction latency, or every packet
    /// retransmits spuriously.
    pub rto: Time,
    /// Exponential backoff: attempt `a` waits `rto << min(a, backoff_cap)`.
    pub backoff_cap: u32,
    /// Absolute ceiling on the backed-off timeout (ps), applied after
    /// the shift. Keeps deep retry chains from waiting geometrically
    /// long once the network is congested rather than dead. Values
    /// below `rto` are treated as `rto`.
    pub rto_max: Time,
    /// Maximum uniform jitter added on top of each backoff deadline
    /// (ps); 0 disables. The jitter is drawn deterministically from the
    /// fault-schedule seed, so runs stay replayable while synchronized
    /// retransmit storms (all timers of a drop burst firing in the same
    /// picosecond) cannot form.
    pub rto_jitter: Time,
    /// Retransmissions allowed per packet before the sender gives up and
    /// the receiver recovers the fragment via host fallback.
    pub max_retries: u32,
    /// One-way latency of the acknowledgement path (receiver → sender).
    pub ack_latency: Time,
    /// Latency of recovering one packet over the reliable host-fallback
    /// channel (host-assisted re-fetch after retry-budget exhaustion).
    pub fallback_latency: Time,
}

impl Default for ReliabilityParams {
    fn default() -> Self {
        ReliabilityParams {
            // ~3× the 745 ns one-way latency round trip plus pipeline
            // slack: spurious retransmits are rare but drops recover in
            // a few µs.
            rto: nca_sim::us(5),
            backoff_cap: 6,
            // 5 µs << 6 = 320 µs would dominate the fallback channel;
            // cap the wait at 80 µs and spread timers over a 1 µs window.
            rto_max: nca_sim::us(80),
            rto_jitter: nca_sim::us(1),
            max_retries: 8,
            ack_latency: nca_sim::ns(745),
            fallback_latency: nca_sim::us(50),
        }
    }
}

impl ReliabilityParams {
    /// Backed-off timeout before retry `attempt`: `rto << min(attempt,
    /// backoff_cap)`, capped absolutely at `max(rto_max, rto)`. Both the
    /// NIC's retransmission timer and the traffic engine's admission
    /// retry wait this long (plus their seeded jitter).
    pub fn backoff(&self, attempt: u32) -> Time {
        (self.rto << attempt.min(self.backoff_cap)).min(self.rto_max.max(self.rto))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_defaults_cover_a_round_trip() {
        let p = NicParams::default();
        let r = ReliabilityParams::default();
        assert!(r.rto > p.net_latency + r.ack_latency);
        assert!(r.max_retries >= 1);
        assert!(r.fallback_latency > r.rto);
        assert!(r.rto_max >= r.rto, "cap must not undercut the base RTO");
        assert!(r.rto_jitter < r.rto, "jitter must stay a perturbation");
    }

    #[test]
    fn backoff_doubles_up_to_the_cap_then_holds() {
        let r = ReliabilityParams {
            rto: 1000,
            backoff_cap: 3,
            rto_max: 1_000_000,
            ..ReliabilityParams::default()
        };
        assert_eq!(r.backoff(0), 1000);
        assert_eq!(r.backoff(2), 4000);
        // At the cap and past it the shift stops growing.
        assert_eq!(r.backoff(3), 8000);
        assert_eq!(r.backoff(4), 8000);
        assert_eq!(r.backoff(40), 8000);
        // The absolute ceiling applies after the shift ...
        let capped = ReliabilityParams { rto_max: 5000, ..r };
        assert_eq!(capped.backoff(2), 4000);
        assert_eq!(capped.backoff(3), 5000);
        assert_eq!(capped.backoff(9), 5000);
        // ... and a ceiling below the base RTO is treated as the RTO.
        let low = ReliabilityParams { rto_max: 10, ..r };
        assert_eq!(low.backoff(0), 1000);
        assert_eq!(low.backoff(5), 1000);
    }

    #[test]
    fn defaults_match_paper_anchors() {
        let p = NicParams::default();
        assert_eq!(p.payload_size, 2048);
        assert_eq!(p.hpus, 32);
        assert_eq!(p.cycle_ps(), 1250); // 800 MHz
                                        // 2112 wire bytes at 40 ps/B = 84.48 ns
        assert_eq!(p.t_pkt(), 2112 * 40);
    }

    #[test]
    fn fig2_latency_budget() {
        let p = NicParams::default();
        let rdma = p.net_latency + p.nic_passthrough + p.pcie_latency;
        let spin = p.net_latency
            + p.nic_passthrough
            + p.sched_dispatch
            + p.spin_min_handler()
            + p.pcie_latency;
        let overhead = spin as f64 / rdma as f64 - 1.0;
        // Paper: ~24.4% added latency for a 1-byte put.
        assert!((overhead - 0.244).abs() < 0.01, "got {overhead}");
    }

    #[test]
    fn dma_small_writes_dominated_by_overhead() {
        let p = NicParams::default();
        let small = p.dma_service_time(4);
        let big = p.dma_service_time(2048);
        assert!(small >= nca_sim::ns(5));
        assert!(big < 128 * small, "large writes must amortize overhead");
    }
}
