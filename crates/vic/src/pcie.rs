//! PCIe cost model: the host↔VIC path.
//!
//! The paper's microbenchmarks (Figure 3) show this path, not the switch,
//! is the first-order bottleneck of the Data Vortex system: direct
//! (programmed-I/O) writes stream at ~0.5 GB/s of payload; caching headers
//! in DV memory halves the PCIe traffic; DMA transfers run "up to 4 times
//! faster than direct writes" toward the VIC and "up to 8 times faster than
//! direct reads" from it, at the price of a per-transaction setup cost and
//! the 8192-entry DMA table.
//!
//! Each direction of the link is a FIFO bandwidth server ([`Pipe`]); PIO
//! and DMA occupy the same directional pipe for the wire time their bytes
//! take at their respective achievable rates.

use dv_core::config::PcieParams;
use dv_core::packet::{PACKET_BYTES, PAYLOAD_BYTES};
use dv_core::time::{self, Time};
use dv_sim::Pipe;

/// The PCIe path of one VIC.
pub struct PciePath {
    params: PcieParams,
    to_vic: Pipe,
    from_vic: Pipe,
}

impl PciePath {
    /// New path with the given parameters.
    pub fn new(params: PcieParams) -> Self {
        // Pipe rates are irrelevant (we reserve by duration); 1.0 keeps
        // the constructor honest.
        Self { params, to_vic: Pipe::new(1.0), from_vic: Pipe::new(1.0) }
    }

    /// The configured parameters.
    pub fn params(&self) -> &PcieParams {
        &self.params
    }

    /// Stream `packets` packets to the VIC by programmed I/O. With
    /// `cached_headers` the headers already sit in DV memory and only
    /// payloads cross the bus. Returns `(start, end)`: when the bus was
    /// granted and when the last byte arrived at the VIC.
    pub fn pio_send(&mut self, now: Time, packets: u64, cached_headers: bool) -> (Time, Time) {
        let per_packet = if cached_headers { PAYLOAD_BYTES } else { PACKET_BYTES };
        let wire = time::transfer_time(packets * per_packet, self.params.pio_gbps);
        let (start, end) = self.to_vic.reserve_duration(now, wire);
        (start, end + self.params.pio_write_latency)
    }

    /// Read `words` words from VIC space by programmed I/O (slow: each
    /// read is a non-posted PCIe round trip; the VIC's zero-counter push
    /// exists to avoid this).
    pub fn pio_read(&mut self, now: Time, words: u64) -> (Time, Time) {
        let wire = time::transfer_time(words * PAYLOAD_BYTES, self.params.pio_gbps);
        let (start, end) = self.from_vic.reserve_duration(now, wire);
        (start, end + self.params.pio_read_latency * words.min(8))
    }

    /// Number of DMA transactions needed for `bytes` (one transaction can
    /// span at most the whole DMA table).
    pub fn dma_transactions(&self, bytes: u64) -> u64 {
        let span = self.params.dma_table_entries as u64 * self.params.dma_entry_bytes;
        bytes.div_ceil(span).max(1)
    }

    /// DMA `bytes` from host memory into the VIC (descriptor setup +
    /// streaming). Returns `(start, end)` of VIC-side availability.
    pub fn dma_to_vic(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        let setup = self.params.dma_setup * self.dma_transactions(bytes);
        let wire = time::transfer_time(bytes, self.params.dma_to_vic_gbps);
        let (start, end) = self.to_vic.reserve_duration(now, setup + wire);
        (start, end)
    }

    /// DMA `bytes` from the VIC into host memory.
    pub fn dma_from_vic(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        let setup = self.params.dma_setup * self.dma_transactions(bytes);
        let wire = time::transfer_time(bytes, self.params.dma_from_vic_gbps);
        let (start, end) = self.from_vic.reserve_duration(now, setup + wire);
        (start, end)
    }

    /// Accumulated busy time toward the VIC (utilization reporting).
    pub fn to_vic_busy(&self) -> Time {
        self.to_vic.busy_time()
    }

    /// Accumulated busy time from the VIC.
    pub fn from_vic_busy(&self) -> Time {
        self.from_vic.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_core::time::us;

    fn path() -> PciePath {
        PciePath::new(PcieParams::default())
    }

    #[test]
    fn cached_headers_halve_pio_traffic() {
        let mut p = path();
        let (_, e_uncached) = p.pio_send(0, 1000, false);
        let mut p2 = path();
        let (_, e_cached) = p2.pio_send(0, 1000, true);
        // 16 B vs 8 B per packet at the same rate: ~2x.
        let ratio = e_uncached as f64 / e_cached as f64;
        assert!((1.8..=2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dma_beats_pio_for_large_transfers() {
        let bytes = 1u64 << 20; // 1 MiB of payload
        let mut p = path();
        let (_, pio_end) = p.pio_send(0, bytes / PAYLOAD_BYTES, true);
        let mut p2 = path();
        let (_, dma_end) = p2.dma_to_vic(0, bytes);
        assert!(
            dma_end * 4 < pio_end,
            "DMA should be ≥4x faster for large transfers: dma {dma_end} pio {pio_end}"
        );
    }

    #[test]
    fn pio_beats_dma_for_tiny_transfers() {
        // DMA setup dominates small transfers; direct writes win — this is
        // why the runtime only switches to DMA for batched sends.
        let mut p = path();
        let (_, pio_end) = p.pio_send(0, 1, false);
        let mut p2 = path();
        let (_, dma_end) = p2.dma_to_vic(0, PACKET_BYTES);
        assert!(pio_end < dma_end, "pio {pio_end} dma {dma_end}");
    }

    #[test]
    fn dma_from_vic_is_faster_than_to_vic() {
        let bytes = 4u64 << 20;
        let mut p = path();
        let (_, to_end) = p.dma_to_vic(0, bytes);
        let mut p2 = path();
        let (_, from_end) = p2.dma_from_vic(0, bytes);
        assert!(from_end < to_end);
    }

    #[test]
    fn directions_are_independent_but_each_serializes() {
        let mut p = path();
        let (_, a_end) = p.dma_to_vic(0, 1 << 20);
        // Same direction: queues behind.
        let (b_start, _) = p.dma_to_vic(0, 1 << 20);
        assert_eq!(b_start, a_end);
        // Opposite direction: starts immediately (full duplex).
        let (c_start, _) = p.dma_from_vic(0, 1 << 20);
        assert_eq!(c_start, 0);
    }

    #[test]
    fn dma_table_splits_huge_transfers() {
        let p = path();
        let span = p.params().dma_table_entries as u64 * p.params().dma_entry_bytes;
        assert_eq!(p.dma_transactions(span), 1);
        assert_eq!(p.dma_transactions(span + 1), 2);
        assert_eq!(p.dma_transactions(1), 1);
    }

    #[test]
    fn large_dma_throughput_approaches_configured_rate() {
        let mut p = path();
        let bytes = 16u64 << 20;
        let (_, end) = p.dma_to_vic(0, bytes);
        let gbps = dv_core::time::rate_gbps(bytes, end);
        assert!(gbps > p.params().dma_to_vic_gbps * 0.9, "{gbps}");
        assert!(end > us(0));
    }
}
