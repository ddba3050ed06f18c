//! InfiniBand fat-tree cost model.
//!
//! Three resources shape a transfer from `src` to `dst`:
//!
//! * the sender NIC's transmit pipe (per-port peak, 6.8 GB/s for FDR ×4),
//! * the shared fabric core — aggregate capacity `nodes × link ×
//!   core_efficiency(nodes)`, the efficiency term modeling static-routing
//!   losses on fat trees under unstructured traffic (Hoefler et al.,
//!   cited by the paper as the reason "the reliance on fat-trees limits
//!   Infiniband effectiveness for unstructured traffic"),
//! * the receiver NIC's receive pipe.
//!
//! All three are FIFO bandwidth servers; a message reserves each in
//! sequence (cut-through: each stage starts when the head clears the
//! previous one) and lands after the one-way wire latency.

use dv_core::config::IbParams;
use dv_core::time::{self, Time};
use dv_sim::Pipe;

/// The modeled InfiniBand fabric for a cluster of `n` nodes.
pub struct IbFabric {
    params: IbParams,
    tx: Vec<Pipe>,
    rx: Vec<Pipe>,
    core: Pipe,
    nodes: usize,
}

impl IbFabric {
    /// Fabric for `nodes` nodes.
    pub fn new(nodes: usize, params: IbParams) -> Self {
        assert!(nodes >= 1);
        let core_gbps = params.link_gbps * nodes as f64 * params.core_efficiency(nodes);
        Self {
            tx: (0..nodes).map(|_| Pipe::new(params.link_gbps)).collect(),
            rx: (0..nodes).map(|_| Pipe::new(params.link_gbps)).collect(),
            core: Pipe::new(core_gbps),
            params,
            nodes,
        }
    }

    /// Fabric parameters.
    pub fn params(&self) -> &IbParams {
        &self.params
    }

    /// Move `bytes` from `src` to `dst` starting no earlier than `now`,
    /// with `extra_wire_time` added to the serialization (protocol chunk
    /// overheads). Returns the arrival time of the last byte at `dst`.
    pub fn transfer(&mut self, now: Time, src: usize, dst: usize, bytes: u64, extra_wire_time: Time) -> Time {
        debug_assert!(src < self.nodes && dst < self.nodes);
        if src == dst {
            // Loopback: shared-memory copy, no fabric involvement.
            return now + time::transfer_time(bytes, self.params.link_gbps * 2.0);
        }
        let dur_link = time::transfer_time(bytes, self.params.link_gbps) + extra_wire_time;
        let (tx_start, tx_end) = self.tx[src].reserve_duration(now, dur_link);
        // Core occupancy: same byte count against the aggregate capacity;
        // cut-through (starts as the head clears the sender NIC).
        let (_, core_end) = self.core.reserve(tx_start, bytes);
        let rx_ready = tx_end.max(core_end);
        let (_, rx_end) = self.rx[dst].reserve_duration(rx_ready.saturating_sub(dur_link).max(tx_start), dur_link);
        rx_end.max(rx_ready) + self.params.wire_latency
    }

    /// Utilization counters: (tx busy, rx busy, core busy) in virtual time.
    pub fn busy(&self, node: usize) -> (Time, Time, Time) {
        (self.tx[node].busy_time(), self.rx[node].busy_time(), self.core.busy_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_core::time::{ns, rate_gbps};

    fn fabric(n: usize) -> IbFabric {
        IbFabric::new(n, IbParams::default())
    }

    #[test]
    fn single_transfer_is_latency_plus_serialization() {
        let mut f = fabric(2);
        let bytes = 1 << 20;
        let arrival = f.transfer(0, 0, 1, bytes, 0);
        let expected_min = time::transfer_time(bytes, f.params().link_gbps) + f.params().wire_latency;
        assert!(arrival >= expected_min);
        // Within 25% of the pure link bound for a 2-node cluster.
        assert!((arrival as f64) < expected_min as f64 * 1.25, "{arrival} vs {expected_min}");
    }

    #[test]
    fn small_message_latency_dominated_by_wire() {
        let mut f = fabric(2);
        let arrival = f.transfer(0, 0, 1, 8, 0);
        assert!(arrival >= f.params().wire_latency);
        assert!(arrival < f.params().wire_latency + ns(100));
    }

    #[test]
    fn sender_pipe_serializes_back_to_back_sends() {
        let mut f = fabric(4);
        let a = f.transfer(0, 0, 1, 1 << 20, 0);
        let b = f.transfer(0, 0, 2, 1 << 20, 0);
        // Second message leaves after the first clears the sender NIC.
        assert!(b > a, "{b} <= {a}");
    }

    #[test]
    fn receiver_hotspot_congests() {
        let mut f = fabric(8);
        let mut last = 0;
        for src in 1..8 {
            last = last.max(f.transfer(0, src, 0, 1 << 20, 0));
        }
        // 7 senders into one receiver: at least 7 serializations at the
        // receiver pipe.
        let one = time::transfer_time(1 << 20, f.params().link_gbps);
        assert!(last >= 7 * one, "{last} vs {}", 7 * one);
    }

    #[test]
    fn core_contention_grows_with_cluster_size() {
        // All-to-all style storm: every node sends to (i+1)%n at once.
        let storm = |n: usize| {
            let mut f = fabric(n);
            let mut worst = 0;
            for i in 0..n {
                for k in 0..4 {
                    worst = worst.max(f.transfer(0, i, (i + 1 + k) % n, 1 << 20, 0));
                }
            }
            worst
        };
        let t4 = storm(4);
        let t32 = storm(32);
        // Per-node load is identical; only core efficiency differs, so the
        // 32-node storm takes longer per node.
        assert!(t32 > t4, "t32 {t32} t4 {t4}");
    }

    #[test]
    fn loopback_is_cheap_and_off_fabric() {
        let mut f = fabric(2);
        let arrival = f.transfer(0, 1, 1, 1 << 20, 0);
        assert!(arrival < time::transfer_time(1 << 20, f.params().link_gbps));
        let (tx, rx, core) = f.busy(1);
        assert_eq!((tx, rx, core), (0, 0, 0));
    }

    #[test]
    fn achieved_bandwidth_is_close_to_link_rate_when_uncontended() {
        let mut f = fabric(2);
        let bytes = 64 << 20;
        let arrival = f.transfer(0, 0, 1, bytes, 0);
        let gbps = rate_gbps(bytes, arrival);
        assert!(gbps > 0.8 * f.params().link_gbps, "{gbps}");
    }
}
