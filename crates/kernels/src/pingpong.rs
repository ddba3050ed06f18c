//! Ping-pong bandwidth microbenchmark (Figure 3).
//!
//! "One node (sender) sends a fixed-length message to a second node
//! (receiver). The second node sends a message from its memory back to the
//! first node, while ensuring the entire received message gets copied from
//! the network adapter into its local host memory." (Section V)
//!
//! The Data Vortex side runs in the three modes of Figure 3
//! (`DWr/NoCached`, `DWr/Cached`, `DMA/Cached`); messages larger than one
//! chunk are pipelined in chunks with per-chunk group counters, which is
//! what lets the DMA mode overlap the PCIe drain with network arrival
//! ("incoming and outgoing DMA transfers can be overlapped") and approach
//! the 4.4 GB/s nominal peak.

use dv_api::world::BlockWrite;
use dv_api::{DvCluster, DvCtx, SendMode};
use dv_core::spec::SimSpec;
use dv_core::time::{as_secs_f64, Time};
use dv_core::Word;
use dv_sim::SimCtx;
use mini_mpi::{MpiCluster, Payload};

/// Chunk size (words) for pipelined large messages.
const CHUNK_WORDS: usize = 8 * 1024;

/// A `words`-word message's bulk region and first chunk counter: chunk `i`
/// has counter `gc + i`, re-armed for the next message as it is consumed.
fn message_slots(dv: &DvCtx, words: usize) -> (u32, u8) {
    (dv.layout().bulk(words), dv.layout().kernel_gcs(chunks_of(words).len()).start)
}

/// Result of one ping-pong measurement.
#[derive(Debug, Clone, Copy)]
pub struct PingPongResult {
    /// Message length in 64-bit words.
    pub words: usize,
    /// Round trips measured.
    pub reps: usize,
    /// Elapsed virtual time.
    pub elapsed: Time,
}

impl PingPongResult {
    /// Achieved bandwidth in GB/s: bytes crossing the network per unit
    /// time (two messages per round trip).
    pub fn bandwidth_gbps(&self) -> f64 {
        let bytes = (self.reps * 2 * self.words * 8) as f64;
        bytes / as_secs_f64(self.elapsed) / 1e9
    }
}

fn chunks_of(words: usize) -> Vec<usize> {
    let mut left = words;
    let mut out = Vec::new();
    while left > 0 {
        let c = left.min(CHUNK_WORDS);
        out.push(c);
        left -= c;
    }
    out
}

/// One direction of the DV ping-pong: stream `data` to `peer`'s DV memory
/// in pipelined chunks, one group counter per chunk index. The receiver
/// mirror is [`recv_message`].
fn send_message(dv: &DvCtx, ctx: &SimCtx, peer: usize, data: &[Word], mode: SendMode) {
    let (buf, gc) = message_slots(dv, data.len());
    let mut off = 0usize;
    for (i, len) in chunks_of(data.len()).into_iter().enumerate() {
        let block = BlockWrite {
            dest: peer,
            address: buf + off as u32,
            gc: gc + i as u8,
            words: data[off..off + len].to_vec(),
        };
        dv.write_blocks(ctx, vec![block], mode);
        off += len;
    }
}

/// Receive `words` words into host memory, overlapping the PCIe drain of
/// chunk *k* with the network arrival of chunk *k+1*.
fn recv_message(dv: &DvCtx, ctx: &SimCtx, words: usize) -> Vec<Word> {
    let (buf, gc0) = message_slots(dv, words);
    let chunks = chunks_of(words);
    let mut out = Vec::with_capacity(words);
    let mut off = 0usize;
    for (i, &len) in chunks.iter().enumerate() {
        let gc = gc0 + i as u8;
        let ok = dv.gc_wait_zero(ctx, gc, None);
        debug_assert!(ok, "chunk counter never drained");
        // Re-arm this counter for the *next message's* chunk `i`. The
        // peer cannot send that chunk before it has our full reply, which
        // we only send after this whole recv, so the re-arm cannot race.
        dv.gc_set_local(ctx, gc, len as u64);
        dv.lend_local(ctx, buf + off as u32, len, |run| out.extend_from_slice(run));
        off += len;
    }
    out
}

fn arm(dv: &DvCtx, ctx: &SimCtx, words: usize) {
    let (_, gc) = message_slots(dv, words);
    for (i, len) in chunks_of(words).into_iter().enumerate() {
        dv.gc_set_local(ctx, gc + i as u8, len as u64);
    }
}

/// Run the Data Vortex ping-pong in one of the Figure 3 modes on the
/// two-node cluster described by `spec` — metrics and streaming come from
/// the spec, so streaming benches can sample `api.net.*` / `vic.*`
/// counters at virtual-time intervals while the ping-pong runs.
pub fn dv_pingpong_spec(
    words: usize,
    reps: usize,
    mode: SendMode,
    spec: SimSpec,
) -> PingPongResult {
    assert_eq!(spec.nodes, 2, "ping-pong is a two-node kernel");
    let report = DvCluster::from_spec(spec).run(move |dv, ctx| {
        let me = dv.node();
        let peer = 1 - me;
        let data: Vec<Word> = (0..words as u64).map(|i| i * 3 + me as u64).collect();
        arm(dv, ctx, words);
        dv.barrier(ctx);
        let mut checksum = 0u64;
        for _ in 0..reps {
            if me == 0 {
                send_message(dv, ctx, peer, &data, mode);
                let got = recv_message(dv, ctx, words);
                checksum ^= got.iter().copied().fold(0, u64::wrapping_add);
            } else {
                let got = recv_message(dv, ctx, words);
                checksum ^= got.iter().copied().fold(0, u64::wrapping_add);
                send_message(dv, ctx, peer, &data, mode);
            }
        }
        dv.barrier(ctx);
        checksum
    });
    PingPongResult { words, reps, elapsed: report.elapsed }
}

/// Run the MPI ping-pong on the two-node cluster described by `spec`.
pub fn mpi_pingpong(words: usize, reps: usize, spec: SimSpec) -> PingPongResult {
    assert_eq!(spec.nodes, 2, "ping-pong is a two-node kernel");
    let report = MpiCluster::from_spec(spec).run(move |comm, ctx| {
        let me = comm.rank();
        let data: Vec<u64> = (0..words as u64).map(|i| i * 3 + me as u64).collect();
        comm.barrier(ctx);
        let mut checksum = 0u64;
        for rep in 0..reps {
            if me == 0 {
                comm.send(ctx, 1, rep as u64, Payload::U64(data.clone()));
                let got = comm.recv_from(ctx, 1, rep as u64).payload.into_u64();
                checksum ^= got.iter().copied().fold(0, u64::wrapping_add);
            } else {
                let got = comm.recv_from(ctx, 0, rep as u64).payload.into_u64();
                checksum ^= got.iter().copied().fold(0, u64::wrapping_add);
                comm.send(ctx, 0, rep as u64, Payload::U64(data.clone()));
            }
        }
        comm.barrier(ctx);
        checksum
    });
    PingPongResult { words, reps, elapsed: report.elapsed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv_pingpong(words: usize, reps: usize, mode: SendMode) -> PingPongResult {
        dv_pingpong_spec(words, reps, mode, SimSpec::new(2))
    }

    fn mpi_pingpong(words: usize, reps: usize) -> PingPongResult {
        super::mpi_pingpong(words, reps, SimSpec::new(2))
    }

    #[test]
    fn dv_direct_write_is_pcie_bound() {
        // Large message over the PIO path: payload bandwidth ≈ 0.5 GB/s
        // (the paper: "limited by the PCIe lane read bandwidth (500 MB/s)").
        let r = dv_pingpong(16 * 1024, 2, SendMode::DirectWrite { cached_headers: false });
        let bw = r.bandwidth_gbps();
        assert!((0.3..0.7).contains(&bw), "bw {bw}");
    }

    #[test]
    fn cached_headers_roughly_double_direct_write() {
        let plain = dv_pingpong(16 * 1024, 2, SendMode::DirectWrite { cached_headers: false });
        let cached = dv_pingpong(16 * 1024, 2, SendMode::DirectWrite { cached_headers: true });
        let ratio = cached.bandwidth_gbps() / plain.bandwidth_gbps();
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dma_cached_approaches_nominal_peak() {
        // Figure 3b: 99.4% of 4.4 GB/s at 256k words. Accept ≥90% here.
        let r = dv_pingpong(256 * 1024, 1, SendMode::Dma { cached_headers: true });
        let bw = r.bandwidth_gbps();
        assert!(bw > 0.90 * 4.4, "bw {bw}");
        assert!(bw <= 4.4 + 0.1, "bw {bw} exceeds link peak");
    }

    #[test]
    fn dma_beats_direct_for_large_messages() {
        let dma = dv_pingpong(64 * 1024, 1, SendMode::Dma { cached_headers: true });
        let pio = dv_pingpong(64 * 1024, 1, SendMode::DirectWrite { cached_headers: true });
        assert!(dma.bandwidth_gbps() > 2.0 * pio.bandwidth_gbps());
    }

    #[test]
    fn mpi_beats_dv_at_large_sizes_as_in_the_paper() {
        // IB peak is 6.8 vs DV 4.4; even at 72% efficiency MPI wins raw
        // ping-pong — the paper's honest negative result.
        let mpi = mpi_pingpong(256 * 1024, 1);
        let dv = dv_pingpong(256 * 1024, 1, SendMode::Dma { cached_headers: true });
        assert!(
            mpi.bandwidth_gbps() > dv.bandwidth_gbps(),
            "mpi {} dv {}",
            mpi.bandwidth_gbps(),
            dv.bandwidth_gbps()
        );
    }

    #[test]
    fn mpi_large_message_efficiency_near_72_percent() {
        let r = mpi_pingpong(256 * 1024, 1);
        let frac = r.bandwidth_gbps() / 6.8;
        assert!((0.55..0.85).contains(&frac), "fraction of peak {frac}");
    }

    #[test]
    fn tiny_messages_are_latency_bound_everywhere() {
        let dv = dv_pingpong(1, 4, SendMode::DirectWrite { cached_headers: false });
        let mpi = mpi_pingpong(1, 4);
        assert!(dv.bandwidth_gbps() < 0.1);
        assert!(mpi.bandwidth_gbps() < 0.1);
    }
}
