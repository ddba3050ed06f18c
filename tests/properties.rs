//! Property-style tests over the core data structures and invariants.
//!
//! Each test draws many random cases from a seeded [`SplitMix64`] stream —
//! a self-contained replacement for an external property-testing crate.
//! Failures print the offending case's seed/index so a case can be
//! replayed exactly; the streams are fixed-seed, so runs are fully
//! deterministic (no non-seeded randomness).

use std::sync::Arc;

use datavortex::api::{DvCluster, SendMode};
use datavortex::core::packet::{AddressSpace, Packet, PacketHeader, PACKET_BYTES, SCRATCH_GC};
use datavortex::core::rng::{hpcc_starts, HpccStream, SplitMix64};
use datavortex::core::spec::SimSpec;
use datavortex::core::stats::harmonic_mean;
use datavortex::core::time::us;
use datavortex::core::trace::Tracer;
use datavortex::kernels::fft::{fft_in_place, ifft_in_place, max_error, naive_dft, Complex};
use datavortex::kernels::graph::{scramble, serial_bfs, validate_bfs, Csr};
use datavortex::kernels::util::BlockDist;
use datavortex::switch::{CycleEngine, SwitchSim, Topology};

/// Number of random cases per lightweight property.
const CASES: usize = 64;

fn arb_space(r: &mut SplitMix64) -> AddressSpace {
    match r.next_below(4) {
        0 => AddressSpace::DvMemory,
        1 => AddressSpace::SurpriseFifo,
        2 => AddressSpace::GroupCounterSet,
        _ => AddressSpace::Query,
    }
}

#[test]
fn packet_header_roundtrips() {
    let mut r = SplitMix64::new(0xA001);
    for case in 0..CASES {
        let h = PacketHeader {
            dest: r.next_below(4096) as usize,
            src: r.next_below(4096) as usize,
            space: arb_space(&mut r),
            address: r.next_below(1 << 22) as u32,
            group_counter: r.next_below(64) as u8,
        };
        assert_eq!(PacketHeader::decode(h.encode()), h, "case {case}: {h:?}");
    }
}

#[test]
fn hpcc_jump_equals_sequential() {
    let mut r = SplitMix64::new(0xA002);
    for case in 0..16 {
        let start = r.next_below(100_000) as i64;
        let len = 1 + r.next_below(63) as usize;
        let mut seq = HpccStream::starting_at(0);
        for _ in 0..start {
            seq.next_u64();
        }
        let mut jumped = HpccStream::starting_at(start);
        for _ in 0..len {
            assert_eq!(seq.next_u64(), jumped.next_u64(), "case {case} start {start}");
        }
        assert_eq!(hpcc_starts(start), HpccStream::starting_at(start).next_u64());
    }
}

#[test]
fn block_dist_owner_local_consistent() {
    let mut r = SplitMix64::new(0xA003);
    for case in 0..CASES {
        let total = 1 + r.next_below(10_000) as usize;
        let parts = 1 + r.next_below(63) as usize;
        let d = BlockDist::new(total, parts);
        let covered: usize = (0..parts).map(|p| d.count(p)).sum();
        assert_eq!(covered, total, "case {case}: total {total} parts {parts}");
        // Spot-check evenly spaced indices.
        for i in (0..total).step_by((total / 17).max(1)) {
            let o = d.owner(i);
            assert!(d.local(i) < d.count(o));
            assert_eq!(d.start(o) + d.local(i), i);
        }
    }
}

#[test]
fn fft_matches_dft_on_random_signals() {
    let mut r = SplitMix64::new(0xA004);
    for case in 0..24 {
        let log_n = 1 + r.next_below(6) as u32;
        let n = 1usize << log_n;
        let mut rng = SplitMix64::new(r.next_u64());
        let x: Vec<Complex> =
            (0..n).map(|_| Complex::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)).collect();
        let mut y = x.clone();
        fft_in_place(&mut y);
        assert!(max_error(&y, &naive_dft(&x)) < 1e-8, "case {case} n {n}");
        ifft_in_place(&mut y);
        assert!(max_error(&y, &x) < 1e-9, "case {case} n {n}");
    }
}

#[test]
fn switch_delivers_every_packet_exactly_once() {
    let mut r = SplitMix64::new(0xA005);
    for case in 0..32 {
        let height_log = 1 + r.next_below(4) as u32;
        let angles = 1 + r.next_below(5) as usize;
        let packets = 1 + r.next_below(199) as usize;
        let topo = Topology::new(1 << height_log, angles);
        let ports = topo.ports();
        let mut sw = SwitchSim::new(topo);
        let mut rng = SplitMix64::new(r.next_u64());
        let mut expect = std::collections::BTreeMap::new();
        for tag in 0..packets as u64 {
            let s = rng.next_below(ports as u64) as usize;
            let d = rng.next_below(ports as u64) as usize;
            sw.enqueue(s, d, tag);
            expect.insert(tag, d);
        }
        let delivered = sw.drain(2_000_000);
        assert_eq!(delivered.len(), packets, "case {case}");
        let mut seen = std::collections::BTreeSet::new();
        for dv in delivered {
            assert!(seen.insert(dv.tag), "case {case}: duplicate delivery");
            assert_eq!(expect[&dv.tag], dv.dst_port, "case {case}");
        }
    }
}

#[test]
fn scramble_stays_bijective() {
    for scale in 1u32..16 {
        let n = 1u64 << scale;
        let mut seen = vec![false; n as usize];
        for v in 0..n {
            let s = scramble(v, scale) as usize;
            assert!(!seen[s], "scale {scale}: collision at {v}");
            seen[s] = true;
        }
    }
}

#[test]
fn random_graph_bfs_trees_validate() {
    let mut r = SplitMix64::new(0xA006);
    for case in 0..CASES {
        let n = 2 + r.next_below(198) as usize;
        let m = 1 + r.next_below(499) as usize;
        let mut rng = SplitMix64::new(r.next_u64());
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.next_below(n as u64) as u32, rng.next_below(n as u64) as u32))
            .collect();
        let csr = Csr::build(n, &edges);
        let root = rng.next_below(n as u64) as u32;
        let (parents, levels) = serial_bfs(&csr, root);
        assert!(validate_bfs(&csr, root, &parents).is_ok(), "case {case}");
        // Levels are a BFS: every edge spans <= 1 level.
        for v in 0..n as u32 {
            if levels[v as usize] < 0 {
                continue;
            }
            for &w in csr.neighbors(v) {
                assert!(
                    (levels[v as usize] - levels[w as usize]).abs() <= 1,
                    "case {case}: edge ({v},{w}) spans >1 level"
                );
            }
        }
    }
}

#[test]
fn harmonic_mean_bounded_by_min_and_max() {
    let mut r = SplitMix64::new(0xA007);
    for case in 0..CASES {
        let len = 1 + r.next_below(19) as usize;
        let xs: Vec<f64> = (0..len).map(|_| 0.001 + r.next_f64() * 1e6).collect();
        let h = harmonic_mean(&xs);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0f64, f64::max);
        assert!(h >= min * 0.999 && h <= max * 1.001, "case {case}: {h} not in [{min}, {max}]");
    }
}

/// The heavyweight one: GUPS over both simulated networks equals the
/// serial reference for arbitrary (small) configurations.
#[test]
fn gups_backends_match_serial_for_random_configs() {
    use datavortex::kernels::gups::{dv, mpi, serial_reference, GupsConfig};
    let mut r = SplitMix64::new(0xA008);
    for case in 0..8 {
        let cfg = GupsConfig {
            table_per_node: 1 << (6 + r.next_below(3) as u32),
            updates_per_node: 1 << (6 + r.next_below(3) as u32),
            bucket: 128,
            stream_offset: 0,
        };
        let nodes = 1 << (1 + r.next_below(2) as u32);
        let (_, expect) = serial_reference(&cfg, nodes);
        assert_eq!(dv::run_spec(cfg, SimSpec::new(nodes)).checksum, expect, "case {case}");
        assert_eq!(mpi::run_spec(cfg, SimSpec::new(nodes)).checksum, expect, "case {case}");
    }
}

/// MPI alltoall reassembles arbitrary ragged payloads correctly.
#[test]
fn alltoallv_reassembles_ragged_blocks() {
    use datavortex::mpi::{MpiCluster, Payload};
    let mut r = SplitMix64::new(0xA009);
    for case in 0..8 {
        let seed = r.next_u64();
        let nodes = 2 + r.next_below(4) as usize;
        let results = MpiCluster::from_spec(datavortex::core::spec::SimSpec::new(nodes)).run(move |comm, ctx| {
            let me = comm.rank() as u64;
            let mut rng = SplitMix64::new(seed ^ me);
            let blocks: Vec<Payload> = (0..comm.size())
                .map(|d| {
                    let len = rng.next_below(40) as usize;
                    Payload::U64(
                        (0..len as u64).map(|i| me * 1_000_000 + d as u64 * 1_000 + i).collect(),
                    )
                })
                .collect();
            let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
            let got = comm.alltoall(ctx, blocks);
            (sizes, got.into_iter().map(|p| p.into_u64()).collect::<Vec<_>>())
        })
        .result;
        // Every received word identifies its (src, dst, index) triple.
        for (dst, (_, got)) in results.iter().enumerate() {
            for (src, block) in got.iter().enumerate() {
                let expected_len = results[src].0[dst];
                assert_eq!(block.len(), expected_len, "case {case}");
                for (i, w) in block.iter().enumerate() {
                    assert_eq!(*w, src as u64 * 1_000_000 + dst as u64 * 1_000 + i as u64);
                }
            }
        }
    }
}

/// The heat solvers match the serial reference bit-exactly for random
/// grids and decompositions.
#[test]
fn heat_backends_match_serial_for_random_configs() {
    use datavortex::apps::heat::{dv, mpi, Halo, HeatConfig, SerialHeat};
    let mut r = SplitMix64::new(0xA00A);
    for case in 0..6 {
        let (nx_l, ny_l, nz_l) =
            (1 + r.next_below(3) as usize, 1 + r.next_below(3) as usize, 1 + r.next_below(3) as usize);
        let (px, py, pz) =
            (1 + r.next_below(2) as usize, 1 + r.next_below(2) as usize, 1 + r.next_below(2) as usize);
        let steps = 1 + r.next_below(3) as usize;
        let cfg = HeatConfig {
            n: (nx_l * px * 2, ny_l * py * 2, nz_l * pz * 2),
            grid: (px, py, pz),
            r: 0.12,
            steps,
            report_every: steps,
            halo: Halo::Line,
        };
        let mut serial = SerialHeat::new(&cfg);
        for _ in 0..steps {
            serial.step();
        }
        let d = dv::run_spec(cfg, SimSpec::new(cfg.nodes()));
        let m = mpi::run_spec(cfg, SimSpec::new(cfg.nodes()));
        assert_eq!(&mpi::assemble(&cfg, &d.fields), &serial.u, "case {case}");
        assert_eq!(&mpi::assemble(&cfg, &m.fields), &serial.u, "case {case}");
    }
}

/// The SNAP sweeps match the serial reference bit-exactly for random
/// meshes, decompositions, and chunk sizes.
#[test]
fn snap_backends_match_serial_for_random_configs() {
    use datavortex::apps::snap::{assemble_phi, dv, mpi, SerialSnap, SnapConfig};
    let mut r = SplitMix64::new(0xA00B);
    for case in 0..6 {
        let cfg = SnapConfig {
            n: (
                2 + r.next_below(8) as usize,
                (1 + r.next_below(3) as usize) * (1 + r.next_below(2) as usize),
                (1 + r.next_below(3) as usize) * (1 + r.next_below(2) as usize),
            ),
            grid: (1, 1),
            groups: 1 + r.next_below(2) as usize,
            angles: 2,
            chunk: 1 + r.next_below(5) as usize,
            sigma: 0.6,
        };
        // Re-derive a decomposition that divides the mesh.
        let py = if cfg.n.1.is_multiple_of(2) { 2 } else { 1 };
        let pz = if cfg.n.2.is_multiple_of(2) { 2 } else { 1 };
        let cfg = SnapConfig { grid: (py, pz), ..cfg };
        let mut serial = SerialSnap::new(cfg);
        serial.sweep_all();
        let d = dv::run_spec(cfg, SimSpec::new(cfg.nodes()));
        let m = mpi::run_spec(cfg, SimSpec::new(cfg.nodes()));
        assert_eq!(&assemble_phi(&cfg, &d.fields), &serial.phi, "case {case}");
        assert_eq!(&assemble_phi(&cfg, &m.fields), &serial.phi, "case {case}");
    }
}

/// `send_packets` on a mixed-destination batch: one network batch per
/// destination, transmitted in ascending destination order, each in send
/// order. A batch pre-sorted that way must therefore be indistinguishable
/// from the shuffled one — same event trace.
#[test]
fn send_packets_groups_a_shuffled_batch_by_ascending_destination() {
    const NODES: usize = 8;
    let mut r = SplitMix64::new(0xA00B);
    let shuffled: Vec<Packet> = (0..1024u64)
        .map(|i| {
            let dest = 1 + r.next_below(NODES as u64 - 1) as usize;
            Packet::new(PacketHeader::fifo(0, dest, SCRATCH_GC), i)
        })
        .collect();
    let mut sorted = shuffled.clone();
    sorted.sort_by_key(|p| p.header.dest); // stable: send order within a destination

    let run = |packets: &[Packet]| {
        let packets = packets.to_vec();
        let tracer = Arc::new(Tracer::enabled());
        let spec = SimSpec::new(NODES).tracer(Arc::clone(&tracer));
        let report = DvCluster::from_spec(spec).run(move |dv, ctx| {
            if dv.node() == 0 {
                dv.send_packets(ctx, &packets, SendMode::Dma { cached_headers: true });
            }
            ctx.delay(us(100));
            dv.fifo_drain(ctx, usize::MAX)
        });
        // Node 0's network batches as (destination, packets): its injection
        // port serializes them, so send-time order is transmit order.
        let batches: Vec<(usize, u64)> =
            tracer.messages().iter().map(|m| (m.dst, m.bytes / PACKET_BYTES)).collect();
        (report.elapsed, report.trace_hash, report.result, batches)
    };

    let baseline = run(&sorted);
    assert_eq!(run(&shuffled), baseline, "the shuffled batch must run as the sorted one does");
    let (_, _, received, batches) = baseline;
    let expect: Vec<Vec<u64>> = (0..NODES)
        .map(|d| shuffled.iter().filter(|p| p.header.dest == d).map(|p| p.payload).collect())
        .collect();
    assert_eq!(received, expect, "each FIFO holds its words in send order");
    let expect_batches: Vec<(usize, u64)> =
        (1..NODES).map(|d| (d, expect[d].len() as u64)).filter(|&(_, n)| n > 0).collect();
    assert_eq!(batches, expect_batches, "one batch per destination, ascending");
}
