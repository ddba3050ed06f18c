//! Cross-crate integration tests: whole benchmark paths on small inputs,
//! exercising sim + switch + vic + api + mpi + kernels + apps together.

use datavortex::api::{DvCluster, SendMode};
use datavortex::apps::{heat, snap, vorticity};
use datavortex::core::config::ComputeParams;
use datavortex::core::spec::SimSpec;
use datavortex::core::time::{as_us_f64, us, Time};
use datavortex::kernels::barrier::{barrier_latency_spec, BarrierKind};
use datavortex::kernels::gups::{self, GupsConfig};
use datavortex::kernels::pingpong;
use datavortex::kernels::{fft, graph};
use datavortex::mpi::{MpiCluster, Payload, ReduceOp};

#[test]
fn figure3_shape_dma_beats_pio_and_mpi_wins_raw_bandwidth() {
    let words = 64 * 1024;
    let dv = |mode| pingpong::dv_pingpong_spec(words, 1, mode, SimSpec::new(2));
    let pio = dv(SendMode::DirectWrite { cached_headers: false });
    let cached = dv(SendMode::DirectWrite { cached_headers: true });
    let dma = dv(SendMode::Dma { cached_headers: true });
    let mpi = pingpong::mpi_pingpong(words, 1, SimSpec::new(2));
    assert!(pio.bandwidth_gbps() < cached.bandwidth_gbps());
    assert!(cached.bandwidth_gbps() < dma.bandwidth_gbps());
    assert!(dma.bandwidth_gbps() < mpi.bandwidth_gbps(), "IB peak is higher; MPI wins ping-pong");
}

#[test]
fn figure4_shape_dv_flat_mpi_growing() {
    let dv: Vec<_> = [2, 8, 32]
        .iter()
        .map(|&n| barrier_latency_spec(BarrierKind::DvIntrinsic, SimSpec::new(n), 30))
        .collect();
    let mpi: Vec<_> =
        [2, 8, 32]
        .iter()
        .map(|&n| barrier_latency_spec(BarrierKind::Mpi, SimSpec::new(n), 30))
        .collect();
    assert!(dv[2] < dv[0] * 3 / 2, "DV barrier must stay nearly flat: {dv:?}");
    assert!(mpi[2] > mpi[0] * 2, "MPI barrier must grow: {mpi:?}");
    assert!(dv[2] < mpi[2]);
}

#[test]
fn figure6_shape_gups_gap_widens_with_scale() {
    let cfg = GupsConfig { table_per_node: 1 << 11, updates_per_node: 1 << 13, bucket: 1024, stream_offset: 0 };
    let gap = |nodes| {
        let d = gups::dv::run_spec(cfg, SimSpec::new(nodes));
        let m = gups::mpi::run_spec(cfg, SimSpec::new(nodes));
        assert_eq!(d.checksum, m.checksum);
        d.ups() / m.ups()
    };
    let g4 = gap(4);
    let g16 = gap(16);
    assert!(g16 > g4, "DV/MPI GUPS gap must widen: {g4} -> {g16}");
    assert!(g16 > 1.0, "DV must win at 16 nodes");
}

#[test]
fn figure7_shape_fft_dv_wins_at_scale_with_valid_numerics() {
    let n = 1 << 14;
    let d = fft::dv::run_spec(n, SimSpec::new(16), true);
    let m = fft::mpi::run_spec(n, SimSpec::new(16), true);
    assert!(d.max_error < 1e-8 && m.max_error < 1e-8);
    assert!(d.gflops() > m.gflops(), "dv {} mpi {}", d.gflops(), m.gflops());
}

#[test]
fn figure8_shape_bfs_dv_wins_with_valid_trees() {
    let gcfg = graph::GraphConfig { scale: 11, edgefactor: 8, seed: 1 };
    let edges = graph::kronecker_edges(&gcfg);
    let csr = graph::Csr::build(gcfg.vertices(), &edges);
    let locals = graph::partition_csr(&csr, graph::VertexPart { nodes: 8 });
    let root = graph::pick_roots(&csr, 1, 5)[0];
    let d = graph::dv::run_spec(&locals, gcfg.vertices(), root, SimSpec::new(8));
    let m = graph::mpi::run_spec(&locals, gcfg.vertices(), root, SimSpec::new(8));
    graph::validate_bfs(&csr, root, &d.parents).unwrap();
    graph::validate_bfs(&csr, root, &m.parents).unwrap();
    assert!(d.teps() > m.teps(), "dv {} mpi {}", d.teps(), m.teps());
}

/// Past 64 nodes: DV BFS keeps one sent-count and one frontier-size slot
/// per node, and the two ranges must not meet, or no level completes.
#[test]
fn dv_bfs_validates_past_64_nodes() {
    let gcfg = graph::GraphConfig { scale: 10, edgefactor: 8, seed: 0x5EED };
    let edges = graph::kronecker_edges(&gcfg);
    let csr = graph::Csr::build(gcfg.vertices(), &edges);
    let locals = graph::partition_csr(&csr, graph::VertexPart { nodes: 72 });
    let root = graph::pick_roots(&csr, 1, 3)[0];
    let d = graph::dv::run_spec(&locals, gcfg.vertices(), root, SimSpec::new(72));
    graph::validate_bfs(&csr, root, &d.parents).unwrap();
}

#[test]
fn figure9_shape_apps_validate_and_dv_wins_where_the_paper_says() {
    // Heat: bit-exact + DV faster.
    let hcfg = heat::HeatConfig { n: (16, 16, 16), grid: (2, 2, 2), r: 0.1, steps: 6, report_every: 3, halo: heat::Halo::Line };
    let hd = heat::dv::run_spec(hcfg, SimSpec::new(8));
    let hm = heat::mpi::run_spec(hcfg, SimSpec::new(8));
    assert_eq!(heat::mpi::assemble(&hcfg, &hd.fields), heat::mpi::assemble(&hcfg, &hm.fields));
    assert!(hd.elapsed < hm.elapsed, "heat: dv {} mpi {}", hd.elapsed, hm.elapsed);

    // SNAP: bit-exact, speedup modest either way.
    let scfg = snap::SnapConfig { n: (16, 8, 8), grid: (2, 2), groups: 2, angles: 6, chunk: 4, sigma: 0.7 };
    let sd = snap::dv::run_spec(scfg, SimSpec::new(4));
    let sm = snap::mpi::run_spec(scfg, SimSpec::new(4));
    assert_eq!(snap::assemble_phi(&scfg, &sd.fields), snap::assemble_phi(&scfg, &sm.fields));
    let snap_speedup = sm.elapsed as f64 / sd.elapsed as f64;
    assert!((0.9..2.5).contains(&snap_speedup), "snap speedup {snap_speedup}");

    // Vorticity: numerically matched + DV faster.
    let vcfg = vorticity::VortConfig { m: 64, dt: 1e-3, steps: 2 };
    let vd = vorticity::dist::run_dv(vcfg, SimSpec::new(8));
    let vm = vorticity::dist::run_mpi(vcfg, SimSpec::new(8));
    assert!(vd.elapsed < vm.elapsed, "vorticity: dv {} mpi {}", vd.elapsed, vm.elapsed);
    for (a, b) in vd.omega_hat.iter().zip(&vm.omega_hat) {
        assert!(datavortex::kernels::fft::max_error(a, b) < 1e-9);
    }
}

#[test]
fn spec_compute_rates_reach_every_run_body() {
    // Half the stencil and memory-streaming rates: every run body that
    // charges them must take the slower machine from the spec, not from
    // `ComputeParams::default()`. (The FLOP rate is left alone so the FFT
    // rows can only grow through the transposes' pack/unpack passes.)
    let slow = || {
        let fast = ComputeParams::default();
        ComputeParams { stencil_mcups: fast.stencil_mcups / 2.0, mem_gbps: fast.mem_gbps / 2.0, ..fast }
    };
    type Door = fn(SimSpec) -> Time;
    let doors: [(&str, usize, Door); 5] = [
        ("heat::dv", 8, |spec| heat::dv::run_spec(heat::HeatConfig::test_small(), spec).elapsed),
        ("heat::mpi", 8, |spec| heat::mpi::run_spec(heat::HeatConfig::test_small(), spec).elapsed),
        ("fft::dv", 4, |spec| fft::dv::run_spec(1 << 12, spec, false).elapsed),
        ("fft::twod/dv", 4, |spec| fft::twod::run_dv(32, spec).elapsed),
        ("fft::twod/mpi", 4, |spec| fft::twod::run_mpi(32, spec).elapsed),
    ];
    for (name, nodes, run) in doors {
        let paper = run(SimSpec::new(nodes));
        let slowed = run(SimSpec::new(nodes).compute(slow()));
        assert!(slowed > paper, "{name} ignored SimSpec::compute: {paper} -> {slowed}");
    }
}

#[test]
fn mixed_api_usage_in_one_simulation() {
    // DV memory + counters + FIFO + queries + both barrier flavors in one
    // program, at an odd node count.
    let report = DvCluster::from_spec(SimSpec::new(5)).run(|dv, ctx| {
        let me = dv.node();
        let n = dv.nodes();
        dv.gc_set_local(ctx, 9, (n - 1) as u64);
        dv.barrier(ctx);
        // All-to-all single-word writes into slot `me` of everyone.
        for d in 0..n {
            if d != me {
                dv.write_remote(ctx, d, 300 + me as u32, &[me as u64 + 1], 9, SendMode::DirectWrite { cached_headers: true });
            }
        }
        assert!(dv.gc_wait_zero(ctx, 9, Some(ctx.now() + us(500))));
        let slots = dv.read_local(ctx, 300, n);
        dv.fast_barrier(ctx);
        // Cross-check one value with a query from the left neighbor.
        let left = (me + n - 1) % n;
        let via_query = dv.read_word(ctx, left, 300 + me as u32);
        assert_eq!(via_query, me as u64 + 1);
        slots.iter().sum::<u64>()
    });
    // Each node misses only its own contribution.
    for (me, s) in report.result.iter().enumerate() {
        assert_eq!(*s, 15 - (me as u64 + 1));
    }
    assert!(as_us_f64(report.elapsed) < 1e4);
}

#[test]
fn mpi_collectives_compose_across_a_full_workflow() {
    let results = MpiCluster::from_spec(SimSpec::new(6))
        .run(|comm, ctx| {
        let me = comm.rank() as u64;
        // Gather -> root transforms -> scatter -> allreduce -> bcast.
        let gathered = comm.gather(ctx, 2, Payload::U64(vec![me * me]));
        let scattered = if comm.rank() == 2 {
            let doubled: Vec<Payload> = gathered
                .unwrap()
                .into_iter()
                .map(|p| Payload::U64(p.into_u64().iter().map(|x| x + 1).collect()))
                .collect();
            comm.scatter(ctx, 2, Some(doubled))
        } else {
            comm.scatter(ctx, 2, None)
        };
        let mine = scattered.into_u64()[0];
        let total = comm.allreduce(ctx, ReduceOp::Sum, Payload::U64(vec![mine])).into_u64()[0];
        comm.bcast(ctx, 0, (comm.rank() == 0).then(|| Payload::U64(vec![total])))
            .into_u64()[0]
        })
        .result;
    // sum over r of (r^2 + 1) for r in 0..6 = 55 + 6 = 61.
    for r in results {
        assert_eq!(r, 61);
    }
}

#[test]
fn gups_aggregation_ablation_is_faithful() {
    let cfg = GupsConfig { table_per_node: 1 << 10, updates_per_node: 1 << 11, bucket: 1024, stream_offset: 0 };
    let on = gups::dv::run_ablate(cfg, SimSpec::new(4), true);
    let off = gups::dv::run_ablate(cfg, SimSpec::new(4), false);
    assert_eq!(on.checksum, off.checksum);
    assert!(on.ups() > 1.5 * off.ups(), "aggregation gain missing: {} vs {}", on.ups(), off.ups());
}

#[test]
fn scaled_up_switch_supports_larger_clusters() {
    // Section IX: doubling nodes adds a cylinder; the runtime grows the
    // switch automatically.
    let report = DvCluster::from_spec(SimSpec::new(64)).run(|dv, ctx| {
        dv.barrier(ctx);
        dv.send_fifo(
            ctx,
            (dv.node() + 1) % 64,
            &[dv.node() as u64],
            datavortex::core::packet::SCRATCH_GC,
            SendMode::DirectWrite { cached_headers: true },
        );
        dv.fifo_recv(ctx)
    });
    for (me, got) in report.result.iter().enumerate() {
        assert_eq!(*got as usize, (me + 63) % 64);
    }
    assert!(report.elapsed > 0);
}
