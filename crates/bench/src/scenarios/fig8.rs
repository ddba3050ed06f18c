//! Figure 8: Graph500 BFS, harmonic-mean TEPS vs node count.
//!
//! The paper searches the largest graph that fits the cluster and reports
//! 64 roots; the simulation uses scale 14 (scale 12 with `--quick`) and 8
//! roots. Harmonic-mean TEPS is the Graph500 reporting rule.

use dv_bench::{f2, Opts, Report, Streamer};
use dv_core::spec::SimSpec;
use dv_core::stats::harmonic_mean;
use dv_kernels::graph::{dv, kronecker_edges, mpi, partition_csr, pick_roots, validate_bfs, Csr, GraphConfig, VertexPart};

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let (scale, roots_n) = if opts.quick { (12, 4) } else { (14, 8) };
    // Optional chaos mode for the Data Vortex searches; every tree is
    // still validated, so recovery correctness is checked per root.
    let fault_plan = &opts.faults;
    let gcfg = GraphConfig { scale, edgefactor: 16, seed: 0x6500 };
    let edges = kronecker_edges(&gcfg);
    let csr = Csr::build(gcfg.vertices(), &edges);
    let roots = pick_roots(&csr, roots_n, 99);

    // `--stream`: one search, 8 nodes, first root.
    Streamer::representative_run(opts, 8, |spec| {
        let locals = partition_csr(&csr, VertexPart { nodes: 8 });
        dv::run_spec(&locals, gcfg.vertices(), roots[0], spec.faults_opt(fault_plan.clone())).elapsed
    });

    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8, 16, 32] {
        let locals = partition_csr(&csr, VertexPart { nodes });
        // Each (root, backend) search is an independent simulation, so the
        // sweep parallelizes across host threads without touching results
        // (results are collected in root order, so host scheduling cannot
        // change the output — tests/determinism.rs checks this property).
        let (dv_teps, mpi_teps): (Vec<f64>, Vec<f64>) = super::fan_out(&roots, |&root| {
            let spec = SimSpec::new(nodes).faults_opt(fault_plan.clone());
            let d = dv::run_spec(&locals, gcfg.vertices(), root, spec);
            validate_bfs(&csr, root, &d.parents).expect("DV BFS tree invalid");
            let m = mpi::run_spec(&locals, gcfg.vertices(), root, SimSpec::new(nodes));
            validate_bfs(&csr, root, &m.parents).expect("MPI BFS tree invalid");
            (d.teps(), m.teps())
        })
        .into_iter()
        .unzip();
        let d = harmonic_mean(&dv_teps) / 1e6;
        let m = harmonic_mean(&mpi_teps) / 1e6;
        rows.push(vec![nodes.to_string(), f2(d), f2(m), f2(d / m)]);
    }
    report.section(
        &format!(
            "Figure 8 — BFS harmonic-mean MTEPS, scale {scale}, edgefactor 16, {} roots (validated)",
            roots.len()
        ),
        &["nodes", "Data Vortex", "Infiniband", "DV/IB"],
        rows,
    );
}
