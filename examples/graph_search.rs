//! Distributed breadth-first search over a Kronecker graph.
//!
//! Generates a Graph500-style scale-free graph, partitions it over a
//! simulated cluster, runs BFS on both networks from the same roots,
//! validates every parent tree, and reports TEPS.
//!
//! Run with: `cargo run --release --example graph_search`

#![allow(clippy::print_stdout, reason = "an example reports on its terminal")]

use datavortex::core::spec::SimSpec;
use datavortex::kernels::graph::{
    dv, kronecker_edges, mpi, partition_csr, pick_roots, serial_bfs, validate_bfs, Csr,
    GraphConfig, VertexPart,
};

fn main() {
    let gcfg = GraphConfig { scale: 12, edgefactor: 16, seed: 0xBF5 };
    let edges = kronecker_edges(&gcfg);
    let csr = Csr::build(gcfg.vertices(), &edges);
    let max_degree = (0..csr.vertices()).map(|v| csr.degree(v as u32)).max().unwrap();
    println!(
        "Kronecker graph: 2^{} vertices, {} edges, max degree {} (power-law hubs)\n",
        gcfg.scale,
        gcfg.edges(),
        max_degree
    );

    let nodes = 8;
    let locals = partition_csr(&csr, VertexPart { nodes });
    for root in pick_roots(&csr, 3, 7) {
        let (_, levels) = serial_bfs(&csr, root);
        let reached = levels.iter().filter(|&&l| l >= 0).count();
        let depth = levels.iter().max().unwrap();

        let d = dv::run_spec(&locals, gcfg.vertices(), root, SimSpec::new(nodes));
        validate_bfs(&csr, root, &d.parents).expect("DV BFS produced an invalid tree");
        let m = mpi::run_spec(&locals, gcfg.vertices(), root, SimSpec::new(nodes));
        validate_bfs(&csr, root, &m.parents).expect("MPI BFS produced an invalid tree");

        println!(
            "root {root:>5}: reaches {reached} vertices in {depth} levels | DV {:>6.1} MTEPS  MPI {:>6.1} MTEPS  ({:.2}x)",
            d.teps() / 1e6,
            m.teps() / 1e6,
            d.teps() / m.teps(),
        );
    }
    println!("\nall BFS trees passed Graph500-style validation");
}
