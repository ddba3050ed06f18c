//! DV GUPS and BFS past 256 nodes: every status-page block is placed by
//! `dv_api::Layout` from the node count, so the recovery layer's
//! accepted-count block grows with the cluster and no protocol's slots
//! run into another's. Small per-node sizes keep the runs short; the
//! `#[ignore]`d cases are for release builds
//! (`cargo test --release --test large_clusters -- --include-ignored`).

use datavortex::core::spec::SimSpec;
use datavortex::kernels::graph::{self, GraphConfig, VertexPart};
use datavortex::kernels::gups::{self, GupsConfig};

fn gups_matches_the_serial_reference(nodes: usize) {
    // Deep in the HPCC stream, where updates spread over every node.
    let cfg = GupsConfig { table_per_node: 64, updates_per_node: 256, bucket: 1024, stream_offset: 1 << 40 };
    let r = gups::dv::run_spec(cfg, SimSpec::new(nodes));
    let (_, expect) = gups::serial_reference(&cfg, nodes);
    assert_eq!(r.checksum, expect, "{nodes} nodes: table checksum");
    assert_eq!(r.total_updates, (cfg.updates_per_node * nodes) as u64, "{nodes} nodes: updates");
}

fn bfs_tree_validates(nodes: usize) {
    let cfg = GraphConfig { scale: 10, edgefactor: 8, seed: 0x5EED };
    let csr = graph::Csr::build(cfg.vertices(), &graph::kronecker_edges(&cfg));
    let locals = graph::partition_csr(&csr, VertexPart { nodes });
    let root = graph::pick_roots(&csr, 1, 3)[0];
    let r = graph::dv::run_spec(&locals, cfg.vertices(), root, SimSpec::new(nodes));
    graph::validate_bfs(&csr, root, &r.parents).unwrap_or_else(|e| panic!("{nodes} nodes: {e}"));
}

#[test]
fn dv_gups_is_exact_at_512_nodes() {
    gups_matches_the_serial_reference(512);
}

#[test]
fn dv_bfs_validates_at_300_nodes() {
    bfs_tree_validates(300);
}

#[test]
#[ignore = "about 25 s in a debug build on 2 vCPUs, 10 s in release; CI runs it in release"]
fn dv_gups_is_exact_at_1024_nodes() {
    gups_matches_the_serial_reference(1024);
}

#[test]
#[ignore = "about 35 s in a debug build on 2 vCPUs, 13 s in release; CI runs it in release"]
fn dv_bfs_validates_at_512_nodes() {
    bfs_tree_validates(512);
}
