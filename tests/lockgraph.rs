//! Cross-check: the static lock-order graph `dv-lint` extracts from
//! source must agree with the runtime lock-order audit in
//! `dv_core::sync`.
//!
//! The two passes see different things. The runtime audit
//! ([`lock_order_edges`]/[`lock_order_conflicts`]) records only the
//! acquisition orders an actual workload exercised; the static graph
//! sees every nesting site in the source, including paths no test runs.
//! Agreement means:
//!
//! 1. The static pass knows every lock name the runtime ever observed
//!    (no `Mutex::new_named` site escapes the binding extraction).
//! 2. No named lock is taken under another at run time — the cluster
//!    state the kernel owns has no lock of its own, so nothing nests
//!    under `sim.kernel` — hence no inversion either, and the static
//!    graph, which models same-function nesting, is acyclic.
//!
//! The audit only records in debug builds, so the runtime half is a
//! no-op under `--release` (the static half still runs).

use std::path::Path;

use datavortex::core::spec::SimSpec;
use datavortex::core::sync::{lock_order_conflicts, lock_order_edges};
use datavortex::kernels::gups::{self, GupsConfig};
use dv_lint::run_lint;

#[test]
fn static_lock_graph_agrees_with_runtime_audit() {
    // Exercise both backends so the runtime audit sees every named lock
    // a real workload takes.
    let cfg =
        GupsConfig { table_per_node: 1 << 9, updates_per_node: 1 << 9, bucket: 256, stream_offset: 0 };
    let dv = gups::dv::run_spec(cfg, SimSpec::new(4));
    let mpi = gups::mpi::run_spec(cfg, SimSpec::new(4));
    assert!(dv.checksum != 0 && mpi.checksum != 0, "workloads must actually run");

    // Static pass over the workspace that produced this binary.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run_lint(root).expect("workspace sources readable");
    let static_names = report.locks.names();
    let static_cycles = report.locks.cycles();

    // (1) Every runtime-observed lock name is known to the static pass.
    let runtime_edges = lock_order_edges();
    for (held, acquired) in &runtime_edges {
        for name in [held, acquired] {
            assert!(
                static_names.iter().any(|n| n == name),
                "runtime observed lock {name:?} but static binding extraction missed it; \
                 static names: {static_names:?}"
            );
        }
    }
    assert!(runtime_edges.is_empty(), "a named lock was taken under another: {runtime_edges:?}");

    // (2) No runtime inversion, and the static graph is acyclic.
    let benign: [(String, String); 0] = [];
    for conflict in lock_order_conflicts() {
        assert!(
            benign.contains(&conflict),
            "runtime observed an unaudited lock-order inversion: {conflict:?}"
        );
    }
    assert_eq!(
        static_cycles,
        Vec::<Vec<String>>::new(),
        "static lock-order graph has a cycle the runtime has not hit yet"
    );
}
