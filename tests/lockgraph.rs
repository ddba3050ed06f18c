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
//! 2. Runtime inversions stay inside the audited benign set (see
//!    `tests/determinism.rs`: the `api.vic`/`sim.kernel` inversion
//!    cannot deadlock because the scheduler runs exactly one simulated
//!    process at a time), and the static graph — which only models
//!    same-function nesting, so it does not see that cross-function
//!    waker path — is acyclic.
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
    // Exercise both backends so the runtime audit sees the scheduler,
    // VIC, barrier, and MPI lock pairs a real workload takes.
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
    if cfg!(debug_assertions) {
        assert!(
            !runtime_edges.is_empty(),
            "debug-build workload should have exercised at least one nested named lock"
        );
    }

    // (2) Runtime inversions stay inside the audited benign set, and
    // the static graph is acyclic.
    let benign = [("api.vic".to_string(), "sim.kernel".to_string())];
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
