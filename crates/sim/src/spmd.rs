//! The SPMD harness: one foreground process per node, all running the
//! same body, described by a [`SimSpec`] and summarised as a
//! [`RunReport`]. `DvCluster` and `MpiCluster` are this harness plus
//! their own world and per-node context.

use std::sync::Arc;

use dv_core::metrics::record_state_totals;
use dv_core::spec::{RunReport, SimSpec};

use crate::{JoinSlot, Kernel, Sim, SimCtx};

impl Sim {
    /// Fresh simulation publishing scheduler counters into the spec's
    /// metrics registry.
    pub fn from_spec(spec: &SimSpec) -> Self {
        Self::build(Arc::clone(&spec.metrics))
    }

    /// Spawn `body` once per node of `spec` (process `{name}{node}`, given
    /// `node_ctx(node)`), run to completion, and return the per-node
    /// results in node order with the run evidence: elapsed virtual time,
    /// the event-trace hash (see [`crate::OrderAudit`]; identical specs
    /// and bodies must produce identical hashes — asserted by
    /// `tests/determinism.rs`), and a snapshot of the spec's metrics
    /// registry. `publish` runs on the kernel after the last event and
    /// before the snapshot, for the counters of the state it owns.
    pub fn run_spmd<C, T, F>(
        self,
        spec: &SimSpec,
        name: &str,
        node_ctx: impl Fn(usize) -> C,
        body: F,
        publish: impl FnOnce(&mut Kernel),
    ) -> RunReport<Vec<T>>
    where
        C: Send + 'static,
        T: Send + 'static,
        F: Fn(&C, &SimCtx) -> T + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let slots: Vec<JoinSlot<T>> = (0..spec.nodes).map(|_| JoinSlot::new()).collect();
        for (node, slot) in slots.iter().enumerate() {
            let (me, body, slot) = (node_ctx(node), Arc::clone(&body), slot.clone());
            self.spawn(format!("{name}{node}"), move |ctx| slot.put(body(&me, ctx)));
        }
        let (elapsed, trace_hash) = self.run_to_end();
        self.with_kernel(publish);
        record_state_totals(&spec.tracer, &spec.metrics);
        let result =
            slots.into_iter().map(|s| s.take().expect("node did not finish")).collect();
        RunReport { result, elapsed, trace_hash, snapshot: spec.metrics.snapshot() }
    }
}
