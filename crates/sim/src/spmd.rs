//! The SPMD harness: one foreground process per node, all running the
//! same body, described by a [`SimSpec`] and summarised as a
//! [`RunReport`]. `DvCluster` and `MpiCluster` are this harness plus
//! their own world and per-node context.

use std::sync::Arc;

use dv_core::metrics::record_state_totals;
use dv_core::spec::{RunReport, SimSpec};
use dv_core::time::Time;

use crate::{JoinSlot, Sim, SimCtx};

impl Sim {
    /// Fresh simulation on the engine `spec` asks for, publishing
    /// scheduler counters into the spec's metrics registry.
    pub fn from_spec(spec: &SimSpec) -> Self {
        Self::build(spec.engine, Arc::clone(&spec.metrics))
    }

    /// Spawn `body` once per node of `spec` (process `{name}{node}`, given
    /// `node_ctx(node)`), run to completion, and return the per-node
    /// results in node order with the run evidence: elapsed virtual time,
    /// the event-trace hash (see [`crate::OrderAudit`]; identical specs
    /// and bodies must produce identical hashes — asserted by
    /// `tests/determinism.rs`), and a snapshot of the spec's metrics
    /// registry. `publish(elapsed)` runs after the last event and before
    /// the snapshot, for backend counters that are flushed at end of run.
    pub fn run_spmd<C, T, F>(
        self,
        spec: &SimSpec,
        name: &str,
        node_ctx: impl Fn(usize) -> C,
        body: F,
        publish: impl FnOnce(Time),
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
        let (elapsed, trace_hash) = self.run_hashed();
        publish(elapsed);
        record_state_totals(&spec.tracer, &spec.metrics);
        let result =
            slots.into_iter().map(|s| s.take().expect("node did not finish")).collect();
        RunReport { result, elapsed, trace_hash, snapshot: spec.metrics.snapshot() }
    }
}
