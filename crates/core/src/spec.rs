//! `SimSpec` — the one builder every simulation backend consumes.
//!
//! One value describes the cluster size, the machine cost model, fault
//! injection, tracing, and metrics (a telemetry stream is attached to the
//! metrics registry, not to the spec);
//! `DvCluster::from_spec` / `MpiCluster::from_spec` and every kernel and
//! application entry point consume it, and a run returns a [`RunReport`].
//!
//! ```
//! use dv_core::spec::SimSpec;
//!
//! let spec = SimSpec::new(8).instrumented();
//! assert_eq!(spec.nodes, 8);
//! assert!(spec.metrics.is_enabled());
//! ```

use std::sync::Arc;

use crate::config::{ComputeParams, MachineConfig};
use crate::fault::FaultPlan;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::time::Time;
use crate::trace::Tracer;

/// Everything needed to set up a simulated cluster, in one builder.
pub struct SimSpec {
    /// Number of simulated nodes (one process per node).
    pub nodes: usize,
    /// Machine cost model; defaults to the paper's cluster.
    pub machine: MachineConfig,
    /// Trace recorder (disabled by default).
    pub tracer: Arc<Tracer>,
    /// Metrics registry (disabled by default).
    pub metrics: Arc<MetricsRegistry>,
}

impl SimSpec {
    /// A cluster of `nodes` nodes on the paper's machine, defaults
    /// everywhere else: no tracing, no metrics, no faults.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            machine: MachineConfig::paper_cluster(),
            tracer: Arc::new(Tracer::disabled()),
            metrics: MetricsRegistry::disabled_shared(),
        }
    }

    /// Ignored: the engine has one event queue. Kept only because the
    /// frozen `benchmark/` package calls it; goes when that package thaws.
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Replace the whole machine cost model.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Override the compute cost parameters.
    pub fn compute(mut self, compute: ComputeParams) -> Self {
        self.machine.compute = compute;
        self
    }

    /// Inject deterministic faults according to `plan`.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.machine.faults = Some(plan);
        self
    }

    /// Inject faults if a plan is given (convenience for `--faults` flags).
    pub fn faults_opt(mut self, plan: Option<FaultPlan>) -> Self {
        self.machine.faults = plan;
        self
    }

    /// Attach a metrics registry; the run publishes scheduler, network,
    /// VIC, PCIe, and per-state virtual-time metrics into it.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attach a fresh enabled metrics registry (shorthand for the common
    /// "instrumented run" setup).
    pub fn instrumented(mut self) -> Self {
        self.metrics = Arc::new(MetricsRegistry::enabled());
        self
    }

    /// Attach a trace recorder.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }
}

/// What a unified `run()` returns: the workload's own result plus the
/// run-level evidence (virtual end time, determinism hash, metrics).
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// The workload's result (per-node results for cluster runs).
    pub result: T,
    /// Final virtual time of the run.
    pub elapsed: Time,
    /// `OrderAudit` hash of the committed event trace — identical inputs
    /// must produce identical hashes.
    pub trace_hash: u64,
    /// Snapshot of the attached metrics registry after end-of-run
    /// publication (empty if metrics were disabled).
    pub snapshot: MetricsSnapshot,
}

impl<T> RunReport<T> {
    /// Map the workload result, keeping the run evidence.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunReport<U> {
        RunReport {
            result: f(self.result),
            elapsed: self.elapsed,
            trace_hash: self.trace_hash,
            snapshot: self.snapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_cluster() {
        let spec = SimSpec::new(32);
        assert_eq!(spec.nodes, 32);
        assert!(!spec.metrics.is_enabled());
        assert!(!spec.tracer.is_enabled());
        assert!(spec.machine.faults.is_none());
    }

    #[test]
    fn builder_methods_compose() {
        let plan = FaultPlan::parse("seed=7,fifodrop=0.02").expect("valid plan");
        let spec = SimSpec::new(4).instrumented().faults(plan);
        assert!(spec.metrics.is_enabled());
        assert!(spec.machine.faults.is_some());
    }

    #[test]
    fn run_report_map_keeps_evidence() {
        let r = RunReport {
            result: vec![1u64, 2, 3],
            elapsed: 42,
            trace_hash: 7,
            snapshot: MetricsSnapshot::default(),
        };
        let r2 = r.map(|v| v.len());
        assert_eq!(r2.result, 3);
        assert_eq!((r2.elapsed, r2.trace_hash), (42, 7));
    }
}
