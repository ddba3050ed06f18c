//! # dv-switch — the Data Vortex switch
//!
//! Two views of the same interconnect (Section II of the paper):
//!
//! * [`cycle`] — a cycle-accurate simulator of the multi-cylinder deflection
//!   network: C = log₂(H)+1 nested cylinders of A×H switching nodes,
//!   normal paths descending between cylinders, deflection paths rotating
//!   within a cylinder, and deflection signals resolving contention without
//!   buffers ("hot potato" routing). Used for microarchitectural studies
//!   (latency/throughput/deflections vs offered load and traffic pattern)
//!   and to validate the analytic model.
//! * [`model`] — a closed-form latency/occupancy model of the switch used
//!   by the cluster runtime (`dv-api`), calibrated against the cycle
//!   simulator.
//!
//! [`traffic`] provides the synthetic patterns from the original Data
//! Vortex evaluation literature (uniform, hotspot, tornado, bit-reverse,
//! bursty) for the robustness studies the paper cites (refs \[14\]\[15\]).
//! [`faults`] applies a `dv_core::fault::FaultPlan` to the injection and
//! ejection sides of the switch with deterministic per-link sequencing.
//! [`net`] adds the rival topologies (fat tree, min-path graph) and their
//! store-and-forward cycle engine.
//!
//! Every cycle engine is driven through one trait, [`CycleEngine`]: the
//! optimized [`SwitchSim`] and [`RoutedNetSim`], which share their
//! injection FIFOs and accounting (the private `engine` module), and the
//! two frozen oracles the test suites compare them against —
//! [`reference`](mod@reference) keeps the pre-refactor switch simulator, [`net_reference`]
//! the pre-rebuild routed engine. The oracles have no other caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle;
mod engine;
pub mod faults;
pub mod model;
pub mod net;
pub mod net_reference;
pub mod reference;
pub mod topology;
pub mod traffic;

pub use cycle::{Delivered, SwitchSim};
pub use engine::CycleEngine;
pub use net::{AnyTopology, FatTree, MinPathGraph, NetworkTopology, RoutedNetSim, TopoKind};
pub use net_reference::ReferenceNetSim;
pub use reference::ReferenceSwitchSim;
pub use faults::{LinkFaultInjector, PacketFault};
pub use model::SwitchModel;
pub use topology::Topology;
