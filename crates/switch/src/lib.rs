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
//! One engine per job, both driven through one trait, [`CycleEngine`]:
//! [`SwitchSim`] for the deflection network and [`RoutedNetSim`] for the
//! store-and-forward graphs, sharing their injection FIFOs and accounting
//! (the private `engine` module). What their frozen oracles — the
//! pre-refactor switch simulator and the pre-rebuild routed engine —
//! delivered survives as pinned digest tables in
//! `tests/equivalence.rs`, which both engines must reproduce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DV-W011: a cast that silently truncates, wraps or drops a sign
// corrupts a route or a timestamp.
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]

pub mod cycle;
mod engine;
pub mod faults;
pub mod model;
pub mod net;
pub mod topology;
pub mod traffic;

pub use cycle::{Delivered, SwitchSim};
pub use engine::CycleEngine;
pub use net::{AnyTopology, FatTree, MinPathGraph, NetworkTopology, RoutedNetSim, TopoKind};
pub use faults::{LinkFaultInjector, PacketFault};
pub use model::SwitchModel;
pub use topology::Topology;
