//! # mini-mpi — the MPI-over-InfiniBand baseline
//!
//! The paper compares every Data Vortex implementation against an MPI
//! implementation of the same algorithm "running on the same cluster, but
//! using a conventional MPI-over-Infiniband implementation" (openmpi 1.8.3
//! over FDR). This crate is that baseline: a deliberately conventional
//! message-passing runtime on top of the `dv-sim` engine.
//!
//! * [`fabric`] — FDR InfiniBand fat-tree cost model: 6.8 GB/s per-port
//!   links, per-NIC full-duplex pipes, and an aggregate core pipe whose
//!   efficiency for unstructured traffic decays with cluster size
//!   (static-routing losses).
//! * [`comm`] — two-sided point-to-point with tag matching done where the
//!   message arrives (a posted-receive slot next to the unexpected message
//!   queue), **eager** protocol below the eager limit (bounce-buffer
//!   copies, fire-and-forget) and **rendezvous** above it (RTS/CTS
//!   handshake, chunked pipelined transfer — which is what caps large
//!   message efficiency at ~72 % of peak, as Figure 3 of the paper shows).
//! * [`coll`] — collectives built from point-to-point algorithms:
//!   dissemination barrier, binomial bcast/reduce, reduce + bcast
//!   allreduce, ring allgather, pairwise-exchange alltoall(v).
//! * [`cluster`] — an SPMD harness: run one closure per rank on the
//!   simulated cluster and collect results.
//!
//! Every blocking call of [`comm`] and every collective of [`coll`] is an
//! `async fn` of the rank (the private `comm::op`), a loop of
//! point-to-point steps polled in kernel context: one thread handoff per
//! call.
//!
//! Timing is virtual; payloads are real data (`Payload`), so algorithms
//! built on this runtime compute real answers that tests can validate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod coll;
pub mod comm;
pub mod fabric;
pub mod payload;

pub use cluster::MpiCluster;
pub use coll::ReduceOp;
pub use comm::{Comm, Envelope, Request};
pub use fabric::IbFabric;
pub use payload::Payload;

/// Message tag type.
pub type Tag = u64;

/// Tags at or above this value are reserved for collectives.
pub const RESERVED_TAG_BASE: Tag = 1 << 60;
