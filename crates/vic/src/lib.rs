//! # dv-vic — the Vortex Interface Controller
//!
//! Functional model of the VIC (Section II / Figure 2 of the paper): the
//! PCI-Express 3.0 card that connects a cluster node to the Data Vortex
//! switch. One [`Vic`] per node, holding:
//!
//! * [`memory::DvMemory`] — 32 MB of QDR SRAM, addressable as 2²² 64-bit
//!   words from both the host (over PCIe) and the network; a DV-memory
//!   slot stores a single word and only the last write is readable.
//! * [`counters::GroupCounter`] — 64 hardware counters that track how many
//!   words of a transfer are still outstanding; packets name a counter and
//!   decrement it on arrival; software presets the expected count and
//!   waits for zero. Counter 0 is the scratch counter, counters 1 and 2
//!   are reserved for the hardware barrier.
//! * [`fifo::SurpriseFifo`] — the network-addressable FIFO that buffers
//!   unscheduled ("surprise") packets until the host polls them.
//! * [`pcie::PciePath`] — the cost model of the host↔VIC path: programmed
//!   I/O writes (slow, ~0.5 GB/s of payload), DMA transfers (4×/8×
//!   faster, amortized setup, 8192-entry DMA table), and the asymmetries
//!   the paper reports.
//!
//! [`Vic::deliver`] applies an arriving network packet to the right
//! structure and produces the reply packet for "return header" queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DV-W011: a cast that silently truncates, wraps or drops a sign
// corrupts a route or a timestamp.
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]

pub mod counters;
pub mod fifo;
pub mod memory;
pub mod pcie;
mod vic;

pub use counters::GroupCounter;
pub use fifo::SurpriseFifo;
pub use memory::DvMemory;
pub use pcie::PciePath;
pub use vic::{Vic, VicStats, FIFO_RECV_BASE};
