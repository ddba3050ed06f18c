//! # dv-sim — deterministic process-oriented discrete-event simulation
//!
//! Every benchmark in this workspace runs on a *simulated* cluster: node
//! programs are ordinary Rust closures doing **real computation on real
//! data**, while time — compute charges, PCIe transfers, switch traversals,
//! MPI protocol costs — is **virtual**, advanced by a discrete-event kernel.
//!
//! ## Execution model
//!
//! * Each simulated process (one per cluster node) runs on its own OS
//!   thread, but **exactly one process executes at a time**. A [`Sim`]'s
//!   processes are all spawned before [`Sim::run`], and the run ends when
//!   the last one finishes.
//!   This makes the simulation fully deterministic — same seeds in, same
//!   event trace out — while letting node programs be written as
//!   straight-line imperative code with blocking calls (`recv`,
//!   `wait_until`, `barrier`).
//! * There is one engine, the **cooperative engine**, and no scheduler
//!   thread: a single *run token* circulates among the process threads,
//!   and whichever thread parks becomes the dispatcher — it commits events
//!   from the kernel's queue and hands the token directly to the next
//!   process (see `sim.rs` module docs). The order it commits in is pinned
//!   to the original central scheduler's by digest tables in the tests.
//! * Events are committed in `(virtual time, insertion sequence)` order;
//!   ties resolve in insertion order, so no ordering depends on OS thread
//!   scheduling.
//! * Wakeups are *generation-stamped*: a [`Waker`] captures the target
//!   process's park generation, and stale wakeups (for parks that already
//!   ended) are dropped by the scheduler. Blocking primitives therefore
//!   follow the standard re-check loop and tolerate spurious wakeups by
//!   construction.
//! * A process that would be woken only to call `delay` again is not woken:
//!   [`Kernel::wake_after`] / [`SimCtx::delay2`] put a *hop* in the queue
//!   where the intermediate resume would have been, and committing the hop
//!   schedules the final resume — same event order, one thread handoff less.
//! * Every blocking wait is a future over the process's [`Proc`]. On the
//!   thread, [`SimCtx::block_on`] polls it and parks while it is pending.
//!   A resume may instead run in the kernel: a process blocked in
//!   [`SimCtx::wait_in_kernel`] left the rest of its blocking call to the
//!   kernel, whose dispatcher polls it inline at each of its resumes until
//!   it has completed. The resume is committed, hashed and counted as
//!   ever; only the thread handoff is gone. mini-mpi runs every blocking
//!   call and collective as an `async fn` this way, and dv-api its
//!   barriers and the recovery layer's multi-park waits.
//!
//! ## Building blocks
//!
//! * [`Sim`] / [`SimCtx`] — the kernel and the per-process capability;
//!   [`Kernel::turn`] is the one turn of every blocking wait, run once per
//!   poll through the process's [`Proc`] ([`Proc::turn`],
//!   [`Proc::until`], [`Proc::delay2`]), by [`SimCtx::block_on`] on the
//!   thread ([`SimCtx::wait_for`], `wait_until`, `delay` are such calls)
//!   or by [`SimCtx::wait_in_kernel`].
//! * [`KernelState`] — simulation state a layer above installs in the
//!   kernel and reaches with `&mut Kernel`; [`Kernel::state_at`] schedules
//!   its events by token, boxing nothing (dv-api's packet deliveries,
//!   mini-mpi's rendezvous handshake).
//! * [`Port`] — a typed message queue in virtual time (the basis for NICs).
//! * [`WaitSet`] — virtual-time condition variable.
//! * [`Pipe`] — a FIFO bandwidth server (PCIe bus, NIC link, switch port).
//! * [`JoinSlot`] — collect a value from a finished process.
//! * [`Sim::run_spmd`] — the one-process-per-node harness under both
//!   cluster front ends: a `SimSpec` in, a `RunReport` out.
//! * [`OrderAudit`] — rolling hash of the committed event trace; the
//!   runtime determinism check behind [`Sim::run_hashed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod kernel;
mod parker;
mod sim;
mod spmd;
mod sync;

pub use audit::OrderAudit;
pub use kernel::{Kernel, KernelState, Pid, SchedStats, Waker};
pub use sim::{Proc, Sim, SimCtx};
pub use sync::{JoinSlot, Pipe, Port, WaitSet};

#[cfg(test)]
mod tests;
