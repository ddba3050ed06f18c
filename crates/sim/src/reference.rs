//! The frozen pre-sharding scheduler, kept as the determinism oracle.
//!
//! This is the engine the crate shipped with before the cooperative
//! rewrite: the host thread is a central scheduler that pops one event at a
//! time and, for resumes, performs a full `Sender<()>` / report-channel
//! round-trip with the target process (two context switches and two
//! allocating channel sends per handoff). It is deliberately left alone —
//! the same role `ReferenceSwitchSim` plays for the switch hot path — so
//! the root invariance tests can prove the cooperative engine bit-identical
//! against it: same workload, same [`OrderAudit`] hash, same metrics.
//!
//! The changes from the historical code: the `Timer` arm (`Port` delivery
//! now commits through pooled timer events on *both* engines, and a timer
//! commit hashes and counts exactly like the `call_at` closure it
//! replaced), and the bookkeeping both engines share — `Registry::finish`
//! and the deadlock message. Hops (`Kernel::wake_after`) are committed
//! inside the shared `Kernel::pop_valid`, so this loop never sees one.
//!
//! [`OrderAudit`]: crate::audit::OrderAudit

use crate::kernel::EventKind;
use crate::sim::{deadlock_message, publish_and_hash, Report, Sim, SlotWake};
use dv_core::time::Time;

impl Sim {
    /// The historical scheduler loop, verbatim (see module docs).
    pub(crate) fn run_reference(self) -> (Time, u64) {
        let metrics = &self.shared.metrics;
        loop {
            let next = self.shared.kernel.lock().pop_valid();
            // Virtual-time telemetry sampling: advance the registry's
            // sampler to the event we are about to dispatch, so a sample
            // at boundary `b` captures exactly the events committed
            // before the first dispatch at or after `b`. Deterministic by
            // construction (keyed to the event sequence, never the host
            // clock); one relaxed atomic load when no series is attached.
            if let Some((t, _)) = &next {
                metrics.tick(*t);
            }
            match next {
                None => {
                    if let Some(msg) = deadlock_message(&self.shared) {
                        self.shutdown();
                        panic!("{msg}");
                    }
                    break;
                }
                Some((_t, EventKind::Call(f))) => {
                    f(&mut self.shared.kernel.lock());
                }
                Some((_t, EventKind::Timer(id))) => {
                    let mut k = self.shared.kernel.lock();
                    if let Some(mut hook) = k.take_timer_hook(id) {
                        hook(&mut k);
                        k.put_timer_hook(id, hook);
                    }
                }
                Some((_t, EventKind::Hop(..))) => unreachable!("pop_valid consumes hops"),
                Some((_t, EventKind::Resume(w))) => {
                    {
                        let reg = self.shared.registry.lock();
                        let slot = &reg.slots[w.pid()];
                        if slot.finished {
                            continue;
                        }
                        match &slot.wake {
                            SlotWake::Channel(tx) => {
                                tx.send(()).expect("process thread vanished") // dv-lint: allow(DV-W004, reason = "scheduler-fatal (frozen reference engine): the process thread owning this channel vanished mid-run, so the simulation state is already unrecoverable and an immediate panic with this message is the clearest failure")
                            }
                            SlotWake::Parker(_) => {
                                unreachable!("parker slots cannot appear in the reference loop")
                            }
                        }
                    }
                    match self.report_rx.recv().expect("report channel closed") { // dv-lint: allow(DV-W004, reason = "scheduler-fatal (frozen reference engine): the report channel closing means every process thread died without reporting; continuing would deadlock the scheduler loop")
                        Report::Parked => {}
                        Report::Finished(pid) => {
                            if self.shared.registry.lock().finish(pid) == 0 {
                                // All work done; events still queued are
                                // never committed.
                                break;
                            }
                        }
                        Report::Panicked(pid, msg) => {
                            let name = self.shared.kernel.lock().proc_names[pid].clone();
                            self.shutdown();
                            panic!("simulated process '{name}' panicked: {msg}");
                        }
                    }
                }
            }
        }
        let (now, hash) = publish_and_hash(&self.shared);
        self.shutdown();
        (now, hash)
    }
}
