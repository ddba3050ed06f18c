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
//! The only change from the historical code is the `Timer` arm: `Port`
//! delivery now commits through pooled timer events on *both* engines, and
//! a timer commit hashes and counts exactly like the `call_at` closure it
//! replaced. Hops (`Kernel::wake_after`) are committed inside the shared
//! `Kernel::pop_valid`, so this loop never sees one.
//!
//! [`OrderAudit`]: crate::audit::OrderAudit

use crate::kernel::EventKind;
use crate::sim::{publish_and_hash, Report, Sim, SlotWake};
use dv_core::time::Time;

impl Sim {
    /// The historical scheduler loop, verbatim (see module docs).
    pub(crate) fn run_reference(self) -> (Time, u64) {
        let metrics = self.shared.metrics.lock().clone();
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
                    let live = self.shared.registry.lock().live_foreground;
                    if live > 0 {
                        let parked = self.parked_foreground_names_ref();
                        self.shutdown();
                        panic!(
                            "simulation deadlock: no pending events but {live} foreground \
                             process(es) still parked: {parked:?}"
                        );
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
                        Report::Parked(_) => {}
                        Report::Finished(pid) => {
                            let live = {
                                let mut reg = self.shared.registry.lock();
                                let slot = &mut reg.slots[pid];
                                slot.finished = true;
                                if !slot.daemon {
                                    reg.live_foreground -= 1;
                                }
                                reg.live_foreground
                            };
                            if live == 0 {
                                // All foreground work done; any remaining
                                // events belong to daemons and are dropped.
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

    fn parked_foreground_names_ref(&self) -> Vec<String> {
        // Take the pids under the registry lock alone, then resolve names
        // under the kernel lock alone — holding both invites lock-order
        // trouble (DV-W012) for no benefit on this cold error path.
        let pids: Vec<usize> = {
            let reg = self.shared.registry.lock();
            reg.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.daemon && !s.finished)
                .map(|(pid, _)| pid)
                .collect()
        };
        let kernel = self.shared.kernel.lock();
        pids.into_iter().map(|pid| kernel.proc_names[pid].clone()).collect()
    }
}
