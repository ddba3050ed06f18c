//! Per-process parking for the cooperative engine.
//!
//! Each simulated process owns one [`Parker`]. The dispatcher *grants* the
//! parker to hand the process the run token; the process *waits* on it
//! inside `SimCtx::park`. Exactly one grant is outstanding at a time (the
//! engine's single-active-process invariant), so the parker is a one-shot
//! token cell, not a counting semaphore.
//!
//! The protocol is a four-state atomic flag, acquire/release throughout;
//! under it the owner sleeps in `std::thread::park()` and is woken through
//! its `Thread` handle (a bare futex), registered on entry to `wait()` —
//! before the flag can read `SLEEPING`. An early grant is one atomic
//! exchange, a handoff one `futex_wake` plus one `futex_wait`. A condvar
//! would make the woken thread re-lock a mutex its notifier, preempted by
//! the wake, still holds: the owner, "never spinning" by an earlier version
//! of this doc, spun in std's `Mutex::spin` (DESIGN.md, "The handoff
//! convoy"). The park token cannot replace the flag: it is the thread's
//! (`mpsc`, `thread::scope` use it) and cannot carry `SHUTDOWN` or the
//! double-grant assert; `wait` loops on the *flag*, so strays are harmless.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};

/// Parker is idle: no grant pending, owner not sleeping.
const EMPTY: u32 = 0;
/// Owner is (or is about to be) parked.
const SLEEPING: u32 = 1;
/// A grant is pending; the next `wait` returns immediately.
const GRANTED: u32 = 2;
/// Simulation is tearing down; `wait` returns `Err` forever.
const SHUTDOWN: u32 = 3;

/// Returned by [`Parker::wait`] when the simulation is shutting down; the
/// caller unwinds its thread.
pub(crate) struct Torn;

pub(crate) struct Parker {
    flag: AtomicU32,
    /// The one thread that waits on this parker, set by its first `wait`.
    owner: OnceLock<Thread>,
}

impl Parker {
    pub(crate) fn new() -> Self {
        Self { flag: AtomicU32::new(EMPTY), owner: OnceLock::new() }
    }

    /// Hand the owner the run token. At most one grant may be outstanding,
    /// and the granter holds no named lock (`held_named_locks` says why).
    pub(crate) fn grant(&self) {
        let held = dv_core::sync::held_named_locks();
        debug_assert!(held.is_empty(), "run token granted while holding {held:?}");
        let prev = self.post(GRANTED);
        debug_assert!(prev != GRANTED, "double grant: two processes active at once");
    }

    /// Tear down: every current and future `wait` returns `Err(Torn)`.
    pub(crate) fn shutdown(&self) {
        self.post(SHUTDOWN);
    }

    /// Store `state`, waking the owner if that found it sleeping.
    fn post(&self, state: u32) -> u32 {
        let prev = self.flag.swap(state, Ordering::AcqRel);
        if prev == SLEEPING {
            self.owner.get().expect("SLEEPING is stored by a registered owner only").unpark();
        }
        prev
    }

    /// Block until granted (or shutdown). Consumes the grant.
    pub(crate) fn wait(&self) -> Result<(), Torn> {
        let owner = self.owner.get_or_init(thread::current);
        loop {
            match self.flag.compare_exchange(
                GRANTED,
                EMPTY,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(SHUTDOWN) => return Err(Torn),
                Err(_) => {}
            }
            // Slow path: publish that we are sleeping, then park. An unpark
            // that beats us to `park()` makes it return at once: no lost wake.
            if self
                .flag
                .compare_exchange(EMPTY, SLEEPING, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // A grant/shutdown raced in; handle it above.
                continue;
            }
            debug_assert_eq!(owner.id(), thread::current().id(), "a parker has one owner");
            while self.flag.load(Ordering::Acquire) == SLEEPING {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the scheduler's own sleep: a passive process thread waits here for the run token; ctx.park() is built on it"
                )]
                thread::park();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::channel;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn grant_before_wait_is_consumed_without_sleeping() {
        let p = Parker::new();
        p.grant();
        assert!(p.wait().is_ok());
    }

    #[test]
    fn wait_blocks_until_granted() {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || p2.wait().is_ok());
        #[expect(clippy::disallowed_methods, reason = "test harness: give the waiter time to sleep")]
        std::thread::sleep(std::time::Duration::from_millis(20));
        p.grant();
        assert!(h.join().unwrap());
    }

    #[test]
    fn shutdown_unblocks_waiters_forever() {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || p2.wait().is_err());
        #[expect(clippy::disallowed_methods, reason = "test harness: give the waiter time to sleep")]
        std::thread::sleep(std::time::Duration::from_millis(20));
        p.shutdown();
        assert!(h.join().unwrap());
        assert!(p.wait().is_err(), "shutdown is sticky");
    }

    #[test]
    fn token_round_trips_many_times() {
        let p = Arc::new(Parker::new());
        let q = Arc::new(Parker::new());
        let (p2, q2) = (Arc::clone(&p), Arc::clone(&q));
        let h = std::thread::spawn(move || {
            for _ in 0..10_000 {
                if p2.wait().is_err() {
                    return false;
                }
                q2.grant();
            }
            true
        });
        for _ in 0..10_000 {
            p.grant();
            assert!(q.wait().is_ok());
        }
        assert!(h.join().unwrap());
    }

    #[test]
    fn stray_unparks_neither_release_the_waiter_nor_cost_it_the_grant() {
        let p = Arc::new(Parker::new());
        let released = Arc::new(AtomicBool::new(false));
        let (p2, released2) = (Arc::clone(&p), Arc::clone(&released));
        let h = thread::spawn(move || {
            thread::current().unpark(); // a token left behind before wait()
            let granted = p2.wait().is_ok();
            released2.store(true, Ordering::SeqCst);
            granted
        });
        while p.flag.load(Ordering::Acquire) != SLEEPING {
            #[expect(clippy::disallowed_methods, reason = "test harness: spin until the owner sleeps")]
            thread::yield_now(); // until the owner has announced its sleep
        }
        for _ in 0..1000 {
            h.thread().unpark(); // and a stream of them during it
            #[expect(clippy::disallowed_methods, reason = "test harness: let the owner run")]
            thread::yield_now();
            assert!(!released.load(Ordering::SeqCst), "a stray unpark released the waiter");
        }
        assert_eq!(p.flag.load(Ordering::Acquire), SLEEPING);
        p.grant();
        assert!(h.join().unwrap(), "the grant after the strays must still arrive");
    }

    #[test]
    fn grant_before_the_owner_registers_needs_no_wake() {
        let p = Arc::new(Parker::new());
        p.grant();
        assert!(p.owner.get().is_none(), "nobody to wake, and nobody needed");
        let p2 = Arc::clone(&p);
        assert!(thread::spawn(move || p2.wait().is_ok()).join().unwrap());
        assert_eq!(p.flag.load(Ordering::Acquire), EMPTY, "the grant was consumed on the fast path");
    }

    #[test]
    fn shutdown_racing_a_thread_into_wait_is_an_error_and_sticky() {
        // The barrier releases both sides together, so over the rounds the
        // shutdown lands before the first exchange, between the two, and
        // after the owner went to sleep.
        for _ in 0..500 {
            let p = Arc::new(Parker::new());
            let gate = Arc::new(Barrier::new(2));
            let (p2, gate2) = (Arc::clone(&p), Arc::clone(&gate));
            let h = thread::spawn(move || {
                gate2.wait();
                p2.wait().is_err() && p2.wait().is_err()
            });
            gate.wait();
            p.shutdown();
            assert!(h.join().unwrap());
        }
    }

    #[test]
    fn a_ring_of_64_threads_never_loses_a_wake_up() {
        const THREADS: usize = 64;
        const PASSES: usize = 100_000;
        let ring: Arc<Vec<Parker>> = Arc::new((0..THREADS).map(|_| Parker::new()).collect());
        #[expect(clippy::disallowed_methods, reason = "test harness: the host watchdog's channel")]
        let (done_tx, done_rx) = channel();
        let handles: Vec<_> = (0..THREADS)
            .map(|me| {
                let (ring, done) = (Arc::clone(&ring), done_tx.clone());
                thread::spawn(move || {
                    // Pass `k` of the one token is received by thread `k % THREADS`.
                    for k in (me..PASSES).step_by(THREADS) {
                        if ring[me].wait().is_err() {
                            return;
                        }
                        if k + 1 == PASSES {
                            let _ = done.send(());
                        } else {
                            ring[(me + 1) % THREADS].grant();
                        }
                    }
                })
            })
            .collect();
        ring[0].grant();
        // The watchdog: a lost wake-up stops the token, and the suite fails
        // here in a minute instead of hanging.
        #[expect(clippy::disallowed_methods, reason = "test harness: a host watchdog, not simulated time")]
        let finished = done_rx.recv_timeout(Duration::from_secs(60));
        ring.iter().for_each(Parker::shutdown);
        for h in handles {
            h.join().unwrap();
        }
        finished.expect("the token stopped moving: a wake-up was lost");
    }
}
