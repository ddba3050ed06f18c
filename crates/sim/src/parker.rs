//! Per-process parking for the cooperative engine.
//!
//! Each simulated process owns one [`Parker`]. The dispatcher *grants* the
//! parker to hand the process the run token; the process *waits* on it
//! inside `SimCtx::park`. Exactly one grant is outstanding at a time (the
//! engine's single-active-process invariant), so the parker is a one-shot
//! token cell, not a counting semaphore.
//!
//! A grant that lands before the process reaches `wait()` is consumed with
//! one atomic exchange — no lock, no syscall; otherwise the owner sleeps on
//! the condvar and the grant is one futex wake. The owner never spins.
//!
//! All flag transitions use acquire/release ordering; the condvar mutex
//! carries no data (the flag is the protocol) and exists only so sleeps
//! and wakes cannot miss each other.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};

/// Parker is idle: no grant pending, owner not sleeping.
const EMPTY: u32 = 0;
/// Owner is (or is about to be) asleep on the condvar.
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
    lock: StdMutex<()>,
    cv: Condvar,
}

impl Parker {
    pub(crate) fn new() -> Self {
        Self { flag: AtomicU32::new(EMPTY), lock: StdMutex::new(()), cv: Condvar::new() }
    }

    /// Hand the owner the run token. At most one grant may be outstanding.
    pub(crate) fn grant(&self) {
        let prev = self.flag.swap(GRANTED, Ordering::AcqRel);
        debug_assert!(prev != GRANTED, "double grant: two processes active at once");
        if prev == SLEEPING {
            // Take the lock so the notify cannot fire between the owner's
            // flag check and its condvar wait.
            let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            self.cv.notify_one();
        }
    }

    /// Tear down: every current and future `wait` returns `Err(Torn)`.
    pub(crate) fn shutdown(&self) {
        let prev = self.flag.swap(SHUTDOWN, Ordering::AcqRel);
        if prev == SLEEPING {
            let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            self.cv.notify_one();
        }
    }

    /// Block until granted (or shutdown). Consumes the grant.
    pub(crate) fn wait(&self) -> Result<(), Torn> {
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
            // Slow path: publish that we are sleeping, then wait. The
            // re-check under the lock pairs with grant/shutdown taking the
            // same lock before notifying.
            let mut g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            if self
                .flag
                .compare_exchange(EMPTY, SLEEPING, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // A grant/shutdown raced in; handle it above.
                continue;
            }
            while self.flag.load(Ordering::Acquire) == SLEEPING {
                g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        std::thread::sleep(std::time::Duration::from_millis(20));
        p.grant();
        assert!(h.join().unwrap());
    }

    #[test]
    fn shutdown_unblocks_waiters_forever() {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || p2.wait().is_err());
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
}
