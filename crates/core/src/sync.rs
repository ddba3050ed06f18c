//! Simulation-safe synchronization primitives.
//!
//! Every lock in the simulated system goes through [`Mutex`], a thin shim
//! over `std::sync::Mutex` with two properties the determinism story
//! depends on:
//!
//! * **No `unwrap()` on lock results.** [`Mutex::lock`] recovers from
//!   poisoning instead of panicking: a poisoned lock means a simulated
//!   process panicked *while holding it*, and the scheduler is already
//!   unwinding the run — secondary panics from every other process would
//!   only bury the original error. Rule `DV-W004` (clippy's
//!   `disallowed-types` in the hot paths' `clippy.toml`) bans
//!   `std::sync::Mutex` there and points here.
//! * **Debug-mode lock-order auditing.** When compiled with
//!   `debug_assertions`, every acquisition is recorded against the locks
//!   the acquiring thread already holds (for locks constructed with
//!   [`Mutex::new_named`]). [`lock_order_conflicts`] reports any pair of
//!   named locks that has been taken in *both* orders — the classic
//!   deadlock precondition. The root `tests/determinism.rs` asserts the
//!   report stays empty across the whole suite's workloads.
//!
//! [`fan_out`] is the one way to run independent simulations on several
//! host threads; dv-sim's process spawn is the only other thread start.

use std::collections::BTreeSet;
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};

/// Global registry of observed (held → acquired) named-lock pairs.
/// Only populated in debug builds and only for named locks, so the
/// steady-state cost in release builds is zero.
fn order_edges() -> &'static StdMutex<BTreeSet<(&'static str, &'static str)>> {
    static EDGES: OnceLock<StdMutex<BTreeSet<(&'static str, &'static str)>>> = OnceLock::new();
    EDGES.get_or_init(|| StdMutex::new(BTreeSet::new()))
}

#[cfg(debug_assertions)]
thread_local! {
    /// Names of the named locks the current thread holds, in acquisition
    /// order (a stack; entries are removed on guard drop).
    static HELD: std::cell::RefCell<Vec<&'static str>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Lock a `std` mutex, recovering the data if a previous holder panicked.
fn lock_recover<T: ?Sized>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A mutex whose `lock()` never panics (poisoning is recovered) and which,
/// when named, participates in the debug-mode lock-order audit.
///
/// API-compatible with the subset of `parking_lot::Mutex` this workspace
/// uses: `lock()` returns the guard directly, with no `Result` to unwrap.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    name: Option<&'static str>,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// An anonymous mutex (not tracked by the lock-order audit).
    pub fn new(value: T) -> Self {
        Self { name: None, inner: StdMutex::new(value) }
    }

    /// A named mutex: debug builds record its acquisition order against
    /// other named locks held by the same thread.
    pub fn new_named(name: &'static str, value: T) -> Self {
        Self { name: Some(name), inner: StdMutex::new(value) }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock. Recovers (rather than panics) if a previous
    /// holder panicked; see the module docs for why that is correct here.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        if let Some(name) = self.name {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if !held.is_empty() {
                    let mut edges = lock_recover(order_edges());
                    for &h in held.iter() {
                        if h != name {
                            edges.insert((h, name));
                        }
                    }
                }
                held.push(name);
            });
        }
        MutexGuard { guard: lock_recover(&self.inner), name: self.name }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { guard, name: None }),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                Some(MutexGuard { guard: poisoned.into_inner(), name: None })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// Guard returned by [`Mutex::lock`]; releases the lock (and pops the
/// lock-order stack entry in debug builds) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: StdMutexGuard<'a, T>,
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    name: Option<&'static str>,
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.guard.fmt(f)
    }
}

impl<T: ?Sized + std::fmt::Display> std::fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.guard.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&h| h == name) {
                    held.remove(pos);
                }
            });
        }
    }
}

/// Names of the named locks the calling thread holds right now, oldest
/// first; always empty in release builds (nothing is tracked there, and an
/// empty `Vec` costs nothing). dv-sim's `Parker::grant` asserts it is empty:
/// a thread that wakes another while holding a world lock sends the woken
/// thread straight into that lock (a convoy — on one CPU the wake preempts
/// the holder), and if the holder then parks, the next process to want the
/// lock blocks on a mutex whose owner never runs — a host deadlock.
pub fn held_named_locks() -> Vec<&'static str> {
    #[cfg(debug_assertions)]
    return HELD.with(|held| held.borrow().clone());
    #[cfg(not(debug_assertions))]
    Vec::new()
}

/// Every (held → acquired) named-lock pair the runtime audit has observed
/// so far, sorted. This is the raw edge set [`lock_order_conflicts`] is
/// derived from; `tests/lockgraph.rs` cross-checks it against the static
/// lock-order graph `dv-lint` builds from source. Only named locks
/// ([`Mutex::new_named`]) in debug builds are tracked — empty in release.
pub fn lock_order_edges() -> Vec<(String, String)> {
    lock_recover(order_edges())
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

/// Pairs of named locks observed in *both* acquisition orders — each pair
/// is a potential deadlock. Empty in a well-ordered program. Only named
/// locks ([`Mutex::new_named`]) in debug builds are tracked.
pub fn lock_order_conflicts() -> Vec<(String, String)> {
    let edges = lock_recover(order_edges());
    edges
        .iter()
        .filter(|&&(a, b)| a < b && edges.contains(&(b, a)))
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

/// Run `f` on every item, each on its own scoped host thread, and return
/// the results in input order. This is how the workspace fans independent
/// seeded simulations (sweep points, figure rows) across host threads:
/// each item must be a simulation of its own, so host scheduling cannot
/// change any result. A panicking item re-raises its own payload here.
pub fn fan_out<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|s| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the workspace's one fan-out: each item is a simulation of its own, joined in input order"
        )]
        let handles: Vec<_> = items.iter().map(|item| s.spawn(move || f(item))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_runs_every_item_at_once_and_keeps_input_order() {
        // Each item waits until all have started, so a serial run (or a
        // pool narrower than the input) could never finish.
        let items: Vec<u64> = (0..6).rev().collect();
        let gate = std::sync::Barrier::new(items.len());
        let out = fan_out(&items, |&x| {
            gate.wait();
            x * 10
        });
        assert_eq!(out, [50, 40, 30, 20, 10, 0]);
    }

    #[test]
    fn lock_round_trips_value() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_panicking() {
        let m = std::sync::Arc::new(Mutex::new(1));
        let m2 = std::sync::Arc::clone(&m);
        #[expect(clippy::disallowed_methods, reason = "test harness: a host thread poisons the lock")]
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A parking_lot-style lock() must still work.
        assert_eq!(*m.lock(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nested_named_locks_record_an_edge() {
        let a = Mutex::new_named("audit-test-a", 0);
        let b = Mutex::new_named("audit-test-b", 0);
        {
            let _ga = a.lock();
            let _gb = b.lock();
            let c = Mutex::new(0);
            let _gc = c.lock(); // anonymous: not tracked
            assert_eq!(held_named_locks(), ["audit-test-a", "audit-test-b"]);
        }
        assert!(held_named_locks().is_empty(), "both guards dropped");
        let edges = lock_recover(order_edges());
        assert!(edges.contains(&("audit-test-a", "audit-test-b")));
        // Consistent ordering: no conflict reported for this pair.
        drop(edges);
        assert!(!lock_order_conflicts()
            .iter()
            .any(|(x, y)| x.contains("audit-test") && y.contains("audit-test")));
    }
}
