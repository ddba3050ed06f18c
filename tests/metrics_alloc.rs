//! The disabled metrics path must be free: no locks (beyond one relaxed
//! atomic load) and, checked here, no heap allocation. The per-thread
//! counting allocator of `tests/common` wraps the system one; the
//! disabled-registry hot loop must leave the counter untouched.

mod common;

use common::allocations_in;
use datavortex::core::metrics::MetricsRegistry;
use datavortex::core::stats::Log2Histogram;

#[test]
fn disabled_registry_never_allocates() {
    let m = MetricsRegistry::disabled();
    let mut hist = Log2Histogram::new(16);
    hist.push(7);

    let allocated = allocations_in(|| {
        for i in 0..10_000u64 {
            m.incr("bench.counter", 1);
            m.incr_labeled("bench.labeled", &[("node", i.into()), ("path", "eager".into())], 1);
            m.gauge("bench.gauge", i as f64);
            m.gauge_max("bench.gauge_max", &[("node", i.into())], i as f64);
            m.observe("bench.hist", i);
            m.observe_labeled("bench.hist_labeled", &[("op", "sum".into())], i);
            m.observe_histogram("bench.hist_bulk", &[], &hist);
        }
    });
    assert_eq!(allocated, 0, "disabled metrics path allocated");
    assert!(m.snapshot().is_empty());

    // Sanity: the same calls on an enabled registry must produce data
    // (and are allowed to allocate).
    let m = MetricsRegistry::enabled();
    m.incr("bench.counter", 2);
    m.observe("bench.hist", 9);
    let snap = m.snapshot();
    assert_eq!(snap.counter("bench.counter", &[]), Some(2));
    assert!(!snap.is_empty());
}
