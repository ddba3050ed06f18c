//! Failure injection: the sharp edges the paper warns about, exercised
//! deliberately — FIFO overflow, the group-counter set/decrement race,
//! out-of-order delivery, and simulated-program deadlock.

use datavortex::api::{DvCluster, SendMode};
use datavortex::core::config::MachineConfig;
use datavortex::core::packet::SCRATCH_GC;
use datavortex::core::spec::SimSpec;
use datavortex::core::time::us;

#[test]
fn fifo_overflow_drops_packets_and_reports_them() {
    // Shrink the FIFO so overflow is cheap to provoke; blast packets at a
    // node that never drains.
    let mut cfg = MachineConfig::paper_cluster();
    cfg.dv.fifo_capacity = 256;
    let results = DvCluster::from_spec(SimSpec::new(2).machine(cfg)).run(|dv, ctx| {
        if dv.node() == 0 {
            let words: Vec<u64> = (0..1024).collect();
            dv.send_fifo(ctx, 1, &words, SCRATCH_GC, SendMode::Dma { cached_headers: true });
            ctx.delay(us(200));
            (0, 0)
        } else {
            // The victim sleeps through the flood, then counts survivors.
            ctx.delay(us(500));
            let got = dv.fifo_drain(ctx, usize::MAX).len();
            (got, dv.fifo_dropped(ctx))
        }
    })
    .result;
    let (received, dropped) = results[1];
    assert_eq!(received, 256, "exactly the FIFO capacity survives");
    assert_eq!(dropped, 1024 - 256, "overflow must be counted, not silent");
}

#[test]
fn fifo_survives_at_capacity_boundary() {
    let mut cfg = MachineConfig::paper_cluster();
    cfg.dv.fifo_capacity = 128;
    let results = DvCluster::from_spec(SimSpec::new(2).machine(cfg)).run(|dv, ctx| {
        if dv.node() == 0 {
            let words: Vec<u64> = (0..128).collect();
            dv.send_fifo(ctx, 1, &words, SCRATCH_GC, SendMode::Dma { cached_headers: true });
            0
        } else {
            ctx.delay(us(300));
            assert_eq!(dv.fifo_dropped(ctx), 0);
            dv.fifo_drain(ctx, usize::MAX).len()
        }
    })
    .result;
    assert_eq!(results[1], 128);
}

#[test]
fn counter_overshoot_never_reads_as_complete() {
    // More packets than the preset: the counter goes negative and a wait
    // with a deadline must time out (the hardware's exact-zero test).
    let results = DvCluster::from_spec(SimSpec::new(2)).run(|dv, ctx| {
        if dv.node() == 1 {
            dv.gc_set_local(ctx, 11, 2);
            dv.barrier(ctx);
            ctx.delay(us(300));
            let ok = dv.gc_wait_zero(ctx, 11, Some(ctx.now() + us(100)));
            (ok, dv.gc_value(ctx, 11))
        } else {
            dv.barrier(ctx);
            dv.write_remote(ctx, 1, 0, &[1, 2, 3], 11, SendMode::DirectWrite { cached_headers: true });
            (true, 0)
        }
    })
    .result;
    let (ok, value) = results[1];
    assert!(!ok, "overshoot must not satisfy the zero test");
    assert_eq!(value, -1);
}

#[test]
fn interleaved_batches_from_many_senders_preserve_every_packet() {
    // Out-of-order arrival across senders: each payload is tagged with its
    // origin; all must arrive exactly once regardless of interleaving.
    let n = 6;
    let per = 200u64;
    let results = DvCluster::from_spec(SimSpec::new(n)).run(move |dv, ctx| {
        let me = dv.node();
        if me != 0 {
            for chunk in 0..4 {
                let words: Vec<u64> =
                    (0..per / 4).map(|i| (me as u64) << 32 | (chunk * per / 4 + i)).collect();
                dv.send_fifo(ctx, 0, &words, SCRATCH_GC, SendMode::Dma { cached_headers: true });
                ctx.delay(us(me as u64)); // stagger to force interleaving
            }
            Vec::new()
        } else {
            let mut got = Vec::new();
            while got.len() < (n - 1) * per as usize {
                got.push(dv.fifo_recv(ctx));
            }
            got
        }
    })
    .result;
    let mut got = results[0].clone();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len(), (n - 1) * per as usize, "every packet exactly once");
}

#[test]
fn deadlocked_programs_are_diagnosed_not_hung() {
    // A receive that can never be satisfied must panic with a named
    // process, not hang the host test suite.
    let result = std::panic::catch_unwind(|| {
        DvCluster::from_spec(SimSpec::new(2)).run(|dv, ctx| {
            if dv.node() == 0 {
                let _ = dv.fifo_recv(ctx); // nobody ever sends
            }
        })
    });
    let err = result.expect_err("deadlock must be detected");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("deadlock"), "diagnostic should name the condition: {msg}");
}

/// A switch with no ports never grows to fit the cluster: the world
/// rejects each zero dimension by name instead of looping forever.
#[test]
#[should_panic(expected = "dv.angles")]
fn a_switch_with_zero_angles_is_rejected() {
    let mut cfg = MachineConfig::paper_cluster();
    cfg.dv.angles = 0;
    DvCluster::from_spec(SimSpec::new(4).machine(cfg)).run(|_, _| ());
}

#[test]
#[should_panic(expected = "dv.height")]
fn a_switch_with_zero_height_is_rejected() {
    let mut cfg = MachineConfig::paper_cluster();
    cfg.dv.height = 0;
    DvCluster::from_spec(SimSpec::new(4).machine(cfg)).run(|_, _| ());
}
