//! How often DV's multi-park waits hand a node's thread the run token,
//! counted at 32 nodes with the host-side `SchedStats::thread_resumes`
//! (which no artifact publishes): the closing waits of a BFS level and of
//! a reliable epoch run as kernel steps, so a node's thread runs again
//! only when the call returns or has words to deliver, however many polls
//! the wait takes, and however many windows a retransmission after loss
//! ships. The thread-run waits took one handoff or more per poll.

use datavortex::api::{Aggregator, DvCluster, ReliableFifo, SendMode};
use datavortex::core::config::MachineConfig;
use datavortex::core::fault::FaultPlan;
use datavortex::core::packet::{Packet, PacketHeader, SCRATCH_GC};
use datavortex::core::spec::SimSpec;
use datavortex::core::time::us;
use datavortex::sim::SchedStats;

const NODES: usize = 32;

/// Seeded per-node pause before posting, so the waiters poll for up to
/// 60 µs; zero for every seventh node.
fn skew(node: usize) -> u64 {
    (node as u64 * 5) % 7 * 10
}

#[test]
fn each_frontier_size_wait_reaches_the_thread_once() {
    let report = DvCluster::from_spec(SimSpec::new(NODES)).run(|dv, ctx| {
        let (me, sizes) = (dv.node(), dv.layout().frontier_sizes);
        let mut rel = ReliableFifo::new(dv);
        ctx.delay(us(skew(me)));
        let posts: Vec<Packet> = (0..NODES)
            .filter(|&d| d != me)
            .map(|d| Packet::new(PacketHeader::dv_memory(me, d, sizes + me as u32, SCRATCH_GC), me as u64 + 1))
            .collect();
        dv.send_packets(ctx, &posts, SendMode::DirectWrite { cached_headers: true });
        let slots = rel.await_posts(ctx, dv, sizes);
        assert!((0..NODES).filter(|&s| s != me).all(|s| slots[s] == s as u64 + 1));
        // Each node reads last thing; the last reader sees every node's
        // final resume.
        ctx.with_kernel(|k| k.sched_stats())
    });
    let stats = report.result.iter().max_by_key(|s| s.thread_resumes).expect("32 nodes");
    // Per node: its start, its pause (unless zero), its send, its wait.
    let expected: u64 = (0..NODES).map(|n| 3 + u64::from(skew(n) > 0)).sum();
    assert_eq!(stats.thread_resumes, expected, "{stats:?}");
    // The waits polled: a status poll every 1.12 µs for up to 60 µs.
    assert!(stats.resumes > expected + 10 * NODES as u64, "{stats:?}");
}

/// One epoch of 200 words per node closed by `complete_epoch` under
/// `plan`: the deliveries and retransmission rounds of all nodes, and the
/// scheduler's counts as read by the node that saw the most thread
/// resumes.
fn close_epoch(plan: Option<&str>) -> (u64, u64, SchedStats) {
    let mut machine = MachineConfig::paper_cluster();
    machine.faults = plan.map(|p| FaultPlan::parse(p).expect("valid fault spec"));
    let report = DvCluster::from_spec(SimSpec::new(NODES).machine(machine)).run(|dv, ctx| {
        let me = dv.node();
        let mut rel = ReliableFifo::new(dv);
        // Never full: the close sends the whole batch in its flush.
        let mut agg = Aggregator::new(1 << 16);
        for i in 0..200u64 {
            let dest = (me + 1 + (i as usize * 7 + me) % (NODES - 1)) % NODES;
            rel.send(ctx, dv, &mut agg, dest, (me as u64) << 32 | i);
        }
        let mut deliveries = 0u64;
        let received = rel.complete_epoch(ctx, dv, &mut agg, |words| {
            assert!(!words.is_empty(), "deliver sees only non-empty runs");
            deliveries += 1;
        });
        (received, deliveries, rel.stats().retx_rounds, ctx.with_kernel(|k| k.sched_stats()))
    });
    let received: u64 = report.result.iter().map(|r| r.0).sum();
    assert_eq!(received, 200 * NODES as u64);
    let deliveries: u64 = report.result.iter().map(|r| r.1).sum();
    let retx_rounds: u64 = report.result.iter().map(|r| r.2).sum();
    let stats = report.result.iter().map(|r| r.3).max_by_key(|s| s.thread_resumes).expect("32 nodes");
    (deliveries, retx_rounds, stats)
}

#[test]
fn each_epoch_close_reaches_the_thread_once_per_delivery_and_once_more() {
    let (deliveries, _, stats) = close_epoch(None);
    // Per node: its start, then at most one per delivery and one return.
    let bound = NODES as u64 * 2 + deliveries;
    assert!(stats.thread_resumes <= bound, "{} > {bound}: {stats:?}", stats.thread_resumes);
    assert!(stats.resumes > bound, "the close parks more often than it delivers: {stats:?}");
}

#[test]
fn an_epoch_close_that_retransmits_reaches_the_thread_only_to_deliver() {
    for plan in ["seed=7,fifodrop=0.02", "seed=11,fifodrop=0.05"] {
        let (deliveries, retx_rounds, stats) = close_epoch(Some(plan));
        assert!(retx_rounds > 0, "{plan}: the plan must force retransmission");
        // The retransmission runs in the close: no handoff per window.
        let bound = NODES as u64 * 2 + deliveries;
        assert!(stats.thread_resumes <= bound, "{plan}: {} > {bound}: {stats:?}", stats.thread_resumes);
    }
}
