//! `ReliableFifo::complete_epoch` under injected FIFO loss: three nodes,
//! two epochs, one node that only receives. Each node's return value is
//! exactly the words addressed to it in that epoch (the count restarts
//! every epoch), `deliver` sees each of them once, and the drops were
//! repaired by retransmission rather than never happening. A word sent
//! twice in one run breaks the layer's uniqueness rule and must panic,
//! not hang.

use std::sync::Arc;

use datavortex::api::{Aggregator, DvCluster, ReliableFifo};
use datavortex::core::config::MachineConfig;
use datavortex::core::fault::FaultPlan;
use datavortex::core::metrics::MetricsRegistry;
use datavortex::core::spec::SimSpec;
use datavortex::core::Word;

const NODES: usize = 3;
/// The node that sends nothing.
const SILENT: usize = 2;

/// Words each sender addresses to each peer in `epoch`.
fn per_peer(epoch: usize) -> u64 {
    [300, 170][epoch]
}

/// The `i`-th word `src` sends `dest` in `epoch`: unique across the run.
fn word(epoch: usize, src: usize, dest: usize, i: u64) -> Word {
    ((epoch as u64) << 40 | (src as u64) << 36 | (dest as u64) << 32 | i)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn addressed_to(epoch: usize, dest: usize) -> Vec<Word> {
    let mut words: Vec<Word> = (0..NODES)
        .filter(|&src| src != dest && src != SILENT)
        .flat_map(|src| (0..per_peer(epoch)).map(move |i| word(epoch, src, dest, i)))
        .collect();
    words.sort_unstable();
    words
}

#[test]
fn each_epoch_returns_exactly_the_words_addressed_to_the_node() {
    let mut machine = MachineConfig::paper_cluster();
    machine.faults = Some(FaultPlan::parse("seed=11,fifodrop=0.05").expect("valid fault spec"));
    let metrics = Arc::new(MetricsRegistry::enabled());
    let spec = SimSpec::new(NODES).machine(machine).metrics(Arc::clone(&metrics));
    let report = DvCluster::from_spec(spec).run(|dv, ctx| {
        let me = dv.node();
        let mut rel = ReliableFifo::new(dv);
        let mut agg = Aggregator::new(256);
        let mut epochs = Vec::new();
        dv.barrier(ctx);
        for epoch in 0..2 {
            if me != SILENT {
                for dest in (0..NODES).filter(|&d| d != me) {
                    for i in 0..per_peer(epoch) {
                        rel.send(ctx, dv, &mut agg, dest, word(epoch, me, dest, i));
                    }
                }
            }
            let mut delivered = Vec::new();
            let received =
                rel.complete_epoch(ctx, dv, &mut agg, |w| delivered.extend_from_slice(w));
            // Every peer has posted into our slots: clear them, then fence
            // so no peer posts the next epoch's counts before we did.
            dv.write_local(ctx, dv.layout().epoch_counts, &[0; NODES]);
            dv.fast_barrier(ctx);
            delivered.sort_unstable();
            epochs.push((received, delivered));
        }
        rel.publish(dv.world());
        epochs
    });

    for (node, epochs) in report.result.iter().enumerate() {
        for (epoch, (received, delivered)) in epochs.iter().enumerate() {
            let expected = addressed_to(epoch, node);
            assert_eq!(*received, expected.len() as u64, "node {node}, epoch {epoch}: count");
            assert_eq!(*delivered, expected, "node {node}, epoch {epoch}: delivered words");
        }
    }
    let snap = metrics.snapshot();
    assert!(snap.counter_total("vic.fifo.forced_drops") > 0, "the plan must fire");
    assert!(snap.counter_total("api.fifo.retx_rounds") > 0, "drops must be found");
    assert!(snap.counter_total("api.fifo.retx_words") > 0, "drops must be retransmitted");
}

#[test]
#[should_panic(expected = "every word must be unique across the run")]
fn a_word_repeated_in_a_later_epoch_panics_instead_of_hanging() {
    // Epoch 0's drops are retransmitted, so inbound dedup is live when
    // epoch 1 repeats a word of epoch 0: the receiver discards it, and
    // the count its sender promised can never be met.
    let mut machine = MachineConfig::paper_cluster();
    machine.faults = Some(FaultPlan::parse("seed=11,fifodrop=0.05").expect("valid fault spec"));
    DvCluster::from_spec(SimSpec::new(2).machine(machine)).run(|dv, ctx| {
        let (me, peer) = (dv.node(), 1 - dv.node());
        let mut rel = ReliableFifo::new(dv);
        let mut agg = Aggregator::new(256);
        dv.barrier(ctx);
        for epoch in 0..2 {
            for i in 0..per_peer(epoch) {
                rel.send(ctx, dv, &mut agg, peer, word(epoch, me, peer, i));
            }
            if epoch == 1 {
                rel.send(ctx, dv, &mut agg, peer, word(0, me, peer, 0));
            }
            rel.complete_epoch(ctx, dv, &mut agg, |_| {});
            dv.write_local(ctx, dv.layout().epoch_counts, &[0; 2]);
            dv.fast_barrier(ctx);
        }
    });
}
