//! The surprise-FIFO word path must allocate per *destination*, not per
//! *packet*: a warmed `ReliableFifo::send` × 1024 plus the
//! `Aggregator::flush` that ships them costs the counting sort's
//! per-destination batches and delivery events and nothing that grows
//! with the word count (no set nodes, no `Vec` regrowth, no buffer
//! thrown away). Measured with the per-thread counting allocator of
//! `tests/common` on the sending node's thread.

mod common;

use common::allocations_in;
use datavortex::api::{Aggregator, DvCluster, ReliableFifo};
use datavortex::core::spec::SimSpec;

const NODES: usize = 4;
const WORDS: u64 = 1024;

#[test]
fn warmed_send_and_flush_allocate_per_destination_not_per_packet() {
    let report = DvCluster::from_spec(SimSpec::new(NODES)).run(|dv, ctx| {
        let mut rel = ReliableFifo::new(dv);
        let mut agg = Aggregator::new(WORDS as usize);
        let mut allocated = [0u64; 2];
        let mut received = 0;
        // Epoch 0 warms every buffer to its high-water mark (epoch log,
        // aggregator, receivers' FIFOs, event heaps); epoch 1 repeats it
        // with fresh words and is the one that counts.
        for (epoch, slot) in allocated.iter_mut().enumerate() {
            if dv.node() == 0 {
                *slot = allocations_in(|| {
                    for i in 0..WORDS {
                        let dest = 1 + i as usize % (NODES - 1);
                        let word = (epoch as u64 * WORDS + i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        rel.send(ctx, dv, &mut agg, dest, word);
                    }
                    agg.flush(ctx, dv);
                });
                let mut sink = Vec::new();
                rel.verify_epoch(ctx, dv, &mut sink);
                assert!(sink.is_empty(), "nobody sends to node 0");
            }
            dv.barrier(ctx);
            received += rel.drain_unique(ctx, dv).len();
            dv.barrier(ctx);
        }
        (allocated[1], received)
    });

    let (allocated, _) = report.result[0];
    let dests = (NODES - 1) as u64;
    // The bound dates from a batch vector and a boxed delivery event per
    // destination, plus the counting sort's two tables per flush; a send
    // now shares one buffer across its batches and boxes no event. The
    // tree-based path before made one allocation for every handful of
    // words (173 here).
    assert!(
        allocated <= 4 * dests + 8,
        "{allocated} allocations for {WORDS} words to {dests} destinations"
    );
    let received: usize = report.result.iter().map(|&(_, r)| r).sum();
    assert_eq!(received as u64, 2 * WORDS, "every word arrived exactly once");
}
