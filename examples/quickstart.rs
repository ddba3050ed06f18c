//! Quickstart: drive the Data Vortex API directly.
//!
//! Builds a 4-node simulated Data Vortex cluster and exercises the
//! programming model of the paper's Section III: remote DV-memory writes
//! with group counters, surprise-FIFO messages, "return header" queries,
//! and the hardware barrier.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::print_stdout, reason = "an example reports on its terminal")]

use datavortex::api::{DvCluster, SendMode};
use datavortex::core::packet::SCRATCH_GC;
use datavortex::core::spec::SimSpec;
use datavortex::core::time::as_us_f64;

fn main() {
    let cluster = DvCluster::from_spec(SimSpec::new(4));
    let report = cluster.run(|dv, ctx| {
        let me = dv.node();
        let right = (me + 1) % dv.nodes();

        // 1. Every node presets a group counter for the 8 words it will
        //    receive, then synchronizes (the preset-then-barrier idiom).
        dv.gc_set_local(ctx, 7, 8);
        dv.barrier(ctx);

        // 2. Write 8 words into the right neighbor's DV memory; each
        //    arriving word decrements that node's counter 7.
        let payload: Vec<u64> = (0..8).map(|i| (me as u64) * 100 + i).collect();
        dv.write_remote(ctx, right, 0x100, &payload, 7, SendMode::Dma { cached_headers: true });

        // 3. Wait for our own counter to drain, then read what landed.
        assert!(dv.gc_wait_zero(ctx, 7, None));
        let got = dv.read_local(ctx, 0x100, 8);

        // 4. Send a surprise packet to node 0 and let it tally them.
        dv.send_fifo(ctx, 0, &[me as u64], SCRATCH_GC, SendMode::DirectWrite { cached_headers: false });
        let tally = if me == 0 {
            (0..dv.nodes()).map(|_| dv.fifo_recv(ctx)).sum::<u64>()
        } else {
            0
        };

        // 5. Query: read word 0x100 straight out of the right neighbor's
        //    DV memory without its host being involved.
        dv.barrier(ctx);
        let peeked = dv.read_word(ctx, right, 0x100);

        (got, tally, peeked)
    });
    let (elapsed, results) = (report.elapsed, report.result);

    println!("simulated virtual time: {:.2} µs", as_us_f64(elapsed));
    for (node, (got, tally, peeked)) in results.iter().enumerate() {
        let left = (node + 3) % 4;
        assert_eq!(got[0], (left as u64) * 100, "node {node} got the wrong neighbor's data");
        println!("node {node}: received {:?}... from node {left}; query saw {peeked:#x}", &got[..3]);
        if node == 0 {
            assert_eq!(*tally, 1 + 2 + 3);
            println!("node 0: surprise-FIFO tally over all nodes = {tally}");
        }
    }
    println!("ok: remote writes, group counters, FIFO, queries, barriers all behaved");
}
