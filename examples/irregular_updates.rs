//! Irregular random updates (GUPS) on both networks.
//!
//! The workload the paper's introduction motivates: random 8-byte updates
//! over a distributed table, too irregular to aggregate by destination.
//! Runs the HPCC RandomAccess kernel on the simulated Data Vortex and on
//! MPI-over-InfiniBand, validates both against a serial reference, and
//! prints the per-node update rates (the Figure 6 metric).
//!
//! Run with: `cargo run --release --example irregular_updates`

#![allow(clippy::print_stdout, reason = "an example reports on its terminal")]

use datavortex::core::spec::SimSpec;
use datavortex::kernels::gups::{dv, mpi, serial_reference, GupsConfig};

fn main() {
    let cfg = GupsConfig { table_per_node: 1 << 12, updates_per_node: 1 << 13, bucket: 1024, stream_offset: 0 };
    println!(
        "GUPS: table 2^{} words/node, {} updates/node, 1024-update buffering cap\n",
        cfg.table_per_node.trailing_zeros(),
        cfg.updates_per_node
    );
    for nodes in [4usize, 8, 16] {
        let d = dv::run_spec(cfg, SimSpec::new(nodes));
        let m = mpi::run_spec(cfg, SimSpec::new(nodes));
        let (_, expect) = serial_reference(&cfg, nodes);
        assert_eq!(d.checksum, expect, "DV table diverged from the serial reference");
        assert_eq!(m.checksum, expect, "MPI table diverged from the serial reference");
        println!(
            "{nodes:>3} nodes:  Data Vortex {:>7.2} MUPS/node   MPI {:>7.2} MUPS/node   (DV/MPI {:.2}x)",
            d.mups_per_node(),
            m.mups_per_node(),
            d.ups() / m.ups(),
        );
    }
    println!("\nall tables validated XOR-exactly against the serial reference");
}
