//! `dv_api::Layout` is one map of a node's DV memory and group counters
//! for every cluster the header's 12-bit node field can name: status-page
//! blocks disjoint and inside the page, the bulk region past the page,
//! the reply runs above both, and the kernel's counters clear of every
//! reserved one. A bulk user or a kernel that does not fit stops with a
//! panic naming the exhausted resource, and a cluster past the node field
//! one naming the field.

use datavortex::api::layout::{KERNEL_GCS, RESERVED_GCS};
use datavortex::api::{DvWorld, Layout};
use datavortex::core::packet::{DV_MEMORY_WORDS, GROUP_COUNTERS, MAX_NODES};
use datavortex::core::spec::SimSpec;
use datavortex::kernels::fft;
use datavortex::vic::memory::PAGE_WORDS;

#[test]
fn every_block_is_disjoint_and_fits_for_1_to_4096_nodes() {
    for nodes in 1..=4096usize {
        let (l, n) = (Layout::new(nodes), nodes as u32);
        let page = l.status_page_words as u32;
        let blocks = [
            ("fast barrier sink", l.fast_barrier_sink..l.fast_barrier_sink + 1),
            ("accepted counts", l.accepted..l.accepted + n),
            ("epoch counts", l.epoch_counts..l.epoch_counts + n),
            ("frontier sizes", l.frontier_sizes..l.frontier_sizes + n),
            ("reduce scratch", l.reduce_scratch..l.reduce_scratch + 2 * n),
            ("neighbour credits", l.credits..l.credits + 4),
        ];
        for (i, (name, r)) in blocks.iter().enumerate() {
            assert!(r.end <= page, "{nodes} nodes: {name} {r:?} outside the {page}-word page");
            for (other, s) in &blocks[i + 1..] {
                assert!(r.end <= s.start || s.end <= r.start, "{nodes} nodes: {name} {r:?} overlaps {other} {s:?}");
            }
        }
        let bulk = l.bulk_base;
        assert!(page <= bulk && (bulk as usize).is_multiple_of(PAGE_WORDS), "{nodes} nodes: bulk base {bulk}");
        let replies = l.verify_replies..l.verify_replies + n;
        assert!(bulk < replies.start, "{nodes} nodes: no bulk words left");
        assert_eq!(replies.end, l.query_reply, "{nodes} nodes: the two reply runs are adjacent");
        assert_eq!(l.query_reply as usize, DV_MEMORY_WORDS - 1);
        assert_eq!(l.bulk((replies.start - bulk) as usize), bulk, "{nodes} nodes: the whole bulk region");
        let gcs = l.kernel_gcs(KERNEL_GCS.len());
        assert!(usize::from(gcs.end) <= GROUP_COUNTERS, "{nodes} nodes: kernel counters {gcs:?}");
        assert!(gcs.clone().all(|gc| !RESERVED_GCS.contains(&gc)), "{nodes} nodes: {gcs:?} meets {RESERVED_GCS:?}");
    }
    // Every counter is either reserved or the kernel's; ping-pong alone
    // takes 32 of them.
    assert_eq!(KERNEL_GCS.len() + RESERVED_GCS.len(), GROUP_COUNTERS);
    assert!(KERNEL_GCS.len() >= 32);
    // The packing keeps the page at 1024 words for the paper's
    // 32-node cluster and the bulk base at 4096 well past 256 nodes.
    assert_eq!(Layout::new(32).status_page_words, 1024);
    assert_eq!(Layout::new(512).bulk_base, 4096);
}

#[test]
#[should_panic(expected = "group counters exhausted")]
fn a_kernel_asking_for_too_many_counters_names_the_counters() {
    Layout::new(2).kernel_gcs(GROUP_COUNTERS);
}

#[test]
#[should_panic(expected = "DV memory exhausted")]
fn an_oversized_fft_names_dv_memory() {
    // Two receive regions of 2 words per point: 4·2^21 words per node,
    // twice the whole DV memory.
    fft::dv::run_spec(1 << 22, SimSpec::new(2), false);
}

#[test]
#[should_panic(expected = "4097 nodes exceed the packet header's 12-bit node field")]
fn a_cluster_past_the_header_node_field_is_refused() {
    // Refused before any VIC is built: the header would wrap node 4096 to 0.
    DvWorld::from_spec(&SimSpec::new(MAX_NODES + 1));
}
