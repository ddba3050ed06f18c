//! `LoadSweep` points pinned bit for bit. Every row is one traffic mix —
//! destination pattern × arrival process × fault plan — and every column
//! one network: the Data Vortex switch under each movement kernel
//! (narrow, scalar-wide, batched) and the two rivals at 64 ports. A cell
//! is an FNV-1a digest over every field's bits of the row's points at
//! offered loads 0.05, 0.5 and 0.95. The table was captured before the
//! `LoadSweep` arrival walk and the engines' slab FIFOs were written,
//! so it pins the random draw order, the backlog cap and the fault drops
//! as well as the engines.

use dv_core::fault::FaultPlan;
use dv_core::fnv::Fnv1a;
use dv_switch::traffic::{Arrival, LoadSweep, Pattern, SweepPoint};
use dv_switch::{AnyTopology, TopoKind, Topology};

const LOADS: [f64; 3] = [0.05, 0.5, 0.95];

const BURSTY: Arrival = Arrival::Bursty { mean_burst: 8.0 };

fn nets() -> [AnyTopology; 5] {
    [
        AnyTopology::Vortex(Topology::new(16, 4)),
        AnyTopology::Vortex(Topology::new(32, 4)),
        AnyTopology::Vortex(Topology::new(128, 4)),
        AnyTopology::for_ports(TopoKind::FatTree, 64),
        AnyTopology::for_ports(TopoKind::MinPath, 64),
    ]
}

/// FNV-1a over the little-endian bytes of every field of every point.
fn digest(points: &[SweepPoint]) -> u64 {
    let mut h = Fnv1a::default();
    for p in points {
        let fields = [
            p.offered.to_bits(),
            p.accepted.to_bits(),
            p.latency_mean.to_bits(),
            p.total_latency_mean.to_bits(),
            p.deflections_mean.to_bits(),
            p.delivered,
            p.total_latency_p99_log2 as u64,
        ];
        fields.into_iter().for_each(|f| h.word(f));
    }
    h.finish()
}

fn sweep(net: AnyTopology, pattern: Pattern, arrival: Arrival, drop: bool, cycles: u64) -> u64 {
    let mut s = LoadSweep::for_net(net);
    (s.pattern, s.arrival, s.warmup, s.measure) = (pattern, arrival, cycles / 4, cycles);
    if drop {
        s.faults = Some(FaultPlan { seed: 7, link_drop: 0.05, ..Default::default() });
    }
    digest(&s.sweep_parallel(&LOADS))
}

/// `(pattern, arrival, link drops, digest per network of [`nets`])`.
type Row = (Pattern, Arrival, bool, [u64; 5]);

const ROWS: [Row; 20] = [
    (Pattern::Uniform, Arrival::Bernoulli, false, [0x856449117d10e4a5, 0x5d1b279079313010, 0x6d469121425f0b8d, 0xe860afb4e66e8462, 0x6345548827496217]),
    (Pattern::Uniform, Arrival::Bernoulli, true, [0xa763f31fc66ab825, 0x69765ecd10b283fe, 0x6503ad3e8c66e510, 0x629e05efefc9b307, 0x1b0c46445d83feda]),
    (Pattern::Uniform, BURSTY, false, [0x481b165381667372, 0x307fe414dee46842, 0xe9595093e3a81820, 0x08023bbafa4a0085, 0x9dfe9bbf47240387]),
    (Pattern::Uniform, BURSTY, true, [0x81415c4cba12a843, 0xb84903a2e366ed14, 0x3489871e710419f6, 0xe29733a75afb6996, 0xba454b2fa17d3a02]),
    (Pattern::Hotspot, Arrival::Bernoulli, false, [0x69916c5615eab8d9, 0xc42f85da02d1f389, 0xecadd6d0c0ab2ca5, 0x8d784e2aadef04c3, 0x0e928351acabbddf]),
    (Pattern::Hotspot, Arrival::Bernoulli, true, [0x6a0aec1894397f9f, 0xbf503d64fd680bf4, 0x86b3a16326651c08, 0x1bc47dab48239e60, 0x6dab1a9384ef3c7a]),
    (Pattern::Hotspot, BURSTY, false, [0x1e61cc4156520fd4, 0x2e7aff4a84288da4, 0xc64130652aea2929, 0xd79089570ac9eea0, 0xec1b55a88f2e597d]),
    (Pattern::Hotspot, BURSTY, true, [0x5c6e2dd74b975f60, 0x5c415d226aebe3aa, 0x29298046f47f81b0, 0x479408b48bfe105d, 0x34a6c1e669b56893]),
    (Pattern::Tornado, Arrival::Bernoulli, false, [0x260d5d69d1580a06, 0x6039b377cfac55bb, 0x081aa2f665961c37, 0x16f444078bf7b657, 0xafede5687f5da4a0]),
    (Pattern::Tornado, Arrival::Bernoulli, true, [0x11bdbb18efa5a2f0, 0xc16dac2587c35fc5, 0xffd0773810ab05ef, 0xd8625e69950fc895, 0x42903f6104e4f150]),
    (Pattern::Tornado, BURSTY, false, [0x3fa73c9ecf332df8, 0x4c6f38ca12264cac, 0xa48453d97a26ec76, 0x2252aa578e618dab, 0x231331b18069388d]),
    (Pattern::Tornado, BURSTY, true, [0x72a7bb6e17430d88, 0xee2623b89dc277e9, 0x03820875410dd176, 0xe69adf79ecafc896, 0x86668c2b90d31af9]),
    (Pattern::BitReverse, Arrival::Bernoulli, false, [0x813907c1a0f465b3, 0x8cf1e789e2e001ff, 0x1a73544130b66fd6, 0xd6594f69d0623ffb, 0x7d794fd74f12a9b6]),
    (Pattern::BitReverse, Arrival::Bernoulli, true, [0xef2786984f4db93f, 0x2b9a36ce7ffa2bdc, 0x32c182d8911a8481, 0x82a837082bbb051f, 0x426251db21dd2549]),
    (Pattern::BitReverse, BURSTY, false, [0xbc4083a555f54d85, 0x9e27cdcdd2b133df, 0x6d3530c454a1ef07, 0xb80ae4daedeca2e2, 0x62b87df6518e35c9]),
    (Pattern::BitReverse, BURSTY, true, [0xb673e5cf15abfb98, 0x13b4acd45fbefd2e, 0x6520d4e43cbc8bfd, 0x2efe421ee701b9a7, 0x2a3ca3fdb46fc8ca]),
    (Pattern::Permutation, Arrival::Bernoulli, false, [0x76249e526aaef7b8, 0xf3aca44bfb044462, 0xa796ffca27d0096d, 0x9252aa1271c19930, 0xa24cbcf1fe398509]),
    (Pattern::Permutation, Arrival::Bernoulli, true, [0x76b617e7d7abd059, 0xdfe5637efab0fd5f, 0x53b37ee493efa47e, 0x735e91182fd002f0, 0xe12347113e6aa91f]),
    (Pattern::Permutation, BURSTY, false, [0xa387b3f6d9ab890a, 0x6debabf4a6c70f47, 0x02bca7d97923b680, 0xbc9c311880241710, 0x6bae590875e2751e]),
    (Pattern::Permutation, BURSTY, true, [0x2858c92da1ee90cd, 0x331ac2cd42314532, 0xf4d40e56931d520b, 0x7c7276124fcc2a71, 0x6078d9fd361074c0]),
];

#[test]
fn sweep_points_match_the_pinned_table() {
    let mut actual = String::new();
    let mut moved = false;
    for (pattern, arrival, drop, pinned) in ROWS {
        let got = nets().map(|net| sweep(net, pattern, arrival, drop, 200));
        moved |= got != pinned;
        let cells: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
        let arrival = if arrival == BURSTY { "BURSTY".into() } else { format!("Arrival::{arrival:?}") };
        actual += &format!(
            "    (Pattern::{pattern:?}, {arrival}, {drop}, [{}]),\n",
            cells.join(", ")
        );
    }
    assert!(!moved, "a sweep point moved; actual:\n{actual}");
}

/// Hotspot on the 64-port switch for 1 000 measured cycles, Bernoulli
/// then bursty arrivals: at 0.95 port 0 receives ≈ 7.6 packets per cycle
/// and drains one, so the backlog passes `LoadSweep`'s `ports × 64` cap
/// and later arrivals are turned away there. A counter added to a
/// throwaway copy of `LoadSweep` counted 3 220 / 12 151 capped arrivals
/// at 0.5 / 0.95 with Bernoulli arrivals and 3 211 / 12 161 with bursty
/// ones; none at 0.05, and none in the 200-cycle [`ROWS`]. Pins that a
/// port that fires but is capped takes no destination draw.
const CAPPED: [u64; 2] = [0x7ea7a4cfb66ef080, 0x1f106aa2782c274a];

#[test]
fn hotspot_sweeps_past_the_backlog_cap_match_their_pins() {
    let got = [Arrival::Bernoulli, BURSTY].map(|arrival| {
        let net = AnyTopology::Vortex(Topology::new(16, 4));
        sweep(net, Pattern::Hotspot, arrival, false, 1_000)
    });
    assert_eq!(got, CAPPED, "actual: [{:#018x}, {:#018x}]", got[0], got[1]);
}
