//! Pluggable rival network topologies.
//!
//! The paper's Section IX conjecture (throughput per node holds as the
//! switch grows; only latency rises) is only interesting *relative to the
//! alternatives* a procurement would actually weigh. This module makes
//! "the network" a first-class trait so the same load sweeps, benchmark
//! bins, and analytic model can be pointed at:
//!
//! * [`Topology`] — the Data Vortex cylinder graph itself (the trait is
//!   implemented directly on the existing type);
//! * [`FatTree`] — a k-ary fat tree (three-tier Clos), the canonical
//!   cluster fabric the paper's Infiniband baseline runs on;
//! * [`MinPathGraph`] — a seeded random-regular graph in the spirit of
//!   Deng et al., "Optimal Low-Latency Network Topologies for Cluster
//!   Performance Enhancement" (PAPERS.md): among d-regular graphs,
//!   randomized constructions sit close to the Moore bound on mean path
//!   length, beating both fat trees and tori.
//!
//! [`AnyTopology`] is the closed enum the sweep driver and bench bins
//! thread around (static dispatch, `Clone + Send + Sync`), and
//! [`RoutedNetSim`] is a deterministic store-and-forward cycle simulator
//! for the rival graphs, behind the same [`CycleEngine`] surface as the
//! Data Vortex [`crate::cycle::SwitchSim`] so `LoadSweep` treats the two
//! engines uniformly.
//!
//! ## Determinism rules (seeded random-regular graph)
//!
//! `MinPathGraph` must produce byte-identical sweeps across runs and
//! machines, so its construction is fully deterministic: a fixed-offset
//! circulant base graph is randomized by a fixed number of double-edge
//! swaps drawn from a [`SplitMix64`] stream seeded with
//! [`MIN_PATH_SEED`] (swaps that would create self-loops or parallel
//! edges are skipped, not redrawn differently per platform), and the
//! result is rejected-and-reswapped in bounded rounds until connected.
//! Routing state (BFS distance tables, sorted adjacency) is derived
//! purely from that edge set; tie-breaks always pick the lowest node id.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

use dv_core::metrics::MetricsRegistry;
use dv_core::rng::SplitMix64;

use crate::cycle::Delivered;
use crate::engine::{CycleEngine, Ingress, Names, Tally};
use crate::topology::Topology;

/// Seed for the [`MinPathGraph`] edge-swap stream. Fixed so every build
/// of a given port count is the same graph everywhere.
pub const MIN_PATH_SEED: u64 = 0xD0_5EED_0009;

/// Per-node queue bound (packets, summed over the node's outputs) in
/// [`RoutedNetSim`]: models finite switch buffers and provides the
/// backpressure that keeps hotspot sweeps lossless-but-serialized, like
/// the Data Vortex injection FIFOs.
pub(crate) const NODE_QUEUE_CAP: usize = 64;

/// A network seen as a routed graph: ports attach to nodes, packets move
/// one link per cycle along deterministic routes.
///
/// Implementations must be fully deterministic: the same construction
/// parameters yield the same graph and the same routes on every platform
/// (sweeps are `cmp`-checked byte-identical in CI).
pub trait NetworkTopology {
    /// Number of attachable end-point ports.
    fn ports(&self) -> usize;
    /// Number of switching nodes (graph vertices).
    fn node_count(&self) -> usize;
    /// Node a packet from `port` enters the network at.
    fn inject_node(&self, port: usize) -> usize;
    /// Node a packet bound for `port` leaves the network from.
    fn eject_node(&self, port: usize) -> usize;
    /// The deterministic contention-free next hop from `node` toward
    /// `dst_port`. Returns `node` itself once the packet is at
    /// [`NetworkTopology::eject_node`]`(dst_port)`.
    fn route_one_hop(&self, node: usize, dst_port: usize) -> usize;
    /// Link traversals of the contention-free route `src_port` →
    /// `dst_port`.
    fn min_hops(&self, src_port: usize, dst_port: usize) -> usize;

    /// Exact mean and maximum contention-free path length over all
    /// ordered port pairs (the Deng et al. figure of merit). O(ports²)
    /// `min_hops` calls; every implementation's `min_hops` is cheap.
    fn path_stats(&self) -> (f64, usize) {
        let p = self.ports();
        let mut total = 0u64;
        let mut max = 0usize;
        for s in 0..p {
            for d in 0..p {
                let h = self.min_hops(s, d);
                total += h as u64;
                max = max.max(h);
            }
        }
        (total as f64 / (p * p) as f64, max)
    }
}

impl NetworkTopology for Topology {
    fn ports(&self) -> usize {
        Topology::ports(self)
    }

    fn node_count(&self) -> usize {
        self.nodes()
    }

    /// Injection lands in the outermost cylinder at the port's fixed
    /// `(h, a)`; node ids are `c * ports + a * H + h`.
    fn inject_node(&self, port: usize) -> usize {
        debug_assert!(port < Topology::ports(self));
        port
    }

    /// Ejection leaves from the innermost cylinder at the port's `(h, a)`.
    fn eject_node(&self, port: usize) -> usize {
        (self.cylinders() - 1) * Topology::ports(self) + port
    }

    fn route_one_hop(&self, node: usize, dst_port: usize) -> usize {
        let ports = Topology::ports(self);
        let c = node / ports;
        let cell = node % ports;
        let h = cell % self.height;
        let a = cell / self.height;
        let (dst_h, dst_a) = self.port_position(dst_port);
        let a1 = if a + 1 == self.angles { 0 } else { a + 1 };
        if c + 1 < self.cylinders() {
            if self.bit_matches(c, h, dst_h) {
                (c + 1) * ports + self.position_port(h, a1)
            } else {
                c * ports + self.position_port(self.deflect_height(c, h), a1)
            }
        } else if a == dst_a {
            node // arrived: the innermost height always equals dst_h here
        } else {
            c * ports + self.position_port(h, a1)
        }
    }

    fn min_hops(&self, src_port: usize, dst_port: usize) -> usize {
        Topology::min_hops(self, src_port, dst_port)
    }
}

/// A k-ary fat tree (three-tier Clos): `k` pods of `k/2` edge and `k/2`
/// aggregation switches plus `(k/2)²` cores, hosting up to `k³/4` ports
/// (`k/2` per edge switch). Routes are deterministic ECMP: the core for
/// a cross-pod flow is picked by the destination index, so a (src, dst)
/// pair always takes the same path.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Switch radix (even, ≥ 2).
    k: usize,
    /// Attached ports (≤ k³/4; ports fill edge switches in index order).
    ports: usize,
    routes: Routes,
}

impl FatTree {
    /// The smallest k-ary fat tree with at least `ports` host ports.
    pub fn for_ports(ports: usize) -> Self {
        assert!(ports >= 1, "a fat tree needs at least one port");
        let mut k = 2;
        while k * k * k / 4 < ports {
            k += 2;
        }
        Self { k, ports, routes: Routes::default() }
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.k
    }

    fn half(&self) -> usize {
        self.k / 2
    }

    /// Edge switches (also aggregation switches) in total.
    fn edges_total(&self) -> usize {
        self.k * self.half()
    }

    fn edge_of(&self, port: usize) -> usize {
        debug_assert!(port < self.ports);
        port / self.half()
    }
}

impl NetworkTopology for FatTree {
    fn ports(&self) -> usize {
        self.ports
    }

    fn node_count(&self) -> usize {
        2 * self.edges_total() + self.half() * self.half()
    }

    fn inject_node(&self, port: usize) -> usize {
        self.edge_of(port)
    }

    fn eject_node(&self, port: usize) -> usize {
        self.edge_of(port)
    }

    fn route_one_hop(&self, node: usize, dst_port: usize) -> usize {
        let half = self.half();
        let et = self.edges_total();
        let de = self.edge_of(dst_port);
        let dpod = de / half;
        if node < et {
            // Edge switch: up toward an aggregation switch (same pod) or
            // commit to the destination-chosen core's aggregation column.
            let pod = node / half;
            if node == de {
                node
            } else if pod == dpod {
                et + pod * half + dst_port % half
            } else {
                let core = dst_port % (half * half);
                et + pod * half + core / half
            }
        } else if node < 2 * et {
            // Aggregation switch: down to the edge if already in the
            // destination pod, else up to this column's ECMP core.
            let pod = (node - et) / half;
            let column = (node - et) % half;
            if pod == dpod {
                de
            } else {
                2 * et + column * half + dst_port % half
            }
        } else {
            // Core: down into the destination pod's matching column.
            let core = node - 2 * et;
            et + dpod * half + core / half
        }
    }

    fn min_hops(&self, src_port: usize, dst_port: usize) -> usize {
        let se = self.edge_of(src_port);
        let de = self.edge_of(dst_port);
        let half = self.half();
        if se == de {
            0
        } else if se / half == de / half {
            2
        } else {
            4
        }
    }
}

/// A seeded random-regular graph tuned for minimal mean path length
/// (Deng et al., PAPERS.md): `switches` d-regular vertices with `conc`
/// ports concentrated on each, built deterministically as a circulant
/// base graph randomized by double-edge swaps (see the module docs for
/// the determinism rules). Routing is shortest-path by precomputed BFS
/// distance tables, tie-broken toward the lowest neighbor id.
#[derive(Debug, Clone)]
pub struct MinPathGraph {
    switches: usize,
    degree: usize,
    conc: usize,
    ports: usize,
    /// Sorted neighbor lists, `switches × degree`.
    adj: Vec<u32>,
    /// All-pairs BFS distances, `switches × switches`.
    dist: Vec<u16>,
    routes: Routes,
}

impl MinPathGraph {
    /// Port concentration per switch (hosts per router, Deng et al. use
    /// small fixed concentrations).
    pub const CONCENTRATION: usize = 4;

    /// A graph with at least `ports` attachable ports at the default
    /// concentration and a radix-8 router budget.
    pub fn for_ports(ports: usize) -> Self {
        assert!(ports >= 1, "a min-path graph needs at least one port");
        let mut switches = ports.div_ceil(Self::CONCENTRATION).max(2);
        if switches % 2 == 1 {
            switches += 1; // an odd vertex count cannot be odd-regular
        }
        let degree = 8.min(switches - 1);
        Self::new(switches, degree, Self::CONCENTRATION, ports)
    }

    /// Build the seeded graph. `switches × degree` must be even and
    /// `degree < switches`.
    pub fn new(switches: usize, degree: usize, conc: usize, ports: usize) -> Self {
        assert!(degree >= 1 && degree < switches, "degree must be in 1..switches");
        assert!((switches * degree).is_multiple_of(2), "sum of degrees must be even");
        assert!(ports <= switches * conc, "ports exceed the graph's concentration");
        let mut edges = circulant_edges(switches, degree);
        let mut rng = SplitMix64::new(MIN_PATH_SEED);
        // Randomize: double-edge swaps preserve every vertex degree while
        // driving the graph toward the random-regular ensemble Deng et
        // al. show sits near the Moore bound. Bounded extra rounds
        // restore connectivity in the (rare) event a swap cut the graph.
        for round in 0..50 {
            double_edge_swaps(&mut edges, &mut rng, 10 * switches * degree);
            if is_connected(switches, &edges) {
                break;
            }
            assert!(round < 49, "min-path graph failed to connect after bounded reswaps");
        }
        let adj = sorted_adjacency(switches, degree, &edges);
        let dist = bfs_all_pairs(switches, degree, &adj);
        Self { switches, degree, conc, ports, adj, dist, routes: Routes::default() }
    }

    /// Router degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    fn switch_of(&self, port: usize) -> usize {
        debug_assert!(port < self.ports);
        port / self.conc
    }

    fn dist_between(&self, a: usize, b: usize) -> usize {
        self.dist[a * self.switches + b] as usize
    }
}

impl NetworkTopology for MinPathGraph {
    fn ports(&self) -> usize {
        self.ports
    }

    fn node_count(&self) -> usize {
        self.switches
    }

    fn inject_node(&self, port: usize) -> usize {
        self.switch_of(port)
    }

    fn eject_node(&self, port: usize) -> usize {
        self.switch_of(port)
    }

    fn route_one_hop(&self, node: usize, dst_port: usize) -> usize {
        let target = self.switch_of(dst_port);
        if node == target {
            return node;
        }
        // Greedy shortest-path step: the sorted neighbor list makes the
        // lowest-id minimizer the deterministic choice.
        let mut best = node;
        let mut best_d = usize::MAX;
        for &nb in &self.adj[node * self.degree..(node + 1) * self.degree] {
            let d = self.dist_between(nb as usize, target);
            if d < best_d {
                best_d = d;
                best = nb as usize;
            }
        }
        best
    }

    fn min_hops(&self, src_port: usize, dst_port: usize) -> usize {
        self.dist_between(self.switch_of(src_port), self.switch_of(dst_port))
    }

    /// Reads the precomputed BFS distance table directly: ports
    /// concentrate on switches `0..⌈ports/conc⌉` (the last used switch
    /// may hold fewer than `conc`), so summing `dist × (ports on a) ×
    /// (ports on b)` over used switch pairs reproduces the default
    /// ordered-port-pair sum with O(switches²) table reads instead of
    /// O(ports²) virtual `min_hops` calls.
    fn path_stats(&self) -> (f64, usize) {
        let p = self.ports;
        let used = p.div_ceil(self.conc);
        let mut total = 0u64;
        let mut max = 0usize;
        for a in 0..used {
            let ca = (p - a * self.conc).min(self.conc) as u64;
            for b in 0..used {
                let cb = (p - b * self.conc).min(self.conc) as u64;
                let d = self.dist[a * self.switches + b] as usize;
                total += d as u64 * ca * cb;
                max = max.max(d);
            }
        }
        (total as f64 / (p * p) as f64, max)
    }
}

/// Circulant base graph on `n` vertices: offsets `1..=d/2` (each worth
/// two edges per vertex) plus the `n/2` diameter chord when `d` is odd.
/// Connected by construction (offset 1 is a Hamiltonian cycle; `d == 1`
/// degenerates to the perfect matching `i ↔ i + n/2`).
fn circulant_edges(n: usize, d: usize) -> Vec<(u32, u32)> {
    let id = |v: usize| u32::try_from(v).expect("vertex ids are u32");
    let mut edges = Vec::with_capacity(n * d / 2);
    for off in 1..=d / 2 {
        for i in 0..n {
            edges.push((id(i), id((i + off) % n)));
        }
    }
    if d % 2 == 1 {
        for i in 0..n / 2 {
            edges.push((id(i), id(i + n / 2)));
        }
    }
    edges
}

/// Degree-preserving randomization: pick two edges, re-pair their
/// endpoints, skip the swap if it would create a self-loop or a parallel
/// edge. Membership is tracked in a sorted edge set for O(log m) checks.
fn double_edge_swaps(edges: &mut [(u32, u32)], rng: &mut SplitMix64, swaps: usize) {
    let norm = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
    let mut present: std::collections::BTreeSet<(u32, u32)> =
        edges.iter().map(|&(a, b)| norm(a, b)).collect();
    let m = edges.len();
    for _ in 0..swaps {
        #[expect(clippy::cast_possible_truncation, reason = "next_below(m) < m, a usize")]
        let (i, j) = (rng.next_below(m as u64) as usize, rng.next_below(m as u64) as usize);
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (mut c, mut d) = edges[j];
        if rng.next_below(2) == 1 {
            std::mem::swap(&mut c, &mut d);
        }
        // Candidate re-pairing: (a, d) and (c, b).
        if a == d || c == b {
            continue;
        }
        let (e1, e2) = (norm(a, d), norm(c, b));
        if e1 == e2 || present.contains(&e1) || present.contains(&e2) {
            continue;
        }
        present.remove(&norm(a, b));
        present.remove(&norm(c, d));
        present.insert(e1);
        present.insert(e2);
        edges[i] = (a, d);
        edges[j] = (c, b);
    }
}

fn is_connected(n: usize, edges: &[(u32, u32)]) -> bool {
    let mut nbrs = vec![Vec::new(); n];
    for &(a, b) in edges {
        nbrs[a as usize].push(b as usize);
        nbrs[b as usize].push(a as usize);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = stack.pop() {
        for &w in &nbrs[v] {
            if !seen[w] {
                seen[w] = true;
                count += 1;
                stack.push(w);
            }
        }
    }
    count == n
}

/// Flatten the edge list into per-vertex sorted neighbor arrays.
fn sorted_adjacency(n: usize, d: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut lists = vec![Vec::with_capacity(d); n];
    for &(a, b) in edges {
        lists[a as usize].push(b);
        lists[b as usize].push(a);
    }
    let mut flat = Vec::with_capacity(n * d);
    for mut list in lists {
        debug_assert_eq!(list.len(), d, "edge swaps must preserve regularity");
        list.sort_unstable();
        flat.extend_from_slice(&list);
    }
    flat
}

fn bfs_all_pairs(n: usize, d: usize, adj: &[u32]) -> Vec<u16> {
    let mut dist = vec![u16::MAX; n * n];
    let mut queue = VecDeque::with_capacity(n);
    for src in 0..n {
        let row = &mut dist[src * n..(src + 1) * n];
        row[src] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            let dv = row[v];
            for &nb in &adj[v * d..(v + 1) * d] {
                let nb = nb as usize;
                if row[nb] == u16::MAX {
                    row[nb] = dv + 1;
                    queue.push_back(nb);
                }
            }
        }
        debug_assert!(row.iter().all(|&x| x != u16::MAX), "graph must be connected");
    }
    dist
}

/// Which rival topology to build — the flag vocabulary of the bench bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// The Data Vortex cylinder graph.
    Vortex,
    /// k-ary fat tree.
    FatTree,
    /// Seeded minimal-mean-path-length random-regular graph.
    MinPath,
}

impl TopoKind {
    /// All kinds, Data Vortex first (sweep harness order).
    pub const ALL: [TopoKind; 3] = [TopoKind::Vortex, TopoKind::FatTree, TopoKind::MinPath];

    /// Parse a `--topo` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dv" | "vortex" => Some(TopoKind::Vortex),
            "fattree" | "fat-tree" => Some(TopoKind::FatTree),
            "minpath" | "min-path" => Some(TopoKind::MinPath),
            _ => None,
        }
    }

    /// The stable flag/label spelling.
    pub fn name(self) -> &'static str {
        match self {
            TopoKind::Vortex => "dv",
            TopoKind::FatTree => "fattree",
            TopoKind::MinPath => "minpath",
        }
    }
}

/// A closed sum over the supported topologies: what [`LoadSweep`] and the
/// bench bins actually carry (static dispatch, cheap to clone, `Send`).
///
/// [`LoadSweep`]: crate::traffic::LoadSweep
#[derive(Debug, Clone)]
pub enum AnyTopology {
    /// Data Vortex cylinders (simulated by the cycle-accurate
    /// [`crate::cycle::SwitchSim`]).
    Vortex(Topology),
    /// k-ary fat tree (simulated by [`RoutedNetSim`]).
    FatTree(FatTree),
    /// Min-path random-regular graph (simulated by [`RoutedNetSim`]).
    MinPath(MinPathGraph),
}

impl AnyTopology {
    /// Build `kind` with at least `ports` ports. The Data Vortex build is
    /// exact-or-panic ([`Topology::for_ports`] at 4 angles); the rivals
    /// round their switch counts up and attach exactly `ports` ports.
    pub fn for_ports(kind: TopoKind, ports: usize) -> Self {
        match kind {
            TopoKind::Vortex => AnyTopology::Vortex(Topology::for_ports(ports, 4)),
            TopoKind::FatTree => AnyTopology::FatTree(FatTree::for_ports(ports)),
            TopoKind::MinPath => AnyTopology::MinPath(MinPathGraph::for_ports(ports)),
        }
    }

    /// Which kind this is.
    pub fn kind(&self) -> TopoKind {
        match self {
            AnyTopology::Vortex(_) => TopoKind::Vortex,
            AnyTopology::FatTree(_) => TopoKind::FatTree,
            AnyTopology::MinPath(_) => TopoKind::MinPath,
        }
    }
}

impl NetworkTopology for AnyTopology {
    fn ports(&self) -> usize {
        match self {
            AnyTopology::Vortex(t) => NetworkTopology::ports(t),
            AnyTopology::FatTree(t) => t.ports(),
            AnyTopology::MinPath(t) => t.ports(),
        }
    }

    fn node_count(&self) -> usize {
        match self {
            AnyTopology::Vortex(t) => t.node_count(),
            AnyTopology::FatTree(t) => t.node_count(),
            AnyTopology::MinPath(t) => t.node_count(),
        }
    }

    fn inject_node(&self, port: usize) -> usize {
        match self {
            AnyTopology::Vortex(t) => t.inject_node(port),
            AnyTopology::FatTree(t) => t.inject_node(port),
            AnyTopology::MinPath(t) => t.inject_node(port),
        }
    }

    fn eject_node(&self, port: usize) -> usize {
        match self {
            AnyTopology::Vortex(t) => t.eject_node(port),
            AnyTopology::FatTree(t) => t.eject_node(port),
            AnyTopology::MinPath(t) => t.eject_node(port),
        }
    }

    fn route_one_hop(&self, node: usize, dst_port: usize) -> usize {
        match self {
            AnyTopology::Vortex(t) => t.route_one_hop(node, dst_port),
            AnyTopology::FatTree(t) => t.route_one_hop(node, dst_port),
            AnyTopology::MinPath(t) => t.route_one_hop(node, dst_port),
        }
    }

    fn min_hops(&self, src_port: usize, dst_port: usize) -> usize {
        match self {
            AnyTopology::Vortex(t) => Topology::min_hops(t, src_port, dst_port),
            AnyTopology::FatTree(t) => t.min_hops(src_port, dst_port),
            AnyTopology::MinPath(t) => t.min_hops(src_port, dst_port),
        }
    }
}

/// Routing state of one graph — everything [`RoutedNetSim`] reads and
/// never writes — built by [`RouteTable::build`] with one
/// [`NetworkTopology::route_one_hop`] call per `(node, dst_port)` pair.
/// [`FatTree`] and [`MinPathGraph`] keep theirs in a [`Routes`] cell that
/// every clone of the value shares: the first `RoutedNetSim::new` on a
/// graph builds it, every later one (each `LoadSweep` point, serial or
/// on a `sweep_parallel` thread) reuses it.
struct RouteTable {
    /// Next hop per `(node, destination column)` as an index into the
    /// node's `adj` row, flat `node_count × lut_cols`. One byte per
    /// entry keeps the table L2-resident at sweep sizes (the resolved
    /// node id would be 4× larger). The value at an eject node resolves
    /// to the node itself and is never read ([`RouteTable::output`]
    /// consults `eject_at` first, like the reference).
    next_idx: Vec<u8>,
    /// Distinct next-hop nodes per node (first-seen palette), flat
    /// `node_count × max_deg` rows resolved by `next_idx`.
    adj: Vec<u32>,
    /// Row stride of `adj`: the maximum routing out-degree.
    max_deg: usize,
    /// Columns in `next_idx` — destination ports with identical
    /// next-hop columns are deduplicated (see `lut_col`), so this is
    /// `<= ports`.
    lut_cols: usize,
    /// Destination port → `next_idx` column.
    lut_col: Vec<u32>,
    /// Entry node per port ([`NetworkTopology::inject_node`], cached).
    inject_at: Vec<u32>,
    /// Exit node per port ([`NetworkTopology::eject_node`], cached).
    eject_at: Vec<u32>,
    /// Output a packet for each port takes at its exit node: a node's
    /// local eject ports are outputs `max_deg..outs`, in port order.
    eject_out: Vec<u32>,
    /// Outputs per node: the `max_deg` palette entries (one per distinct
    /// next hop) plus the most local eject ports any node has.
    outs: usize,
}

/// A graph's lazily built, shared [`RouteTable`].
type Routes = Arc<OnceLock<RouteTable>>;

impl fmt::Debug for RouteTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteTable").field("lut_cols", &self.lut_cols).finish_non_exhaustive()
    }
}

impl RouteTable {
    /// The table for `net`, statically dispatched on the concrete graph.
    fn build(net: &impl NetworkTopology) -> Self {
        let ports = net.ports();
        let nodes = net.node_count();
        let inject_at: Vec<u32> = (0..ports)
            .map(|p| u32::try_from(net.inject_node(p)).expect("node index fits in u32"))
            .collect();
        let eject_at: Vec<u32> = (0..ports)
            .map(|p| u32::try_from(net.eject_node(p)).expect("node index fits in u32"))
            .collect();
        // Build one next-hop column per destination port, then share
        // columns that came out identical: routing on the min-path graph
        // depends only on the destination switch, so its table collapses
        // by the concentration factor and stays cache-resident where the
        // full `node_count × ports` table would thrash.
        let mut lut_col = Vec::with_capacity(ports);
        let mut interned: BTreeMap<Vec<u32>, u32> = BTreeMap::new();
        for (dst, &out) in eject_at.iter().enumerate() {
            let column: Vec<u32> = (0..nodes)
                .map(|node| {
                    // The value at the eject node itself is a sentinel
                    // (never read): `route_one_hop` contractually returns
                    // `node` there, but some graphs leave it undefined on
                    // unreachable arrival states, so it is not consulted.
                    let hop =
                        if node == out as usize { node } else { net.route_one_hop(node, dst) };
                    u32::try_from(hop).expect("node index fits in u32")
                })
                .collect();
            let next = u32::try_from(interned.len()).expect("column count fits in u32");
            lut_col.push(*interned.entry(column).or_insert(next));
        }
        let lut_cols = interned.len();
        // Lay out row-major (`node * lut_cols + col`) so one node's
        // columns share cache lines, and palette each node's next hops
        // down to one byte per column (the out-degree is small on every
        // supported graph). The interner is a BTreeMap so palette layout
        // is deterministic across processes, not just the resolved ids.
        let mut palette: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        let mut next_idx = vec![0u8; nodes * lut_cols];
        for (column, &col) in &interned {
            for (node, &hop) in column.iter().enumerate() {
                let row = &mut palette[node];
                let idx = row.iter().position(|&h| h == hop).unwrap_or_else(|| {
                    row.push(hop);
                    row.len() - 1
                });
                next_idx[node * lut_cols + col as usize] =
                    u8::try_from(idx).expect("routing out-degree fits in u8");
            }
        }
        let max_deg = palette.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut adj = vec![0u32; nodes * max_deg];
        for (node, row) in palette.iter().enumerate() {
            adj[node * max_deg..node * max_deg + row.len()].copy_from_slice(row);
        }
        let mut local = vec![0usize; nodes];
        let eject_out = eject_at
            .iter()
            .map(|&node| {
                local[node as usize] += 1;
                u32::try_from(max_deg + local[node as usize] - 1).expect("output fits in u32")
            })
            .collect();
        let outs = max_deg + local.into_iter().max().unwrap_or(0);
        Self { next_idx, adj, max_deg, lut_cols, lut_col, inject_at, eject_at, eject_out, outs }
    }

    /// `net`'s table from its shared cell, built there on first use.
    fn shared(routes: &Routes, net: &impl NetworkTopology) -> Routes {
        routes.get_or_init(|| Self::build(net));
        Arc::clone(routes)
    }

    /// The output a packet bound for `dst` queues on at `node`.
    #[inline]
    fn output(&self, node: usize, dst: usize) -> usize {
        if self.eject_at[dst] as usize == node {
            self.eject_out[dst] as usize
        } else {
            usize::from(self.next_idx[node * self.lut_cols + self.lut_col[dst] as usize])
        }
    }
}

/// The body of an in-flight packet: one arena slot, written at injection
/// and read at ejection. What a hop touches lives in the slot's [`Hop`].
#[derive(Debug, Clone, Copy)]
struct RoutedPkt {
    src_port: u32,
    tag: u64,
    enqueue_cycle: u64,
    inject_cycle: u64,
}

/// The per-hop half of an arena slot (16 bytes): its place in an output
/// FIFO and what routing and ejection read.
#[derive(Debug, Clone, Copy, Default)]
struct Hop {
    /// Arrival number at the current node, from a `u64` counter that
    /// never wraps: orders a node's arrivals and marks this cycle's.
    stamp: u64,
    /// Next slot in the same output FIFO.
    next: u32,
    dst_port: u16,
    hops: u16,
}

/// One FIFO per node output, linked through the arena's [`Hop`]s.
struct Queues {
    /// Per-hop state per arena slot.
    hop: Vec<Hop>,
    /// Oldest and newest slot per `(node, output)`, flat `node_count ×
    /// outs`; meaningful while the output's `busy` bit is set.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Non-empty outputs, `words` u64s per node.
    busy: Vec<u64>,
    /// Packets per node, all outputs together ([`NODE_QUEUE_CAP`] bound).
    len: Vec<u32>,
    outs: usize,
    words: usize,
    /// The next arrival's stamp.
    stamp: u64,
}

impl Queues {
    fn new(nodes: usize, outs: usize) -> Self {
        let words = outs.div_ceil(64);
        Self {
            hop: Vec::new(),
            head: vec![0; nodes * outs],
            tail: vec![0; nodes * outs],
            busy: vec![0; nodes * words],
            len: vec![0; nodes],
            outs,
            words,
            stamp: 0,
        }
    }

    /// Append `slot` to output `o` of `node` as the node's newest arrival.
    fn push(&mut self, node: usize, o: usize, slot: u32) {
        self.hop[slot as usize].stamp = self.stamp;
        self.stamp += 1;
        let q = node * self.outs + o;
        let (word, bit) = (&mut self.busy[node * self.words + (o >> 6)], 1 << (o & 63));
        if *word & bit == 0 {
            *word |= bit;
            self.head[q] = slot;
        } else {
            self.hop[self.tail[q] as usize].next = slot;
        }
        self.tail[q] = slot;
        self.len[node] += 1;
    }

    /// Remove the head of output `o` of `node` (which must hold one).
    fn pop(&mut self, node: usize, o: usize) -> u32 {
        let q = node * self.outs + o;
        let slot = self.head[q];
        if slot == self.tail[q] {
            self.busy[node * self.words + (o >> 6)] &= !(1 << (o & 63));
        } else {
            self.head[q] = self.hop[slot as usize].next;
        }
        self.len[node] -= 1;
        slot
    }
}

/// Deterministic store-and-forward cycle simulator for the rival graphs.
///
/// Semantics, chosen to mirror the Data Vortex simulator's accounting so
/// a [`crate::traffic::LoadSweep`] point is comparable across engines:
///
/// * Every packet moves at most one link per cycle along the
///   deterministic [`NetworkTopology::route_one_hop`] route.
/// * Each node forwards from its FIFO in order; at most one packet per
///   outgoing link per cycle; a full receiver queue
///   (`NODE_QUEUE_CAP`) blocks the packet in place (backpressure, no
///   loss).
/// * Each output port ejects at most one packet per cycle.
/// * Injection (after movement, one packet per port per cycle) enters
///   the port's [`NetworkTopology::inject_node`] queue if there is room.
///
/// Nodes are processed in ascending id order and queues front-to-back,
/// so the [`Delivered`] stream is deterministic; `hops` counts link
/// traversals and `deflections` is always 0 (buffered fabrics queue
/// instead of deflecting).
///
/// ## Hot-path layout
///
/// `step_into` delivers bit for bit what the pre-rebuild reference engine
/// (a per-node `VecDeque` scanned in node order) delivered, as the digests
/// pinned in `crates/switch/tests/equivalence.rs` assert:
///
/// * **Shared route table.** A hop is one byte load from a
///   column-deduplicated next-hop LUT (`RouteTable`), built once
///   per graph and shared by every simulator on it.
/// * **One FIFO per output.** A node's queue is split by output — one
///   per palette entry (distinct next hop), one per local eject port —
///   linked through a free-listed packet arena, and a bitmap marks the
///   non-empty ones; an arrival queues on the output its destination
///   resolves to there. The node keeps its total, the
///   `NODE_QUEUE_CAP` bound. A cycle visits only the outputs that hold
///   packets: a next-hop output forwards its head if the head did not
///   arrive this cycle and the receiver has room; an eject output ejects
///   its head. Exact, not an approximation: the reference's FIFO order
///   *is* arrival order (blocked entries go back to the front in order,
///   arrivals append), and within one node's scan an output only becomes
///   blocked by that node's own push — so its "first eligible entry per
///   output" is the head of that output's queue, and its ejections leave
///   in arrival order, which per-packet arrival stamps restore.
/// * **Bitmap worklists.** `active` keeps one bit per node holding
///   packets; the scan iterates set bits LSB-first (== the reference's
///   ascending-id order). The steady-state loop never allocates
///   (`tests/switch_alloc.rs`).
pub struct RoutedNetSim {
    net: AnyTopology,
    routes: Routes,
    /// Packet bodies (see [`RoutedPkt`]); `queues.hop` is the other half.
    slots: Vec<RoutedPkt>,
    /// Free slot handles, LIFO.
    free: Vec<u32>,
    queues: Queues,
    /// One bit per node with packets queued.
    active: Vec<u64>,
    /// Per-step snapshot of `active` (the worklist actually scanned).
    scan: Vec<u64>,
    /// Per-port injection FIFOs and the pending-port bitmap the injection
    /// scan walks.
    ingress: Ingress,
    /// Scratch: `(stamp, output)` of the scanned node's ejecting heads.
    ejects: Vec<(u64, usize)>,
    tally: Tally,
}

const NAMES: Names =
    ["rival.cycle.cycles", "rival.cycle.injected", "rival.cycle.ejected", "rival.cycle.hops"];

impl RoutedNetSim {
    /// An empty simulator for `net`. The route table is the graph's shared
    /// one, built here on first use (a Data Vortex graph has no cell and
    /// builds its own). At most 2^16 ports: a queued packet holds
    /// `dst_port` in 16 bits.
    pub fn new(net: AnyTopology) -> Self {
        let ingress = Ingress::new(net.ports());
        let routes = match &net {
            AnyTopology::Vortex(t) => Arc::new(OnceLock::from(RouteTable::build(t))),
            AnyTopology::FatTree(t) => RouteTable::shared(&t.routes, t),
            AnyTopology::MinPath(t) => RouteTable::shared(&t.routes, t),
        };
        let outs = routes.get().expect("built above").outs;
        let nodes = net.node_count();
        Self {
            routes,
            slots: Vec::new(),
            free: Vec::new(),
            queues: Queues::new(nodes, outs),
            active: vec![0; nodes.div_ceil(64)],
            scan: vec![0; nodes.div_ceil(64)],
            ingress,
            ejects: Vec::new(),
            tally: Tally::new(&NAMES),
            net,
        }
    }

    /// The network being simulated.
    pub fn net(&self) -> &AnyTopology {
        &self.net
    }
}

impl CycleEngine for RoutedNetSim {
    fn cycle(&self) -> u64 {
        self.tally.cycle
    }

    fn outstanding(&self) -> usize {
        self.ingress.queued() + self.tally.in_flight
    }

    fn injected(&self) -> u64 {
        self.tally.injected
    }

    fn ejected(&self) -> u64 {
        self.tally.ejected
    }

    fn enqueue(&mut self, src_port: usize, dst_port: usize, tag: u64) {
        self.ingress.push(src_port, dst_port, tag, self.tally.cycle);
    }

    /// Bit-identical to the pre-rebuild reference's `step_into` (see
    /// [`RoutedNetSim`]'s exactness argument): set bits are visited
    /// LSB-first, which is the reference's ascending node order, and the
    /// worklist is a snapshot of `active` taken at cycle start — a node
    /// that first becomes active mid-scan holds only packets that arrived
    /// this cycle, which the reference scan immediately breaks on.
    fn step_into(&mut self, out: &mut Vec<Delivered>) {
        let cycle = self.tally.cycle;
        let Self { routes, slots, free, queues: qs, active, scan, ingress, ejects, tally, .. } =
            self;
        let rt = routes.get().expect("RoutedNetSim::new builds the route table");
        // Every stamp from here on is an arrival of this cycle.
        let fresh = qs.stamp;
        scan.copy_from_slice(active);
        for (word_idx, word) in scan.iter_mut().enumerate() {
            while *word != 0 {
                let node = (word_idx << 6) | word.trailing_zeros() as usize;
                *word &= *word - 1;
                for w in 0..qs.words {
                    let mut bits = qs.busy[node * qs.words + w];
                    while bits != 0 {
                        let o = (w << 6) | bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let slot = qs.head[node * qs.outs + o];
                        let stamp = qs.hop[slot as usize].stamp;
                        if stamp >= fresh {
                            continue; // arrived this cycle, as did all behind it
                        }
                        if o >= rt.max_deg {
                            ejects.push((stamp, o));
                            continue;
                        }
                        let nxt = rt.adj[node * rt.max_deg + o] as usize;
                        debug_assert_ne!(nxt, node, "route must progress until the eject node");
                        if qs.len[nxt] as usize >= NODE_QUEUE_CAP {
                            continue; // receiver full
                        }
                        qs.pop(node, o);
                        let hop = &mut qs.hop[slot as usize];
                        debug_assert_ne!(hop.hops, u16::MAX, "hop count fits in 16 bits");
                        hop.hops += 1;
                        let next_out = rt.output(nxt, usize::from(hop.dst_port));
                        qs.push(nxt, next_out, slot);
                        active[nxt >> 6] |= 1 << (nxt & 63);
                    }
                }
                // The reference ejects in its one FIFO's order.
                ejects.sort_unstable();
                for &(_, o) in ejects.iter() {
                    let slot = qs.pop(node, o);
                    let (hop, pkt) = (qs.hop[slot as usize], &slots[slot as usize]);
                    tally.ejected += 1;
                    tally.in_flight -= 1;
                    tally.hop_hist.push(u64::from(hop.hops));
                    out.push(Delivered {
                        src_port: pkt.src_port as usize,
                        dst_port: usize::from(hop.dst_port),
                        tag: pkt.tag,
                        enqueue_cycle: pkt.enqueue_cycle,
                        inject_cycle: pkt.inject_cycle,
                        eject_cycle: cycle,
                        hops: u32::from(hop.hops),
                        deflections: 0,
                    });
                    free.push(slot);
                }
                ejects.clear();
                if qs.len[node] == 0 {
                    active[node >> 6] &= !(1 << (node & 63));
                }
            }
        }

        // Injection after movement: one packet per port per cycle, if the
        // entry node has room. Its stamp is past `fresh`, but the next
        // cycle's scan starts from a later one, so it moves then.
        if ingress.queued() > 0 {
            for word_idx in 0..ingress.pending().len() {
                let mut word = ingress.pending()[word_idx];
                while word != 0 {
                    let port = (word_idx << 6) | word.trailing_zeros() as usize;
                    word &= word - 1;
                    let entry = rt.inject_at[port] as usize;
                    if qs.len[entry] as usize >= NODE_QUEUE_CAP {
                        continue;
                    }
                    let q = ingress.pop(port);
                    tally.injected += 1;
                    tally.in_flight += 1;
                    let pkt = RoutedPkt {
                        src_port: u32::try_from(port).expect("port index fits in u32"),
                        tag: q.tag,
                        enqueue_cycle: q.enqueue_cycle,
                        inject_cycle: cycle,
                    };
                    let slot = match free.pop() {
                        Some(slot) => {
                            slots[slot as usize] = pkt;
                            slot
                        }
                        None => {
                            slots.push(pkt);
                            qs.hop.push(Hop::default());
                            u32::try_from(slots.len() - 1).expect("arena stays under 2^32 slots")
                        }
                    };
                    let dst_port = u16::try_from(q.dst_port).expect("port index fits in u16");
                    qs.hop[slot as usize] = Hop { dst_port, ..Hop::default() };
                    qs.push(entry, rt.output(entry, usize::from(dst_port)), slot);
                    active[entry >> 6] |= 1 << (entry & 63);
                }
            }
        }
        tally.cycle += 1;
    }

    /// Statistics go under `rival.cycle.*`.
    fn flush_metrics(&mut self, metrics: &MetricsRegistry) {
        self.tally.flush(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dv_route_walk_matches_min_hops() {
        let t = Topology::new(8, 4);
        for src in 0..NetworkTopology::ports(&t) {
            for dst in 0..NetworkTopology::ports(&t) {
                let mut node = t.inject_node(src);
                let goal = t.eject_node(dst);
                let mut hops = 0;
                while node != goal {
                    node = t.route_one_hop(node, dst);
                    hops += 1;
                    assert!(hops <= 64, "{src}->{dst} did not converge");
                }
                assert_eq!(hops, Topology::min_hops(&t, src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn fat_tree_picks_the_smallest_radix() {
        assert_eq!(FatTree::for_ports(2).radix(), 2);
        assert_eq!(FatTree::for_ports(16).radix(), 4);
        assert_eq!(FatTree::for_ports(64).radix(), 8);
        assert_eq!(FatTree::for_ports(1024).radix(), 16);
        assert_eq!(FatTree::for_ports(4096).radix(), 26);
    }

    #[test]
    fn fat_tree_route_walk_matches_min_hops() {
        let t = FatTree::for_ports(64);
        for src in 0..t.ports() {
            for dst in 0..t.ports() {
                let mut node = t.inject_node(src);
                let goal = t.eject_node(dst);
                let mut hops = 0;
                while node != goal {
                    let nxt = t.route_one_hop(node, dst);
                    assert!(nxt < t.node_count());
                    node = nxt;
                    hops += 1;
                    assert!(hops <= 8, "{src}->{dst} did not converge");
                }
                assert_eq!(hops, t.min_hops(src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn min_path_graph_is_regular_deterministic_and_shortest_routed() {
        let a = MinPathGraph::for_ports(64);
        let b = MinPathGraph::for_ports(64);
        assert_eq!(a.adj, b.adj, "seeded construction must be reproducible");
        assert_eq!(a.degree(), 8);
        for src in 0..a.ports() {
            for dst in 0..a.ports() {
                let mut node = a.inject_node(src);
                let goal = a.eject_node(dst);
                let mut hops = 0;
                while node != goal {
                    node = a.route_one_hop(node, dst);
                    hops += 1;
                    assert!(hops <= a.node_count(), "{src}->{dst} did not converge");
                }
                assert_eq!(hops, a.min_hops(src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn min_path_mean_path_beats_the_fat_tree() {
        // The Deng et al. claim this rival exists to represent: at equal
        // port counts the random-regular graph's mean contention-free
        // path is shorter than the fat tree's switch-to-switch path.
        let ports = 256;
        let (mpl_mean, _) = MinPathGraph::for_ports(ports).path_stats();
        let (ft_mean, _) = FatTree::for_ports(ports).path_stats();
        assert!(
            mpl_mean < ft_mean,
            "min-path mean {mpl_mean:.3} should beat fat tree mean {ft_mean:.3}"
        );
    }

    #[test]
    fn tiny_graphs_build() {
        for ports in [1usize, 2, 3, 5, 8, 48] {
            let ft = FatTree::for_ports(ports);
            assert!(ft.ports() == ports);
            let mp = MinPathGraph::for_ports(ports);
            assert!(mp.ports() == ports);
            let _ = ft.path_stats();
            let _ = mp.path_stats();
        }
    }

    #[test]
    fn routed_sim_delivers_single_packet_in_min_hops() {
        for kind in [TopoKind::FatTree, TopoKind::MinPath] {
            let net = AnyTopology::for_ports(kind, 64);
            for (src, dst) in [(0usize, 63usize), (5, 5), (17, 40)] {
                let min = net.min_hops(src, dst);
                let mut sim = RoutedNetSim::new(net.clone());
                sim.enqueue(src, dst, 7);
                let d = sim.drain(10_000);
                assert_eq!(d.len(), 1, "{kind:?} {src}->{dst}");
                assert_eq!(d[0].dst_port, dst);
                assert_eq!(d[0].hops as usize, min, "{kind:?} {src}->{dst}");
                assert_eq!(d[0].deflections, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 65536 ports")]
    fn more_than_65536_ports_is_rejected() {
        RoutedNetSim::new(AnyTopology::for_ports(TopoKind::FatTree, (1 << 16) + 1));
    }

    #[test]
    fn topo_kind_parses_the_flag_vocabulary() {
        assert_eq!(TopoKind::parse("dv"), Some(TopoKind::Vortex));
        assert_eq!(TopoKind::parse("fattree"), Some(TopoKind::FatTree));
        assert_eq!(TopoKind::parse("min-path"), Some(TopoKind::MinPath));
        assert_eq!(TopoKind::parse("torus"), None);
        for kind in TopoKind::ALL {
            assert_eq!(TopoKind::parse(kind.name()), Some(kind));
        }
    }
}
