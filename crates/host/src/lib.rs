//! One trait over the paper's three host topologies.
//!
//! The paper names three hosts for binary-tree guests: the X-tree of
//! Theorem 1 (load 16, dilation ≤ 3), the optimal hypercube reached by
//! composing Theorem 1 with Lemma 3 (Theorem 3: load 16, dilation ≤ 4),
//! and the degree-≤415 universal graph `G_n` of Theorem 4 (16 slots per
//! X-tree vertex, dilation ≤ 10 relative to a dilation-3 X-tree
//! embedding). [`Host`] makes all three servable behind one dispatch
//! point: a CSR view for edge-indexed congestion accumulation, an O(1)
//! `next_hop` honouring the smallest-id-downhill contract, an exact
//! `distance`, a degree bound, and a stable label for the wire protocol
//! and CLI.
//!
//! The guest side is uniform: [`guest_map`] turns the cached Theorem-1/2
//! [`XEmbedding`] into a `Vec<u32>` of host vertex ids for any backend
//! (heap ids on the X-tree, Lemma-3 labels on the hypercube, packed
//! slots on `G_n`), so the simulation and stats layers never see which
//! host they are scoring.
//!
//! This crate is the only place a host routes. [`TableHost`] is the BFS
//! reference every closed-form host is pinned to, and the fallback for
//! irregular hosts (meshes, CCC, butterflies) up to [`TABLE_HOST_CAP`]
//! vertices.

use std::fmt;
use xtree_core::hypercube::lemma3_label;
use xtree_core::universal::{slot_ids, UniversalGraph};
use xtree_core::XEmbedding;
use xtree_topology::routing::{hypercube_next_hop, xtree_next_hop};
use xtree_topology::{analytic_distance, Address, Csr, Graph, Hypercube, XTree};

/// Wire/CLI tag for the X-tree backend.
pub const HOST_XTREE: u8 = 0;
/// Wire/CLI tag for the hypercube backend (Theorem 3).
pub const HOST_HYPERCUBE: u8 = 1;
/// Wire/CLI tag for the Theorem-4 universal-graph backend.
pub const HOST_UNIVERSAL: u8 = 2;

/// Stable labels, indexed by host tag.
pub const HOST_LABELS: [&str; 3] = ["xtree", "hypercube", "universal"];

/// The label for a wire tag, if the tag is known.
pub fn host_label(tag: u8) -> Option<&'static str> {
    HOST_LABELS.get(usize::from(tag)).copied()
}

/// Parses a CLI label (`xtree` / `hypercube` / `universal`) to its tag.
pub fn parse_host_label(s: &str) -> Option<u8> {
    HOST_LABELS.iter().position(|&l| l == s).map(|i| i as u8)
}

/// Tallest X-tree the universal backend will promote to a routable `G_n`:
/// the all-pairs quotient distance table is `(2^{h+1}-1)^2` u16 entries
/// (~8.4 MB at 10), and `G_n` itself reaches 32 752 vertices — plenty for
/// guests up to `2^15 − 16` while keeping construction sub-second.
pub const UNIVERSAL_MAX_HEIGHT: u8 = 10;

/// A routable host topology.
///
/// Contract (every implementation is pinned to [`TableHost`]):
/// `next_hop(v, dst)` returns `v` when `v == dst` and otherwise the
/// **smallest-id neighbour of `v` strictly closer to `dst`** — so every
/// hop decreases `distance` by exactly one and the walk from `v` reaches
/// `dst` in exactly `distance(v, dst)` hops. `csr()` exposes the exact
/// same topology; its dense directed edge indices are the accumulation
/// slots for congestion statistics.
pub trait Host {
    /// The topology as a CSR graph over `0..node_count()`.
    fn csr(&self) -> &Csr;

    /// Stable backend label (`xtree` / `hypercube` / `universal` / `table`).
    fn label(&self) -> &'static str;

    /// An upper bound on vertex degree (paper-level constant, not a
    /// per-instance measurement).
    fn degree_bound(&self) -> u32;

    /// Smallest-id neighbour of `v` strictly closer to `dst` (`v` if
    /// `v == dst`). O(1) for the closed-form hosts.
    fn next_hop(&self, v: u32, dst: u32) -> u32;

    /// Exact hop distance between `v` and `dst`.
    fn distance(&self, v: u32, dst: u32) -> u32;

    /// Number of host vertices.
    fn node_count(&self) -> usize {
        self.csr().node_count()
    }

    /// Number of directed edges — the size of an edge-indexed tally.
    fn directed_edge_count(&self) -> usize {
        self.csr().directed_edge_count()
    }

    /// Dense index of directed edge `u -> v`, if present.
    fn directed_edge_index(&self, u: u32, v: u32) -> Option<u32> {
        self.csr().directed_edge_index(u, v)
    }

    /// All vertex ids.
    fn vertices(&self) -> std::ops::Range<u32> {
        0..self.node_count() as u32
    }
}

/// Every `&H` is itself a host: lets call sites pass borrowed hosts into
/// generic engines without cloning.
impl<H: Host + ?Sized> Host for &H {
    fn csr(&self) -> &Csr {
        (**self).csr()
    }
    fn label(&self) -> &'static str {
        (**self).label()
    }
    fn degree_bound(&self) -> u32 {
        (**self).degree_bound()
    }
    fn next_hop(&self, v: u32, dst: u32) -> u32 {
        (**self).next_hop(v, dst)
    }
    fn distance(&self, v: u32, dst: u32) -> u32 {
        (**self).distance(v, dst)
    }
}

/// The X-tree `X(height)` with closed-form routing: distances from
/// [`analytic_distance`], hops by probing the ≤ 5 neighbours in heap-id
/// order. No tables, so `X(20)` routes as cheaply as `X(5)`.
pub struct XTreeHost {
    xtree: XTree,
}

impl XTreeHost {
    /// Builds `X(height)`.
    pub fn new(height: u8) -> Self {
        Self {
            xtree: XTree::new(height),
        }
    }

    /// Host height.
    pub fn height(&self) -> u8 {
        self.xtree.height()
    }

    /// The X-tree itself, for the `xtree_core` metrics that take one.
    pub fn xtree(&self) -> &XTree {
        &self.xtree
    }
}

impl Host for XTreeHost {
    fn csr(&self) -> &Csr {
        self.xtree.graph()
    }

    fn label(&self) -> &'static str {
        HOST_LABELS[HOST_XTREE as usize]
    }

    fn degree_bound(&self) -> u32 {
        // Parent, two children, and the two same-level siblings.
        5
    }

    #[inline]
    fn next_hop(&self, v: u32, dst: u32) -> u32 {
        let hop = xtree_next_hop(
            Address::from_heap_id(v as usize),
            Address::from_heap_id(dst as usize),
            self.xtree.height(),
        );
        hop.heap_id() as u32
    }

    #[inline]
    fn distance(&self, v: u32, dst: u32) -> u32 {
        analytic_distance(
            Address::from_heap_id(v as usize),
            Address::from_heap_id(dst as usize),
        )
    }
}

/// The hypercube `Q_dim` — Theorem 3's host when `dim = height + 1` —
/// with bit-fixing routing: clear the highest differing set bit if any,
/// else set the lowest differing bit (both are the smallest-id downhill
/// neighbour).
pub struct HypercubeHost {
    cube: Hypercube,
}

impl HypercubeHost {
    /// Builds `Q_dim`.
    pub fn new(dim: u8) -> Self {
        Self {
            cube: Hypercube::new(dim),
        }
    }

    /// The optimal hypercube for a height-`height` X-tree embedding:
    /// Lemma 3 maps `X(r)` into `Q_{r+1}`.
    pub fn for_xtree_height(height: u8) -> Self {
        Self::new(height + 1)
    }

    /// Hypercube dimension.
    pub fn dim(&self) -> u8 {
        self.cube.dim()
    }
}

impl Host for HypercubeHost {
    fn csr(&self) -> &Csr {
        self.cube.graph()
    }

    fn label(&self) -> &'static str {
        HOST_LABELS[HOST_HYPERCUBE as usize]
    }

    fn degree_bound(&self) -> u32 {
        u32::from(self.cube.dim())
    }

    #[inline]
    fn next_hop(&self, v: u32, dst: u32) -> u32 {
        hypercube_next_hop(u64::from(v), u64::from(dst)) as u32
    }

    #[inline]
    fn distance(&self, v: u32, dst: u32) -> u32 {
        (v ^ dst).count_ones()
    }
}

/// Theorem 4's universal graph `G_n`, promoted from a proof artifact to a
/// routable backend.
///
/// Vertices are `(a, s)` pairs — X-tree vertex `a`, slot `s < 16` —
/// flattened as `heap_id(a) * 16 + s`. Routing exploits the quotient
/// structure: contracting each 16-slot group yields the *neighbourhood
/// graph* `H` over X-tree vertices, and because inter-group edges are
/// complete bipartite, `dist_{G_n}((a,s),(b,u)) = dist_H(a,b)` whenever
/// `a != b` (and 1 inside a group's clique). A precomputed all-pairs BFS
/// table on `H` therefore gives O(deg) smallest-id-downhill next hops on
/// `G_n` without ever materialising a `G_n`-sized table.
pub struct UniversalHost {
    universal: UniversalGraph,
    /// Quotient neighbourhood graph over X-tree vertices.
    quotient: Csr,
    /// All-pairs distances on the quotient, row-major `a * n_q + b`.
    qdist: Vec<u16>,
}

impl UniversalHost {
    /// Builds the routable `G_n` over `X(height)`.
    ///
    /// # Panics
    /// Panics if `height > UNIVERSAL_MAX_HEIGHT` (the all-pairs quotient
    /// table is quadratic in the X-tree size).
    pub fn new(height: u8) -> Self {
        assert!(
            height <= UNIVERSAL_MAX_HEIGHT,
            "universal host supports X-tree heights up to {UNIVERSAL_MAX_HEIGHT}, got {height}"
        );
        let universal = UniversalGraph::new(height);
        let n_q = (1usize << (height + 1)) - 1;

        // The quotient is exactly G_n with each slot group contracted:
        // derive it from the built graph so routing can never disagree
        // with the topology it routes on.
        let mut qedges: Vec<(u32, u32)> = universal
            .graph()
            .edges()
            .filter_map(|(u, v)| {
                let (a, b) = (u / 16, v / 16);
                (a != b).then(|| (a.min(b), a.max(b)))
            })
            .collect();
        qedges.sort_unstable();
        qedges.dedup();
        let quotient = Csr::from_edges(n_q, &qedges);

        let mut qdist = vec![0u16; n_q * n_q];
        for a in 0..n_q {
            let row = quotient.bfs(a);
            debug_assert!(row.iter().all(|&d| d <= u32::from(u16::MAX)));
            for (b, &d) in row.iter().enumerate() {
                qdist[a * n_q + b] = d as u16;
            }
        }

        Self {
            universal,
            quotient,
            qdist,
        }
    }

    /// Height of the underlying X-tree.
    pub fn height(&self) -> u8 {
        self.universal.height()
    }

    /// Number of X-tree vertices (slot groups).
    fn quotient_len(&self) -> usize {
        self.quotient.node_count()
    }

    fn qd(&self, a: u32, b: u32) -> u32 {
        u32::from(self.qdist[a as usize * self.quotient_len() + b as usize])
    }
}

impl Host for UniversalHost {
    fn csr(&self) -> &Csr {
        self.universal.graph()
    }

    fn label(&self) -> &'static str {
        HOST_LABELS[HOST_UNIVERSAL as usize]
    }

    fn degree_bound(&self) -> u32 {
        // Theorem 4: 15 clique edges + 16 per in-neighbourhood member
        // (|N(a)| ≤ 25), so degree ≤ 25·16 + 15 = 415.
        415
    }

    fn next_hop(&self, v: u32, dst: u32) -> u32 {
        if v == dst {
            return v;
        }
        let (a, b) = (v / 16, dst / 16);
        // Same slot group: the clique edge is the only downhill step, and
        // when the groups are adjacent every slot of `b` is a neighbour,
        // so `dst` itself (distance 0) beats any distance-1 candidate.
        if a == b || self.qd(a, b) == 1 {
            return dst;
        }
        // Distance ≥ 2: downhill neighbours are exactly the full slot
        // groups of quotient-downhill vertices, so the smallest id is
        // slot 0 of the smallest such group (quotient neighbours are
        // sorted in CSR order).
        let d = self.qd(a, b);
        for &c in self.quotient.neighbors(a as usize) {
            if self.qd(c, b) + 1 == d {
                return c * 16;
            }
        }
        unreachable!("quotient BFS table inconsistent with quotient graph")
    }

    fn distance(&self, v: u32, dst: u32) -> u32 {
        if v == dst {
            return 0;
        }
        let (a, b) = (v / 16, dst / 16);
        if a == b {
            1
        } else {
            self.qd(a, b)
        }
    }
}

/// The largest host a [`TableHost`] will tabulate: its two dense tables
/// would be ≥ 512 MiB beyond 2^13 vertices.
pub const TABLE_HOST_CAP: usize = 1 << 13;

/// Why a [`TableHost`] cannot be built for a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostError {
    /// The graph is disconnected, so a dense next-hop table (which
    /// requires every pair to be routable) cannot be built.
    Disconnected {
        /// Number of host vertices.
        vertices: usize,
        /// Number of connected components found.
        components: usize,
    },
    /// The graph is too large for dense all-pairs tables.
    TooLarge {
        /// Number of host vertices.
        vertices: usize,
        /// The largest supported vertex count.
        cap: usize,
    },
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Disconnected {
                vertices,
                components,
            } => write!(
                f,
                "host graph is disconnected ({components} components over {vertices} vertices); \
                 dense routing tables need a connected host"
            ),
            HostError::TooLarge { vertices, cap } => write!(
                f,
                "host has {vertices} vertices but dense routing tables support at most {cap}; \
                 use a closed-form host (XTreeHost, HypercubeHost)"
            ),
        }
    }
}

impl std::error::Error for HostError {}

/// Any connected graph, routed by dense all-pairs next-hop and distance
/// tables — one BFS per vertex at construction.
///
/// This is the reference the closed-form hosts are tested against, and
/// the fallback for hosts without structured routing. `O(n²)` memory caps
/// it at [`TABLE_HOST_CAP`] vertices.
#[derive(Debug)]
pub struct TableHost {
    graph: Csr,
    n: usize,
    /// `next_hop[dst * n + v]` = neighbour of `v` on a shortest path to
    /// `dst` (`v` itself when `v == dst`).
    next_hop: Vec<u32>,
    /// `dist[dst * n + v]` = shortest-path distance.
    dist: Vec<u32>,
}

impl TableHost {
    /// Builds the tables for `graph`.
    ///
    /// # Errors
    /// [`HostError::TooLarge`] beyond [`TABLE_HOST_CAP`] vertices and
    /// [`HostError::Disconnected`] when some pair of vertices cannot reach
    /// each other.
    pub fn new(graph: Csr) -> Result<Self, HostError> {
        let n = graph.node_count();
        if n > TABLE_HOST_CAP {
            return Err(HostError::TooLarge {
                vertices: n,
                cap: TABLE_HOST_CAP,
            });
        }
        if !graph.is_connected() {
            let (_, components) = graph.component_ids();
            return Err(HostError::Disconnected {
                vertices: n,
                components,
            });
        }
        let mut next_hop = vec![0u32; n * n];
        let mut dist = vec![0u32; n * n];
        for dst in 0..n {
            let d = graph.bfs(dst);
            dist[dst * n..(dst + 1) * n].copy_from_slice(&d);
            let row_h = &mut next_hop[dst * n..(dst + 1) * n];
            for v in 0..n {
                if v == dst {
                    row_h[v] = v as u32;
                    continue;
                }
                // Deterministic: the smallest-id neighbour that decreases
                // the distance to dst (neighbor lists are sorted). In a
                // connected graph every v != dst has one.
                row_h[v] = *graph
                    .neighbors(v)
                    .iter()
                    .find(|&&w| d[w as usize] + 1 == d[v])
                    .expect("a connected graph has a downhill neighbour");
            }
        }
        Ok(TableHost {
            graph,
            n,
            next_hop,
            dist,
        })
    }
}

impl Host for TableHost {
    fn csr(&self) -> &Csr {
        &self.graph
    }

    fn label(&self) -> &'static str {
        "table"
    }

    fn degree_bound(&self) -> u32 {
        self.graph.max_degree() as u32
    }

    #[inline]
    fn next_hop(&self, v: u32, dst: u32) -> u32 {
        self.next_hop[dst as usize * self.n + v as usize]
    }

    #[inline]
    fn distance(&self, v: u32, dst: u32) -> u32 {
        self.dist[dst as usize * self.n + v as usize]
    }
}

/// Static dispatch over the three backends — one value the serving layer
/// can build from a wire tag.
pub enum AnyHost {
    XTree(XTreeHost),
    Hypercube(HypercubeHost),
    Universal(UniversalHost),
}

impl AnyHost {
    /// The host a `tag`-backend serves a height-`height` X-tree embedding
    /// on: `X(height)` itself, Lemma 3's `Q_{height+1}`, or Theorem 4's
    /// `G_n`. `None` for unknown tags or a universal request above
    /// [`UNIVERSAL_MAX_HEIGHT`].
    pub fn for_xtree_height(tag: u8, height: u8) -> Option<AnyHost> {
        match tag {
            HOST_XTREE => Some(AnyHost::XTree(XTreeHost::new(height))),
            HOST_HYPERCUBE => Some(AnyHost::Hypercube(HypercubeHost::for_xtree_height(height))),
            HOST_UNIVERSAL => (height <= UNIVERSAL_MAX_HEIGHT)
                .then(|| AnyHost::Universal(UniversalHost::new(height))),
            _ => None,
        }
    }

    /// An X-tree host over a copy of `host`.
    ///
    /// Exists only for the serving benchmark (`servebench/`), whose traced
    /// replay names it together with the `xtree_sim::Network` alias; both
    /// go with that benchmark's next change. Everything else builds hosts
    /// with [`XTreeHost::new`] or [`AnyHost::for_xtree_height`].
    pub fn xtree(host: &XTree) -> AnyHost {
        AnyHost::XTree(XTreeHost {
            xtree: host.clone(),
        })
    }

    /// The wire tag of this backend.
    pub fn tag(&self) -> u8 {
        match self {
            AnyHost::XTree(_) => HOST_XTREE,
            AnyHost::Hypercube(_) => HOST_HYPERCUBE,
            AnyHost::Universal(_) => HOST_UNIVERSAL,
        }
    }
}

impl Host for AnyHost {
    fn csr(&self) -> &Csr {
        match self {
            AnyHost::XTree(h) => h.csr(),
            AnyHost::Hypercube(h) => h.csr(),
            AnyHost::Universal(h) => h.csr(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            AnyHost::XTree(h) => h.label(),
            AnyHost::Hypercube(h) => h.label(),
            AnyHost::Universal(h) => h.label(),
        }
    }

    fn degree_bound(&self) -> u32 {
        match self {
            AnyHost::XTree(h) => h.degree_bound(),
            AnyHost::Hypercube(h) => h.degree_bound(),
            AnyHost::Universal(h) => h.degree_bound(),
        }
    }

    fn next_hop(&self, v: u32, dst: u32) -> u32 {
        match self {
            AnyHost::XTree(h) => h.next_hop(v, dst),
            AnyHost::Hypercube(h) => h.next_hop(v, dst),
            AnyHost::Universal(h) => h.next_hop(v, dst),
        }
    }

    fn distance(&self, v: u32, dst: u32) -> u32 {
        match self {
            AnyHost::XTree(h) => h.distance(v, dst),
            AnyHost::Hypercube(h) => h.distance(v, dst),
            AnyHost::Universal(h) => h.distance(v, dst),
        }
    }
}

/// Guest map onto the X-tree backend: heap ids of the embedding images,
/// which is what the embedding stores.
pub fn xtree_guest_map(emb: &XEmbedding) -> Vec<u32> {
    emb.map.clone()
}

/// Guest map onto the hypercube backend: Lemma-3 labels of the images
/// (the exact map Theorem 3 composes with Theorem 1).
pub fn hypercube_guest_map(emb: &XEmbedding) -> Vec<u32> {
    let r = emb.height;
    emb.map
        .iter()
        .map(|&h| {
            let label = lemma3_label(Address::from_heap_id(h as usize), r);
            debug_assert!(label <= u64::from(u32::MAX));
            label as u32
        })
        .collect()
}

/// Guest map onto the universal backend: each of the ≤ 16 guests sharing
/// an X-tree vertex takes a distinct slot in that vertex's 16-clique —
/// Theorem 4's subgraph assignment ([`slot_ids`]), reconstructed from
/// the cached embedding without re-running Theorem 1.
///
/// # Panics
/// Panics if some X-tree vertex carries more than 16 guests (a load-16
/// embedding never does).
pub fn universal_guest_map(emb: &XEmbedding) -> Vec<u32> {
    slot_ids(emb)
}

/// The guest map for any backend tag. `None` for unknown tags.
pub fn guest_map(tag: u8, emb: &XEmbedding) -> Option<Vec<u32>> {
    match tag {
        HOST_XTREE => Some(xtree_guest_map(emb)),
        HOST_HYPERCUBE => Some(hypercube_guest_map(emb)),
        HOST_UNIVERSAL => Some(universal_guest_map(emb)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks `next_hop` from `v` to `dst`, asserting each hop is a real
    /// edge that shortens the distance by exactly one.
    fn walk<H: Host>(host: &H, v: u32, dst: u32) -> u32 {
        let mut at = v;
        let mut hops = 0;
        while at != dst {
            let next = host.next_hop(at, dst);
            assert!(
                host.csr().has_edge(at as usize, next as usize),
                "{}: hop {at}->{next} is not an edge",
                host.label()
            );
            assert_eq!(
                host.distance(next, dst) + 1,
                host.distance(at, dst),
                "{}: hop {at}->{next} toward {dst} is not downhill",
                host.label()
            );
            at = next;
            hops += 1;
        }
        hops
    }

    #[test]
    fn labels_and_tags_round_trip() {
        for (tag, &label) in HOST_LABELS.iter().enumerate() {
            assert_eq!(host_label(tag as u8), Some(label));
            assert_eq!(parse_host_label(label), Some(tag as u8));
        }
        assert_eq!(host_label(3), None);
        assert_eq!(parse_host_label("torus"), None);
    }

    #[test]
    fn xtree_host_walks_match_distance() {
        let host = XTreeHost::new(4);
        let n = host.node_count() as u32;
        for v in (0..n).step_by(3) {
            for dst in (0..n).step_by(5) {
                assert_eq!(walk(&host, v, dst), host.distance(v, dst));
            }
        }
        assert!(host.csr().max_degree() as u32 <= host.degree_bound());
    }

    #[test]
    fn hypercube_host_walks_match_distance() {
        let host = HypercubeHost::new(6);
        let n = host.node_count() as u32;
        for v in (0..n).step_by(5) {
            for dst in (0..n).step_by(7) {
                assert_eq!(walk(&host, v, dst), host.distance(v, dst));
            }
        }
        assert_eq!(host.degree_bound(), 6);
        assert_eq!(host.csr().max_degree(), 6);
    }

    #[test]
    fn universal_host_walks_match_distance() {
        let host = UniversalHost::new(3);
        let n = host.node_count() as u32;
        assert_eq!(n, 240); // 16 · (2^4 − 1)
        for v in (0..n).step_by(11) {
            for dst in (0..n).step_by(13) {
                assert_eq!(walk(&host, v, dst), host.distance(v, dst));
            }
        }
        assert!(host.csr().max_degree() as u32 <= host.degree_bound());
    }

    #[test]
    fn universal_distance_matches_bfs() {
        let host = UniversalHost::new(2);
        let g = host.csr();
        for v in 0..host.node_count() {
            let row = g.bfs(v);
            for (dst, &d) in row.iter().enumerate() {
                assert_eq!(
                    host.distance(v as u32, dst as u32),
                    d,
                    "distance({v}, {dst})"
                );
            }
        }
    }

    #[test]
    fn any_host_dispatches_by_tag() {
        for tag in 0..3u8 {
            let host = AnyHost::for_xtree_height(tag, 3).expect("known tag");
            assert_eq!(host.tag(), tag);
            assert_eq!(Some(host.label()), host_label(tag));
            assert!(host.node_count() > 0);
        }
        assert!(AnyHost::for_xtree_height(3, 3).is_none());
        assert!(AnyHost::for_xtree_height(HOST_UNIVERSAL, UNIVERSAL_MAX_HEIGHT + 1).is_none());
    }

    #[test]
    fn guest_maps_land_in_range() {
        use xtree_core::theorem1;
        use xtree_trees::generate;
        let tree = generate::caterpillar(240);
        let emb = theorem1::embed(&tree).emb;
        for tag in 0..3u8 {
            let host = AnyHost::for_xtree_height(tag, emb.height).unwrap();
            let map = guest_map(tag, &emb).unwrap();
            assert_eq!(map.len(), 240);
            for &h in &map {
                assert!((h as usize) < host.node_count(), "{tag}: {h} out of range");
            }
        }
        // The universal map is injective by construction.
        let mut uni = guest_map(HOST_UNIVERSAL, &emb).unwrap();
        uni.sort_unstable();
        uni.dedup();
        assert_eq!(uni.len(), 240);
    }
}
