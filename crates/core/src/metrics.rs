//! Embedding quality metrics against a concrete host.
//!
//! Everything the paper's theorems promise is a number this module can
//! measure: dilation (with a full per-edge histogram), load factor,
//! expansion, and — for condition (3′) — the fraction of guest edges whose
//! deeper image lies in the `N(a)` neighbourhood of the shallower one.

use crate::embedding::XEmbedding;
use xtree_topology::{analytic_distance, neighborhood, XTree, XTREE_MAX_HEIGHT};
use xtree_trees::BinaryTree;

/// Summary statistics of an X-tree embedding.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddingStats {
    /// Maximum host distance over guest edges.
    pub dilation: u32,
    /// Histogram of guest-edge host distances (`histogram[d]` edges at
    /// distance `d`).
    pub dilation_histogram: Vec<usize>,
    /// Maximum guest nodes on one host vertex.
    pub max_load: u32,
    /// `|host| / |guest|`.
    pub expansion: f64,
    /// True if the embedding is one-to-one.
    pub injective: bool,
    /// Guest edges `{u, v}` (with `|δ(u)| ≤ |δ(v)|`) whose deeper image is
    /// *not* in `N(δ(u))` — condition (3′) violations. 0 for a construction
    /// that fully honours the paper's invariant.
    pub condition3_violations: usize,
    /// Guest edges whose images' levels differ by more than 2 — condition
    /// (4) violations.
    pub condition4_violations: usize,
}

/// Computes all statistics of `emb` on the X-tree host it names.
///
/// Distances use the exact closed form (`xtree_topology::analytic_distance`),
/// so evaluation is linear in the number of guest edges and builds no
/// host.
///
/// # Panics
/// If `emb` does not map every node of `tree`, maps one below its X-tree,
/// or names an X-tree taller than [`XTREE_MAX_HEIGHT`].
pub fn evaluate(tree: &BinaryTree, emb: &XEmbedding) -> EmbeddingStats {
    assert_eq!(
        tree.len(),
        emb.map.len(),
        "embedding does not cover the tree"
    );
    emb.validate();
    assert!(
        emb.height <= XTREE_MAX_HEIGHT,
        "X-tree of height {} would not fit in memory",
        emb.height
    );
    let mut histogram = Vec::new();
    let mut dilation = 0u32;
    let mut c3 = 0usize;
    let mut c4 = 0usize;
    for (u, v) in tree.edges() {
        let (a, b) = (emb.image(u), emb.image(v));
        let d = analytic_distance(a, b);
        dilation = dilation.max(d);
        if histogram.len() <= d as usize {
            histogram.resize(d as usize + 1, 0);
        }
        histogram[d as usize] += 1;
        let (hi, lo) = if a.level() <= b.level() {
            (a, b)
        } else {
            (b, a)
        };
        if !neighborhood::in_neighborhood(hi, lo, emb.height) {
            c3 += 1;
        }
        if u8::abs_diff(a.level(), b.level()) > 2 {
            c4 += 1;
        }
    }
    // One count of the loads serves both the maximum and injectivity.
    let max_load = emb.max_load();
    EmbeddingStats {
        dilation,
        dilation_histogram: histogram,
        max_load,
        expansion: emb.expansion(),
        injective: max_load <= 1,
        condition3_violations: c3,
        condition4_violations: c4,
    }
}

/// Average host distance across guest edges (mean dilation) — not a bound
/// the paper states, but a useful shape metric in the comparison tables.
pub fn mean_dilation(stats: &EmbeddingStats) -> f64 {
    let total: usize = stats.dilation_histogram.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let weighted: usize = stats
        .dilation_histogram
        .iter()
        .enumerate()
        .map(|(d, &c)| d * c)
        .sum();
    weighted as f64 / total as f64
}

/// What one walk of every guest edge's host route measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteStats {
    /// Hops of the longest route. Routes are shortest paths, so this is
    /// the dilation [`evaluate`] reports.
    pub dilation: u32,
    /// Routes across the busiest undirected host edge: the edge
    /// congestion.
    pub congestion: u32,
}

/// Routes every guest edge along the deterministic shortest host path
/// (the same smallest-id-downhill rule the simulator's routers use) and
/// measures the longest route and the busiest undirected host edge in
/// the one walk.
///
/// Routes are computed hop by hop from the closed-form X-tree distance —
/// no per-edge BFS — and counters live in a flat `Vec` indexed by
/// [`xtree_topology::Csr::directed_edge_index`] of the edge's `(min, max)`
/// orientation, so the walk does no hashing and scales to hosts far past
/// the BFS-friendly sizes. Each hop is one hop shorter to go
/// ([`xtree_topology::xtree::next_hop_towards`]), so a route has exactly
/// [`xtree_topology::analytic_distance`] hops.
pub fn route_stats(tree: &BinaryTree, emb: &XEmbedding, host: &XTree) -> RouteStats {
    assert_eq!(host.height(), emb.height);
    let graph = host.graph();
    let mut usage = vec![0u32; graph.directed_edge_count()];
    let mut dilation = 0u32;
    for (u, v) in tree.edges() {
        let (mut at, b) = (emb.image(u), emb.image(v));
        let mut hops = 0u32;
        while at != b {
            let next = xtree_topology::xtree::next_hop_towards(at, b, emb.height);
            let (lo, hi) = if at < next { (at, next) } else { (next, at) };
            let e = graph
                .directed_edge_index(lo.heap_id() as u32, hi.heap_id() as u32)
                .expect("next hop is a host neighbour");
            usage[e as usize] += 1;
            at = next;
            hops += 1;
        }
        dilation = dilation.max(hops);
    }
    RouteStats {
        dilation,
        congestion: usage.into_iter().max().unwrap_or(0),
    }
}

/// Edge congestion of an embedding: how many guest-edge routes of
/// [`route_stats`] cross the busiest undirected host edge. Together with
/// dilation this bounds the slowdown of a one-step simulation of the
/// guest on the host.
pub fn edge_congestion(tree: &BinaryTree, emb: &XEmbedding, host: &XTree) -> u32 {
    route_stats(tree, emb, host).congestion
}

/// Verifies that a map covers every guest node exactly once and nothing
/// else (a total function), returning the map's image multiset size.
pub fn assert_total(tree: &BinaryTree, emb: &XEmbedding) {
    assert_eq!(
        tree.len(),
        emb.map.len(),
        "embedding must assign every guest node exactly once"
    );
}

/// The identity-style embedding used in tests: guest node `i` to the host
/// vertex with heap id `i` (requires guest ≤ host).
pub fn heap_order_embedding(tree: &BinaryTree, height: u8) -> XEmbedding {
    let host_len = (1usize << (height + 1)) - 1;
    assert!(tree.len() <= host_len, "guest does not fit");
    XEmbedding {
        height,
        map: (0..tree.len() as u32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_trees::generate;

    #[test]
    fn complete_tree_identity_has_dilation_one() {
        // A left-complete guest in heap order lands exactly on the X-tree's
        // own tree edges.
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let s = evaluate(&t, &e);
        assert_eq!(s.dilation, 1);
        assert_eq!(s.max_load, 1);
        assert!(s.injective);
        assert_eq!(s.condition3_violations, 0);
        assert_eq!(s.condition4_violations, 0);
        assert_eq!(s.dilation_histogram, vec![0, 14]);
    }

    #[test]
    fn path_heap_order_dilates() {
        // A guest *path* in heap order jumps across levels: dilation grows.
        let t = generate::path(15);
        let e = heap_order_embedding(&t, 3);
        let s = evaluate(&t, &e);
        assert!(s.dilation >= 2, "dilation {}", s.dilation);
        assert!(mean_dilation(&s) > 1.0);
    }

    #[test]
    fn histogram_sums_to_edges() {
        let t = generate::caterpillar(31);
        let e = heap_order_embedding(&t, 4);
        let s = evaluate(&t, &e);
        assert_eq!(s.dilation_histogram.iter().sum::<usize>(), 30);
    }

    #[test]
    fn congestion_of_identity_embedding_is_one() {
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let host = XTree::new(3);
        assert_eq!(edge_congestion(&t, &e, &host), 1);
    }

    #[test]
    fn congestion_counts_shared_links() {
        // A star-ish guest all mapped around the root: children edges all
        // cross the two root links.
        let t = generate::left_complete(7);
        // Heap ids: ε = 0, "0" = 1, "1" = 2.
        let map = vec![0, 1, 2, 1, 1, 2, 2];
        let e = XEmbedding { height: 1, map };
        let host = XTree::new(1);
        // Edges 1-3, 1-4 stay on vertex "0" (no links); 0-1 and 0-2 use the
        // two distinct root links once each.
        assert_eq!(edge_congestion(&t, &e, &host), 1);
    }

    #[test]
    fn the_longest_route_is_the_dilation() {
        for (t, height) in [
            (generate::path(15), 3),
            (generate::caterpillar(31), 4),
            (generate::left_complete(63), 5),
        ] {
            let e = heap_order_embedding(&t, height);
            let routes = route_stats(&t, &e, &XTree::new(height));
            assert_eq!(routes.dilation, evaluate(&t, &e).dilation);
        }
    }

    #[test]
    fn all_on_root_is_degenerate_but_valid() {
        let t = generate::path(5);
        let e = XEmbedding {
            height: 2,
            map: vec![0; 5],
        };
        let s = evaluate(&t, &e);
        assert_eq!(s.dilation, 0);
        assert_eq!(s.max_load, 5);
        assert!(!s.injective);
        assert_eq!(s.condition3_violations, 0);
    }
}
