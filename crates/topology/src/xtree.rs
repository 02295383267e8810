//! The X-tree network `X(r)`.
//!
//! Definition (paper, §2): the X-tree of height `r` is the graph whose nodes
//! are all binary strings of length at most `r`. Each string `x` of length
//! `i < r` is connected to its children `x0` and `x1`, and — when
//! `binary(x) < 2^i − 1` — to `successor(x)`, the next string of the same
//! length. In other words: a complete binary tree plus horizontal edges
//! stringing each level together left to right (Figure 1 shows `X(3)`).

use crate::address::Address;
use crate::graph::{Csr, Graph};

/// The X-tree of height `r`, with vertices identified by [`Address`]es and
/// numbered in heap order (root = 0).
#[derive(Clone, Debug)]
pub struct XTree {
    height: u8,
    graph: Csr,
}

/// The tallest X-tree [`XTree::new`] builds. Its heap ids stay below
/// `2^25`, so they fit in a `u32` with room to spare.
pub const XTREE_MAX_HEIGHT: u8 = 24;

/// Number of vertices of `X(r)`: `2^{r+1} − 1`.
pub const fn xtree_node_count(r: u8) -> usize {
    (1usize << (r + 1)) - 1
}

/// Exact X-tree distance between two addresses, in closed form.
///
/// Every shortest path can be normalised to *ascend, walk horizontally,
/// descend*: horizontal progress per step doubles with every level climbed
/// (one step at level `m` spans `2^{ℓ−m}` positions of level `ℓ`), so
/// interleaving horizontal moves below the peak never beats doing them at
/// the peak, and dipping below the endpoints' levels only shrinks the
/// span a step covers. For a peak level `m ≤ min(|a|, |b|)` the cost is
/// therefore the two vertical legs plus the index gap of the ancestors at
/// `m`; minimising over `m` gives the distance. Validated against BFS on
/// every vertex pair of `X(0)..X(7)` in the tests.
pub fn analytic_distance(a: Address, b: Address) -> u32 {
    let (la, lb) = (a.level(), b.level());
    let top = la.min(lb);
    // Scan peaks from the deepest (m = top) upward with running ancestor
    // indices — each step up shifts both once and costs two more vertical
    // hops. Stop when the vertical legs alone exceed the best cost (they
    // only grow) or when the ancestors coincide (the gap stays 0 above, so
    // higher peaks only add vertical); the latter also ends m = 0.
    let mut ja = a.index() >> (la - top);
    let mut jb = b.index() >> (lb - top);
    let mut vertical = u64::from(la - top) + u64::from(lb - top);
    let mut d = u64::MAX;
    loop {
        if vertical > d {
            break;
        }
        d = d.min(vertical + ja.abs_diff(jb));
        if ja == jb {
            break;
        }
        ja >>= 1;
        jb >>= 1;
        vertical += 2;
    }
    d as u32
}

/// Deterministic next hop from `a` toward `b` in `X(height)`.
///
/// Among the X-tree neighbours of `a`, returns the one with the smallest
/// heap id whose [`analytic_distance`] to `b` is one hop shorter — the
/// same vertex a BFS next-hop table built with the smallest-id-downhill
/// rule selects, but computed in `O(height)` with no table. Returns `a`
/// itself when `a == b`.
pub fn next_hop_towards(a: Address, b: Address, height: u8) -> Address {
    debug_assert!(a.level() <= height && b.level() <= height);
    if a == b {
        return a;
    }
    let (la, lb) = (a.level(), b.level());
    // The parent shares every ancestor of `a` strictly above `a`'s level,
    // so `d(parent, b) = best_above − 1` where `best_above` is the best
    // cost over peaks above `a`. The parent — always the smallest-id
    // neighbour — is therefore downhill exactly when `best_above` attains
    // the distance, which replicates the BFS table's smallest-id-downhill
    // tie-break without probing any neighbour.
    if la > lb {
        // Every candidate peak (m ≤ lb < la) lies above `a`:
        // `best_above == d` unconditionally.
        return a.parent().expect("a is deeper than b, so not the root");
    }
    // Peak m = la, the only one not above `a`.
    let jb_la = b.index() >> (lb - la);
    let cost_la = u64::from(lb - la) + a.index().abs_diff(jb_la);
    // Peaks m < la, with running ancestor indices (same early exits as
    // `analytic_distance`: costs past the breaks exceed the running best,
    // so they can change neither the distance nor whether it is attained
    // above `a`).
    let mut best_above = u64::MAX;
    if la > 0 {
        let mut ja = a.index() >> 1;
        let mut jb = jb_la >> 1;
        let mut vertical = u64::from(lb - la) + 2;
        loop {
            if vertical > best_above.min(cost_la) {
                break;
            }
            best_above = best_above.min(vertical + ja.abs_diff(jb));
            if ja == jb {
                break;
            }
            ja >>= 1;
            jb >>= 1;
            vertical += 2;
        }
    }
    if best_above <= cost_la {
        return a.parent().expect("la > 0 whenever a peak above a exists");
    }
    // The only optimal peak is `a`'s own level: step horizontally toward
    // `b`'s ancestor at this level, or — when `a` *is* that ancestor —
    // descend onto `b`'s ancestor one level down.
    if jb_la < a.index() {
        a.predecessor()
            .expect("a gap to the left implies a predecessor")
    } else if jb_la > a.index() {
        a.successor()
            .expect("a gap to the right implies a successor")
    } else {
        a.child((b.index() >> (lb - la - 1) & 1) as u8)
    }
}

/// Number of edges of `X(r)`: `2^{r+1} − 2` tree edges plus
/// `∑_{j=1..r} (2^j − 1) = 2^{r+1} − 2 − r` horizontal edges.
pub const fn xtree_edge_count(r: u8) -> usize {
    if r == 0 {
        0
    } else {
        2 * ((1usize << (r + 1)) - 2) - r as usize
    }
}

impl XTree {
    /// Builds `X(r)`.
    pub fn new(height: u8) -> Self {
        assert!(
            height <= XTREE_MAX_HEIGHT,
            "X-tree of height {height} would not fit in memory"
        );
        let n = xtree_node_count(height);
        let mut edges = Vec::with_capacity(xtree_edge_count(height));
        for a in Address::all_up_to(height) {
            let id = a.heap_id() as u32;
            if a.level() < height {
                edges.push((id, a.child(0).heap_id() as u32));
                edges.push((id, a.child(1).heap_id() as u32));
            }
            if let Some(s) = a.successor() {
                edges.push((id, s.heap_id() as u32));
            }
        }
        XTree {
            height,
            graph: Csr::from_edges(n, &edges),
        }
    }

    /// The height `r`.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// The address of vertex id `v`.
    pub fn address(&self, v: usize) -> Address {
        assert!(v < self.node_count());
        Address::from_heap_id(v)
    }

    /// The vertex id of `a`.
    ///
    /// # Panics
    /// Panics if `a` is deeper than the height.
    pub fn id(&self, a: Address) -> usize {
        assert!(
            a.level() <= self.height,
            "address {a} below X({})",
            self.height
        );
        a.heap_id()
    }

    /// Underlying CSR graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Exact distance between two addresses, via the closed form
    /// [`analytic_distance`] (validated exhaustively against BFS in the
    /// tests); `O(min level)` per query.
    pub fn distance(&self, a: Address, b: Address) -> u32 {
        debug_assert!(a.level() <= self.height && b.level() <= self.height);
        analytic_distance(a, b)
    }

    /// BFS-based distance — the oracle the closed form is checked against.
    pub fn distance_bfs(&self, a: Address, b: Address) -> u32 {
        self.graph
            .bounded_distance(self.id(a), self.id(b), 4 * u32::from(self.height) + 4)
            .expect("X-tree is connected")
    }

    /// ASCII rendering of the X-tree (small heights), used by the Figure-1
    /// reproduction to show the structure of `X(3)`.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for l in 0..=self.height {
            let pad = (1usize << (self.height - l)) - 1;
            let gap = (1usize << (self.height - l + 1)) - 1;
            out.push_str(&" ".repeat(2 * pad));
            let mut first = true;
            for _a in Address::level_iter(l) {
                if !first {
                    out.push_str(&"--".repeat(gap.min(6)).to_string());
                }
                out.push('o');
                first = false;
            }
            out.push('\n');
        }
        out
    }
}

impl Graph for XTree {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        self.graph.neighbors(v)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math
mod tests {
    use super::*;

    #[test]
    fn counts_match_formulas() {
        for r in 0..=8u8 {
            let x = XTree::new(r);
            assert_eq!(x.node_count(), xtree_node_count(r), "nodes of X({r})");
            assert_eq!(x.edge_count(), xtree_edge_count(r), "edges of X({r})");
            assert!(x.graph().is_connected());
        }
    }

    #[test]
    fn figure_1_xtree_of_height_3() {
        // Figure 1 of the paper: X(3) has 15 vertices; 14 tree edges and
        // (1 + 3 + 7) = 11 horizontal edges.
        let x = XTree::new(3);
        assert_eq!(x.node_count(), 15);
        assert_eq!(x.edge_count(), 14 + 11);
    }

    #[test]
    fn adjacency_of_x2() {
        let x = XTree::new(2);
        let v = |s: &str| x.id(Address::parse(s).unwrap());
        // Root connects only to its two children.
        assert_eq!(x.degree(v("ε")), 2);
        // "0" – children 00, 01, parent ε, successor 1.
        assert!(x.has_edge(v("0"), v("00")));
        assert!(x.has_edge(v("0"), v("01")));
        assert!(x.has_edge(v("0"), v("ε")));
        assert!(x.has_edge(v("0"), v("1")));
        assert_eq!(x.degree(v("0")), 4);
        // Horizontal chain on the leaf level.
        assert!(x.has_edge(v("00"), v("01")));
        assert!(x.has_edge(v("01"), v("10")));
        assert!(x.has_edge(v("10"), v("11")));
        assert!(!x.has_edge(v("00"), v("10")));
        // 01 and 10 are not tree siblings but are X-tree neighbors.
        assert_eq!(
            Address::parse("01").unwrap().successor(),
            Address::parse("10")
        );
    }

    #[test]
    fn max_degree_is_six() {
        // Interior vertices: parent + 2 children + 2 horizontal = 5; plus
        // nothing else. Leaves: parent + 2 horizontal = 3. Degree ≤ 5 overall
        // (6 never occurs; check the true bound).
        for r in 2..=7u8 {
            let x = XTree::new(r);
            assert!(x.max_degree() <= 5, "X({r}) max degree {}", x.max_degree());
        }
        assert_eq!(XTree::new(5).max_degree(), 5);
    }

    #[test]
    fn distance_examples() {
        let x = XTree::new(3);
        let a = |s: &str| Address::parse(s).unwrap();
        assert_eq!(x.distance(a("000"), a("001")), 1);
        // Corner to corner: cross once at level 1 or 2 (e.g. 000-00-01, then
        // the horizontal 01-10 edge, then 10-11-111): 5 hops, far better than
        // the 7 horizontal leaf hops.
        assert_eq!(x.distance(a("000"), a("111")), 5);
        assert_eq!(x.distance(a("01"), a("10")), 1); // horizontal, non-sibling
        assert_eq!(x.distance(a("ε"), a("111")), 3);
        assert_eq!(x.distance(a("00"), a("00")), 0);
    }

    #[test]
    fn horizontal_shortcut_beats_tree_path() {
        // In the plain complete binary tree 011 and 100 are at distance 6;
        // X-tree horizontal edge makes them adjacent.
        let x = XTree::new(3);
        let u = Address::parse("011").unwrap();
        let v = Address::parse("100").unwrap();
        assert_eq!(u.tree_distance(v), 6);
        assert_eq!(x.distance(u, v), 1);
    }

    #[test]
    fn diameter_growth() {
        // The diameter of X(r) grows linearly in r (Θ(r)): 2r − 1 for the
        // heights checked here (corner-to-corner, crossing near the top).
        let expected = [0u32, 1, 3, 5, 7];
        for (r, &d) in expected.iter().enumerate() {
            assert_eq!(
                XTree::new(r as u8).graph().diameter(),
                d,
                "diameter of X({r})"
            );
        }
    }

    #[test]
    fn analytic_distance_matches_bfs_exhaustively() {
        // The load-bearing check: the closed form equals BFS on every
        // vertex pair of X(0) .. X(7) (up to 255² pairs).
        for r in 0..=7u8 {
            let x = XTree::new(r);
            for src in 0..x.node_count() {
                let d = x.graph().bfs(src);
                let a = Address::from_heap_id(src);
                for dst in 0..x.node_count() {
                    let b = Address::from_heap_id(dst);
                    assert_eq!(analytic_distance(a, b), d[dst], "X({r}): {a} – {b}");
                }
            }
        }
    }

    #[test]
    fn analytic_distance_is_symmetric_and_reflexive() {
        for a in Address::all_up_to(9) {
            assert_eq!(analytic_distance(a, a), 0);
        }
        let p = Address::parse("010110").unwrap();
        let q = Address::parse("11").unwrap();
        assert_eq!(analytic_distance(p, q), analytic_distance(q, p));
    }

    #[test]
    fn analytic_distance_works_beyond_bfs_scale() {
        // Deep addresses where building the graph would be infeasible.
        let a = Address::new(50, 0);
        let b = Address::new(50, (1u64 << 50) - 1);
        // Corner to corner: up to level 1, one horizontal, down: 2·49 + 1.
        assert_eq!(analytic_distance(a, b), 99);
        assert_eq!(analytic_distance(Address::ROOT, a), 50);
    }

    #[test]
    fn next_hop_matches_smallest_id_downhill_table() {
        // The structured router rule must be bit-identical to what a BFS
        // next-hop table with the smallest-id tie-break would contain.
        for r in 0..=4u8 {
            let x = XTree::new(r);
            for dst in 0..x.node_count() {
                let d = x.graph().bfs(dst);
                let b = Address::from_heap_id(dst);
                for v in 0..x.node_count() {
                    let a = Address::from_heap_id(v);
                    let hop = next_hop_towards(a, b, r);
                    if v == dst {
                        assert_eq!(hop, a);
                        continue;
                    }
                    let table = *x
                        .graph()
                        .neighbors(v)
                        .iter()
                        .find(|&&w| d[w as usize] + 1 == d[v])
                        .unwrap();
                    assert_eq!(hop.heap_id(), table as usize, "X({r}): {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn next_hop_routes_are_shortest_paths() {
        // The premise of reading a dilation off routed hops: following
        // `next_hop_towards` from `a` reaches `b`, along host edges, in
        // exactly `analytic_distance(a, b)` hops, on every vertex pair of
        // X(1) .. X(6).
        for r in 1..=6u8 {
            let x = XTree::new(r);
            for a in Address::all_up_to(r) {
                for b in Address::all_up_to(r) {
                    let (mut at, mut hops) = (a, 0);
                    while at != b {
                        let next = next_hop_towards(at, b, r);
                        assert!(x.has_edge(x.id(at), x.id(next)), "X({r}): {at} -> {next}");
                        at = next;
                        hops += 1;
                        assert!(hops <= 2 * u32::from(r), "X({r}): {a} -> {b} loops");
                    }
                    assert_eq!(hops, analytic_distance(a, b), "X({r}): {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn render_has_height_plus_one_rows() {
        let x = XTree::new(3);
        assert_eq!(x.render_ascii().lines().count(), 4);
    }
}
