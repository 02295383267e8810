//! Theorem 4: a universal graph of degree ≤ 415 for binary trees.
//!
//! For `n = 2^t − 16` (equivalently `n = 16·(2^{r+1} − 1)` with
//! `t = r + 5`), the graph `G_n` has the vertex set
//! `{(a, s) : a ∈ X(r), 0 ≤ s < 16}` — 16 *slots* per X-tree vertex — and
//! an edge between `(a, s)` and `(b, u)` whenever `a = b`, `b ∈ N(a)`, or
//! `a ∈ N(b)`, where `N` is the Figure-2 neighbourhood.
//!
//! Degree bound: `|N(a) − {a}| ≤ 20` plus ≤ 5 asymmetric in-neighbours
//! gives ≤ 25 adjacent X-tree vertices × 16 slots + 15 sibling slots
//! = **415**. Any embedding satisfying condition (3′) with load exactly 16
//! realises every guest tree as a spanning subgraph of `G_n`.

use crate::embedding::XEmbedding;
use xtree_topology::{neighborhood, Address, Csr, Graph};
use xtree_trees::{BinaryTree, NodeId};

/// The Theorem-4 universal graph over `X(r)` with 16 slots per vertex.
#[derive(Clone, Debug)]
pub struct UniversalGraph {
    height: u8,
    graph: Csr,
}

/// Number of vertices of the universal graph for X-tree height `r`:
/// `16 · (2^{r+1} − 1) = 2^{r+5} − 16`.
pub const fn universal_node_count(r: u8) -> usize {
    16 * ((1usize << (r + 1)) - 1)
}

impl UniversalGraph {
    /// Builds `G_n` for `n = 2^{r+5} − 16`.
    pub fn new(height: u8) -> Self {
        assert!(height <= 12, "universal graph of height {height} too large");
        let xnodes = (1usize << (height + 1)) - 1;
        let n = 16 * xnodes;
        let id = |a: Address, s: usize| (a.heap_id() * 16 + s) as u32;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let push = |edges: &mut Vec<(u32, u32)>, x: u32, y: u32| {
            edges.push((x.min(y), x.max(y)));
        };
        for a in Address::all_up_to(height) {
            // Slots of the same vertex form a 16-clique.
            for s in 0..16 {
                for u in (s + 1)..16 {
                    push(&mut edges, id(a, s), id(a, u));
                }
            }
            // Full bipartite slot connections to every X-tree vertex b with
            // b ∈ N(a); the symmetric closure (a ∈ N(b)) is produced when
            // the loop visits b. Tuples are normalised and deduplicated, so
            // symmetric pairs (a ∈ N(b) and b ∈ N(a)) collapse to one edge.
            for b in neighborhood::neighborhood(a, height) {
                if b == a {
                    continue;
                }
                for s in 0..16 {
                    for u in 0..16 {
                        push(&mut edges, id(a, s), id(b, u));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        UniversalGraph {
            height,
            graph: Csr::from_edges(n, &edges),
        }
    }

    /// The underlying X-tree height `r`.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// The slot-vertex id of `(a, s)`.
    pub fn id(&self, a: Address, slot: usize) -> usize {
        assert!(slot < 16 && a.level() <= self.height);
        a.heap_id() * 16 + slot
    }

    /// Underlying CSR graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Converts a load-exactly-16 X-tree embedding into an assignment of
    /// guest nodes to universal-graph slot vertices (a bijection).
    ///
    /// # Panics
    /// Panics if some host vertex carries more than 16 guest nodes or the
    /// guest does not have exactly `16 · |X(r)|` nodes.
    pub fn slot_assignment(&self, emb: &XEmbedding) -> Vec<u32> {
        assert_eq!(emb.height, self.height);
        assert_eq!(
            emb.map.len(),
            universal_node_count(self.height),
            "guest must have exactly 2^{{r+5}} − 16 nodes"
        );
        slot_ids(emb)
    }

    /// The paper's closing conjecture ("we have no doubt that one could
    /// generalize this result to hold also for arbitrary n"): any binary
    /// tree with `n' ≤ n` nodes is an (ordinary, not spanning) subgraph of
    /// the same `G_n`. Realised by the padding extension of Theorem 1:
    /// embed the padded tree, keep only the real nodes' slots.
    ///
    /// Returns the injective slot assignment for the guest.
    ///
    /// # Panics
    /// Panics if the guest is larger than `G_n`.
    pub fn subgraph_assignment_any_n(&self, tree: &BinaryTree) -> Vec<u32> {
        assert!(
            tree.len() <= universal_node_count(self.height),
            "guest larger than the universal graph"
        );
        let emb = crate::theorem1::embed(tree).emb;
        assert!(
            emb.height <= self.height,
            "optimal host exceeds this universal graph's X-tree"
        );
        // Deepen short addresses not needed: X(r') is a sub-X-tree of X(r)
        // sharing addresses, and N(a) within X(r') ⊆ N(a) within X(r).
        slot_ids(&emb)
    }

    /// Checks the spanning-subgraph property: every guest edge must map to
    /// an edge of `G_n` under `assignment`. Returns the violating guest
    /// edges (empty = the guest is a spanning subgraph, since the
    /// assignment is a bijection on `n = |G_n|` vertices).
    pub fn subgraph_violations(
        &self,
        tree: &BinaryTree,
        assignment: &[u32],
    ) -> Vec<(NodeId, NodeId)> {
        tree.edges()
            .filter(|&(u, v)| {
                !self.graph.has_edge(
                    assignment[u.index()] as usize,
                    assignment[v.index()] as usize,
                )
            })
            .collect()
    }
}

/// Theorem 4's slot assignment for a load-≤16 X-tree embedding: the
/// guests sharing an X-tree vertex `h` take its slots in guest order, so
/// each lands on its own slot vertex `16·h + s` of `G_n`.
///
/// # Panics
/// Panics if some X-tree vertex carries more than 16 guest nodes.
pub fn slot_ids(emb: &XEmbedding) -> Vec<u32> {
    let mut used = vec![0u32; emb.host_len()];
    emb.map
        .iter()
        .map(|&h| {
            let s = &mut used[h as usize];
            assert!(
                *s < 16,
                "load exceeds 16 at {}",
                Address::from_heap_id(h as usize)
            );
            let slot = h * 16 + *s;
            *s += 1;
            slot
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_matches_2t_minus_16() {
        for r in 0..=5u8 {
            let g = UniversalGraph::new(r);
            assert_eq!(g.graph().node_count(), universal_node_count(r));
            assert_eq!(universal_node_count(r), (1usize << (r + 5)) - 16);
        }
    }

    #[test]
    fn degree_bounded_by_415() {
        for r in [2u8, 4, 6] {
            let g = UniversalGraph::new(r);
            let max = g.graph().max_degree();
            assert!(max <= 415, "X({r}): degree {max} > 415");
        }
        // The bound is essentially attained for interior vertices once the
        // X-tree is wide enough.
        let g = UniversalGraph::new(6);
        assert!(g.graph().max_degree() >= 400, "expected near-415 degrees");
    }

    #[test]
    fn connected_and_clique_per_vertex() {
        let g = UniversalGraph::new(3);
        assert!(g.graph().is_connected());
        let a = Address::parse("01").unwrap();
        for s in 0..16 {
            for u in 0..16 {
                if s != u {
                    assert!(g.graph().has_edge(g.id(a, s), g.id(a, u)));
                }
            }
        }
    }

    #[test]
    fn arbitrary_n_subgraph_extension() {
        use rand::SeedableRng;
        let g = UniversalGraph::new(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        for n in [1usize, 17, 100, 150, 239, 240] {
            let t = xtree_trees::generate::random_bst(n, &mut rng);
            let assignment = g.subgraph_assignment_any_n(&t);
            // Injective.
            let mut sorted = assignment.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), n, "n={n}");
            // Every guest edge on a host wire.
            assert!(g.subgraph_violations(&t, &assignment).is_empty(), "n={n}");
        }
    }

    #[test]
    fn neighborhood_edges_present_both_ways() {
        let g = UniversalGraph::new(3);
        let a = Address::parse("0").unwrap();
        for b in neighborhood::neighborhood(a, 3) {
            assert!(
                g.graph().has_edge(g.id(a, 0), g.id(b, 7)),
                "missing {a} – {b}"
            );
        }
        for b in neighborhood::inverse_only(a, 3) {
            assert!(
                g.graph().has_edge(g.id(a, 3), g.id(b, 11)),
                "missing inverse {a} – {b}"
            );
        }
    }
}
