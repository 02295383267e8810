//! The complete binary tree `B_r` — the X-tree without its horizontal
//! edges. Used as a baseline host and by the inorder hypercube embedding.

use crate::address::Address;
use crate::graph::{Csr, Graph};

/// The complete binary tree of height `r`, vertices in heap order.
#[derive(Clone, Debug)]
pub struct CompleteBinaryTree {
    height: u8,
    graph: Csr,
}

impl CompleteBinaryTree {
    /// Builds `B_r`.
    pub fn new(height: u8) -> Self {
        assert!(
            height <= 24,
            "tree of height {height} would not fit in memory"
        );
        let n = (1usize << (height + 1)) - 1;
        let mut edges = Vec::with_capacity(n - 1);
        for a in Address::all_up_to(height) {
            if a.level() < height {
                edges.push((a.heap_id() as u32, a.child(0).heap_id() as u32));
                edges.push((a.heap_id() as u32, a.child(1).heap_id() as u32));
            }
        }
        CompleteBinaryTree {
            height,
            graph: Csr::from_edges(n, &edges),
        }
    }

    /// The height `r`.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Exact distance: up to the LCA and back down (no search needed).
    pub fn distance(&self, a: Address, b: Address) -> u32 {
        a.tree_distance(b)
    }

    /// Underlying CSR graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }
}

impl Graph for CompleteBinaryTree {
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
    fn counts_and_connectivity() {
        for r in 0..=8u8 {
            let t = CompleteBinaryTree::new(r);
            assert_eq!(t.node_count(), (1 << (r + 1)) - 1);
            assert_eq!(t.edge_count(), t.node_count() - 1);
            assert!(t.graph().is_connected());
        }
    }

    #[test]
    fn analytic_distance_matches_bfs() {
        let t = CompleteBinaryTree::new(4);
        let src = Address::parse("0110").unwrap();
        let d = t.graph().bfs(src.heap_id());
        for v in 0..t.node_count() {
            assert_eq!(
                d[v],
                t.distance(src, Address::from_heap_id(v)),
                "vertex {v}"
            );
        }
    }

    #[test]
    fn diameter_is_2r() {
        for r in 0..=6u8 {
            assert_eq!(
                CompleteBinaryTree::new(r).graph().diameter(),
                2 * u32::from(r)
            );
        }
    }

    #[test]
    fn degree_at_most_three() {
        let t = CompleteBinaryTree::new(6);
        assert_eq!(t.max_degree(), 3);
        assert_eq!(t.degree(0), 2); // root
    }
}
