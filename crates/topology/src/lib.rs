//! Host interconnection networks for the SPAA'91 X-tree reproduction.
//!
//! This crate builds, from scratch, every network the paper mentions:
//!
//! * [`XTree`] — the star of the paper: a complete binary tree plus
//!   horizontal level edges (Figure 1);
//! * [`Hypercube`] — the Theorem-3 target;
//! * [`CompleteBinaryTree`] — baseline host / inorder-embedding domain;
//! * [`CubeConnectedCycles`] and [`Butterfly`] — the constant-degree
//!   hypercube derivatives the introduction contrasts X-trees with;
//! * [`Mesh2D`] — the grid, the introduction's other "common program
//!   structure" (and the other BCHLR'88 negative-result guest);
//! * [`neighborhood()`] — the `N(a)` sets of Figure 2 that drive both
//!   condition (3′) and the Theorem-4 universal graph.
//!
//! All networks expose a common [`Graph`] view backed by [`Csr`] storage,
//! plus exact distance oracles where the topology admits one.

pub mod address;
pub mod butterfly;
pub mod cbt;
pub mod ccc;
pub mod graph;
pub mod hypercube;
pub mod mesh;
pub mod neighborhood;
pub mod xtree;

pub use address::Address;
pub use butterfly::Butterfly;
pub use cbt::CompleteBinaryTree;
pub use ccc::CubeConnectedCycles;
pub use graph::{Csr, Graph};
pub use hypercube::Hypercube;
pub use mesh::Mesh2D;
pub use neighborhood::{in_neighborhood, inverse_only, neighborhood};
pub use xtree::{analytic_distance, xtree_edge_count, xtree_node_count, XTree, XTREE_MAX_HEIGHT};

/// Per-topology deterministic next-hop helpers (`O(1)` memory), re-exported
/// under one namespace for the closed-form hosts of `xtree-host`.
pub mod routing {
    pub use crate::hypercube::next_hop_towards as hypercube_next_hop;
    pub use crate::xtree::next_hop_towards as xtree_next_hop;
}
