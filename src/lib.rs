//! # xtree — Simulating Binary Trees on X-Trees
//!
//! A production-quality reproduction of **B. Monien, "Simulating Binary
//! Trees on X-Trees (Extended Abstract)", SPAA 1991**: embedding arbitrary
//! binary trees into X-trees with constant dilation and optimal expansion,
//! plus every substrate the paper touches (host networks, separator
//! lemmas, hypercube embeddings, the degree-415 universal graph, and a
//! cycle-accurate network simulator).
//!
//! ## Quickstart
//!
//! ```
//! use xtree::prelude::*;
//! use rand::SeedableRng;
//!
//! // A random binary tree of the exact Theorem-1 size for height r = 3.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let n = xtree::trees::theorem1_size(3); // 16 · (2^4 − 1) = 240
//! let tree = TreeFamily::RandomBst.generate(n, &mut rng);
//!
//! // Theorem 1: load 16, dilation ≤ 3, optimal expansion.
//! let t1 = xtree::core::embed_theorem1(&tree);
//! let stats = xtree::core::evaluate(&tree, &t1.emb);
//! assert!(stats.dilation <= 3);
//! assert_eq!(stats.max_load, 16);
//! ```
//!
//! The four theorems map to:
//! * [`core::theorem1::embed`] — algorithm X-TREE;
//! * [`core::theorem2::injectivize`] — injective, dilation ≤ 11;
//! * [`core::hypercube::embed_theorem3`] / `embed_corollary8` — hypercube;
//! * [`core::universal::UniversalGraph`] — the degree-415 universal graph.

pub use xtree_core as core;
pub use xtree_sim as sim;
pub use xtree_topology as topology;
pub use xtree_trees as trees;

/// The most common imports in one place.
pub mod prelude {
    pub use xtree_core::{
        evaluate, hypercube::embed_theorem3, theorem1::embed as embed_theorem1,
        theorem2::injectivize, EmbeddingStats, QEmbedding, XEmbedding,
    };
    pub use xtree_sim::{
        simulate_all, FaultPlan, FaultState, Host, HypercubeHost, SimError, TableHost, XTreeHost,
    };
    pub use xtree_topology::{Address, Graph, Hypercube, XTree};
    pub use xtree_trees::{BinaryTree, NodeId, TreeFamily};
}
