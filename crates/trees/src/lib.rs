//! Guest binary trees for the SPAA'91 X-tree reproduction: the tree arena,
//! workload generators, and the paper's separator lemmas.
//!
//! The separator lemmas ([`separator::lemma1`], [`separator::lemma2`]) are
//! the combinatorial engine behind Theorem 1: they peel off sub-forests of
//! near-prescribed size while only ever exposing boundary sets of ≤ 4–5
//! nodes, each remaining fragment again having at most two *designated*
//! nodes (an "interval").

pub mod generate;
pub mod paramtest;
pub mod separator;
pub mod tree;

pub use generate::{theorem1_size, theorem3_size, TreeFamily, DEFAULT_SKEW_BIAS};
pub use separator::{
    check_separation, lemma1, lemma1_with, lemma2, lemma2_boundary, lemma2_with, Boundary,
    Separation, SeparatorScratch, SubtreeIndex,
};
pub use tree::{Adjacency, BinaryTree, NodeId};
