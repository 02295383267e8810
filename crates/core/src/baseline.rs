//! Baseline embeddings the benchmark harness compares Theorem 1 against.
//!
//! The paper's introduction argues that *naïve* layouts cannot achieve
//! constant dilation for arbitrary binary trees; these baselines make that
//! claim measurable:
//!
//! * [`level_order`] — guest BFS levels onto host levels, 16 per vertex:
//!   natural for complete trees, hopeless for deep ones;
//! * [`dfs_order`] — guest preorder onto host heap order, 16 per vertex:
//!   keeps subtrees contiguous but pays at subtree boundaries;
//! * [`random_assignment`] — uniformly random load-balanced placement: the
//!   no-structure control.

use crate::embedding::XEmbedding;
use rand::seq::SliceRandom;
use rand::Rng;
use xtree_trees::{BinaryTree, NodeId};

/// Height of the optimal X-tree host for `n` guest nodes at load ≤ 16 —
/// the same host-sizing rule the Theorem-1 construction uses, so the
/// baselines always compete on an identical host.
pub fn optimal_height(n: usize) -> u8 {
    crate::theorem1::optimal_height(n)
}

/// BFS the guest tree and fill host vertices level by level, left to
/// right, 16 guest nodes per host vertex.
pub fn level_order(tree: &BinaryTree) -> XEmbedding {
    let r = optimal_height(tree.len());
    let mut order = Vec::with_capacity(tree.len());
    let mut queue = std::collections::VecDeque::from([tree.root()]);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for c in tree.children(v) {
            queue.push_back(c);
        }
    }
    place_in_order(tree, &order, r)
}

/// Preorder the guest tree and fill host vertices in heap order, 16 guest
/// nodes per host vertex.
pub fn dfs_order(tree: &BinaryTree) -> XEmbedding {
    let r = optimal_height(tree.len());
    let order = tree.preorder();
    place_in_order(tree, &order, r)
}

/// Uniformly random load-balanced placement (host slots shuffled).
pub fn random_assignment<R: Rng + ?Sized>(tree: &BinaryTree, rng: &mut R) -> XEmbedding {
    let r = optimal_height(tree.len());
    let host_len = (1u32 << (r + 1)) - 1;
    let mut slots: Vec<u32> = (0..host_len)
        .flat_map(|h| std::iter::repeat_n(h, 16))
        .collect();
    slots.shuffle(rng);
    slots.truncate(tree.len());
    XEmbedding {
        height: r,
        map: slots,
    }
}

/// Fills host vertices in heap order, 16 guest nodes of `order` each.
fn place_in_order(tree: &BinaryTree, order: &[NodeId], r: u8) -> XEmbedding {
    assert_eq!(order.len(), tree.len());
    let mut map = vec![0u32; tree.len()];
    for (i, &v) in order.iter().enumerate() {
        map[v.index()] = (i / 16) as u32;
    }
    XEmbedding { height: r, map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xtree_trees::generate;

    #[test]
    fn optimal_height_thresholds() {
        assert_eq!(optimal_height(1), 0);
        assert_eq!(optimal_height(16), 0);
        assert_eq!(optimal_height(17), 1);
        assert_eq!(optimal_height(48), 1);
        assert_eq!(optimal_height(49), 2);
        assert_eq!(optimal_height(240), 3);
    }

    #[test]
    fn all_baselines_are_total_and_bounded_load() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [16usize, 48, 100, 240] {
            let t = generate::random_bst(n, &mut rng);
            for e in [
                level_order(&t),
                dfs_order(&t),
                random_assignment(&t, &mut rng),
            ] {
                assert_eq!(e.map.len(), n);
                assert!(e.max_load() <= 16);
                e.validate();
                // Optimal expansion: the host is the smallest possible.
                assert!(
                    e.host_len() * 16 >= n && (e.host_len() == 1 || (e.host_len() / 2) * 16 < n)
                );
            }
        }
    }

    #[test]
    fn level_order_is_mediocre_even_for_complete_trees() {
        // 16-per-vertex blocking misaligns guest and host levels; even the
        // friendliest guest pays a constant-but-noticeable dilation.
        let t = generate::left_complete(240);
        let s = evaluate(&t, &level_order(&t));
        assert!(
            (2..=6).contains(&s.dilation),
            "complete tree level-order dilation {}",
            s.dilation
        );
    }

    #[test]
    fn level_order_degrades_on_paths() {
        // A path of 16·(2^5−1)... choose n = 496: BFS order IS the path
        // order; consecutive 16-blocks land on consecutive heap vertices,
        // and heap-adjacent vertices get far apart in the X-tree.
        let t = generate::path(496);
        let s = evaluate(&t, &level_order(&t));
        assert!(
            s.dilation >= 3,
            "expected nontrivial dilation, got {}",
            s.dilation
        );
    }

    #[test]
    fn random_is_terrible() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = generate::random_bst(496, &mut rng);
        let s = evaluate(&t, &random_assignment(&t, &mut rng));
        // Random placement pays about the diameter.
        assert!(s.dilation >= 5, "random dilation only {}", s.dilation);
    }
}
