//! Theorem 3 and its corollary: hypercube embeddings obtained by routing
//! the Theorem-1 X-tree embedding through the Lemma-3 map.
//!
//! * **Theorem 3** — a binary tree with `n = 16·(2^r − 1)` nodes embeds
//!   into its optimal hypercube `Q_r` with load 16 and dilation 4: embed
//!   into `X(r−1)` with dilation 3 (Theorem 1), then apply Lemma 3, whose
//!   distortion is +1.
//! * **Corollary** — every binary tree with at most `2^r − 16` nodes embeds
//!   *injectively* into `Q_r` with dilation 8: give each of the ≤ 16 nodes
//!   sharing a `Q_{r−4}` vertex a distinct 4-bit suffix; each guest edge
//!   then pays ≤ 4 (cube part) + 4 (suffix part).

use crate::embedding::{QEmbedding, XEmbedding};
use crate::hypercube::lemma3::lemma3_label;
use crate::theorem1;
use xtree_topology::Address;
use xtree_trees::BinaryTree;

/// Theorem 3 end to end: embeds a binary tree with `n = 16·(2^r − 1)`
/// nodes into its optimal hypercube `Q_r` with load ≤ 16 and (per the
/// paper) dilation ≤ 4. Non-exact sizes use the same pipeline with the
/// smallest host that fits at load 16.
pub fn embed_theorem3(tree: &BinaryTree) -> QEmbedding {
    let t1 = theorem1::embed(tree);
    compose_with_lemma3(&t1.emb)
}

/// The corollary of Theorem 3: embeds any binary tree with at most
/// `2^r − 16` nodes *injectively* into `Q_r` with dilation ≤ 8
/// (`r = height of the optimal load-16 X-tree + 5`).
pub fn embed_corollary8(tree: &BinaryTree) -> QEmbedding {
    injectivize_by_suffix(&embed_theorem3(tree))
}

/// Composes an X-tree embedding with the Lemma-3 map, producing a hypercube
/// embedding of dimension `height + 1` whose dilation is at most the
/// X-tree dilation + 1 and whose load is unchanged.
pub fn compose_with_lemma3(emb: &XEmbedding) -> QEmbedding {
    let r = emb.height;
    QEmbedding {
        dim: r + 1,
        map: emb
            .map
            .iter()
            .map(|&id| lemma3_label(Address::from_heap_id(id as usize), r))
            .collect(),
    }
}

/// Injectivises a hypercube embedding with load ≤ 16 by appending a
/// distinct 4-bit suffix per co-located guest node (the corollary's
/// construction). Dilation grows by at most 4.
///
/// # Panics
/// Panics if some vertex carries more than 16 guest nodes.
pub fn injectivize_by_suffix(emb: &QEmbedding) -> QEmbedding {
    let mut used = vec![0u8; emb.host_len()];
    let map = emb
        .map
        .iter()
        .map(|&x| {
            let slot = used[x as usize];
            assert!(slot < 16, "load exceeds 16 at vertex {x:#b}");
            used[x as usize] += 1;
            (x << 4) | u64::from(slot)
        })
        .collect();
    QEmbedding {
        dim: emb.dim + 4,
        map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_trees::generate;

    /// A hand-made load-16 X-tree embedding: nodes in heap-ish blocks.
    fn blocky_embedding(r: u8, n: usize) -> XEmbedding {
        let host_len = (1usize << (r + 1)) - 1;
        assert!(n <= host_len * 16);
        XEmbedding {
            height: r,
            map: (0..n).map(|i| (i / 16) as u32).collect(),
        }
    }

    #[test]
    fn composition_adds_at_most_one() {
        // Guest = left-complete tree in heap order on X(3) (dilation 1):
        // composed dilation ≤ 2.
        let t = generate::left_complete(15);
        let x = crate::metrics::heap_order_embedding(&t, 3);
        let q = compose_with_lemma3(&x);
        assert_eq!(q.dim, 4);
        assert!(q.dilation(&t) <= 2);
        assert!(q.is_injective());
    }

    #[test]
    fn composition_preserves_load() {
        let _ = generate::path(240);
        let x = blocky_embedding(3, 240);
        let q = compose_with_lemma3(&x);
        assert_eq!(q.max_load(), 16);
        assert_eq!(q.host_len(), 16);
        assert!((q.expansion() - 16.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn suffix_injectivization() {
        let t = generate::path(240);
        let x = blocky_embedding(3, 240);
        let q = compose_with_lemma3(&x);
        let inj = injectivize_by_suffix(&q);
        assert_eq!(inj.dim, 8);
        assert!(inj.is_injective());
        // Dilation grows by at most 4.
        assert!(inj.dilation(&t) <= q.dilation(&t) + 4);
        // Optimal hypercube: 240 ≤ 2^8 = 256 = 2^8, and 2^7 < 240.
        assert_eq!(inj.host_len(), 256);
    }

    #[test]
    #[should_panic(expected = "load exceeds 16")]
    fn suffix_rejects_load_17() {
        let q = QEmbedding {
            dim: 1,
            map: vec![0; 17],
        };
        let _ = injectivize_by_suffix(&q);
    }

    #[test]
    fn theorem3_end_to_end() {
        // n = 16·(2^4 − 1) = 240 into Q_4: load 16, dilation ≤ 4.
        let t = generate::caterpillar(240);
        let q = embed_theorem3(&t);
        assert_eq!(q.dim, 4);
        assert_eq!(q.max_load(), 16);
        assert!(q.dilation(&t) <= 4, "dilation {}", q.dilation(&t));
    }

    #[test]
    fn corollary_dilation8_end_to_end() {
        // n = 240 = 2^8 − 16 into Q_8, injective, dilation ≤ 8.
        let t = generate::broom(240);
        let q = embed_corollary8(&t);
        assert_eq!(q.dim, 8);
        assert!(q.is_injective());
        assert!(q.dilation(&t) <= 8, "dilation {}", q.dilation(&t));
    }
}
