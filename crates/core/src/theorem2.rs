//! Theorem 2: the injective embedding.
//!
//! Given the Theorem-1 embedding `δ` (load 16, dilation 3) into `X(r)`,
//! define `χ(u) = δ(u) · μ` in `X(r + 4)`, where the 16 guest nodes sharing
//! a host vertex receive the 16 distinct 4-bit suffixes `μ`. For a guest
//! edge, the images are connected by climbing 4 levels, following the
//! length-≤3 `δ` path, and descending 4 levels: dilation `4 + 3 + 4 = 11`.
//!
//! The transform is generic: any load-≤16 embedding with dilation `d`
//! becomes an injective embedding into `X(r+4)` with dilation ≤ `d + 8`.

use crate::embedding::XEmbedding;
use xtree_topology::Address;

/// Blows up each host vertex of a load-≤16 embedding into the 16 depth-4
/// descendants, yielding an injective embedding into `X(height + 4)`.
///
/// # Panics
/// Panics if some host vertex carries more than 16 guest nodes.
pub fn injectivize(emb: &XEmbedding) -> XEmbedding {
    let mut used = vec![0u8; emb.host_len()];
    let map = emb
        .map
        .iter()
        .map(|&id| {
            let a = Address::from_heap_id(id as usize);
            let slot = used[id as usize];
            assert!(slot < 16, "load exceeds 16 at vertex {a}");
            used[id as usize] += 1;
            // Append the 4-bit suffix: two levels of child(bit) twice.
            let mut b = a;
            for k in (0..4).rev() {
                b = b.child((slot >> k) & 1);
            }
            b.heap_id() as u32
        })
        .collect();
    XEmbedding {
        height: emb.height + 4,
        map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate, heap_order_embedding};
    use xtree_trees::{generate, NodeId};

    #[test]
    fn becomes_injective() {
        // All 32 nodes of a path on one X(1) vertex pair, load 16.
        let _ = generate::path(32);
        let a0 = Address::parse("0").unwrap().heap_id() as u32;
        let a1 = Address::parse("1").unwrap().heap_id() as u32;
        let mut map = vec![a0; 16];
        map.extend(vec![a1; 16]);
        let e = XEmbedding { height: 1, map };
        let inj = injectivize(&e);
        assert_eq!(inj.height, 5);
        assert!(inj.is_injective());
        inj.validate();
    }

    #[test]
    fn images_stay_below_original() {
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let inj = injectivize(&e);
        for v in t.nodes() {
            let (a, b) = (e.image(v), inj.image(v));
            assert_eq!(b.level(), a.level() + 4);
            assert!(a.is_ancestor_of(b), "{a} not an ancestor of {b}");
        }
    }

    #[test]
    fn dilation_grows_by_at_most_eight() {
        // Heap-order complete tree has dilation 1; the blown-up embedding
        // must stay ≤ 9 (and in fact much lower since suffixes are near).
        let t = generate::left_complete(31);
        let e = heap_order_embedding(&t, 4);
        let base = evaluate(&t, &e);
        let inj = injectivize(&e);
        let s = evaluate(&t, &inj);
        assert!(s.injective);
        assert!(
            s.dilation <= base.dilation + 8,
            "dilation {} > {} + 8",
            s.dilation,
            base.dilation
        );
    }

    #[test]
    fn distinct_suffixes_per_vertex() {
        let map = vec![0; 16];
        let e = XEmbedding { height: 0, map };
        let inj = injectivize(&e);
        let mut suffixes: Vec<u64> = (0..16)
            .map(|v| inj.image(NodeId(v)).index() & 0xf)
            .collect();
        suffixes.sort_unstable();
        assert_eq!(suffixes, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "load exceeds 16")]
    fn rejects_load_17() {
        let e = XEmbedding {
            height: 0,
            map: vec![0; 17],
        };
        let _ = injectivize(&e);
    }
}
