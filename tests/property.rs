//! Property-based tests over randomly generated binary trees: the
//! Theorem-1 pipeline must uphold its invariants for *every* shape, not
//! just the curated families.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree::core::{evaluate, theorem1, theorem2};
use xtree::trees::{BinaryTree, TreeFamily};

/// Strategy: a binary tree of `n` nodes from a random family and seed.
fn arb_tree(max_n: usize) -> impl Strategy<Value = BinaryTree> {
    (1..=max_n, any::<u64>(), 0..TreeFamily::ALL.len()).prop_map(|(n, seed, f)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TreeFamily::ALL[f].generate(n, &mut rng)
    })
}

/// Strategy: a tree of exactly the Theorem-1 size for height `r ≤ 4`.
fn arb_exact_tree() -> impl Strategy<Value = BinaryTree> {
    (1u8..=4, any::<u64>(), 0..TreeFamily::ALL.len()).prop_map(|(r, seed, f)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TreeFamily::ALL[f].generate(xtree::trees::theorem1_size(r), &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theorem1_invariants_hold_for_any_tree(tree in arb_tree(600)) {
        let res = theorem1::embed(&tree);
        let s = evaluate(&tree, &res.emb);
        // Total map, bounded load, optimal host, no stranded nodes.
        prop_assert_eq!(res.emb.map.len(), tree.len());
        prop_assert!(s.max_load <= 16);
        prop_assert!(res.emb.host_len() * 16 >= tree.len());
        prop_assert!(res.emb.host_len() == 1
            || ((res.emb.host_len() - 1) / 2) * 16 < tree.len());
        // Constant dilation, tree of any shape.
        prop_assert!(s.dilation <= 3, "dilation {}", s.dilation);
        prop_assert_eq!(s.condition4_violations, 0);
    }

    #[test]
    fn exact_sizes_fill_every_vertex(tree in arb_exact_tree()) {
        let res = theorem1::embed(&tree);
        let load = res.emb.load_vector();
        prop_assert!(load.iter().all(|&c| c == 16));
        let s = evaluate(&tree, &res.emb);
        prop_assert!(s.dilation <= 3);
        prop_assert_eq!(s.condition3_violations, 0);
    }

    #[test]
    fn injectivization_is_injective_and_close(tree in arb_tree(500)) {
        let base = theorem1::embed(&tree).emb;
        let inj = theorem2::injectivize(&base);
        prop_assert!(inj.is_injective());
        let s = evaluate(&tree, &inj);
        prop_assert!(s.dilation <= 11, "dilation {}", s.dilation);
        // Every image sits exactly four levels below its base image.
        for v in tree.nodes() {
            let (a, b) = (base.image(v), inj.image(v));
            prop_assert_eq!(b.level(), a.level() + 4);
            prop_assert!(a.is_ancestor_of(b));
        }
    }

    #[test]
    fn hypercube_route_bounds(tree in arb_tree(400)) {
        let q = xtree::core::hypercube::embed_theorem3(&tree);
        prop_assert!(q.max_load() <= 16);
        prop_assert!(q.dilation(&tree) <= 4, "dilation {}", q.dilation(&tree));
        let q8 = xtree::core::hypercube::embed_corollary8(&tree);
        prop_assert!(q8.is_injective());
        prop_assert!(q8.dilation(&tree) <= 8);
    }
}
