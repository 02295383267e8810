//! Integration sweep: every theorem's bound, across tree families, host
//! sizes, and seeds. This is the repo's end-to-end statement that the
//! paper's claims hold for the implementation.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree::core::{evaluate, hypercube, theorem1, theorem2, universal::UniversalGraph};
use xtree::topology::Graph;
use xtree::trees::{theorem1_size, theorem3_size, TreeFamily};

#[test]
fn theorem1_bounds_across_families_and_heights() {
    let mut rng = ChaCha8Rng::seed_from_u64(71);
    for r in 1..=6u8 {
        for family in TreeFamily::ALL {
            let tree = family.generate(theorem1_size(r), &mut rng);
            let res = theorem1::embed(&tree);
            let s = evaluate(&tree, &res.emb);
            assert!(
                s.dilation <= 3,
                "r={r} {family:?}: dilation {} > 3",
                s.dilation
            );
            assert_eq!(s.max_load, 16, "r={r} {family:?}");
            // Optimal expansion: host is the smallest X-tree at load 16.
            assert_eq!(res.emb.host_len() * 16, tree.len(), "r={r} {family:?}");
            assert_eq!(s.condition3_violations, 0, "r={r} {family:?}");
            assert_eq!(s.condition4_violations, 0, "r={r} {family:?}");
        }
    }
}

/// The sampled guest with the largest measured dilations, which README's
/// "Results at a glance" names: `xtree-cli embed --family skewed:240
/// --nodes 1008 --seed 11` (add `--target xtree-injective` for Theorem 2).
#[test]
fn the_skewed_dilation_3_guest_stays_within_both_bounds() {
    let family = TreeFamily::parse("skewed:240").unwrap();
    let tree = family.generate_seeded(1008, 11);
    let base = theorem1::embed(&tree).emb;
    let s = evaluate(&tree, &base);
    assert_eq!(s.dilation, 3);
    assert_eq!(s.dilation_histogram, [830, 120, 56, 1]);
    assert_eq!(s.max_load, 16);
    assert_eq!(s.condition3_violations, 0);
    assert_eq!(s.condition4_violations, 0);
    let inj = evaluate(&tree, &theorem2::injectivize(&base));
    assert!(inj.injective);
    assert_eq!(inj.dilation, 10);
}

#[test]
fn theorem2_bounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for r in 1..=5u8 {
        for family in [
            TreeFamily::Path,
            TreeFamily::RandomBst,
            TreeFamily::RandomAttach,
        ] {
            let tree = family.generate(theorem1_size(r), &mut rng);
            let base = theorem1::embed(&tree).emb;
            let inj = theorem2::injectivize(&base);
            let s = evaluate(&tree, &inj);
            assert!(s.injective, "r={r} {family:?}");
            assert!(
                s.dilation <= 11,
                "r={r} {family:?}: dilation {}",
                s.dilation
            );
            assert_eq!(inj.height, base.height + 4);
        }
    }
}

#[test]
fn theorem3_and_corollary_bounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for r in 2..=6u8 {
        for family in [
            TreeFamily::Caterpillar,
            TreeFamily::RandomSplit,
            TreeFamily::Broom,
        ] {
            let tree = family.generate(theorem3_size(r), &mut rng);
            let q = hypercube::embed_theorem3(&tree);
            assert_eq!(q.dim, r, "optimal hypercube");
            assert!(q.max_load() <= 16);
            assert!(
                q.dilation(&tree) <= 4,
                "r={r} {family:?}: {}",
                q.dilation(&tree)
            );

            let q8 = hypercube::embed_corollary8(&tree);
            assert_eq!(q8.dim, r + 4);
            assert!(q8.is_injective());
            assert!(
                q8.dilation(&tree) <= 8,
                "r={r} {family:?}: {}",
                q8.dilation(&tree)
            );
        }
    }
}

#[test]
fn theorem4_universal_graph() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for r in 1..=4u8 {
        let g = UniversalGraph::new(r);
        assert!(g.graph().max_degree() <= 415);
        let n = theorem1_size(r);
        assert_eq!(g.graph().node_count(), n);
        for family in TreeFamily::ALL {
            let tree = family.generate(n, &mut rng);
            let emb = theorem1::embed(&tree).emb;
            let assignment = g.slot_assignment(&emb);
            assert!(
                g.subgraph_violations(&tree, &assignment).is_empty(),
                "r={r} {family:?} not a spanning subgraph"
            );
        }
    }
}

#[test]
fn delta_trace_respects_paper_bounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for family in [TreeFamily::Path, TreeFamily::RandomBst] {
        let r = 6u8;
        let tree = family.generate(theorem1_size(r), &mut rng);
        let res = theorem1::embed(&tree);
        for (idx, row) in res.trace.iter().enumerate() {
            let i = idx as u8 + 1;
            for (j, &measured) in row.iter().enumerate() {
                if let Some(bound) = theorem1::paper_bound(r, j as u8, i) {
                    assert!(
                        measured <= bound,
                        "{family:?}: Δ({j}, {i}) = {measured} > paper bound {bound}"
                    );
                }
            }
        }
    }
}
