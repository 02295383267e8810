//! Byte-identical contract of the rebuilt Theorem-1 hot path: the refactor
//! (flat SoA interval storage, scratch reuse, two-phase ADJUST) must emit
//! *exactly* the embeddings of the frozen pre-refactor builder — same map,
//! same Δ trace, same mechanism counters, same mass trace.
//!
//! The reference lives in `xtree_bench::legacy_theorem1`, a verbatim copy
//! of the builder as it stood before the rewrite, with the
//! orientation-based separator lemmas it called frozen beside it. This
//! test drives both over seeded trees at X(6)–X(10): the first eight
//! families at X(6), spot checks at the larger sizes (broom, leaning,
//! uniform and skewed guests at X(9)), and — for the new builder — a fresh
//! scratch and a reused one, both of which must agree.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree_bench::legacy_theorem1::embed_legacy;
use xtree_core::theorem1::{
    embed_with, embed_with_scratch, EmbedOptions, Theorem1Embedding, Theorem1Scratch,
};
use xtree_trees::generate::{theorem1_size, TreeFamily};

fn assert_same(label: &str, new: &Theorem1Embedding, old: &Theorem1Embedding) {
    assert_eq!(new.emb, old.emb, "{label}: embedding differs");
    assert_eq!(new.trace, old.trace, "{label}: Δ trace differs");
    assert_eq!(new.log, old.log, "{label}: build log differs");
    assert_eq!(
        new.mass_trace, old.mass_trace,
        "{label}: mass trace differs"
    );
}

#[test]
fn new_builder_matches_legacy_in_every_mode() {
    let cases: &[(usize, u8, u64)] = &[
        (0, 6, 0xA11CE),
        (1, 6, 0xA11CE),
        (2, 6, 0xA11CE),
        (3, 6, 0xA11CE),
        (4, 6, 0xA11CE),
        (5, 6, 0xA11CE),
        (6, 6, 0xA11CE),
        (7, 6, 0xA11CE),
        (4, 7, 0xBEEF),
        (6, 7, 0xBEEF),
        (4, 8, 0xCAFE),
        (5, 8, 0xCAFE),
        (4, 9, 0xD00D),
        (4, 10, 0xE66),
        // Guests whose pieces stay long, where Lemma 2 carries most of a
        // build.
        (3, 9, 0xD00D),
        (7, 9, 0xD00D),
        (9, 9, 0xD00D),
        (11, 9, 0xD00D),
    ];
    // One scratch across every case: reuse across differing sizes is part
    // of the contract (the serving pool hands one scratch many trees).
    let mut scratch = Theorem1Scratch::new();
    for &(f, r, seed) in cases {
        let family = TreeFamily::ALL[f];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tree = family.generate(theorem1_size(r), &mut rng);
        let old = embed_legacy(&tree, EmbedOptions::default());

        let serial = EmbedOptions::default();
        let label = format!("{family:?} X({r})");
        assert_same(&format!("{label} serial"), &embed_with(&tree, serial), &old);
        assert_same(
            &format!("{label} reused scratch"),
            &embed_with_scratch(&tree, serial, &mut scratch),
            &old,
        );
        assert_same(
            &format!("{label} reused scratch again"),
            &embed_with_scratch(&tree, serial, &mut scratch),
            &old,
        );
    }
}
