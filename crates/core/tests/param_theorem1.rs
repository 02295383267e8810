//! Parametric verification of the Theorem-1 construction on the
//! printed-seed harness ([`xtree_trees::paramtest`]): arbitrary guests
//! across every generator family must embed with the paper's guarantees,
//! and the rebuilt hot path must be *path-independent* — the same
//! embedding whether the scratch is fresh or reused.
//!
//! Each iteration prints its seed before running; a failure reproduces
//! with `XTREE_PARAM_SEED=<seed> cargo test -p xtree-core --test
//! param_theorem1 <name>`.

use rand::Rng;
use xtree_core::theorem1::{self, optimal_height, EmbedOptions, Theorem1Scratch};
use xtree_core::{evaluate, XEmbedding};
use xtree_trees::paramtest::{arbitrary_tree, start_parametric_test};

const ITERS: usize = 48;

/// Everything Theorem 1 promises about one embedding.
fn assert_theorem1_invariants(tree: &xtree_trees::BinaryTree, emb: &XEmbedding) {
    assert_eq!(emb.guest_len(), tree.len(), "every guest node placed");
    assert_eq!(emb.height, optimal_height(tree.len()), "optimal host");
    let stats = evaluate(tree, emb);
    assert!(stats.max_load <= 16, "load {} > 16", stats.max_load);
    assert!(stats.dilation <= 3, "dilation {} > 3", stats.dilation);
    assert_eq!(stats.condition4_violations, 0, "condition (4) violated");
}

#[test]
fn embeddings_satisfy_theorem1_for_arbitrary_guests() {
    start_parametric_test(
        "embeddings_satisfy_theorem1_for_arbitrary_guests",
        &[],
        ITERS,
        |rng| {
            let tree = arbitrary_tree(rng, 1200);
            let res = theorem1::embed(&tree);
            assert_theorem1_invariants(&tree, &res.emb);
        },
    );
}

#[test]
fn scratch_reuse_and_parallel_mode_are_path_independent() {
    // One scratch survives the whole stream, crossing sizes and families —
    // exactly the serving worker's lifetime. Every build through it must
    // equal a fresh-scratch build. Each iteration builds twice through
    // it, so the recorded seed below still replays its build sequence.
    let mut scratch = Theorem1Scratch::new();
    // 0x5f09739c573468aa: third build of the stream — a small build after
    // a larger one tripped an out-of-bounds `att_mass` index in the debug
    // round checker (the deterministic stream replays the sequence).
    start_parametric_test(
        "scratch_reuse_and_parallel_mode_are_path_independent",
        &[0x5f09_739c_5734_68aa],
        ITERS,
        |rng| {
            let tree = arbitrary_tree(rng, 1200);
            let opts = EmbedOptions::default();
            let fresh = theorem1::embed_with(&tree, opts);
            let reused = theorem1::embed_with_scratch(&tree, opts, &mut scratch);
            let again = theorem1::embed_with_scratch(&tree, opts, &mut scratch);
            assert_eq!(fresh.emb, reused.emb, "scratch reuse changed the embedding");
            assert_eq!(fresh.log, reused.log, "scratch reuse changed the log");
            assert_eq!(fresh.trace, reused.trace, "scratch reuse changed the trace");
            assert_eq!(fresh.emb, again.emb, "a second reuse changed the embedding");
            assert_eq!(fresh.log, again.log, "a second reuse changed the log");
        },
    );
}

#[test]
fn ablated_builds_still_embed_validly() {
    // Switching mechanisms off may cost quality, never validity: all
    // nodes placed on the optimal host within the capacity.
    start_parametric_test("ablated_builds_still_embed_validly", &[], ITERS, |rng| {
        let tree = arbitrary_tree(rng, 600);
        let opts = EmbedOptions {
            adjust: rng.random_bool(0.5),
            whole_moves: rng.random_bool(0.5),
            fine_balance: rng.random_bool(0.5),
            ..Default::default()
        };
        let res = theorem1::embed_with(&tree, opts);
        assert_eq!(res.emb.guest_len(), tree.len());
        assert_eq!(res.emb.height, optimal_height(tree.len()));
        let stats = evaluate(&tree, &res.emb);
        assert!(stats.max_load <= 16, "load {} > 16", stats.max_load);
    });
}
