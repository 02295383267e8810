//! Integration tests of the construction's tunables: every `EmbedOptions`
//! configuration must still produce a *valid* embedding (total, within
//! capacity, everything placed) — the switches trade quality, never
//! correctness.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree::core::theorem1::{embed_with, is_exact_size_cap, optimal_height_cap, EmbedOptions};
use xtree::core::{evaluate, theorem1};
use xtree::trees::TreeFamily;

#[test]
fn every_switch_combination_is_valid() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    let tree = TreeFamily::RandomSplit.generate(496, &mut rng);
    for adjust in [false, true] {
        for whole_moves in [false, true] {
            for fine_balance in [false, true] {
                let opts = EmbedOptions {
                    adjust,
                    whole_moves,
                    fine_balance,
                    capacity: 16,
                };
                let res = embed_with(&tree, opts);
                let s = evaluate(&tree, &res.emb);
                assert_eq!(res.emb.map.len(), 496);
                assert_eq!(s.max_load, 16, "{opts:?}");
                // Quality may degrade without the machinery, but never
                // past the host diameter.
                assert!(s.dilation <= 2 * 4 + 1, "{opts:?}: dilation {}", s.dilation);
            }
        }
    }
}

#[test]
fn capacities_fill_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    for cap in [1u16, 2, 3, 5, 8, 16, 24] {
        let n = cap as usize * ((1usize << 4) - 1); // exact size for r = 3
        assert!(is_exact_size_cap(n, cap));
        assert_eq!(optimal_height_cap(n, cap), 3);
        let tree = TreeFamily::RandomAttach.generate(n, &mut rng);
        let opts = EmbedOptions {
            capacity: cap,
            ..Default::default()
        };
        let res = embed_with(&tree, opts);
        let load = res.emb.load_vector();
        assert!(
            load.iter().all(|&c| c == u32::from(cap)),
            "cap={cap}: {load:?}"
        );
    }
}

#[test]
fn capacity_sixteen_is_where_quality_stabilises() {
    // The A2 finding as a regression test: a path guest at capacity 16
    // keeps dilation ≤ 3; at capacity 4 it degrades well beyond it.
    let r = 5u8;
    let small = embed_with(
        &xtree::trees::generate::path(4 * ((1 << (r + 1)) - 1)),
        EmbedOptions {
            capacity: 4,
            ..Default::default()
        },
    );
    let full = embed_with(
        &xtree::trees::generate::path(16 * ((1 << (r + 1)) - 1)),
        EmbedOptions {
            capacity: 16,
            ..Default::default()
        },
    );
    let t_small = xtree::trees::generate::path(4 * ((1 << (r + 1)) - 1));
    let t_full = xtree::trees::generate::path(16 * ((1 << (r + 1)) - 1));
    let d_small = evaluate(&t_small, &small.emb).dilation;
    let d_full = evaluate(&t_full, &full.emb).dilation;
    assert!(
        d_full <= 3,
        "capacity 16 must meet the paper bound, got {d_full}"
    );
    assert!(
        d_small > d_full,
        "capacity 4 ({d_small}) should be strictly worse than 16 ({d_full})"
    );
}

#[test]
fn default_options_match_plain_embed() {
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    let tree = TreeFamily::Caterpillar.generate(240, &mut rng);
    let a = theorem1::embed(&tree);
    let b = embed_with(&tree, EmbedOptions::default());
    assert_eq!(a.emb.map, b.emb.map, "embed must be embed_with(default)");
    assert_eq!(a.log, b.log);
}

#[test]
#[should_panic(expected = "capacity must be")]
fn rejects_zero_capacity() {
    let tree = xtree::trees::generate::path(4);
    let _ = embed_with(
        &tree,
        EmbedOptions {
            capacity: 0,
            ..Default::default()
        },
    );
}

#[test]
fn ablation_configs_do_not_panic_on_small_intervals() {
    // Regression (code review): with whole moves disabled, ADJUST's split
    // branch used to call Lemma 2 with Δ larger than the interval, hitting
    // the lemma's `1 ≤ Δ ≤ n` assertion.
    let tree = xtree::trees::generate::path(248);
    let res = embed_with(
        &tree,
        EmbedOptions {
            capacity: 8,
            whole_moves: false,
            ..Default::default()
        },
    );
    assert_eq!(res.emb.map.len(), 248);
    let s = evaluate(&tree, &res.emb);
    assert!(s.max_load <= 8);
}
