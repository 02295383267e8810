//! Theorem 1 — algorithm X-TREE: embedding an arbitrary binary tree with
//! `n = 16·(2^{r+1} − 1)` nodes into the X-tree `X(r)` with load factor 16
//! and (per the paper) dilation 3 at optimal expansion.
//!
//! The construction builds the embedding level by level. Round `i` first
//! runs ADJUST on every sibling pair of regions (shifting interval mass
//! across horizontal boundary edges, guided by Lemma 2) and then SPLIT
//! on every level-(i−1) vertex (distributing intervals over its children,
//! laying out due designated nodes, and filling every level-i vertex to
//! exactly 16 guest nodes). See the module docs of `adjust` and `split`
//! for the procedure details and the documented deviations from the
//! extended abstract's (partly omitted) bookkeeping.
//!
//! The builder measures everything the paper claims: the resulting
//! dilation and load come from [`crate::metrics::evaluate`]; the
//! convergence quantity Δ(j, i) is traced per round; and the
//! [`BuildLog`] exposes how often each mechanism (whole moves, splits,
//! spills, borrows) fired.

mod adjust;
mod split;
mod state;
mod trace;

pub use state::{BuildLog, EmbedOptions, Theorem1Scratch};
pub use trace::paper_bound;

use crate::embedding::XEmbedding;
use state::Builder;
use xtree_trees::BinaryTree;

/// The Theorem-1 construction result: the embedding plus its measured
/// convergence trace and construction log.
#[derive(Clone, Debug)]
pub struct Theorem1Embedding {
    /// The produced embedding (host = optimal X-tree for load 16).
    pub emb: XEmbedding,
    /// `trace[i][j] = Δ(j, i+1)`… indexed `trace[i-1][j]` for round `i`.
    pub trace: Vec<Vec<u64>>,
    /// Mechanism counters.
    pub log: BuildLog,
    /// `(nl, nh)` per round: extreme associated masses over the round's
    /// leaves (the paper's `nl(i,i)` / `nh(i,i)`).
    pub mass_trace: Vec<(u64, u64)>,
}

/// The height of the optimal X-tree host for `n` guest nodes at load 16.
pub fn optimal_height(n: usize) -> u8 {
    optimal_height_cap(n, 16)
}

/// The optimal host height at an arbitrary per-vertex capacity: the
/// smallest `r` with `cap·(2^{r+1} − 1) ≥ n`. Rearranging,
/// `2^{r+1} ≥ ⌈n/cap⌉ + 1`, whose smallest solution is `r = ⌊log₂ q⌋`
/// for `q = ⌈n/cap⌉ ≥ 2` (and `r = 0` below that) — O(1) instead of the
/// old linear probe loop (pinned against it by a unit test over 1..=2^20).
pub fn optimal_height_cap(n: usize, cap: u16) -> u8 {
    let q = n.div_ceil(cap as usize);
    if q <= 1 {
        0
    } else {
        q.ilog2() as u8
    }
}

/// True if `n` is one of the sizes `16·(2^{r+1} − 1)` for which Theorem 1
/// is stated (load exactly 16 on every host vertex, optimal expansion).
pub fn is_exact_size(n: usize) -> bool {
    is_exact_size_cap(n, 16)
}

/// Exact-size check at an arbitrary capacity.
pub fn is_exact_size_cap(n: usize, cap: u16) -> bool {
    n == cap as usize * ((1usize << (optimal_height_cap(n, cap) + 1)) - 1)
}

/// Runs algorithm X-TREE on `tree`, embedding it into its optimal X-tree.
///
/// For the exact Theorem-1 sizes every host vertex ends with exactly 16
/// guest nodes. Other sizes (an engineering extension — the paper states
/// the theorem for exact sizes only) are handled by padding the guest with
/// a dummy path up to the next exact size, embedding, and dropping the
/// dummies: the dilation bound transfers unchanged, the load stays ≤ 16,
/// and the host is still the optimal X-tree for `n` at load 16.
pub fn embed(tree: &BinaryTree) -> Theorem1Embedding {
    embed_with(tree, EmbedOptions::default())
}

/// Like [`embed`], with the construction's mechanisms individually
/// switchable — the knob behind the ablation experiments (A1).
pub fn embed_with(tree: &BinaryTree, opts: EmbedOptions) -> Theorem1Embedding {
    embed_with_scratch(tree, opts, &mut Theorem1Scratch::new())
}

/// Like [`embed_with`], building on top of a reusable [`Theorem1Scratch`].
///
/// Repeated builds through one scratch skip every per-build buffer
/// allocation (the hot path of a serving cache miss); the produced
/// embedding is byte-identical to a fresh-scratch build. The scratch is
/// handed back ready for the next call, whatever tree size that is.
/// The returned map holds exactly `tree.len()` ids with no spare
/// capacity, padded build or not, since callers such as the serving cache
/// keep it as it is.
pub fn embed_with_scratch(
    tree: &BinaryTree,
    opts: EmbedOptions,
    scratch: &mut Theorem1Scratch,
) -> Theorem1Embedding {
    let n = tree.len();
    let cap = opts.capacity;
    assert!(cap >= 1, "capacity must be ≥ 1");
    if !is_exact_size_cap(n, cap) {
        let target = cap as usize * ((1usize << (optimal_height_cap(n, cap) + 1)) - 1);
        let mut padded = tree.clone();
        // Hang the dummy path off a leaf (ids n.. are all dummies).
        let mut tip = padded
            .nodes()
            .find(|&v| padded.children(v).is_empty())
            .unwrap();
        for _ in n..target {
            tip = padded.add_child(tip);
        }
        let mut res = embed_exact(&padded, opts, scratch);
        res.emb.map.truncate(n);
        res.emb.map.shrink_to_fit();
        return res;
    }
    embed_exact(tree, opts, scratch)
}

fn embed_exact(
    tree: &BinaryTree,
    opts: EmbedOptions,
    scratch: &mut Theorem1Scratch,
) -> Theorem1Embedding {
    let n = tree.len();
    let r = optimal_height_cap(n, opts.capacity);
    let mut b = Builder::new(tree, r, opts, scratch);

    // δ_0.
    b.place_root_block();

    // embed_with pads every guest to an exact size first, so embed_exact
    // only ever sees exact sizes: every vertex must fill completely.
    debug_assert!(is_exact_size_cap(n, opts.capacity));
    for i in 1..=r {
        adjust::adjust_phase(&mut b, i);
        split::split_phase(&mut b, i);
        trace::record_round(&mut b, i);
        #[cfg(debug_assertions)]
        b.check_round_invariants(i, true);
    }

    // Every node must be placed and every vertex completely filled.
    assert_eq!(b.total_unplaced(), 0, "algorithm left guest nodes unplaced");
    assert!(b.all_full(), "exact-size guest must fill every host vertex");
    let (map, log, trace, mass_trace) = b.finish(scratch);
    Theorem1Embedding {
        emb: XEmbedding { height: r, map },
        trace,
        log,
        mass_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xtree_trees::generate::{self, theorem1_size, TreeFamily};

    #[test]
    fn optimal_height_cap_matches_probe_loop() {
        // The closed form replaced a linear probe; pin exact agreement with
        // the old loop over every n up to 2^20 at several capacities.
        fn probe(n: usize, cap: u16) -> u8 {
            let mut r = 0u8;
            while cap as usize * ((1usize << (r + 1)) - 1) < n {
                r += 1;
            }
            r
        }
        for cap in [1u16, 3, 16] {
            for n in 1..=(1usize << 20) {
                assert_eq!(optimal_height_cap(n, cap), probe(n, cap), "n={n} cap={cap}");
            }
        }
    }

    #[test]
    fn optimal_height_and_exact_sizes() {
        assert_eq!(optimal_height(16), 0);
        assert_eq!(optimal_height(17), 1);
        assert!(is_exact_size(16));
        assert!(is_exact_size(48));
        assert!(is_exact_size(240));
        assert!(!is_exact_size(100));
        assert_eq!(theorem1_size(4), 16 * 31);
    }

    #[test]
    fn trivial_r0() {
        let t = generate::path(16);
        let res = embed(&t);
        assert_eq!(res.emb.height, 0);
        let s = evaluate(&t, &res.emb);
        assert_eq!(s.dilation, 0);
        assert_eq!(s.max_load, 16);
    }

    #[test]
    fn r1_all_families() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for family in TreeFamily::ALL {
            let t = family.generate(theorem1_size(1), &mut rng);
            let res = embed(&t);
            let s = evaluate(&t, &res.emb);
            assert_eq!(s.max_load, 16, "{family:?}");
            assert!(s.dilation <= 4, "{family:?}: dilation {}", s.dilation);
        }
    }

    #[test]
    fn r3_paths_and_complete() {
        for t in [generate::path(240), generate::left_complete(240)] {
            let res = embed(&t);
            let s = evaluate(&t, &res.emb);
            assert_eq!(s.max_load, 16);
            assert!((s.expansion - 15.0 / 240.0).abs() < 1e-9);
            assert!(s.dilation <= 4, "dilation {}", s.dilation);
        }
    }

    #[test]
    fn r4_random_trees_small_dilation() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for family in TreeFamily::ALL {
            let t = family.generate(theorem1_size(4), &mut rng);
            let res = embed(&t);
            let s = evaluate(&t, &res.emb);
            assert_eq!(s.max_load, 16, "{family:?}");
            assert!(
                s.dilation <= 5,
                "{family:?}: dilation {} (histogram {:?})",
                s.dilation,
                s.dilation_histogram
            );
        }
    }

    #[test]
    fn non_exact_sizes_still_work() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n in [17usize, 100, 200, 333] {
            let t = generate::random_bst(n, &mut rng);
            let res = embed(&t);
            let s = evaluate(&t, &res.emb);
            assert!(s.max_load <= 16, "n={n}");
            assert_eq!(res.emb.map.len(), n);
        }
    }

    #[test]
    fn padded_builds_keep_no_spare_map_capacity() {
        // 2032 is exact (X(6)); 2033 and 3000 pad to X(7)'s 4080 nodes
        // and must not keep the padded capacity.
        let mut scratch = Theorem1Scratch::new();
        for n in [2032usize, 2033, 3000] {
            let t = generate::path(n);
            let map = embed_with_scratch(&t, EmbedOptions::default(), &mut scratch)
                .emb
                .map;
            assert_eq!(map.len(), n);
            assert_eq!(map.capacity(), n, "n={n}: spare capacity kept");
            assert_eq!(std::mem::size_of_val(map.as_slice()), 4 * n);
        }
    }

    #[test]
    fn trace_rows_have_expected_shape() {
        let t = generate::left_complete(theorem1_size(3));
        let res = embed(&t);
        assert_eq!(res.trace.len(), 3);
        for (idx, row) in res.trace.iter().enumerate() {
            assert_eq!(row.len(), idx + 2); // round i = idx+1 has j = 0..=i
        }
    }
}
