//! Parametric verification of the separator lemmas on the printed-seed
//! harness ([`xtree_trees::paramtest`]): for *arbitrary* binary trees,
//! designated nodes, targets, and pre-placed regions, every post-condition
//! of Lemmas 1 and 2 must hold. `check_separation` verifies designated
//! coverage, the size bound, the cut structure (every boundary edge runs
//! S1–S2) and collinearity of both boundary sets.
//!
//! Each iteration prints its seed before running; a failure reproduces
//! with `XTREE_PARAM_SEED=<seed> cargo test -p xtree-trees --test
//! param_separators <name>`. Seeds that ever failed go into the test's
//! `regressions` slice so they are replayed on every run.
//!
//! The generator families rarely draw small irregular shapes, so the
//! same checks also run bounded-exhaustively: every shape of up to 6
//! nodes here, and up to 10 nodes in the `#[ignore]`d test that CI runs
//! in release with `-- --ignored` (about 3 minutes). Any tree of maximum
//! degree 3 is a binary shape when rooted at a leaf, so this covers every
//! piece of that size the builder can pass.

use rand::Rng;
use xtree_trees::paramtest::{arbitrary_tree, designated_node, start_parametric_test};
use xtree_trees::{check_separation, lemma1, lemma2, BinaryTree, NodeId, Separation};

const ITERS: usize = 256;

/// Lemma 1 on the piece of `r1`, checked against its bound: `|S1| ≤ 4`,
/// `|S2| ≤ 2`, and exactly one cut edge.
fn check_lemma1(t: &BinaryTree, placed: &[bool], r1: NodeId, r2: NodeId, delta: u32) {
    let sep = lemma1(t, placed, r1, r2, delta);
    let bound = Separation::lemma1_bound(delta);
    check_separation(t, placed, &[], r1, r2, delta, &sep, bound, 4, 2);
    assert_eq!(sep.cut.len(), 1);
}

/// Lemma 2 on the piece of `r1`, checked against its bound: boundary sets
/// of at most 5 (DESIGN.md's junction deviation) and at most three cut
/// edges (base cut + two carvings).
fn check_lemma2(t: &BinaryTree, placed: &[bool], r1: NodeId, r2: NodeId, delta: u32) {
    let sep = lemma2(t, placed, r1, r2, delta);
    let bound = Separation::lemma2_bound(delta);
    check_separation(t, placed, &[], r1, r2, delta, &sep, bound, 5, 5);
    assert!(sep.cut.len() <= 3, "cut {:?}", sep.cut.len());
    // Nothing placed may appear in the output.
    for &v in sep.part2.iter().chain(&sep.s1).chain(&sep.s2) {
        assert!(!placed[v.index()]);
    }
}

#[test]
fn lemma1_always_within_bound() {
    start_parametric_test("lemma1_always_within_bound", &[], ITERS, |rng| {
        let t = arbitrary_tree(rng, 800);
        let (r1, r2) = (designated_node(rng, &t), designated_node(rng, &t));
        let n = t.len() as u32;
        // Any Δ with 3n > 4Δ, Δ ≥ 1.
        let max_delta = (3 * n - 1) / 4;
        if max_delta < 1 {
            return;
        }
        let delta = rng.random_range(1..=max_delta);
        check_lemma1(&t, &vec![false; t.len()], r1, r2, delta);
    });
}

#[test]
fn lemma2_always_within_bound() {
    start_parametric_test("lemma2_always_within_bound", &[], ITERS, |rng| {
        let t = arbitrary_tree(rng, 800);
        let (r1, r2) = (designated_node(rng, &t), designated_node(rng, &t));
        let n = t.len() as u32;
        let delta = rng.random_range(1..=n);
        check_lemma2(&t, &vec![false; t.len()], r1, r2, delta);
    });
}

#[test]
fn lemma2_respects_placed_regions() {
    start_parametric_test("lemma2_respects_placed_regions", &[], ITERS, |rng| {
        let t = arbitrary_tree(rng, 800);
        let (r1, r2) = (designated_node(rng, &t), designated_node(rng, &t));
        // Pre-place a random subtree and split what remains around r1.
        let mut placed = vec![false; t.len()];
        let victim = NodeId(rng.random_range(0..t.len() as u32));
        // Mark victim's subtree (in the rooted orientation) as placed,
        // unless that would swallow r1 or r2.
        let mut stack = vec![victim];
        let mut marked = Vec::new();
        while let Some(v) = stack.pop() {
            marked.push(v);
            stack.extend(t.children(v));
        }
        if marked.contains(&r1) || marked.contains(&r2) {
            return;
        }
        for &v in &marked {
            placed[v.index()] = true;
        }
        // The piece of r1 after blocking; r2 must still be reachable.
        let reach = {
            use std::collections::HashSet;
            let mut seen = HashSet::from([r1]);
            let mut q = vec![r1];
            while let Some(v) = q.pop() {
                for w in t.neighbors(v) {
                    if !placed[w.index()] && seen.insert(w) {
                        q.push(w);
                    }
                }
            }
            seen
        };
        if !reach.contains(&r2) || reach.len() < 2 {
            return;
        }
        let delta = rng.random_range(1..=reach.len() as u32);
        check_lemma2(&t, &placed, r1, r2, delta);
    });
}

/// A binary-tree shape: its root (`None` when empty) and its
/// `(child, parent)` edges.
type Shape = (Option<usize>, Vec<(usize, usize)>);

/// Every binary-tree shape on the nodes `lo..hi`. Nodes are numbered in
/// order (a node's left subtree holds the smaller ids), so two shapes
/// that differ only in the side a lone child hangs on are different
/// trees.
fn shapes(lo: usize, hi: usize) -> Vec<Shape> {
    if lo == hi {
        return vec![(None, Vec::new())];
    }
    let mut out = Vec::new();
    for root in lo..hi {
        for (left, left_edges) in shapes(lo, root) {
            for (right, right_edges) in shapes(root + 1, hi) {
                let mut edges = [left_edges.as_slice(), &right_edges].concat();
                edges.extend(left.into_iter().chain(right).map(|c| (c, root)));
                out.push((Some(root), edges));
            }
        }
    }
    out
}

/// Both lemmas on every shape of `1..=max_n` nodes, every pair of
/// designated nodes (degree ≤ 2, `r1 == r2` included) and every
/// admissible Δ: `1 ≤ Δ` and `4Δ < 3n` for Lemma 1, `1 ≤ Δ ≤ n` for
/// Lemma 2. Returns the number of shapes and of lemma calls.
fn check_every_shape(max_n: usize) -> (usize, usize) {
    let (mut shape_count, mut calls) = (0, 0);
    for n in 1..=max_n {
        for (_, edges) in shapes(0, n) {
            let mut parents = vec![None; n];
            for (c, p) in edges {
                parents[c] = Some(p);
            }
            let t = BinaryTree::from_parents(&parents);
            let placed = vec![false; n];
            let designated: Vec<NodeId> = t.nodes().filter(|&v| t.degree(v) <= 2).collect();
            for &r1 in &designated {
                for &r2 in &designated {
                    for delta in 1..=n as u32 {
                        let lemma1_fits = 4 * delta < 3 * n as u32;
                        let run = || {
                            if lemma1_fits {
                                check_lemma1(&t, &placed, r1, r2, delta);
                            }
                            check_lemma2(&t, &placed, r1, r2, delta);
                        };
                        let ok = std::panic::catch_unwind(run).is_ok();
                        assert!(ok, "parents {parents:?}, r1 {r1:?}, r2 {r2:?}, Δ {delta}");
                        calls += 1 + usize::from(lemma1_fits);
                    }
                }
            }
            shape_count += 1;
        }
    }
    (shape_count, calls)
}

#[test]
fn lemmas_hold_on_every_shape_up_to_6_nodes() {
    // 1 + 2 + 5 + 14 + 42 + 132 shapes: the Catalan numbers.
    let (shapes, calls) = check_every_shape(6);
    assert_eq!(shapes, 196);
    assert!(calls > 10_000, "{calls} calls");
}

#[test]
#[ignore = "about 3 minutes in release; CI runs it with -- --ignored"]
fn lemmas_hold_on_every_shape_up_to_10_nodes() {
    let (shapes, _) = check_every_shape(10);
    assert_eq!(shapes, 23_713);
}
