//! Lemma 2 of the paper.
//!
//! Same interface as Lemma 1, but with tighter balance: for any `1 ≤ Δ ≤ n`
//! the piece splits into `T1, T2` with `| |T2| − Δ | ≤ ⌊(Δ+4)/9⌋` and
//! `|S1|, |S2| ≤ 4`. The construction first walks the path from `r1`
//! toward `r2` (procedure `find2`) and then distinguishes the paper's three
//! cases; the `find1` carvings are applied twice (a main carve plus a
//! correction carve) which is what squeezes the error from `Δ/3` to `Δ/9`.
//!
//! Documented deviation (see DESIGN.md): when the correction carve must be
//! a second *disjoint* subtree on the same side, preserving collinearity
//! requires also laying out the junction vertex of the two carving paths —
//! a detail the extended abstract leaves to the full version. This can push
//! `|S1|` to 5.

use super::lemma1::lemma1_in;
use super::orient::{SeparatorScratch, View};
use super::{designated_by_flood, Boundary, Separation, Split};
use crate::tree::{Adjacency, BinaryTree, NodeId};

/// Applies Lemma 2 to the piece containing `r1`. Indexes the guest and
/// floods the piece first, so it costs O(n): callers in a loop should hold
/// a [`SeparatorScratch`] and use [`lemma2_with`].
///
/// # Preconditions (asserted)
/// * `r1`, `r2` un-placed, same component; `1 ≤ Δ ≤ n`;
/// * designated nodes have at most two un-placed neighbours.
pub fn lemma2(
    tree: &BinaryTree,
    placed: &[bool],
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Separation {
    lemma2_with(
        &mut SeparatorScratch::new(tree),
        tree,
        placed,
        designated_by_flood(tree, placed, r1),
        r1,
        r2,
        delta,
    )
}

/// [`lemma2`] on the piece whose designated nodes (every node of it with a
/// placed neighbour, `r1` and `r2` among them or not) are `designated`,
/// read off the static preorder of `scratch`, which must index `tree`.
/// Costs the find2 and `find1` walks and the copy of `part2`, not a pass
/// over the piece.
pub fn lemma2_with(
    scratch: &mut SeparatorScratch,
    tree: &BinaryTree,
    placed: &[bool],
    designated: impl IntoIterator<Item = NodeId>,
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Separation {
    let (o, events) = scratch.view(tree, placed, designated, r1);
    let (split, invert) = split(&o, r1, r2, delta);
    split.finish(&o, invert, events)
}

/// [`lemma2_with`] without listing `part2`: the same boundary sets and
/// cut, and the size of part 2. Costs the walks only, and allocates
/// nothing.
pub fn lemma2_boundary(
    scratch: &mut SeparatorScratch,
    tree: &BinaryTree,
    placed: &[bool],
    designated: impl IntoIterator<Item = NodeId>,
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Boundary {
    let (o, _) = scratch.view(tree, placed, designated, r1);
    let (split, invert) = split(&o, r1, r2, delta);
    split.boundary(&o, invert)
}

/// Lemma 2 on the whole piece `o`, rooted at `r1`: the split, and whether
/// its parts are swapped.
fn split(o: &View<'_>, r1: NodeId, r2: NodeId, delta: u32) -> (Split, bool) {
    assert!(o.contains(r2), "r2 must lie in the piece of r1");
    let n = o.len();
    assert!(
        delta >= 1 && delta <= n,
        "lemma 2 needs 1 ≤ Δ ≤ n (Δ = {delta}, n = {n})"
    );

    if delta == n {
        // Take the whole piece: lay out the designated nodes, cut nothing.
        let whole = Split {
            s1: Adjacency::default(),
            s2: Adjacency::set(&[r1, r2]),
            cut: Adjacency::default(),
            add: Adjacency::of(&[r1]),
            remove: None,
        };
        return (whole, false);
    }
    if 3 * n > 4 * delta {
        (main_split(o, r1, r2, delta), false)
    } else {
        // Δ < n ≤ 4Δ/3: solve for Δ' = n − Δ < Δ/3 and swap the roles of
        // the two sides (paper's closing remark in the proof).
        (main_split(o, r1, r2, n - delta), true)
    }
}

/// The main construction, assuming `3n > 4Δ` and `Δ ≥ 1`, on the whole
/// piece `o`, rooted at `r1`.
fn main_split(o: &View<'_>, r1: NodeId, r2: NodeId, delta: u32) -> Split {
    let v = o.find2(r2, delta);
    if v == r2 && 3 * o.size(r2) > 4 * delta {
        case_both_in_s1(o, r1, r2, delta)
    } else if o.size(v) < delta {
        case_small_subtree(o, r1, r2, delta, v)
    } else {
        case_medium_subtree(o, r1, r2, delta, v)
    }
}

/// Case 1: the walk reached `r2` and `|T(r2)| > 4Δ/3`. Both designated
/// nodes go to `S1`; the mass for `T2` is carved out of `T(r2)` by find1,
/// applied twice.
fn case_both_in_s1(o: &View<'_>, r1: NodeId, r2: NodeId, delta: u32) -> Split {
    let u1 = o.find1(r2, delta);
    let s_u1 = o.size(u1);
    let pu1 = o.parent(u1).expect("find1 result has a father");

    if s_u1 == delta {
        return Split {
            s1: Adjacency::set(&[r1, r2, pu1]),
            s2: Adjacency::of(&[u1]),
            cut: Adjacency::of(&[(pu1, u1)]),
            add: Adjacency::of(&[u1]),
            remove: None,
        };
    }
    if s_u1 > delta {
        // Overshoot: carve a correction subtree T(w) back out of T(u1).
        let e = s_u1 - delta;
        let w = o.find1(u1, e);
        let pw = o.parent(w).expect("find1 result has a father");
        return Split {
            s1: Adjacency::set(&[r1, r2, pu1, w]),
            s2: Adjacency::set(&[u1, pw]),
            cut: Adjacency::of(&[(pu1, u1), (w, pw)]),
            add: Adjacency::of(&[u1]),
            remove: Some(w),
        };
    }
    // Undershoot: carve a second subtree, disjoint from T(u1), out of the
    // remainder of T(r2).
    let e = delta - s_u1;
    let o2 = o.carve(u1);
    assert!(
        3 * o2.size(r2) > 4 * e,
        "case-1 second carve precondition (guaranteed by |T(r2)| > 4Δ/3)"
    );
    let w = o2.find1(r2, e);
    if o.junction(w, u1) == w {
        // w is an ancestor of u1: the two carvings merge into T(w).
        let pw = o.parent(w).expect("w is below r2");
        return Split {
            s1: Adjacency::set(&[r1, r2, pw]),
            s2: Adjacency::of(&[w]),
            cut: Adjacency::of(&[(pw, w)]),
            add: Adjacency::of(&[w]),
            remove: None,
        };
    }
    let pw = o2.parent(w).expect("w is below r2");
    // The junction of the two carving paths must be laid out too, or the
    // component between r2, pu1 and pw would have three edges into S1.
    let j = o.junction(u1, w);
    Split {
        s1: Adjacency::set(&[r1, r2, pu1, pw, j]),
        s2: Adjacency::set(&[u1, w]),
        cut: Adjacency::of(&[(pu1, u1), (pw, w)]),
        add: Adjacency::of(&[u1, w]),
        remove: None,
    }
}

/// Case 2: the walk stopped at `v` with `|T(v)| < Δ` (and `r2 ∈ T(v)`).
/// `T2 = T(v)` plus `Δ − |T(v)|` nodes carved out of `T(x, v)`, the part of
/// the father's subtree avoiding `v`.
fn case_small_subtree(o: &View<'_>, r1: NodeId, r2: NodeId, delta: u32, v: NodeId) -> Split {
    let x = o.parent(v).expect("the walk moved at least one step");
    let delta1 = delta - o.size(v);
    debug_assert!(delta1 >= 1);
    debug_assert!(o.in_subtree(r2, v), "the walk follows the path to r2");

    let o2 = o.carve(v);
    assert!(
        3 * o2.size(x) > 4 * delta1,
        "case-2 carve precondition (guaranteed by |T(x)| > 4Δ/3)"
    );
    let u1 = o2.find1(x, delta1);
    let pu1 = o2.parent(u1).expect("find1 result has a father");
    let s_u1 = o2.size(u1);

    if s_u1 == delta1 {
        return Split {
            s1: Adjacency::set(&[r1, x, pu1]),
            s2: Adjacency::set(&[r2, v, u1]),
            cut: Adjacency::of(&[(x, v), (pu1, u1)]),
            add: Adjacency::of(&[v, u1]),
            remove: None,
        };
    }
    if s_u1 > delta1 {
        let e = s_u1 - delta1;
        let w = o2.find1(u1, e);
        let pw = o2.parent(w).expect("find1 result has a father");
        return Split {
            s1: Adjacency::set(&[r1, x, pu1, w]),
            s2: Adjacency::set(&[r2, v, u1, pw]),
            cut: Adjacency::of(&[(x, v), (pu1, u1), (w, pw)]),
            add: Adjacency::of(&[v, u1]),
            remove: Some(w),
        };
    }
    // Undershoot: second disjoint carve from T(x, v) − T(u1).
    let e = delta1 - s_u1;
    let o3 = o2.carve(u1);
    assert!(3 * o3.size(x) > 4 * e, "case-2 second carve precondition");
    let u2 = o3.find1(x, e);
    if o2.junction(u2, u1) == u2 {
        // u2 is an ancestor of u1: the carvings merge into T(u2) − T(v).
        let pu2 = o2
            .parent(u2)
            .expect("u2 is below x or equals a child of it");
        return Split {
            s1: Adjacency::set(&[r1, x, pu2]),
            s2: Adjacency::set(&[r2, v, u2]),
            cut: Adjacency::of(&[(x, v), (pu2, u2)]),
            add: Adjacency::of(&[v, u2]),
            remove: None,
        };
    }
    let pu2 = o3.parent(u2).expect("find1 result has a father");
    let j = o2.junction(u1, u2);
    Split {
        s1: Adjacency::set(&[r1, x, pu1, pu2, j]),
        s2: Adjacency::set(&[r2, v, u1, u2]),
        cut: Adjacency::of(&[(x, v), (pu1, u1), (pu2, u2)]),
        add: Adjacency::of(&[v, u1, u2]),
        remove: None,
    }
}

/// Case 3: the walk stopped at `v` with `Δ ≤ |T(v)| ≤ 4Δ/3`. Apply Lemma 1
/// *inside* `T(v)` with `Δ' = |T(v)| − Δ` and designated nodes `v, r2`; the
/// piece Lemma 1 carves off returns to `T1`.
fn case_medium_subtree(o: &View<'_>, r1: NodeId, r2: NodeId, delta: u32, v: NodeId) -> Split {
    let x = o.parent(v).expect("the walk moved at least one step");
    let dp = o.size(v) - delta;
    if dp == 0 {
        return Split {
            s1: Adjacency::set(&[r1, x]),
            s2: Adjacency::set(&[v, r2]),
            cut: Adjacency::of(&[(x, v)]),
            add: Adjacency::of(&[v]),
            remove: None,
        };
    }
    // Lemma 1 runs on T(v) alone, so the piece it carves off lies in T(v).
    let inner = lemma1_in(&o.rooted_at(v), v, r2, dp);
    let s1: Adjacency<5> = [r1, x].into_iter().chain(inner.s2).collect();
    let cut = std::iter::once((x, v))
        .chain(inner.cut.iter().map(|&(a, b)| (b, a)))
        .collect();
    Split {
        s1: Adjacency::set(&s1),
        s2: inner.s1,
        cut,
        add: Adjacency::of(&[v]),
        remove: Some(inner.add[0]),
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math
mod tests {
    use super::*;
    use crate::generate::{self, TreeFamily};
    use crate::separator::check_separation;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check(tree: &BinaryTree, r1: NodeId, r2: NodeId, delta: u32) -> Separation {
        let placed = vec![false; tree.len()];
        let sep = lemma2(tree, &placed, r1, r2, delta);
        check_separation(
            tree,
            &placed,
            &[],
            r1,
            r2,
            delta,
            &sep,
            Separation::lemma2_bound(delta),
            5, // 4 + the documented junction-vertex deviation
            5,
        );
        sep
    }

    #[test]
    fn whole_piece_when_delta_is_n() {
        let t = generate::path(20);
        let sep = check(&t, NodeId(0), NodeId(19), 20);
        assert_eq!(sep.part2.len(), 20);
        assert!(sep.cut.is_empty());
    }

    #[test]
    fn splits_paths_tightly() {
        let t = generate::path(1000);
        for delta in [1u32, 10, 100, 333, 500, 750, 900, 999] {
            let sep = check(&t, NodeId(0), NodeId(999), delta);
            // On a path, every target is achievable exactly.
            assert!(
                u32::abs_diff(sep.part2.len() as u32, delta) <= Separation::lemma2_bound(delta)
            );
        }
    }

    #[test]
    fn splits_complete_trees() {
        let t = generate::left_complete(511);
        for delta in [1u32, 16, 100, 170, 256, 400, 511] {
            check(&t, NodeId(0), NodeId(300), delta);
            check(&t, NodeId(510), NodeId(255), delta);
        }
    }

    #[test]
    fn sweeps_all_families_and_deltas() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        for family in TreeFamily::ALL {
            for n in [16usize, 97, 400] {
                let t = family.generate(n, &mut rng);
                let candidates: Vec<NodeId> = t.nodes().filter(|&v| t.degree(v) <= 2).collect();
                for _ in 0..10 {
                    let r1 = candidates[rng.random_range(0..candidates.len())];
                    let r2 = candidates[rng.random_range(0..candidates.len())];
                    let delta = rng.random_range(1..=n as u32);
                    check(&t, r1, r2, delta);
                }
            }
        }
    }

    #[test]
    fn same_designated_node_twice() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = generate::random_attach(300, &mut rng);
        let leaf = t.nodes().find(|&v| t.degree(v) == 1).unwrap();
        for delta in [1u32, 50, 150, 299, 300] {
            check(&t, leaf, leaf, delta);
        }
    }

    #[test]
    fn respects_placed_blocks() {
        let t = generate::path(200);
        let mut placed = vec![false; 200];
        for i in 100..110 {
            placed[i] = true;
        }
        let sep = lemma2(&t, &placed, NodeId(0), NodeId(99), 40);
        check_separation(
            &t,
            &placed,
            &[],
            NodeId(0),
            NodeId(99),
            40,
            &sep,
            Separation::lemma2_bound(40),
            5,
            5,
        );
        for &v in &sep.part2 {
            assert!(v.index() < 100);
        }
    }

    #[test]
    fn boundary_matches_the_separation() {
        // The allocation-free entry point returns the separation's
        // boundary sets, cut and part-2 size, on pieces with holes too.
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        for family in TreeFamily::ALL {
            let t = family.generate(600, &mut rng);
            let placed: Vec<bool> = (0..600).map(|_| rng.random_range(0..32) == 0).collect();
            let mut scratch = SeparatorScratch::new(&t);
            for _ in 0..20 {
                let r1 = NodeId(rng.random_range(0..600));
                if placed[r1.index()] {
                    continue;
                }
                let designated = designated_by_flood(&t, &placed, r1);
                let n = scratch.piece_len(&t, &placed, designated.iter().copied());
                let delta = rng.random_range(1..=n);
                let (d, r2) = (
                    designated.iter().copied(),
                    *designated.last().unwrap_or(&r1),
                );
                let b = lemma2_boundary(&mut scratch, &t, &placed, d.clone(), r1, r2, delta);
                let sep = lemma2_with(&mut scratch, &t, &placed, d, r1, r2, delta);
                assert_eq!(&b.s1[..], &sep.s1[..]);
                assert_eq!(&b.s2[..], &sep.s2[..]);
                assert_eq!(&b.cut[..], &sep.cut[..]);
                assert_eq!(b.part2_len as usize, sep.part2.len());
            }
        }
    }

    #[test]
    fn nine_fold_improvement_over_lemma1() {
        // The point of Lemma 2: error ⌊(Δ+4)/9⌋ instead of ⌊(Δ+1)/3⌋.
        assert_eq!(Separation::lemma2_bound(90), 10);
        assert_eq!(Separation::lemma1_bound(90), 30);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let t = generate::random_bst(5000, &mut rng);
        let leaf = t.nodes().find(|&v| t.degree(v) == 1).unwrap();
        let placed = vec![false; 5000];
        for delta in [900u32, 1800, 2500] {
            let sep = lemma2(&t, &placed, leaf, leaf, delta);
            assert!(
                u32::abs_diff(sep.part2.len() as u32, delta) <= (delta + 4) / 9,
                "Δ={delta}, |T2|={}",
                sep.part2.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "1 ≤ Δ ≤ n")]
    fn rejects_delta_zero() {
        let t = generate::path(10);
        let _ = lemma2(&t, &[false; 10], NodeId(0), NodeId(9), 0);
    }

    #[test]
    #[should_panic(expected = "1 ≤ Δ ≤ n")]
    fn rejects_delta_above_n() {
        let t = generate::path(10);
        let _ = lemma2(&t, &[false; 10], NodeId(0), NodeId(9), 11);
    }
}
