//! Lemma 1 of the paper.
//!
//! Given a piece `T` with `n` nodes, designated nodes `r1, r2`, and a target
//! `Δ` with `n > 4Δ/3`, split `T` into `T1, T2` with
//! `| |T2| − Δ | ≤ ⌊(Δ+1)/3⌋`, cutting a single edge, with boundary sets
//! `|S1| ≤ 4` and `|S2| ≤ 2`.
//!
//! Construction (following the paper's proof): run `find1` from `r1` to
//! locate a node `u` whose subtree has cardinality close to `Δ`; let `z` be
//! the father of `u`. If `T(u)` contains `r2`, take `S1 = {r1, z}`,
//! `S2 = {u, r2}`. Otherwise let `y` be the node where the path from `r1`
//! to `u` and the path from `r1` to `r2` part, and take
//! `S1 = {r1, r2, z, y}`, `S2 = {u}`.

use super::orient::{SeparatorScratch, View};
use super::{designated_by_flood, Separation, Split};
use crate::tree::{Adjacency, BinaryTree, NodeId};

/// Applies Lemma 1 to the piece containing `r1` (the component of nodes not
/// marked in `placed`). Indexes the guest and floods the piece first, so
/// it costs O(n): callers in a loop should hold a [`SeparatorScratch`] and
/// use [`lemma1_with`].
///
/// # Preconditions (asserted)
/// * `r1` and `r2` are un-placed and in the same component;
/// * `Δ ≥ 1` and the piece has more than `4Δ/3` nodes;
/// * `r1` has at most two un-placed neighbours (true for designated nodes).
pub fn lemma1(
    tree: &BinaryTree,
    placed: &[bool],
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Separation {
    lemma1_with(
        &mut SeparatorScratch::new(tree),
        tree,
        placed,
        designated_by_flood(tree, placed, r1),
        r1,
        r2,
        delta,
    )
}

/// [`lemma1`] on the piece whose designated nodes (every node of it with a
/// placed neighbour, `r1` and `r2` among them or not) are `designated`,
/// read off the static preorder of `scratch`, which must index `tree`.
/// Costs the `find1` walk and the copy of `part2`.
pub fn lemma1_with(
    scratch: &mut SeparatorScratch,
    tree: &BinaryTree,
    placed: &[bool],
    designated: impl IntoIterator<Item = NodeId>,
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Separation {
    let (o, events) = scratch.view(tree, placed, designated, r1);
    lemma1_in(&o, r1, r2, delta).finish(&o, false, events)
}

/// Lemma 1 on the view `o`, rooted at `r1`. Lemma 2's case 3 applies it
/// inside an oriented subtree `T(v)`, rooted at `v`.
pub(crate) fn lemma1_in(o: &View<'_>, r1: NodeId, r2: NodeId, delta: u32) -> Split {
    let n = o.len();
    assert!(o.contains(r2), "r2 must lie in the piece of r1");
    assert!(delta >= 1, "lemma 1 needs Δ ≥ 1");
    assert!(
        3 * n > 4 * delta,
        "lemma 1 needs n > 4Δ/3 (n = {n}, Δ = {delta})"
    );

    let u = o.find1(r1, delta);
    let z = o
        .parent(u)
        .expect("find1 never returns the orientation root");

    let (s1, s2) = if o.in_subtree(r2, u) {
        // Case 1: T(u) contains r2.
        (Adjacency::set(&[r1, z]), Adjacency::set(&[u, r2]))
    } else {
        // Case 2: r2 stays on r1's side; y is where the paths to u and to
        // r2 part (possibly r1, r2 or z themselves).
        let y = o.junction(u, r2);
        debug_assert_ne!(y, u, "junction in T(u) would imply r2 ∈ T(u)");
        (Adjacency::set(&[r1, r2, z, y]), Adjacency::of(&[u]))
    };
    debug_assert!(u32::abs_diff(o.size(u), delta) <= Separation::lemma1_bound(delta));
    Split {
        s1,
        s2,
        cut: Adjacency::of(&[(z, u)]),
        add: Adjacency::of(&[u]),
        remove: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, TreeFamily};
    use crate::separator::check_separation;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check(tree: &BinaryTree, r1: NodeId, r2: NodeId, delta: u32) {
        let placed = vec![false; tree.len()];
        let sep = lemma1(tree, &placed, r1, r2, delta);
        check_separation(
            tree,
            &placed,
            &[],
            r1,
            r2,
            delta,
            &sep,
            Separation::lemma1_bound(delta),
            4,
            2,
        );
    }

    #[test]
    fn splits_a_path() {
        let t = generate::path(100);
        check(&t, NodeId(0), NodeId(99), 30);
        check(&t, NodeId(0), NodeId(0), 30);
        check(&t, NodeId(50), NodeId(10), 20);
    }

    #[test]
    fn splits_complete_trees() {
        let t = generate::left_complete(255);
        // Designated nodes must have degree ≤ 2 (root or leaves here), as in
        // the embedding where every designated node has a placed neighbour.
        check(&t, NodeId(0), NodeId(254), 60);
        check(&t, NodeId(130), NodeId(130), 40);
        check(&t, NodeId(254), NodeId(0), 100);
    }

    #[test]
    fn splits_all_families_many_deltas() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for family in TreeFamily::ALL {
            for n in [20usize, 97, 256] {
                let t = family.generate(n, &mut rng);
                // Pick designated nodes with degree ≤ 2 (the usage pattern:
                // designated nodes always have a placed neighbour).
                let candidates: Vec<NodeId> = t.nodes().filter(|&v| t.degree(v) <= 2).collect();
                for _ in 0..8 {
                    let r1 = candidates[rng.random_range(0..candidates.len())];
                    let r2 = candidates[rng.random_range(0..candidates.len())];
                    let max_delta = (3 * n as u32 - 1) / 4; // largest Δ with 3n > 4Δ
                    let delta = rng.random_range(1..=max_delta.max(1));
                    check(&t, r1, r2, delta);
                }
            }
        }
    }

    #[test]
    fn respects_designated_on_both_sides() {
        // r2 deep inside the carved subtree lands in S2.
        let t = generate::path(60);
        let placed = vec![false; 60];
        let sep = lemma1(&t, &placed, NodeId(0), NodeId(59), 10);
        // part2 is the far end of the path; r2 = 59 must be laid out.
        assert!(sep.s1.contains(&NodeId(0)));
        assert!(sep.s2.contains(&NodeId(59)) || sep.s1.contains(&NodeId(59)));
    }

    #[test]
    fn single_cut_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let t = generate::random_bst(500, &mut rng);
        let placed = vec![false; 500];
        let leaf = t.nodes().find(|&v| t.degree(v) == 1).unwrap();
        let sep = lemma1(&t, &placed, leaf, leaf, 100);
        assert_eq!(sep.cut.len(), 1, "lemma 1 cuts exactly one edge");
    }

    #[test]
    fn works_on_pieces_with_placed_nodes() {
        // Place a block in the middle of a path; the lemma must stay on one
        // side of it.
        let t = generate::path(100);
        let mut placed = vec![false; 100];
        placed[40] = true;
        let sep = lemma1(&t, &placed, NodeId(0), NodeId(39), 12);
        check_separation(
            &t,
            &placed,
            &[],
            NodeId(0),
            NodeId(39),
            12,
            &sep,
            Separation::lemma1_bound(12),
            4,
            2,
        );
        for &v in &sep.part2 {
            assert!(v.index() < 40);
        }
    }

    #[test]
    #[should_panic(expected = "n > 4Δ/3")]
    fn rejects_oversized_delta() {
        let t = generate::path(10);
        let placed = vec![false; 10];
        let _ = lemma1(&t, &placed, NodeId(0), NodeId(9), 9);
    }
}
