//! The separator lemmas of the paper (§2, Lemmas 1 and 2).
//!
//! Both lemmas take a connected piece `T` of a binary tree with two
//! designated nodes `r1, r2` and a target `Δ`, and split `T` into forests
//! `T1, T2` by deleting only edges that run between two small boundary sets
//! `S1 ⊂ T1` and `S2 ⊂ T2`, such that
//!
//! * `{r1, r2} ⊆ S1 ∪ S2` — the designated nodes are laid out with the cut;
//! * `|T2|` approximates `Δ`: within `⌊(Δ+1)/3⌋` for Lemma 1 and
//!   `⌊(Δ+4)/9⌋` for Lemma 2;
//! * `S_i` is *collinear* in `T_i`: every tree of the forest `T_i − S_i`
//!   is connected by at most two edges to `S_i` — so after placing
//!   `S1 ∪ S2` on host vertices, every remaining fragment is again an
//!   *interval* (≤ 2 designated nodes), keeping the construction iterable.
//!
//! Bound on boundary sizes: Lemma 1 gives `|S1| ≤ 4`, `|S2| ≤ 2`; Lemma 2
//! gives `|S1|, |S2| ≤ 4`. Deviation (documented in DESIGN.md): in one
//! sub-case whose details the extended abstract omits (two disjoint
//! carvings on the same side), this implementation adds the junction node
//! of the two carving paths to preserve collinearity, allowing one
//! boundary set to reach 5 nodes (`|S1|`, or `|S2|` after the `Δ > 3n/4`
//! role swap).

mod lemma1;
mod lemma2;
mod orient;

pub use lemma1::{lemma1, lemma1_with};
pub use lemma2::{lemma2, lemma2_boundary, lemma2_with};
pub use orient::{SeparatorScratch, SubtreeIndex};

use crate::tree::{Adjacency, BinaryTree, NodeId};
use orient::View;
use std::collections::{HashSet, VecDeque};

/// Result of a separator-lemma application.
#[derive(Clone, Debug, Default)]
pub struct Separation {
    /// Boundary set inside part 1 (the complement of [`part2`](Self::part2)).
    pub s1: Vec<NodeId>,
    /// Boundary set inside part 2.
    pub s2: Vec<NodeId>,
    /// All nodes of part 2 — the side whose cardinality approximates `Δ`.
    pub part2: Vec<NodeId>,
    /// The deleted edges, each written as `(node in part 1, node in part 2)`.
    pub cut: Vec<(NodeId, NodeId)>,
}

/// A [`Separation`] without its `part2` list: the boundary sets, the cut
/// and the size of part 2, all inline. It is what a caller that places
/// only the boundary needs, and [`lemma2_boundary`] returns it without
/// listing part 2 or allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Boundary {
    /// Boundary set inside part 1.
    pub s1: Adjacency<5>,
    /// Boundary set inside part 2.
    pub s2: Adjacency<5>,
    /// The deleted edges, each written as `(node in part 1, node in part 2)`.
    pub cut: Adjacency<3, (NodeId, NodeId)>,
    /// Number of nodes in part 2.
    pub part2_len: u32,
}

impl Separation {
    /// Lemma 1's guarantee on `| |T2| − Δ |`.
    pub fn lemma1_bound(delta: u32) -> u32 {
        (delta + 1) / 3
    }

    /// Lemma 2's guarantee on `| |T2| − Δ |`.
    pub fn lemma2_bound(delta: u32) -> u32 {
        (delta + 4) / 9
    }
}

/// A separation whose `part2` is still a combination of oriented subtrees
/// of the piece: the union of the disjoint subtrees of `add` less the
/// subtree of `remove`. The lemmas' case analyses return it, inline; its
/// [`boundary`](Self::boundary) sizes part 2, and only
/// [`finish`](Self::finish) copies the nodes.
pub(crate) struct Split {
    s1: Adjacency<5>,
    s2: Adjacency<5>,
    cut: Adjacency<3, (NodeId, NodeId)>,
    add: Adjacency<3>,
    remove: Option<NodeId>,
}

impl Split {
    /// The boundary of the separation of the piece `o`, with parts 1 and
    /// 2 swapped when `invert`.
    fn boundary(&self, o: &View<'_>, invert: bool) -> Boundary {
        let part2_len = o.part_len(&self.add, self.remove, invert);
        if invert {
            Boundary {
                s1: self.s2,
                s2: self.s1,
                cut: self.cut.iter().map(|&(a, b)| (b, a)).collect(),
                part2_len,
            }
        } else {
            Boundary {
                s1: self.s1,
                s2: self.s2,
                cut: self.cut,
                part2_len,
            }
        }
    }

    /// The separation of the piece `o`, with parts 1 and 2 swapped when
    /// `invert`.
    fn finish(self, o: &View<'_>, invert: bool, events: &mut Vec<(u32, i32)>) -> Separation {
        let b = self.boundary(o, invert);
        Separation {
            s1: b.s1.to_vec(),
            s2: b.s2.to_vec(),
            part2: o.collect(&self.add, self.remove, invert, events),
            cut: b.cut.to_vec(),
        }
    }
}

/// The designated nodes of the piece holding `r1` (its nodes with a placed
/// neighbour), found by flooding the piece: what the O(n) entry points
/// hand to the indexed ones.
fn designated_by_flood(tree: &BinaryTree, placed: &[bool], r1: NodeId) -> Vec<NodeId> {
    assert!(!placed[r1.index()], "r1 is not part of the piece");
    let mut seen = vec![false; tree.len()];
    seen[r1.index()] = true;
    let mut nodes = vec![r1];
    let mut designated = Vec::new();
    let mut head = 0;
    while head < nodes.len() {
        let v = nodes[head];
        head += 1;
        for w in tree.neighbors(v) {
            if placed[w.index()] {
                if designated.last() != Some(&v) {
                    designated.push(v);
                }
            } else if !seen[w.index()] {
                seen[w.index()] = true;
                nodes.push(w);
            }
        }
    }
    designated
}

/// Exhaustively checks every post-condition of a [`Separation`] against the
/// piece containing `r1` (the component of un-`placed` nodes, minus
/// `excluded`). Used by unit/property tests and by the embedding verifier.
///
/// # Panics
/// Panics with a description of the first violated condition.
#[allow(clippy::too_many_arguments)] // a checker mirroring the lemma statement
pub fn check_separation(
    tree: &BinaryTree,
    placed: &[bool],
    excluded: &[NodeId],
    r1: NodeId,
    r2: NodeId,
    delta: u32,
    sep: &Separation,
    size_bound: u32,
    max_s1: usize,
    max_s2: usize,
) {
    let blocked = |v: NodeId| placed[v.index()] || excluded.contains(&v);
    // Reconstruct the piece by BFS from r1.
    let mut piece = HashSet::new();
    let mut q = VecDeque::from([r1]);
    piece.insert(r1);
    while let Some(v) = q.pop_front() {
        for w in tree.neighbors(v) {
            if !blocked(w) && piece.insert(w) {
                q.push_back(w);
            }
        }
    }
    assert!(piece.contains(&r2), "r2 not in the piece of r1");

    let part2: HashSet<NodeId> = sep.part2.iter().copied().collect();
    assert_eq!(part2.len(), sep.part2.len(), "duplicate nodes in part2");
    for &v in &sep.part2 {
        assert!(piece.contains(&v), "{v:?} in part2 but outside the piece");
    }
    let s1: HashSet<NodeId> = sep.s1.iter().copied().collect();
    let s2: HashSet<NodeId> = sep.s2.iter().copied().collect();
    assert_eq!(s1.len(), sep.s1.len(), "duplicates in s1");
    assert_eq!(s2.len(), sep.s2.len(), "duplicates in s2");
    assert!(s1.len() <= max_s1, "|S1| = {} > {max_s1}", s1.len());
    assert!(s2.len() <= max_s2, "|S2| = {} > {max_s2}", s2.len());

    // Sides: s1 in part1, s2 in part2; designated nodes covered.
    for &v in &sep.s1 {
        assert!(
            piece.contains(&v) && !part2.contains(&v),
            "{v:?} of s1 not in part1"
        );
    }
    for &v in &sep.s2 {
        assert!(part2.contains(&v), "{v:?} of s2 not in part2");
    }
    assert!(
        s1.contains(&r1) || s2.contains(&r1),
        "designated r1 not laid out by the separation"
    );
    assert!(
        s1.contains(&r2) || s2.contains(&r2),
        "designated r2 not laid out by the separation"
    );

    // Size condition.
    let n2 = sep.part2.len() as u32;
    assert!(
        u32::abs_diff(n2, delta) <= size_bound,
        "|T2| = {n2}, Δ = {delta}: off by more than {size_bound}"
    );

    // Every piece edge crossing the part1/part2 boundary must run between
    // s1 and s2, and must be listed in `cut` (and vice versa).
    let mut crossing = HashSet::new();
    for &v in &piece {
        for w in tree.neighbors(v) {
            if !piece.contains(&w) {
                continue;
            }
            if part2.contains(&v) != part2.contains(&w) {
                let (a, b) = if part2.contains(&w) { (v, w) } else { (w, v) };
                crossing.insert((a, b));
                assert!(
                    s1.contains(&a) && s2.contains(&b),
                    "boundary edge ({a:?}, {b:?}) does not run between S1 and S2"
                );
            }
        }
    }
    let listed: HashSet<(NodeId, NodeId)> = sep.cut.iter().copied().collect();
    assert_eq!(
        listed, crossing,
        "cut list does not match the boundary edges"
    );

    // Collinearity of s1 in part1 and s2 in part2.
    let part1: HashSet<NodeId> = piece.difference(&part2).copied().collect();
    check_collinear(tree, &part1, &s1, "S1");
    check_collinear(tree, &part2, &s2, "S2");
}

/// Asserts that every component of `side − s` has at most two edges to `s`.
fn check_collinear(tree: &BinaryTree, side: &HashSet<NodeId>, s: &HashSet<NodeId>, label: &str) {
    let mut seen: HashSet<NodeId> = HashSet::new();
    for &start in side {
        if s.contains(&start) || seen.contains(&start) {
            continue;
        }
        // Flood one component of side − s, counting edges into s.
        let mut q = VecDeque::from([start]);
        seen.insert(start);
        let mut edges_to_s = 0;
        while let Some(v) = q.pop_front() {
            for w in tree.neighbors(v) {
                if !side.contains(&w) {
                    continue;
                }
                if s.contains(&w) {
                    edges_to_s += 1;
                } else if seen.insert(w) {
                    q.push_back(w);
                }
            }
        }
        assert!(
            edges_to_s <= 2,
            "{label} not collinear: component of {start:?} has {edges_to_s} edges to it"
        );
    }
}
