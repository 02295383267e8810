//! The orientation-based separator lemmas, frozen with the legacy
//! builder: `Orientation`, `find1`, `lemma1_ex` and `lemma2_with` as they
//! stood before Lemmas 1 and 2 read pieces off the guest's static
//! preorder, copied verbatim (visibility and imports adjusted), so the
//! comparisons against [`super`] also cover the live separator.
//!
//! Do not "improve" this module; its value is being frozen.

use std::ops::Range;
use xtree_trees::{Adjacency, BinaryTree, NodeId, Separation};

const NONE: u32 = u32::MAX;

/// A reusable orientation of one piece of a tree.
#[derive(Debug)]
pub struct Orientation {
    stamp: Vec<u32>,
    epoch: u32,
    par: Vec<u32>,
    size: Vec<u32>,
    /// Position of each piece node in `order`: the subtree of `v` is
    /// `order[pos[v] .. pos[v] + size[v]]`.
    pos: Vec<u32>,
    order: Vec<NodeId>,
    /// The DFS stack, kept between calls.
    stack: Vec<u32>,
}

impl Orientation {
    /// Allocates buffers for a tree with `n` nodes.
    pub fn new(n: usize) -> Self {
        Orientation {
            stamp: vec![0; n],
            epoch: 0,
            par: vec![NONE; n],
            size: vec![0; n],
            pos: vec![0; n],
            order: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Grows the buffers to cover a tree with `n` nodes; a no-op when they
    /// already do, which is what makes reuse across lemma calls free.
    pub fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            *self = Orientation::new(n);
        }
    }

    /// Orients the piece containing `root`: the component of nodes that are
    /// neither placed nor listed in `excluded`, reachable from `root`.
    /// Computes parents (toward `root`), preorder positions and subtree
    /// sizes.
    ///
    /// # Panics
    /// Panics if `root` itself is placed or excluded.
    pub fn orient(
        &mut self,
        tree: &BinaryTree,
        placed: &[bool],
        excluded: &[NodeId],
        root: NodeId,
    ) {
        let blocked = |v: NodeId| placed[v.index()] || excluded.contains(&v);
        assert!(!blocked(root), "orientation root is not part of the piece");
        self.epoch += 1;
        if self.epoch == u32::MAX {
            // Stamp wrap: reset all stamps once every 4 billion calls.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.order.clear();
        // Preorder DFS: a node's subtree is popped before anything pushed
        // earlier, so every subtree is a contiguous run of `order`.
        self.stack.clear();
        self.stack.push(root.0);
        self.stamp[root.index()] = self.epoch;
        self.par[root.index()] = NONE;
        while let Some(v) = self.stack.pop() {
            self.pos[v as usize] = self.order.len() as u32;
            self.order.push(NodeId(v));
            self.size[v as usize] = 1;
            for w in tree.neighbors(NodeId(v)) {
                if blocked(w) || self.stamp[w.index()] == self.epoch {
                    continue;
                }
                self.stamp[w.index()] = self.epoch;
                self.par[w.index()] = v;
                self.stack.push(w.0);
            }
        }
        // Accumulate sizes bottom-up (reverse preorder).
        for i in (1..self.order.len()).rev() {
            let v = self.order[i].index();
            let p = self.par[v] as usize;
            self.size[p] += self.size[v];
        }
    }

    /// True if `v` belongs to the currently oriented piece.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    /// Subtree size of `v` within the oriented piece.
    #[inline]
    pub fn size(&self, v: NodeId) -> u32 {
        debug_assert!(self.contains(v));
        self.size[v.index()]
    }

    /// Size of the whole piece.
    #[inline]
    pub fn piece_len(&self) -> usize {
        self.order.len()
    }

    /// Parent of `v` toward the orientation root; `None` at the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        debug_assert!(self.contains(v));
        let p = self.par[v.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// Children of `v` in the oriented piece.
    pub fn children(&self, tree: &BinaryTree, v: NodeId) -> Adjacency<3> {
        debug_assert!(self.contains(v));
        let mut out = Adjacency::default();
        for w in tree.neighbors(v) {
            if self.contains(w) && self.par[w.index()] == v.0 {
                out.push(w);
            }
        }
        out
    }

    /// All nodes of the oriented piece, in preorder.
    #[inline]
    pub fn piece_nodes(&self) -> &[NodeId] {
        &self.order
    }

    /// The positions of `v`'s oriented subtree in
    /// [`piece_nodes`](Self::piece_nodes).
    #[inline]
    pub fn subtree_range(&self, v: NodeId) -> std::ops::Range<usize> {
        debug_assert!(self.contains(v));
        let lo = self.pos[v.index()] as usize;
        lo..lo + self.size[v.index()] as usize
    }

    /// The nodes of `v`'s oriented subtree, in preorder: a slice of the
    /// piece's preorder, no walk.
    #[inline]
    pub fn subtree_nodes(&self, v: NodeId) -> &[NodeId] {
        &self.order[self.subtree_range(v)]
    }

    /// Position of `v` in [`piece_nodes`](Self::piece_nodes).
    #[inline]
    pub fn position(&self, v: NodeId) -> usize {
        debug_assert!(self.contains(v));
        self.pos[v.index()] as usize
    }

    /// True if `v` lies in the oriented subtree of `top` (`v == top`
    /// included): a range test on preorder positions.
    #[inline]
    pub fn in_subtree(&self, v: NodeId, top: NodeId) -> bool {
        debug_assert!(self.contains(v) && self.contains(top));
        let off = self.pos[v.index()].wrapping_sub(self.pos[top.index()]);
        off < self.size[top.index()]
    }

    /// The deepest node common to the root paths of `a` and `b` — the
    /// junction point where the two paths from the orientation root part.
    /// Climbs from `b` to the first node whose subtree holds `a`:
    /// O(depth), with no marks to write.
    pub fn junction(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut cur = b;
        while !self.in_subtree(a, cur) {
            cur = self.parent(cur).expect("nodes are in the same piece");
        }
        cur
    }
}

/// Reusable orientation buffers for the separator lemmas: the main piece
/// plus two correction carves, the most one Lemma-2 call holds at once.
#[derive(Debug)]
pub struct SeparatorScratch {
    pub(crate) o1: Orientation,
    pub(crate) o2: Orientation,
    pub(crate) o3: Orientation,
    /// Runs of preorder positions, for Lemma 2's set differences.
    pub(crate) runs: Vec<(usize, usize)>,
}

impl Default for SeparatorScratch {
    /// An empty scratch; `ensure` (called by every lemma entry point)
    /// grows it on first use.
    fn default() -> Self {
        SeparatorScratch::new(0)
    }
}

impl SeparatorScratch {
    /// Allocates scratch for a tree with `n` nodes.
    pub fn new(n: usize) -> Self {
        SeparatorScratch {
            o1: Orientation::new(n),
            o2: Orientation::new(n),
            o3: Orientation::new(n),
            runs: Vec::new(),
        }
    }

    /// Grows the scratch to cover a tree with `n` nodes.
    pub fn ensure(&mut self, n: usize) {
        self.o1.ensure(n);
        self.o2.ensure(n);
        self.o3.ensure(n);
    }
}

/// Procedure `find1` of the paper: starting from `u`, repeatedly descend to
/// the child of maximal subtree cardinality while `|T(u)| > 4Δ/3`
/// (implemented exactly as `3·|T(u)| > 4·Δ`).
///
/// On return, `|T(u)| ≤ ⌊4Δ/3⌋` and `| |T(u)| − Δ | ≤ ⌊(Δ+1)/3⌋`, and the
/// returned node differs from `start`.
///
/// # Preconditions (asserted)
/// * `Δ ≥ 1` and `3·size(start) > 4·Δ`;
/// * `start` has at most 2 children in the oriented piece (true whenever
///   `start` is a designated node: one of its ≤ 3 tree neighbours is
///   already placed). A third child would weaken the heavy-child bound.
pub fn find1(o: &Orientation, tree: &BinaryTree, start: NodeId, delta: u32) -> NodeId {
    assert!(delta >= 1, "find1 needs Δ ≥ 1");
    assert!(
        3 * o.size(start) > 4 * delta,
        "find1 precondition |T| > 4Δ/3"
    );
    // Hard assert (the documented bounds silently degrade otherwise): a
    // third child weakens the heavy-child lower bound. Designated nodes
    // always satisfy this (one neighbour is placed).
    assert!(
        o.children(tree, start).len() <= 2,
        "find1 start must have ≤ 2 children in the piece"
    );
    let mut u = start;
    while 3 * o.size(u) > 4 * delta {
        u = o
            .children(tree, u)
            .into_iter()
            .max_by_key(|&c| o.size(c))
            .expect("a subtree larger than 4Δ/3 ≥ 1 has children");
    }
    debug_assert_ne!(u, start);
    debug_assert!(u32::abs_diff(o.size(u), delta) <= (delta + 1) / 3);
    u
}

/// Lemma 1 restricted to the piece that remains after additionally treating
/// `excluded` as placed, oriented in the caller-provided buffer. Used by
/// Lemma 2's case 3, which applies Lemma 1 inside the subtree `T(v)` by
/// excluding `v`'s father.
pub fn lemma1_ex(
    o: &mut Orientation,
    tree: &BinaryTree,
    placed: &[bool],
    excluded: &[NodeId],
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Separation {
    o.ensure(tree.len());
    o.orient(tree, placed, excluded, r1);
    let n = o.piece_len() as u32;
    assert!(o.contains(r2), "r2 must lie in the piece of r1");
    assert!(delta >= 1, "lemma 1 needs Δ ≥ 1");
    assert!(
        3 * n > 4 * delta,
        "lemma 1 needs n > 4Δ/3 (n = {n}, Δ = {delta})"
    );

    let u = find1(o, tree, r1, delta);
    let z = o
        .parent(u)
        .expect("find1 never returns the orientation root");
    let part2 = o.subtree_nodes(u).to_vec();

    let mut s1: Vec<NodeId>;
    let s2: Vec<NodeId>;
    if o.in_subtree(r2, u) {
        // Case 1: T(u) contains r2.
        s1 = vec![r1, z];
        s2 = dedup(vec![u, r2]);
    } else {
        // Case 2: r2 stays on r1's side; y is where the paths to u and to
        // r2 part (possibly r1, r2 or z themselves).
        let y = o.junction(u, r2);
        debug_assert_ne!(y, u, "junction in T(u) would imply r2 ∈ T(u)");
        s1 = vec![r1, r2, z, y];
        s2 = vec![u];
    }
    s1 = dedup(s1);
    debug_assert!(u32::abs_diff(part2.len() as u32, delta) <= Separation::lemma1_bound(delta));
    Separation {
        s1,
        s2,
        part2,
        cut: vec![(z, u)],
    }
}

pub fn dedup(mut v: Vec<NodeId>) -> Vec<NodeId> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Lemma 2 on reusable buffers: no allocation of tree-sized arrays once
/// `scratch` has reached the tree's size (a call needs up to three live
/// orientations — the main piece and two correction carves).
pub fn lemma2_with(
    scratch: &mut SeparatorScratch,
    tree: &BinaryTree,
    placed: &[bool],
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Separation {
    scratch.ensure(tree.len());
    let SeparatorScratch {
        o1: o,
        o2,
        o3,
        runs,
    } = scratch;
    o.orient(tree, placed, &[], r1);
    assert!(o.contains(r2), "r2 must lie in the piece of r1");
    let n = o.piece_len() as u32;
    assert!(
        delta >= 1 && delta <= n,
        "lemma 2 needs 1 ≤ Δ ≤ n (Δ = {delta}, n = {n})"
    );

    if delta == n {
        // Take the whole piece: lay out the designated nodes, cut nothing.
        return Separation {
            s1: Vec::new(),
            s2: dedup(vec![r1, r2]),
            part2: o.piece_nodes().to_vec(),
            cut: Vec::new(),
        };
    }
    if 3 * n > 4 * delta {
        main_split(tree, placed, o, o2, o3, runs, r1, r2, delta)
    } else {
        // Δ < n ≤ 4Δ/3: solve for Δ' = n − Δ < Δ/3 and swap the roles of
        // the two sides (paper's closing remark in the proof).
        let inner = main_split(tree, placed, o, o2, o3, runs, r1, r2, n - delta);
        invert(o, inner, runs)
    }
}

/// Appends the nodes at positions `range` of `o`'s preorder to `out`,
/// except those in `drop` (which all lie in `range`), keeping preorder.
///
/// Every `drop` here is a union of a few oriented subtrees, less at most
/// one nested subtree, so walking it once yields a handful of runs of
/// consecutive positions; the kept nodes are the slices between them, and
/// no set is hashed.
fn extend_without(
    out: &mut Vec<NodeId>,
    o: &Orientation,
    range: Range<usize>,
    drop: &[NodeId],
    runs: &mut Vec<(usize, usize)>,
) {
    runs.clear();
    for &v in drop {
        let p = o.position(v);
        debug_assert!(range.contains(&p), "{v:?} lies outside the range");
        match runs.last_mut() {
            Some(run) if run.1 == p => run.1 += 1,
            _ => runs.push((p, p + 1)),
        }
    }
    runs.sort_unstable();
    let order = o.piece_nodes();
    let mut at = range.start;
    for &(lo, hi) in runs.iter() {
        out.extend_from_slice(&order[at..lo]);
        at = hi;
    }
    out.extend_from_slice(&order[at..range.end]);
}

/// Swaps part1 and part2 of a separation of `o`'s piece.
fn invert(o: &Orientation, sep: Separation, runs: &mut Vec<(usize, usize)>) -> Separation {
    let mut part2 = Vec::with_capacity(o.piece_len() - sep.part2.len());
    extend_without(&mut part2, o, 0..o.piece_len(), &sep.part2, runs);
    Separation {
        s1: sep.s2,
        s2: sep.s1,
        part2,
        cut: sep.cut.into_iter().map(|(a, b)| (b, a)).collect(),
    }
}

/// The main construction, assuming `3n > 4Δ` and `Δ ≥ 1`.
/// `o` is oriented from `r1` over the full piece; `o2`, `o3` are spare
/// buffers for the correction carves, and `runs` for set differences.
#[allow(clippy::too_many_arguments)] // mirrors the lemma's case analysis
fn main_split(
    tree: &BinaryTree,
    placed: &[bool],
    o: &Orientation,
    o2: &mut Orientation,
    o3: &mut Orientation,
    runs: &mut Vec<(usize, usize)>,
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Separation {
    // Procedure find2: walk from r1 along the path toward r2 while the
    // subtree stays larger than 4Δ/3. The next step is the one child
    // whose subtree holds r2.
    let mut v = r1;
    while 3 * o.size(v) > 4 * delta && v != r2 {
        v = o
            .children(tree, v)
            .into_iter()
            .find(|&c| o.in_subtree(r2, c))
            .expect("r2 lies below every node of the walk");
    }

    if v == r2 && 3 * o.size(r2) > 4 * delta {
        case_both_in_s1(tree, placed, o, o2, runs, r1, r2, delta)
    } else if o.size(v) < delta {
        case_small_subtree(tree, placed, o, o2, o3, runs, r1, r2, delta, v)
    } else {
        case_medium_subtree(tree, placed, o, o2, runs, r1, r2, delta, v)
    }
}

/// Case 1: the walk reached `r2` and `|T(r2)| > 4Δ/3`. Both designated
/// nodes go to `S1`; the mass for `T2` is carved out of `T(r2)` by find1,
/// applied twice.
#[allow(clippy::too_many_arguments)] // mirrors the lemma's case analysis
fn case_both_in_s1(
    tree: &BinaryTree,
    placed: &[bool],
    o: &Orientation,
    o2: &mut Orientation,
    runs: &mut Vec<(usize, usize)>,
    r1: NodeId,
    r2: NodeId,
    delta: u32,
) -> Separation {
    let u1 = find1(o, tree, r2, delta);
    let s_u1 = o.size(u1);
    let pu1 = o.parent(u1).expect("find1 result has a father");

    if s_u1 == delta {
        return Separation {
            s1: dedup(vec![r1, r2, pu1]),
            s2: vec![u1],
            part2: o.subtree_nodes(u1).to_vec(),
            cut: vec![(pu1, u1)],
        };
    }
    if s_u1 > delta {
        // Overshoot: carve a correction subtree T(w) back out of T(u1).
        let e = s_u1 - delta;
        let w = find1(o, tree, u1, e);
        let pw = o.parent(w).expect("find1 result has a father");
        let mut part2 = Vec::new();
        extend_without(&mut part2, o, o.subtree_range(u1), o.subtree_nodes(w), runs);
        return Separation {
            s1: dedup(vec![r1, r2, pu1, w]),
            s2: dedup(vec![u1, pw]),
            part2,
            cut: vec![(pu1, u1), (w, pw)],
        };
    }
    // Undershoot: carve a second subtree, disjoint from T(u1), out of the
    // remainder of T(r2).
    let e = delta - s_u1;
    o2.orient(tree, placed, &[u1], r1);
    assert!(
        3 * o2.size(r2) > 4 * e,
        "case-1 second carve precondition (guaranteed by |T(r2)| > 4Δ/3)"
    );
    let w = find1(o2, tree, r2, e);
    if o.junction(w, u1) == w {
        // w is an ancestor of u1: the two carvings merge into T(w).
        let pw = o.parent(w).expect("w is below r2");
        return Separation {
            s1: dedup(vec![r1, r2, pw]),
            s2: vec![w],
            part2: o.subtree_nodes(w).to_vec(),
            cut: vec![(pw, w)],
        };
    }
    let pw = o2.parent(w).expect("w is below r2");
    let mut part2 = o.subtree_nodes(u1).to_vec();
    part2.extend_from_slice(o2.subtree_nodes(w));
    // The junction of the two carving paths must be laid out too, or the
    // component between r2, pu1 and pw would have three edges into S1.
    let j = o.junction(u1, w);
    Separation {
        s1: dedup(vec![r1, r2, pu1, pw, j]),
        s2: dedup(vec![u1, w]),
        part2,
        cut: vec![(pu1, u1), (pw, w)],
    }
}

/// Case 2: the walk stopped at `v` with `|T(v)| < Δ` (and `r2 ∈ T(v)`).
/// `T2 = T(v)` plus `Δ − |T(v)|` nodes carved out of `T(x, v)`, the part of
/// the father's subtree avoiding `v`.
#[allow(clippy::too_many_arguments)] // mirrors the lemma's case analysis
fn case_small_subtree(
    tree: &BinaryTree,
    placed: &[bool],
    o: &Orientation,
    o2: &mut Orientation,
    o3: &mut Orientation,
    runs: &mut Vec<(usize, usize)>,
    r1: NodeId,
    r2: NodeId,
    delta: u32,
    v: NodeId,
) -> Separation {
    let x = o.parent(v).expect("the walk moved at least one step");
    let delta1 = delta - o.size(v);
    debug_assert!(delta1 >= 1);
    let base = o.subtree_nodes(v);
    debug_assert!(o.in_subtree(r2, v), "the walk follows the path to r2");

    o2.orient(tree, placed, &[v], r1);
    assert!(
        3 * o2.size(x) > 4 * delta1,
        "case-2 carve precondition (guaranteed by |T(x)| > 4Δ/3)"
    );
    let u1 = find1(o2, tree, x, delta1);
    let pu1 = o2.parent(u1).expect("find1 result has a father");
    let s_u1 = o2.size(u1);

    if s_u1 == delta1 {
        let mut part2 = base.to_vec();
        part2.extend_from_slice(o2.subtree_nodes(u1));
        return Separation {
            s1: dedup(vec![r1, x, pu1]),
            s2: dedup(vec![r2, v, u1]),
            part2,
            cut: vec![(x, v), (pu1, u1)],
        };
    }
    if s_u1 > delta1 {
        let e = s_u1 - delta1;
        let w = find1(o2, tree, u1, e);
        let pw = o2.parent(w).expect("find1 result has a father");
        let mut part2 = base.to_vec();
        extend_without(
            &mut part2,
            o2,
            o2.subtree_range(u1),
            o2.subtree_nodes(w),
            runs,
        );
        return Separation {
            s1: dedup(vec![r1, x, pu1, w]),
            s2: dedup(vec![r2, v, u1, pw]),
            part2,
            cut: vec![(x, v), (pu1, u1), (w, pw)],
        };
    }
    // Undershoot: second disjoint carve from T(x, v) − T(u1).
    let e = delta1 - s_u1;
    o3.orient(tree, placed, &[v, u1], r1);
    assert!(3 * o3.size(x) > 4 * e, "case-2 second carve precondition");
    let u2 = find1(o3, tree, x, e);
    if o2.junction(u2, u1) == u2 {
        // u2 is an ancestor of u1: the carvings merge into T(u2) − T(v).
        let pu2 = o2
            .parent(u2)
            .expect("u2 is below x or equals a child of it");
        let mut part2 = base.to_vec();
        part2.extend_from_slice(o2.subtree_nodes(u2));
        return Separation {
            s1: dedup(vec![r1, x, pu2]),
            s2: dedup(vec![r2, v, u2]),
            part2,
            cut: vec![(x, v), (pu2, u2)],
        };
    }
    let pu2 = o3.parent(u2).expect("find1 result has a father");
    let mut part2 = base.to_vec();
    part2.extend_from_slice(o2.subtree_nodes(u1));
    part2.extend_from_slice(o3.subtree_nodes(u2));
    let j = o2.junction(u1, u2);
    Separation {
        s1: dedup(vec![r1, x, pu1, pu2, j]),
        s2: dedup(vec![r2, v, u1, u2]),
        part2,
        cut: vec![(x, v), (pu1, u1), (pu2, u2)],
    }
}

/// Case 3: the walk stopped at `v` with `Δ ≤ |T(v)| ≤ 4Δ/3`. Apply Lemma 1
/// *inside* `T(v)` with `Δ' = |T(v)| − Δ` and designated nodes `v, r2`; the
/// piece Lemma 1 carves off returns to `T1`.
#[allow(clippy::too_many_arguments)] // mirrors the lemma's case analysis
fn case_medium_subtree(
    tree: &BinaryTree,
    placed: &[bool],
    o: &Orientation,
    o2: &mut Orientation,
    runs: &mut Vec<(usize, usize)>,
    r1: NodeId,
    r2: NodeId,
    delta: u32,
    v: NodeId,
) -> Separation {
    let x = o.parent(v).expect("the walk moved at least one step");
    let dp = o.size(v) - delta;
    if dp == 0 {
        return Separation {
            s1: dedup(vec![r1, x]),
            s2: dedup(vec![v, r2]),
            part2: o.subtree_nodes(v).to_vec(),
            cut: vec![(x, v)],
        };
    }
    // Lemma 1 runs on T(v) alone, so the piece it carves off lies in T(v).
    let inner = lemma1_ex(o2, tree, placed, &[x], v, r2, dp);
    let mut part2 = Vec::new();
    extend_without(&mut part2, o, o.subtree_range(v), &inner.part2, runs);
    let mut s1 = vec![r1, x];
    s1.extend(inner.s2);
    let mut cut = vec![(x, v)];
    cut.extend(inner.cut.into_iter().map(|(a, b)| (b, a)));
    Separation {
        s1: dedup(s1),
        s2: inner.s1,
        part2,
        cut,
    }
}
