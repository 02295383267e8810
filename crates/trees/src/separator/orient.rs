//! Piece orientation: rooting a connected fragment of a binary tree at a
//! designated node and computing subtree sizes, as required by the
//! separator procedures `find1` / `find2`.
//!
//! During the Theorem-1 embedding, the *unplaced* nodes of the guest tree
//! form a forest; each lemma call works on one component ("piece") of that
//! forest. The orientation directs the piece away from the designated node
//! `r1` ("we replace `T` with a directed tree containing the same vertices,
//! each edge directed away from the designated node `r1`").
//!
//! Reusable buffers with epoch stamps keep a lemma call `O(|piece|)` without
//! per-call allocation of tree-sized arrays. The orientation also keeps
//! each node's preorder position, so a subtree is a contiguous slice of the
//! preorder and "is `v` below `u`?" is a range test.

use crate::tree::{Adjacency, BinaryTree, NodeId};

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
    pub(crate) fn subtree_range(&self, v: NodeId) -> std::ops::Range<usize> {
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
    pub(crate) fn position(&self, v: NodeId) -> usize {
        debug_assert!(self.contains(v));
        self.pos[v.index()] as usize
    }

    /// True if `v` lies in the oriented subtree of `top` (`v == top`
    /// included): a range test on preorder positions.
    #[inline]
    pub(crate) fn in_subtree(&self, v: NodeId, top: NodeId) -> bool {
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

/// Reusable orientation buffers for the separator lemmas.
///
/// One Lemma-2 call needs up to three simultaneous orientations (the main
/// piece plus two correction carves); allocating them per call is the
/// dominant cost of a lemma application on large trees (DESIGN.md §9).
/// Hold one `SeparatorScratch` for the whole embedding and pass it to
/// [`lemma1_with`](super::lemma1_with) / [`lemma2_with`](super::lemma2_with).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn orient_whole_tree_from_root() {
        let t = generate::left_complete(15);
        let mut o = Orientation::new(t.len());
        o.orient(&t, &[false; 15], &[], t.root());
        assert_eq!(o.piece_len(), 15);
        assert_eq!(o.size(t.root()), 15);
        for v in t.nodes() {
            assert!(o.contains(v));
            assert_eq!(o.parent(v), t.parent(v));
        }
    }

    #[test]
    fn orient_from_interior_reroots() {
        // Path 0-1-2-3-4 rooted at 2: both directions become children.
        let t = generate::path(5);
        let mut o = Orientation::new(5);
        o.orient(&t, &[false; 5], &[], NodeId(2));
        assert_eq!(o.size(NodeId(2)), 5);
        assert_eq!(o.parent(NodeId(2)), None);
        assert_eq!(o.parent(NodeId(1)), Some(NodeId(2)));
        assert_eq!(o.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(o.size(NodeId(1)), 2);
        assert_eq!(o.size(NodeId(3)), 2);
        assert_eq!(o.children(&t, NodeId(2)).len(), 2);
    }

    #[test]
    fn placed_nodes_block_the_piece() {
        let t = generate::path(7);
        let mut placed = vec![false; 7];
        placed[3] = true;
        let mut o = Orientation::new(7);
        o.orient(&t, &placed, &[], NodeId(0));
        assert_eq!(o.piece_len(), 3); // 0,1,2
        assert!(!o.contains(NodeId(3)));
        assert!(!o.contains(NodeId(5)));
        o.orient(&t, &placed, &[], NodeId(5));
        assert_eq!(o.piece_len(), 3); // 4,5,6
    }

    #[test]
    fn excluded_acts_like_placed() {
        let t = generate::left_complete(7);
        let mut o = Orientation::new(7);
        // Excluding child 1 restricts the piece to {0, 2, 5, 6}.
        o.orient(&t, &[false; 7], &[NodeId(1)], NodeId(0));
        assert_eq!(o.piece_len(), 4);
        assert!(!o.contains(NodeId(3)));
    }

    #[test]
    fn subtree_nodes_and_path() {
        let t = generate::left_complete(15);
        let mut o = Orientation::new(15);
        o.orient(&t, &[false; 15], &[], t.root());
        let sub = o.subtree_nodes(NodeId(1));
        assert_eq!(sub.len(), 7);
        assert_eq!(sub[0], NodeId(1));
        for v in t.nodes() {
            let below = std::iter::successors(Some(v), |&u| t.parent(u)).any(|u| u == NodeId(1));
            assert_eq!(o.in_subtree(v, NodeId(1)), below, "{v:?}");
            assert_eq!(sub.contains(&v), below, "{v:?}");
        }
        let path: Vec<NodeId> = std::iter::successors(Some(NodeId(9)), |&v| o.parent(v)).collect();
        assert_eq!(path, vec![NodeId(9), NodeId(4), NodeId(1), NodeId(0)]);
    }

    #[test]
    fn junction_points() {
        let t = generate::left_complete(15);
        let mut o = Orientation::new(15);
        o.orient(&t, &[false; 15], &[], t.root());
        assert_eq!(o.junction(NodeId(9), NodeId(10)), NodeId(4));
        assert_eq!(o.junction(NodeId(9), NodeId(3)), NodeId(1));
        assert_eq!(o.junction(NodeId(9), NodeId(14)), NodeId(0));
        assert_eq!(o.junction(NodeId(9), NodeId(4)), NodeId(4));
        assert_eq!(o.junction(NodeId(9), NodeId(9)), NodeId(9));
    }

    #[test]
    fn find1_bound_on_random_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [50usize, 200, 1000] {
            let t = generate::random_bst(n, &mut rng);
            let mut o = Orientation::new(n);
            o.orient(&t, &vec![false; n], &[], t.root());
            for delta in [1u32, 2, 5, 10, (n as u32) / 3, (3 * n as u32) / 4 - 1] {
                if delta == 0 || 3 * (n as u32) <= 4 * delta {
                    continue;
                }
                if o.children(&t, t.root()).len() > 2 {
                    continue;
                }
                let u = find1(&o, &t, t.root(), delta);
                let got = o.size(u);
                assert!(
                    u32::abs_diff(got, delta) <= (delta + 1) / 3,
                    "n={n} Δ={delta}: |T(u)|={got}"
                );
            }
        }
    }

    #[test]
    fn find1_on_path_is_exact_enough() {
        let t = generate::path(100);
        let mut o = Orientation::new(100);
        o.orient(&t, &[false; 100], &[], t.root());
        for delta in [1u32, 7, 30, 60] {
            let u = find1(&o, &t, t.root(), delta);
            // On a path every subtree size is hit exactly: |T(u)| = ⌊4Δ/3⌋.
            assert_eq!(o.size(u), 4 * delta / 3);
        }
    }
}
