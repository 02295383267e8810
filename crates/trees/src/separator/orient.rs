//! Piece orientation, read off the guest's static preorder.
//!
//! During the Theorem-1 embedding the *unplaced* nodes of the guest form a
//! forest; each lemma call splits one component ("piece") of it, directed
//! away from a designated node `r1` ("we replace `T` with a directed tree
//! containing the same vertices, each edge directed away from the
//! designated node `r1`").
//!
//! No orientation is materialised. A piece is connected, so it has one
//! node nearest the guest root, its *top*, and it is the static subtree of
//! the top less the static subtrees of its nodes' placed children, its
//! *holes*. Every hole hangs off a node with a placed neighbour, that is a
//! designated node, so the designated list bounds the holes: at most two
//! per designated node. Directing the piece away from `r1` keeps the
//! static parent of every node except those on the static path from `r1`
//! up to the top, the *spine*, which is reversed. So every oriented size,
//! parent, child list, subtree test and junction costs a few reads of the
//! guest's static preorder ([`SubtreeIndex`], built once per guest) and a
//! pass over the holes, and a lemma call costs its walks, not a pass over
//! its piece.
//!
//! The walks themselves move along *runs*. The preorder lays out the
//! larger child first, so every static heavy path is a contiguous stretch
//! of it, and the walks' sizes change monotonically along the stretch:
//! `find2` binary-searches each run of its path for the node where it
//! stops, and `find1` does so wherever the sizes prove it follows the run
//! (see [`View::follow_run`]). A path-shaped piece costs a few searches,
//! not a step per node.

use crate::tree::{Adjacency, BinaryTree, NodeId};

/// The guest's static preorder from its root, heavy child first:
/// `order[pre[v]] = v`, and the subtree of `v` is
/// `order[pre[v] .. pre[v] + sz[v]]`, so "is `v` below `t`?" is a range
/// test.
///
/// Each node's *heavy* child, the one with the larger static subtree (the
/// later one in neighbour order on a tie, as `find1` breaks ties), comes
/// right after it, so each static heavy path is a contiguous stretch of
/// `order`, starting at the position `head[v]` for every node `v` on it.
#[derive(Debug, Default)]
pub struct SubtreeIndex {
    pre: Vec<u32>,
    sz: Vec<u32>,
    /// Preorder position of the top of each node's heavy path.
    head: Vec<u32>,
    order: Vec<NodeId>,
}

impl SubtreeIndex {
    /// Indexes `tree`.
    fn new(tree: &BinaryTree) -> Self {
        let mut ix = SubtreeIndex::default();
        ix.rebuild(tree);
        ix
    }

    /// Re-indexes for `tree`, keeping the buffers.
    fn rebuild(&mut self, tree: &BinaryTree) {
        let n = tree.len();
        // Breadth-first order (parents before children) in `order`, then
        // sizes bottom-up, positions and heads top-down, and finally the
        // preorder itself written over the breadth-first order.
        let order = &mut self.order;
        order.clear();
        order.push(tree.root());
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            order.extend(tree.children(v));
        }
        self.sz.clear();
        self.sz.resize(n, 1);
        for &v in order.iter().rev() {
            if let Some(p) = tree.parent(v) {
                self.sz[p.index()] += self.sz[v.index()];
            }
        }
        self.pre.clear();
        self.pre.resize(n, 0);
        self.head.clear();
        self.head.resize(n, 0);
        for &v in order.iter() {
            let (heavy, light) = match tree.children(v)[..] {
                [a, b] if self.sz[a.index()] > self.sz[b.index()] => (a, Some(b)),
                [a, b] => (b, Some(a)),
                [a] => (a, None),
                _ => continue,
            };
            let at = self.pre[v.index()] + 1;
            self.pre[heavy.index()] = at;
            self.head[heavy.index()] = self.head[v.index()];
            if let Some(light) = light {
                let at = at + self.sz[heavy.index()];
                self.pre[light.index()] = at;
                self.head[light.index()] = at;
            }
        }
        for v in tree.nodes() {
            order[self.pre[v.index()] as usize] = v;
        }
    }

    /// True if `v` lies in the static subtree of `top` (`v == top`
    /// included).
    #[inline]
    pub fn below(&self, v: NodeId, top: NodeId) -> bool {
        let off = self.pre[v.index()].wrapping_sub(self.pre[top.index()]);
        off < self.sz[top.index()]
    }

    /// Size of the static subtree of `v`.
    #[inline]
    pub fn size(&self, v: NodeId) -> u32 {
        self.sz[v.index()]
    }

    /// The static subtree of `v` in preorder: `v` first, and each node's
    /// subtree contiguous right after it, so a walk can jump over one.
    #[inline]
    pub fn subtree(&self, v: NodeId) -> &[NodeId] {
        let (lo, hi) = self.range(v);
        &self.order[lo as usize..hi as usize]
    }

    /// The preorder positions of the static subtree of `v`.
    #[inline]
    fn range(&self, v: NodeId) -> (u32, u32) {
        let lo = self.pre[v.index()];
        (lo, lo + self.sz[v.index()])
    }
}

/// Reusable state of the separator lemmas on one guest: its static
/// preorder, which the Theorem-1 builder also reads to derive fragments,
/// and the buffers of one lemma call.
///
/// Hold one `SeparatorScratch` per guest, [`reindex`](Self::reindex) it
/// when the guest changes, and pass it to
/// [`lemma1_with`](super::lemma1_with) / [`lemma2_with`](super::lemma2_with).
#[derive(Debug, Default)]
pub struct SeparatorScratch {
    index: SubtreeIndex,
    /// The current piece's holes, as preorder ranges.
    pub(crate) holes: Vec<(u32, u32)>,
    /// Signed preorder boundaries, for collecting `part2`.
    pub(crate) events: Vec<(u32, i32)>,
}

impl SeparatorScratch {
    /// Scratch indexed for `tree`.
    pub fn new(tree: &BinaryTree) -> Self {
        SeparatorScratch {
            index: SubtreeIndex::new(tree),
            holes: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Re-indexes for a new guest, keeping the buffers.
    pub fn reindex(&mut self, tree: &BinaryTree) {
        self.index.rebuild(tree);
    }

    /// The guest's static preorder.
    pub fn index(&self) -> &SubtreeIndex {
        &self.index
    }

    /// The piece whose designated nodes (every node of it with a placed
    /// neighbour) are `designated`, directed away from `root`, and the
    /// buffer its `part2` is collected with.
    pub(crate) fn view<'a>(
        &'a mut self,
        tree: &'a BinaryTree,
        placed: &'a [bool],
        designated: impl IntoIterator<Item = NodeId>,
        root: NodeId,
    ) -> (View<'a>, &'a mut Vec<(u32, i32)>) {
        assert_eq!(
            self.index.pre.len(),
            tree.len(),
            "the scratch indexes another guest"
        );
        let top = load_holes(&self.index, tree, placed, designated, &mut self.holes);
        let view = View::new(&self.index, tree, placed, &self.holes, top, root);
        (view, &mut self.events)
    }

    /// The size of the piece whose designated nodes (every node of it with
    /// a placed neighbour) are `designated`, read off the static preorder.
    pub fn piece_len(
        &mut self,
        tree: &BinaryTree,
        placed: &[bool],
        designated: impl IntoIterator<Item = NodeId>,
    ) -> u32 {
        let top = load_holes(&self.index, tree, placed, designated, &mut self.holes);
        View::new(&self.index, tree, placed, &self.holes, top, top).len()
    }
}

/// Writes the holes of the piece with these designated nodes into `holes`
/// and returns its top: the designated node with a placed parent, or the
/// guest root when the piece holds it.
fn load_holes(
    ix: &SubtreeIndex,
    tree: &BinaryTree,
    placed: &[bool],
    designated: impl IntoIterator<Item = NodeId>,
    holes: &mut Vec<(u32, u32)>,
) -> NodeId {
    holes.clear();
    let mut top = None;
    for d in designated {
        if tree.parent(d).is_some_and(|p| placed[p.index()]) {
            debug_assert!(top.is_none(), "a piece has one top");
            top = Some(d);
        }
        for c in tree.children(d) {
            if placed[c.index()] {
                holes.push(ix.range(c));
            }
        }
    }
    top.unwrap_or_else(|| {
        debug_assert!(
            !placed[tree.root().index()],
            "a piece without a top holds the root"
        );
        tree.root()
    })
}

/// A piece directed away from its root `r1`, read off the static
/// preorder, possibly narrowed to a part of it: the oriented subtree of a
/// node (Lemma 2's case 3 runs Lemma 1 there), less up to two oriented
/// subtrees (Lemma 2's correction carves). A narrowed view keeps the
/// piece's orientation, so it agrees with the whole view on parents,
/// subtree tests and junctions.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    tree: &'a BinaryTree,
    ix: &'a SubtreeIndex,
    placed: &'a [bool],
    holes: &'a [(u32, u32)],
    /// The piece's node nearest the guest root.
    top: NodeId,
    /// The orientation root `r1`; the spine runs from it up to `top`.
    root: NodeId,
    /// Size of the whole piece.
    n: u32,
    /// The view's own root: `root`, or a node whose subtree alone is in
    /// view.
    base: NodeId,
    /// Roots of the subtrees carved out of the view.
    carved: Adjacency<2>,
}

impl<'a> View<'a> {
    /// The piece with top `top` and holes `holes`, directed away from
    /// `root`.
    pub fn new(
        ix: &'a SubtreeIndex,
        tree: &'a BinaryTree,
        placed: &'a [bool],
        holes: &'a [(u32, u32)],
        top: NodeId,
        root: NodeId,
    ) -> Self {
        debug_assert!(ix.below(root, top), "the root lies below the piece's top");
        let mut view = View {
            tree,
            ix,
            placed,
            holes,
            top,
            root,
            n: 0,
            base: root,
            carved: Adjacency::default(),
        };
        view.n = view.static_part(top);
        view
    }

    /// The same view less the oriented subtree of `v`, which must not hold
    /// a subtree carved before.
    pub fn carve(mut self, v: NodeId) -> Self {
        debug_assert!(self.contains(v) && v != self.base);
        debug_assert!(self.carved.iter().all(|&c| !self.in_subtree(c, v)));
        self.carved.push(v);
        self
    }

    /// The oriented subtree of `v` alone, rooted at `v`.
    pub fn rooted_at(mut self, v: NodeId) -> Self {
        debug_assert!(self.contains(v) && self.carved.is_empty());
        self.base = v;
        self
    }

    /// Nodes of the static subtree of `v` that lie in the piece.
    #[inline]
    fn static_part(&self, v: NodeId) -> u32 {
        let (lo, hi) = self.ix.range(v);
        let mut s = hi - lo;
        for &(a, b) in self.holes {
            if lo <= a && a < hi {
                s -= b - a;
            }
        }
        s
    }

    /// True if `v` lies on the spine, the static path from the root up to
    /// the top (`v` in the piece).
    #[inline]
    fn on_spine(&self, v: NodeId) -> bool {
        self.ix.below(self.root, v)
    }

    /// The static child of spine node `v ≠ root` that leads to the root:
    /// `v`'s parent in the orientation.
    #[inline]
    fn toward_root(&self, v: NodeId) -> NodeId {
        self.tree
            .children(v)
            .into_iter()
            .find(|&c| self.ix.below(self.root, c))
            .expect("a spine node above the root has a child toward it")
    }

    /// Size of the oriented subtree of `v` in the whole piece.
    #[inline]
    fn full_size(&self, v: NodeId) -> u32 {
        if v == self.root {
            self.n
        } else if self.on_spine(v) {
            self.n - self.static_part(self.toward_root(v))
        } else {
            self.static_part(v)
        }
    }

    /// Parent of `v` in the whole piece's orientation.
    #[inline]
    fn full_parent(&self, v: NodeId) -> Option<NodeId> {
        if v == self.root {
            None
        } else if self.on_spine(v) {
            Some(self.toward_root(v))
        } else {
            self.tree.parent(v)
        }
    }

    /// True if `v` belongs to the view.
    pub fn contains(&self, v: NodeId) -> bool {
        let p = self.ix.pre[v.index()];
        !self.placed[v.index()]
            && self.ix.below(v, self.top)
            && self.holes.iter().all(|&(a, b)| p < a || b <= p)
            && self.in_subtree(v, self.base)
            && self.carved.iter().all(|&c| !self.in_subtree(v, c))
    }

    /// Size of the view.
    #[inline]
    pub fn len(&self) -> u32 {
        self.size(self.base)
    }

    /// Size of `v`'s oriented subtree within the view.
    #[inline]
    pub fn size(&self, v: NodeId) -> u32 {
        let mut s = self.full_size(v);
        for &c in &self.carved {
            if self.in_subtree(c, v) {
                s -= self.full_size(c);
            }
        }
        s
    }

    /// Parent of `v` toward the view's root; `None` at that root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        if v == self.base {
            None
        } else {
            self.full_parent(v)
        }
    }

    /// Children of `v` in the view, in `tree.neighbors` order.
    #[inline]
    pub fn children(&self, v: NodeId) -> Adjacency<3> {
        let up = self.full_parent(v);
        let mut out = Adjacency::default();
        for w in self.tree.neighbors(v) {
            if !self.placed[w.index()] && Some(w) != up && !self.carved.contains(&w) {
                out.push(w);
            }
        }
        out
    }

    /// True if `v` lies in the oriented subtree of `u` (`v == u`
    /// included).
    #[inline]
    pub fn in_subtree(&self, v: NodeId, u: NodeId) -> bool {
        if u == self.root {
            true
        } else if self.on_spine(u) {
            !self.ix.below(v, self.toward_root(u))
        } else {
            self.ix.below(v, u)
        }
    }

    /// The deepest node common to the root paths of `a` and `b` — the
    /// junction point where the two paths from the view's root part.
    /// Climbs from `b` to the first node whose subtree holds `a`.
    pub fn junction(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut cur = b;
        while !self.in_subtree(a, cur) {
            cur = self.parent(cur).expect("nodes are in the same view");
        }
        cur
    }

    /// Procedure `find1` of the paper: starting from `u`, repeatedly
    /// descend to the child of maximal subtree cardinality (the last one
    /// in neighbour order on a tie) while `|T(u)| > 4Δ/3` (implemented
    /// exactly as `3·|T(u)| > 4·Δ`).
    ///
    /// On return, `|T(u)| ≤ ⌊4Δ/3⌋` and `| |T(u)| − Δ | ≤ ⌊(Δ+1)/3⌋`, and
    /// the returned node differs from `start`.
    ///
    /// Where the sizes prove the walk follows a heavy run, it jumps along
    /// the run ([`Self::follow_run`]); it steps one node elsewhere.
    ///
    /// # Preconditions (asserted)
    /// * `Δ ≥ 1` and `3·size(start) > 4·Δ`;
    /// * `start` has at most 2 children in the view (true whenever
    ///   `start` is a designated node: one of its ≤ 3 tree neighbours is
    ///   already placed). A third child would weaken the heavy-child bound.
    pub fn find1(&self, start: NodeId, delta: u32) -> NodeId {
        assert!(delta >= 1, "find1 needs Δ ≥ 1");
        let mut s = self.size(start);
        assert!(3 * s > 4 * delta, "find1 precondition |T| > 4Δ/3");
        // Hard assert (the documented bounds silently degrade otherwise):
        // a third child weakens the heavy-child lower bound. Designated
        // nodes always satisfy this (one neighbour is placed).
        assert!(
            self.children(start).len() <= 2,
            "find1 start must have ≤ 2 children in the piece"
        );
        let mut u = start;
        while 3 * s > 4 * delta {
            (u, s) = self.follow_run(u, s, delta);
            if 3 * s <= 4 * delta {
                break;
            }
            (u, s) = self.heaviest_child(u, s);
        }
        debug_assert_ne!(u, start);
        debug_assert!(u32::abs_diff(s, delta) <= (delta + 1) / 3);
        u
    }

    /// One step of `find1`'s walk from `u` (of size `s`): its child of
    /// maximal size, the last one on a tie, and that size.
    fn heaviest_child(&self, u: NodeId, s: u32) -> (NodeId, u32) {
        // The children's subtrees partition T(u) − u, so the last child's
        // size is what the others leave.
        let kids = self.children(u);
        let (&last, rest) = kids
            .split_last()
            .expect("a subtree larger than 4Δ/3 ≥ 1 has children");
        let mut left = s - 1;
        let mut best = (u, 0);
        for &c in rest {
            let sc = self.size(c);
            left -= sc;
            if sc >= best.1 {
                best = (c, sc);
            }
        }
        if left >= best.1 {
            best = (last, left);
        }
        best
    }

    /// The farthest node of `u`'s heavy run that `find1`'s walk provably
    /// reaches from `u` (of size `s`), and its size; `(u, s)` itself if
    /// the walk may leave the run at once.
    ///
    /// Off the spine the run descends the heavy path (`order[pre[u] + j]`
    /// is the `j`-th node); on the spine it climbs the heavy path toward
    /// the top (`order[pre[u] − j]`), the static parent being the
    /// orientation's child there. Sizes fall strictly along either, so the
    /// walk keeps to the run up to node `j` if no node before it stops
    /// and every other child hanging off those nodes is smaller than node
    /// `j`. The static sizes of those other children sum to a difference
    /// of two static sizes, an upper bound on each, so the condition is
    /// one comparison, true on a prefix of the run: a galloping search
    /// finds its end. Below a heavy child with no hole or carve under it,
    /// the static sizes are the view's and decide every step, ties
    /// included (the layout breaks ties as `find1` does).
    fn follow_run(&self, u: NodeId, s: u32, delta: u32) -> (NodeId, u32) {
        let ix = self.ix;
        let x = ix.pre[u.index()];
        let size_u = ix.sz[u.index()];
        let goes = |s: u32| 3 * s > 4 * delta;
        // Past `s − ⌊4Δ/3⌋` steps a size is small enough to stop.
        let fall = s - 4 * delta / 3;
        let node = |p: u32| ix.order[p as usize];
        // The size of the `j`-th node, `s` at `j = 0`.
        let at = |j: u32, v: NodeId| if j == 0 { s } else { self.size(v) };
        if !self.on_spine(u) {
            if size_u == 1 {
                return (u, s);
            }
            let h = ix.head[u.index()];
            let on_run = |j: u32| ix.head[node(x + j).index()] == h;
            if self.clear_below(node(x + 1)) {
                // Static sizes decide: the walk stops on the run, at the
                // latest at its leaf.
                let hit = |j: u32| !on_run(j) || !goes(ix.sz[node(x + j).index()]);
                let bound = size_u - 4 * delta / 3;
                let j = first_hit(size_u - 1, bound, hit).expect("a heavy path ends in a leaf");
                let v = node(x + j);
                return (v, ix.sz[v.index()]);
            }
            // Holes and carves rooted on the run end it.
            let mut end = size_u - 1;
            let roots = self.holes.iter().map(|&(a, _)| a);
            for r in roots.chain(self.carved.iter().map(|c| ix.pre[c.index()])) {
                if r > x && r - x <= end && ix.head[node(r).index()] == h {
                    end = r - x - 1;
                }
            }
            let hit = |j: u32| {
                !on_run(j) || !goes(at(j - 1, node(x + j - 1))) || {
                    let v = node(x + j);
                    size_u - ix.sz[v.index()] - j >= self.size(v)
                }
            };
            let j = first_hit(end, fall + 1, hit).map_or(end, |j| j - 1);
            let v = node(x + j);
            (v, at(j, v))
        } else {
            if u == self.top {
                return (u, s);
            }
            // The climb stays below the top and any carved spine node.
            let mut lo = ix.head[u.index()].max(ix.pre[self.top.index()]);
            for &c in &self.carved {
                if self.on_spine(c) {
                    lo = lo.max(ix.pre[c.index()] + 1);
                }
            }
            let below_u = if u == self.root {
                0
            } else {
                ix.sz[self.toward_root(u).index()]
            };
            let other = size_u - 1 - below_u;
            let max = x.saturating_sub(lo);
            let hit = |j: u32| {
                !goes(at(j - 1, node(x + 1 - j))) || {
                    let v = node(x - j);
                    other + ix.sz[node(x + 1 - j).index()] - size_u - (j - 1) >= self.size(v)
                }
            };
            let j = first_hit(max, fall + 1, hit).map_or(max, |j| j - 1);
            let v = node(x - j);
            (v, at(j, v))
        }
    }

    /// True if no hole and no carve lies in the static subtree of `c`, so
    /// every size below `c` is static.
    fn clear_below(&self, c: NodeId) -> bool {
        let (lo, hi) = self.ix.range(c);
        self.holes.iter().all(|&(a, _)| a < lo || hi <= a)
            && self.carved.iter().all(|&k| !self.ix.below(k, c))
    }

    /// Procedure `find2` of the paper on the whole piece: walks from the
    /// root along the path toward `r2` while the subtree stays larger than
    /// `4Δ/3`, and returns where it stops. The path climbs the spine to
    /// the first node above `r2`, then descends the static tree.
    ///
    /// Sizes fall strictly along the path, so "the walk stops here" is
    /// false and then true along it: each run of the path, a stretch of
    /// one heavy path, is searched for its first stop, with a few reads
    /// of the index and a pass over the holes per probe.
    pub fn find2(&self, r2: NodeId, delta: u32) -> NodeId {
        debug_assert!(self.base == self.root && self.carved.is_empty());
        let ix = self.ix;
        let node = |p: u32| ix.order[p as usize];
        let stops = |v: NodeId, s: u32| 3 * s <= 4 * delta || v == r2;
        // Past `s − ⌊4Δ/3⌋` steps a size is small enough to stop.
        let fall = |s: u32| s - 4 * delta / 3;
        let (mut v, mut s) = (self.root, self.n);
        // Climbing: the orientation's subtree of the static parent is the
        // piece less the static part below the node climbed from.
        while !stops(v, s) && !ix.below(r2, v) {
            let x = ix.pre[v.index()];
            let size_at = |j: u32| self.n - self.static_part(node(x + 1 - j));
            let hit = |j: u32| ix.below(r2, node(x - j)) || stops(node(x - j), size_at(j));
            // The run, up to the top at most (r2's junction lies below it).
            let max = x - ix.head[v.index()].max(ix.pre[self.top.index()]);
            match first_hit(max, fall(s), hit) {
                Some(j) => (v, s) = (node(x - j), size_at(j)),
                None => {
                    let h = node(x - max);
                    s = self.n - self.static_part(h);
                    v = self.tree.parent(h).expect("r2 lies above");
                }
            }
        }
        // Descending toward r2 (strictly below `v`): along `v`'s run while
        // its heavy child leads there, else onto the light child.
        while !stops(v, s) {
            let x = ix.pre[v.index()];
            if !ix.below(r2, node(x + 1)) {
                v = self
                    .tree
                    .children(v)
                    .into_iter()
                    .find(|&c| ix.below(r2, c))
                    .expect("r2 lies below one child");
                s = self.static_part(v);
                continue;
            }
            let h = ix.head[v.index()];
            let on_path = |j: u32| {
                let u = node(x + j);
                ix.head[u.index()] == h && ix.below(r2, u)
            };
            let hit = |j: u32| !on_path(j) || stops(node(x + j), self.static_part(node(x + j)));
            let j = first_hit(ix.sz[v.index()] - 1, fall(s), hit).expect("the path ends at r2");
            if on_path(j) {
                return node(x + j);
            }
            v = node(x + j - 1);
            s = self.static_part(v);
        }
        v
    }

    /// The number of nodes [`Self::collect`] lists for the same
    /// arguments: a few oriented sizes.
    pub fn part_len(&self, add: &[NodeId], remove: Option<NodeId>, invert: bool) -> u32 {
        let added: u32 = add.iter().map(|&v| self.full_size(v)).sum();
        let len = added - remove.map_or(0, |v| self.full_size(v));
        if invert {
            self.n - len
        } else {
            len
        }
    }

    /// The nodes of a combination of oriented subtrees of the whole
    /// piece, in static preorder: the union of the subtrees of `add`
    /// (pairwise disjoint) less the subtree of `remove` (inside one of
    /// them); with `invert`, the rest of the piece instead.
    ///
    /// Each oriented subtree is a static preorder range (a spine node's
    /// is the top's range less the range of its child toward the root),
    /// less the holes. So the result is a signed sum of a few ranges,
    /// swept once, and copied as the slices of the preorder between its
    /// boundaries.
    pub fn collect(
        &self,
        add: &[NodeId],
        remove: Option<NodeId>,
        invert: bool,
        events: &mut Vec<(u32, i32)>,
    ) -> Vec<NodeId> {
        events.clear();
        let mut range = |(lo, hi): (u32, u32), sign: i32| {
            events.push((lo, sign));
            events.push((hi, -sign));
        };
        let whole = self.ix.range(self.top);
        let sign = if invert {
            range(whole, 1);
            -1
        } else {
            1
        };
        let terms = add
            .iter()
            .map(|&v| (v, sign))
            .chain(remove.map(|v| (v, -sign)));
        for (v, sign) in terms {
            if v == self.root {
                range(whole, sign);
            } else if self.on_spine(v) {
                range(whole, sign);
                range(self.ix.range(self.toward_root(v)), -sign);
            } else {
                range(self.ix.range(v), sign);
            }
        }
        for &hole in self.holes {
            range(hole, -1);
        }
        events.sort_unstable();
        let len = self.part_len(add, remove, invert) as usize;
        let mut out = Vec::with_capacity(len);
        let (mut cover, mut at) = (0, 0);
        for &(pos, d) in events.iter() {
            if cover > 0 {
                out.extend_from_slice(&self.ix.order[at as usize..pos as usize]);
            }
            debug_assert!(cover <= 1, "the subtrees overlap");
            cover += d;
            at = pos;
        }
        debug_assert_eq!(out.len(), len);
        out
    }
}

/// The first `j` in `1..=max` with `hit(j)`, for a `hit` that is false
/// and then true, and true from `bound` on.
///
/// The walks' sizes fall by at least one per step, so a size threshold
/// gives the bound, and on a run whose sizes fall by exactly one per step
/// (a path) the answer is the bound itself. So the search probes the node
/// before the bound, then the run's first node (walks often leave a run
/// at once), and then gallops and bisects: one probe on a path, `O(log j)`
/// elsewhere.
fn first_hit(max: u32, bound: u32, mut hit: impl FnMut(u32) -> bool) -> Option<u32> {
    // `hit(lo)` is false (`lo = 0` stands before the run), and `hit(hi)`
    // true unless `hi` is past the run.
    let (mut lo, mut hi) = (0, bound.clamp(1, max + 1));
    for probe in [hi - 1, 1] {
        if lo < probe && probe < hi {
            if hit(probe) {
                hi = probe;
            } else {
                lo = probe;
            }
        }
    }
    let mut step = 1;
    while hi - lo > 1 {
        let probe = lo + step.min((hi - lo) / 2);
        if hit(probe) {
            hi = probe;
        } else {
            lo = probe;
            step *= 2;
        }
    }
    (hi <= max).then_some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, TreeFamily};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    /// The view of the piece holding `root`, its designated nodes found by
    /// flooding.
    fn view<'a>(
        scratch: &'a mut SeparatorScratch,
        t: &'a BinaryTree,
        placed: &'a [bool],
        root: NodeId,
    ) -> View<'a> {
        let designated = super::super::designated_by_flood(t, placed, root);
        scratch.view(t, placed, designated, root).0
    }

    /// A piece of `root` oriented by brute force: a breadth-first flood
    /// over un-placed nodes not in `blocked`.
    struct Flood {
        parent: HashMap<NodeId, Option<NodeId>>,
        size: HashMap<NodeId, u32>,
        order: Vec<NodeId>,
    }

    impl Flood {
        fn new(t: &BinaryTree, placed: &[bool], blocked: &[NodeId], root: NodeId) -> Self {
            let mut parent = HashMap::from([(root, None)]);
            let mut order = vec![root];
            let mut head = 0;
            while head < order.len() {
                let v = order[head];
                head += 1;
                for w in t.neighbors(v) {
                    if !placed[w.index()] && !blocked.contains(&w) && !parent.contains_key(&w) {
                        parent.insert(w, Some(v));
                        order.push(w);
                    }
                }
            }
            let mut size: HashMap<NodeId, u32> = order.iter().map(|&v| (v, 1)).collect();
            for &v in order.iter().rev() {
                if let Some(p) = parent[&v] {
                    *size.get_mut(&p).unwrap() += size[&v];
                }
            }
            Flood {
                parent,
                size,
                order,
            }
        }

        fn children(&self, t: &BinaryTree, v: NodeId) -> Vec<NodeId> {
            let mut out = t.neighbors(v).to_vec();
            out.retain(|w| self.parent.get(w) == Some(&Some(v)));
            out
        }

        /// `v` and its ancestors, bottom-up.
        fn up(&self, v: NodeId) -> Vec<NodeId> {
            std::iter::successors(Some(v), |u| self.parent[u]).collect()
        }

        fn subtree(&self, u: NodeId) -> Vec<NodeId> {
            let mut out: Vec<NodeId> = self
                .order
                .iter()
                .copied()
                .filter(|&v| self.up(v).contains(&u))
                .collect();
            out.sort_unstable();
            out
        }
    }

    /// Checks `o` against the flood `f` of the same nodes: size, parent,
    /// children (in neighbour order), subtree tests and junctions.
    fn check(t: &BinaryTree, o: &View<'_>, f: &Flood, rng: &mut ChaCha8Rng) {
        assert_eq!(o.len() as usize, f.order.len());
        for &v in &f.order {
            assert!(o.contains(v), "{v:?}");
            assert_eq!(o.size(v), f.size[&v], "size of {v:?}");
            assert_eq!(o.parent(v), f.parent[&v], "parent of {v:?}");
            assert_eq!(
                &o.children(v)[..],
                &f.children(t, v)[..],
                "children of {v:?}"
            );
        }
        for _ in 0..64 {
            let a = f.order[rng.random_range(0..f.order.len())];
            let b = f.order[rng.random_range(0..f.order.len())];
            let (up_a, up_b) = (f.up(a), f.up(b));
            assert_eq!(o.in_subtree(a, b), up_a.contains(&b), "{a:?} below {b:?}");
            let j = *up_b.iter().find(|u| up_a.contains(u)).unwrap();
            assert_eq!(o.junction(a, b), j, "junction of {a:?}, {b:?}");
        }
    }

    /// Sorted, for comparing sets.
    fn sorted(mut vs: Vec<NodeId>) -> Vec<NodeId> {
        vs.sort_unstable();
        vs
    }

    /// The walks as the paper states them, one node per step: the oracles
    /// the run searches must agree with.
    impl View<'_> {
        fn find1_stepping(&self, start: NodeId, delta: u32) -> NodeId {
            let (mut u, mut s) = (start, self.size(start));
            while 3 * s > 4 * delta {
                (u, s) = self.heaviest_child(u, s);
            }
            u
        }

        fn find2_stepping(&self, r2: NodeId, delta: u32) -> NodeId {
            let (mut v, mut s) = (self.root, self.n);
            while 3 * s > 4 * delta && v != r2 {
                if self.ix.below(r2, v) {
                    v = self
                        .tree
                        .children(v)
                        .into_iter()
                        .find(|&c| self.ix.below(r2, c))
                        .expect("r2 lies below one child");
                    s = self.static_part(v);
                } else {
                    s = self.n - self.static_part(v);
                    v = self.tree.parent(v).expect("r2 lies above");
                }
            }
            v
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The view agrees with a flood orientation on the whole piece,
        // with one and two carved subtrees, and on a node's subtree
        // alone; `collect` agrees with the flood's subtree sets. Dense
        // placements give pieces with three or more designated nodes,
        // and `multi` picks one whenever the guest has one.
        #[test]
        fn view_matches_a_flood_orientation(
            seed in any::<u64>(),
            family in 0usize..12,
            n in 2usize..300,
            density in 0usize..4,
            multi in any::<bool>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = TreeFamily::ALL[family].generate(n, &mut rng);
            let per64 = [0, 1, 4, 12][density];
            let placed: Vec<bool> = (0..t.len()).map(|_| rng.random_range(0..64) < per64).collect();
            let free: Vec<NodeId> = t.nodes().filter(|v| !placed[v.index()]).collect();
            prop_assume!(!free.is_empty());
            let has_placed_neighbour =
                |v: NodeId| t.neighbors(v).iter().any(|w| placed[w.index()]);
            let mut r1 = free[rng.random_range(0..free.len())];
            if multi {
                if let Some(&v) = free.iter().find(|&&v| {
                    let f = Flood::new(&t, &placed, &[], v);
                    f.order.iter().filter(|&&u| has_placed_neighbour(u)).count() >= 3
                }) {
                    r1 = v;
                }
            }
            let whole = Flood::new(&t, &placed, &[], r1);
            let designated: Vec<NodeId> =
                whole.order.iter().copied().filter(|&v| has_placed_neighbour(v)).collect();
            let mut scratch = SeparatorScratch::new(&t);
            let (o, events) = scratch.view(&t, &placed, designated.iter().rev().copied(), r1);
            check(&t, &o, &whole, &mut rng);
            for v in t.nodes() {
                prop_assert_eq!(o.contains(v), whole.parent.contains_key(&v));
            }

            // collect: a subtree, the rest of the piece, and two disjoint
            // subtrees less one nested in the first.
            let m = whole.order.len();
            let u1 = whole.order[rng.random_range(0..m)];
            let t1 = whole.subtree(u1);
            prop_assert_eq!(&sorted(o.collect(&[u1], None, false, events)), &t1);
            let rest: Vec<NodeId> = sorted(whole.order.clone()).into_iter().filter(|v| !t1.contains(v)).collect();
            prop_assert_eq!(sorted(o.collect(&[u1], None, true, events)), rest);
            let w = t1[rng.random_range(0..t1.len())];
            let u2 = whole.order[rng.random_range(0..m)];
            if w != u1 && !t1.contains(&u2) && !whole.subtree(u2).contains(&u1) {
                let mut expect: Vec<NodeId> = t1.iter().copied().filter(|v| !whole.subtree(w).contains(v)).collect();
                expect.extend(whole.subtree(u2));
                prop_assert_eq!(sorted(o.collect(&[u1, u2], Some(w), false, events)), sorted(expect));
            }

            // Carves, as Lemma 2's corrections make them.
            if m > 1 {
                let c1 = whole.order[rng.random_range(1..m)];
                let f1 = Flood::new(&t, &placed, &[c1], r1);
                let o1 = o.carve(c1);
                check(&t, &o1, &f1, &mut rng);
                let c2 = f1.order[rng.random_range(0..f1.order.len())];
                if c2 != r1 && !whole.subtree(c2).contains(&c1) {
                    let f2 = Flood::new(&t, &placed, &[c1, c2], r1);
                    check(&t, &o1.carve(c2), &f2, &mut rng);
                }
            }

            // A node's subtree alone, as Lemma 2's case 3 reads it.
            let s = whole.order[rng.random_range(0..m)];
            let above: Vec<NodeId> = whole.parent[&s].into_iter().collect();
            check(&t, &o.rooted_at(s), &Flood::new(&t, &placed, &above, s), &mut rng);
        }
    }

    /// A piece node drawn uniformly, with its view size.
    fn draw(rng: &mut ChaCha8Rng, o: &View<'_>, nodes: &[NodeId]) -> Option<(NodeId, u32)> {
        let inside: Vec<NodeId> = nodes.iter().copied().filter(|&v| o.contains(v)).collect();
        let v = *inside.get(rng.random_range(0..inside.len().max(1)))?;
        Some((v, o.size(v)))
    }

    /// Checks `find1` against the stepping oracle from a few drawn starts
    /// of `o` (including its own root), each with a drawn `Δ`.
    fn check_find1(
        rng: &mut ChaCha8Rng,
        o: &View<'_>,
        nodes: &[NodeId],
    ) -> Result<(), TestCaseError> {
        for k in 0..6 {
            let start = if k == 0 {
                Some((o.base, o.len()))
            } else {
                draw(rng, o, nodes)
            };
            let Some((start, size)) = start else { continue };
            if size < 2 || o.children(start).len() > 2 {
                continue;
            }
            let delta = rng.random_range(1..=(3 * size - 1) / 4);
            let (got, want) = (o.find1(start, delta), o.find1_stepping(start, delta));
            prop_assert!(
                got == want,
                "find1 from {start:?} (size {size}), Δ = {delta}: {got:?}, oracle {want:?}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The run searches return the stepping walks' node, on whole,
        // carved and sub-rooted views. Path, caterpillar and broom guests
        // reach 4 000 nodes (long runs); complete and balanced ones have
        // static ties; sparse placements leave long pieces with holes.
        #[test]
        fn walks_match_the_stepping_oracles(
            seed in any::<u64>(),
            family in 0usize..18,
            scale in 2usize..4000,
            density in 0usize..4,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Half the cases draw a path, caterpillar or broom.
            let family = TreeFamily::ALL.get(family).copied().unwrap_or(
                [TreeFamily::Path, TreeFamily::Caterpillar, TreeFamily::Broom][family % 3],
            );
            let path_like = matches!(family, TreeFamily::Path | TreeFamily::Caterpillar | TreeFamily::Broom);
            let n = if path_like { scale } else { 2 + scale / 4 };
            let t = family.generate(n, &mut rng);
            let per1024 = [0, 1, 16, 128][density];
            let placed: Vec<bool> = (0..t.len()).map(|_| rng.random_range(0..1024) < per1024).collect();
            let free: Vec<NodeId> = t.nodes().filter(|v| !placed[v.index()]).collect();
            prop_assume!(!free.is_empty());
            let mut scratch = SeparatorScratch::new(&t);
            for _ in 0..4 {
                let r1 = free[rng.random_range(0..free.len())];
                let o = view(&mut scratch, &t, &placed, r1);
                let nodes: Vec<NodeId> = free.iter().copied().filter(|&v| o.contains(v)).collect();
                let m = o.len();
                prop_assert_eq!(m as usize, nodes.len());
                for _ in 0..6 {
                    let r2 = nodes[rng.random_range(0..nodes.len())];
                    let delta = rng.random_range(1..=m);
                    let (got, want) = (o.find2(r2, delta), o.find2_stepping(r2, delta));
                    prop_assert!(got == want, "find2 to {r2:?}, Δ = {delta}: {got:?}, oracle {want:?}");
                }
                check_find1(&mut rng, &o, &nodes)?;
                if m < 3 {
                    continue;
                }
                // Carves, as Lemma 2's corrections make them.
                let c1 = nodes[rng.random_range(0..nodes.len())];
                if c1 != r1 {
                    let o1 = o.carve(c1);
                    check_find1(&mut rng, &o1, &nodes)?;
                    if let Some((c2, _)) = draw(&mut rng, &o1, &nodes) {
                        if c2 != r1 && !o.in_subtree(c1, c2) {
                            check_find1(&mut rng, &o1.carve(c2), &nodes)?;
                        }
                    }
                }
                // A node's subtree alone, as Lemma 2's case 3 reads it.
                let b = nodes[rng.random_range(0..nodes.len())];
                check_find1(&mut rng, &o.rooted_at(b), &nodes)?;
            }
        }
    }

    #[test]
    fn first_hit_finds_the_first_hit_for_every_valid_bound() {
        for max in 0..40u32 {
            // `first` past `max` means nothing in range hits; any bound
            // from `first` on is valid.
            for first in 1..=max + 1 {
                for bound in first..=max + 2 {
                    let want = (first <= max).then_some(first);
                    let got = first_hit(max, bound, |j| {
                        assert!((1..=max).contains(&j), "probe {j} outside 1..={max}");
                        j >= first
                    });
                    assert_eq!(got, want, "max {max}, first {first}, bound {bound}");
                }
            }
        }
    }

    #[test]
    fn index_is_a_preorder_with_subtree_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for t in [
            generate::random_bst(300, &mut rng),
            generate::balanced(255),
            generate::left_complete(100),
            generate::caterpillar(99),
            generate::uniform_random(400, &mut rng),
        ] {
            let ix = SubtreeIndex::new(&t);
            assert_eq!(ix.sz, t.subtree_sizes());
            for v in t.nodes() {
                let p = ix.pre[v.index()];
                assert_eq!(ix.order[p as usize], v);
                // Heavy first: the larger child (the later one on a tie)
                // follows its parent, and the other follows its subtree.
                let kids = t.children(v);
                let heavy = match kids[..] {
                    [a, b] if ix.size(a) > ix.size(b) => Some(a),
                    [_, b] => Some(b),
                    [a] => Some(a),
                    _ => None,
                };
                if let Some(c) = heavy {
                    assert_eq!(ix.pre[c.index()], p + 1, "heavy child of {v:?}");
                    assert_eq!(ix.head[c.index()], ix.head[v.index()], "head of {c:?}");
                    for &l in kids.iter().filter(|&&l| l != c) {
                        assert_eq!(
                            ix.pre[l.index()],
                            p + 1 + ix.size(c),
                            "light child of {v:?}"
                        );
                        assert_eq!(ix.head[l.index()], ix.pre[l.index()], "head of {l:?}");
                    }
                }
            }
            assert_eq!(ix.head[t.root().index()], 0);
            assert_eq!(ix.pre[t.root().index()], 0);
        }
    }

    #[test]
    fn orient_whole_tree_from_root() {
        let t = generate::left_complete(15);
        let mut scratch = SeparatorScratch::new(&t);
        let o = view(&mut scratch, &t, &[false; 15], t.root());
        assert_eq!(o.len(), 15);
        for v in t.nodes() {
            assert!(o.contains(v));
            assert_eq!(o.parent(v), t.parent(v));
        }
    }

    #[test]
    fn orient_from_interior_reroots() {
        // Path 0-1-2-3-4 rooted at 2: both directions become children.
        let t = generate::path(5);
        let mut scratch = SeparatorScratch::new(&t);
        let o = view(&mut scratch, &t, &[false; 5], NodeId(2));
        assert_eq!(o.size(NodeId(2)), 5);
        assert_eq!(o.parent(NodeId(2)), None);
        assert_eq!(o.parent(NodeId(1)), Some(NodeId(2)));
        assert_eq!(o.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(o.size(NodeId(1)), 2);
        assert_eq!(o.size(NodeId(3)), 2);
        assert_eq!(o.children(NodeId(2)).len(), 2);
    }

    #[test]
    fn placed_nodes_block_the_piece() {
        let t = generate::path(7);
        let mut placed = vec![false; 7];
        placed[3] = true;
        let mut scratch = SeparatorScratch::new(&t);
        let o = view(&mut scratch, &t, &placed, NodeId(0));
        assert_eq!(o.len(), 3); // 0,1,2
        assert!(!o.contains(NodeId(3)));
        assert!(!o.contains(NodeId(5)));
        let o = view(&mut scratch, &t, &placed, NodeId(5));
        assert_eq!(o.len(), 3); // 4,5,6
    }

    #[test]
    fn excluded_acts_like_placed() {
        let t = generate::left_complete(7);
        let mut scratch = SeparatorScratch::new(&t);
        // Carving (excluding) child 1 leaves {0, 2, 5, 6}.
        let o = view(&mut scratch, &t, &[false; 7], NodeId(0)).carve(NodeId(1));
        assert_eq!(o.len(), 4);
        assert!(!o.contains(NodeId(3)));
        assert_eq!(&o.children(NodeId(0))[..], &[NodeId(2)]);
    }

    #[test]
    fn subtree_nodes_and_path() {
        let t = generate::left_complete(15);
        let mut scratch = SeparatorScratch::new(&t);
        let o = view(&mut scratch, &t, &[false; 15], t.root());
        let sub = o.collect(&[NodeId(1)], None, false, &mut Vec::new());
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
        let mut scratch = SeparatorScratch::new(&t);
        let o = view(&mut scratch, &t, &[false; 15], t.root());
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
            let mut scratch = SeparatorScratch::new(&t);
            let placed = vec![false; n];
            let o = view(&mut scratch, &t, &placed, t.root());
            for delta in [1u32, 2, 5, 10, (n as u32) / 3, (3 * n as u32) / 4 - 1] {
                if delta == 0 || 3 * (n as u32) <= 4 * delta {
                    continue;
                }
                if o.children(t.root()).len() > 2 {
                    continue;
                }
                let u = o.find1(t.root(), delta);
                let got = o.size(u);
                assert!(
                    u32::abs_diff(got, delta) <= (delta + 1) / 3,
                    "n={n} Δ={delta}: |T(u)|={got}"
                );
            }
        }
    }

    #[test]
    fn holes_come_from_every_designated_node() {
        // In the complete tree on 15 nodes (children of v: 2v+1, 2v+2),
        // placing the root and the grandchildren 7 and 9 of node 1 leaves
        // node 1's piece {1, 3, 4, 8, 10} next to three placed nodes. The
        // hole under node 3 is missed unless node 3 is passed too.
        let t = generate::left_complete(15);
        let mut placed = vec![false; 15];
        for v in [0, 7, 9] {
            placed[v] = true;
        }
        let mut scratch = SeparatorScratch::new(&t);
        let all = [NodeId(1), NodeId(3), NodeId(4)];
        assert_eq!(scratch.piece_len(&t, &placed, all), 5);
        assert_eq!(scratch.piece_len(&t, &placed, [NodeId(1), NodeId(4)]), 6);
    }

    #[test]
    fn find1_on_path_is_exact_enough() {
        let t = generate::path(100);
        let mut scratch = SeparatorScratch::new(&t);
        let o = view(&mut scratch, &t, &[false; 100], t.root());
        for delta in [1u32, 7, 30, 60] {
            let u = o.find1(t.root(), delta);
            // On a path every subtree size is hit exactly: |T(u)| = ⌊4Δ/3⌋.
            assert_eq!(o.size(u), 4 * delta / 3);
        }
    }
}
