//! Arbitrary binary trees — the *guest* graphs of the paper.
//!
//! A binary tree here is a rooted tree in which every node has at most two
//! children (so every vertex has degree ≤ 3, the root degree ≤ 2). This is
//! the class the paper embeds: "binary trees reflect common data structures
//! and the type of program structure found in common divide-and-conquer
//! algorithms".

use std::fmt;

/// Index of a node within a [`BinaryTree`] arena.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

pub(crate) const NONE: u32 = u32::MAX;

/// A fixed-capacity inline list, of nodes unless `T` says otherwise.
///
/// A binary-tree node has at most two children and three neighbours, so
/// adjacency queries never need the heap: this is a plain array plus a
/// length, `Copy`, and dereferences to a slice. (It replaced a vendored
/// `SmallVec` stand-in that heap-allocated on every call.) The separator
/// lemmas keep their boundary sets and cut edges in it too.
#[derive(Clone, Copy)]
pub struct Adjacency<const N: usize, T = NodeId> {
    buf: [T; N],
    len: u8,
}

impl<const N: usize, T: Copy + Default> Default for Adjacency<N, T> {
    fn default() -> Self {
        Adjacency {
            buf: [T::default(); N],
            len: 0,
        }
    }
}

impl<const N: usize, T: Copy + Default> Adjacency<N, T> {
    #[inline]
    fn new() -> Self {
        Adjacency::default()
    }

    /// Appends `v`.
    ///
    /// # Panics
    /// Panics if the list already holds `N` entries.
    #[inline]
    pub fn push(&mut self, v: T) {
        self.buf[usize::from(self.len)] = v;
        self.len += 1;
    }

    /// The entries of `vs`, at most `N` of them.
    pub(crate) fn of(vs: &[T]) -> Self {
        vs.iter().copied().collect()
    }
}

impl<const N: usize, T> Adjacency<N, T> {
    /// The entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..usize::from(self.len)]
    }
}

impl<const N: usize, T: Copy + Default> FromIterator<T> for Adjacency<N, T> {
    /// # Panics
    /// Panics past `N` entries.
    fn from_iter<I: IntoIterator<Item = T>>(vs: I) -> Self {
        let mut out = Self::new();
        for v in vs {
            out.push(v);
        }
        out
    }
}

impl<const N: usize> Adjacency<N> {
    /// The distinct entries of `vs`, sorted.
    pub(crate) fn set(vs: &[NodeId]) -> Self {
        let mut all = Self::of(vs);
        all.buf[..vs.len()].sort_unstable();
        let mut out = Self::new();
        for v in all {
            if out.last() != Some(&v) {
                out.push(v);
            }
        }
        out
    }
}

impl<const N: usize, T> std::ops::Deref for Adjacency<N, T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<const N: usize, T: PartialEq> PartialEq for Adjacency<N, T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize, T: Eq> Eq for Adjacency<N, T> {}

impl<const N: usize, T: fmt::Debug> fmt::Debug for Adjacency<N, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<const N: usize, T> IntoIterator for Adjacency<N, T> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(usize::from(self.len))
    }
}

impl<'a, const N: usize, T> IntoIterator for &'a Adjacency<N, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A rooted binary tree stored as an arena of parent / child links.
#[derive(Clone)]
pub struct BinaryTree {
    parent: Vec<u32>,
    children: Vec<[u32; 2]>,
    root: u32,
}

impl BinaryTree {
    /// A tree with a single root node.
    pub fn singleton() -> Self {
        Self::with_capacity(1)
    }

    /// A single root with room for `n` nodes, for generators that grow a
    /// tree of known size with [`Self::add_child`].
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut parent = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n);
        parent.push(NONE);
        children.push([NONE, NONE]);
        BinaryTree {
            parent,
            children,
            root: 0,
        }
    }

    /// Builds a tree from a parent array (`None` exactly at the root).
    ///
    /// # Panics
    /// Panics if the array does not describe a binary tree: no or several
    /// roots, a node with three children, cycles, or out-of-range parents.
    pub fn from_parents(parents: &[Option<usize>]) -> Self {
        let n = parents.len();
        assert!(n > 0, "tree must have at least one node");
        assert!(n < NONE as usize, "tree too large");
        let parent = parents
            .iter()
            .enumerate()
            .map(|(v, &p)| match p {
                None => NONE,
                Some(p) => {
                    assert!(p < n && p != v, "invalid parent {p} of {v}");
                    p as u32
                }
            })
            .collect();
        let tree = Self::link(parent);
        // Reject cycles / forests: everything must be reachable from the root.
        let mut seen = 0usize;
        let mut stack = vec![tree.root];
        let mut visited = vec![false; n];
        while let Some(v) = stack.pop() {
            assert!(!visited[v as usize], "cycle at node {v}");
            visited[v as usize] = true;
            seen += 1;
            for c in tree.children[v as usize] {
                if c != NONE {
                    stack.push(c);
                }
            }
        }
        assert_eq!(seen, n, "parent array describes a forest, not a tree");
        tree
    }

    /// Builds a tree from the parent array of a generator whose output is
    /// a binary tree by construction ([`NONE`] exactly at the root): child
    /// slots as [`Self::from_parents`] assigns them, without its checks
    /// (debug builds still validate).
    pub(crate) fn from_parent_ids(parent: Vec<u32>) -> Self {
        let tree = Self::link(parent);
        #[cfg(debug_assertions)]
        tree.validate();
        tree
    }

    /// Fills the child slots of every node in increasing child id and
    /// finds the root.
    fn link(parent: Vec<u32>) -> Self {
        let n = parent.len();
        let mut children = vec![[NONE, NONE]; n];
        let mut root = NONE;
        for (v, &p) in parent.iter().enumerate() {
            if p == NONE {
                assert_eq!(root, NONE, "multiple roots");
                root = v as u32;
                continue;
            }
            let kids = &mut children[p as usize];
            let slot = usize::from(kids[0] != NONE);
            assert_eq!(kids[slot], NONE, "node {p} has more than two children");
            kids[slot] = v as u32;
        }
        assert_ne!(root, NONE, "no root");
        BinaryTree {
            parent,
            children,
            root,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Always false: trees have at least one node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(self.root)
    }

    /// The parent, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// The (up to two) children.
    #[inline]
    pub fn children(&self, v: NodeId) -> Adjacency<2> {
        let mut out = Adjacency::new();
        for c in self.children[v.index()] {
            if c != NONE {
                out.push(NodeId(c));
            }
        }
        out
    }

    /// All tree neighbours (parent + children): at most 3.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> Adjacency<3> {
        let mut out = Adjacency::new();
        if let Some(p) = self.parent(v) {
            out.push(p);
        }
        for c in self.children[v.index()] {
            if c != NONE {
                out.push(NodeId(c));
            }
        }
        out
    }

    /// Degree of `v` in the (undirected) tree.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let kids = &self.children[v.index()];
        usize::from(self.parent[v.index()] != NONE)
            + usize::from(kids[0] != NONE)
            + usize::from(kids[1] != NONE)
    }

    /// True if `{u, v}` is a tree edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.parent[u.index()] == v.0 || self.parent[v.index()] == u.0
    }

    /// Adds a child to `p`, returning the new node's id.
    ///
    /// # Panics
    /// Panics if `p` already has two children.
    pub fn add_child(&mut self, p: NodeId) -> NodeId {
        let slot = self.children[p.index()]
            .iter()
            .position(|&c| c == NONE)
            .expect("node already has two children");
        let v = self.parent.len() as u32;
        assert!(v != NONE, "tree too large");
        self.parent.push(p.0);
        self.children.push([NONE, NONE]);
        self.children[p.index()][slot] = v;
        NodeId(v)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.parent.len() as u32).map(NodeId)
    }

    /// Iterates over all undirected edges as `(parent, child)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().filter_map(|v| self.parent(v).map(|p| (p, v)))
    }

    /// Nodes in preorder from the root.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            out.push(NodeId(v));
            for c in self.children[v as usize].iter().rev() {
                if *c != NONE {
                    stack.push(*c);
                }
            }
        }
        out
    }

    /// Subtree sizes (number of descendants including self), indexed by node.
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let mut size = vec![1u32; self.len()];
        let order = self.preorder();
        for &v in order.iter().rev() {
            if let Some(p) = self.parent(v) {
                size[p.index()] += size[v.index()];
            }
        }
        size
    }

    /// Height of the tree (edges on the longest root-to-leaf path).
    pub fn height(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        let mut best = 0;
        for v in self.preorder() {
            if let Some(p) = self.parent(v) {
                depth[v.index()] = depth[p.index()] + 1;
                best = best.max(depth[v.index()]);
            }
        }
        best
    }

    /// Number of leaves (nodes without children).
    pub fn leaf_count(&self) -> usize {
        self.nodes()
            .filter(|&v| self.children(v).is_empty())
            .count()
    }

    /// Checks the structural invariants; used by generator tests.
    pub fn validate(&self) {
        assert!(self.root != NONE);
        assert_eq!(self.parent[self.root as usize], NONE);
        let mut count = 0;
        for v in self.preorder() {
            count += 1;
            for c in self.children(v) {
                assert_eq!(self.parent(c), Some(v));
            }
            assert!(self.degree(v) <= 3);
        }
        assert_eq!(count, self.len(), "unreachable nodes");
    }
}

impl fmt::Debug for BinaryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BinaryTree(n={}, root={:?})", self.len(), self.root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BinaryTree {
        //        0
        //       / \
        //      1   2
        //     / \   \
        //    3   4   5
        BinaryTree::from_parents(&[None, Some(0), Some(0), Some(1), Some(1), Some(2)])
    }

    #[test]
    fn from_parents_builds_links() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(t.children(NodeId(1)).as_slice(), &[NodeId(3), NodeId(4)]);
        assert_eq!(t.children(NodeId(5)).len(), 0);
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.degree(NodeId(1)), 3);
        assert_eq!(t.degree(NodeId(3)), 1);
        t.validate();
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = sample();
        for v in t.nodes() {
            for w in t.neighbors(v) {
                assert!(t.neighbors(w).contains(&v));
                assert!(t.has_edge(v, w));
            }
        }
        assert!(!t.has_edge(NodeId(3), NodeId(4)));
    }

    #[test]
    fn preorder_and_sizes() {
        let t = sample();
        let order = t.preorder();
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], NodeId(0));
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[0], 6);
        assert_eq!(sizes[1], 3);
        assert_eq!(sizes[2], 2);
        assert_eq!(sizes[3], 1);
    }

    #[test]
    fn height_and_leaves() {
        let t = sample();
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(BinaryTree::singleton().height(), 0);
        assert_eq!(BinaryTree::singleton().leaf_count(), 1);
    }

    #[test]
    fn add_child_grows() {
        let mut t = BinaryTree::singleton();
        let a = t.add_child(t.root());
        let b = t.add_child(t.root());
        let c = t.add_child(a);
        assert_eq!(t.len(), 4);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.children(t.root()).as_slice(), &[a, b]);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "more than two children")]
    fn rejects_ternary_node() {
        let _ = BinaryTree::from_parents(&[None, Some(0), Some(0), Some(0)]);
    }

    #[test]
    #[should_panic(expected = "multiple roots")]
    fn rejects_two_roots() {
        let _ = BinaryTree::from_parents(&[None, None]);
    }

    #[test]
    #[should_panic]
    fn rejects_cycle() {
        let _ = BinaryTree::from_parents(&[Some(1), Some(0)]);
    }

    #[test]
    fn edges_count() {
        let t = sample();
        assert_eq!(t.edges().count(), 5);
        for (p, c) in t.edges() {
            assert_eq!(t.parent(c), Some(p));
        }
    }
}
