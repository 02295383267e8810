//! Binary-tree workload generators.
//!
//! Theorem 1 holds for *arbitrary* binary trees of the right size, so the
//! experiment harness sweeps several structurally extreme families plus two
//! random models, all parameterised by an exact node count `n` (the
//! theorems need `n = 16·(2^{r+1} − 1)` exactly).

use crate::tree::{BinaryTree, NodeId, NONE};
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Default lean of [`TreeFamily::Skewed`]: noticeably deeper than the
/// random models, not yet a path (the [`TreeFamily::Leaning`] preset sits
/// at 224).
pub const DEFAULT_SKEW_BIAS: u8 = 240;

/// The tree families used across the experiment sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TreeFamily {
    /// Degenerate path: every node has one child.
    Path,
    /// Left-complete binary tree (complete levels, last level filled left
    /// to right) — the best case for any level-order host.
    LeftComplete,
    /// A path ("spine") with a leaf hanging off every other spine node.
    Caterpillar,
    /// A long path ending in a complete binary tree — sweeps from the
    /// path extreme to the bushy extreme inside one tree.
    Broom,
    /// Random binary search tree shape: recursive uniform budget splits,
    /// distribution-equivalent to inserting a random permutation.
    RandomBst,
    /// Random attachment: repeatedly attach a new leaf to a uniformly
    /// chosen node that still has a free child slot.
    RandomAttach,
    /// Skewed random split: recursively divide the remaining node budget
    /// with a split point biased toward unbalanced divisions (minimum of two
    /// uniform draws) — deeper and lopsided compared to [`Self::RandomBst`].
    RandomSplit,
    /// Biased attachment leaning hard toward the most recent slot
    /// (lean 224/256): long vine-like runs with occasional branching.
    Leaning,
    /// Perfectly height-balanced: every budget is split as evenly as
    /// possible, so the height is exactly `⌈log2(n+1)⌉ − 1`.
    Balanced,
    /// Uniformly random over *all* binary-tree shapes with `n` nodes
    /// (each of the `Catalan(n)` shapes equally likely), via Rémy's
    /// algorithm on `n + 1` leaves and the leaf-contraction bijection.
    UniformRandom,
    /// Literal insertion-order BST: a seeded uniform permutation is
    /// inserted key by key, so the shape is checkable against a reference
    /// insertion of the same permutation (unlike [`Self::RandomBst`],
    /// which only matches in distribution).
    BstInsertion,
    /// Biased attachment with a configurable lean `bias`/256 toward the
    /// most recent open slot — the generalisation of [`Self::Leaning`],
    /// sweeping from bushy (`bias = 0`) to a path (`bias = 255`).
    Skewed {
        /// Probability (out of 256) of attaching at the newest slot.
        bias: u8,
    },
}

impl TreeFamily {
    /// All families, for sweep loops. The order is a wire/cache contract:
    /// `family` bytes in the serving protocol index this array, so new
    /// entries are only ever appended ([`Self::Skewed`] appears with its
    /// default bias).
    pub const ALL: [TreeFamily; 12] = [
        TreeFamily::Path,
        TreeFamily::LeftComplete,
        TreeFamily::Caterpillar,
        TreeFamily::Broom,
        TreeFamily::RandomBst,
        TreeFamily::RandomAttach,
        TreeFamily::RandomSplit,
        TreeFamily::Leaning,
        TreeFamily::Balanced,
        TreeFamily::UniformRandom,
        TreeFamily::BstInsertion,
        TreeFamily::Skewed {
            bias: DEFAULT_SKEW_BIAS,
        },
    ];

    /// Short machine-readable name for report rows. Parameters are not
    /// encoded — see [`Self::label`] for the round-trippable form.
    pub fn name(self) -> &'static str {
        match self {
            TreeFamily::Path => "path",
            TreeFamily::LeftComplete => "complete",
            TreeFamily::Caterpillar => "caterpillar",
            TreeFamily::Broom => "broom",
            TreeFamily::RandomBst => "random-bst",
            TreeFamily::RandomAttach => "random-attach",
            TreeFamily::RandomSplit => "random-split",
            TreeFamily::Leaning => "leaning",
            TreeFamily::Balanced => "balanced",
            TreeFamily::UniformRandom => "uniform",
            TreeFamily::BstInsertion => "bst-insertion",
            TreeFamily::Skewed { .. } => "skewed",
        }
    }

    /// Round-trippable label: [`Self::name`] plus parameters
    /// (`skewed:200`), accepted back by [`Self::parse`].
    pub fn label(self) -> String {
        match self {
            TreeFamily::Skewed { bias } => format!("skewed:{bias}"),
            other => other.name().to_string(),
        }
    }

    /// Parses a family label: any [`Self::name`], or `skewed:<bias>` with
    /// a bias in `0..=255` (`skewed` alone uses [`DEFAULT_SKEW_BIAS`]).
    pub fn parse(s: &str) -> Option<TreeFamily> {
        if let Some(found) = Self::ALL.into_iter().find(|f| f.name() == s) {
            return Some(found);
        }
        let bias = s.strip_prefix("skewed:")?.parse().ok()?;
        Some(TreeFamily::Skewed { bias })
    }

    /// Generates a tree of this family with exactly `n ≥ 1` nodes.
    pub fn generate<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> BinaryTree {
        match self {
            TreeFamily::Path => path(n),
            TreeFamily::LeftComplete => left_complete(n),
            TreeFamily::Caterpillar => caterpillar(n),
            TreeFamily::Broom => broom(n),
            TreeFamily::RandomBst => random_bst(n, rng),
            TreeFamily::RandomAttach => random_attach(n, rng),
            TreeFamily::RandomSplit => random_split(n, rng),
            TreeFamily::Leaning => random_leaning(n, 224, rng),
            TreeFamily::Balanced => balanced(n),
            TreeFamily::UniformRandom => uniform_random(n, rng),
            TreeFamily::BstInsertion => bst_insertion(n, rng),
            TreeFamily::Skewed { bias } => random_leaning(n, bias, rng),
        }
    }

    /// The canonical seeded generation path: every CLI flag, bench
    /// workload, and serving-layer request that turns `(family, n, seed)`
    /// into a tree goes through here, so a given triple means the same
    /// tree everywhere.
    pub fn generate_seeded(self, n: usize, seed: u64) -> BinaryTree {
        self.generate(n, &mut ChaCha8Rng::seed_from_u64(seed))
    }
}

/// A path of `n` nodes.
pub fn path(n: usize) -> BinaryTree {
    assert!(n >= 1);
    let mut t = BinaryTree::with_capacity(n);
    let mut tip = t.root();
    for _ in 1..n {
        tip = t.add_child(tip);
    }
    t
}

/// Left-complete binary tree with exactly `n` nodes (heap shape).
pub fn left_complete(n: usize) -> BinaryTree {
    assert!(n >= 1);
    let parents = (0..n as u32)
        .map(|v| if v == 0 { NONE } else { (v - 1) / 2 })
        .collect();
    BinaryTree::from_parent_ids(parents)
}

/// Caterpillar: a spine path with one extra leaf on alternating spine nodes.
pub fn caterpillar(n: usize) -> BinaryTree {
    assert!(n >= 1);
    let mut t = BinaryTree::with_capacity(n);
    let mut tip = t.root();
    let mut made = 1;
    let mut hang = true;
    while made < n {
        if hang && made + 1 < n {
            t.add_child(tip); // leaf off the spine
            made += 1;
        }
        hang = !hang;
        if made < n {
            tip = t.add_child(tip);
            made += 1;
        }
    }
    t
}

/// Broom: a path of `n/2` nodes whose tip carries a left-complete tree with
/// the remaining budget.
pub fn broom(n: usize) -> BinaryTree {
    assert!(n >= 1);
    let handle = (n / 2).max(1);
    let mut t = BinaryTree::with_capacity(n);
    let mut tip = t.root();
    for _ in 1..handle {
        tip = t.add_child(tip);
    }
    let mut frontier = vec![tip];
    let mut made = handle;
    // Grow the head breadth-first so it forms a complete-ish tree.
    while made < n {
        let mut new_frontier = Vec::new();
        for &v in &frontier {
            for _ in 0..2 {
                if made == n {
                    break;
                }
                new_frontier.push(t.add_child(v));
                made += 1;
            }
        }
        frontier = new_frontier;
    }
    t
}

/// Random BST shape: the shape of inserting a uniform random permutation of
/// `0..n` into a binary search tree. Expected height `Θ(log n)`, but with
/// long unary stretches — a good "typical divide and conquer" model.
pub fn random_bst<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BinaryTree {
    assert!(n >= 1);
    // Random-permutation BST shape is equivalent to recursive uniform
    // splitting of the node budget (the root's rank is uniform).
    random_split_rec(n, rng, true)
}

/// Random attachment model: new leaves attach to uniform random nodes with
/// spare capacity. Produces bushier trees than the BST model.
pub fn random_attach<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BinaryTree {
    assert!(n >= 1);
    let mut t = BinaryTree::with_capacity(n);
    // `open` holds nodes with < 2 children, each listed once per free slot.
    let mut open = vec![t.root(), t.root()];
    for _ in 1..n {
        let i = rng.random_range(0..open.len());
        let p = open.swap_remove(i);
        // Drop the *other* listing of p lazily: add_child panics only when
        // both slots are used, and each listing corresponds to one slot.
        let c = t.add_child(p);
        open.push(c);
        open.push(c);
    }
    t
}

/// Skewed split model: like the BST model but the split point is the
/// *minimum* of two uniform draws, biasing every division toward lopsided
/// subtrees (deeper trees, heavier separator work).
pub fn random_split<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BinaryTree {
    assert!(n >= 1);
    random_split_rec(n, rng, false)
}

fn random_split_rec<R: Rng + ?Sized>(n: usize, rng: &mut R, uniform: bool) -> BinaryTree {
    let mut t = BinaryTree::with_capacity(n);
    // Explicit work stack of (node, subtree budget excluding the node).
    let mut stack = vec![(t.root(), n - 1)];
    while let Some((v, budget)) = stack.pop() {
        if budget == 0 {
            continue;
        }
        let left = if uniform {
            // BST shape: the root key's rank is uniform among budget+1
            // positions, giving a uniform split of the remaining budget.
            rng.random_range(0..=budget)
        } else {
            // Skewed: min of two uniforms concentrates mass near the edges.
            rng.random_range(0..=budget)
                .min(rng.random_range(0..=budget))
        };
        let right = budget - left;
        if left > 0 {
            let c = t.add_child(v);
            stack.push((c, left - 1));
        }
        if right > 0 {
            let c = t.add_child(v);
            stack.push((c, right - 1));
        }
    }
    t
}

/// Fibonacci tree of order `k`: `F_0` and `F_1` are single nodes, `F_k`
/// has subtrees `F_{k−1}` and `F_{k−2}` — the classic minimal AVL tree and
/// the canonical "maximally unbalanced yet logarithmic" shape. Its size is
/// `fib(k+2) − 1` nodes, so it does not hit the exact theorem sizes; the
/// embedding's padding extension covers it.
pub fn fibonacci(order: u32) -> BinaryTree {
    assert!(order <= 30, "fibonacci tree of order {order} too large");
    let mut t = BinaryTree::singleton();
    // Iterative expansion with an explicit stack of (node, order).
    let mut stack = vec![(t.root(), order)];
    while let Some((v, k)) = stack.pop() {
        if k < 2 {
            continue;
        }
        let a = t.add_child(v);
        let b = t.add_child(v);
        stack.push((a, k - 1));
        stack.push((b, k - 2));
    }
    t
}

/// Number of nodes of the Fibonacci tree of order `k`.
pub fn fibonacci_size(order: u32) -> usize {
    // size(k) = 1 + size(k−1) + size(k−2), size(0) = size(1) = 1.
    let (mut a, mut b) = (1usize, 1usize);
    for _ in 2..=order {
        let c = 1 + a + b;
        a = b;
        b = c;
    }
    b
}

/// Biased attachment: new leaves attach to the *most recently added* open
/// slot with probability `lean`/256, otherwise to a uniform one — sweeping
/// from [`random_attach`] (lean = 0) toward [`path`] (lean = 255).
pub fn random_leaning<R: Rng + ?Sized>(n: usize, lean: u8, rng: &mut R) -> BinaryTree {
    assert!(n >= 1);
    let mut t = BinaryTree::with_capacity(n);
    let mut open = vec![t.root(), t.root()];
    for _ in 1..n {
        let i = if rng.random_range(0..256) < u32::from(lean) {
            open.len() - 1
        } else {
            rng.random_range(0..open.len())
        };
        let p = open.swap_remove(i);
        let c = t.add_child(p);
        open.push(c);
        open.push(c);
    }
    t
}

/// The Rémy scaffold shared by [`remy_full`] and [`uniform_random`]: the
/// parent/child arrays of a uniformly random full binary tree with
/// `leaves` leaves (`2·leaves − 1` nodes), as `u32` ids with [`NONE`] for
/// a missing link, 12 bytes per node.
fn remy_scaffold<R: Rng + ?Sized>(leaves: usize, rng: &mut R) -> (Vec<u32>, Vec<[u32; 2]>) {
    let n = 2 * leaves - 1;
    assert!(n < NONE as usize, "tree too large");
    let mut parent = vec![NONE; n];
    let mut used = 1usize; // node 0 is the initial single leaf / root
    let mut children = vec![[NONE, NONE]; n];
    for _ in 1..leaves {
        // Pick a uniform existing node to graft above.
        let target = rng.random_range(0..used);
        let internal = used as u32;
        let leaf = internal + 1;
        used += 2;
        let side = rng.random_range(0..2usize);
        // Splice `internal` into target's parent slot.
        let p = parent[target];
        if p != NONE {
            let kids = &mut children[p as usize];
            kids[usize::from(kids[0] != target as u32)] = internal;
            parent[internal as usize] = p;
        }
        let kids = &mut children[internal as usize];
        kids[side] = target as u32;
        kids[1 - side] = leaf;
        parent[target] = internal;
        parent[leaf as usize] = internal;
    }
    debug_assert_eq!(used, n);
    (parent, children)
}

/// Uniformly random *full* binary tree (every node has 0 or 2 children)
/// with `leaves` leaves — `2·leaves − 1` nodes — via **Rémy's algorithm**:
/// repeatedly pick a uniform node (or the root position), splice a new
/// internal node above it, and hang a fresh leaf on a uniform side. Each
/// of the `Catalan(leaves−1)` shapes is produced with equal probability.
pub fn remy_full<R: Rng + ?Sized>(leaves: usize, rng: &mut R) -> BinaryTree {
    assert!(leaves >= 1);
    let (parent, _) = remy_scaffold(leaves, rng);
    BinaryTree::from_parent_ids(parent)
}

/// Uniformly random binary tree with exactly `n` nodes: each of the
/// `Catalan(n)` shapes is equally likely. Uses the classic bijection —
/// a uniform *full* tree with `n + 1` leaves (Rémy), with the leaves
/// contracted away, is a uniform binary tree on the `n` internal nodes.
pub fn uniform_random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BinaryTree {
    assert!(n >= 1);
    let (parent, mut children) = remy_scaffold(n + 1, rng);
    // Internal nodes (those with children) survive, numbered in scaffold
    // order; the parent of an internal node is always internal, so they
    // form a tree by themselves. Each internal node's new id overwrites
    // its first child slot, which nothing reads again.
    let mut next = 0u32;
    for kids in children.iter_mut() {
        if kids[0] != NONE {
            kids[0] = next;
            next += 1;
        }
    }
    debug_assert_eq!(next as usize, n);
    let mut contracted = Vec::with_capacity(n);
    for (v, &p) in parent.iter().enumerate() {
        if children[v][0] != NONE {
            contracted.push(if p == NONE {
                NONE
            } else {
                children[p as usize][0]
            });
        }
    }
    BinaryTree::from_parent_ids(contracted)
}

/// Perfectly height-balanced tree: every node budget is split as evenly
/// as possible (left gets the larger half), so the height is exactly
/// `⌈log2(n + 1)⌉ − 1` and sibling subtrees differ by at most one node.
pub fn balanced(n: usize) -> BinaryTree {
    assert!(n >= 1);
    let mut t = BinaryTree::with_capacity(n);
    let mut stack = vec![(t.root(), n - 1)];
    while let Some((v, budget)) = stack.pop() {
        if budget == 0 {
            continue;
        }
        let left = budget - budget / 2;
        let right = budget / 2;
        let c = t.add_child(v);
        stack.push((c, left - 1));
        if right > 0 {
            let c = t.add_child(v);
            stack.push((c, right - 1));
        }
    }
    t
}

/// A uniformly random permutation of `0..n`, by Fisher–Yates. Exposed so
/// tests can replay the exact permutation [`bst_insertion`] consumed.
pub fn random_permutation<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// The BST shape of inserting `keys` in order (duplicates go right).
/// Node `i` of the result is the `i`-th inserted key, so the shape is a
/// pure function of the key sequence — the reference the insertion-order
/// family is pinned against. Each key descends from the root, so this
/// costs the sum of the depths; [`bst_insertion`] builds the same shape
/// of a permutation in one linear pass.
pub fn bst_shape(keys: &[u32]) -> BinaryTree {
    assert!(!keys.is_empty());
    let mut parent: Vec<Option<usize>> = vec![None; keys.len()];
    // (left child, right child) per node, walked like a real BST insert.
    let mut kids: Vec<[Option<usize>; 2]> = vec![[None, None]; keys.len()];
    for (i, &key) in keys.iter().enumerate().skip(1) {
        let mut at = 0usize;
        loop {
            let side = usize::from(key >= keys[at]);
            match kids[at][side] {
                Some(next) => at = next,
                None => {
                    kids[at][side] = Some(i);
                    parent[i] = Some(at);
                    break;
                }
            }
        }
    }
    BinaryTree::from_parents(&parent)
}

/// Literal insertion-order BST: draws a uniform permutation of `0..n`
/// with [`random_permutation`] and returns the shape [`bst_shape`] gives
/// it. Same distribution as [`random_bst`], but per-seed checkable
/// against a reference insertion.
///
/// The insertion BST of distinct keys is their *Cartesian tree*: in key
/// order, heap-ordered by insertion time. So one stack pass over the keys
/// in order builds it: the stack holds the current rightmost path, a key
/// pops every later-inserted node off it, adopts the last one popped as
/// its left child and becomes the right child of the node left on top.
pub fn bst_insertion<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BinaryTree {
    assert!(n >= 1);
    let perm = random_permutation(n, rng);
    // Insertion time (= node id) of each key.
    let mut time = vec![0u32; n];
    for (i, &key) in perm.iter().enumerate() {
        time[key as usize] = i as u32;
    }
    drop(perm);
    let mut parent = vec![NONE; n];
    let mut spine: Vec<u32> = Vec::new();
    for &v in &time {
        let mut popped = NONE;
        while let Some(&top) = spine.last().filter(|&&top| top > v) {
            popped = top;
            spine.pop();
        }
        if popped != NONE {
            parent[popped as usize] = v;
        }
        parent[v as usize] = spine.last().copied().unwrap_or(NONE);
        spine.push(v);
    }
    BinaryTree::from_parent_ids(parent)
}

/// Picks a uniformly random node of `t`.
pub fn random_node<R: Rng + ?Sized>(t: &BinaryTree, rng: &mut R) -> NodeId {
    let ids: Vec<NodeId> = t.nodes().collect();
    *ids.choose(rng).expect("tree is non-empty")
}

/// The exact guest size Theorem 1 needs for the X-tree of height `r`:
/// `n = 16 · (2^{r+1} − 1)`.
pub const fn theorem1_size(r: u8) -> usize {
    16 * ((1usize << (r + 1)) - 1)
}

/// The exact guest size Theorem 3 needs for the hypercube `Q_r`:
/// `n = 16 · (2^r − 1)`.
pub const fn theorem3_size(r: u8) -> usize {
    16 * ((1usize << r) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exact_sizes_for_all_families() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for family in TreeFamily::ALL {
            for n in [1usize, 2, 3, 7, 16, 48, 113, 240, theorem1_size(3)] {
                let t = family.generate(n, &mut rng);
                assert_eq!(t.len(), n, "{family:?} n={n}");
                t.validate();
            }
        }
    }

    #[test]
    fn path_is_a_path() {
        let t = path(10);
        assert_eq!(t.height(), 9);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn left_complete_shape() {
        let t = left_complete(15);
        assert_eq!(t.height(), 3);
        assert_eq!(t.leaf_count(), 8);
        let t = left_complete(10);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn caterpillar_has_long_spine() {
        let t = caterpillar(20);
        assert!(t.height() >= 12, "height {}", t.height());
        assert!(t.leaf_count() >= 5);
    }

    #[test]
    fn broom_mixes_path_and_bush() {
        let t = broom(64);
        assert!(t.height() >= 32);
        assert!(t.leaf_count() >= 8);
    }

    #[test]
    fn random_models_are_reproducible() {
        let t1 = random_bst(100, &mut ChaCha8Rng::seed_from_u64(1));
        let t2 = random_bst(100, &mut ChaCha8Rng::seed_from_u64(1));
        for v in t1.nodes() {
            assert_eq!(t1.parent(v), t2.parent(v));
        }
    }

    #[test]
    fn random_models_vary_by_seed() {
        let t1 = random_attach(200, &mut ChaCha8Rng::seed_from_u64(1));
        let t2 = random_attach(200, &mut ChaCha8Rng::seed_from_u64(2));
        let differs = t1.nodes().any(|v| t1.parent(v) != t2.parent(v));
        assert!(differs);
    }

    #[test]
    fn random_attach_respects_arity() {
        let t = random_attach(500, &mut ChaCha8Rng::seed_from_u64(3));
        for v in t.nodes() {
            assert!(t.children(v).len() <= 2);
        }
    }

    #[test]
    fn fibonacci_shapes() {
        assert_eq!(fibonacci(0).len(), 1);
        assert_eq!(fibonacci(1).len(), 1);
        assert_eq!(fibonacci(2).len(), 3);
        for k in 0..=12u32 {
            let t = fibonacci(k);
            assert_eq!(t.len(), fibonacci_size(k), "order {k}");
            t.validate();
            // Height of F_k is k−1 for k ≥ 1 (the minimal AVL profile).
            if k >= 1 {
                assert_eq!(t.height(), (k - 1) as usize);
            }
        }
    }

    #[test]
    fn leaning_sweeps_toward_a_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let bushy = random_leaning(300, 0, &mut rng);
        let liney = random_leaning(300, 255, &mut rng);
        assert!(
            liney.height() > 2 * bushy.height(),
            "{} vs {}",
            liney.height(),
            bushy.height()
        );
        assert_eq!(liney.height(), 299); // lean = 255 is deterministic: a path
        bushy.validate();
        liney.validate();
    }

    #[test]
    fn remy_produces_full_binary_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        for leaves in [1usize, 2, 3, 10, 100, 500] {
            let t = remy_full(leaves, &mut rng);
            assert_eq!(t.len(), 2 * leaves - 1);
            assert_eq!(t.leaf_count(), leaves);
            t.validate();
            for v in t.nodes() {
                let c = t.children(v).len();
                assert!(c == 0 || c == 2, "node with one child in a full tree");
            }
        }
    }

    #[test]
    fn remy_growth_statistics() {
        // For 3 leaves: the root was grafted over (rather than a leaf) with
        // probability exactly 1/3 in Rémy's algorithm; that event is
        // visible as "the smaller-id child of the root is internal".
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut over_root = 0;
        let trials = 3000;
        for _ in 0..trials {
            let t = remy_full(3, &mut rng);
            let kids = t.children(t.root());
            if !t.children(kids[0]).is_empty() {
                over_root += 1;
            }
        }
        let expect = trials / 3;
        assert!(
            (expect * 8 / 10..=expect * 12 / 10).contains(&over_root),
            "graft-over-root count {over_root}, expected ≈ {expect}"
        );
    }

    #[test]
    fn balanced_height_is_optimal() {
        for n in [1usize, 2, 3, 4, 7, 10, 15, 16, 100, 1023, 1024] {
            let t = balanced(n);
            t.validate();
            assert_eq!(t.len(), n);
            // `⌈log2(n+1)⌉ − 1`, with ⌈log2 m⌉ = trailing_zeros(next_pow2(m)).
            let want = (n + 1).next_power_of_two().trailing_zeros() as usize - 1;
            assert_eq!(t.height(), want, "n={n}");
        }
    }

    #[test]
    fn balanced_subtrees_differ_by_at_most_one() {
        let t = balanced(500);
        let sizes = t.subtree_sizes();
        for v in t.nodes() {
            let kids = t.children(v);
            let (l, r) = match kids.as_slice() {
                [l, r] => (sizes[l.index()], sizes[r.index()]),
                [l] => (sizes[l.index()], 0),
                _ => continue,
            };
            assert!(l >= r && l - r <= 1, "node {v:?}: {l} vs {r}");
        }
    }

    #[test]
    fn uniform_random_exact_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for n in [1usize, 2, 3, 5, 10, 100, 777] {
            let t = uniform_random(n, &mut rng);
            assert_eq!(t.len(), n);
            t.validate();
        }
    }

    #[test]
    fn uniform_random_matches_catalan_statistics() {
        // n = 3 has Catalan(3) = 5 ordered shapes: one balanced, four
        // chains. Uniform over ordered shapes ⇒ the balanced one appears
        // with probability exactly 1/5.
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let trials = 5000;
        let mut bal = 0usize;
        for _ in 0..trials {
            let t = uniform_random(3, &mut rng);
            if t.children(t.root()).len() == 2 {
                bal += 1;
            }
        }
        let expect = trials / 5;
        assert!(
            (expect * 8 / 10..=expect * 12 / 10).contains(&bal),
            "balanced count {bal}, expected ≈ {expect}"
        );
    }

    #[test]
    fn bst_insertion_matches_reference_insertion() {
        let mut sizes = ChaCha8Rng::seed_from_u64(12);
        for seed in 0..10u64 {
            // Small sizes and deep insertions up to 2^14 keys.
            let n = if seed < 3 {
                [1, 2, 200][seed as usize]
            } else {
                sizes.random_range(1..=1 << 14)
            };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = bst_insertion(n, &mut rng);
            // Replay the same permutation and insert it naively.
            let perm = random_permutation(n, &mut ChaCha8Rng::seed_from_u64(seed));
            let r = bst_shape(&perm);
            for v in t.nodes() {
                assert_eq!(t.parent(v), r.parent(v), "seed {seed} n={n}");
                assert_eq!(t.children(v), r.children(v), "seed {seed} n={n}");
            }
        }
    }

    #[test]
    fn bst_shape_sorted_keys_make_a_path() {
        let keys: Vec<u32> = (0..50).collect();
        let t = bst_shape(&keys);
        assert_eq!(t.height(), 49);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn skewed_family_bias_sweeps_depth() {
        let shallow = TreeFamily::Skewed { bias: 0 }.generate_seeded(300, 9);
        let deep = TreeFamily::Skewed { bias: 255 }.generate_seeded(300, 9);
        assert_eq!(deep.height(), 299);
        assert!(shallow.height() < 150);
    }

    #[test]
    fn parse_round_trips_every_family() {
        for f in TreeFamily::ALL {
            assert_eq!(TreeFamily::parse(&f.label()), Some(f), "{f:?}");
            assert_eq!(TreeFamily::parse(f.name()), Some(f), "{f:?}");
        }
        assert_eq!(
            TreeFamily::parse("skewed:13"),
            Some(TreeFamily::Skewed { bias: 13 })
        );
        assert_eq!(
            TreeFamily::parse("skewed"),
            Some(TreeFamily::Skewed {
                bias: DEFAULT_SKEW_BIAS
            })
        );
        assert_eq!(TreeFamily::parse("skewed:300"), None);
        assert_eq!(TreeFamily::parse("no-such"), None);
    }

    #[test]
    fn generate_seeded_matches_manual_rng() {
        let a = TreeFamily::UniformRandom.generate_seeded(97, 5);
        let b = TreeFamily::UniformRandom.generate(97, &mut ChaCha8Rng::seed_from_u64(5));
        for v in a.nodes() {
            assert_eq!(a.parent(v), b.parent(v));
        }
    }

    #[test]
    fn wire_indices_are_stable() {
        // The serving protocol indexes ALL by byte; the first eight
        // entries are frozen (old clients), new ones only append.
        assert_eq!(TreeFamily::ALL[4], TreeFamily::RandomBst);
        assert_eq!(TreeFamily::ALL[7], TreeFamily::Leaning);
        assert_eq!(TreeFamily::ALL[8], TreeFamily::Balanced);
        assert_eq!(TreeFamily::ALL[11].name(), "skewed");
    }

    #[test]
    fn theorem_sizes() {
        assert_eq!(theorem1_size(0), 16);
        assert_eq!(theorem1_size(3), 240);
        assert_eq!(theorem3_size(3), 112);
        // n = 16(2^{r+1} − 1) = 2^{r+5} − 16, Theorem 4's 2^t − 16 form.
        assert_eq!(theorem1_size(3), (1 << 8) - 16);
    }
}
