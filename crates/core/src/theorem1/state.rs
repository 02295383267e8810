//! Mutable construction state of the Theorem-1 embedding.
//!
//! The builder tracks, at every moment of algorithm X-TREE:
//!
//! * which guest nodes are *placed* (`δ_i` is defined on them) and where;
//! * how many guest nodes each host vertex carries (capacity 16, strict);
//! * the live **intervals** — the connected fragments of un-placed guest
//!   nodes. Each interval knows its *designated nodes* (fragment nodes with
//!   an already-placed neighbour) together with each designated node's
//!   **anchor**: the host vertex carrying that placed neighbour. The paper
//!   keeps one *characteristic address* per interval (condition (6)); we
//!   generalise to one anchor per designated node, which stays meaningful
//!   when the capacity-driven fill of SPLIT splits fragments unevenly.
//! * the **attachment** of every interval to a host vertex (the paper's
//!   `p_i` maps).
//!
//! Storage layout (DESIGN.md §13): all per-vertex state — attachment
//! lists, attached mass, placement counts — lives in flat arrays indexed
//! by the host's dense heap numbering, and the interval slab recycles
//! slots through a free list, so a build performs no per-round
//! allocation. Everything recyclable sits in a [`Theorem1Scratch`] that
//! can be carried from one build to the next (the serving layer pools one
//! per worker thread); the algorithm's outputs are invariant under reuse.
//!
//! New fragments are not flooded (DESIGN.md §13): each one is derived from
//! the un-placed nodes next to what was just placed, and sized from the
//! guest's static preorder, so a placement costs time in the nodes it
//! places, not in the fragment it cuts. Absorbing a fragment walks the
//! preorder range of its top, and no walk keeps visited marks: the
//! guest is a tree, so a breadth-first walk that places what it reaches,
//! or that never steps back to where it came from, meets each node once.

use std::ops::Deref;
use xtree_topology::Address;
use xtree_trees::{lemma2_boundary, BinaryTree, Boundary, NodeId, SeparatorScratch};

/// Handle of a live interval in the builder's slab.
pub(crate) type IntId = u32;

/// A fragment's designated nodes with their anchors, in the order a
/// breadth-first flood from the fragment's entry meets them.
///
/// Lemmas 1 and 2 keep every fragment an interval, so a list holds one
/// or two nodes and lives inline; only the rare fragment with more (the
/// capacity-driven fill can create one) moves to the heap.
#[derive(Clone, Debug)]
pub(crate) enum Designated {
    Inline {
        len: u8,
        pair: [(NodeId, Address); 2],
    },
    Heap(Vec<(NodeId, Address)>),
}

impl Designated {
    /// The empty list.
    pub fn new() -> Self {
        Designated::Inline {
            len: 0,
            pair: [(NodeId(0), Address::ROOT); 2],
        }
    }

    /// Appends a designated node; a third one moves the list to the heap.
    pub fn push(&mut self, d: (NodeId, Address)) {
        match self {
            Designated::Inline { len, pair } if usize::from(*len) < pair.len() => {
                pair[usize::from(*len)] = d;
                *len += 1;
            }
            Designated::Inline { pair, .. } => {
                let mut all = pair.to_vec();
                all.push(d);
                *self = Designated::Heap(all);
            }
            Designated::Heap(all) => all.push(d),
        }
    }
}

impl Deref for Designated {
    type Target = [(NodeId, Address)];

    fn deref(&self) -> &[(NodeId, Address)] {
        match self {
            Designated::Inline { len, pair } => &pair[..usize::from(*len)],
            Designated::Heap(all) => all,
        }
    }
}

/// A connected fragment of un-placed guest nodes.
#[derive(Clone, Debug)]
pub(crate) struct Interval {
    /// The fragment's node nearest the guest root: its nodes are the
    /// un-placed ones of the static subtree of `top` that no placed node
    /// separates from it.
    pub top: NodeId,
    /// Designated nodes with their anchors. Almost always 1 or 2; the
    /// capacity-driven fill can transiently create more (logged).
    pub designated: Designated,
    /// Number of nodes in the fragment.
    pub size: u32,
}

/// A Lemma-2 split of an interval as the builder applies it: the boundary
/// sets and the size of part 2, and in debug builds part 2 itself, for
/// the side check of [`Builder::apply_separation`].
pub(crate) struct IntervalSplit {
    pub boundary: Boundary,
    #[cfg(debug_assertions)]
    part2: Vec<NodeId>,
}

impl Interval {
    /// The node a breadth-first flood of the fragment would start from:
    /// its first designated node. Only the debug checks flood.
    #[cfg(any(test, debug_assertions))]
    pub fn entry(&self) -> NodeId {
        self.designated[0].0
    }

    /// Lemma 2 on this fragment, read off the guest's static preorder in
    /// `scr`, with its first and last designated nodes as `r1` and `r2`
    /// (the same node if it has only one). Every designated node is
    /// passed: the holes of the fragment hang off all of them. Release
    /// builds do not list part 2.
    pub fn lemma2(
        &self,
        scr: &mut SeparatorScratch,
        tree: &BinaryTree,
        placed: &[bool],
        delta: u32,
    ) -> IntervalSplit {
        let r1 = self.designated[0].0;
        let r2 = self
            .designated
            .last()
            .expect("intervals have ≥ 1 designated")
            .0;
        let nodes = self.designated.iter().map(|&(d, _)| d);
        debug_assert_eq!(
            scr.piece_len(tree, placed, nodes.clone()),
            self.size,
            "the piece view disagrees with the interval's size"
        );
        let boundary = lemma2_boundary(scr, tree, placed, nodes.clone(), r1, r2, delta);
        #[cfg(debug_assertions)]
        let part2 = {
            let sep = xtree_trees::lemma2_with(scr, tree, placed, nodes, r1, r2, delta);
            let listed = (&sep.s1[..], &sep.s2[..], &sep.cut[..], sep.part2.len());
            let b = &boundary;
            let sized = (&b.s1[..], &b.s2[..], &b.cut[..], b.part2_len as usize);
            assert_eq!(listed, sized, "the boundary disagrees with the separation");
            sep.part2
        };
        IntervalSplit {
            boundary,
            #[cfg(debug_assertions)]
            part2,
        }
    }

    /// The shallowest anchor level — placement of the designated nodes is
    /// due two levels below it (condition (4)).
    pub fn min_anchor_level(&self) -> u8 {
        self.designated
            .iter()
            .map(|&(_, a)| a.level())
            .min()
            .unwrap()
    }
}

/// Tunable switches of the construction, used by the ablation experiments
/// to quantify how much each mechanism of algorithm X-TREE contributes.
/// The default enables everything (the paper's algorithm).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmbedOptions {
    /// Run the ADJUST phase (horizontal rebalancing across boundaries).
    pub adjust: bool,
    /// Allow ADJUST to move whole intervals before splitting.
    pub whole_moves: bool,
    /// Run SPLIT's Lemma-2 fine balance between sibling leaves.
    pub fine_balance: bool,
    /// Guest nodes per host vertex. The paper fixes 16 (4 ADJUST slots +
    /// 4 SPLIT slots + 8 forced children); the capacity ablation (A2)
    /// sweeps it to show where the slack stops mattering.
    pub capacity: u16,
}

impl Default for EmbedOptions {
    fn default() -> Self {
        EmbedOptions {
            adjust: true,
            whole_moves: true,
            fine_balance: true,
            capacity: 16,
        }
    }
}

/// Counters describing how the construction went; all the deviations from
/// the paper's idealised accounting are measurable here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildLog {
    /// ADJUST invocations that found an imbalance to fix.
    pub adjust_calls: usize,
    /// Whole intervals shifted across a boundary without splitting.
    pub adjust_whole_moves: usize,
    /// Lemma-2 splits performed by ADJUST.
    pub adjust_splits: usize,
    /// Lemma-2 fine-balance splits performed by SPLIT.
    pub split_balances: usize,
    /// Designated nodes placed because their deadline (condition 4) came up.
    pub forced_placements: usize,
    /// Nodes placed by the capacity fill.
    pub fills: usize,
    /// Fill operations that had to borrow mass from another leaf.
    pub borrows: usize,
    /// Longest horizontal distance a borrow reached over.
    pub max_borrow_hops: u32,
    /// Forced placements that exceeded their leaf and moved to a neighbour.
    pub spills: usize,
    /// Fragments observed with more than two designated nodes.
    pub multi_designated_components: usize,
}

/// Every recyclable buffer of a Theorem-1 build, reusable across builds.
///
/// [`embed_with_scratch`](super::embed_with_scratch) moves these buffers
/// into the builder and returns them on completion, so a caller embedding
/// many trees (the serving layer, the benches) allocates once and then
/// builds allocation-free. A fresh (or panic-emptied) scratch is always
/// valid — buffers grow on demand — and reuse never changes outputs.
#[derive(Debug, Default)]
pub struct Theorem1Scratch {
    /// Guest-node placement flags (pub(crate): the lemma call sites borrow
    /// it alongside `sep_scratch`, which needs field-disjoint access).
    pub(crate) placed: Vec<bool>,
    /// Guest nodes per host vertex, heap-id indexed.
    count: Vec<u16>,
    /// Interval slab; `None` slots are recycled through `free_ids`.
    intervals: Vec<Option<Interval>>,
    free_ids: Vec<IntId>,
    /// Attachment lists per host vertex, heap-id indexed (SoA: the hot
    /// `attached_mass` query reads the flat `att_mass` array instead of
    /// summing a list behind a hash lookup).
    att: Vec<Vec<IntId>>,
    att_mass: Vec<u64>,
    /// The guest's static preorder, indexed once per build, which
    /// `rebuild_components` sizes fragments from and every separator-lemma
    /// call reads its piece off, plus the lemmas' buffers.
    pub(crate) sep_scratch: SeparatorScratch,
    // Reusable arenas for flood orders (each node with the neighbour it was
    // reached from), crown orders, freshly placed node lists, fragment
    // candidates, and the ADJUST/SPLIT work queues.
    flood_buf: Vec<(NodeId, NodeId)>,
    order_buf: Vec<NodeId>,
    cand_buf: Vec<Candidate>,
    frag_buf: Vec<Fragment>,
    pub(crate) newly_buf: Vec<NodeId>,
    pub(crate) ids_buf: Vec<IntId>,
    pub(crate) due_buf: Vec<IntId>,
    pub(crate) mass_buf: Vec<i64>,
    pub(crate) prefix_buf: Vec<i64>,
    pub(crate) pairs_buf: Vec<Address>,
    pub(crate) local_buf: Vec<IntId>,
    pub(crate) whole_buf: Vec<IntId>,
}

/// A designated node of a fragment `rebuild_components` is deriving.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    node: NodeId,
    /// Index into `newly` of the placed node it was found next to;
    /// `u32::MAX` for a designated node of the removed interval.
    found_by: u32,
    /// Index of its fragment in `frag_buf`; [`Candidate::REPEAT`] for a
    /// node met before in the same call.
    frag: u32,
}

impl Candidate {
    const REPEAT: u32 = u32::MAX;
}

/// A fragment `rebuild_components` is deriving, keyed by its top node.
#[derive(Clone, Copy, Debug)]
struct Fragment {
    /// The fragment's node nearest the guest root.
    top: NodeId,
    /// Its first two candidates ([`Fragment::UNMET`] until met), and how
    /// many it has (its top is one, so it has at least one).
    entry: NodeId,
    other: NodeId,
    count: u32,
    /// `sz[top]` less the subtrees of its placed children.
    size: u32,
}

impl Fragment {
    /// No guest node: an empty candidate slot.
    const UNMET: NodeId = NodeId(u32::MAX);
}

impl Theorem1Scratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Theorem1Scratch::default()
    }

    /// Readies every buffer for a build over `n` guest nodes and `host`
    /// X-tree vertices, keeping allocations from previous builds.
    fn prepare(&mut self, n: usize, host: usize) {
        self.placed.clear();
        self.placed.resize(n, false);
        self.count.clear();
        self.count.resize(host, 0);
        self.intervals.clear();
        self.free_ids.clear();
        // Clear *every* list, not just the first `host`: a smaller build
        // after a bigger one must not resurrect stale handles later.
        for l in &mut self.att {
            l.clear();
        }
        if self.att.len() < host {
            self.att.resize_with(host, Vec::new);
        }
        self.att_mass.clear();
        self.att_mass.resize(host, 0);
    }
}

pub(crate) struct Builder<'t> {
    pub tree: &'t BinaryTree,
    pub opts: EmbedOptions,
    /// The output map being built, as image heap ids (moved into the
    /// result as [`XEmbedding::map`](crate::XEmbedding::map), so it is the
    /// one per-build allocation that cannot be recycled).
    pub assign: Vec<u32>,
    /// All recyclable state (placement, counts, slab, attachments, arenas).
    pub s: Theorem1Scratch,
    pub log: BuildLog,
    /// `trace[i][j]` = Δ(j, i) measured after round `i` (see `trace.rs`).
    pub trace: Vec<Vec<u64>>,
    /// `(nl, nh)` per round: min/max guest mass associated with a leaf of
    /// the current level (placed + attached) — the paper's `nl(i, i)` and
    /// `nh(i, i)`.
    pub mass_trace: Vec<(u64, u64)>,
}

/// How `rebuild_components` picks the attachment vertex of each fragment.
#[derive(Clone, Copy)]
pub(crate) enum AttachRule {
    /// Every fragment attaches to the same vertex.
    Fixed(Address),
    /// The newly placed nodes are a separation's `S1` followed by its
    /// `S2`, the first `s1_len` of them. A fragment found next to an `S1`
    /// node lies in part 1 and attaches to `att1`; one found next to an
    /// `S2` node lies in part 2 and attaches to `att2` (the lemmas cut
    /// only edges between `S1` and `S2`).
    BySide {
        att1: Address,
        att2: Address,
        s1_len: usize,
    },
}

impl<'t> Builder<'t> {
    /// Builds on top of `scratch`, whose buffers are moved in (and handed
    /// back by [`Self::finish`]).
    pub fn new(
        tree: &'t BinaryTree,
        r: u8,
        opts: EmbedOptions,
        scratch: &mut Theorem1Scratch,
    ) -> Self {
        let n = tree.len();
        let mut s = std::mem::take(scratch);
        s.prepare(n, (1usize << (r + 1)) - 1);
        s.sep_scratch.reindex(tree);
        Builder {
            tree,
            opts,
            assign: vec![0; n],
            s,
            log: BuildLog::default(),
            trace: Vec::new(),
            mass_trace: Vec::new(),
        }
    }

    /// Returns the scratch buffers and surrenders the build products.
    #[allow(clippy::type_complexity)]
    pub fn finish(
        self,
        scratch: &mut Theorem1Scratch,
    ) -> (Vec<u32>, BuildLog, Vec<Vec<u64>>, Vec<(u64, u64)>) {
        let Builder {
            assign,
            s,
            log,
            trace,
            mass_trace,
            ..
        } = self;
        *scratch = s;
        (assign, log, trace, mass_trace)
    }

    /// The per-vertex capacity (the paper's load factor 16).
    pub fn cap(&self) -> u16 {
        self.opts.capacity
    }

    /// Free capacity of a host vertex.
    pub fn free(&self, a: Address) -> u16 {
        self.cap() - self.s.count[a.heap_id()]
    }

    /// Placement count of a host vertex.
    pub fn count(&self, a: Address) -> u16 {
        self.s.count[a.heap_id()]
    }

    /// True when every host vertex carries exactly the capacity.
    pub fn all_full(&self) -> bool {
        self.s.count.iter().all(|&c| c == self.opts.capacity)
    }

    /// The map entry of vertex `at`, the only way a build turns an
    /// address into one: heap ids fit in `u32` up to `X(31)`, far above
    /// any buildable host, and debug builds check it so a truncation can
    /// never be silent.
    fn map_entry(at: Address) -> u32 {
        let h = at.heap_id();
        debug_assert!(u32::try_from(h).is_ok(), "heap id of {at} overflows u32");
        h as u32
    }

    /// Places one guest node; panics if the vertex is full (callers check).
    pub fn place(&mut self, v: NodeId, at: Address) {
        debug_assert!(!self.s.placed[v.index()], "{v:?} placed twice");
        let h = at.heap_id();
        assert!(self.s.count[h] < self.cap(), "capacity exceeded at {at}");
        self.s.placed[v.index()] = true;
        self.assign[v.index()] = Self::map_entry(at);
        self.s.count[h] += 1;
    }

    /// Total attached interval mass at a vertex — O(1) from the SoA cache.
    pub fn attached_mass(&self, a: Address) -> u64 {
        self.s.att_mass[a.heap_id()]
    }

    /// The interval handles attached to a vertex, in attachment order.
    pub fn att_list(&self, a: Address) -> &[IntId] {
        &self.s.att[a.heap_id()]
    }

    pub fn attach(&mut self, id: IntId, at: Address) {
        let size = self.interval(id).size as u64;
        let h = at.heap_id();
        self.s.att[h].push(id);
        self.s.att_mass[h] += size;
    }

    /// Detaches the handle at `pos` with `swap_remove` semantics (the
    /// residual order every selection loop tie-breaks on).
    pub fn detach_swap(&mut self, at: Address, pos: usize) -> IntId {
        let h = at.heap_id();
        let id = self.s.att[h].swap_remove(pos);
        self.s.att_mass[h] -= self.interval(id).size as u64;
        id
    }

    /// Detaches every handle of `at` into `out` (attachment order).
    pub fn detach_all_into(&mut self, at: Address, out: &mut Vec<IntId>) {
        let h = at.heap_id();
        out.clear();
        out.extend_from_slice(&self.s.att[h]);
        self.s.att[h].clear();
        self.s.att_mass[h] = 0;
    }

    /// Order-preserving removal of the handles in `remove` (each attached
    /// to `at` exactly once) — `retain` semantics, as the forced-placement
    /// pass requires.
    pub fn detach_retain(&mut self, at: Address, remove: &[IntId]) {
        let h = at.heap_id();
        let gone: u64 = remove.iter().map(|&id| self.interval(id).size as u64).sum();
        self.s.att[h].retain(|id| !remove.contains(id));
        self.s.att_mass[h] -= gone;
    }

    pub fn interval(&self, id: IntId) -> &Interval {
        self.s.intervals[id as usize]
            .as_ref()
            .expect("stale interval handle")
    }

    pub fn remove_interval(&mut self, id: IntId) -> Interval {
        let iv = self.s.intervals[id as usize]
            .take()
            .expect("stale interval handle");
        self.s.free_ids.push(id);
        iv
    }

    /// Slab insert, recycling a freed slot when one exists. Outputs never
    /// depend on handle *values* (only on attachment-list positions and
    /// sizes), so recycling is invisible to the embedding.
    fn new_interval(&mut self, iv: Interval) -> IntId {
        if let Some(id) = self.s.free_ids.pop() {
            self.s.intervals[id as usize] = Some(iv);
            id
        } else {
            self.s.intervals.push(Some(iv));
            (self.s.intervals.len() - 1) as IntId
        }
    }

    /// The anchor of `v`: the image of its shallowest placed neighbour
    /// (its deadline is tightest), the first such in neighbour order.
    fn anchor(&self, v: NodeId) -> Option<Address> {
        let mut anchor: Option<Address> = None;
        for w in self.tree.neighbors(v) {
            if self.s.placed[w.index()] {
                let a = Address::from_heap_id(self.assign[w.index()] as usize);
                anchor = Some(match anchor {
                    Some(b) if b.level() <= a.level() => b,
                    _ => a,
                });
            }
        }
        anchor
    }

    /// Floods the un-placed fragment containing `start` breadth-first into
    /// `nodes`, each node with the neighbour it was reached from, and
    /// returns its designated nodes with anchors. The guest is a tree, so
    /// the flood needs no visited marks: it steps to every un-placed
    /// neighbour but the one it came from, and meets each node once.
    fn flood_into(&self, start: NodeId, nodes: &mut Vec<(NodeId, NodeId)>) -> Designated {
        nodes.clear();
        // No node is its own neighbour, so `start` excludes nothing.
        nodes.push((start, start));
        let mut designated = Designated::new();
        let mut head = 0;
        while head < nodes.len() {
            let (v, from) = nodes[head];
            head += 1;
            for w in self.tree.neighbors(v) {
                if w != from && !self.s.placed[w.index()] {
                    nodes.push((w, v));
                }
            }
            if let Some(a) = self.anchor(v) {
                designated.push((v, a));
            }
        }
        designated
    }

    /// After placing `newly`, all of them nodes of one removed interval
    /// whose designated list was `old`, registers every un-placed fragment
    /// next to them as a new interval attached per `rule`.
    ///
    /// The result is what flooding each fragment from its first un-placed
    /// neighbour of `newly` would give, without the flood (DESIGN.md §13).
    /// A fragment's designated nodes are its *candidates*: the un-placed
    /// neighbours of `newly`, in discovery order, and the nodes of `old`
    /// still un-placed. Its entry is its first candidate, its *top* (the
    /// node nearest the guest root) the one candidate with a placed
    /// parent, and its size `sz[top]` less the subtrees of its candidates'
    /// placed children. With at most two candidates the flood would meet
    /// them as (entry, other); only a fragment with more still floods.
    ///
    /// A node can be met more than once: next to two nodes of `newly`, or
    /// next to one and in `old`. It counts the first time only. A fragment
    /// records its first two candidates, so a repeat of either is
    /// recognised in O(1), and any other repeat arrives with two already
    /// recorded, where the fragment floods whatever its count.
    pub fn rebuild_components(
        &mut self,
        newly: &[NodeId],
        old: &[(NodeId, Address)],
        rule: AttachRule,
    ) {
        // The guest root is placed in round 0, so every fragment's top
        // has a placed parent.
        debug_assert!(self.s.placed[self.tree.root().index()]);
        let mut cands = std::mem::take(&mut self.s.cand_buf);
        let mut frags = std::mem::take(&mut self.s.frag_buf);
        cands.clear();
        frags.clear();
        let found = newly.iter().enumerate().flat_map(|(k, &p)| {
            self.tree
                .neighbors(p)
                .into_iter()
                .map(move |u| (u, k as u32))
        });
        let old = old.iter().map(|&(d, _)| (d, u32::MAX));
        for (u, found_by) in found.chain(old) {
            if self.s.placed[u.index()] {
                continue;
            }
            cands.push(Candidate {
                node: u,
                found_by,
                frag: 0,
            });
            if self
                .tree
                .parent(u)
                .is_some_and(|p| self.s.placed[p.index()])
            {
                // A top met twice is listed twice; the first listing
                // wins every search below, and the second stays empty.
                frags.push(Fragment {
                    top: u,
                    entry: Fragment::UNMET,
                    other: Fragment::UNMET,
                    count: 0,
                    size: self.s.sep_scratch.index().size(u),
                });
            }
        }
        let ix = self.s.sep_scratch.index();
        for c in &mut cands {
            // The deepest top above `c` (the one with the smallest subtree,
            // the first such) is its fragment's: any node on the path from
            // the fragment's top down to `c` is in the fragment, so no
            // other top lies between them.
            let k = (0..frags.len())
                .filter(|&k| ix.below(c.node, frags[k].top))
                .min_by_key(|&k| ix.size(frags[k].top))
                .expect("every fragment has a top");
            let f = &mut frags[k];
            if f.entry == c.node || f.other == c.node {
                c.frag = Candidate::REPEAT;
                continue;
            }
            c.frag = k as u32;
            match f.count {
                0 => f.entry = c.node,
                1 => f.other = c.node,
                _ => {}
            }
            f.count += 1;
            for w in self.tree.children(c.node) {
                if self.s.placed[w.index()] {
                    f.size -= ix.size(w);
                }
            }
        }
        #[cfg(debug_assertions)]
        let mut ids = Vec::new();
        for c in &cands {
            if c.frag == Candidate::REPEAT {
                continue;
            }
            let f = frags[c.frag as usize];
            if f.entry != c.node {
                continue;
            }
            // Every fragment touches `newly`, so its entry was found there.
            debug_assert!(c.found_by != u32::MAX, "fragment without a new neighbour");
            let (designated, size) = if f.count <= 2 {
                let mut designated = Designated::new();
                for d in [c.node, f.other].into_iter().take(f.count as usize) {
                    let a = self.anchor(d).expect("candidates have a placed neighbour");
                    designated.push((d, a));
                }
                (designated, f.size)
            } else {
                self.flood_fragment(c.node)
            };
            let at = match rule {
                AttachRule::Fixed(a) => a,
                AttachRule::BySide { att1, att2, s1_len } => {
                    if (c.found_by as usize) < s1_len {
                        att1
                    } else {
                        att2
                    }
                }
            };
            let id = self.new_interval(Interval {
                top: f.top,
                designated,
                size,
            });
            self.attach(id, at);
            #[cfg(debug_assertions)]
            ids.push(id);
        }
        self.s.cand_buf = cands;
        self.s.frag_buf = frags;
        #[cfg(debug_assertions)]
        self.assert_matches_flood(newly, &ids);
    }

    /// The flood fallback of `rebuild_components`, for a fragment with
    /// more than two designated nodes: their breadth-first order from
    /// `entry` and the fragment's size, counted in the build log.
    fn flood_fragment(&mut self, entry: NodeId) -> (Designated, u32) {
        let mut nodes = std::mem::take(&mut self.s.flood_buf);
        let designated = self.flood_into(entry, &mut nodes);
        let size = nodes.len() as u32;
        self.s.flood_buf = nodes;
        debug_assert!(designated.len() > 2);
        self.log.multi_designated_components += 1;
        (designated, size)
    }

    /// The top of the un-placed fragment holding `v`: the highest node
    /// reached climbing through un-placed parents.
    #[cfg(debug_assertions)]
    fn fragment_top(&self, v: NodeId) -> NodeId {
        let mut top = v;
        while let Some(p) = self.tree.parent(top) {
            if self.s.placed[p.index()] {
                break;
            }
            top = p;
        }
        top
    }

    /// Debug check of `rebuild_components` against the floods it
    /// replaces: flooding, in discovery order, every un-placed neighbour
    /// of `newly` whose fragment no earlier flood reached must find the
    /// intervals `ids` in order, each with the same entry, top, designated
    /// nodes, anchors and size.
    #[cfg(debug_assertions)]
    fn assert_matches_flood(&self, newly: &[NodeId], ids: &[IntId]) {
        let mut nodes = Vec::new();
        let mut tops = Vec::new();
        let mut k = 0;
        for &p in newly {
            for u in self.tree.neighbors(p) {
                if self.s.placed[u.index()] {
                    continue;
                }
                let top = self.fragment_top(u);
                if tops.contains(&top) {
                    continue;
                }
                tops.push(top);
                let designated = self.flood_into(u, &mut nodes);
                let iv = self.interval(*ids.get(k).expect("a fragment was not derived"));
                assert_eq!(iv.entry(), u, "fragment {k}: entry");
                assert_eq!(iv.top, top, "fragment {k}: top");
                assert_eq!(
                    &iv.designated[..],
                    &designated[..],
                    "fragment {k}: designated"
                );
                assert_eq!(iv.size as usize, nodes.len(), "fragment {k}: size");
                k += 1;
            }
        }
        assert_eq!(k, ids.len(), "derived a fragment the flood does not find");
    }

    /// Debug check of the rule [`AttachRule::BySide`] rests on, once
    /// `split` is placed: an un-placed neighbour of an `S1` node lies in
    /// part 1, and one of an `S2` node in part 2.
    #[cfg(debug_assertions)]
    fn assert_sides(&self, split: &IntervalSplit) {
        let mut part2 = split.part2.clone();
        part2.sort_unstable();
        let sep = &split.boundary;
        for (in_part2, boundary) in [(false, &sep.s1), (true, &sep.s2)] {
            for &v in boundary {
                for w in self.tree.neighbors(v) {
                    if !self.s.placed[w.index()] {
                        let side = part2.binary_search(&w).is_ok();
                        assert_eq!(side, in_part2, "{w:?} next to {v:?} is on the other side");
                    }
                }
            }
        }
    }

    /// Applies a separator-lemma result to the interval `id`: the boundary
    /// sets are placed (`s1` at `v1`, `s2` at `v2`), and the remaining
    /// fragments become new intervals, attached to `att1` (part-1 side) or
    /// `att2` (part-2 side).
    pub fn apply_separation(
        &mut self,
        id: IntId,
        split: &IntervalSplit,
        v1: Address,
        v2: Address,
        att1: Address,
        att2: Address,
    ) {
        let iv = self.remove_interval(id);
        let sep = &split.boundary;
        for &v in &sep.s1 {
            self.place(v, v1);
        }
        for &v in &sep.s2 {
            self.place(v, v2);
        }
        #[cfg(debug_assertions)]
        self.assert_sides(split);
        let mut newly = std::mem::take(&mut self.s.newly_buf);
        newly.clear();
        newly.extend_from_slice(&sep.s1);
        newly.extend_from_slice(&sep.s2);
        let s1_len = sep.s1.len();
        self.rebuild_components(
            &newly,
            &iv.designated,
            AttachRule::BySide { att1, att2, s1_len },
        );
        self.s.newly_buf = newly;
    }

    /// Places every node of interval `id` at `at` (capacity must suffice).
    ///
    /// The fragment is the static subtree of its top less the subtrees of
    /// the placed nodes in it (a placed node cuts off everything below
    /// it), so a walk of the top's preorder range that jumps over the
    /// subtree of each placed node it meets places exactly the fragment.
    /// Its designated list is complete and cannot change while it lives,
    /// so the list's length is what a flood would count.
    pub fn absorb_interval(&mut self, id: IntId, at: Address) {
        let iv = self.remove_interval(id);
        if iv.designated.len() > 2 {
            self.log.multi_designated_components += 1;
        }
        #[cfg(debug_assertions)]
        let flooded = {
            let mut nodes = Vec::new();
            let designated = self.flood_into(iv.entry(), &mut nodes);
            assert_eq!(
                designated.len() > 2,
                iv.designated.len() > 2,
                "the flood counts another multi-designated fragment"
            );
            let mut nodes: Vec<NodeId> = nodes.into_iter().map(|(v, _)| v).collect();
            nodes.sort_unstable();
            nodes
        };
        let h = at.heap_id();
        assert!(
            u32::from(self.s.count[h]) + iv.size <= u32::from(self.cap()),
            "capacity exceeded at {at}"
        );
        let entry = Self::map_entry(at);
        let ix = self.s.sep_scratch.index();
        let range = ix.subtree(iv.top);
        #[cfg(debug_assertions)]
        let mut walked = Vec::new();
        let mut k = 0;
        while k < range.len() {
            let v = range[k];
            if self.s.placed[v.index()] {
                k += ix.size(v) as usize;
            } else {
                self.s.placed[v.index()] = true;
                self.assign[v.index()] = entry;
                k += 1;
                #[cfg(debug_assertions)]
                walked.push(v);
            }
        }
        self.s.count[h] += iv.size as u16;
        #[cfg(debug_assertions)]
        {
            assert_eq!(walked.len() as u32, iv.size, "stale interval size");
            walked.sort_unstable();
            assert_eq!(walked, flooded, "the preorder walk and the flood disagree");
        }
    }

    /// Grows `order`, whose nodes are placed at `at`, breadth-first
    /// through un-placed nodes to `k` nodes, placing each node at `at` as
    /// it is reached: `placed` is the walk's only visited mark.
    ///
    /// Returns where the tail of `order` starts. Every node before it had
    /// all its neighbours reached, so none has an un-placed neighbour,
    /// and only the tail can border a fragment. The last node expanded
    /// may have stopped part-way, so the tail starts there.
    fn grow_crown(&mut self, order: &mut Vec<NodeId>, k: usize, at: Address) -> usize {
        let mut head = 0;
        while order.len() < k {
            debug_assert!(head < order.len(), "crown BFS starved");
            let v = order[head];
            head += 1;
            for w in self.tree.neighbors(v) {
                if order.len() == k {
                    break;
                }
                if !self.s.placed[w.index()] {
                    self.place(w, at);
                    order.push(w);
                }
            }
        }
        let tail = head.saturating_sub(1);
        #[cfg(debug_assertions)]
        for &v in &order[..tail] {
            let settled = self
                .tree
                .neighbors(v)
                .iter()
                .all(|w| self.s.placed[w.index()]);
            assert!(
                settled,
                "{v:?} before the crown's tail borders an un-placed node"
            );
        }
        tail
    }

    /// Round 0: places a connected block of up to `capacity` nodes, grown
    /// breadth-first from the guest root, on the root `ε`, and attaches
    /// everything else there.
    pub fn place_root_block(&mut self) {
        let k = usize::from(self.cap()).min(self.tree.len());
        let root = self.tree.root();
        let mut order = std::mem::take(&mut self.s.order_buf);
        order.clear();
        order.push(root);
        self.place(root, Address::ROOT);
        let tail = self.grow_crown(&mut order, k, Address::ROOT);
        self.rebuild_components(&order[tail..], &[], AttachRule::Fixed(Address::ROOT));
        self.s.order_buf = order;
    }

    /// Places a connected "crown" of `k` nodes of interval `id` at
    /// `place_at`, growing breadth-first from the designated nodes; the
    /// remaining fragments become new intervals attached to
    /// `attach_rest_to` (the crown's own leaf for local fills, the source
    /// leaf for borrows).
    ///
    /// # Panics
    /// Panics if `k` is not smaller than the interval size (use
    /// [`Self::absorb_interval`] for a full take).
    pub fn take_crown(&mut self, id: IntId, k: u32, place_at: Address, attach_rest_to: Address) {
        let at = place_at;
        let iv = self.remove_interval(id);
        assert!(
            k >= 1 && k < iv.size,
            "crown of {k} from interval of {}",
            iv.size
        );
        // BFS from the designated nodes through un-placed nodes; a
        // designated node left out stays designated of the rest.
        let mut order = std::mem::take(&mut self.s.order_buf);
        order.clear();
        for &(d, _) in iv.designated.iter().take(k as usize) {
            self.place(d, at);
            order.push(d);
        }
        let tail = self.grow_crown(&mut order, k as usize, at);
        self.rebuild_components(
            &order[tail..],
            &iv.designated,
            AttachRule::Fixed(attach_rest_to),
        );
        self.s.order_buf = order;
    }

    /// Sum over all live attachments — used by invariant checks.
    pub fn total_unplaced(&self) -> u64 {
        self.s.placed.iter().filter(|&&p| !p).count() as u64
    }

    /// Exhaustive mid-build invariant check, run after every round in
    /// debug builds (tests): the attachment lists must live entirely on the
    /// current leaf level, the live intervals must partition the un-placed
    /// nodes exactly, every designated node's anchor must actually hold a
    /// placed neighbour no more than two levels up, every vertex of
    /// levels `≤ i` must be filled (for exact-size guests), and the cached
    /// `att_mass` array must agree with the lists it summarises.
    ///
    /// The only caller is `#[cfg(debug_assertions)]`-gated, so release
    /// builds see no call site.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub fn check_round_invariants(&self, i: u8, exact: bool) {
        // 1. Attachment addresses sit on level i; the mass cache is honest.
        for h in 0..self.s.att.len() {
            let ids = &self.s.att[h];
            // Lists beyond the current host exist only when the scratch
            // served a larger build earlier; they must have stayed empty.
            if h >= self.s.att_mass.len() {
                assert!(ids.is_empty(), "attachment beyond the host at heap {h}");
                continue;
            }
            let mass: u64 = ids.iter().map(|&id| self.interval(id).size as u64).sum();
            assert_eq!(mass, self.s.att_mass[h], "stale att_mass at heap {h}");
            if ids.is_empty() {
                continue;
            }
            let addr = Address::from_heap_id(h);
            assert_eq!(addr.level(), i, "attachment at {addr} after round {i}");
        }
        // 2. Intervals partition the un-placed nodes.
        let mut covered = vec![false; self.tree.len()];
        let mut total = 0u64;
        for ids in &self.s.att {
            for &id in ids {
                let iv = self.interval(id);
                // Walk the fragment from its top.
                let mut stack = vec![iv.top];
                let mut seen = std::collections::HashSet::new();
                seen.insert(iv.top);
                while let Some(v) = stack.pop() {
                    assert!(!self.s.placed[v.index()], "placed node inside an interval");
                    assert!(!covered[v.index()], "node in two intervals");
                    covered[v.index()] = true;
                    total += 1;
                    for w in self.tree.neighbors(v) {
                        if !self.s.placed[w.index()] && seen.insert(w) {
                            stack.push(w);
                        }
                    }
                }
                assert_eq!(seen.len() as u32, iv.size, "stale interval size");
                // 3. Designated anchors are honest and fresh enough.
                for &(d, anchor) in iv.designated.iter() {
                    assert!(!self.s.placed[d.index()]);
                    assert!(
                        self.tree
                            .neighbors(d)
                            .iter()
                            .any(|w| self.s.placed[w.index()]
                                && self.assign[w.index()] as usize == anchor.heap_id()),
                        "anchor {anchor} of {d:?} has no placed neighbour"
                    );
                    assert!(
                        anchor.level() + 2 > i,
                        "designated {d:?} missed its deadline (anchor {anchor}, round {i})"
                    );
                }
            }
        }
        assert_eq!(
            total,
            self.total_unplaced(),
            "intervals do not cover all un-placed nodes"
        );
        // 4. Levels ≤ i are full for exact-size guests.
        if exact {
            for a in Address::all_up_to(i) {
                assert_eq!(
                    self.s.count[a.heap_id()],
                    self.cap(),
                    "vertex {a} not full after round {i}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_trees::generate;

    #[test]
    fn a_fragment_next_to_three_placed_nodes_falls_back_to_the_flood() {
        // In the complete tree on 15 nodes (children of v: 2v+1, 2v+2),
        // placing the root and the grandchildren 7 and 9 of node 1 leaves
        // node 1's fragment {1, 3, 4, 8, 10} next to three placed nodes.
        let t = generate::left_complete(15);
        let mut scratch = Theorem1Scratch::new();
        let mut b = Builder::new(&t, 0, EmbedOptions::default(), &mut scratch);
        let newly = [NodeId(0), NodeId(7), NodeId(9)];
        for &v in &newly {
            b.place(v, Address::ROOT);
        }
        b.rebuild_components(&newly, &[], AttachRule::Fixed(Address::ROOT));

        let ids = b.att_list(Address::ROOT).to_vec();
        assert_eq!(ids.len(), 2);
        // Discovery order: the root's children come first.
        let multi = b.interval(ids[0]);
        assert_eq!((multi.entry(), multi.top), (NodeId(1), NodeId(1)));
        assert_eq!(multi.size, 5);
        assert!(matches!(multi.designated, Designated::Heap(_)));
        // Breadth-first from the entry, each anchored at the root.
        let expect = [NodeId(1), NodeId(3), NodeId(4)].map(|d| (d, Address::ROOT));
        assert_eq!(&multi.designated[..], &expect[..]);
        let plain = b.interval(ids[1]);
        assert_eq!((plain.entry(), plain.top), (NodeId(2), NodeId(2)));
        assert_eq!(plain.size, 7);
        assert_eq!(&plain.designated[..], &[(NodeId(2), Address::ROOT)]);
        assert!(matches!(plain.designated, Designated::Inline { .. }));
        assert_eq!(b.log.multi_designated_components, 1, "the fallback counts");

        // Absorbing the fragment counts it once more.
        b.detach_swap(Address::ROOT, 0);
        b.absorb_interval(ids[0], Address::ROOT);
        assert_eq!(b.log.multi_designated_components, 2);
        assert_eq!(b.count(Address::ROOT), 8);
    }

    /// The guest nodes `b` has placed, in id order.
    fn placed_nodes(b: &Builder<'_>) -> Vec<u32> {
        (0..b.tree.len() as u32)
            .filter(|&v| b.s.placed[v as usize])
            .collect()
    }

    #[test]
    fn absorbing_a_fragment_jumps_over_the_placed_subtrees_below_its_top() {
        // In the complete tree on 15 nodes, placing the root and node 4
        // leaves node 1's fragment {1, 3, 7, 8}, with a hole under 4 whose
        // children 9 and 10 are fragments of their own.
        let t = generate::left_complete(15);
        let mut scratch = Theorem1Scratch::new();
        let mut b = Builder::new(&t, 1, EmbedOptions::default(), &mut scratch);
        let newly = [NodeId(0), NodeId(4)];
        for &v in &newly {
            b.place(v, Address::ROOT);
        }
        b.rebuild_components(&newly, &[], AttachRule::Fixed(Address::ROOT));
        let ids = b.att_list(Address::ROOT).to_vec();
        let tops: Vec<_> = ids.iter().map(|&id| b.interval(id).top).collect();
        assert_eq!(tops, [1, 2, 9, 10].map(NodeId));
        let frag = b.interval(ids[0]);
        assert_eq!(frag.size, 4);
        // Node 1 borders the root above and node 4 below: one designated
        // node, inline.
        assert_eq!(&frag.designated[..], &[(NodeId(1), Address::ROOT)]);

        let leaf = Address::ROOT.child(0);
        b.detach_swap(Address::ROOT, 0);
        b.absorb_interval(ids[0], leaf);
        assert_eq!(b.count(leaf), 4);
        assert_eq!(placed_nodes(&b), [0, 1, 3, 4, 7, 8]);
        for v in [1, 3, 7, 8] {
            assert_eq!(b.assign[v], leaf.heap_id() as u32, "n{v}");
        }
        // The fragments inside the hole are untouched.
        for &id in &ids[2..] {
            assert_eq!(b.interval(id).size, 1);
        }
        assert_eq!(b.log.multi_designated_components, 0);
    }

    #[test]
    fn a_three_designated_fragment_met_twice_floods_without_marks() {
        // In the complete tree on 31 nodes, placing the root, node 7 (a
        // child of 3) and both children 9 and 10 of node 4 leaves node 1's
        // fragment {1, 3, 4, 8, 17, 18} next to four placed nodes. Node 4
        // is met twice, from 9 and from 10, and the fragment has three
        // designated nodes, so it floods.
        let t = generate::left_complete(31);
        let mut scratch = Theorem1Scratch::new();
        let mut b = Builder::new(&t, 1, EmbedOptions::default(), &mut scratch);
        let newly = [0, 7, 9, 10].map(NodeId);
        for &v in &newly {
            b.place(v, Address::ROOT);
        }
        b.rebuild_components(&newly, &[], AttachRule::Fixed(Address::ROOT));
        let ids = b.att_list(Address::ROOT).to_vec();
        // Discovery order: the root's children, then 7's children, then
        // 9's, then 10's.
        let tops: Vec<_> = ids.iter().map(|&id| b.interval(id).top).collect();
        assert_eq!(tops, [1, 2, 15, 16, 19, 20, 21, 22].map(NodeId));
        let multi = b.interval(ids[0]);
        assert_eq!(multi.size, 6);
        let expect = [1, 3, 4].map(|d| (NodeId(d), Address::ROOT));
        assert_eq!(&multi.designated[..], &expect[..]);
        assert_eq!(b.interval(ids[1]).size, 15);
        assert_eq!(b.log.multi_designated_components, 1);

        b.detach_swap(Address::ROOT, 0);
        b.absorb_interval(ids[0], Address::ROOT.child(1));
        assert_eq!(b.log.multi_designated_components, 2);
        assert_eq!(placed_nodes(&b), [0, 1, 3, 4, 7, 8, 9, 10, 17, 18]);
    }

    #[test]
    fn a_node_next_to_three_new_nodes_is_one_candidate() {
        // Placing the root and both children of node 1 leaves {1}, met
        // from all three: one designated node, not a flood.
        let t = generate::left_complete(15);
        let mut scratch = Theorem1Scratch::new();
        let mut b = Builder::new(&t, 0, EmbedOptions::default(), &mut scratch);
        let newly = [0, 3, 4].map(NodeId);
        for &v in &newly {
            b.place(v, Address::ROOT);
        }
        b.rebuild_components(&newly, &[], AttachRule::Fixed(Address::ROOT));
        let ids = b.att_list(Address::ROOT).to_vec();
        let single = b.interval(ids[0]);
        assert_eq!((single.top, single.size), (NodeId(1), 1));
        assert_eq!(&single.designated[..], &[(NodeId(1), Address::ROOT)]);
        let tops: Vec<_> = ids.iter().map(|&id| b.interval(id).top).collect();
        assert_eq!(tops, [1, 2, 7, 8, 9, 10].map(NodeId));
        assert_eq!(b.log.multi_designated_components, 0);
    }

    #[test]
    fn interval_slots_fit_in_48_bytes() {
        // Two inline (node, 8-byte address) pairs, the top and the size.
        assert_eq!(std::mem::size_of::<Option<Interval>>(), 48);
    }

    #[test]
    fn designated_lists_stay_inline_up_to_two() {
        let mut d = Designated::new();
        let entry = |v| (NodeId(v), Address::ROOT);
        d.push(entry(4));
        d.push(entry(9));
        assert!(matches!(d, Designated::Inline { len: 2, .. }));
        d.push(entry(2));
        assert!(matches!(d, Designated::Heap(_)));
        assert_eq!(&d[..], &[entry(4), entry(9), entry(2)]);
    }
}
