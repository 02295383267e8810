//! Verbatim pre-refactor Theorem-1 builder, kept as the comparison
//! baseline for the perf rebuild of `xtree_core::theorem1`.
//!
//! This is the builder as it stood before the SoA/scratch/parallel
//! rework (commit 4f8b7c4), concatenated from the old
//! `theorem1/{mod,state,adjust,split,trace}.rs` with imports adjusted to
//! use the public `xtree_core` types. Two consumers depend on it:
//!
//! * `tests/golden_vs_legacy.rs` — full structural equality of
//!   `XEmbedding`, trace, mass trace, and `BuildLog` between the live
//!   builder and this copy (the byte-identical contract);
//! * `bin/embedbench.rs` — the cold-build speedup is measured against
//!   this copy, not against a checked-in wall-clock number, so the CI
//!   gate is machine-independent.
//!
//! The separator lemmas it calls are frozen with it, in its `separator`
//! submodule: the orientation-based `lemma2_with` as it stood before
//! Lemmas 1 and 2 read pieces off the guest's static preorder. So both
//! consumers compare the live separator too.
//!
//! Do not "improve" this module; its value is being frozen.

mod separator;

use separator::{lemma2_with, SeparatorScratch};
use smallvec::SmallVec;
use std::collections::HashMap;
use xtree_core::theorem1::{BuildLog, EmbedOptions, Theorem1Embedding};
use xtree_core::XEmbedding;
use xtree_topology::Address;
use xtree_trees::{BinaryTree, NodeId, Separation};

type IntId = u32;

#[derive(Clone, Debug)]
struct Interval {
    entry: NodeId,
    designated: SmallVec<[(NodeId, Address); 2]>,
    size: u32,
}

impl Interval {
    fn lemma_designated(&self) -> (NodeId, NodeId) {
        let r1 = self.designated[0].0;
        let r2 = self
            .designated
            .last()
            .expect("intervals have ≥ 1 designated")
            .0;
        (r1, r2)
    }

    fn min_anchor_level(&self) -> u8 {
        self.designated
            .iter()
            .map(|&(_, a)| a.level())
            .min()
            .unwrap()
    }
}

struct Builder<'t> {
    tree: &'t BinaryTree,
    opts: EmbedOptions,
    placed: Vec<bool>,
    assign: Vec<Address>,
    count: Vec<u16>,
    intervals: Vec<Option<Interval>>,
    att: HashMap<Address, Vec<IntId>>,
    mark: Vec<u32>,
    epoch: u32,
    scratch: SeparatorScratch,
    log: BuildLog,
    trace: Vec<Vec<u64>>,
    mass_trace: Vec<(u64, u64)>,
}

impl<'t> Builder<'t> {
    fn new(tree: &'t BinaryTree, r: u8, opts: EmbedOptions) -> Self {
        let n = tree.len();
        Builder {
            tree,
            opts,
            placed: vec![false; n],
            assign: vec![Address::ROOT; n],
            count: vec![0; (1usize << (r + 1)) - 1],
            intervals: Vec::new(),
            att: HashMap::new(),
            mark: vec![0; n],
            epoch: 0,
            scratch: SeparatorScratch::new(n),
            log: BuildLog::default(),
            trace: Vec::new(),
            mass_trace: Vec::new(),
        }
    }

    fn cap(&self) -> u16 {
        self.opts.capacity
    }

    fn free(&self, a: Address) -> u16 {
        self.cap() - self.count[a.heap_id()]
    }

    fn place(&mut self, v: NodeId, at: Address) {
        debug_assert!(!self.placed[v.index()], "{v:?} placed twice");
        assert!(
            self.count[at.heap_id()] < self.cap(),
            "capacity exceeded at {at}"
        );
        self.placed[v.index()] = true;
        self.assign[v.index()] = at;
        self.count[at.heap_id()] += 1;
    }

    fn attached_mass(&self, a: Address) -> u64 {
        self.att
            .get(&a)
            .map(|ids| {
                ids.iter()
                    .map(|&id| self.intervals[id as usize].as_ref().unwrap().size as u64)
                    .sum()
            })
            .unwrap_or(0)
    }

    fn attach(&mut self, id: IntId, at: Address) {
        self.att.entry(at).or_default().push(id);
    }

    fn detach_all(&mut self, at: Address) -> Vec<IntId> {
        self.att.remove(&at).unwrap_or_default()
    }

    fn interval(&self, id: IntId) -> &Interval {
        self.intervals[id as usize]
            .as_ref()
            .expect("stale interval handle")
    }

    fn remove_interval(&mut self, id: IntId) -> Interval {
        self.intervals[id as usize]
            .take()
            .expect("stale interval handle")
    }

    fn new_interval(&mut self, iv: Interval) -> IntId {
        self.intervals.push(Some(iv));
        (self.intervals.len() - 1) as IntId
    }

    fn flood(&mut self, start: NodeId) -> (Vec<NodeId>, SmallVec<[(NodeId, Address); 2]>) {
        let mut nodes = vec![start];
        let mut designated: SmallVec<[(NodeId, Address); 2]> = SmallVec::new();
        self.mark[start.index()] = self.epoch;
        let mut head = 0;
        while head < nodes.len() {
            let v = nodes[head];
            head += 1;
            let mut anchor: Option<Address> = None;
            for w in self.tree.neighbors(v) {
                if self.placed[w.index()] {
                    let a = self.assign[w.index()];
                    anchor = Some(match anchor {
                        Some(b) if b.level() <= a.level() => b,
                        _ => a,
                    });
                } else if self.mark[w.index()] != self.epoch {
                    self.mark[w.index()] = self.epoch;
                    nodes.push(w);
                }
            }
            if let Some(a) = anchor {
                designated.push((v, a));
            }
        }
        if designated.len() > 2 {
            self.log.multi_designated_components += 1;
        }
        (nodes, designated)
    }

    fn begin_sweep(&mut self) {
        self.epoch += 1;
    }

    fn rebuild_components<F>(&mut self, newly: &[NodeId], mut attach_for: F)
    where
        F: FnMut(&[NodeId]) -> Address,
    {
        self.begin_sweep();
        for &p in newly {
            for u in self.tree.neighbors(p) {
                if self.placed[u.index()] || self.mark[u.index()] == self.epoch {
                    continue;
                }
                let (nodes, designated) = self.flood(u);
                debug_assert!(!designated.is_empty());
                let at = attach_for(&nodes);
                let iv = Interval {
                    entry: nodes[0],
                    designated,
                    size: nodes.len() as u32,
                };
                let id = self.new_interval(iv);
                self.attach(id, at);
            }
        }
    }

    fn apply_separation(
        &mut self,
        id: IntId,
        sep: &Separation,
        v1: Address,
        v2: Address,
        att1: Address,
        att2: Address,
    ) {
        let _ = self.remove_interval(id);
        for &v in &sep.s1 {
            self.place(v, v1);
        }
        for &v in &sep.s2 {
            self.place(v, v2);
        }
        let part2: std::collections::HashSet<NodeId> = sep.part2.iter().copied().collect();
        let mut newly: Vec<NodeId> = sep.s1.clone();
        newly.extend_from_slice(&sep.s2);
        self.rebuild_components(&newly, |nodes| {
            if part2.contains(&nodes[0]) {
                att2
            } else {
                att1
            }
        });
    }

    fn absorb_interval(&mut self, id: IntId, at: Address) {
        let iv = self.remove_interval(id);
        self.begin_sweep();
        let (nodes, _) = self.flood(iv.entry);
        debug_assert_eq!(nodes.len() as u32, iv.size);
        for &v in &nodes {
            self.place(v, at);
        }
    }

    fn take_crown(&mut self, id: IntId, k: u32, place_at: Address, attach_rest_to: Address) {
        let at = place_at;
        let iv = self.remove_interval(id);
        assert!(
            k >= 1 && k < iv.size,
            "crown of {k} from interval of {}",
            iv.size
        );
        self.begin_sweep();
        let mut order: Vec<NodeId> = Vec::with_capacity(k as usize);
        for &(d, _) in &iv.designated {
            if order.len() == k as usize {
                break;
            }
            if self.mark[d.index()] != self.epoch {
                self.mark[d.index()] = self.epoch;
                order.push(d);
            }
        }
        let mut head = 0;
        while order.len() < k as usize {
            debug_assert!(head < order.len(), "crown BFS starved");
            let v = order[head];
            head += 1;
            for w in self.tree.neighbors(v) {
                if order.len() == k as usize {
                    break;
                }
                if !self.placed[w.index()] && self.mark[w.index()] != self.epoch {
                    self.mark[w.index()] = self.epoch;
                    order.push(w);
                }
            }
        }
        for &v in &order {
            self.place(v, at);
        }
        self.rebuild_components(&order.clone(), |_| attach_rest_to);
    }

    fn total_unplaced(&self) -> u64 {
        self.placed.iter().filter(|&&p| !p).count() as u64
    }
}

// ---- ADJUST ----

struct Fenwick {
    t: Vec<i64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick { t: vec![0; n + 1] }
    }

    fn add(&mut self, mut idx: usize, delta: i64) {
        idx += 1;
        while idx < self.t.len() {
            self.t[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
    }

    fn prefix(&self, mut idx: usize) -> i64 {
        let mut s = 0;
        while idx > 0 {
            s += self.t[idx];
            idx -= idx & idx.wrapping_neg();
        }
        s
    }

    fn range(&self, lo: usize, hi: usize) -> i64 {
        self.prefix(hi + 1) - self.prefix(lo)
    }
}

fn adjust_phase(b: &mut Builder<'_>, i: u8) {
    if i < 2 || !b.opts.adjust {
        return;
    }
    let l = i - 1;
    let width = 1usize << l;
    let mut fw = Fenwick::new(width);
    for a in Address::level_iter(l) {
        let m = b.attached_mass(a);
        if m > 0 {
            fw.add(a.index() as usize, m as i64);
        }
    }
    for j in 0..=(i - 2) {
        for alpha in Address::level_iter(j) {
            adjust_pair(b, &mut fw, alpha, i);
        }
    }
}

fn movable(b: &Builder<'_>, id: IntId, bd: Address) -> bool {
    let parent = bd.parent();
    b.interval(id)
        .designated
        .iter()
        .all(|&(_, anchor)| anchor == bd || Some(anchor) == parent)
}

fn adjust_pair(b: &mut Builder<'_>, fw: &mut Fenwick, alpha: Address, i: u8) {
    let l = i - 1;
    let a0 = alpha.child(0);
    let a1 = alpha.child(1);
    let range = |side: Address| {
        (
            side.leftmost_descendant(l).index() as usize,
            side.rightmost_descendant(l).index() as usize,
        )
    };
    let (lo0, hi0) = range(a0);
    let (lo1, hi1) = range(a1);
    let m0 = fw.range(lo0, hi0);
    let m1 = fw.range(lo1, hi1);
    let delta = (m0 - m1).abs() / 2;
    if delta == 0 {
        return;
    }
    let donor_left = m0 > m1;
    let (bd, br) = if donor_left {
        (a0.rightmost_descendant(l), a1.leftmost_descendant(l))
    } else {
        (a1.leftmost_descendant(l), a0.rightmost_descendant(l))
    };
    debug_assert!(bd.successor() == Some(br) || br.successor() == Some(bd));
    let (d0, r0) = if donor_left {
        (bd.child(1), br.child(0))
    } else {
        (bd.child(0), br.child(1))
    };
    b.log.adjust_calls += 1;

    let mut remaining = delta as u64;
    loop {
        if remaining == 0 {
            break;
        }
        let Some((pos, id)) = b
            .att
            .get(&bd)
            .into_iter()
            .flatten()
            .enumerate()
            .filter(|&(_, &id)| movable(b, id, bd))
            .max_by_key(|&(_, &id)| b.interval(id).size)
            .map(|(p, &id)| (p, id))
        else {
            break;
        };
        let size = b.interval(id).size as u64;
        if size <= remaining && b.opts.whole_moves {
            b.att.get_mut(&bd).unwrap().swap_remove(pos);
            b.attach(id, r0);
            fw.add(bd.index() as usize, -(size as i64));
            fw.add(br.index() as usize, size as i64);
            remaining -= size;
            b.log.adjust_whole_moves += 1;
        } else {
            if b.free(d0) < 5 || b.free(r0) < 5 {
                break;
            }
            let iv = b.interval(id);
            let (r1, r2) = iv.lemma_designated();
            let delta = remaining.min(size) as u32;
            let sep = lemma2_with(&mut b.scratch, b.tree, &b.placed, r1, r2, delta);
            b.att.get_mut(&bd).unwrap().swap_remove(pos);
            let moved = sep.part2.len() as i64;
            b.apply_separation(id, &sep, d0, r0, d0, r0);
            fw.add(bd.index() as usize, -moved);
            fw.add(br.index() as usize, moved);
            b.log.adjust_splits += 1;
            break;
        }
    }
}

// ---- SPLIT ----

fn split_phase(b: &mut Builder<'_>, i: u8) {
    let l = i - 1;
    for alpha in Address::level_iter(l) {
        assign_children(b, alpha);
    }
    for leaf in Address::level_iter(i) {
        force_due_placements(b, leaf, i);
    }
    record_mass(b, i);
    for leaf in Address::level_iter(i) {
        fill(b, leaf, i);
    }
}

fn assign_children(b: &mut Builder<'_>, alpha: Address) {
    let c0 = alpha.child(0);
    let c1 = alpha.child(1);
    let mut ids = b.detach_all(alpha);
    ids.sort_unstable_by_key(|&id| std::cmp::Reverse(b.interval(id).size));
    let mut w0 = b.count[c0.heap_id()] as u64 + b.attached_mass(c0);
    let mut w1 = b.count[c1.heap_id()] as u64 + b.attached_mass(c1);
    for id in ids {
        let size = b.interval(id).size as u64;
        if w0 <= w1 {
            b.attach(id, c0);
            w0 += size;
        } else {
            b.attach(id, c1);
            w1 += size;
        }
    }
    let (heavy, light, wh, wl) = if w0 >= w1 {
        (c0, c1, w0, w1)
    } else {
        (c1, c0, w1, w0)
    };
    let delta = (wh - wl) / 2;
    if !b.opts.fine_balance || delta < 2 || b.free(heavy) < 5 || b.free(light) < 5 {
        return;
    }
    let Some((pos, id)) = b
        .att
        .get(&heavy)
        .into_iter()
        .flatten()
        .enumerate()
        .max_by_key(|&(_, &id)| b.interval(id).size)
        .map(|(p, &id)| (p, id))
    else {
        return;
    };
    let size = b.interval(id).size as u64;
    if size <= delta {
        b.att.get_mut(&heavy).unwrap().swap_remove(pos);
        b.attach(id, light);
        return;
    }
    let (r1, r2) = b.interval(id).lemma_designated();
    let sep = lemma2_with(&mut b.scratch, b.tree, &b.placed, r1, r2, delta as u32);
    b.att.get_mut(&heavy).unwrap().swap_remove(pos);
    b.apply_separation(id, &sep, heavy, light, heavy, light);
    b.log.split_balances += 1;
}

fn force_due_placements(b: &mut Builder<'_>, leaf: Address, i: u8) {
    let Some(ids) = b.att.get(&leaf) else { return };
    let due: Vec<IntId> = ids
        .iter()
        .copied()
        .filter(|&id| b.interval(id).min_anchor_level() + 2 <= i)
        .collect();
    if due.is_empty() {
        return;
    }
    b.att.get_mut(&leaf).unwrap().retain(|id| !due.contains(id));
    for id in due {
        let k = b.interval(id).designated.len() as u16;
        let size = b.interval(id).size;
        let target = nearest_with_room(b, leaf, k, i);
        if target != leaf {
            b.log.spills += 1;
        }
        if size == u32::from(k) {
            b.absorb_interval(id, target);
        } else {
            let iv = b.remove_interval(id);
            let nodes: Vec<_> = iv.designated.iter().map(|&(d, _)| d).collect();
            for &d in &nodes {
                b.place(d, target);
            }
            b.rebuild_components(&nodes, |_| target);
        }
        b.log.forced_placements += k as usize;
    }
}

fn nearest_with_room(b: &Builder<'_>, leaf: Address, k: u16, i: u8) -> Address {
    if b.free(leaf) >= k {
        return leaf;
    }
    let width = 1i64 << i;
    for d in 1..width {
        for cand in [leaf.offset(-d), leaf.offset(d)].into_iter().flatten() {
            if b.free(cand) >= k {
                return cand;
            }
        }
    }
    panic!("no capacity left on level {i} for {k} nodes");
}

fn fill(b: &mut Builder<'_>, leaf: Address, i: u8) {
    while b.free(leaf) > 0 {
        let need = b.free(leaf) as u64;
        let Some((src, id, hops)) = find_source(b, leaf, i) else {
            return;
        };
        if hops > 0 {
            b.log.borrows += 1;
            b.log.max_borrow_hops = b.log.max_borrow_hops.max(hops);
        }
        let amount = if hops == 0 {
            need
        } else {
            let surplus = b.attached_mass(src).saturating_sub(b.free(src) as u64);
            need.min(surplus)
        };
        debug_assert!(amount >= 1);
        let size = b.interval(id).size as u64;
        let pos = b.att[&src].iter().position(|&x| x == id).unwrap();
        b.att.get_mut(&src).unwrap().swap_remove(pos);
        if size <= amount {
            b.absorb_interval(id, leaf);
            b.log.fills += size as usize;
        } else {
            b.take_crown(id, amount as u32, leaf, src);
            b.log.fills += amount as usize;
        }
    }
}

fn find_source(b: &Builder<'_>, leaf: Address, i: u8) -> Option<(Address, IntId, u32)> {
    if let Some(id) = pick(b, leaf, u64::MAX) {
        return Some((leaf, id, 0));
    }
    let width = 1i64 << i;
    for d in 1..width {
        for cand in [leaf.offset(-d), leaf.offset(d)].into_iter().flatten() {
            let surplus = b.attached_mass(cand).saturating_sub(b.free(cand) as u64);
            if surplus == 0 {
                continue;
            }
            if let Some(id) = pick(b, cand, surplus) {
                return Some((cand, id, d as u32));
            }
        }
    }
    None
}

fn pick(b: &Builder<'_>, src: Address, budget: u64) -> Option<IntId> {
    let ids = b.att.get(&src)?;
    if ids.is_empty() {
        return None;
    }
    ids.iter()
        .copied()
        .filter(|&id| b.interval(id).size as u64 <= budget)
        .max_by_key(|&id| b.interval(id).size)
        .or_else(|| ids.iter().copied().min_by_key(|&id| b.interval(id).size))
}

// ---- trace ----

fn record_mass(b: &mut Builder<'_>, i: u8) {
    let (mut nl, mut nh) = (u64::MAX, 0u64);
    for a in Address::level_iter(i) {
        let associated = u64::from(b.count[a.heap_id()]) + b.attached_mass(a);
        nl = nl.min(associated);
        nh = nh.max(associated);
    }
    b.mass_trace.push((nl, nh));
}

fn record_round(b: &mut Builder<'_>, i: u8) {
    let width = 1usize << i;
    let mut level: Vec<u64> = Address::level_iter(i).map(|a| b.attached_mass(a)).collect();
    let mut row = vec![0u64; i as usize + 1];
    for j in (1..=i).rev() {
        let parents = width >> (i - j + 1);
        let mut next = vec![0u64; parents];
        let mut worst = 0u64;
        for (p, slot) in next.iter_mut().enumerate() {
            let a = level[2 * p];
            let c = level[2 * p + 1];
            *slot = a + c;
            worst = worst.max(a.abs_diff(c) / 2);
        }
        row[j as usize] = worst;
        level = next;
    }
    debug_assert_eq!(b.trace.len(), i as usize - 1, "one trace row per round");
    b.trace.push(row);
}

// ---- driver ----

fn optimal_height_cap(n: usize, cap: u16) -> u8 {
    let cap = cap as usize;
    let mut r = 0u8;
    while cap * ((1usize << (r + 1)) - 1) < n {
        r += 1;
    }
    r
}

fn is_exact_size_cap(n: usize, cap: u16) -> bool {
    n == cap as usize * ((1usize << (optimal_height_cap(n, cap) + 1)) - 1)
}

/// Runs the frozen pre-refactor algorithm X-TREE (exact sizes only — the
/// consumers only ever feed Theorem-1 sizes).
pub fn embed_legacy(tree: &BinaryTree, opts: EmbedOptions) -> Theorem1Embedding {
    let n = tree.len();
    assert!(
        is_exact_size_cap(n, opts.capacity),
        "legacy baseline only handles exact Theorem-1 sizes"
    );
    let r = optimal_height_cap(n, opts.capacity);
    let mut b = Builder::new(tree, r, opts);

    let block = bfs_block(tree, tree.root(), (opts.capacity as usize).min(n));
    for &v in &block {
        b.place(v, Address::ROOT);
    }
    b.rebuild_components(&block, |_| Address::ROOT);

    for i in 1..=r {
        adjust_phase(&mut b, i);
        split_phase(&mut b, i);
        record_round(&mut b, i);
    }

    assert_eq!(b.total_unplaced(), 0, "algorithm left guest nodes unplaced");
    let cap = opts.capacity;
    assert!(
        b.count.iter().all(|&c| c == cap),
        "exact-size guest must fill every host vertex"
    );
    Theorem1Embedding {
        emb: XEmbedding {
            height: r,
            // The embedding type stores heap ids; the frozen builder keeps
            // its addresses and converts only here.
            map: b.assign.iter().map(|a| a.heap_id() as u32).collect(),
        },
        trace: b.trace,
        log: b.log,
        mass_trace: b.mass_trace,
    }
}

fn bfs_block(tree: &BinaryTree, start: NodeId, k: usize) -> Vec<NodeId> {
    let mut out = vec![start];
    let mut seen = vec![false; tree.len()];
    seen[start.index()] = true;
    let mut head = 0;
    while out.len() < k {
        let v = out[head];
        head += 1;
        for w in tree.neighbors(v) {
            if out.len() == k {
                break;
            }
            if !seen[w.index()] {
                seen[w.index()] = true;
                out.push(w);
            }
        }
    }
    out
}
