//! Guest workloads: communication patterns of tree-structured programs.
//!
//! The paper motivates binary trees as "the type of program structure
//! found in common divide-and-conquer algorithms". These generators turn a
//! guest tree plus an embedding into the message rounds such programs
//! produce on the host:
//!
//! * [`broadcast_rounds`] — root-to-leaves, one round per tree level
//!   (problem distribution);
//! * [`reduce_rounds`] — leaves-to-root (result combination);
//! * [`exchange_round`] — every tree edge in both directions at once
//!   (one synchronous step of a tree-connected computation);
//! * [`divide_and_conquer_rounds`] — a broadcast followed by a reduce.
//!
//! All four are read from one place, which lays a guest's rounds out once
//! as flat arrays and defines their order; the simulation entry points
//! run straight from those arrays.

use crate::engine::Message;
use xtree_core::{QEmbedding, XEmbedding};
use xtree_trees::{BinaryTree, NodeId};

/// Maps each guest node to its host-vertex id under an embedding.
pub trait HostMap {
    /// Host-vertex id of guest node `v`.
    fn host_of(&self, v: NodeId) -> u32;
}

impl HostMap for XEmbedding {
    fn host_of(&self, v: NodeId) -> u32 {
        self.map[v.index()]
    }
}

impl HostMap for QEmbedding {
    fn host_of(&self, v: NodeId) -> u32 {
        self.image(v) as u32
    }
}

/// A flat per-node host-vertex map — the uniform guest map the host
/// subsystem produces for every backend (`xtree_host::guest_map`).
impl HostMap for Vec<u32> {
    fn host_of(&self, v: NodeId) -> u32 {
        self[v.index()]
    }
}

fn depths(tree: &BinaryTree) -> (Vec<u32>, u32) {
    let mut depth = vec![0u32; tree.len()];
    let mut max = 0;
    for v in tree.preorder() {
        if let Some(p) = tree.parent(v) {
            depth[v.index()] = depth[p.index()] + 1;
            max = max.max(depth[v.index()]);
        }
    }
    (depth, max)
}

/// Canonical workload names, in the fixed order `simulate_all*` and
/// [`Session`](crate::Session) run them.
pub const WORKLOADS: [&str; 4] = ["broadcast", "reduce", "exchange", "dnc"];

/// The rounds of the canonical workloads for one guest and map, built
/// once, and the one place that defines their order.
///
/// The broadcast messages are one flat array, sorted by level (the
/// child's depth) and in [`BinaryTree::edges`] order within a level, with
/// an offset per level. Reduce and divide-and-conquer read the same
/// levels from the reversed copy, and exchange is one pass over the
/// edges. So building costs a fixed number of allocations however deep
/// the guest is, and every round is a slice.
pub(crate) struct Rounds {
    /// Broadcast messages (parent to child), level by level.
    down: Vec<Message>,
    /// The same messages reversed (child to parent), in the same order.
    up: Vec<Message>,
    /// Level `l` (children at depth `l + 1`) is
    /// `down[level[l]..level[l + 1]]`; empty when no level was built.
    level: Vec<u32>,
    /// The exchange round: every edge in both directions, edge by edge.
    exchange: Vec<Message>,
}

impl Rounds {
    /// The rounds of canonical workload `workload` (an index into
    /// [`WORKLOADS`]), or of all four for `None`. Only the arrays those
    /// workloads read are built.
    ///
    /// # Panics
    /// If `workload` is `Some` index outside `0..4`.
    pub fn new<M: HostMap>(tree: &BinaryTree, emb: &M, workload: Option<usize>) -> Self {
        let (down, up, exchange) = match workload {
            None => (true, true, true),
            Some(0) => (true, false, false),
            Some(1) => (false, true, false),
            Some(2) => (false, false, true),
            Some(3) => (true, true, false),
            Some(idx) => panic!("workload index {idx} is not in 0..{}", WORKLOADS.len()),
        };
        let mut rounds = Rounds {
            down: Vec::new(),
            up: Vec::new(),
            level: Vec::new(),
            exchange: Vec::new(),
        };
        if down || up {
            rounds.build_levels(tree, emb);
        }
        if up {
            rounds.up = if down {
                rounds.down.clone()
            } else {
                std::mem::take(&mut rounds.down)
            };
            for m in &mut rounds.up {
                std::mem::swap(&mut m.src, &mut m.dst);
            }
        }
        if exchange {
            rounds.exchange = Vec::with_capacity(2 * (tree.len() - 1));
            for (p, c) in tree.edges() {
                let (a, b) = (emb.host_of(p), emb.host_of(c));
                rounds.exchange.push(Message { src: a, dst: b });
                rounds.exchange.push(Message { src: b, dst: a });
            }
        }
        rounds
    }

    /// Fills `down` and `level`: a counting sort of the edges by depth.
    fn build_levels<M: HostMap>(&mut self, tree: &BinaryTree, emb: &M) {
        let (depth, max) = depths(tree);
        let levels = max as usize;
        self.level = vec![0u32; levels + 1];
        for (_, c) in tree.edges() {
            self.level[depth[c.index()] as usize] += 1;
        }
        for l in 1..=levels {
            self.level[l] += self.level[l - 1];
        }
        let mut next = self.level[..levels].to_vec();
        self.down = vec![Message { src: 0, dst: 0 }; tree.len() - 1];
        for (p, c) in tree.edges() {
            let slot = &mut next[depth[c.index()] as usize - 1];
            self.down[*slot as usize] = Message {
                src: emb.host_of(p),
                dst: emb.host_of(c),
            };
            *slot += 1;
        }
    }

    /// Number of guest levels below the root: the broadcast's round count.
    fn levels(&self) -> usize {
        self.level.len().saturating_sub(1)
    }

    fn level_range(&self, l: usize) -> std::ops::Range<usize> {
        self.level[l] as usize..self.level[l + 1] as usize
    }

    /// Number of rounds of workload `idx`.
    pub fn count(&self, idx: usize) -> usize {
        match idx {
            0 | 1 => self.levels(),
            2 => 1,
            _ => 2 * self.levels(),
        }
    }

    /// Round `k` of workload `idx`:
    ///
    /// * broadcast — level `k`, parents send to their children;
    /// * reduce — level `L − 1 − k` with every message reversed, so the
    ///   deepest level goes first (`L` is the level count);
    /// * exchange — its single round, every edge both ways at once;
    /// * dnc — the `L` broadcast rounds, then the `L` reduce rounds.
    ///
    /// The rounds must have been built for `idx` (or for all four), and
    /// `k` must be below [`Rounds::count`].
    pub fn round(&self, idx: usize, k: usize) -> &[Message] {
        let levels = self.levels();
        match idx {
            0 => &self.down[self.level_range(k)],
            1 => &self.up[self.level_range(levels - 1 - k)],
            2 => &self.exchange,
            _ if k < levels => &self.down[self.level_range(k)],
            _ => &self.up[self.level_range(2 * levels - 1 - k)],
        }
    }

    /// The rounds of workload `idx`, in order.
    pub fn workload(&self, idx: usize) -> impl Iterator<Item = &[Message]> {
        (0..self.count(idx)).map(move |k| self.round(idx, k))
    }
}

/// One round per guest level: parents send to their children.
pub fn broadcast_rounds<M: HostMap>(tree: &BinaryTree, emb: &M) -> Vec<Vec<Message>> {
    rounds_for(tree, emb, 0)
}

/// One round per guest level, deepest first: children send to parents.
pub fn reduce_rounds<M: HostMap>(tree: &BinaryTree, emb: &M) -> Vec<Vec<Message>> {
    rounds_for(tree, emb, 1)
}

/// A single synchronous step: every tree edge carries a message both ways.
pub fn exchange_round<M: HostMap>(tree: &BinaryTree, emb: &M) -> Vec<Message> {
    Rounds::new(tree, emb, Some(2)).exchange
}

/// A full divide-and-conquer sweep: broadcast down, then reduce up.
pub fn divide_and_conquer_rounds<M: HostMap>(tree: &BinaryTree, emb: &M) -> Vec<Vec<Message>> {
    rounds_for(tree, emb, 3)
}

/// The round sequence of canonical workload `idx` (an index into
/// [`WORKLOADS`]), generated from the *current* embedding, one `Vec` per
/// round.
pub fn rounds_for<M: HostMap>(tree: &BinaryTree, emb: &M, idx: usize) -> Vec<Vec<Message>> {
    let rounds = Rounds::new(tree, emb, Some(idx));
    rounds.workload(idx).map(<[Message]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_core::metrics::heap_order_embedding;
    use xtree_trees::generate;

    #[test]
    fn broadcast_covers_all_edges_once() {
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let rounds = broadcast_rounds(&t, &e);
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds.iter().map(Vec::len).sum::<usize>(), 14);
        assert_eq!(rounds[0].len(), 2);
        assert_eq!(rounds[2].len(), 8);
    }

    #[test]
    fn reduce_is_reversed_broadcast() {
        let t = generate::caterpillar(20);
        let e = heap_order_embedding(&t, 4);
        let b = broadcast_rounds(&t, &e);
        let r = reduce_rounds(&t, &e);
        assert_eq!(b.len(), r.len());
        let last = r.last().unwrap();
        let first_b = &b[0];
        assert_eq!(last.len(), first_b.len());
        for (mb, mr) in first_b.iter().zip(last.iter()) {
            assert_eq!((mb.src, mb.dst), (mr.dst, mr.src));
        }
    }

    #[test]
    fn exchange_has_two_messages_per_edge() {
        let t = generate::path(10);
        let e = heap_order_embedding(&t, 3);
        assert_eq!(exchange_round(&t, &e).len(), 18);
    }

    #[test]
    fn dnc_is_broadcast_plus_reduce() {
        let t = generate::broom(30);
        let e = heap_order_embedding(&t, 4);
        let d = divide_and_conquer_rounds(&t, &e);
        assert_eq!(
            d.len(),
            broadcast_rounds(&t, &e).len() + reduce_rounds(&t, &e).len()
        );
    }
}
