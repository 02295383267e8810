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

/// One round per guest level: parents send to their children.
pub fn broadcast_rounds<M: HostMap>(tree: &BinaryTree, emb: &M) -> Vec<Vec<Message>> {
    let (depth, max) = depths(tree);
    let mut rounds = vec![Vec::new(); max as usize];
    for (p, c) in tree.edges() {
        rounds[depth[c.index()] as usize - 1].push(Message {
            src: emb.host_of(p),
            dst: emb.host_of(c),
        });
    }
    rounds
}

/// One round per guest level, deepest first: children send to parents.
pub fn reduce_rounds<M: HostMap>(tree: &BinaryTree, emb: &M) -> Vec<Vec<Message>> {
    let mut rounds = broadcast_rounds(tree, emb);
    for round in rounds.iter_mut() {
        for m in round.iter_mut() {
            std::mem::swap(&mut m.src, &mut m.dst);
        }
    }
    rounds.reverse();
    rounds
}

/// A single synchronous step: every tree edge carries a message both ways.
pub fn exchange_round<M: HostMap>(tree: &BinaryTree, emb: &M) -> Vec<Message> {
    let mut out = Vec::with_capacity(2 * (tree.len() - 1));
    for (p, c) in tree.edges() {
        let (a, b) = (emb.host_of(p), emb.host_of(c));
        out.push(Message { src: a, dst: b });
        out.push(Message { src: b, dst: a });
    }
    out
}

/// A full divide-and-conquer sweep: broadcast down, then reduce up.
pub fn divide_and_conquer_rounds<M: HostMap>(tree: &BinaryTree, emb: &M) -> Vec<Vec<Message>> {
    let mut rounds = broadcast_rounds(tree, emb);
    rounds.extend(reduce_rounds(tree, emb));
    rounds
}

/// Canonical workload names, in the fixed order `simulate_all*` and the
/// session driver execute them.
pub const WORKLOADS: [&str; 4] = ["broadcast", "reduce", "exchange", "dnc"];

/// The round sequence of canonical workload `idx` (an index into
/// [`WORKLOADS`]), generated from the *current* embedding — callers that
/// mutate the embedding mid-experiment (recovery repairs) regenerate each
/// round from here so later traffic follows the migrated guests.
pub fn rounds_for<M: HostMap>(tree: &BinaryTree, emb: &M, idx: usize) -> Vec<Vec<Message>> {
    match idx {
        0 => broadcast_rounds(tree, emb),
        1 => reduce_rounds(tree, emb),
        2 => vec![exchange_round(tree, emb)],
        _ => divide_and_conquer_rounds(tree, emb),
    }
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
