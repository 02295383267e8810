//! The simulate path is bit-identical to the per-level round lists it
//! replaced, with the printed-seed [`xtree_trees::paramtest`] harness.
//!
//! `simulate_all_with` and `simulate_one_with` run from flat rounds built
//! once per guest. The reference below is the old layout: one
//! `Vec<Message>` per guest level, rebuilt for every workload, run on a
//! fresh [`Engine`] per workload. Both must produce equal [`SimReport`]s
//! and equal XTRACE1 bytes on all 12 families, on guests from 1 node up
//! to X(6), for both theorems and all three hosts. A worker's engine is
//! reused across requests, so one engine also runs every case through
//! `simulate_all_in` and `simulate_one_in`.
//!
//! Reproduce a failing seed with `XTREE_PARAM_SEED=<seed> cargo test -p
//! xtree-sim --test simulate_identity`; `XTREE_PARAM_ITERS=<n>` sets the
//! stream length.

use rand::{Rng, RngCore};
use std::collections::HashMap;
use xtree_core::{theorem1, theorem2, XEmbedding};
use xtree_host::{guest_map, AnyHost, Host, HOST_HYPERCUBE, HOST_UNIVERSAL, HOST_XTREE};
use xtree_sim::workload::WORKLOADS;
use xtree_sim::{
    simulate_all_in, simulate_all_with, simulate_one_in, simulate_one_with, BatchStats, Engine,
    Message, SimReport, Sink, TraceRecorder,
};
use xtree_trees::paramtest::start_parametric_test;
use xtree_trees::{BinaryTree, TreeFamily};

const ITERS: usize = 16;
const HOSTS: [u8; 3] = [HOST_XTREE, HOST_HYPERCUBE, HOST_UNIVERSAL];
/// The tallest host the cases reach: Theorem 1 up to X(6), Theorem 2 from
/// X(0)–X(2) guests (four levels more).
const MAX_HEIGHT: u8 = 6;

// ---- the reference: the per-level round lists, verbatim --------------

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

fn broadcast_rounds(tree: &BinaryTree, map: &[u32]) -> Vec<Vec<Message>> {
    let (depth, max) = depths(tree);
    let mut rounds = vec![Vec::new(); max as usize];
    for (p, c) in tree.edges() {
        rounds[depth[c.index()] as usize - 1].push(Message {
            src: map[p.index()],
            dst: map[c.index()],
        });
    }
    rounds
}

fn reduce_rounds(tree: &BinaryTree, map: &[u32]) -> Vec<Vec<Message>> {
    let mut rounds = broadcast_rounds(tree, map);
    for round in rounds.iter_mut() {
        for m in round.iter_mut() {
            std::mem::swap(&mut m.src, &mut m.dst);
        }
    }
    rounds.reverse();
    rounds
}

fn exchange_round(tree: &BinaryTree, map: &[u32]) -> Vec<Message> {
    let mut out = Vec::with_capacity(2 * (tree.len() - 1));
    for (p, c) in tree.edges() {
        let (a, b) = (map[p.index()], map[c.index()]);
        out.push(Message { src: a, dst: b });
        out.push(Message { src: b, dst: a });
    }
    out
}

fn rounds_for(tree: &BinaryTree, map: &[u32], idx: usize) -> Vec<Vec<Message>> {
    match idx {
        0 => broadcast_rounds(tree, map),
        1 => reduce_rounds(tree, map),
        2 => vec![exchange_round(tree, map)],
        _ => {
            let mut rounds = broadcast_rounds(tree, map);
            rounds.extend(reduce_rounds(tree, map));
            rounds
        }
    }
}

fn summarise(workload: &'static str, stats: &[BatchStats]) -> SimReport {
    let cycles = stats.iter().map(|s| s.cycles).sum();
    let ideal_cycles = stats.iter().map(|s| s.ideal_cycles).sum();
    let worst_round_slowdown = stats
        .iter()
        .filter(|s| s.ideal_cycles > 0)
        .map(|s| s.cycles as f64 / s.ideal_cycles as f64)
        .fold(1.0f64, f64::max);
    SimReport {
        workload,
        cycles,
        ideal_cycles,
        worst_round_slowdown,
        max_link_traffic: stats.iter().map(|s| s.max_link_traffic).max().unwrap_or(0),
    }
}

/// Workload `idx` the old way: its rounds rebuilt, on a fresh engine.
fn reference<H: Host, S: Sink>(
    net: &H,
    tree: &BinaryTree,
    map: &[u32],
    idx: usize,
    sink: &mut S,
) -> SimReport {
    let mut engine = Engine::new();
    let stats: Vec<BatchStats> = rounds_for(tree, map, idx)
        .iter()
        .map(|r| engine.run_batch_with(net, r, sink).unwrap())
        .collect();
    summarise(WORKLOADS[idx], &stats)
}

// ---- the comparison --------------------------------------------------

/// Every host once per (tag, height), as the server's table keeps them.
#[derive(Default)]
struct Hosts(HashMap<(u8, u8), AnyHost>);

impl Hosts {
    fn get(&mut self, tag: u8, height: u8) -> &AnyHost {
        self.0
            .entry((tag, height))
            .or_insert_with(|| AnyHost::for_xtree_height(tag, height).expect("servable height"))
    }
}

/// `simulate_all_with`, `simulate_all_in` and every `simulate_one_*`
/// against the reference, on each host: equal reports, equal trace bytes.
fn check(tree: &BinaryTree, emb: &XEmbedding, hosts: &mut Hosts, engine: &mut Engine, what: &str) {
    for tag in HOSTS {
        let net = hosts.get(tag, emb.height);
        let map = guest_map(tag, emb).expect("known tag");
        let what = format!("{what} on {} X({})", net.label(), emb.height);

        let mut old = TraceRecorder::new();
        let expect: Vec<SimReport> = (0..WORKLOADS.len())
            .map(|idx| reference(net, tree, &map, idx, &mut old))
            .collect();
        let mut new = TraceRecorder::new();
        let got = simulate_all_with(net, tree, &map, &mut new).unwrap();
        assert_eq!(got, expect, "{what}: simulate_all_with");
        assert_eq!(new.bytes(), old.bytes(), "{what}: simulate_all_with trace");
        let mut reused = TraceRecorder::new();
        let got = simulate_all_in(engine, net, tree, &map, &mut reused).unwrap();
        assert_eq!(got, expect, "{what}: simulate_all_in");
        assert_eq!(reused.bytes(), old.bytes(), "{what}: simulate_all_in trace");

        for (idx, expect) in expect.iter().enumerate() {
            let mut old = TraceRecorder::new();
            assert_eq!(&reference(net, tree, &map, idx, &mut old), expect);
            let mut new = TraceRecorder::new();
            let got = simulate_one_with(net, tree, &map, idx, &mut new).unwrap();
            assert_eq!(&got, expect, "{what}: simulate_one_with({idx})");
            assert_eq!(new.bytes(), old.bytes(), "{what}: one({idx}) trace");
            let mut reused = TraceRecorder::new();
            let got = simulate_one_in(engine, net, tree, &map, idx, &mut reused).unwrap();
            assert_eq!(&got, expect, "{what}: simulate_one_in({idx})");
            assert_eq!(reused.bytes(), old.bytes(), "{what}: one_in({idx}) trace");
        }
    }
}

/// The embedding the server builds for `theorem`.
fn embed(tree: &BinaryTree, theorem: u8) -> XEmbedding {
    let emb = theorem1::embed(tree).emb;
    match theorem {
        1 => emb,
        _ => theorem2::injectivize(&emb),
    }
}

#[test]
fn flat_rounds_match_per_level_lists() {
    let mut hosts = Hosts::default();
    let mut engine = Engine::new();
    start_parametric_test("flat_rounds_match_per_level_lists", &[], ITERS, |rng| {
        let family = TreeFamily::ALL[rng.random_range(0..TreeFamily::ALL.len())];
        let theorem = rng.random_range(1..=2u8);
        let top = if theorem == 1 {
            MAX_HEIGHT
        } else {
            MAX_HEIGHT - 4
        };
        // A guest that Theorem 1 puts on exactly X(r).
        let r = rng.random_range(0..=top);
        let lo = if r == 0 { 1 } else { 16 * ((1 << r) - 1) + 1 };
        let nodes = rng.random_range(lo..=16 * ((1 << (r + 1)) - 1));
        let tree = family.generate_seeded(nodes, rng.next_u64());
        let emb = embed(&tree, theorem);
        let what = format!("{family:?} n={nodes} theorem {theorem}");
        check(&tree, &emb, &mut hosts, &mut engine, &what);
    });
}

#[test]
fn tiny_guests_match_per_level_lists() {
    // One node has no level and an empty exchange; two and three nodes
    // have one or two levels.
    let mut hosts = Hosts::default();
    let mut engine = Engine::new();
    for family in TreeFamily::ALL {
        for nodes in 1..=3 {
            for theorem in [1, 2] {
                let tree = family.generate_seeded(nodes, 7);
                let emb = embed(&tree, theorem);
                let what = format!("{family:?} n={nodes} theorem {theorem}");
                check(&tree, &emb, &mut hosts, &mut engine, &what);
            }
        }
    }
}
