//! Aggregation of batch statistics into experiment-report rows, with a
//! rayon-parallel sweep driver for running many (tree, embedding) pairs
//! and a fault-injection variant that reports degraded delivery.

use crate::engine::{BatchOutcome, BatchStats, Engine};
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultState};
use crate::workload;
use rayon::prelude::*;
use xtree_host::Host;
use xtree_telemetry::{AtomicCounters, NopSink, Sink};
use xtree_trees::BinaryTree;

/// Cycle summary of one simulated program on one embedding.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Workload name (`broadcast`, `reduce`, `exchange`, `dnc`).
    pub workload: &'static str,
    /// Total cycles across all rounds.
    pub cycles: u32,
    /// Total cycles if every round finished in its longest-route time
    /// (zero congestion): the dilation-only lower bound.
    pub ideal_cycles: u32,
    /// Worst per-round slowdown `cycles / ideal` observed.
    pub worst_round_slowdown: f64,
    /// Maximum traffic over a single directed link in any round.
    pub max_link_traffic: u32,
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

/// Edge congestion of an embedding on an arbitrary host: route every guest
/// edge along the network's deterministic shortest path and count crossings
/// per directed link, returning the maximum. Works for any [`Host`]
/// (X-tree, hypercube, universal graph, mesh, …), complementing the
/// X-tree-specific `xtree_core::metrics::edge_congestion`.
///
/// # Errors
/// [`SimError::RouterInvariant`] if the network's router proposes a
/// non-neighbour — a routing bug, reported instead of panicking.
pub fn congestion<H: Host, M: workload::HostMap>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
) -> Result<u32, SimError> {
    // Flat per-directed-link counters: links are dense indices (see
    // `Csr::directed_edge_index`), so no hashing in the walk.
    let mut usage = vec![0u32; net.directed_edge_count()];
    for (u, v) in tree.edges() {
        let (mut at, dst) = (emb.host_of(u), emb.host_of(v));
        while at != dst {
            let next = net.next_hop(at, dst);
            let e = net
                .directed_edge_index(at, next)
                .ok_or(SimError::RouterInvariant { at, to: next })?;
            usage[e as usize] += 1;
            at = next;
        }
    }
    Ok(usage.into_iter().max().unwrap_or(0))
}

/// Traffic-weighted edge congestion: route every guest edge along the
/// network's deterministic shortest path, accumulating that edge's
/// communication *demand* on each directed host link it crosses, and
/// return the hottest link's total. With all-ones demand this equals
/// [`congestion`] — the pinned contract that keeps the two scores
/// comparable. Demand is indexed by the child endpoint of each guest
/// edge (`demand[v]` weights the edge `parent(v) → v`; the root's slot
/// is ignored), the indexing `xtree_scenario` traffic models produce.
///
/// # Panics
/// If `demand.len() != tree.len()` — a construction bug in the caller,
/// not a data condition.
///
/// # Errors
/// [`SimError::RouterInvariant`] if the network's router proposes a
/// non-neighbour — a routing bug, reported instead of panicking.
pub fn weighted_congestion<H: Host, M: workload::HostMap>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
    demand: &[u64],
) -> Result<u64, SimError> {
    assert_eq!(
        demand.len(),
        tree.len(),
        "demand must have one weight per guest node (edge = node → parent)"
    );
    let mut usage = vec![0u64; net.directed_edge_count()];
    for (u, v) in tree.edges() {
        let w = demand[v.index()];
        let (mut at, dst) = (emb.host_of(u), emb.host_of(v));
        while at != dst {
            let next = net.next_hop(at, dst);
            let e = net
                .directed_edge_index(at, next)
                .ok_or(SimError::RouterInvariant { at, to: next })?;
            usage[e as usize] += w;
            at = next;
        }
    }
    Ok(usage.into_iter().max().unwrap_or(0))
}

/// Maximum number of guest nodes mapped to one host processor — the
/// paper's *load factor*, "the computation work which has to be done by a
/// single processor of the X-tree network".
pub fn compute_load<H: Host, M: workload::HostMap>(net: &H, tree: &BinaryTree, emb: &M) -> u32 {
    let mut load = vec![0u32; net.node_count()];
    for v in tree.nodes() {
        load[emb.host_of(v) as usize] += 1;
    }
    load.into_iter().max().unwrap_or(0)
}

/// One full *simulation step* of the guest machine: every guest node does
/// one unit of work (the busiest processor serialises its `load` nodes)
/// and every guest edge carries one message in each direction. Real-time
/// simulation with constant slowdown — the paper's headline property —
/// means this number is bounded by a constant independent of `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepReport {
    /// Serialised computation: the load factor.
    pub compute_cycles: u32,
    /// Communication: cycles for the full neighbour exchange.
    pub exchange_cycles: u32,
}

impl StepReport {
    /// Total cycles to simulate one synchronous guest step.
    pub fn total(&self) -> u32 {
        self.compute_cycles + self.exchange_cycles
    }
}

/// Measures one guest step on `net`.
///
/// # Errors
/// See [`crate::engine::run_batch`].
pub fn simulate_step<H: Host, M: workload::HostMap>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
) -> Result<StepReport, SimError> {
    let batch = crate::engine::run_batch(net, &workload::exchange_round(tree, emb))?;
    Ok(StepReport {
        compute_cycles: compute_load(net, tree, emb),
        exchange_cycles: batch.cycles,
    })
}

/// The four canonical workloads, each as a round sequence.
fn workload_rounds<M: workload::HostMap>(
    tree: &BinaryTree,
    emb: &M,
) -> [(&'static str, Vec<Vec<crate::engine::Message>>); 4] {
    std::array::from_fn(|i| (workload::WORKLOADS[i], workload::rounds_for(tree, emb, i)))
}

/// Runs the canonical tree workloads of one embedding.
///
/// # Errors
/// See [`crate::engine::run_batch`].
pub fn simulate_all<H: Host, M: workload::HostMap + Sync>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
) -> Result<Vec<SimReport>, SimError> {
    simulate_all_with(net, tree, emb, &mut NopSink)
}

/// [`simulate_all`] with telemetry: every batch of every workload reports
/// its events to `sink` (workloads run in their fixed order on one shared
/// engine, so the event stream is deterministic).
///
/// # Errors
/// See [`crate::engine::run_batch`].
pub fn simulate_all_with<H: Host, M: workload::HostMap + Sync, S: Sink>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
    sink: &mut S,
) -> Result<Vec<SimReport>, SimError> {
    let mut engine = Engine::new();
    workload_rounds(tree, emb)
        .iter()
        .map(|(name, rounds)| {
            let stats = rounds
                .iter()
                .map(|r| engine.run_batch_with(net, r, sink))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(summarise(name, &stats))
        })
        .collect()
}

/// Runs one canonical workload (an index into
/// [`workload::WORKLOADS`]) on its own engine, reporting to `sink`.
/// Produces the same report as the matching entry of
/// [`simulate_all_with`] — the engine is pure scratch state, so sharing
/// one across workloads or not cannot change results. The serving layer
/// uses this to run exactly the workload a request asked for.
///
/// # Panics
/// If `idx` is not a valid workload index (`0..4`).
///
/// # Errors
/// See [`crate::engine::run_batch`].
pub fn simulate_one_with<H: Host, M: workload::HostMap + Sync, S: Sink>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
    idx: usize,
    sink: &mut S,
) -> Result<SimReport, SimError> {
    let mut engine = Engine::new();
    let stats = workload::rounds_for(tree, emb, idx)
        .iter()
        .map(|r| engine.run_batch_with(net, r, sink))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(summarise(workload::WORKLOADS[idx], &stats))
}

/// Cycle-and-delivery summary of one workload run under fault injection.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSimReport {
    /// Workload name (`broadcast`, `reduce`, `exchange`, `dnc`).
    pub workload: &'static str,
    /// Total cycles across all rounds actually run (idle repair-waiting
    /// included).
    pub cycles: u32,
    /// Dilation-only lower bound on the *undamaged* host, so slowdown
    /// compares degraded against healthy.
    pub ideal_cycles: u32,
    /// Messages injected across the rounds run.
    pub messages: usize,
    /// Messages that arrived.
    pub delivered: usize,
    /// Messages proven permanently unreachable.
    pub stranded: usize,
    /// True when the progress watchdog cut a round short.
    pub stalled: bool,
}

impl FaultSimReport {
    /// Fraction of injected messages that arrived (1.0 for an empty run).
    pub fn delivery_rate(&self) -> f64 {
        if self.messages == 0 {
            1.0
        } else {
            self.delivered as f64 / self.messages as f64
        }
    }
}

/// Runs the canonical tree workloads under one fault plan, restarting the
/// fault clock for every workload so each sees the same damage schedule.
///
/// Rounds after a watchdog stall are skipped (their report reflects only
/// the rounds run); stranded messages in one round do not stop later
/// rounds, matching a program that times out on lost peers and moves on.
///
/// # Errors
/// [`SimError::InvalidFault`] when `plan` does not fit the host, plus the
/// engine errors of [`Engine::run_batch_faulted`].
pub fn simulate_all_faulted<H: Host, M: workload::HostMap + Sync>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
    plan: &FaultPlan,
) -> Result<Vec<FaultSimReport>, SimError> {
    simulate_all_faulted_with(net, tree, emb, plan, &mut NopSink)
}

/// [`simulate_all_faulted`] with telemetry: the sink additionally sees
/// fault applications, reroute sweeps, and watchdog clock jumps.
///
/// # Errors
/// See [`simulate_all_faulted`].
pub fn simulate_all_faulted_with<H: Host, M: workload::HostMap + Sync, S: Sink>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
    plan: &FaultPlan,
    sink: &mut S,
) -> Result<Vec<FaultSimReport>, SimError> {
    let mut engine = Engine::new();
    workload_rounds(tree, emb)
        .iter()
        .map(|(name, rounds)| {
            let mut faults = FaultState::new(net.csr(), plan.clone())?;
            let mut rep = FaultSimReport {
                workload: name,
                cycles: 0,
                ideal_cycles: 0,
                messages: 0,
                delivered: 0,
                stranded: 0,
                stalled: false,
            };
            for round in rounds {
                let out = engine.run_batch_faulted_with(net, round, &mut faults, sink)?;
                let s = out.stats();
                rep.cycles += s.cycles;
                rep.ideal_cycles += s.ideal_cycles;
                rep.messages += s.messages;
                rep.delivered += s.messages - out.undelivered().len();
                rep.stranded += out.stranded().len();
                if let BatchOutcome::Stalled { .. } = out {
                    rep.stalled = true;
                    break;
                }
            }
            Ok(rep)
        })
        .collect()
}

/// Rayon-parallel sweep: simulates many (tree, embedding) pairs on one
/// shared host network. The network's routing tables are read-only, so the
/// sweep parallelises embarrassingly.
///
/// # Errors
/// The first engine error from any case (see [`crate::engine::run_batch`]).
pub fn sweep<H: Host + Sync, M: workload::HostMap + Sync>(
    net: &H,
    cases: &[(BinaryTree, M)],
) -> Result<Vec<Vec<SimReport>>, SimError> {
    let per_case: Vec<Result<Vec<SimReport>, SimError>> = cases
        .par_iter()
        .map(|(tree, emb)| simulate_all(net, tree, emb))
        .collect();
    per_case.into_iter().collect()
}

/// [`sweep`] with lock-free counting: every worker thread records into
/// the shared [`AtomicCounters`] (relaxed atomic adds, no locks), so a
/// parallel sweep still produces an exact total event tally.
///
/// # Errors
/// See [`sweep`].
pub fn sweep_counted<H: Host + Sync, M: workload::HostMap + Sync>(
    net: &H,
    cases: &[(BinaryTree, M)],
    counters: &AtomicCounters,
) -> Result<Vec<Vec<SimReport>>, SimError> {
    let per_case: Vec<Result<Vec<SimReport>, SimError>> = cases
        .par_iter()
        .map(|(tree, emb)| {
            let mut sink = counters;
            simulate_all_with(net, tree, emb, &mut sink)
        })
        .collect();
    per_case.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_core::metrics::heap_order_embedding;
    use xtree_host::TableHost;
    use xtree_topology::{Graph, XTree};
    use xtree_trees::generate;

    #[test]
    fn complete_tree_broadcast_is_congestion_light() {
        // Heap-order embedding of the complete tree: every message is one
        // hop on its own link, so cycles == rounds == ideal.
        let x = XTree::new(4);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::left_complete(31);
        let e = heap_order_embedding(&t, 4);
        let reports = simulate_all(&net, &t, &e).unwrap();
        let bc = &reports[0];
        assert_eq!(bc.workload, "broadcast");
        assert_eq!(bc.cycles, bc.ideal_cycles);
        assert_eq!(bc.max_link_traffic, 1);
    }

    #[test]
    fn congestion_on_identity_is_one() {
        let x = XTree::new(3);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        assert_eq!(congestion(&net, &t, &e).unwrap(), 1);
    }

    #[test]
    fn congestion_detects_hot_links() {
        // A path guest embedded in heap order funnels many edges through
        // the upper links.
        let x = XTree::new(3);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::path(15);
        let e = heap_order_embedding(&t, 3);
        assert!(congestion(&net, &t, &e).unwrap() >= 2);
    }

    #[test]
    fn all_ones_demand_equals_unweighted_congestion() {
        // The pinned contract: traffic weighting with unit demand is the
        // plain congestion score, for every family and both host sizes.
        for r in [3u8, 4] {
            let x = XTree::new(r);
            let net = TableHost::new(x.graph().clone()).unwrap();
            for family in xtree_trees::TreeFamily::ALL {
                let t = family.generate_seeded(generate::theorem1_size(r) / 16, 77);
                let e = heap_order_embedding(&t, r);
                let ones = vec![1u64; t.len()];
                assert_eq!(
                    weighted_congestion(&net, &t, &e, &ones).unwrap(),
                    u64::from(congestion(&net, &t, &e).unwrap()),
                    "family {family:?} r {r}"
                );
            }
        }
    }

    #[test]
    fn weighted_congestion_scales_with_demand() {
        let x = XTree::new(3);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::path(15);
        let e = heap_order_embedding(&t, 3);
        let ones = vec![1u64; t.len()];
        let tens = vec![10u64; t.len()];
        assert_eq!(
            weighted_congestion(&net, &t, &e, &tens).unwrap(),
            10 * weighted_congestion(&net, &t, &e, &ones).unwrap()
        );
    }

    #[test]
    fn hot_edge_dominates_weighted_score() {
        // Put all the demand on one deep edge: the weighted score must
        // track that edge's path, not the structurally hottest link.
        let x = XTree::new(3);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::path(15);
        let e = heap_order_embedding(&t, 3);
        let mut demand = vec![1u64; t.len()];
        demand[14] = 1000;
        let got = weighted_congestion(&net, &t, &e, &demand).unwrap();
        assert!(got >= 1000, "hot edge must show: {got}");
    }

    #[test]
    fn compute_load_matches_embedding_load() {
        let x = XTree::new(2);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::path(7);
        let e = heap_order_embedding(&t, 2);
        assert_eq!(compute_load(&net, &t, &e), 1);
    }

    #[test]
    fn step_report_totals() {
        let x = XTree::new(3);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let step = simulate_step(&net, &t, &e).unwrap();
        assert_eq!(step.compute_cycles, 1);
        assert!(step.exchange_cycles >= 1);
        assert_eq!(step.total(), step.compute_cycles + step.exchange_cycles);
    }

    #[test]
    fn sweep_matches_sequential() {
        let x = XTree::new(3);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let cases: Vec<_> = (0..4)
            .map(|i| {
                let t = generate::caterpillar(10 + i);
                let e = heap_order_embedding(&t, 3);
                (t, e)
            })
            .collect();
        let par = sweep(&net, &cases).unwrap();
        for (i, (t, e)) in cases.iter().enumerate() {
            assert_eq!(par[i], simulate_all(&net, t, e).unwrap());
        }
    }

    #[test]
    fn faulted_run_with_empty_plan_matches_fault_free_reports() {
        let x = XTree::new(4);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::left_complete(31);
        let e = heap_order_embedding(&t, 4);
        let plain = simulate_all(&net, &t, &e).unwrap();
        let faulted = simulate_all_faulted(&net, &t, &e, &FaultPlan::new()).unwrap();
        for (p, f) in plain.iter().zip(&faulted) {
            assert_eq!(p.workload, f.workload);
            assert_eq!(p.cycles, f.cycles, "{}", p.workload);
            assert_eq!(p.ideal_cycles, f.ideal_cycles);
            assert_eq!(f.delivered, f.messages);
            assert_eq!(f.stranded, 0);
            assert!(!f.stalled);
            assert_eq!(f.delivery_rate(), 1.0);
        }
    }

    #[test]
    fn faulted_run_on_connected_survivor_delivers_everything_slower() {
        // Kill one leaf-level link of X(4): the X-tree's sibling links keep
        // the survivor graph connected, so everything still arrives — some
        // of it via detours.
        let x = XTree::new(4);
        let net = TableHost::new(x.graph().clone()).unwrap();
        let t = generate::left_complete(31);
        let e = heap_order_embedding(&t, 4);
        let n = x.graph().node_count() as u32;
        let plan = FaultPlan::new().link_down(0, (n - 2) / 2, n - 2);
        let reports = simulate_all_faulted(&net, &t, &e, &plan).unwrap();
        for f in &reports {
            assert_eq!(f.delivered, f.messages, "{}", f.workload);
            assert_eq!(f.stranded, 0);
            assert!(!f.stalled);
        }
    }
}
