//! Self-healing delivery: the retry supervisor around the faulted engine.
//!
//! [`Engine::run_batch_faulted`] is honest about damage — it returns
//! `Partial` or `Stalled` outcomes with the undelivered message ids — but
//! it never *does* anything about them. This module closes the loop:
//! [`recover_batch_with`] wraps the engine in a [`RecoveryPolicy`]-driven
//! supervisor that, after a degraded batch,
//!
//! 1. **repairs the embedding** (when the host map supports it): guests
//!    hosted on dead vertices are migrated to surviving ones via
//!    `xtree_core::repair`, gated by the policy's [`RepairConfig`];
//! 2. **waits out a backoff** in *simulated* cycles — the fault clock
//!    advances, so scheduled link repairs come due exactly as they would
//!    for a program that sleeps and retries;
//! 3. **re-sources the stranded messages** through the repaired embedding
//!    (endpoints on a dead vertex follow their migrated guests) and
//!    re-dispatches them as a fresh batch,
//!
//! until everything is delivered, the retry budget runs out, or the
//! remaining destinations are provably unreachable (no future event can
//! reconnect them). Every decision is deterministic — retries happen at
//! policy-defined clocks, migrations follow the repair module's
//! deterministic BFS — so recovered runs trace and replay byte-for-byte
//! like everything else in this workspace.
//!
//! The supervisor only ever *adds* work after a degraded outcome: a batch
//! that delivers on the first attempt takes exactly one
//! `run_batch_faulted_with` call and nothing else, which is what keeps
//! recovery free when it has nothing to do (`faultbench` asserts this).

use crate::engine::{BatchStats, Engine, Message};
use crate::error::SimError;
use crate::fault::FaultState;
use crate::workload::HostMap;
use xtree_core::repair::{repair_in_place, RepairConfig, RepairError, RepairReport};
use xtree_core::{QEmbedding, XEmbedding};
use xtree_host::Host;
use xtree_telemetry::{Event, Sink};
use xtree_topology::Csr;
use xtree_trees::BinaryTree;

/// How long the supervisor waits (in simulated cycles) before retry `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backoff {
    /// The same wait before every retry.
    Fixed(u32),
    /// `base << k` before retry `k`, saturating at `cap`.
    Exponential {
        /// Wait before the first retry.
        base: u32,
        /// Upper bound on any single wait.
        cap: u32,
    },
}

impl Backoff {
    /// The wait before retry `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> u32 {
        match *self {
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, cap } => {
                let shifted = u64::from(base) << attempt.min(32);
                shifted.min(u64::from(cap)) as u32
            }
        }
    }
}

/// What the supervisor is allowed to do about a degraded batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries after the initial dispatch (0 = measure only, never retry).
    pub max_retries: u32,
    /// Simulated-cycle wait schedule between attempts.
    pub backoff: Backoff,
    /// Migrate guests off dead host vertices between attempts.
    pub repair_embedding: bool,
    /// Load cap and search radius for those migrations.
    pub repair: RepairConfig,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 8,
            backoff: Backoff::Exponential { base: 8, cap: 1024 },
            repair_embedding: true,
            repair: RepairConfig::default(),
        }
    }
}

impl RecoveryPolicy {
    /// A policy that never retries and never repairs: the supervisor
    /// degenerates to a single `run_batch_faulted` call.
    pub fn none() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            backoff: Backoff::Fixed(0),
            repair_embedding: false,
            repair: RepairConfig::default(),
        }
    }
}

/// A host map the supervisor can heal and audit. Every [`HostMap`] can opt
/// out (the defaults do nothing); [`XEmbedding`] plugs in the real
/// `xtree_core::repair` machinery.
pub trait RepairableHost: HostMap {
    /// Migrates guests off dead vertices, honouring the live-link mask in
    /// `faults`. Returns `Ok(None)` when nothing needed moving or this
    /// host map does not support repair.
    ///
    /// # Errors
    /// [`RepairError`] when some guest cannot be rehomed; the map must be
    /// left unchanged then.
    fn try_repair(
        &mut self,
        tree: &BinaryTree,
        graph: &Csr,
        faults: &FaultState,
        cfg: &RepairConfig,
    ) -> Result<Option<RepairReport>, RepairError> {
        let _ = (tree, graph, faults, cfg);
        Ok(None)
    }

    /// True when no guest is hosted on a currently-dead vertex — the
    /// invariant a successful repair establishes.
    fn validate_against(&self, faults: &FaultState) -> bool {
        let _ = faults;
        true
    }
}

impl RepairableHost for XEmbedding {
    fn try_repair(
        &mut self,
        tree: &BinaryTree,
        graph: &Csr,
        faults: &FaultState,
        cfg: &RepairConfig,
    ) -> Result<Option<RepairReport>, RepairError> {
        let dead: Vec<u32> = (0..self.host_len() as u32)
            .filter(|&v| !faults.node_alive(v))
            .collect();
        if dead.is_empty() {
            return Ok(None);
        }
        repair_in_place(tree, self, &dead, cfg, |u, v| {
            faults.link_alive(graph, u, v)
        })
    }

    fn validate_against(&self, faults: &FaultState) -> bool {
        xtree_core::repair::all_alive(self, |v| faults.node_alive(v))
    }
}

/// Hypercube node repairs are not modelled (the fault planner only kills
/// X-tree-shaped hosts today), so the defaults — no repair, always valid —
/// apply.
impl RepairableHost for QEmbedding {}

/// Engine statistics of one supervisor attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptStats {
    /// 0 for the initial dispatch, `k` for retry `k`.
    pub attempt: u32,
    /// Simulated cycles waited *before* this attempt (0 for attempt 0).
    pub backoff: u32,
    /// Messages dispatched in this attempt's batch.
    pub dispatched: usize,
    /// How many of them arrived.
    pub delivered: usize,
    /// Raw engine stats of the attempt.
    pub stats: BatchStats,
    /// True when the attempt ended in a watchdog stall.
    pub stalled: bool,
}

/// Terminal state of a supervised batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEnd {
    /// Every message arrived (possibly after retries).
    Delivered,
    /// Every survivor-reachable message arrived; the rest can never be
    /// delivered (ids index the original batch).
    Unreachable {
        /// Messages whose endpoints are provably cut off for good.
        stranded: Vec<u32>,
    },
    /// The retry budget ran out with messages still in flight.
    Exhausted {
        /// Messages still undelivered but not proven unreachable.
        undelivered: Vec<u32>,
        /// Messages proven permanently unreachable along the way.
        stranded: Vec<u32>,
    },
}

/// Everything a supervised batch did: terminal state, aggregate cost, the
/// per-attempt trail, and what the embedding repairs changed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// How the batch ended.
    pub end: RecoveryEnd,
    /// Aggregate statistics: cycles include the backoff waits, messages
    /// count the *original* batch (re-dispatches are not double-counted).
    pub stats: BatchStats,
    /// One entry per dispatch, in order.
    pub attempts: Vec<AttemptStats>,
    /// Cumulative embedding-repair report, when any repair ran.
    pub repair: Option<RepairReport>,
    /// Set when a repair pass failed (the supervisor keeps retrying with
    /// the unrepaired embedding; messages to dead hosts then strand).
    pub repair_error: Option<RepairError>,
}

impl RecoveryOutcome {
    /// True when every message arrived.
    pub fn delivered_all(&self) -> bool {
        matches!(self.end, RecoveryEnd::Delivered)
    }

    /// Retries after the initial dispatch.
    pub fn retries(&self) -> u32 {
        self.attempts.len().saturating_sub(1) as u32
    }

    /// Total messages re-dispatched across all retries.
    pub fn requeued(&self) -> usize {
        self.attempts.iter().skip(1).map(|a| a.dispatched).sum()
    }

    /// Messages permanently stranded, whatever the terminal state.
    pub fn stranded(&self) -> &[u32] {
        match &self.end {
            RecoveryEnd::Delivered => &[],
            RecoveryEnd::Unreachable { stranded } => stranded,
            RecoveryEnd::Exhausted { stranded, .. } => stranded,
        }
    }
}

/// [`recover_batch_with`] without telemetry.
///
/// # Errors
/// See [`recover_batch_with`].
pub fn recover_batch<H: Host, M: RepairableHost>(
    engine: &mut Engine,
    net: &H,
    tree: &BinaryTree,
    emb: &mut M,
    messages: &[Message],
    faults: &mut FaultState,
    policy: &RecoveryPolicy,
) -> Result<RecoveryOutcome, SimError> {
    recover_batch_with(
        engine,
        net,
        tree,
        emb,
        messages,
        faults,
        policy,
        &mut xtree_telemetry::NopSink,
    )
}

/// Delivers `messages` under `faults`, retrying degraded outcomes per
/// `policy`: repair the embedding, wait out the backoff on the fault
/// clock, re-source the leftovers through the repaired map, re-dispatch.
///
/// The sink sees the usual engine events of every attempt plus the
/// supervisor's own: [`Event::EmbeddingRepaired`] after a migration,
/// [`Event::RecoveryAttempt`] before each retry, and one
/// [`Event::MessageRequeued`] per re-dispatched message (ids index the
/// original batch).
///
/// # Errors
/// The engine errors of [`Engine::run_batch_faulted`]; a *repair* failure
/// is not an error (it lands in [`RecoveryOutcome::repair_error`] and the
/// supervisor soldiers on without the migration).
#[allow(clippy::too_many_arguments)]
pub fn recover_batch_with<H: Host, M: RepairableHost, S: Sink>(
    engine: &mut Engine,
    net: &H,
    tree: &BinaryTree,
    emb: &mut M,
    messages: &[Message],
    faults: &mut FaultState,
    policy: &RecoveryPolicy,
    sink: &mut S,
) -> Result<RecoveryOutcome, SimError> {
    let graph = net.csr();
    let mut attempts = Vec::new();
    let mut repair: Option<RepairReport> = None;
    let mut repair_error: Option<RepairError> = None;
    let mut stranded: Vec<u32> = Vec::new();
    // The current wave: (original batch id, message as currently sourced).
    let mut wave: Vec<(u32, Message)> = messages
        .iter()
        .enumerate()
        .map(|(i, &m)| (i as u32, m))
        .collect();
    let mut agg: Option<BatchStats> = None;

    let mut attempt = 0u32;
    loop {
        let batch: Vec<Message> = wave.iter().map(|&(_, m)| m).collect();
        let out = engine.run_batch_faulted_with(net, &batch, faults, sink)?;
        let s = out.stats().clone();
        let undelivered = out.undelivered();
        attempts.push(AttemptStats {
            attempt,
            backoff: if attempt == 0 {
                0
            } else {
                policy.backoff.delay(attempt - 1)
            },
            dispatched: batch.len(),
            delivered: batch.len() - undelivered.len(),
            stats: s.clone(),
            stalled: out.is_stalled(),
        });
        // Fold this attempt into the aggregate (messages stay the original
        // batch size; re-dispatches are continuations, not new traffic).
        match &mut agg {
            None => agg = Some(s),
            Some(a) => {
                a.cycles += s.cycles;
                a.max_link_traffic = a.max_link_traffic.max(s.max_link_traffic);
                a.total_hops += s.total_hops;
            }
        }

        // Keep only what did not arrive, by original id.
        wave = undelivered.iter().map(|&i| wave[i as usize]).collect();
        if wave.is_empty() {
            break;
        }
        if attempt >= policy.max_retries {
            return Ok(finish(
                RecoveryEnd::Exhausted {
                    undelivered: wave.iter().map(|&(id, _)| id).collect(),
                    stranded,
                },
                agg,
                messages.len(),
                attempts,
                repair,
                repair_error,
            ));
        }

        // Between attempts: repair, wait, re-source, re-dispatch.
        if policy.repair_embedding && repair_error.is_none() {
            match emb.try_repair(tree, graph, faults, &policy.repair) {
                Ok(Some(r)) => {
                    if S::ACTIVE {
                        sink.record(Event::EmbeddingRepaired {
                            migrated: r.migrated as u32,
                            max_load: r.max_load,
                            dilation: r.dilation,
                        });
                    }
                    // Endpoints still parked on a dead vertex follow the
                    // first guest migrated off it (deterministic: the
                    // relocations are in guest-id order).
                    for (_, m) in wave.iter_mut() {
                        for rl in &r.relocations {
                            if m.src == rl.from {
                                m.src = rl.to;
                            }
                            if m.dst == rl.from {
                                m.dst = rl.to;
                            }
                        }
                    }
                    repair = Some(match repair.take() {
                        None => r,
                        Some(mut prev) => {
                            prev.migrated += r.migrated;
                            prev.max_load = r.max_load;
                            prev.dilation = r.dilation;
                            prev.relocations.extend(r.relocations);
                            prev
                        }
                    });
                }
                Ok(None) => {}
                Err(e) => repair_error = Some(e),
            }
        }

        let delay = policy.backoff.delay(attempt);
        faults.advance_clock(delay);
        faults.apply_due(graph);
        // With no future event left, unreachability is now permanent: what
        // the survivor graph cannot route today it never will.
        if faults.pending().is_none() {
            let mut still = Vec::with_capacity(wave.len());
            for (id, m) in wave.drain(..) {
                if faults.reachable(graph, m.src, m.dst) {
                    still.push((id, m));
                } else {
                    stranded.push(id);
                }
            }
            wave = still;
            if wave.is_empty() {
                return Ok(finish(
                    RecoveryEnd::Unreachable { stranded },
                    agg,
                    messages.len(),
                    attempts,
                    repair,
                    repair_error,
                ));
            }
        }
        attempt += 1;
        if S::ACTIVE {
            sink.record(Event::RecoveryAttempt {
                attempt,
                backoff: delay,
                requeued: wave.len() as u32,
            });
            for &(id, m) in &wave {
                sink.record(Event::MessageRequeued {
                    attempt,
                    msg: id,
                    src: m.src,
                    dst: m.dst,
                });
            }
        }
        if let Some(a) = &mut agg {
            a.cycles = a.cycles.saturating_add(delay);
        }
    }

    let end = if stranded.is_empty() {
        RecoveryEnd::Delivered
    } else {
        RecoveryEnd::Unreachable { stranded }
    };
    Ok(finish(
        end,
        agg,
        messages.len(),
        attempts,
        repair,
        repair_error,
    ))
}

fn finish(
    end: RecoveryEnd,
    agg: Option<BatchStats>,
    messages: usize,
    attempts: Vec<AttemptStats>,
    repair: Option<RepairReport>,
    repair_error: Option<RepairError>,
) -> RecoveryOutcome {
    let mut stats = agg.unwrap_or(BatchStats {
        cycles: 0,
        ideal_cycles: 0,
        messages: 0,
        max_link_traffic: 0,
        total_hops: 0,
    });
    stats.messages = messages;
    RecoveryOutcome {
        end,
        stats,
        attempts,
        repair,
        repair_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use xtree_core::metrics::heap_order_embedding;
    use xtree_host::XTreeHost;
    use xtree_topology::Graph;
    use xtree_trees::generate;

    fn setup(height: u8) -> (XTreeHost, BinaryTree, XEmbedding) {
        let net = XTreeHost::new(height);
        let n = net.node_count();
        let tree = generate::left_complete(n);
        let emb = heap_order_embedding(&tree, height);
        (net, tree, emb)
    }

    #[test]
    fn backoff_schedules() {
        assert_eq!(Backoff::Fixed(7).delay(0), 7);
        assert_eq!(Backoff::Fixed(7).delay(5), 7);
        let e = Backoff::Exponential { base: 8, cap: 100 };
        assert_eq!(e.delay(0), 8);
        assert_eq!(e.delay(1), 16);
        assert_eq!(e.delay(3), 64);
        assert_eq!(e.delay(4), 100, "capped");
        assert_eq!(e.delay(63), 100, "shift saturates instead of wrapping");
    }

    #[test]
    fn clean_batch_is_a_single_attempt() {
        let (net, tree, mut emb) = setup(3);
        let msgs = crate::workload::exchange_round(&tree, &emb);
        let mut faults = FaultState::new(net.csr(), FaultPlan::new()).unwrap();
        let out = recover_batch(
            &mut Engine::new(),
            &net,
            &tree,
            &mut emb,
            &msgs,
            &mut faults,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert!(out.delivered_all());
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.requeued(), 0);
        assert!(out.repair.is_none());
        // Identical to the unsupervised run.
        let mut faults2 = FaultState::new(net.csr(), FaultPlan::new()).unwrap();
        let direct = Engine::new()
            .run_batch_faulted(&net, &msgs, &mut faults2)
            .unwrap();
        assert_eq!(&out.stats, direct.stats());
    }

    #[test]
    fn dead_host_vertex_is_repaired_and_delivery_completes() {
        // Kill a leaf vertex that hosts a guest: without repair its
        // messages strand; with the default policy the guest migrates and
        // everything arrives.
        let (net, tree, emb) = setup(4);
        let victim = emb.host_len() as u32 - 1;
        let plan = FaultPlan::new().node_down(0, victim);

        let mut faults = FaultState::new(net.csr(), plan.clone()).unwrap();
        let msgs = crate::workload::exchange_round(&tree, &emb);
        let bare = Engine::new()
            .run_batch_faulted(&net, &msgs, &mut faults)
            .unwrap();
        assert!(!bare.delivered_all(), "the failure must actually bite");

        let mut healed = emb.clone();
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let out = recover_batch(
            &mut Engine::new(),
            &net,
            &tree,
            &mut healed,
            &msgs,
            &mut faults,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert!(out.delivered_all(), "{:?}", out.end);
        assert!(out.retries() >= 1);
        assert!(out.requeued() > 0);
        let rep = out.repair.expect("a repair must have run");
        assert!(rep.migrated >= 1);
        assert!(healed.validate_against(&faults));
        assert!(healed.max_load() <= RepairConfig::default().load_cap);
        assert!(
            !emb.validate_against(&faults),
            "original still maps the dead vertex"
        );
    }

    #[test]
    fn zero_retry_policy_matches_unsupervised_run() {
        let (net, tree, emb) = setup(4);
        let victim = emb.host_len() as u32 - 1;
        let plan = FaultPlan::new().node_down(0, victim);
        let msgs = crate::workload::exchange_round(&tree, &emb);

        let mut faults = FaultState::new(net.csr(), plan.clone()).unwrap();
        let direct = Engine::new()
            .run_batch_faulted(&net, &msgs, &mut faults)
            .unwrap();
        let mut emb2 = emb.clone();
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let out = recover_batch(
            &mut Engine::new(),
            &net,
            &tree,
            &mut emb2,
            &msgs,
            &mut faults,
            &RecoveryPolicy::none(),
        )
        .unwrap();
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(&out.stats, direct.stats());
        assert!(matches!(out.end, RecoveryEnd::Exhausted { .. }));
    }

    #[test]
    fn permanently_cut_destinations_are_reported_unreachable() {
        // Repair disabled and a dead vertex with guests: once the plan has
        // no future events, the supervisor proves the leftovers stranded
        // instead of burning the whole retry budget.
        let (net, tree, mut emb) = setup(4);
        let victim = emb.host_len() as u32 - 1;
        let plan = FaultPlan::new().node_down(0, victim);
        let msgs = crate::workload::exchange_round(&tree, &emb);
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let policy = RecoveryPolicy {
            repair_embedding: false,
            ..RecoveryPolicy::default()
        };
        let out = recover_batch(
            &mut Engine::new(),
            &net,
            &tree,
            &mut emb,
            &msgs,
            &mut faults,
            &policy,
        )
        .unwrap();
        assert!(matches!(out.end, RecoveryEnd::Unreachable { .. }));
        assert!(!out.stranded().is_empty());
        assert!(
            out.attempts.len() <= 2,
            "unreachability should be proven, not retried away: {:?}",
            out.attempts.len()
        );
    }

    #[test]
    fn link_only_faults_recover_without_repairing_the_embedding() {
        // Links that come back up: retries alone (no migration) suffice.
        let (net, tree, mut emb) = setup(4);
        let n = net.csr().node_count() as u32;
        let plan =
            FaultPlan::new()
                .link_down(0, (n - 2) / 2, n - 2)
                .link_up(600, (n - 2) / 2, n - 2);
        let msgs = crate::workload::exchange_round(&tree, &emb);
        let mut faults = FaultState::new(net.csr(), plan)
            .unwrap()
            .with_max_idle_wait(4);
        let out = recover_batch(
            &mut Engine::new(),
            &net,
            &tree,
            &mut emb,
            &msgs,
            &mut faults,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert!(out.delivered_all(), "{:?}", out.end);
        assert!(out.repair.is_none(), "no vertex died, nothing to migrate");
    }
}
