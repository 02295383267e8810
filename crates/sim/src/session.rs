//! Resumable experiment sessions: the canonical four-workload run under a
//! fault plan, as an explicit state machine.
//!
//! A [`Session`] is the one driver of the four workloads (broadcast /
//! reduce / exchange / divide-and-conquer) under a fault plan, supervised
//! or not. It runs them as *rounds you can stop between*: it owns the
//! engine, the embedding (recovery repairs mutate it), the per-workload
//! [`FaultState`], and the partially-built reports, and it can
//! [`snapshot`](Session::snapshot) all of that into a compact byte blob at
//! any round boundary. [`Session::resume`] rebuilds the exact state, and
//! because every moving part is deterministic — engine, fault replay,
//! repair BFS, backoff clocks — a resumed run emits the *byte-identical*
//! telemetry trace the uninterrupted run would have (the checkpoint tests
//! diff the bytes).
//!
//! Each workload's rounds are built once, from the **current** embedding,
//! when the workload starts, and built again only after a recovery pass
//! has migrated a guest, so every later round's traffic follows the moved
//! guests. A round is a pure function of the guest and the embedding, so a
//! snapshot only ever needs the current embedding, never the message
//! backlog.
//!
//! Without a [`RecoveryPolicy`] each round is one
//! [`Engine::run_batch_faulted_with`] call on a fault clock that restarts
//! with every workload, so each workload sees the same damage schedule.
//! Rounds after a watchdog stall are skipped; stranded messages do not
//! stop later rounds, as for a program that times out on lost peers and
//! moves on. Supervision is strictly opt-in.

use crate::engine::{BatchOutcome, Engine};
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultState};
use crate::recovery::{recover_batch_with, RecoveryEnd, RecoveryPolicy, RepairableHost};
use crate::stats::FaultSimReport;
use crate::workload::{Rounds, WORKLOADS};
use xtree_core::XEmbedding;
use xtree_host::Host;
use xtree_telemetry::varint::{decode_u64, encode_u64};
use xtree_telemetry::Sink;
use xtree_topology::XTREE_MAX_HEIGHT;
use xtree_trees::BinaryTree;

/// Cross-round recovery totals of one session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryTotals {
    /// Supervisor retries across all rounds.
    pub retries: u64,
    /// Messages re-dispatched across all retries.
    pub requeued: u64,
    /// Guests migrated off dead vertices.
    pub migrated: u64,
    /// Messages proven permanently unreachable.
    pub stranded: u64,
}

/// Whether a bounded run finished the experiment or paused mid-way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// All four workloads are done; reports are complete.
    Complete,
    /// The round budget ran out first; snapshot and resume later.
    Paused,
}

/// A resumable run of the four canonical workloads under one fault plan.
pub struct Session<'a, H: Host, M: RepairableHost> {
    net: &'a H,
    tree: &'a BinaryTree,
    emb: M,
    plan: FaultPlan,
    policy: Option<RecoveryPolicy>,
    engine: Engine,
    faults: Option<FaultState>,
    /// The rounds of workload `workload_idx`, once built.
    rounds: Option<Rounds>,
    workload_idx: usize,
    round_idx: usize,
    completed: Vec<FaultSimReport>,
    partial: FaultSimReport,
    totals: RecoveryTotals,
}

fn empty_report(idx: usize) -> FaultSimReport {
    FaultSimReport {
        workload: WORKLOADS[idx.min(WORKLOADS.len() - 1)],
        cycles: 0,
        ideal_cycles: 0,
        messages: 0,
        delivered: 0,
        stranded: 0,
        stalled: false,
    }
}

impl<'a, H: Host, M: RepairableHost> Session<'a, H, M> {
    /// A fresh session at workload 0, round 0. The embedding is owned
    /// because recovery repairs mutate it; take it back with
    /// [`Session::into_embedding`] or inspect it via
    /// [`Session::embedding`].
    pub fn new(
        net: &'a H,
        tree: &'a BinaryTree,
        emb: M,
        plan: FaultPlan,
        policy: Option<RecoveryPolicy>,
    ) -> Self {
        Session {
            net,
            tree,
            emb,
            plan,
            policy,
            engine: Engine::new(),
            faults: None,
            rounds: None,
            workload_idx: 0,
            round_idx: 0,
            completed: Vec::new(),
            partial: empty_report(0),
            totals: RecoveryTotals::default(),
        }
    }

    /// The embedding as it currently stands (repairs included).
    pub fn embedding(&self) -> &M {
        &self.emb
    }

    /// Consumes the session, returning the (possibly repaired) embedding.
    pub fn into_embedding(self) -> M {
        self.emb
    }

    /// Recovery totals so far.
    pub fn totals(&self) -> RecoveryTotals {
        self.totals
    }

    /// Reports of fully-finished workloads.
    pub fn reports(&self) -> &[FaultSimReport] {
        &self.completed
    }

    /// True when all four workloads are done.
    pub fn is_complete(&self) -> bool {
        self.workload_idx >= WORKLOADS.len()
    }

    /// Runs up to `budget` engine rounds (workload bookkeeping is free),
    /// reporting every event to `sink`.
    ///
    /// # Errors
    /// The engine errors of [`Engine::run_batch_faulted`].
    pub fn run_with<S: Sink>(
        &mut self,
        budget: usize,
        sink: &mut S,
    ) -> Result<SessionStatus, SimError> {
        let mut done = 0usize;
        while self.workload_idx < WORKLOADS.len() {
            let idx = self.workload_idx;
            let rounds = self
                .rounds
                .get_or_insert_with(|| Rounds::new(self.tree, &self.emb, Some(idx)));
            if self.partial.stalled || self.round_idx >= rounds.count(idx) {
                // Workload finished (or cut short): bank its report.
                self.completed
                    .push(std::mem::replace(&mut self.partial, empty_report(idx + 1)));
                self.workload_idx = idx + 1;
                self.round_idx = 0;
                self.faults = None;
                self.rounds = None;
                continue;
            }
            if done >= budget {
                return Ok(SessionStatus::Paused);
            }
            let batch = rounds.round(idx, self.round_idx);
            if self.faults.is_none() {
                // Each workload replays the damage schedule from cycle 0.
                self.faults = Some(FaultState::new(self.net.csr(), self.plan.clone())?);
            }
            let faults = self.faults.as_mut().expect("initialised above");
            match &self.policy {
                None => {
                    let out = self
                        .engine
                        .run_batch_faulted_with(self.net, batch, faults, sink)?;
                    let s = out.stats();
                    self.partial.cycles += s.cycles;
                    self.partial.ideal_cycles += s.ideal_cycles;
                    self.partial.messages += s.messages;
                    self.partial.delivered += s.messages - out.undelivered().len();
                    self.partial.stranded += out.stranded().len();
                    if let BatchOutcome::Stalled { .. } = out {
                        self.partial.stalled = true;
                    }
                }
                Some(policy) => {
                    let out = recover_batch_with(
                        &mut self.engine,
                        self.net,
                        self.tree,
                        &mut self.emb,
                        batch,
                        faults,
                        policy,
                        sink,
                    )?;
                    let undelivered = match &out.end {
                        RecoveryEnd::Delivered => 0,
                        RecoveryEnd::Unreachable { stranded } => stranded.len(),
                        RecoveryEnd::Exhausted {
                            undelivered,
                            stranded,
                        } => undelivered.len() + stranded.len(),
                    };
                    self.partial.cycles += out.stats.cycles;
                    self.partial.ideal_cycles += out.stats.ideal_cycles;
                    self.partial.messages += out.stats.messages;
                    self.partial.delivered += out.stats.messages - undelivered;
                    self.partial.stranded += out.stranded().len();
                    if matches!(out.end, RecoveryEnd::Exhausted { .. }) {
                        // Budget exhaustion is the supervised analogue of a
                        // stall: cut the workload short rather than feed
                        // more rounds into a wedged network.
                        self.partial.stalled = true;
                    }
                    self.totals.retries += u64::from(out.retries());
                    self.totals.requeued += out.requeued() as u64;
                    self.totals.stranded += out.stranded().len() as u64;
                    if let Some(r) = &out.repair {
                        self.totals.migrated += r.migrated as u64;
                        if r.migrated > 0 {
                            // Later rounds follow the moved guests.
                            self.rounds = None;
                        }
                    }
                }
            }
            self.round_idx += 1;
            done += 1;
        }
        Ok(SessionStatus::Complete)
    }

    /// Runs the whole experiment, returning the four workload reports.
    ///
    /// # Errors
    /// See [`Session::run_with`].
    pub fn run_to_completion_with<S: Sink>(
        mut self,
        sink: &mut S,
    ) -> Result<(Vec<FaultSimReport>, RecoveryTotals, M), SimError> {
        let status = self.run_with(usize::MAX, sink)?;
        debug_assert_eq!(status, SessionStatus::Complete);
        Ok((self.completed, self.totals, self.emb))
    }
}

/// A serialised session: everything [`Session::resume`] needs except the
/// pieces that are cheap or impossible to serialise (network, guest tree,
/// embedding, policy — the caller re-supplies those; the checkpoint
/// container stores the embedding alongside).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSnapshot {
    data: Vec<u8>,
}

impl SessionSnapshot {
    /// The raw snapshot bytes (LEB128 words; see `Session::snapshot`).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Wraps raw bytes read from a checkpoint. Validation happens in
    /// [`Session::resume`].
    pub fn from_bytes(data: Vec<u8>) -> Self {
        SessionSnapshot { data }
    }
}

/// Why `emb` cannot drive a session of `tree` on `net`, if it cannot: a
/// checkpoint carries the embedding, while the CLI regenerates the tree
/// from the stored config, so the two can disagree.
fn check_fit<H: Host>(net: &H, tree: &BinaryTree, emb: &XEmbedding) -> Result<(), SimError> {
    let bad = |reason: String| Err(SimError::BadCheckpoint { reason });
    if emb.guest_len() != tree.len() {
        return bad(format!(
            "embedding maps {} guest nodes, the tree has {}",
            emb.guest_len(),
            tree.len()
        ));
    }
    let vertices = net.node_count();
    if emb.height > XTREE_MAX_HEIGHT || emb.host_len() != vertices {
        return bad(format!(
            "embedding is for X({}), the host has {vertices} vertices",
            emb.height
        ));
    }
    if let Some((v, id)) = emb
        .map
        .iter()
        .enumerate()
        .find(|&(_, &id)| id as usize >= vertices)
    {
        return bad(format!(
            "guest {v} mapped to vertex {id}, outside the {vertices}-vertex host"
        ));
    }
    Ok(())
}

fn snap_word(bytes: &[u8], pos: &mut usize) -> Result<u64, SimError> {
    decode_u64(bytes, pos).ok_or_else(|| SimError::BadCheckpoint {
        reason: "session snapshot truncated".into(),
    })
}

fn encode_report(buf: &mut Vec<u8>, r: &FaultSimReport) {
    let idx = WORKLOADS
        .iter()
        .position(|&w| w == r.workload)
        .expect("reports only name canonical workloads");
    encode_u64(buf, idx as u64);
    encode_u64(buf, u64::from(r.cycles));
    encode_u64(buf, u64::from(r.ideal_cycles));
    encode_u64(buf, r.messages as u64);
    encode_u64(buf, r.delivered as u64);
    encode_u64(buf, r.stranded as u64);
    encode_u64(buf, u64::from(r.stalled));
}

fn decode_report(bytes: &[u8], pos: &mut usize) -> Result<FaultSimReport, SimError> {
    let idx = snap_word(bytes, pos)? as usize;
    if idx >= WORKLOADS.len() {
        return Err(SimError::BadCheckpoint {
            reason: format!("workload index {idx} out of range"),
        });
    }
    Ok(FaultSimReport {
        workload: WORKLOADS[idx],
        cycles: snap_word(bytes, pos)? as u32,
        ideal_cycles: snap_word(bytes, pos)? as u32,
        messages: snap_word(bytes, pos)? as usize,
        delivered: snap_word(bytes, pos)? as usize,
        stranded: snap_word(bytes, pos)? as usize,
        stalled: snap_word(bytes, pos)? != 0,
    })
}

impl<'a, H: Host> Session<'a, H, XEmbedding> {
    /// Serialises the session at a round boundary: cursor, engine clock,
    /// the in-progress fault state, the plan, banked and partial reports,
    /// and the recovery totals. The embedding itself is *not* inside —
    /// the checkpoint container carries it next to this blob.
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut buf = Vec::new();
        encode_u64(&mut buf, self.engine.clock());
        encode_u64(&mut buf, self.workload_idx as u64);
        encode_u64(&mut buf, self.round_idx as u64);
        match &self.faults {
            None => encode_u64(&mut buf, 0),
            Some(f) => {
                encode_u64(&mut buf, 1);
                f.encode(&mut buf);
            }
        }
        self.plan.encode(&mut buf);
        encode_u64(&mut buf, self.completed.len() as u64);
        for r in &self.completed {
            encode_report(&mut buf, r);
        }
        encode_report(&mut buf, &self.partial);
        encode_u64(&mut buf, self.totals.retries);
        encode_u64(&mut buf, self.totals.requeued);
        encode_u64(&mut buf, self.totals.migrated);
        encode_u64(&mut buf, self.totals.stranded);
        SessionSnapshot { data: buf }
    }

    /// Rebuilds a session from a snapshot, the re-supplied surroundings,
    /// and the embedding stored beside it in the checkpoint. The restored
    /// session continues exactly where the snapshot was taken.
    ///
    /// # Errors
    /// [`SimError::BadCheckpoint`] on truncated or corrupt bytes, when the
    /// workload cursor disagrees with the banked reports, or when `emb`
    /// does not fit the run: it must hold one image per node of `tree`,
    /// name an X-tree the size of `net`, and map only to vertices of `net`;
    /// [`SimError::InvalidFault`] when the embedded plan does not fit
    /// `net`.
    pub fn resume(
        net: &'a H,
        tree: &'a BinaryTree,
        emb: XEmbedding,
        policy: Option<RecoveryPolicy>,
        snap: &SessionSnapshot,
    ) -> Result<Self, SimError> {
        check_fit(net, tree, &emb)?;
        let bytes = &snap.data;
        let mut pos = 0usize;
        let engine_clock = snap_word(bytes, &mut pos)?;
        let workload_idx = snap_word(bytes, &mut pos)? as usize;
        let round_idx = snap_word(bytes, &mut pos)? as usize;
        let faults = match snap_word(bytes, &mut pos)? {
            0 => None,
            _ => Some(FaultState::decode(net.csr(), bytes, &mut pos)?),
        };
        let plan = FaultPlan::decode(bytes, &mut pos)?;
        // Validate the plan against this host even when no fault state was
        // in flight (later workloads will bind it).
        FaultState::new(net.csr(), plan.clone())?;
        let n_completed = snap_word(bytes, &mut pos)? as usize;
        // The cursor decides which workload runs next and the banked
        // reports are what the run returns, so they must tell one story:
        // workload `i` banked as report `i`, and the partial report naming
        // the workload under the cursor.
        if workload_idx > WORKLOADS.len() || n_completed != workload_idx {
            return Err(SimError::BadCheckpoint {
                reason: format!(
                    "workload cursor {workload_idx} with {n_completed} banked reports \
                     in a 4-workload run"
                ),
            });
        }
        let mut completed = Vec::with_capacity(n_completed);
        for (i, &want) in WORKLOADS.iter().enumerate().take(n_completed) {
            let r = decode_report(bytes, &mut pos)?;
            if r.workload != want {
                return Err(SimError::BadCheckpoint {
                    reason: format!("banked report {i} names `{}`, not `{want}`", r.workload),
                });
            }
            completed.push(r);
        }
        let partial = decode_report(bytes, &mut pos)?;
        let want = WORKLOADS[workload_idx.min(WORKLOADS.len() - 1)];
        if partial.workload != want {
            return Err(SimError::BadCheckpoint {
                reason: format!(
                    "partial report names `{}` at workload cursor {workload_idx}, not `{want}`",
                    partial.workload
                ),
            });
        }
        let totals = RecoveryTotals {
            retries: snap_word(bytes, &mut pos)?,
            requeued: snap_word(bytes, &mut pos)?,
            migrated: snap_word(bytes, &mut pos)?,
            stranded: snap_word(bytes, &mut pos)?,
        };
        if pos != bytes.len() {
            return Err(SimError::BadCheckpoint {
                reason: format!(
                    "{} trailing bytes after the session snapshot",
                    bytes.len() - pos
                ),
            });
        }
        let mut engine = Engine::new();
        engine.restore_clock(engine_clock);
        Ok(Session {
            net,
            tree,
            emb,
            plan,
            policy,
            engine,
            faults,
            rounds: None,
            workload_idx,
            round_idx,
            completed,
            partial,
            totals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::HostMap;
    use xtree_core::metrics::heap_order_embedding;
    use xtree_host::XTreeHost;
    use xtree_telemetry::{NopSink, TraceRecorder};
    use xtree_topology::Graph;
    use xtree_trees::generate;

    /// The policy-free four-workload fold `Session` replaced, verbatim:
    /// the oracle a policy-free session must match call for call.
    fn simulate_all_faulted_with<H: Host, M: HostMap + Sync, S: Sink>(
        net: &H,
        tree: &BinaryTree,
        emb: &M,
        plan: &FaultPlan,
        sink: &mut S,
    ) -> Result<Vec<FaultSimReport>, SimError> {
        let mut engine = Engine::new();
        let rounds = Rounds::new(tree, emb, None);
        WORKLOADS
            .iter()
            .enumerate()
            .map(|(idx, &name)| {
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
                for round in rounds.workload(idx) {
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

    fn setup(height: u8) -> (XTreeHost, BinaryTree, XEmbedding) {
        let net = XTreeHost::new(height);
        let tree = generate::left_complete(net.node_count());
        let emb = heap_order_embedding(&tree, height);
        (net, tree, emb)
    }

    #[test]
    fn unsupervised_session_matches_simulate_all_faulted() {
        let (net, tree, emb) = setup(4);
        let n = net.csr().node_count() as u32;
        let plan =
            FaultPlan::new()
                .link_down(0, (n - 2) / 2, n - 2)
                .link_up(40, (n - 2) / 2, n - 2);

        let mut direct_trace = TraceRecorder::new();
        let direct =
            simulate_all_faulted_with(&net, &tree, &emb, &plan, &mut direct_trace).unwrap();

        let mut session_trace = TraceRecorder::new();
        let session = Session::new(&net, &tree, emb, plan, None);
        let (reports, totals, _) = session.run_to_completion_with(&mut session_trace).unwrap();

        assert_eq!(reports, direct);
        assert_eq!(totals, RecoveryTotals::default());
        assert_eq!(
            session_trace.bytes(),
            direct_trace.bytes(),
            "a policy-free session must be event-for-event the plain run"
        );
    }

    #[test]
    fn session_pauses_on_budget_and_counts_rounds() {
        let (net, tree, emb) = setup(3);
        let mut s = Session::new(&net, &tree, emb, FaultPlan::new(), None);
        assert_eq!(s.run_with(2, &mut NopSink).unwrap(), SessionStatus::Paused);
        assert!(!s.is_complete());
        assert_eq!(
            s.run_with(usize::MAX, &mut NopSink).unwrap(),
            SessionStatus::Complete
        );
        assert!(s.is_complete());
        assert_eq!(s.reports().len(), 4);
        // Running a complete session is a no-op.
        assert_eq!(
            s.run_with(5, &mut NopSink).unwrap(),
            SessionStatus::Complete
        );
    }

    #[test]
    fn snapshot_resume_continues_identically_at_every_boundary() {
        // Oracle: an uninterrupted supervised session. Candidate: pause
        // after k rounds, snapshot, resume, finish. Reports, totals, and
        // repaired embeddings must agree for every k.
        let (net, tree, emb) = setup(3);
        let victim = emb.host_len() as u32 - 1;
        let plan = FaultPlan::new().node_down(1, victim);
        let policy = Some(RecoveryPolicy::default());

        let oracle = Session::new(&net, &tree, emb.clone(), plan.clone(), policy.clone());
        let (want_reports, want_totals, want_emb) =
            oracle.run_to_completion_with(&mut NopSink).unwrap();

        for k in 0..40 {
            let mut first = Session::new(&net, &tree, emb.clone(), plan.clone(), policy.clone());
            let status = first.run_with(k, &mut NopSink).unwrap();
            let snap = first.snapshot();
            let carried = first.into_embedding();
            let resumed = Session::resume(&net, &tree, carried, policy.clone(), &snap).unwrap();
            let (reports, totals, emb_after) =
                resumed.run_to_completion_with(&mut NopSink).unwrap();
            assert_eq!(reports, want_reports, "cut at {k}");
            assert_eq!(totals, want_totals, "cut at {k}");
            assert_eq!(emb_after.map, want_emb.map, "cut at {k}");
            if status == SessionStatus::Complete {
                break;
            }
        }
    }

    #[test]
    fn rounds_after_a_migration_follow_the_moved_guest() {
        // Vertex 1 hosts guest 1 and dies before the first broadcast
        // round, which repairs it away; guest 1 sends in the next round.
        let (net, tree, emb) = setup(3);
        let plan = FaultPlan::new().node_down(0, 1);
        let policy = Some(RecoveryPolicy::default());
        let session = Session::new(&net, &tree, emb.clone(), plan.clone(), policy.clone());
        let (reports, totals, repaired) = session.run_to_completion_with(&mut NopSink).unwrap();
        assert!(totals.migrated > 0, "the fault must move a guest");
        // Oracle: a session resumed at every round boundary builds each
        // round from the embedding as it stands then.
        let mut step = Session::new(&net, &tree, emb, plan, policy.clone());
        while step.run_with(1, &mut NopSink).unwrap() == SessionStatus::Paused {
            let snap = step.snapshot();
            step =
                Session::resume(&net, &tree, step.into_embedding(), policy.clone(), &snap).unwrap();
        }
        assert_eq!(step.reports(), &reports[..]);
        assert_eq!(step.totals(), totals);
        assert_eq!(step.into_embedding().map, repaired.map);
    }

    #[test]
    fn resume_rejects_corrupt_snapshots() {
        let (net, tree, emb) = setup(2);
        let mut s = Session::new(&net, &tree, emb.clone(), FaultPlan::new(), None);
        s.run_with(1, &mut NopSink).unwrap();
        let snap = s.snapshot();
        // Truncations error out; they never panic.
        for cut in 0..snap.bytes().len() {
            let broken = SessionSnapshot::from_bytes(snap.bytes()[..cut].to_vec());
            assert!(
                Session::resume(&net, &tree, emb.clone(), None, &broken).is_err(),
                "cut at {cut}"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = snap.bytes().to_vec();
        long.push(0);
        assert!(matches!(
            Session::resume(&net, &tree, emb, None, &SessionSnapshot::from_bytes(long)),
            Err(SimError::BadCheckpoint { .. })
        ));
    }

    #[test]
    fn resume_rejects_a_cursor_that_disagrees_with_the_banked_reports() {
        let (net, tree, emb) = setup(2);
        let mut s = Session::new(&net, &tree, emb.clone(), FaultPlan::new(), None);
        assert_eq!(s.run_with(0, &mut NopSink).unwrap(), SessionStatus::Paused);
        let snap = s.snapshot();
        // The cursor is the word after the engine clock.
        let mut at = 0;
        decode_u64(snap.bytes(), &mut at).unwrap();
        assert_eq!(snap.bytes()[at], 0, "a fresh session pauses at workload 0");
        assert!(Session::resume(&net, &tree, emb.clone(), None, &snap).is_ok());
        // A moved cursor would label one workload's rounds as another's,
        // or skip workloads and return fewer reports.
        for cursor in 1..=5u8 {
            let mut bytes = snap.bytes().to_vec();
            bytes[at] = cursor;
            let err = Session::resume(
                &net,
                &tree,
                emb.clone(),
                None,
                &SessionSnapshot::from_bytes(bytes),
            )
            .err();
            assert!(
                matches!(err, Some(SimError::BadCheckpoint { .. })),
                "cursor {cursor}: {err:?}"
            );
        }
    }

    /// A paused session's snapshot and a resume of it with `emb`.
    fn resume_with(emb: XEmbedding) -> Result<(), SimError> {
        let (net, tree, good) = setup(2);
        let mut s = Session::new(&net, &tree, good, FaultPlan::new(), None);
        s.run_with(1, &mut NopSink).unwrap();
        let snap = s.snapshot();
        Session::resume(&net, &tree, emb, None, &snap).map(|_| ())
    }

    fn assert_bad_checkpoint(res: Result<(), SimError>, what: &str) {
        match res {
            Err(SimError::BadCheckpoint { reason }) => {
                assert!(reason.contains(what), "{reason}")
            }
            other => panic!("expected BadCheckpoint ({what}), got {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_an_embedding_of_another_tree_size() {
        let (_, _, emb) = setup(2);
        assert!(resume_with(emb.clone()).is_ok());
        let mut short = emb.clone();
        short.map.pop();
        assert_bad_checkpoint(resume_with(short), "guest nodes, the tree has");
        let mut long = emb;
        long.map.push(0);
        assert_bad_checkpoint(resume_with(long), "guest nodes, the tree has");
    }

    #[test]
    fn resume_rejects_an_embedding_for_another_host() {
        let (_, _, emb) = setup(2);
        for height in [1, 3, XTREE_MAX_HEIGHT + 1, u8::MAX] {
            let other = XEmbedding {
                height,
                ..emb.clone()
            };
            assert_bad_checkpoint(resume_with(other), "the host has 7 vertices");
        }
    }

    #[test]
    fn resume_rejects_images_outside_the_host() {
        let (_, _, mut emb) = setup(2);
        emb.map[4] = 7; // X(2) has vertices 0..7
        assert_bad_checkpoint(resume_with(emb), "guest 4 mapped to vertex 7");
    }
}
