//! Resumable experiment sessions: the canonical four-workload run as an
//! explicit state machine.
//!
//! `stats::simulate_all_faulted_with` runs broadcast / reduce / exchange /
//! divide-and-conquer to completion in one call. A [`Session`] is the same
//! experiment unrolled into *rounds you can stop between*: it owns the
//! engine, the embedding (recovery repairs mutate it), the per-workload
//! [`FaultState`], and the partially-built reports, and it can
//! [`snapshot`](Session::snapshot) all of that into a compact byte blob at
//! any round boundary. [`Session::resume`] rebuilds the exact state, and
//! because every moving part is deterministic — engine, fault replay,
//! repair BFS, backoff clocks — a resumed run emits the *byte-identical*
//! telemetry trace the uninterrupted run would have (the checkpoint tests
//! diff the bytes).
//!
//! Rounds are regenerated from the **current** embedding just before they
//! run, so when a recovery pass migrates guests, every later round's
//! traffic automatically follows them — and a snapshot only ever needs the
//! current embedding, never the message backlog.
//!
//! Without a [`RecoveryPolicy`] the session drives the engine exactly like
//! `simulate_all_faulted_with` (same calls, same event stream, same
//! reports) — supervision is strictly opt-in.

use crate::engine::{BatchOutcome, Engine};
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultState};
use crate::recovery::{recover_batch_with, RecoveryEnd, RecoveryPolicy, RepairableHost};
use crate::stats::FaultSimReport;
use crate::workload::{rounds_for, WORKLOADS};
use xtree_core::XEmbedding;
use xtree_host::Host;
use xtree_telemetry::varint::{decode_u64, encode_u64};
use xtree_telemetry::Sink;
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
            let mut rounds = rounds_for(self.tree, &self.emb, self.workload_idx);
            if self.partial.stalled || self.round_idx >= rounds.len() {
                // Workload finished (or cut short): bank its report.
                let next = self.workload_idx + 1;
                self.completed
                    .push(std::mem::replace(&mut self.partial, empty_report(next)));
                self.workload_idx = next;
                self.round_idx = 0;
                self.faults = None;
                continue;
            }
            if done >= budget {
                return Ok(SessionStatus::Paused);
            }
            let batch = std::mem::take(&mut rounds[self.round_idx]);
            drop(rounds);
            if self.faults.is_none() {
                // Each workload replays the damage schedule from cycle 0,
                // matching `simulate_all_faulted_with`.
                self.faults = Some(FaultState::new(self.net.csr(), self.plan.clone())?);
            }
            let faults = self.faults.as_mut().expect("initialised above");
            match &self.policy {
                None => {
                    let out = self
                        .engine
                        .run_batch_faulted_with(self.net, &batch, faults, sink)?;
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
                        &batch,
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
    /// [`SimError::BadCheckpoint`] on truncated or corrupt bytes, or when
    /// the workload cursor disagrees with the banked reports;
    /// [`SimError::InvalidFault`] when the embedded plan does not fit
    /// `net`.
    pub fn resume(
        net: &'a H,
        tree: &'a BinaryTree,
        emb: XEmbedding,
        policy: Option<RecoveryPolicy>,
        snap: &SessionSnapshot,
    ) -> Result<Self, SimError> {
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
    use crate::stats::simulate_all_faulted_with;
    use xtree_core::metrics::heap_order_embedding;
    use xtree_host::XTreeHost;
    use xtree_telemetry::{NopSink, TraceRecorder};
    use xtree_topology::Graph;
    use xtree_trees::generate;

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
}
