//! `simulate`: the four canonical workloads on an embedded guest, with
//! optional faults, recovery, checkpoints and telemetry; and what it shares
//! with `resume`: the telemetry files and summary, and the delivery table.

use crate::args::{backoff_str, make_tree, parse_backoff, parse_traffic, MetricsOut};
use crate::embed::host_backend;
use crate::{guest_json, Args, CliError};
use xtree_core::{hypercube, theorem1};
use xtree_json::Value;
use xtree_sim::host::HOST_UNIVERSAL;
use xtree_sim::telemetry::{Event, MetricsSink, NopSink, Sink, Tee, TraceRecorder};
use xtree_sim::{
    encode_checkpoint, simulate_all_with, weighted_congestion, Checkpoint, FaultPlan,
    FaultSimReport, Host, HypercubeHost, RecoveryPolicy, RecoveryTotals, RepairableHost, Session,
    SessionStatus, SimReport, XTreeHost,
};
use xtree_topology::{Csr, Graph};
use xtree_trees::BinaryTree;

pub(crate) const USAGE: &str = "--family F --nodes N [--host xtree|hypercube|universal] [--workload W|all] [--seed S] [--traffic MODEL] [--fault-rate P] [--node-fault-rate P] [--fault-seed S] [--repair-after K] [--recover] [--max-retries N] [--backoff fixed:K|exp:B:C] [--checkpoint FILE] [--checkpoint-after K] [--trace FILE] [--verify-trace FILE] [--metrics FILE] [--metrics-format jsonl|prom] [--json]";

/// Failure cycles for `simulate --fault-rate` are drawn from the first
/// `FAULT_WINDOW` cycles, so damage lands while the workloads are running.
const FAULT_WINDOW: u32 = 16;

/// Random link/node failure parameters of `simulate`, `None` when fault
/// injection is off.
struct FaultArgs {
    rate: f64,
    node_rate: f64,
    seed: u64,
    repair_after: Option<u32>,
}

impl FaultArgs {
    fn parse(a: &Args) -> Result<Option<Self>, String> {
        let rate: f64 = a.num_or("fault-rate", 0.0)?;
        let node_rate: f64 = a.num_or("node-fault-rate", 0.0)?;
        for (flag, r) in [("fault-rate", rate), ("node-fault-rate", node_rate)] {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("--{flag}: `{r}` is not within [0, 1]"));
            }
        }
        if rate == 0.0 && node_rate == 0.0 {
            return Ok(None);
        }
        Ok(Some(FaultArgs {
            rate,
            node_rate,
            seed: a.num_or("fault-seed", 0xFA17)?,
            repair_after: a.num_opt("repair-after")?,
        }))
    }

    /// The combined damage schedule: random link failures, plus random
    /// node failures when `--node-fault-rate` is set.
    fn plan(&self, graph: &Csr) -> Result<FaultPlan, String> {
        let mut plan =
            FaultPlan::random_links(graph, self.rate, self.seed, FAULT_WINDOW, self.repair_after)
                .map_err(|e| e.to_string())?;
        if self.node_rate > 0.0 {
            plan = plan.merged(
                FaultPlan::random_nodes(graph, self.node_rate, self.seed, FAULT_WINDOW)
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(plan)
    }

    /// The human-readable fault line shared by both output paths.
    fn describe(&self) -> String {
        let repairs = match self.repair_after {
            Some(k) => format!("repair after {k}"),
            None => "no repairs".into(),
        };
        let mut s = format!("link fault rate {}", self.rate);
        if self.node_rate > 0.0 {
            s.push_str(&format!(" + node fault rate {}", self.node_rate));
        }
        format!("{s} (seed {}, {repairs})", self.seed)
    }

    /// The `"fault"` object of the `--json` output.
    fn to_json(&self) -> Value {
        Value::object()
            .with("rate", self.rate)
            .with("node_rate", self.node_rate)
            .with("seed", self.seed)
            .with("window", FAULT_WINDOW)
            .with(
                "repair_after",
                self.repair_after.map_or(Value::Null, Value::from),
            )
    }
}

/// Self-healing knobs of `simulate`, `None` when neither `--recover` nor
/// checkpointing was requested.
struct RecoveryArgs<'a> {
    /// True when `--recover` was given: supervise with retry + repair.
    recover: bool,
    policy: RecoveryPolicy,
    checkpoint: Option<&'a str>,
    checkpoint_after: Option<usize>,
}

impl<'a> RecoveryArgs<'a> {
    fn parse(a: &'a Args) -> Result<Option<Self>, String> {
        let recover = a.flag("recover");
        let checkpoint = a.get("checkpoint");
        let checkpoint_after = a.num_opt::<usize>("checkpoint-after")?;
        if !recover && checkpoint.is_none() {
            if checkpoint_after.is_some() {
                return Err("--checkpoint-after requires --checkpoint FILE".into());
            }
            if a.get("max-retries").is_some() || a.get("backoff").is_some() {
                return Err("--max-retries/--backoff require --recover".into());
            }
            return Ok(None);
        }
        if checkpoint_after.is_some() && checkpoint.is_none() {
            return Err("--checkpoint-after requires --checkpoint FILE".into());
        }
        let default = RecoveryPolicy::default();
        let policy = RecoveryPolicy {
            max_retries: a.num_or("max-retries", default.max_retries)?,
            backoff: match a.get("backoff") {
                Some(spec) => parse_backoff(spec)?,
                None => default.backoff,
            },
            ..default
        };
        Ok(Some(RecoveryArgs {
            recover,
            policy,
            checkpoint,
            checkpoint_after,
        }))
    }
}

/// `simulate` output rows: fault-free or degraded-delivery reports.
enum Reports {
    Plain(Vec<SimReport>),
    Faulted(Vec<FaultSimReport>),
}

fn simulate_reports<H: Host, M: RepairableHost + Clone + Sync, S: Sink>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
    faults: &Option<FaultArgs>,
    sink: &mut S,
) -> Result<Reports, CliError> {
    let runtime = |e: xtree_sim::SimError| CliError::Runtime(e.to_string());
    match faults {
        // No faults requested: the plan-free path, bit-identical to the
        // pre-fault simulator.
        None => Ok(Reports::Plain(
            simulate_all_with(net, tree, emb, sink).map_err(runtime)?,
        )),
        // Faults without `--recover`: a policy-free session, run through.
        Some(f) => {
            let plan = f.plan(net.csr())?;
            let session = Session::new(net, tree, emb.clone(), plan, None);
            let (reports, _, _) = session.run_to_completion_with(sink).map_err(runtime)?;
            Ok(Reports::Faulted(reports))
        }
    }
}

/// Runs the workloads, threading a trace recorder + metrics sink through
/// the engine when any telemetry flag is present and writing/verifying the
/// requested files afterwards. `Sink` dispatch is static, so the
/// no-telemetry path monomorphizes to the uninstrumented loop.
fn simulate_telemetry<H: Host, M: RepairableHost + Clone + Sync>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
    faults: &Option<FaultArgs>,
    tel: &Option<TelemetryArgs>,
) -> Result<(Reports, Option<TelemetrySummary>), CliError> {
    let Some(t) = tel else {
        return Ok((
            simulate_reports(net, tree, emb, faults, &mut NopSink)?,
            None,
        ));
    };
    let mut rec = TraceRecorder::new();
    let mut met = MetricsSink::new();
    let reports = simulate_reports(net, tree, emb, faults, &mut Tee(&mut rec, &mut met))?;
    let summary = finish_telemetry(net, t, &rec, &mut met)?;
    Ok((reports, Some(summary)))
}

pub(crate) fn run(a: &Args) -> Result<String, CliError> {
    let (tree, family) = make_tree(a)?;
    let host = a.get_or("host", "xtree");
    let workload = a.get_or("workload", "all");
    if !["all", "broadcast", "reduce", "exchange", "dnc"].contains(&workload) {
        return Err(format!("unknown workload `{workload}`").into());
    }
    let traffic = parse_traffic(a)?;
    let faults = FaultArgs::parse(a)?;
    let tel = TelemetryArgs::parse(a)?;
    if let Some(rec) = RecoveryArgs::parse(a)? {
        if host != "xtree" {
            return Err("--recover/--checkpoint currently support --host xtree only".into());
        }
        if traffic.is_some() {
            return Err("--traffic is not supported with --recover/--checkpoint".into());
        }
        return cmd_simulate_session(a, &tree, &family, &faults, &tel, &rec);
    }
    // Both hosts route in closed form (no routing tables), so there is no
    // host-size cap here: the guest size is limited only by memory.
    let mut weighted: Option<(String, u64)> = None;
    let (reports, telemetry) = match host {
        "xtree" => {
            let emb = theorem1::embed(&tree).emb;
            let net = XTreeHost::new(emb.height);
            if let Some(t) = &traffic {
                let demand = t.edge_demand(&tree, a.num_or("seed", 7u64)?);
                let w = weighted_congestion(&net, &tree, &emb, &demand)
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
                weighted = Some((t.label(), w));
            }
            simulate_telemetry(&net, &tree, &emb, &faults, &tel)?
        }
        "hypercube" => {
            if traffic.is_some() {
                return Err("--traffic supports --host xtree only".into());
            }
            let q = hypercube::embed_theorem3(&tree);
            let net = HypercubeHost::new(q.dim);
            simulate_telemetry(&net, &tree, &q, &faults, &tel)?
        }
        "universal" => {
            if traffic.is_some() {
                return Err("--traffic supports --host xtree only".into());
            }
            let emb = theorem1::embed(&tree).emb;
            let (net, map) = host_backend(HOST_UNIVERSAL, "universal", &emb)?;
            simulate_telemetry(&net, &tree, &map, &faults, &tel)?
        }
        other => return Err(format!("unknown host `{other}`").into()),
    };
    let keep = |w: &str| workload == "all" || w == workload;
    // A faulted run names its fault plan and prints the delivery table.
    let (rows, table, fault) = match &reports {
        Reports::Plain(reports) => {
            let reports: Vec<&SimReport> = reports.iter().filter(|r| keep(r.workload)).collect();
            (plain_rows(&reports), plain_table(&reports), None)
        }
        Reports::Faulted(reports) => {
            let reports: Vec<&FaultSimReport> =
                reports.iter().filter(|r| keep(r.workload)).collect();
            (
                delivery_rows(&reports),
                delivery_table(&reports),
                faults.as_ref(),
            )
        }
    };
    if rows.as_array().is_some_and(|r| r.is_empty()) {
        return Err(format!("unknown workload `{workload}`").into());
    }
    if a.flag("json") {
        let mut doc = Value::object()
            .with("guest", guest_json(&family, tree.len()))
            .with("host", host);
        if let Some(f) = fault {
            doc.set("fault", f.to_json());
        }
        doc.set("reports", rows);
        if let Some((label, w)) = &weighted {
            doc.set("traffic", label.as_str());
            doc.set("weighted_congestion", *w);
        }
        if let Some(s) = &telemetry {
            doc.set("telemetry", s.to_json());
        }
        Ok(xtree_json::to_string_pretty(&doc))
    } else {
        let mut out = format!("guest: {family} ({} nodes) on {host}", tree.len());
        if let Some(f) = fault {
            out.push_str(&format!(", {}", f.describe()));
        }
        out.push('\n');
        if let Some((label, w)) = &weighted {
            out.push_str(&format!("traffic {label}: weighted congestion {w}\n"));
        }
        out.push_str(&table);
        if let Some(s) = &telemetry {
            out.push_str(&s.line());
            out.push('\n');
        }
        Ok(out.trim_end().to_string())
    }
}

/// The JSON rows of a fault-free run, one per workload.
fn plain_rows(reports: &[&SimReport]) -> Value {
    reports
        .iter()
        .map(|r| {
            Value::object()
                .with("workload", r.workload)
                .with("cycles", r.cycles)
                .with("ideal_cycles", r.ideal_cycles)
                .with("worst_round_slowdown", r.worst_round_slowdown)
                .with("max_link_traffic", r.max_link_traffic)
        })
        .collect()
}

/// The text table of a fault-free run: a header and one line per workload.
fn plain_table(reports: &[&SimReport]) -> String {
    let mut out = format!(
        "{:<10} {:>8} {:>8} {:>9} {:>13}\n",
        "workload", "cycles", "ideal", "slowdown", "link traffic"
    );
    for r in reports {
        out.push_str(&format!(
            "{:<10} {:>8} {:>8} {:>8.2}x {:>13}\n",
            r.workload,
            r.cycles,
            r.ideal_cycles,
            r.cycles as f64 / r.ideal_cycles.max(1) as f64,
            r.max_link_traffic
        ));
    }
    out
}

/// The supervised (`--recover`) / checkpointed (`--checkpoint`) simulate
/// path: the four workloads driven through a resumable [`Session`].
fn cmd_simulate_session(
    a: &Args,
    tree: &BinaryTree,
    family: &str,
    faults: &Option<FaultArgs>,
    tel: &Option<TelemetryArgs>,
    rec: &RecoveryArgs,
) -> Result<String, CliError> {
    let emb = theorem1::embed(tree).emb;
    let net = XTreeHost::new(emb.height);
    let plan = match faults {
        Some(f) => f.plan(net.csr())?,
        None => FaultPlan::new(),
    };
    let policy = rec.recover.then(|| rec.policy.clone());
    let config = run_config(a, family, rec)?;
    let mut session = Session::new(&net, tree, emb, plan, policy);
    let mut trace = TraceRecorder::new();
    let mut met = MetricsSink::new();
    let budget = rec.checkpoint_after.unwrap_or(usize::MAX);
    let status = session
        .run_with(budget, &mut Tee(&mut trace, &mut met))
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    if let Some(path) = rec.checkpoint {
        let ck = Checkpoint {
            session: session.snapshot(),
            embedding: session.embedding().clone(),
            config,
            trace: trace.bytes().to_vec(),
        };
        let bytes = encode_checkpoint(&ck);
        met.record(Event::CheckpointWritten {
            bytes: bytes.len() as u64,
        });
        std::fs::write(path, &bytes)
            .map_err(|e| CliError::Io(format!("--checkpoint {path}: {e}")))?;
        if status == SessionStatus::Paused {
            // The trace so far lives inside the checkpoint; a resumed run
            // appends to it, so no partial telemetry files are written.
            return Ok(if a.flag("json") {
                xtree_json::to_string_pretty(
                    &Value::object()
                        .with("status", "paused")
                        .with("checkpoint", path)
                        .with("bytes", bytes.len())
                        .with("rounds_run", rec.checkpoint_after.unwrap_or(0)),
                )
            } else {
                format!(
                    "checkpoint: {path} written after {} rounds ({} bytes); \
                     continue with `xtree-cli resume {path}`",
                    rec.checkpoint_after.unwrap_or(0),
                    bytes.len()
                )
            });
        }
    }
    let telemetry = match tel {
        Some(t) => Some(finish_telemetry(&net, t, &trace, &mut met)?),
        None => None,
    };
    let origin = match faults {
        Some(f) => f.describe(),
        None => "no faults".into(),
    };
    session_output(
        a,
        family,
        tree.len(),
        &origin,
        session.reports(),
        session.totals(),
        rec.recover,
        telemetry.as_ref(),
    )
}

/// The config blob stored inside a checkpoint: exactly what `resume` needs
/// to rebuild the guest tree and the recovery policy.
fn run_config(a: &Args, family: &str, rec: &RecoveryArgs) -> Result<String, String> {
    Ok(xtree_json::to_string(
        &Value::object()
            .with("family", family)
            .with("nodes", a.num_or("nodes", 1008usize)?)
            .with("seed", a.num_or("seed", 7u64)?)
            .with("recover", rec.recover)
            .with("max_retries", rec.policy.max_retries)
            .with("backoff", backoff_str(rec.policy.backoff)),
    ))
}

/// Telemetry outputs of `simulate`, `None` when no telemetry flag was
/// given (the zero-overhead `NopSink` path).
pub(crate) struct TelemetryArgs<'a> {
    trace: Option<&'a str>,
    metrics: MetricsOut<'a>,
    verify: Option<&'a str>,
}

impl<'a> TelemetryArgs<'a> {
    pub(crate) fn parse(a: &'a Args) -> Result<Option<Self>, String> {
        let t = TelemetryArgs {
            trace: a.get("trace"),
            metrics: MetricsOut::parse(a)?,
            verify: a.get("verify-trace"),
        };
        Ok((t.trace.is_some() || t.metrics.path.is_some() || t.verify.is_some()).then_some(t))
    }
}

/// What the user sees after a traced/metered run: the one-line summary in
/// text mode, a `"telemetry"` object in `--json` mode.
pub(crate) struct TelemetrySummary {
    events: u64,
    trace_bytes: usize,
    /// Top edges by hop count, as `(from, to, hops)`.
    hottest: Vec<(u32, u32, u64)>,
    verified: bool,
}

impl TelemetrySummary {
    pub(crate) fn line(&self) -> String {
        let hottest = if self.hottest.is_empty() {
            "none".to_string()
        } else {
            self.hottest
                .iter()
                .map(|&(u, v, h)| format!("{u}->{v} x{h}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "telemetry: {} events, {} trace bytes, hottest links: {hottest}{}",
            self.events,
            self.trace_bytes,
            if self.verified {
                " (replay verified)"
            } else {
                ""
            }
        )
    }

    pub(crate) fn to_json(&self) -> Value {
        Value::object()
            .with("events", self.events)
            .with("trace_bytes", self.trace_bytes)
            .with(
                "hottest_links",
                self.hottest
                    .iter()
                    .map(|&(u, v, h)| {
                        Value::object()
                            .with("from", u)
                            .with("to", v)
                            .with("hops", h)
                    })
                    .collect::<Value>(),
            )
            .with("replay_verified", self.verified)
    }
}

/// Writes/verifies the telemetry files a run asked for and distils the
/// user-facing summary. Shared by the plain, supervised, and resumed
/// simulation paths.
pub(crate) fn finish_telemetry<H: Host>(
    net: &H,
    t: &TelemetryArgs,
    rec: &TraceRecorder,
    met: &mut MetricsSink,
) -> Result<TelemetrySummary, CliError> {
    met.finish();
    if let Some(path) = t.trace {
        std::fs::write(path, rec.bytes())
            .map_err(|e| CliError::Io(format!("--trace {path}: {e}")))?;
    }
    let mut verified = false;
    if let Some(path) = t.verify {
        let prior =
            std::fs::read(path).map_err(|e| CliError::Io(format!("--verify-trace {path}: {e}")))?;
        if prior != rec.bytes() {
            return Err(CliError::Runtime(format!(
                "--verify-trace {path}: replay mismatch (recorded {} bytes, file holds {})",
                rec.bytes().len(),
                prior.len()
            )));
        }
        verified = true;
    }
    t.metrics
        .write(|f| f.render(MetricsSink::PREFIX, &met.families()))?;
    // Resolve the hottest directed edge indices back to endpoint pairs.
    let graph = net.csr();
    let mut ends = vec![(0u32, 0u32); graph.directed_edge_count()];
    for v in 0..graph.node_count() {
        for (e, to) in graph.out_edges(v) {
            ends[e as usize] = (v as u32, to);
        }
    }
    let hottest = met
        .hottest_edges(3)
        .into_iter()
        .map(|(e, h)| (ends[e as usize].0, ends[e as usize].1, h))
        .collect();
    Ok(TelemetrySummary {
        events: rec.event_count(),
        trace_bytes: rec.bytes().len(),
        hottest,
        verified,
    })
}

/// Renders a finished session: the faulted-style delivery table plus the
/// recovery totals line (and `"recovery"` JSON object) when supervised.
#[allow(clippy::too_many_arguments)]
pub(crate) fn session_output(
    a: &Args,
    family: &str,
    nodes: usize,
    origin: &str,
    reports: &[FaultSimReport],
    totals: RecoveryTotals,
    recovered: bool,
    telemetry: Option<&TelemetrySummary>,
) -> Result<String, CliError> {
    let workload = a.get_or("workload", "all");
    let keep = |w: &str| workload == "all" || w == workload;
    let reports: Vec<&FaultSimReport> = reports.iter().filter(|r| keep(r.workload)).collect();
    if reports.is_empty() {
        return Err(format!("unknown workload `{workload}`").into());
    }
    let all_delivered = reports
        .iter()
        .all(|r| r.delivered == r.messages && !r.stalled);
    if a.flag("json") {
        let mut doc = Value::object()
            .with("guest", guest_json(family, nodes))
            .with("host", "xtree")
            .with("run", origin)
            .with("reports", delivery_rows(&reports));
        if recovered {
            doc.set(
                "recovery",
                Value::object()
                    .with("retries", totals.retries)
                    .with("requeued", totals.requeued)
                    .with("migrated", totals.migrated)
                    .with("unreachable", totals.stranded)
                    .with("all_delivered", all_delivered),
            );
        }
        if let Some(s) = telemetry {
            doc.set("telemetry", s.to_json());
        }
        Ok(xtree_json::to_string_pretty(&doc))
    } else {
        let mut out = format!("guest: {family} ({nodes} nodes) on xtree, {origin}\n");
        out.push_str(&delivery_table(&reports));
        if recovered {
            out.push_str(&format!(
                "recovery: {} retries, {} requeued, {} guests migrated, {} unreachable{}\n",
                totals.retries,
                totals.requeued,
                totals.migrated,
                totals.stranded,
                if all_delivered { ", all delivered" } else { "" }
            ));
        }
        if let Some(s) = telemetry {
            out.push_str(&s.line());
            out.push('\n');
        }
        Ok(out.trim_end().to_string())
    }
}

/// The JSON rows of the delivery table: one per workload of a faulted or
/// supervised run. `simulate`'s faulted output and the session output
/// both print them.
pub(crate) fn delivery_rows(reports: &[&FaultSimReport]) -> Value {
    reports
        .iter()
        .map(|r| {
            Value::object()
                .with("workload", r.workload)
                .with("cycles", r.cycles)
                .with("ideal_cycles", r.ideal_cycles)
                .with("messages", r.messages)
                .with("delivered", r.delivered)
                .with("stranded", r.stranded)
                .with("delivery_rate", r.delivery_rate())
                .with("stalled", r.stalled)
        })
        .collect()
}

/// The text delivery table: a header and one line per workload, each
/// ending in a newline.
pub(crate) fn delivery_table(reports: &[&FaultSimReport]) -> String {
    let mut out = format!(
        "{:<10} {:>8} {:>8} {:>9} {:>11} {:>9} {:>8}\n",
        "workload", "cycles", "ideal", "slowdown", "delivered", "stranded", "stalled"
    );
    for r in reports {
        out.push_str(&format!(
            "{:<10} {:>8} {:>8} {:>8.2}x {:>5}/{:<5} {:>9} {:>8}\n",
            r.workload,
            r.cycles,
            r.ideal_cycles,
            r.cycles as f64 / r.ideal_cycles.max(1) as f64,
            r.delivered,
            r.messages,
            r.stranded,
            if r.stalled { "yes" } else { "no" }
        ));
    }
    out
}
