//! `xtree-cli` — embed and simulate binary trees on X-tree and hypercube
//! hosts from the command line.
//!
//! ```text
//! xtree-cli embed    --family random-bst --nodes 1008 [--host xtree|hypercube|universal] [--target xtree|xtree-injective|hypercube|hypercube-injective] [--seed N] [--traffic MODEL] [--json] [--map]
//! xtree-cli simulate --family caterpillar --nodes 496 [--host xtree|hypercube|universal] [--workload broadcast|reduce|exchange|dnc|all] [--seed N] [--traffic MODEL] [--fault-rate P --node-fault-rate P --fault-seed S --repair-after K] [--recover --max-retries N --backoff fixed:K|exp:B:C] [--checkpoint FILE --checkpoint-after K] [--trace FILE] [--verify-trace FILE] [--metrics FILE --metrics-format jsonl|prom] [--json]
//! xtree-cli resume   FILE [--workload W|all] [--trace FILE] [--verify-trace FILE] [--metrics FILE] [--json]
//! xtree-cli info     --height 3 [--network xtree|hypercube|ccc|butterfly|mesh]
//! xtree-cli sizes    --max-r 10
//! xtree-cli serve    [--addr HOST:PORT] [--host xtree|hypercube|universal] [--workers N] [--queue-cap N] [--cache-cap N] [--io-timeout-ms T] [--chaos-seed S --chaos-profile P] [--metrics FILE --metrics-format jsonl|prom]
//! xtree-cli cluster  [--shards M] [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N] [--vnodes V] [--ring-seed S] [--probe-interval-ms I] [--fail-after K] [--max-retries N] [--backoff fixed:K|exp:B:C] [--restart-backoff fixed:K|exp:B:C] [--io-timeout-ms T] [--chaos-seed S --chaos-profile P] [--metrics FILE --metrics-format jsonl|prom]
//! xtree-cli request  OP --addr HOST:PORT [--family F --nodes N --seed S --theorem 1|2 --workload W|all] [--host xtree|hypercube|universal] [--deadline-ms T] [--json]
//! ```

mod args;

use args::Args;
use std::time::Duration;
use xtree_core::{evaluate, hypercube, metrics, theorem1, theorem2, XEmbedding};
use xtree_json::Value;
use xtree_scenario::TrafficModel;
use xtree_server::cluster::{spawn_shard, ShardCommand};
use xtree_server::{
    Client, ClusterCount, ClusterMetrics, HashRing, ReconnectPolicy, Request, Response, Router,
    RouterConfig, Server, ServerConfig, ShardCount, Supervisor,
};
use xtree_sim::host::{guest_map, parse_host_label, HOST_LABELS, HOST_XTREE};
use xtree_sim::telemetry::{Event, Format, MetricsSink, NopSink, Sink, Tee, TraceRecorder};
use xtree_sim::workload::WORKLOADS;
use xtree_sim::{
    compute_load, congestion, decode_checkpoint, encode_checkpoint, simulate_all_faulted_with,
    simulate_all_with, weighted_congestion, AnyHost, Backoff, Checkpoint, FaultPlan,
    FaultSimReport, Host, HostMap, HypercubeHost, RecoveryPolicy, RecoveryTotals, Session,
    SessionStatus, SimReport, XTreeHost,
};
use xtree_topology::{Address, Butterfly, Csr, CubeConnectedCycles, Graph, Mesh2D, XTree};
use xtree_trees::{generate, BinaryTree, TreeFamily};

/// What went wrong, carrying the process exit code: bad invocations exit
/// 2 (and reprint the usage), runtime failures exit 1, and I/O failures
/// (files, sockets) exit 3 — so scripts can tell "fix the command line"
/// from "the run failed" from "the environment failed".
#[derive(Debug)]
enum CliError {
    /// The invocation itself is wrong; exits 2 and shows the usage.
    Usage(String),
    /// The command was well-formed but the operation failed; exits 1.
    Runtime(String),
    /// A file or socket operation failed; exits 3.
    Io(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
            CliError::Io(_) => 3,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) | CliError::Io(m) => m,
        }
    }
}

/// Bare-string errors are invocation problems: every parse/validation
/// helper returns `Err(String)`, and `?` lifts them to [`CliError::Usage`].
impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Usage(m.into())
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    match run(argv) {
        Ok(out) => {
            // Tolerate a closed pipe (e.g. `xtree-cli … | head`): the
            // reader leaving early is not an error.
            use std::io::Write;
            let mut stdout = std::io::stdout().lock();
            if writeln!(stdout, "{out}").is_err() {
                std::process::exit(0);
            }
        }
        Err(e) => {
            match &e {
                CliError::Usage(m) => eprintln!("error: {m}\n\n{USAGE}"),
                _ => eprintln!("error: {}", e.message()),
            }
            std::process::exit(e.exit_code());
        }
    }
}

const USAGE: &str = "usage:
  xtree-cli embed    --family F --nodes N [--host xtree|hypercube|universal] [--target xtree|xtree-injective|hypercube|hypercube-injective] [--seed S] [--traffic MODEL] [--json] [--map]
  xtree-cli simulate --family F --nodes N [--host xtree|hypercube|universal] [--workload W|all] [--seed S] [--traffic MODEL] [--fault-rate P] [--node-fault-rate P] [--fault-seed S] [--repair-after K] [--recover] [--max-retries N] [--backoff fixed:K|exp:B:C] [--checkpoint FILE] [--checkpoint-after K] [--trace FILE] [--verify-trace FILE] [--metrics FILE] [--metrics-format jsonl|prom] [--json]
  xtree-cli resume   FILE [--workload W|all] [--trace FILE] [--verify-trace FILE] [--metrics FILE] [--metrics-format jsonl|prom] [--json]
  xtree-cli info     --height R [--network xtree|hypercube|ccc|butterfly|mesh]
  xtree-cli sizes    [--max-r R]
  xtree-cli trace    --family F --nodes N [--seed S]
  xtree-cli serve    [--addr HOST:PORT] [--host xtree|hypercube|universal] [--workers N] [--queue-cap N] [--cache-cap N] [--io-timeout-ms T] [--chaos-seed S] [--chaos-profile P] [--metrics FILE] [--metrics-format jsonl|prom]
  xtree-cli cluster  [--shards M] [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N] [--vnodes V] [--ring-seed S] [--probe-interval-ms I] [--fail-after K] [--max-retries N] [--backoff fixed:K|exp:B:C] [--restart-backoff fixed:K|exp:B:C] [--io-timeout-ms T] [--chaos-seed S] [--chaos-profile P] [--metrics FILE] [--metrics-format jsonl|prom]
  xtree-cli request  OP --addr HOST:PORT [--family F] [--nodes N] [--seed S] [--theorem 1|2] [--workload W|all] [--host xtree|hypercube|universal] [--deadline-ms T] [--json]
                     (OP: embed simulate stats health shutdown)
families: path complete caterpillar broom random-bst random-attach random-split leaning
          balanced uniform bst-insertion skewed[:BIAS]
traffic:  uniform broadcast reduce exchange dnc zipf[:S] hotspot[:PCT:MULT] diurnal[:PERIODS:PEAK]
chaos:    off light medium heavy, or clauses kind:rate[:arg] joined by commas
          (delay:PERMILLE:MAX_US short:PERMILLE corrupt:PERMILLE reset:PERMILLE truncate:PERMILLE refuse:PERMILLE)";

fn run(mut argv: Vec<String>) -> Result<String, CliError> {
    // `resume FILE` and `request OP` take a positional argument; rewrite
    // it into the `--key value` shape the parser speaks.
    if argv.first().map(String::as_str) == Some("resume")
        && argv.get(1).is_some_and(|s| !s.starts_with("--"))
    {
        argv.insert(1, "--from".into());
    }
    if argv.first().map(String::as_str) == Some("request")
        && argv.get(1).is_some_and(|s| !s.starts_with("--"))
    {
        argv.insert(1, "--op".into());
    }
    let a = Args::parse(argv)?;
    match a.command.as_str() {
        "embed" => cmd_embed(&a),
        "simulate" => cmd_simulate(&a),
        "resume" => cmd_resume(&a),
        "info" => cmd_info(&a),
        "sizes" => cmd_sizes(&a),
        "trace" => cmd_trace(&a),
        "serve" => cmd_serve(&a),
        "cluster" => cmd_cluster(&a),
        "request" => cmd_request(&a),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn make_tree(a: &Args) -> Result<(BinaryTree, String), String> {
    let name = a.get_or("family", "random-bst");
    let family = TreeFamily::parse(name).ok_or_else(|| format!("unknown family `{name}`"))?;
    let n: usize = a.num_or("nodes", 1008usize)?;
    if n == 0 {
        return Err("--nodes must be ≥ 1".into());
    }
    let seed: u64 = a.num_or("seed", 7u64)?;
    Ok((family.generate_seeded(n, seed), family.label()))
}

/// `--traffic MODEL` on `embed`/`simulate`: a scenario traffic model, or
/// `None` when the flag is absent.
fn parse_traffic(a: &Args) -> Result<Option<TrafficModel>, String> {
    match a.get("traffic") {
        Some(label) => TrafficModel::parse(label)
            .ok_or_else(|| format!("unknown traffic model `{label}`"))
            .map(Some),
        None => Ok(None),
    }
}

/// Resolves a `--host` backend for a Theorem-1 embedding: the servable
/// topology sized for the embedding's height, plus the per-guest-node
/// host-vertex map. Heights beyond a backend's cap (the universal graph
/// precomputes a BFS table) are a usage error naming the limit.
fn host_backend(tag: u8, hname: &str, emb: &XEmbedding) -> Result<(AnyHost, Vec<u32>), CliError> {
    let net = AnyHost::for_xtree_height(tag, emb.height).ok_or_else(|| {
        CliError::Usage(format!(
            "--host {hname} is unavailable at X-tree height {} (try a smaller guest)",
            emb.height
        ))
    })?;
    let map = guest_map(tag, emb).expect("tag validated by AnyHost");
    Ok((net, map))
}

/// The Theorem-4 universal-graph backend of `simulate --host universal`.
fn universal_backend(emb: &XEmbedding) -> Result<(AnyHost, Vec<u32>), CliError> {
    host_backend(xtree_sim::host::HOST_UNIVERSAL, "universal", emb)
}

/// `embed --host {xtree,hypercube,universal}`: one Theorem-1 embedding,
/// measured on the selected servable host backend — the CLI face of the
/// host subsystem (dilation = routed distance, congestion = shortest-path
/// link crossings), mirroring what `serve` computes for the same tag.
fn cmd_embed_on_host(
    a: &Args,
    tag: u8,
    hname: &str,
    tree: &BinaryTree,
    family: &str,
) -> Result<String, CliError> {
    let emb = theorem1::embed(tree).emb;
    let (net, map) = host_backend(tag, hname, &emb)?;
    let dilation = tree
        .edges()
        .map(|(p, c)| net.distance(map[p.index()], map[c.index()]))
        .max()
        .unwrap_or(0);
    let max_load = compute_load(&net, tree, &map);
    let cong = congestion(&net, tree, &map).map_err(|e| CliError::Runtime(e.to_string()))?;
    let weighted = match parse_traffic(a)? {
        Some(t) => {
            let demand = t.edge_demand(tree, a.num_or("seed", 7u64)?);
            let w = weighted_congestion(&net, tree, &map, &demand)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            Some((t.label(), w))
        }
        None => None,
    };
    let vertices = net.node_count();
    let expansion = vertices as f64 / tree.len() as f64;
    if a.flag("json") {
        let mut obj = Value::object()
            .with(
                "guest",
                Value::object()
                    .with("family", family)
                    .with("nodes", tree.len()),
            )
            .with("host", hname)
            .with("host_vertices", vertices)
            .with("degree_bound", net.degree_bound())
            .with("dilation", dilation)
            .with("max_load", max_load)
            .with("expansion", expansion)
            .with("injective", max_load <= 1)
            .with("congestion", cong);
        if let Some((label, w)) = &weighted {
            obj.set("traffic", label.as_str());
            obj.set("weighted_congestion", *w);
        }
        if a.flag("map") {
            obj.set("map", map.iter().copied().collect::<Value>());
        }
        Ok(xtree_json::to_string_pretty(&obj))
    } else {
        let mut out = format!(
            "guest: {family} ({} nodes)\nhost: {hname} ({vertices} vertices, degree ≤ {})\ndilation: {dilation}\nload: {max_load}\nexpansion: {expansion:.4}\ninjective: {}\ncongestion: {cong}",
            tree.len(),
            net.degree_bound(),
            max_load <= 1
        );
        if let Some((label, w)) = &weighted {
            out.push_str(&format!("\ntraffic: {label}\nweighted congestion: {w}"));
        }
        Ok(out)
    }
}

fn cmd_embed(a: &Args) -> Result<String, CliError> {
    let (tree, family) = make_tree(a)?;
    if let Some(hname) = a.get("host") {
        if a.get("target").is_some() {
            return Err("--host and --target are mutually exclusive".into());
        }
        let tag = parse_host_label(hname)
            .ok_or_else(|| format!("unknown host `{hname}` (one of {})", HOST_LABELS.join("|")))?;
        if tag != HOST_XTREE {
            return cmd_embed_on_host(a, tag, hname, &tree, &family);
        }
        // `--host xtree` is the default target path below.
    }
    let traffic = parse_traffic(a)?;
    let target = a.get_or("target", "xtree");
    let n = tree.len();
    match target {
        "xtree" | "xtree-injective" => {
            let res = theorem1::embed(&tree);
            let emb = if target == "xtree" {
                res.emb
            } else {
                theorem2::injectivize(&res.emb)
            };
            let stats = evaluate(&tree, &emb);
            let host = XTreeHost::new(emb.height);
            let congestion = metrics::edge_congestion(&tree, &emb, host.xtree());
            // Traffic-weighted congestion over the same host links: each
            // guest edge counts with its scenario demand instead of 1.
            let weighted = match &traffic {
                Some(t) => {
                    let demand = t.edge_demand(&tree, a.num_or("seed", 7u64)?);
                    let w = weighted_congestion(&host, &tree, &emb, &demand)
                        .map_err(|e| CliError::Runtime(e.to_string()))?;
                    Some((t.label(), w))
                }
                None => None,
            };
            if a.flag("json") {
                let mut obj = Value::object()
                    .with(
                        "guest",
                        Value::object().with("family", family).with("nodes", n),
                    )
                    .with("host", format!("X({})", emb.height))
                    .with("dilation", stats.dilation)
                    .with("max_load", stats.max_load)
                    .with("expansion", stats.expansion)
                    .with("injective", stats.injective)
                    .with("congestion", congestion)
                    .with("condition3_violations", stats.condition3_violations);
                if let Some((label, w)) = &weighted {
                    obj.set("traffic", label.as_str());
                    obj.set("weighted_congestion", *w);
                }
                if a.flag("map") {
                    obj.set(
                        "map",
                        emb.map
                            .iter()
                            .map(|&h| Address::from_heap_id(h as usize).to_string())
                            .collect::<Value>(),
                    );
                }
                Ok(xtree_json::to_string_pretty(&obj))
            } else {
                let mut out = format!(
                    "guest: {family} ({n} nodes)\nhost: X({})\ndilation: {}\nload: {}\nexpansion: {:.4}\ninjective: {}\ncongestion: {}",
                    emb.height, stats.dilation, stats.max_load, stats.expansion,
                    stats.injective, congestion
                );
                if let Some((label, w)) = &weighted {
                    out.push_str(&format!("\ntraffic: {label}\nweighted congestion: {w}"));
                }
                Ok(out)
            }
        }
        "hypercube" | "hypercube-injective" => {
            if traffic.is_some() {
                return Err("--traffic supports --target xtree|xtree-injective only".into());
            }
            let q = if target == "hypercube" {
                hypercube::embed_theorem3(&tree)
            } else {
                hypercube::embed_corollary8(&tree)
            };
            if a.flag("json") {
                let mut obj = Value::object()
                    .with(
                        "guest",
                        Value::object().with("family", family).with("nodes", n),
                    )
                    .with("host", format!("Q_{}", q.dim))
                    .with("dilation", q.dilation(&tree))
                    .with("max_load", q.max_load())
                    .with("expansion", q.expansion())
                    .with("injective", q.is_injective());
                if a.flag("map") {
                    obj.set("map", q.map.iter().copied().collect::<Value>());
                }
                Ok(xtree_json::to_string_pretty(&obj))
            } else {
                Ok(format!(
                    "guest: {family} ({n} nodes)\nhost: Q_{}\ndilation: {}\nload: {}\nexpansion: {:.4}\ninjective: {}",
                    q.dim, q.dilation(&tree), q.max_load(), q.expansion(), q.is_injective()
                ))
            }
        }
        other => Err(format!("unknown target `{other}`").into()),
    }
}

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

fn parse_backoff(spec: &str) -> Result<Backoff, String> {
    let bad = || format!("--backoff: `{spec}` is not fixed:K or exp:BASE:CAP");
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["fixed", k] => k.parse().map(Backoff::Fixed).map_err(|_| bad()),
        ["exp", b, c] => {
            let base = b.parse().map_err(|_| bad())?;
            let cap = c.parse().map_err(|_| bad())?;
            Ok(Backoff::Exponential { base, cap })
        }
        _ => Err(bad()),
    }
}

fn backoff_str(b: Backoff) -> String {
    match b {
        Backoff::Fixed(k) => format!("fixed:{k}"),
        Backoff::Exponential { base, cap } => format!("exp:{base}:{cap}"),
    }
}

/// `--metrics FILE --metrics-format jsonl|prom`: the metrics file that
/// `simulate`, `resume`, `serve` and `cluster` write when they finish.
struct MetricsOut<'a> {
    path: Option<&'a str>,
    format: Format,
}

impl<'a> MetricsOut<'a> {
    fn parse(a: &'a Args) -> Result<Self, String> {
        let format = a.get_or("metrics-format", "jsonl").parse();
        let format = format.map_err(|e| format!("--metrics-format: {e}"))?;
        Ok(MetricsOut {
            path: a.get("metrics"),
            format,
        })
    }

    /// Writes the metrics `render` produces in the chosen format, if a
    /// file was asked for.
    fn write(&self, render: impl FnOnce(Format) -> String) -> Result<(), CliError> {
        let Some(path) = self.path else {
            return Ok(());
        };
        std::fs::write(path, render(self.format))
            .map_err(|e| CliError::Io(format!("--metrics {path}: {e}")))
    }
}

/// Telemetry outputs of `simulate`, `None` when no telemetry flag was
/// given (the zero-overhead `NopSink` path).
struct TelemetryArgs<'a> {
    trace: Option<&'a str>,
    metrics: MetricsOut<'a>,
    verify: Option<&'a str>,
}

impl<'a> TelemetryArgs<'a> {
    fn parse(a: &'a Args) -> Result<Option<Self>, String> {
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
struct TelemetrySummary {
    events: u64,
    trace_bytes: usize,
    /// Top edges by hop count, as `(from, to, hops)`.
    hottest: Vec<(u32, u32, u64)>,
    verified: bool,
}

impl TelemetrySummary {
    fn line(&self) -> String {
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

    fn to_json(&self) -> Value {
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

/// `simulate` output rows: fault-free or degraded-delivery reports.
enum Reports {
    Plain(Vec<SimReport>),
    Faulted(Vec<FaultSimReport>),
}

fn simulate_reports<H: Host, M: HostMap + Sync, S: Sink>(
    net: &H,
    tree: &BinaryTree,
    emb: &M,
    faults: &Option<FaultArgs>,
    sink: &mut S,
) -> Result<Reports, CliError> {
    match faults {
        // No faults requested: the plan-free path, bit-identical to the
        // pre-fault simulator.
        None => Ok(Reports::Plain(
            simulate_all_with(net, tree, emb, sink)
                .map_err(|e| CliError::Runtime(e.to_string()))?,
        )),
        Some(f) => {
            let plan = f.plan(net.csr())?;
            Ok(Reports::Faulted(
                simulate_all_faulted_with(net, tree, emb, &plan, sink)
                    .map_err(|e| CliError::Runtime(e.to_string()))?,
            ))
        }
    }
}

/// Runs the workloads, threading a trace recorder + metrics sink through
/// the engine when any telemetry flag is present and writing/verifying the
/// requested files afterwards. `Sink` dispatch is static, so the
/// no-telemetry path monomorphizes to the uninstrumented loop.
fn simulate_telemetry<H: Host, M: HostMap + Sync>(
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

/// Writes/verifies the telemetry files a run asked for and distils the
/// user-facing summary. Shared by the plain, supervised, and resumed
/// simulation paths.
fn finish_telemetry<H: Host>(
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

fn cmd_simulate(a: &Args) -> Result<String, CliError> {
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
            let (net, map) = universal_backend(&emb)?;
            simulate_telemetry(&net, &tree, &map, &faults, &tel)?
        }
        other => return Err(format!("unknown host `{other}`").into()),
    };
    let keep = |w: &str| workload == "all" || w == workload;
    match reports {
        Reports::Plain(reports) => {
            let reports: Vec<_> = reports.into_iter().filter(|r| keep(r.workload)).collect();
            if reports.is_empty() {
                return Err(format!("unknown workload `{workload}`").into());
            }
            if a.flag("json") {
                let rows: Value = reports
                    .iter()
                    .map(|r| {
                        Value::object()
                            .with("workload", r.workload)
                            .with("cycles", r.cycles)
                            .with("ideal_cycles", r.ideal_cycles)
                            .with("worst_round_slowdown", r.worst_round_slowdown)
                            .with("max_link_traffic", r.max_link_traffic)
                    })
                    .collect();
                let mut doc = Value::object()
                    .with(
                        "guest",
                        Value::object()
                            .with("family", family.as_str())
                            .with("nodes", tree.len()),
                    )
                    .with("host", host)
                    .with("reports", rows);
                if let Some((label, w)) = &weighted {
                    doc.set("traffic", label.as_str());
                    doc.set("weighted_congestion", *w);
                }
                if let Some(s) = &telemetry {
                    doc.set("telemetry", s.to_json());
                }
                Ok(xtree_json::to_string_pretty(&doc))
            } else {
                let mut out = format!("guest: {family} ({} nodes) on {host}\n", tree.len());
                if let Some((label, w)) = &weighted {
                    out.push_str(&format!("traffic {label}: weighted congestion {w}\n"));
                }
                out.push_str(&format!(
                    "{:<10} {:>8} {:>8} {:>9} {:>13}\n",
                    "workload", "cycles", "ideal", "slowdown", "link traffic"
                ));
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
                if let Some(s) = &telemetry {
                    out.push_str(&s.line());
                    out.push('\n');
                }
                Ok(out.trim_end().to_string())
            }
        }
        Reports::Faulted(reports) => {
            let Some(f) = faults.as_ref() else {
                return Err("internal error: faulted reports without fault parameters".into());
            };
            let reports: Vec<_> = reports.into_iter().filter(|r| keep(r.workload)).collect();
            if reports.is_empty() {
                return Err(format!("unknown workload `{workload}`").into());
            }
            if a.flag("json") {
                let rows: Value = reports
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
                    .collect();
                let fault = Value::object()
                    .with("rate", f.rate)
                    .with("node_rate", f.node_rate)
                    .with("seed", f.seed)
                    .with("window", FAULT_WINDOW)
                    .with(
                        "repair_after",
                        f.repair_after.map_or(Value::Null, Value::from),
                    );
                let mut doc = Value::object()
                    .with(
                        "guest",
                        Value::object()
                            .with("family", family.as_str())
                            .with("nodes", tree.len()),
                    )
                    .with("host", host)
                    .with("fault", fault)
                    .with("reports", rows);
                if let Some((label, w)) = &weighted {
                    doc.set("traffic", label.as_str());
                    doc.set("weighted_congestion", *w);
                }
                if let Some(s) = &telemetry {
                    doc.set("telemetry", s.to_json());
                }
                Ok(xtree_json::to_string_pretty(&doc))
            } else {
                let mut out = format!(
                    "guest: {family} ({} nodes) on {host}, {}\n",
                    tree.len(),
                    f.describe()
                );
                if let Some((label, w)) = &weighted {
                    out.push_str(&format!("traffic {label}: weighted congestion {w}\n"));
                }
                out.push_str(&format!(
                    "{:<10} {:>8} {:>8} {:>9} {:>11} {:>9} {:>8}\n",
                    "workload", "cycles", "ideal", "slowdown", "delivered", "stranded", "stalled"
                ));
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
                if let Some(s) = &telemetry {
                    out.push_str(&s.line());
                    out.push('\n');
                }
                Ok(out.trim_end().to_string())
            }
        }
    }
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

/// Renders a finished session: the faulted-style delivery table plus the
/// recovery totals line (and `"recovery"` JSON object) when supervised.
#[allow(clippy::too_many_arguments)]
fn session_output(
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
        let rows: Value = reports
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
            .collect();
        let mut doc = Value::object()
            .with(
                "guest",
                Value::object().with("family", family).with("nodes", nodes),
            )
            .with("host", "xtree")
            .with("run", origin)
            .with("reports", rows);
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
        out.push_str(&format!(
            "{:<10} {:>8} {:>8} {:>9} {:>11} {:>9} {:>8}\n",
            "workload", "cycles", "ideal", "slowdown", "delivered", "stranded", "stalled"
        ));
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

/// `resume FILE`: continue a checkpointed run to completion, appending to
/// the trace stream stored inside the checkpoint.
fn cmd_resume(a: &Args) -> Result<String, CliError> {
    let path = a
        .get("from")
        .ok_or("resume: missing checkpoint path (usage: xtree-cli resume FILE)")?;
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(format!("resume {path}: {e}")))?;
    let ck =
        decode_checkpoint(&bytes).map_err(|e| CliError::Runtime(format!("resume {path}: {e}")))?;
    let cfg = xtree_json::from_str(&ck.config)
        .map_err(|e| format!("resume {path}: bad config blob: {e}"))?;
    let family_name = cfg["family"]
        .as_str()
        .ok_or("resume: config lacks `family`")?
        .to_string();
    let nodes = cfg["nodes"]
        .as_u64()
        .ok_or("resume: config lacks `nodes`")? as usize;
    let seed = cfg["seed"].as_u64().ok_or("resume: config lacks `seed`")?;
    let recover = cfg["recover"].as_bool().unwrap_or(false);
    let policy = if recover {
        let default = RecoveryPolicy::default();
        Some(RecoveryPolicy {
            max_retries: cfg["max_retries"].as_u64().unwrap_or(8) as u32,
            backoff: match cfg["backoff"].as_str() {
                Some(spec) => parse_backoff(spec)?,
                None => default.backoff,
            },
            ..default
        })
    } else {
        None
    };
    let family = TreeFamily::parse(&family_name)
        .ok_or_else(|| format!("resume: unknown family `{family_name}` in checkpoint"))?;
    let tree = family.generate_seeded(nodes, seed);
    let net = XTreeHost::new(ck.embedding.height);
    let mut trace = TraceRecorder::resume(ck.trace)
        .map_err(|e| CliError::Runtime(format!("resume {path}: trace: {e}")))?;
    let mut met = MetricsSink::new();
    let mut session = Session::resume(&net, &tree, ck.embedding, policy, &ck.session)
        .map_err(|e| CliError::Runtime(format!("resume {path}: {e}")))?;
    session
        .run_with(usize::MAX, &mut Tee(&mut trace, &mut met))
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let tel = TelemetryArgs::parse(a)?;
    let telemetry = match &tel {
        Some(t) => Some(finish_telemetry(&net, t, &trace, &mut met)?),
        None => None,
    };
    let origin = format!("resumed from {path}");
    session_output(
        a,
        &family.label(),
        nodes,
        &origin,
        session.reports(),
        session.totals(),
        recover,
        telemetry.as_ref(),
    )
}

fn cmd_info(a: &Args) -> Result<String, CliError> {
    let r: u8 = a.num_or("height", 3u8)?;
    // X-tree and hypercube stats are closed-form; 30 keeps the vertex
    // counts inside u64 arithmetic and graph construction affordable.
    if r > 30 {
        return Err("--height must be ≤ 30".into());
    }
    let network = a.get_or("network", "xtree");
    let (name, nodes, edges, degree, diameter) = match network {
        "xtree" => {
            // Everything here is closed-form (verified against the built
            // graph in the tests below), so heights past the construction
            // limit still answer instantly.
            let d = if r == 0 { 0 } else { 2 * u32::from(r) - 1 };
            let degree = match r {
                0 => 0,
                1 => 2,
                2 => 4,
                _ => 5,
            };
            (
                format!("X({r})"),
                xtree_topology::xtree::xtree_node_count(r),
                xtree_topology::xtree::xtree_edge_count(r),
                degree,
                d,
            )
        }
        "hypercube" => {
            let n = 1usize << r;
            (
                format!("Q_{r}"),
                n,
                usize::from(r) * (n >> 1),
                usize::from(r),
                u32::from(r),
            )
        }
        "ccc" => {
            let r = r.clamp(3, 10); // keep the exact BFS diameter affordable
            let c = CubeConnectedCycles::new(r);
            (
                format!("CCC({r})"),
                c.node_count(),
                c.edge_count(),
                c.max_degree(),
                c.graph().diameter(),
            )
        }
        "butterfly" => {
            let r = r.clamp(1, 10);
            let b = Butterfly::new(r);
            (
                format!("BF({r})"),
                b.node_count(),
                b.edge_count(),
                b.max_degree(),
                b.graph().diameter(),
            )
        }
        "mesh" => {
            let k = 1usize << r.min(6);
            let m = Mesh2D::new(k, k);
            (
                format!("mesh {k}x{k}"),
                m.node_count(),
                m.edge_count(),
                m.max_degree(),
                2 * (k as u32 - 1),
            )
        }
        other => return Err(format!("unknown network `{other}`").into()),
    };
    let mut out = format!(
        "{name}: {nodes} vertices, {edges} edges, max degree {degree}, diameter {diameter}"
    );
    if network == "xtree" && r <= 5 {
        out.push('\n');
        out.push_str(&XTree::new(r).render_ascii());
    }
    Ok(out.trim_end().to_string())
}

fn cmd_trace(a: &Args) -> Result<String, CliError> {
    let (tree, family) = make_tree(a)?;
    let res = theorem1::embed(&tree);
    let r = res.emb.height;
    let mut out = format!(
        "guest: {family} ({} nodes), host X({r}) — Δ(j, i) measured/bound\n",
        tree.len()
    );
    out.push_str(&format!("{:>6}", ""));
    for j in 0..=r {
        out.push_str(&format!("{:>12}", format!("j={j}")));
    }
    out.push('\n');
    for (idx, row) in res.trace.iter().enumerate() {
        let i = idx as u8 + 1;
        out.push_str(&format!("{:>6}", format!("i={i}")));
        for (j, &m) in row.iter().enumerate() {
            let cell = match theorem1::paper_bound(r, j as u8, i) {
                Some(b) => format!("{m}/{b}"),
                None => format!("{m}/-"),
            };
            out.push_str(&format!("{cell:>12}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("log: {:?}", res.log));
    Ok(out)
}

/// `--chaos-seed S [--chaos-profile P]` on `serve`/`cluster`: the seeded
/// fault-injection plan, or `None` when the seed flag is absent.
fn parse_chaos(a: &Args) -> Result<Option<xtree_server::ChaosPlan>, CliError> {
    let Some(seed) = a.get("chaos-seed") else {
        if a.get("chaos-profile").is_some() {
            return Err("--chaos-profile requires --chaos-seed".into());
        }
        return Ok(None);
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("--chaos-seed: `{seed}` is not a number"))?;
    let profile = xtree_server::ChaosProfile::parse(a.get_or("chaos-profile", "medium"))
        .map_err(|e| CliError::Usage(format!("--chaos-profile: {e}")))?;
    Ok(Some(xtree_server::ChaosPlan::new(seed, profile)))
}

/// `--io-timeout-ms T`: per-direction socket timeout for server-side
/// connections; 0 (the default) keeps blocking I/O.
fn parse_io_timeout(a: &Args) -> Result<Option<Duration>, CliError> {
    let ms: u64 = a.num_or("io-timeout-ms", 0u64)?;
    Ok((ms > 0).then(|| Duration::from_millis(ms)))
}

/// `serve`: run the daemon until a wire `Shutdown` request drains it.
/// The listening line goes to stdout (flushed) *before* blocking, so
/// scripts can wait for readiness; the returned summary prints after the
/// drain. `--metrics FILE` writes the final server metrics on the way out.
fn cmd_serve(a: &Args) -> Result<String, CliError> {
    let host_name = a.get_or("host", "xtree");
    let default_host = parse_host_label(host_name).ok_or_else(|| {
        format!(
            "unknown host `{host_name}` (one of {})",
            HOST_LABELS.join("|")
        )
    })?;
    let config = ServerConfig {
        addr: a.get_or("addr", "127.0.0.1:7171").to_string(),
        workers: a.num_or("workers", 4usize)?,
        queue_cap: a.num_or("queue-cap", 64usize)?,
        cache_cap: a.num_or("cache-cap", 256usize)?,
        io_timeout: parse_io_timeout(a)?,
        chaos: parse_chaos(a)?,
        default_host,
    };
    if config.workers == 0 {
        return Err("--workers must be ≥ 1".into());
    }
    if config.queue_cap == 0 {
        return Err("--queue-cap must be ≥ 1".into());
    }
    let metrics_out = MetricsOut::parse(a)?;
    let mut server = Server::spawn(&config)
        .map_err(|e| CliError::Io(format!("serve: bind {}: {e}", config.addr)))?;
    {
        use std::io::Write;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(
            stdout,
            "xtree-server listening on {} ({} workers, queue {}, cache {}, host {host_name})",
            server.local_addr(),
            config.workers,
            config.queue_cap,
            config.cache_cap
        );
        let _ = stdout.flush();
    }
    server.wait();
    metrics_out.write(|f| server.metrics(f))?;
    Ok(format!(
        "xtree-server drained and stopped ({} requests bounced overloaded)",
        server.overloaded()
    ))
}

/// `cluster`: spawn M shard daemons as child processes on ephemeral
/// ports, put the consistent-hash router in front of them, and supervise
/// until a wire `Shutdown` drains the whole tier. Readiness lines (one
/// per shard, then the router's) go to stdout flushed *before* blocking,
/// so scripts — and the CI kill-a-shard smoke — can scrape pids, shard
/// addresses, and the router address.
fn cmd_cluster(a: &Args) -> Result<String, CliError> {
    let shards: usize = a.num_or("shards", 2usize)?;
    if !(1..=64).contains(&shards) {
        return Err("--shards must be within 1..=64".into());
    }
    let workers: usize = a.num_or("workers", 4usize)?;
    let queue_cap: usize = a.num_or("queue-cap", 64usize)?;
    let cache_cap: usize = a.num_or("cache-cap", 256usize)?;
    if workers == 0 {
        return Err("--workers must be ≥ 1".into());
    }
    if queue_cap == 0 {
        return Err("--queue-cap must be ≥ 1".into());
    }
    let probe_ms: u64 = a.num_or("probe-interval-ms", 100u64)?;
    if probe_ms == 0 {
        return Err("--probe-interval-ms must be ≥ 1".into());
    }
    let fail_after: u32 = a.num_or("fail-after", 3u32)?;
    if fail_after == 0 {
        return Err("--fail-after must be ≥ 1".into());
    }
    let replay = ReconnectPolicy {
        max_retries: a.num_or("max-retries", 8u32)?,
        backoff: parse_backoff(a.get_or("backoff", "exp:25:800"))?,
    };
    let restart_backoff = parse_backoff(a.get_or("restart-backoff", "fixed:100"))?;
    let metrics_out = MetricsOut::parse(a)?;

    // Validate the chaos/timeout flags up front, then forward them
    // verbatim into every shard child: the *shards'* transports misbehave
    // while the router stays honest, which is the failover scenario the
    // cluster tier exists for.
    let chaos = parse_chaos(a)?;
    let io_timeout = parse_io_timeout(a)?;
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("cluster: cannot locate own binary: {e}")))?;
    let mut shard_args: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &workers.to_string(),
        "--queue-cap",
        &queue_cap.to_string(),
        "--cache-cap",
        &cache_cap.to_string(),
    ]
    .map(String::from)
    .to_vec();
    if io_timeout.is_some() {
        shard_args.extend([
            "--io-timeout-ms".into(),
            a.get_or("io-timeout-ms", "0").to_string(),
        ]);
    }
    if let Some(plan) = &chaos {
        shard_args.extend([
            "--chaos-seed".into(),
            plan.seed.to_string(),
            "--chaos-profile".into(),
            a.get_or("chaos-profile", "medium").to_string(),
        ]);
    }
    let cmd = ShardCommand {
        program: exe,
        args: shard_args,
    };
    let readiness = Duration::from_secs(10);
    let mut children = Vec::with_capacity(shards);
    {
        use std::io::Write;
        let mut stdout = std::io::stdout().lock();
        for i in 0..shards {
            let child = spawn_shard(&cmd, readiness)
                .map_err(|e| CliError::Io(format!("cluster: shard {i}: {e}")))?;
            let _ = writeln!(
                stdout,
                "shard {i}: pid {} listening on {}",
                child.pid, child.addr
            );
            children.push(child);
        }
        let _ = stdout.flush();
    }
    let config = RouterConfig {
        addr: a.get_or("addr", "127.0.0.1:7170").to_string(),
        shards: children.iter().map(|c| c.addr).collect(),
        ring_seed: a.num_or("ring-seed", 1991u64)?,
        vnodes: a.num_or("vnodes", HashRing::DEFAULT_VNODES)?,
        probe_interval: Duration::from_millis(probe_ms),
        fail_after,
        replay,
    };
    let mut router = Router::spawn(&config)
        .map_err(|e| CliError::Io(format!("cluster: bind {}: {e}", config.addr)))?;
    let supervisor = Supervisor::spawn(
        children,
        cmd,
        router.shard_set(),
        router.metrics(),
        restart_backoff,
        readiness,
        Some(router.warmup_fn()),
    );
    router.attach_supervisor(supervisor);
    {
        use std::io::Write;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(
            stdout,
            "xtree-cluster router listening on {} ({} shards, {} vnodes, fail after {})",
            router.local_addr(),
            shards,
            config.vnodes,
            fail_after
        );
        let _ = stdout.flush();
    }
    let metrics = router.metrics();
    router.wait();
    metrics_out.write(|f| f.render(ClusterMetrics::PREFIX, &metrics.families()))?;
    Ok(format!(
        "xtree-cluster drained and stopped ({} replayed, {} restarts, {} unreachable)",
        metrics.total(ShardCount::Replayed),
        metrics.get(ClusterCount::Restarts),
        metrics.get(ClusterCount::Unreachable)
    ))
}

/// Resolves `--workload W|all` to the wire's workload byte.
fn wire_workload(name: &str) -> Result<u8, CliError> {
    if name == "all" {
        return Ok(xtree_server::WORKLOAD_ALL);
    }
    WORKLOADS
        .iter()
        .position(|&w| w == name)
        .map(|i| i as u8)
        .ok_or_else(|| CliError::Usage(format!("unknown workload `{name}`")))
}

/// `request OP`: one call against a running daemon. Server-side failures
/// (`Overloaded`, `Error`) exit nonzero so shell pipelines can react.
fn cmd_request(a: &Args) -> Result<String, CliError> {
    let op = a
        .get("op")
        .ok_or("request: missing operation (usage: xtree-cli request OP --addr HOST:PORT)")?;
    let addr = a.get("addr").ok_or("request: missing --addr HOST:PORT")?;
    let family_name = a.get_or("family", "random-bst");
    let family = TreeFamily::ALL
        .iter()
        .position(|f| f.name() == family_name)
        .ok_or_else(|| CliError::Usage(format!("unknown family `{family_name}`")))?
        as u8;
    let nodes: u64 = a.num_or("nodes", 1008u64)?;
    let seed: u64 = a.num_or("seed", 7u64)?;
    let theorem: u8 = a.num_or("theorem", 1u8)?;
    let req = match op {
        "embed" => Request::Embed {
            family,
            nodes,
            seed,
            theorem,
        },
        "simulate" => Request::Simulate {
            family,
            nodes,
            seed,
            theorem,
            workload: wire_workload(a.get_or("workload", "all"))?,
        },
        "stats" => Request::Stats,
        "health" => Request::Health,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown request op `{other}`").into()),
    };
    let deadline_ms: u64 = a.num_or("deadline-ms", 0u64)?;
    let budget = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    // Absent flag = no trailing host field on the wire (the server picks
    // its own default), so pre-host invocations send pre-host bytes.
    let host = match a.get("host") {
        Some(h) => Some(
            parse_host_label(h)
                .ok_or_else(|| format!("unknown host `{h}` (one of {})", HOST_LABELS.join("|")))?,
        ),
        None => None,
    };
    let mut client =
        Client::connect(addr).map_err(|e| CliError::Io(format!("request: connect {addr}: {e}")))?;
    let resp = client
        .call_host(&req, budget, host)
        .map_err(|e| CliError::Runtime(format!("request: {e}")))?;
    render_response(a, &resp)
}

/// The name a wire workload byte prints as.
fn workload_name(w: u8) -> &'static str {
    WORKLOADS.get(usize::from(w)).copied().unwrap_or("all")
}

fn render_response(a: &Args, resp: &Response) -> Result<String, CliError> {
    match resp {
        Response::EmbedOk {
            height,
            dilation,
            max_load,
            congestion,
            injective,
            cached,
        } => {
            // The server reports the X-tree height it embedded at; name
            // the backend the request actually asked to be scored on.
            let host = match a.get("host") {
                Some(h) if h != "xtree" => format!("{h} (X({height}) embedding)"),
                _ => format!("X({height})"),
            };
            if a.flag("json") {
                Ok(xtree_json::to_string_pretty(
                    &Value::object()
                        .with("host", host)
                        .with("dilation", *dilation)
                        .with("max_load", *max_load)
                        .with("congestion", *congestion)
                        .with("injective", *injective)
                        .with("cached", *cached),
                ))
            } else {
                Ok(format!(
                    "host: {host}\ndilation: {dilation}\nload: {max_load}\ncongestion: {congestion}\ninjective: {injective}\ncached: {cached}"
                ))
            }
        }
        Response::SimulateOk { cached, reports } => {
            if a.flag("json") {
                let rows: Value = reports
                    .iter()
                    .map(|r| {
                        Value::object()
                            .with("workload", workload_name(r.workload))
                            .with("cycles", r.cycles)
                            .with("ideal_cycles", r.ideal_cycles)
                            .with("max_link_traffic", r.max_link_traffic)
                    })
                    .collect();
                Ok(xtree_json::to_string_pretty(
                    &Value::object()
                        .with("cached", *cached)
                        .with("reports", rows),
                ))
            } else {
                let mut out = format!(
                    "{:<10} {:>8} {:>8} {:>13}   (cached: {cached})\n",
                    "workload", "cycles", "ideal", "link traffic"
                );
                for r in reports {
                    out.push_str(&format!(
                        "{:<10} {:>8} {:>8} {:>13}\n",
                        workload_name(r.workload),
                        r.cycles,
                        r.ideal_cycles,
                        r.max_link_traffic
                    ));
                }
                Ok(out.trim_end().to_string())
            }
        }
        Response::StatsOk(s) => {
            if a.flag("json") {
                Ok(xtree_json::to_string_pretty(
                    &Value::object()
                        .with("requests", s.requests)
                        .with("embeds", s.embeds)
                        .with("simulates", s.simulates)
                        .with("overloaded", s.overloaded)
                        .with("errors", s.errors)
                        .with("cache_hits", s.cache_hits)
                        .with("cache_misses", s.cache_misses)
                        .with("cache_entries", s.cache_entries)
                        .with("queue_depth", s.queue_depth)
                        .with("latency_count", s.latency_count)
                        .with("latency_p50_us", s.latency_p50_us)
                        .with("latency_p95_us", s.latency_p95_us)
                        .with("latency_p99_us", s.latency_p99_us)
                        .with("sim_hops", s.sim_hops)
                        .with("sim_delivered", s.sim_delivered)
                        .with("partial", s.partial),
                ))
            } else {
                Ok(format!(
                    "requests: {}{} ({} embed, {} simulate)\noverloaded: {}\nerrors: {}\n\
                     cache: {} hits / {} misses, {} entries\nqueue depth: {}\n\
                     latency: p50 {}us p95 {}us p99 {}us over {} requests\n\
                     sim: {} hops, {} delivered",
                    s.requests,
                    if s.partial {
                        " [partial: not every shard answered]"
                    } else {
                        ""
                    },
                    s.embeds,
                    s.simulates,
                    s.overloaded,
                    s.errors,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_entries,
                    s.queue_depth,
                    s.latency_p50_us,
                    s.latency_p95_us,
                    s.latency_p99_us,
                    s.latency_count,
                    s.sim_hops,
                    s.sim_delivered
                ))
            }
        }
        Response::HealthOk { info } => {
            if a.flag("json") {
                let mut obj = Value::object().with("ok", true);
                if let Some(i) = info {
                    obj.set("queue_depth", i.queue_depth);
                    obj.set("cache_hits", i.cache_hits);
                    obj.set("cache_misses", i.cache_misses);
                    obj.set("uptime_s", i.uptime_s);
                }
                Ok(xtree_json::to_string_pretty(&obj))
            } else {
                Ok(match info {
                    Some(i) => format!(
                        "ok (queue {}, cache {} hits / {} misses, up {}s)",
                        i.queue_depth, i.cache_hits, i.cache_misses, i.uptime_s
                    ),
                    None => "ok".into(),
                })
            }
        }
        Response::ShutdownOk { pending } => {
            Ok(format!("shutting down ({pending} requests draining)"))
        }
        Response::Overloaded { depth, cap } => Err(CliError::Runtime(format!(
            "server overloaded (queue {depth}/{cap}); retry later"
        ))),
        Response::Error { code, message } => {
            Err(CliError::Runtime(format!("server error {code}: {message}")))
        }
    }
}

fn cmd_sizes(a: &Args) -> Result<String, CliError> {
    let max_r: u8 = a.num_or("max-r", 10u8)?;
    let mut out =
        String::from("r  X-tree size  Theorem-1 guest n = 16(2^{r+1}-1)  Theorem-4 form\n");
    for r in 0..=max_r.min(20) {
        out.push_str(&format!(
            "{r:<2} {:>11}  {:>33}  2^{} - 16\n",
            (1u64 << (r + 1)) - 1,
            generate::theorem1_size(r),
            r + 5
        ));
    }
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_topology::Hypercube;

    fn run_str(s: &str) -> Result<String, String> {
        run(s.split_whitespace().map(String::from).collect()).map_err(|e| e.message().to_string())
    }

    #[test]
    fn errors_carry_exit_codes() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        // Bad invocation → usage, exit 2.
        let e = run(argv("embed --family nope")).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        // Missing file → I/O, exit 3.
        let e = run(argv("resume /no/such/file.ckpt")).unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e:?}");
        // Unreachable server → I/O, exit 3.
        let e = run(argv("request health --addr 127.0.0.1:1")).unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e:?}");
    }

    #[test]
    fn request_round_trip_against_spawned_server() {
        let mut server = Server::spawn(&ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let health = run_str(&format!("request health --addr {addr}")).unwrap();
        assert!(
            health.starts_with("ok (queue 0,"),
            "health must report the load signals: {health}"
        );
        let out = run_str(&format!(
            "request embed --addr {addr} --family path --nodes 240"
        ))
        .unwrap();
        assert!(out.contains("host: X(3)"), "{out}");
        assert!(out.contains("load: 16"), "{out}");
        let out = run_str(&format!(
            "request simulate --addr {addr} --family path --nodes 240 --workload broadcast --json"
        ))
        .unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["reports"].as_array().unwrap().len(), 1);
        assert_eq!(v["cached"], true, "embed warmed the cache: {out}");
        let out = run_str(&format!("request stats --addr {addr}")).unwrap();
        assert!(out.contains("cache: 1 hits"), "{out}");
        let out = run_str(&format!("request shutdown --addr {addr}")).unwrap();
        assert!(out.contains("shutting down"), "{out}");
        server.wait();
    }

    #[test]
    fn embed_text_output() {
        let out = run_str("embed --family path --nodes 240").unwrap();
        assert!(out.contains("host: X(3)"));
        assert!(out.contains("load: 16"));
    }

    #[test]
    fn embed_json_output_parses() {
        let out = run_str("embed --family caterpillar --nodes 112 --json --map").unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["guest"]["nodes"], 112);
        assert!(v["dilation"].as_u64().unwrap() <= 3);
        assert_eq!(v["map"].as_array().unwrap().len(), 112);
    }

    #[test]
    fn embed_injective_targets() {
        let out = run_str("embed --family broom --nodes 48 --target xtree-injective").unwrap();
        assert!(out.contains("injective: true"));
        let out =
            run_str("embed --family broom --nodes 48 --target hypercube-injective --json").unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["injective"], true);
    }

    #[test]
    fn simulate_filters_workloads() {
        let out = run_str("simulate --family path --nodes 112 --workload broadcast").unwrap();
        assert!(out.contains("broadcast"));
        assert!(!out.contains("exchange"));
    }

    #[test]
    fn simulate_json() {
        let out = run_str("simulate --family random-bst --nodes 112 --json").unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["reports"].as_array().unwrap().len(), 4);
    }

    #[test]
    fn info_closed_forms_match_constructed_graphs() {
        for r in 0..=8u8 {
            let x = XTree::new(r);
            let out = run_str(&format!("info --height {r}")).unwrap();
            let expect = format!(
                "X({r}): {} vertices, {} edges, max degree {}",
                x.node_count(),
                x.edge_count(),
                x.max_degree()
            );
            assert!(out.contains(&expect), "{out}");
            let q = Hypercube::new(r);
            let out = run_str(&format!("info --height {r} --network hypercube")).unwrap();
            let expect = format!(
                "Q_{r}: {} vertices, {} edges, max degree {}",
                q.node_count(),
                q.edge_count(),
                q.max_degree()
            );
            assert!(out.contains(&expect), "{out}");
        }
    }

    #[test]
    fn info_heights_past_the_old_cap() {
        let out = run_str("info --height 20").unwrap();
        assert!(out.contains("X(20): 2097151 vertices"), "{out}");
        assert!(run_str("info --height 31").is_err());
    }

    #[test]
    fn info_renders_small_xtree() {
        let out = run_str("info --height 3").unwrap();
        assert!(out.contains("X(3): 15 vertices"));
        assert!(out.contains('o'));
    }

    #[test]
    fn sizes_table() {
        let out = run_str("sizes --max-r 4").unwrap();
        assert!(out.contains("496"));
        assert!(out.lines().count() >= 5);
    }

    #[test]
    fn trace_prints_matrix() {
        let out = run_str("trace --family path --nodes 240").unwrap();
        assert!(out.contains("host X(3)"));
        assert!(out.contains("j=3"));
        assert!(out.contains("log:"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_str("embed --family nosuch").is_err());
        assert!(run_str("embed --target nosuch").is_err());
        assert!(run_str("frobnicate").is_err());
        assert!(run_str("simulate --workload nosuch --nodes 48").is_err());
    }

    #[test]
    fn simulate_fault_rate_zero_is_identical_to_no_fault_flags() {
        let plain = run_str("simulate --family path --nodes 112 --seed 3").unwrap();
        let zero = run_str("simulate --family path --nodes 112 --seed 3 --fault-rate 0").unwrap();
        assert_eq!(plain, zero, "a zero fault rate must not change anything");
    }

    #[test]
    fn simulate_with_repaired_faults_delivers_everything() {
        let out = run_str(
            "simulate --family caterpillar --nodes 112 --fault-rate 0.2 --fault-seed 9 \
             --repair-after 3 --json",
        )
        .unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["fault"]["rate"].as_f64(), Some(0.2));
        assert_eq!(v["fault"]["repair_after"], 3);
        for r in v["reports"].as_array().unwrap() {
            assert_eq!(
                r["delivered"], r["messages"],
                "repaired links leave nothing stranded: {r:?}"
            );
            assert_eq!(r["stalled"], false);
        }
    }

    #[test]
    fn simulate_fault_text_output_reports_delivery() {
        let out =
            run_str("simulate --family path --nodes 112 --fault-rate 0.1 --fault-seed 2").unwrap();
        assert!(out.contains("link fault rate 0.1"), "{out}");
        assert!(out.contains("delivered"), "{out}");
        assert!(out.contains("stranded"), "{out}");
    }

    /// A collision-free scratch path for file-producing CLI tests; cleaned
    /// up on drop so parallel test runs never see each other's files.
    struct TmpPath(std::path::PathBuf);

    impl TmpPath {
        fn new(name: &str) -> Self {
            let p = std::env::temp_dir().join(format!("xtree-cli-{}-{name}", std::process::id()));
            let _ = std::fs::remove_file(&p);
            TmpPath(p)
        }

        fn as_str(&self) -> &str {
            self.0.to_str().expect("temp paths are UTF-8")
        }
    }

    impl Drop for TmpPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn simulate_trace_records_verifies_and_rejects_mismatch() {
        let p = TmpPath::new("trace.bin");
        let base = format!(
            "simulate --family caterpillar --nodes 112 --seed 5 --trace {}",
            p.as_str()
        );
        let out = run_str(&base).unwrap();
        assert!(out.contains("telemetry:"), "{out}");
        assert!(out.contains("hottest links:"), "{out}");
        let bytes = std::fs::read(&p.0).unwrap();
        assert!(
            bytes.starts_with(xtree_sim::telemetry::TRACE_MAGIC),
            "trace magic missing"
        );

        // Same seed replays byte-for-byte...
        let out = run_str(&format!(
            "simulate --family caterpillar --nodes 112 --seed 5 --verify-trace {}",
            p.as_str()
        ))
        .unwrap();
        assert!(out.contains("replay verified"), "{out}");

        // ...a different workload does not.
        let err = run_str(&format!(
            "simulate --family caterpillar --nodes 96 --seed 5 --verify-trace {}",
            p.as_str()
        ))
        .unwrap_err();
        assert!(err.contains("replay mismatch"), "{err}");
    }

    #[test]
    fn simulate_metrics_exports_both_formats() {
        let p = TmpPath::new("metrics.prom");
        run_str(&format!(
            "simulate --family path --nodes 112 --metrics {} --metrics-format prom",
            p.as_str()
        ))
        .unwrap();
        let prom = std::fs::read_to_string(&p.0).unwrap();
        assert!(prom.contains("xtree_sim_hops_total"), "{prom}");
        assert!(prom.contains("# TYPE"), "{prom}");

        let p = TmpPath::new("metrics.jsonl");
        run_str(&format!(
            "simulate --family path --nodes 112 --metrics {}",
            p.as_str()
        ))
        .unwrap();
        let jsonl = std::fs::read_to_string(&p.0).unwrap();
        for line in jsonl.lines() {
            let v: Value = xtree_json::from_str(line).unwrap();
            assert!(v["type"].as_str().is_some(), "{line}");
        }
    }

    #[test]
    fn simulate_json_carries_telemetry_object() {
        let p = TmpPath::new("trace-json.bin");
        let out = run_str(&format!(
            "simulate --family broom --nodes 112 --fault-rate 0.1 --trace {} --json",
            p.as_str()
        ))
        .unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert!(v["telemetry"]["events"].as_u64().unwrap() > 0);
        assert!(v["telemetry"]["trace_bytes"].as_u64().unwrap() > 0);
        assert!(!v["telemetry"]["hottest_links"]
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn simulate_rejects_bad_telemetry_args() {
        let err = run_str("simulate --nodes 48 --metrics-format xml").unwrap_err();
        assert!(err.contains("--metrics-format"), "{err}");
        let err = run_str("simulate --nodes 48 --verify-trace /nonexistent/t.bin").unwrap_err();
        assert!(err.contains("--verify-trace"), "{err}");
    }

    #[test]
    fn simulate_recover_heals_node_faults() {
        // Fixed seed where the unsupervised run strands messages...
        let bare = run_str(
            "simulate --family path --nodes 496 --node-fault-rate 0.2 --fault-seed 3 --json",
        )
        .unwrap();
        let v: Value = xtree_json::from_str(&bare).unwrap();
        let stranded: usize = v["reports"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["stranded"].as_u64().unwrap() as usize)
            .sum();
        assert!(stranded > 0, "fixture must strand without recovery: {bare}");
        // ...and the default recovery policy delivers everything.
        let out = run_str(
            "simulate --family path --nodes 496 --node-fault-rate 0.2 --fault-seed 3 --recover",
        )
        .unwrap();
        assert!(out.contains("node fault rate 0.2"), "{out}");
        assert!(out.contains("guests migrated"), "{out}");
        assert!(out.contains("all delivered"), "{out}");
    }

    #[test]
    fn simulate_recover_json_carries_recovery_object() {
        let out = run_str(
            "simulate --family path --nodes 496 --node-fault-rate 0.2 --fault-seed 3 \
             --recover --max-retries 4 --backoff exp:4:64 --json",
        )
        .unwrap();
        let v: Value = xtree_json::from_str(&out).unwrap();
        assert_eq!(v["recovery"]["all_delivered"], true, "{out}");
        assert!(v["recovery"]["migrated"].as_u64().unwrap() > 0, "{out}");
        for r in v["reports"].as_array().unwrap() {
            assert_eq!(r["delivered"], r["messages"], "{r:?}");
        }
    }

    #[test]
    fn checkpoint_resume_trace_is_byte_identical() {
        let full = TmpPath::new("full-trace.bin");
        let ck = TmpPath::new("ck.bin");
        let resumed = TmpPath::new("resumed-trace.bin");
        let base =
            "simulate --family path --nodes 496 --node-fault-rate 0.2 --fault-seed 3 --recover";
        run_str(&format!("{base} --trace {}", full.as_str())).unwrap();
        let out = run_str(&format!(
            "{base} --checkpoint {} --checkpoint-after 3",
            ck.as_str()
        ))
        .unwrap();
        assert!(out.contains("checkpoint:"), "{out}");
        let bytes = std::fs::read(&ck.0).unwrap();
        assert!(bytes.starts_with(xtree_sim::checkpoint::MAGIC), "magic");
        let out = run_str(&format!(
            "resume {} --trace {}",
            ck.as_str(),
            resumed.as_str()
        ))
        .unwrap();
        assert!(out.contains("resumed from"), "{out}");
        assert!(out.contains("all delivered"), "{out}");
        assert_eq!(
            std::fs::read(&full.0).unwrap(),
            std::fs::read(&resumed.0).unwrap(),
            "an interrupted+resumed run must trace byte-identically"
        );
    }

    #[test]
    fn simulate_rejects_bad_recovery_args() {
        let err = run_str("simulate --nodes 48 --recover --backoff weird").unwrap_err();
        assert!(err.contains("--backoff"), "{err}");
        let err = run_str("simulate --nodes 48 --recover --backoff fixed:lots").unwrap_err();
        assert!(err.contains("--backoff"), "{err}");
        let err = run_str("simulate --nodes 48 --checkpoint-after 3").unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let err = run_str("simulate --nodes 48 --max-retries 2").unwrap_err();
        assert!(err.contains("--recover"), "{err}");
        let err = run_str("simulate --nodes 48 --node-fault-rate 1.5").unwrap_err();
        assert!(err.contains("--node-fault-rate"), "{err}");
        let err = run_str("simulate --nodes 48 --host hypercube --recover").unwrap_err();
        assert!(err.contains("xtree"), "{err}");
    }

    #[test]
    fn resume_rejects_missing_and_garbage_files() {
        assert!(run_str("resume").is_err());
        assert!(run_str("resume /nonexistent/ck.bin").is_err());
        let p = TmpPath::new("garbage-ck.bin");
        std::fs::write(&p.0, b"not a checkpoint").unwrap();
        let err = run_str(&format!("resume {}", p.as_str())).unwrap_err();
        assert!(err.contains("XCKPT1"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_fault_rate() {
        let err = run_str("simulate --family path --nodes 48 --fault-rate 1.5").unwrap_err();
        assert!(err.contains("--fault-rate"), "{err}");
        let err = run_str("simulate --family path --nodes 48 --fault-rate lots").unwrap_err();
        assert!(err.contains("--fault-rate"), "{err}");
    }
}
