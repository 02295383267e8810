//! `request OP`: one call against a running daemon or cluster router.

use crate::{Args, CliError};
use std::time::Duration;
use xtree_json::Value;
use xtree_server::{Client, Request, Response};
use xtree_sim::host::{parse_host_label, HOST_LABELS};
use xtree_sim::workload::WORKLOADS;
use xtree_trees::TreeFamily;

pub(crate) const USAGE: &str = "OP --addr HOST:PORT [--family F] [--nodes N] [--seed S] [--theorem 1|2] [--workload W|all] [--host xtree|hypercube|universal] [--deadline-ms T] [--json]
                     (OP: embed simulate stats health shutdown; only embed and simulate take
                     --family --nodes --seed --theorem --host, and only simulate --workload)";

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
pub(crate) fn run(a: &Args) -> Result<String, CliError> {
    let op = a
        .positionals()
        .first()
        .map(String::as_str)
        .ok_or("request: missing operation (usage: xtree-cli request OP --addr HOST:PORT)")?;
    let addr = a.get("addr").ok_or("request: missing --addr HOST:PORT")?;
    // One synopsis serves every OP, so the parser takes each flag for all
    // of them: refuse the guest flags this OP would ignore.
    let ignored: &[&str] = match op {
        "embed" => &["workload"],
        "stats" | "health" | "shutdown" => {
            &["family", "nodes", "seed", "theorem", "host", "workload"]
        }
        _ => &[],
    };
    if let Some(flag) = ignored.iter().find(|f| a.get(f).is_some()) {
        return Err(format!("request {op} does not read --{flag}").into());
    }
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
