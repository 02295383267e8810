//! `embed`: one guest tree embedded by Theorem 1 (or 2, 3, Corollary 8)
//! and measured on its host.

use crate::args::{make_tree, parse_traffic};
use crate::{guest_json, Args, CliError};
use xtree_core::{evaluate, hypercube, metrics, theorem1, theorem2, XEmbedding};
use xtree_json::Value;
use xtree_sim::host::{guest_map, parse_host_label, HOST_LABELS, HOST_XTREE};
use xtree_sim::{compute_load, congestion, weighted_congestion, AnyHost, Host, XTreeHost};
use xtree_topology::Address;
use xtree_trees::BinaryTree;

pub(crate) const USAGE: &str = "--family F --nodes N [--host xtree|hypercube|universal] [--target xtree|xtree-injective|hypercube|hypercube-injective] [--seed S] [--traffic MODEL] [--json] [--map]";

/// Resolves a `--host` backend for a Theorem-1 embedding: the servable
/// topology sized for the embedding's height, plus the per-guest-node
/// host-vertex map. Heights beyond a backend's cap (the universal graph
/// precomputes a BFS table) are a usage error naming the limit.
pub(crate) fn host_backend(
    tag: u8,
    hname: &str,
    emb: &XEmbedding,
) -> Result<(AnyHost, Vec<u32>), CliError> {
    let net = AnyHost::for_xtree_height(tag, emb.height).ok_or_else(|| {
        CliError::Usage(format!(
            "--host {hname} is unavailable at X-tree height {} (try a smaller guest)",
            emb.height
        ))
    })?;
    let map = guest_map(tag, emb).expect("tag validated by AnyHost");
    Ok((net, map))
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
            .with("guest", guest_json(family, tree.len()))
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

pub(crate) fn run(a: &Args) -> Result<String, CliError> {
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
                    .with("guest", guest_json(&family, n))
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
                    .with("guest", guest_json(&family, n))
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
