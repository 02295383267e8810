//! Regenerates every experiment table of the reproduction.
//!
//! Usage:
//!   tables all          — every experiment (T1–T4, L1–L3, IO, F1, F2, D, B1, B2, A1, A2, N1, S1, S2)
//!   tables t1 l2 …      — selected experiments
//!   tables --json all   — machine-readable output
//!
//! EXPERIMENTS.md records the paper-vs-measured comparison produced here.

use xtree_bench::{experiments, Table};

const USAGE: &str = "ID… [--json]
  (ID: all t1 t2 t3 t4 l1 l2 l3 io f1 f2 delta b1 b2 a1 a2 n1 s1 s2)";

fn main() {
    // Every id is checked before the first experiment runs.
    let (json, runs) = xtree_cli::parse_env("tables", USAGE, |a| {
        let ids = a.positionals();
        if ids.is_empty() {
            return Err("name at least one experiment id".into());
        }
        let ids: Vec<String> = if ids.iter().any(|a| a == "all") {
            let all = experiments::ALL_IDS.iter().chain(&experiments::SLOW_IDS);
            all.map(|s| s.to_string()).collect()
        } else {
            ids.to_vec()
        };
        let runs = ids
            .iter()
            .map(|id| {
                experiments::find(&id.to_lowercase())
                    .ok_or_else(|| format!("unknown experiment id: {id}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((a.flag("json"), runs))
    });
    let tables: Vec<Table> = runs.iter().map(|run| run()).collect();
    if json {
        let doc: xtree_json::Value = tables.iter().map(|t| t.to_json()).collect();
        xtree_bench::print_stdout(&xtree_json::to_string_pretty(&doc));
    } else {
        for t in &tables {
            xtree_bench::print_stdout(&t.render());
        }
    }
}
