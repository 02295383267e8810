//! `scenariobench` — the scenario-matrix sweep, written to
//! `results/BENCH_scenarios.json`.
//!
//! Every cell of a (tree family × traffic model × size) matrix is scored
//! by `xtree-scenario`: seeded tree, Theorem-1 embedding, and both the
//! classic unweighted congestion and the traffic-weighted congestion
//! (demand units crossing the busiest host link). The run is serial and
//! free of wall-clock data, so the output file is byte-identical across
//! runs of the same spec and seed — CI diffs it to catch silent
//! non-determinism.
//!
//! * default: the published matrix (`ScenarioSpec::default_matrix`);
//! * `--smoke`: the small CI matrix — still ≥ 4 families × ≥ 3 traffic
//!   models, and it still writes the results file (the smoke job asserts
//!   its contents);
//! * `--spec FILE`: a plain-text or JSON spec (see `xtree-scenario`'s
//!   `spec` module docs for the format);
//! * `--seed N`: overrides the spec's base seed;
//! * `--out FILE`: overrides the output path.
//!
//! Run with: cargo run --release -p xtree-bench --bin scenariobench

use xtree_cli::Args;
use xtree_scenario::{matrix_to_json, run_matrix, ScenarioSpec};

const USAGE: &str = "[--smoke] [--spec FILE] [--seed N] [--out FILE]";

struct Opts {
    spec: ScenarioSpec,
    out: String,
}

impl Opts {
    fn read(a: &Args) -> Result<Opts, String> {
        let mut spec = match (a.flag("smoke"), a.get("spec")) {
            (true, Some(_)) => return Err("--smoke and --spec are mutually exclusive".into()),
            (true, None) => ScenarioSpec::smoke(),
            (false, Some(path)) => {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("--spec {path}: {e}"))?;
                ScenarioSpec::parse(&text).map_err(|e| format!("--spec {path}: {e}"))?
            }
            (false, None) => ScenarioSpec::default_matrix(),
        };
        if let Some(seed) = a.num_opt("seed")? {
            spec.seed = seed;
        }
        Ok(Opts {
            spec,
            out: a.get_or("out", "results/BENCH_scenarios.json").to_string(),
        })
    }
}

fn main() {
    let opts = xtree_cli::parse_env("scenariobench", USAGE, Opts::read);
    let reports = run_matrix(&opts.spec).expect("scenario cell failed");
    assert!(!reports.is_empty(), "matrix must have cells");

    eprintln!(
        "{:<14} {:<12} {:>2} {:>6} {:>6} {:>9} {:>9} {:>4} {:>4}",
        "family", "traffic", "r", "nodes", "cong", "weighted", "demand", "dil", "load"
    );
    for c in &reports {
        eprintln!(
            "{:<14} {:<12} {:>2} {:>6} {:>6} {:>9} {:>9} {:>4} {:>4}",
            c.family,
            c.traffic,
            c.r,
            c.nodes,
            c.congestion,
            c.weighted_congestion,
            c.demand_total,
            c.dilation,
            c.max_load
        );
    }

    let doc = matrix_to_json(&opts.spec, &reports);
    xtree_json::write_pretty_file(&opts.out, &doc)
        .unwrap_or_else(|e| panic!("write {}: {e}", opts.out));
    eprintln!("wrote {} ({} cells)", opts.out, reports.len());
}
