//! Scoring one scenario cell: generate the family's tree, embed it with
//! the Theorem-1 construction, derive the traffic model's per-edge
//! demand, and report traffic-weighted congestion next to the classic
//! unweighted score.

use crate::spec::{ScenarioCell, ScenarioSpec};
use crate::traffic::TrafficModel;
use xtree_core::{metrics, theorem1};
use xtree_json::Value;
use xtree_sim::{congestion, weighted_congestion, SimError, XTreeHost};
use xtree_trees::generate::theorem1_size;

/// Everything measured for one (family × traffic × size) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    /// Tree family label (e.g. `skewed:240`).
    pub family: String,
    /// Traffic model label (e.g. `zipf:1.1`).
    pub traffic: String,
    /// Theorem-1 rank of the cell.
    pub r: u8,
    /// Guest tree size, `16·(2^{r+1} − 1)`.
    pub nodes: usize,
    /// The cell's derived seed (reproduces the tree and the demand).
    pub seed: u64,
    /// Classic unweighted congestion: guest edges crossing the busiest
    /// host link.
    pub congestion: u32,
    /// Traffic-weighted congestion: demand units crossing the busiest
    /// host link.
    pub weighted_congestion: u64,
    /// Total demand over all guest edges (normalisation denominator).
    pub demand_total: u64,
    /// Largest single-edge demand (can exceed the weighted score when
    /// that edge stays inside one host vertex).
    pub demand_max: u64,
    /// Embedding dilation (paper bound: ≤ 3 plus the documented +2).
    pub dilation: u32,
    /// Embedding load (paper bound: 16).
    pub max_load: u32,
}

impl CellReport {
    /// The report as a JSON object (one row of `BENCH_scenarios.json`).
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("family", self.family.as_str())
            .with("traffic", self.traffic.as_str())
            .with("r", u64::from(self.r))
            .with("nodes", self.nodes as u64)
            // Hex string: per-cell seeds use the full u64 range, which JSON
            // numbers (and the `Value` float fallback) cannot carry exactly.
            .with("seed", format!("{:#018x}", self.seed))
            .with("congestion", u64::from(self.congestion))
            .with("weighted_congestion", self.weighted_congestion)
            .with("demand_total", self.demand_total)
            .with("demand_max", self.demand_max)
            .with("dilation", u64::from(self.dilation))
            .with("max_load", u64::from(self.max_load))
    }
}

/// Scores one cell: seeded tree → Theorem-1 embedding → next-hop routing
/// on the optimal X-tree host → unweighted and traffic-weighted
/// congestion. Deterministic in the cell (no ambient randomness).
pub fn run_cell(cell: &ScenarioCell) -> Result<CellReport, SimError> {
    let n = theorem1_size(cell.r);
    let tree = cell.family.generate_seeded(n, cell.seed);
    let built = theorem1::embed(&tree);
    let stats = metrics::evaluate(&tree, &built.emb);
    let net = XTreeHost::new(built.emb.height);
    let demand = cell.traffic.edge_demand(&tree, cell.seed);
    let weighted = weighted_congestion(&net, &tree, &built.emb, &demand)?;
    let unweighted = congestion(&net, &tree, &built.emb)?;
    Ok(CellReport {
        family: cell.family.label(),
        traffic: cell.traffic.label(),
        r: cell.r,
        nodes: n,
        seed: cell.seed,
        congestion: unweighted,
        weighted_congestion: weighted,
        demand_total: demand.iter().sum(),
        demand_max: demand.iter().copied().max().unwrap_or(0),
        dilation: stats.dilation,
        max_load: stats.max_load,
    })
}

/// Runs every cell of the spec's matrix, serially and in spec order, so
/// the output is byte-identical across runs of the same spec.
pub fn run_matrix(spec: &ScenarioSpec) -> Result<Vec<CellReport>, SimError> {
    spec.cells().iter().map(run_cell).collect()
}

/// Wraps the reports in the `BENCH_scenarios.json` document shape:
/// the spec's axes up front, then one row per cell.
pub fn matrix_to_json(spec: &ScenarioSpec, reports: &[CellReport]) -> Value {
    let labels = |it: Vec<String>| Value::Array(it.into_iter().map(Value::Str).collect());
    Value::object()
        .with(
            "families",
            labels(spec.families.iter().map(|f| f.label()).collect()),
        )
        .with(
            "traffic",
            labels(spec.traffic.iter().map(TrafficModel::label).collect()),
        )
        .with(
            "r",
            Value::Array(
                spec.heights
                    .iter()
                    .map(|&r| Value::Int(i64::from(r)))
                    .collect(),
            ),
        )
        .with("seed", spec.seed)
        .with(
            "cells",
            Value::Array(reports.iter().map(CellReport::to_json).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use xtree_trees::TreeFamily;

    fn cell(traffic: TrafficModel) -> ScenarioCell {
        ScenarioCell {
            family: TreeFamily::UniformRandom,
            traffic,
            r: 3,
            seed: 1234,
        }
    }

    #[test]
    fn uniform_traffic_reproduces_unweighted_congestion() {
        let report = run_cell(&cell(TrafficModel::Uniform)).unwrap();
        assert_eq!(report.weighted_congestion, u64::from(report.congestion));
        assert_eq!(report.nodes, 240);
        assert_eq!(report.demand_max, 1);
        assert_eq!(report.demand_total, 239, "one unit per non-root node");
    }

    #[test]
    fn weighted_score_at_least_unweighted_under_skewed_demand() {
        for traffic in [
            TrafficModel::Zipf { s: 1.1 },
            TrafficModel::HotSpot {
                share: 25,
                mult: 16,
            },
            TrafficModel::Workload(3),
        ] {
            let report = run_cell(&cell(traffic)).unwrap();
            assert!(
                report.weighted_congestion >= u64::from(report.congestion),
                "{traffic:?}: weighted {} < unweighted {}",
                report.weighted_congestion,
                report.congestion
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = ScenarioSpec::smoke();
        let a = run_matrix(&spec).unwrap();
        let b = run_matrix(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.cells().len());
        let doc = xtree_json::to_string_pretty(&matrix_to_json(&spec, &a));
        let doc2 = xtree_json::to_string_pretty(&matrix_to_json(&spec, &b));
        assert_eq!(doc, doc2, "document rendering must be byte-stable");
    }

    #[test]
    fn paper_bounds_hold_across_the_smoke_matrix() {
        for report in run_matrix(&ScenarioSpec::smoke()).unwrap() {
            assert!(
                report.max_load <= 16,
                "{}: load {}",
                report.family,
                report.max_load
            );
            assert!(
                report.dilation <= 5,
                "{}: dilation {}",
                report.family,
                report.dilation
            );
        }
    }
}
