//! `hostbench` — the cross-host embedding matrix, written to
//! `results/BENCH_hosts.json`.
//!
//! Every cell embeds one seeded guest tree with Theorem 1 and then scores
//! the *same* embedding on all three servable host topologies — the
//! X-tree it was built for, the hypercube it composes into (Lemma 3 ∘
//! Theorem 1), and Theorem 4's universal graph `G_n` — through the one
//! generic `Host` pipeline the server uses: dilation as the max routed
//! distance over guest edges, max vertex load, and link congestion under
//! shortest-path routing. Side by side, the columns are the paper's
//! trade-off made measurable: the hypercube pays one extra hop of
//! dilation (Theorem 3), the universal graph pays bounded degree 415 for
//! hosting *every* `n`-node binary tree (Theorem 4).
//!
//! The run is serial and free of wall-clock data, so the output file is
//! byte-identical across runs of the same seed — CI runs it twice and
//! diffs (`host-smoke`).
//!
//! * `--smoke`: the small CI matrix (still all three hosts, still writes
//!   the results file);
//! * `--seed N`: moves the seeded guest trees (DESIGN.md §15);
//! * `--out FILE`: overrides the output path.
//!
//! Run with: cargo run --release -p xtree-bench --bin hostbench

use xtree_cli::Args;
use xtree_core::theorem1;
use xtree_host::{guest_map, AnyHost, Host, HOST_LABELS};
use xtree_json::Value;
use xtree_sim::{compute_load, congestion};
use xtree_trees::TreeFamily;

/// Default seed, so flag-less runs reproduce the published matrix.
const DEFAULT_SEED: u64 = 0x5EED_B057;

/// Guest families: the two deterministic extremes (path, complete), the
/// half-and-half caterpillar, and two random shapes.
const FAMILIES: [TreeFamily; 5] = [
    TreeFamily::Path,
    TreeFamily::LeftComplete,
    TreeFamily::Caterpillar,
    TreeFamily::RandomBst,
    TreeFamily::Balanced,
];

const USAGE: &str = "[--smoke] [--seed N] [--out FILE]";

struct Opts {
    smoke: bool,
    seed: u64,
    out: String,
}

impl Opts {
    fn read(a: &Args) -> Result<Opts, String> {
        Ok(Opts {
            smoke: a.flag("smoke"),
            seed: a.num_or("seed", DEFAULT_SEED)?,
            out: a.get_or("out", "results/BENCH_hosts.json").to_string(),
        })
    }
}

/// One host column of a cell: the embedding scored on host `tag`.
fn host_column(
    tag: u8,
    label: &str,
    tree: &xtree_trees::BinaryTree,
    emb: &xtree_core::XEmbedding,
) -> Value {
    let Some(net) = AnyHost::for_xtree_height(tag, emb.height) else {
        // The universal graph is built for heights up to its published
        // cap; record the hole rather than silently shrinking the matrix.
        return Value::object().with("host", label).with("available", false);
    };
    let map = guest_map(tag, emb).expect("tag comes from HOST_LABELS");
    let dilation = tree
        .edges()
        .map(|(p, c)| net.distance(map[p.index()], map[c.index()]))
        .max()
        .unwrap_or(0);
    let max_load = compute_load(&net, tree, &map);
    let cong = congestion(&net, tree, &map).expect("connected host");
    Value::object()
        .with("host", label)
        .with("available", true)
        .with("vertices", net.node_count())
        .with("degree_bound", net.degree_bound())
        .with("expansion", net.node_count() as f64 / tree.len() as f64)
        .with("dilation", dilation)
        .with("max_load", max_load)
        .with("congestion", cong)
}

fn main() {
    let opts = xtree_cli::parse_env("hostbench", USAGE, Opts::read);
    let sizes: &[usize] = if opts.smoke {
        &[112, 496]
    } else {
        &[496, 1008, 2032]
    };

    eprintln!(
        "{:<12} {:>6} {:>3}  {:<10} {:>9} {:>6} {:>9} {:>4} {:>4} {:>6}",
        "family", "nodes", "r", "host", "vertices", "deg≤", "expand", "dil", "load", "cong"
    );

    let mut cells = Vec::new();
    for family in FAMILIES {
        for (i, &n) in sizes.iter().enumerate() {
            // One seeded guest per cell: the stream index keeps cells
            // independent, the base seed keeps the whole matrix pinned.
            let cell_seed = opts
                .seed
                .wrapping_add((i as u64) << 8)
                .wrapping_add(family.name().len() as u64);
            let tree = family.generate_seeded(n, cell_seed);
            let emb = theorem1::embed(&tree).emb;
            let height = emb.height;
            let mut hosts = Vec::new();
            for (tag, label) in HOST_LABELS.iter().enumerate() {
                let col = host_column(tag as u8, label, &tree, &emb);
                if col.get("available").as_bool() == Some(true) {
                    eprintln!(
                        "{:<12} {:>6} {:>3}  {:<10} {:>9} {:>6} {:>9.3} {:>4} {:>4} {:>6}",
                        family.name(),
                        n,
                        height,
                        label,
                        col.get("vertices").as_u64().unwrap_or(0),
                        col.get("degree_bound").as_u64().unwrap_or(0),
                        col.get("expansion").as_f64().unwrap_or(0.0),
                        col.get("dilation").as_u64().unwrap_or(0),
                        col.get("max_load").as_u64().unwrap_or(0),
                        col.get("congestion").as_u64().unwrap_or(0),
                    );
                } else {
                    eprintln!(
                        "{:<12} {:>6} {:>3}  {:<10} (unavailable at this height)",
                        family.name(),
                        n,
                        height,
                        label
                    );
                }
                hosts.push(col);
            }
            cells.push(
                Value::object()
                    .with("family", family.name())
                    .with("nodes", n)
                    .with("xtree_height", height)
                    .with("seed", cell_seed)
                    .with("hosts", hosts.into_iter().collect::<Value>()),
            );
        }
    }

    let count = cells.len();
    let doc = Value::object()
        .with("bench", "hosts")
        .with("seed", opts.seed)
        .with(
            "hosts",
            HOST_LABELS
                .iter()
                .map(|&l| Value::from(l))
                .collect::<Value>(),
        )
        .with("cells", cells.into_iter().collect::<Value>());
    xtree_json::write_pretty_file(&opts.out, &doc)
        .unwrap_or_else(|e| panic!("write {}: {e}", opts.out));
    eprintln!(
        "wrote {} ({count} cells x {} hosts)",
        opts.out,
        HOST_LABELS.len()
    );
}
