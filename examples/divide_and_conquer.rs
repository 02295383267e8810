//! Divide and conquer on an X-tree machine.
//!
//! The paper motivates binary-tree embeddings with "the type of program
//! structure found in common divide-and-conquer algorithms". This example
//! simulates a mergesort-style computation — broadcast the problem down a
//! recursion tree, reduce the results back up — on an X-tree network, once
//! with the Theorem-1 embedding and once with naïve baselines, and reports
//! the clock cycles each needs.
//!
//! Run with: `cargo run --release --example divide_and_conquer`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree::core::{baseline, evaluate, theorem1};
use xtree::sim::{run_rounds, workload, Host, XTreeHost};
use xtree::trees::{theorem1_size, TreeFamily};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let r = 5;
    let n = theorem1_size(r);
    // A recursion tree of a divide-and-conquer with uneven splits.
    let tree = TreeFamily::RandomSplit.generate(n, &mut rng);
    println!("recursion tree: {n} nodes, height {}", tree.height());

    let net = XTreeHost::new(r);
    println!("host: X({r}) with {} processors\n", net.node_count());

    let candidates = [
        ("theorem-1", theorem1::embed(&tree).emb),
        ("level-order", baseline::level_order(&tree)),
        ("dfs-order", baseline::dfs_order(&tree)),
        ("random", baseline::random_assignment(&tree, &mut rng)),
    ];

    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>10}",
        "embedding", "dilation", "dnc cycles", "ideal cycles", "slowdown"
    );
    let mut best = u32::MAX;
    for (name, emb) in &candidates {
        let stats = evaluate(&tree, emb);
        let rounds = workload::divide_and_conquer_rounds(&tree, emb);
        let batch = run_rounds(&net, &rounds).expect("simulation failed");
        let cycles: u32 = batch.iter().map(|b| b.cycles).sum();
        let ideal: u32 = batch.iter().map(|b| b.ideal_cycles).sum();
        println!(
            "{:<12} {:>8} {:>10} {:>12} {:>9.2}x",
            name,
            stats.dilation,
            cycles,
            ideal,
            cycles as f64 / ideal.max(1) as f64
        );
        if *name == "theorem-1" {
            best = stats.dilation;
        } else {
            // The paper's guarantee is about dilation (worst-case edge
            // latency), not total cycles: the constructed embedding must
            // dominate every baseline on it.
            assert!(
                stats.dilation >= best,
                "{name} achieved smaller dilation than the Theorem-1 embedding"
            );
        }
    }
    println!(
        "\nthe Theorem-1 embedding gives every recursion edge a ≤{best}-cycle latency;\n\
         no baseline matches that worst-case guarantee ✓"
    );
}
