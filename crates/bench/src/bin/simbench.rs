//! `simbench` — machine-readable throughput record for the simulation
//! engine, written to `results/BENCH_sim.json`.
//!
//! For each host size it delivers the same seeded random batches twice:
//!
//! * **new** — the closed-form `O(1)` X-tree host + the allocation-free
//!   [`Engine`] with reused scratch buffers;
//! * **legacy** — the pre-optimisation pipeline, reproduced verbatim: a
//!   dense BFS next-hop table plus a HashMap-keyed cycle loop rebuilt per
//!   batch. Only measurable up to the old 2^13-vertex table cap, which is
//!   exactly why `X(13)` reports the new engine alone.
//!
//! Run with: `cargo run --release -p xtree-bench --bin simbench`

use std::collections::HashMap;
use std::time::Instant;
use xtree_bench::seeded_batches;
use xtree_json::Value;
use xtree_sim::{BatchStats, Engine, Host, Message, TableHost, XTreeHost};

/// The engine as it was before this optimisation pass: per-cycle hash maps
/// keyed by `(from, to)` vertex pairs, all state rebuilt every batch.
fn run_batch_legacy(net: &TableHost, messages: &[Message]) -> BatchStats {
    let mut at: Vec<u32> = messages.iter().map(|m| m.src).collect();
    let mut done: Vec<bool> = messages.iter().map(|m| m.src == m.dst).collect();
    let ideal_cycles = messages
        .iter()
        .map(|m| net.distance(m.src, m.dst))
        .max()
        .unwrap_or(0);
    let mut remaining = done.iter().filter(|&&d| !d).count();
    let mut cycles = 0u32;
    let mut total_hops = 0u64;
    let mut link_traffic: HashMap<(u32, u32), u32> = HashMap::new();
    let mut claimed: HashMap<(u32, u32), usize> = HashMap::new();
    while remaining > 0 {
        cycles += 1;
        claimed.clear();
        for (i, m) in messages.iter().enumerate() {
            if done[i] {
                continue;
            }
            claimed
                .entry((at[i], net.next_hop(at[i], m.dst)))
                .or_insert(i);
        }
        for (i, m) in messages.iter().enumerate() {
            if done[i] {
                continue;
            }
            let from = at[i];
            let to = net.next_hop(from, m.dst);
            if claimed.get(&(from, to)) != Some(&i) {
                continue;
            }
            at[i] = to;
            total_hops += 1;
            *link_traffic.entry((from, to)).or_insert(0) += 1;
            if to == m.dst {
                done[i] = true;
                remaining -= 1;
            }
        }
    }
    BatchStats {
        cycles,
        ideal_cycles,
        messages: messages.len(),
        max_link_traffic: link_traffic.values().copied().max().unwrap_or(0),
        total_hops,
    }
}

struct Measured {
    elapsed_s: f64,
    cycles: u64,
    hops: u64,
}

impl Measured {
    fn to_json(&self, batches: usize) -> Value {
        Value::object()
            .with("elapsed_ms", self.elapsed_s * 1e3)
            .with("cycles_per_sec", self.cycles as f64 / self.elapsed_s)
            .with("batches_per_sec", batches as f64 / self.elapsed_s)
            .with("hops_per_sec", self.hops as f64 / self.elapsed_s)
    }
}

fn measure(rounds: &[Vec<Message>], mut run: impl FnMut(&[Message]) -> BatchStats) -> Measured {
    let start = Instant::now();
    let (mut cycles, mut hops) = (0u64, 0u64);
    for batch in rounds {
        let s = run(batch);
        cycles += u64::from(s.cycles);
        hops += s.total_hops;
    }
    Measured {
        elapsed_s: start.elapsed().as_secs_f64().max(1e-9),
        cycles,
        hops,
    }
}

const USAGE: &str = "[--seed N]";

fn main() {
    let seed = xtree_cli::parse_env("simbench", USAGE, |a| a.num_or("seed", 0x5EED_BEEF));
    let mut hosts = Vec::new();
    for (r, batches) in [(8u8, 192usize), (10, 64), (13, 16)] {
        let net = XTreeHost::new(r);
        let n = net.node_count();
        let per_batch = n / 2;
        let rounds = seeded_batches(seed, n as u64, batches, per_batch);

        let mut engine = Engine::new();
        // Warm the scratch buffers so the measurement sees the steady state.
        engine
            .run_batch(&net, &rounds[0])
            .expect("warmup batch failed");
        let new = measure(&rounds, |b| {
            engine.run_batch(&net, b).expect("batch failed")
        });

        // The legacy pipeline only exists below the old table cap.
        let legacy = (n <= 1 << 13).then(|| {
            let table_net = TableHost::new(net.csr().clone()).expect("connected host");
            measure(&rounds, |b| run_batch_legacy(&table_net, b))
        });

        let speedup = legacy.as_ref().map(|l| l.elapsed_s / new.elapsed_s);
        let tail = match (&legacy, speedup) {
            (Some(l), Some(s)) => {
                format!(", legacy {:.1} ms, speedup {s:.2}x", l.elapsed_s * 1e3)
            }
            _ => ", legacy skipped (host beyond the old routing-table cap)".into(),
        };
        eprintln!(
            "X({r}): {n} vertices, {batches} batches x {per_batch} msgs — new {:.1} ms{tail}",
            new.elapsed_s * 1e3,
        );

        let mut host = Value::object()
            .with("host", format!("X({r})"))
            .with("vertices", n)
            .with("batches", batches)
            .with("messages_per_batch", per_batch)
            .with("new", new.to_json(batches));
        match (&legacy, speedup) {
            (Some(l), Some(s)) => {
                host.set("legacy", l.to_json(batches));
                host.set("speedup", s);
            }
            _ => {
                host.set("legacy", Value::Null);
                host.set("speedup", Value::Null);
            }
        }
        hosts.push(host);
    }
    let doc = Value::object()
        .with("bench", "simulation-engine")
        .with("seed", seed)
        .with(
            "workload",
            "seeded uniform-random batches, reusable engine, structured X-tree router vs \
             legacy dense-table + HashMap cycle loop",
        )
        .with("hosts", Value::from(hosts));
    xtree_json::write_pretty_file("results/BENCH_sim.json", &doc).expect("write BENCH_sim.json");
    xtree_bench::print_stdout(&xtree_json::to_string_pretty(&doc));
}
