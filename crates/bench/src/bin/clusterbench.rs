//! Cluster benchmark: shard-scaling curve plus a kill-a-shard failover
//! probe, written to `results/BENCH_cluster.json`.
//!
//! **Scaling.** For each roster size in {1, 2, 4} the bench spawns that
//! many in-process shard daemons (2 workers each) behind a
//! consistent-hash router and pushes a compute-bound workload through
//! it: every request a *distinct* `(family, nodes, seed)` key, so each
//! one costs a Theorem-1 construction and the cluster's throughput
//! tracks its aggregate worker count rather than its cache.
//!
//! **Failover.** A 2-shard cluster with test-speed detection (25 ms
//! probes, two-strike ejection) serves concurrent clients while one
//! shard is shut down a quarter of the way in. The probe asserts the
//! robustness contract — zero client-visible errors — and records the
//! failover column: replays, transport failures observed, and the p99
//! end-to-end latency of the requests that needed a replay.
//!
//! `--smoke` shrinks the workload and skips the results file.
//!
//! Run with: cargo run --release -p xtree-bench --bin clusterbench

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use xtree_bench::serving::{quantile, LocalCluster};
use xtree_cli::Args;
use xtree_json::Value;
use xtree_server::{
    Client, ClusterCount, ReconnectPolicy, Request, Response, RouterConfig, ServerConfig,
    ShardCount,
};
use xtree_sim::Backoff;

/// `random-bst` in `TreeFamily::ALL`.
const FAMILY: u8 = 4;
/// 16(2^(r+1) - 1) with r = 6 — one Theorem-1 build per distinct key is
/// expensive enough that throughput measures compute, not framing.
const NODES: u64 = 2032;
/// Default key-space base; `--seed` moves it (DESIGN.md §15 convention).
const SEED_BASE: u64 = 7_000;

const USAGE: &str = "[--smoke] [--conns N] [--requests N] [--seed N] [--out FILE]";

struct Opts {
    conns: usize,
    requests: usize,
    smoke: bool,
    seed: u64,
    out: String,
}

impl Opts {
    fn read(a: &Args) -> Result<Opts, String> {
        let smoke = a.flag("smoke");
        let (conns, requests): (usize, usize) = (a.num_or("conns", 8)?, a.num_or("requests", 32)?);
        if conns == 0 || requests == 0 {
            return Err("--conns and --requests need work to do (≥ 1)".into());
        }
        Ok(Opts {
            conns: if smoke { conns.min(4) } else { conns },
            requests: if smoke { requests.min(6) } else { requests },
            smoke,
            seed: a.num_or("seed", SEED_BASE)?,
            out: a.get_or("out", "results/BENCH_cluster.json").to_string(),
        })
    }
}

/// One measured run through a router: counts and client-side latency.
struct Run {
    requests: usize,
    ok: usize,
    errors: usize,
    wall_s: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

impl Run {
    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }
}

/// Drive `conns` concurrent clients through `addr`, every request a
/// distinct embed key (`key_base` offsets the seed space so no phase
/// reuses another's keys). `mid_kill` — if given — fires exactly once, a
/// quarter of the way through the first connection's sequence.
fn drive(
    addr: SocketAddr,
    conns: usize,
    count: usize,
    key_base: u64,
    mid_kill: Option<&(dyn Fn() + Sync)>,
) -> Run {
    let fired = AtomicBool::new(false);
    let start = Instant::now();
    let per_conn: Vec<(usize, usize, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let fired = &fired;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (mut ok, mut errors) = (0, 0);
                    let mut latencies = Vec::with_capacity(count);
                    for i in 0..count {
                        if let Some(kill) = mid_kill {
                            if conn == 0 && i == count / 4 && !fired.swap(true, Ordering::SeqCst) {
                                kill();
                            }
                        }
                        let req = Request::Embed {
                            family: FAMILY,
                            nodes: NODES,
                            seed: key_base + (conn * count + i) as u64,
                            theorem: 1,
                        };
                        let sent = Instant::now();
                        let resp = client.call(&req).expect("call");
                        latencies.push(sent.elapsed().as_micros() as u64);
                        match resp {
                            Response::EmbedOk { .. } => ok += 1,
                            other => {
                                errors += 1;
                                eprintln!("clusterbench: unexpected response: {other:?}");
                            }
                        }
                    }
                    (ok, errors, latencies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let mut latencies: Vec<u64> = per_conn.iter().flat_map(|p| p.2.iter().copied()).collect();
    latencies.sort_unstable();
    Run {
        requests: conns * count,
        ok: per_conn.iter().map(|p| p.0).sum(),
        errors: per_conn.iter().map(|p| p.1).sum(),
        wall_s,
        p50_us: quantile(&latencies, 0.50),
        p95_us: quantile(&latencies, 0.95),
        p99_us: quantile(&latencies, 0.99),
    }
}

/// Two workers per shard: the cluster's throughput is its worker count.
fn shard_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

/// One point of the scaling curve: `shards` shards, all healthy.
fn scaling_point(shards: usize, conns: usize, count: usize, seed: u64) -> Value {
    let cluster = LocalCluster::spawn(shards, &shard_config(), &RouterConfig::default());
    let run = drive(
        cluster.router.local_addr(),
        conns,
        count,
        seed + ((shards as u64) << 32),
        None,
    );
    assert_eq!(run.errors, 0, "{shards}-shard run must not error");
    assert_eq!(run.ok, run.requests, "{shards}-shard run must serve all");
    let metrics = cluster.router.metrics();
    eprintln!(
        "{shards} shard(s): {} reqs in {:.2}s — {:.0} req/s, p50 {}us p95 {}us p99 {}us",
        run.requests,
        run.wall_s,
        run.throughput_rps(),
        run.p50_us,
        run.p95_us,
        run.p99_us
    );
    let point = Value::object()
        .with("shards", shards)
        .with("requests", run.requests)
        .with("wall_s", run.wall_s)
        .with("throughput_rps", run.throughput_rps())
        .with("latency_p50_us", run.p50_us)
        .with("latency_p95_us", run.p95_us)
        .with("latency_p99_us", run.p99_us)
        .with("routed", metrics.total(ShardCount::Routed))
        .with("replayed", metrics.total(ShardCount::Replayed));
    cluster.drain();
    point
}

/// The kill-a-shard probe: 2 shards, one dies under load, nothing may
/// be lost. Returns the failover column.
fn failover_probe(conns: usize, count: usize, seed: u64) -> Value {
    let config = RouterConfig {
        probe_interval: Duration::from_millis(25),
        fail_after: 2,
        replay: ReconnectPolicy {
            max_retries: 10,
            backoff: Backoff::Fixed(20),
        },
        ..RouterConfig::default()
    };
    let cluster = LocalCluster::spawn(2, &shard_config(), &config);
    let victim = &cluster.shards[0];
    let run = drive(
        cluster.router.local_addr(),
        conns,
        count,
        seed + (101u64 << 32),
        Some(&|| victim.shutdown()),
    );
    assert_eq!(
        run.errors, 0,
        "failover must be invisible to clients (got {} errors)",
        run.errors
    );
    assert_eq!(run.ok, run.requests, "every request must be served");
    let metrics = cluster.router.metrics();
    let shard_set = cluster.router.shard_set();
    assert_eq!(shard_set.live_count(), 1, "the victim must be ejected");
    assert_eq!(metrics.get(ClusterCount::Unreachable), 0);
    assert_eq!(metrics.get(ClusterCount::Exhausted), 0);
    let (failover_p99_us, failovers) = metrics.failover_quantile_us(0.99);
    eprintln!(
        "failover: {} reqs, {} replayed, {} transport failures, {} failovers, p99 {}us",
        run.requests,
        metrics.total(ShardCount::Replayed),
        metrics.total(ShardCount::Failed),
        failovers,
        failover_p99_us
    );
    let column = Value::object()
        .with("shards", 2)
        .with("requests", run.requests)
        .with("errors", run.errors)
        .with("wall_s", run.wall_s)
        .with("throughput_rps", run.throughput_rps())
        .with("latency_p99_us", run.p99_us)
        .with("failed", metrics.total(ShardCount::Failed))
        .with("replayed", metrics.total(ShardCount::Replayed))
        .with("unreachable", metrics.get(ClusterCount::Unreachable))
        .with("exhausted", metrics.get(ClusterCount::Exhausted))
        .with("failovers", failovers)
        .with("failover_p99_us", failover_p99_us);
    cluster.drain();
    column
}

fn main() {
    let opts = xtree_cli::parse_env("clusterbench", USAGE, Opts::read);
    let rosters: &[usize] = if opts.smoke { &[1, 2] } else { &[1, 2, 4] };

    let curve: Vec<Value> = rosters
        .iter()
        .map(|&m| scaling_point(m, opts.conns, opts.requests, opts.seed))
        .collect();
    let failover = failover_probe(opts.conns.max(4), opts.requests, opts.seed);

    let doc = Value::object()
        .with("bench", "cluster")
        .with("family", "random-bst")
        .with("nodes", NODES)
        .with("seed", opts.seed)
        .with("conns", opts.conns)
        .with("requests_per_conn", opts.requests)
        .with("workers_per_shard", 2)
        // Shard scaling is core scaling: on a 1-core host the curve is
        // honestly flat, so record what the curve had to work with.
        .with(
            "host_cores",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("scaling", curve.into_iter().collect::<Value>())
        .with("failover", failover);

    if opts.smoke {
        eprintln!("smoke mode: skipping results file");
    } else {
        xtree_json::write_pretty_file(&opts.out, &doc).expect("write results");
        eprintln!("wrote {}", opts.out);
    }
}
