//! Load generator for the `xtree-server` daemon.
//!
//! Two ways to run it:
//!
//! * **Spawn mode** (default): starts its own servers in-process and runs
//!   three phases — a *warm* run (4 workers, cache on) against a small
//!   repeated key pool, the identical *cold* run with the cache disabled
//!   (`cache_cap = 0`), and a *saturation* probe (1 worker, tiny queue)
//!   that must bounce requests as `Overloaded`. It asserts the serving
//!   layer's contract: warm hit rate > 90%, warm throughput strictly
//!   above cold, and saturation observably answered — never a hang.
//! * **`--addr HOST:PORT`**: drives an already-running daemon — or a
//!   cluster router, which speaks the same wire protocol (the CI smoke
//!   jobs do both) — with one bounded phase and leaves it up.
//!
//! `--via-router M` adds a phase that spawns M in-process shards behind
//! a consistent-hash router and drives the workload through it, folding
//! the router's failover column (routed/failed/replayed, failover p99)
//! into the results doc.
//!
//! Key distribution knobs: `--key-pool N` sets the distinct-key pool
//! (default 4 uniform / 64 skewed, preserving the historical workload);
//! `--traffic MODEL` draws keys from an `xtree-scenario` traffic model
//! (`zipf:1.1`, `hotspot:25:16`, `diurnal:4:8`, …) in an extra warm
//! phase; `--seed N` moves every request stream (default = the historical
//! constant, DESIGN.md §15); `--host xtree|hypercube|universal` stamps
//! every request with a host-topology tag (absent = legacy frames,
//! byte-identical on the wire).
//!
//! Resilience knobs: `--deadline-ms T` runs every request under a
//! deadline budget (expired budgets come back as typed `ERR_DEADLINE`,
//! counted, never hung); `--chaos-seed S [--chaos-profile P]` wraps every
//! *client-side* connection in the seeded chaos transport, so the driver
//! itself delivers delays, short reads, corruption, and resets;
//! `--allow-typed-errors` switches the drive loop from "any failure
//! panics" to "every failure must land in a typed bucket" — the
//! invariant being that nothing is ever unclassified.
//!
//! Both modes report throughput, client-side p50/p95/p99 latency, and
//! the cache hit rate per (distribution, pool size), and write
//! `results/BENCH_server.json`. `--smoke` shrinks the workload and
//! skips the results file.
//!
//! Run with: cargo run --release -p xtree-bench --bin loadgen

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use xtree_bench::seeded_batches;
use xtree_bench::serving::{quantile, LocalCluster, Tally};
use xtree_cli::Args;
use xtree_host::parse_host_label;
use xtree_json::Value;
use xtree_scenario::TrafficModel;
use xtree_server::{
    ChaosPlan, ChaosProfile, Client, ClusterCount, ReconnectPolicy, Request, Response,
    RouterConfig, Server, ServerConfig, ShardCount, WireStats,
};

/// Key pool: `random-bst` in `TreeFamily::ALL`.
const FAMILY: u8 = 4;
/// 16(2^(r+1) - 1) with r = 6 — a mid-size guest, so one Theorem-1
/// construction is expensive enough for the cache to matter.
const NODES: u64 = 2032;
/// Default distinct keys in the repeated-key workload (override with
/// `--key-pool`). Every request maps to one of these keys, so a warm
/// cache serves all but the first builds.
const DEFAULT_POOL: u64 = 4;
const SEED_BASE: u64 = 1000;

/// Default key pool for the skewed (`--traffic`) phase — much
/// larger than the uniform pool, so the distribution's tail actually
/// misses the cache and the hit rate tracks the head's skew.
const DEFAULT_TRAFFIC_POOL: u64 = 64;

/// Historical batch seed; `--seed` moves it (DESIGN.md §15 convention).
const DEFAULT_SEED: u64 = 0x5EED_10AD;

const USAGE: &str = "[--addr HOST:PORT] [--conns N] [--requests N] [--smoke] [--traffic MODEL] [--key-pool N] [--seed N] [--via-router M] [--out FILE] [--chaos-seed S] [--chaos-profile P] [--deadline-ms T] [--allow-typed-errors] [--host xtree|hypercube|universal]";

struct Opts {
    addr: Option<SocketAddr>,
    conns: usize,
    requests: usize,
    smoke: bool,
    /// Key distribution of the uniform phases.
    uniform: KeyDist,
    /// Key distribution of the skewed phase (`--traffic`, `None` = skip).
    skewed: Option<KeyDist>,
    /// `--key-pool`: distinct keys per phase. `None` keeps the
    /// historical defaults (4 uniform / 64 skewed).
    key_pool: Option<u64>,
    seed: u64,
    /// Shard count for the `--via-router` phase (`None` = skip it).
    via_router: Option<usize>,
    out: String,
    /// Client-side seeded fault injection (`--chaos-seed`).
    chaos_seed: Option<u64>,
    chaos_profile: String,
    /// Per-request deadline budget (`--deadline-ms`).
    deadline_ms: Option<u64>,
    /// How the drive loop rides over trouble, from the resilience flags.
    resil: Resilience,
}

impl Opts {
    fn read(a: &Args) -> Result<Opts, String> {
        let smoke = a.flag("smoke");
        let (conns, requests): (usize, usize) = (a.num_or("conns", 8)?, a.num_or("requests", 64)?);
        if conns == 0 || requests == 0 {
            return Err("--conns and --requests need work to do (≥ 1)".into());
        }
        let traffic = a
            .get("traffic")
            .map(|l| TrafficModel::parse(l).ok_or(format!("--traffic: unknown model `{l}`")))
            .transpose()?;
        let key_pool = a.num_opt("key-pool")?;
        if key_pool == Some(0) {
            return Err("--key-pool needs at least one key".into());
        }
        let via_router = a.num_opt("via-router")?;
        if via_router.is_some_and(|m| !(1..=64).contains(&m)) {
            return Err("--via-router needs 1..=64 shards".into());
        }
        let chaos_seed = a.num_opt("chaos-seed")?;
        if chaos_seed.is_none() && a.get("chaos-profile").is_some() {
            return Err("--chaos-profile requires --chaos-seed".into());
        }
        let chaos_profile = a.get_or("chaos-profile", "medium").to_string();
        let profile =
            ChaosProfile::parse(&chaos_profile).map_err(|e| format!("--chaos-profile: {e}"))?;
        let chaos = chaos_seed.map(|seed| ChaosPlan::new(seed, profile));
        let deadline_ms = a.num_opt("deadline-ms")?;
        if deadline_ms == Some(0) {
            return Err("--deadline-ms needs at least 1ms".into());
        }
        let host = a
            .get("host")
            .map(|l| parse_host_label(l).ok_or(format!("--host: unknown host `{l}`")))
            .transpose()?;
        let tolerant = a.flag("allow-typed-errors") || chaos.is_some() || deadline_ms.is_some();
        let seed = a.num_or("seed", DEFAULT_SEED)?;
        let dist = |default_pool, traffic| KeyDist {
            pool: key_pool.unwrap_or(default_pool),
            traffic,
            seed,
        };
        let addr = a
            .get("addr")
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--addr: `{s}` is not HOST:PORT"))
            })
            .transpose()?;
        Ok(Opts {
            addr,
            conns: if smoke { conns.min(4) } else { conns },
            requests: if smoke { requests.min(8) } else { requests },
            smoke,
            uniform: dist(DEFAULT_POOL, None),
            skewed: traffic.map(|t| dist(DEFAULT_TRAFFIC_POOL, Some(t))),
            key_pool,
            seed,
            via_router,
            out: a.get_or("out", "results/BENCH_server.json").to_string(),
            chaos_seed,
            chaos_profile,
            deadline_ms,
            resil: Resilience {
                chaos,
                deadline: deadline_ms.map(Duration::from_millis),
                tolerant,
                host,
            },
        })
    }
}

/// The drive loop's failure posture: which chaos plan wraps the client
/// sockets, what deadline budget each request carries, and whether typed
/// failures are survivable or fatal.
#[derive(Clone, Copy, Default)]
struct Resilience {
    chaos: Option<ChaosPlan>,
    deadline: Option<Duration>,
    /// `false` = historical behavior (any failure panics); `true` = every
    /// failure must classify into a typed bucket, and the phase asserts
    /// zero *unclassified* errors instead of zero errors.
    tolerant: bool,
    /// Host tag appended to every request frame (`None` = legacy bytes).
    host: Option<u8>,
}

/// One phase's key distribution: pool size plus an optional skew model
/// from `xtree-scenario` (which also drives the scenario matrix, so "the
/// bench saw Zipf traffic" means the same thing on both axes).
#[derive(Clone)]
struct KeyDist {
    pool: u64,
    traffic: Option<TrafficModel>,
    seed: u64,
}

impl KeyDist {
    fn label(&self) -> String {
        self.traffic
            .map_or_else(|| "uniform".to_string(), |t| t.label())
    }
}

/// What one phase of driving measured, client side plus server stats.
struct Phase {
    name: String,
    requests: usize,
    tally: Tally,
    wall_s: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    stats: WireStats,
}

impl Phase {
    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }

    fn hit_rate(&self) -> f64 {
        let lookups = self.stats.cache_hits + self.stats.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.stats.cache_hits as f64 / lookups as f64
        }
    }

    fn report(&self) -> Value {
        Value::object()
            .with("phase", self.name.as_str())
            .with("requests", self.requests)
            .with("ok", self.tally.ok)
            .with("overloaded", self.tally.overloaded)
            .with("deadline_rejected", self.tally.deadline)
            .with("unavailable", self.tally.unavailable)
            .with("transport_errors", self.tally.transport)
            .with("corrupted", self.tally.corrupted)
            .with("errors", self.tally.unclassified)
            .with("wall_s", self.wall_s)
            .with("throughput_rps", self.throughput_rps())
            .with("latency_p50_us", self.p50_us)
            .with("latency_p95_us", self.p95_us)
            .with("latency_p99_us", self.p99_us)
            .with("cache_hits", self.stats.cache_hits)
            .with("cache_misses", self.stats.cache_misses)
            .with("cache_hit_rate", self.hit_rate())
            .with("server_overloaded", self.stats.overloaded)
    }
}

/// The deterministic request sequence for connection `conn`: repeated
/// keys drawn from the distribution's pool — uniformly, or through the
/// scenario subsystem's `KeySampler` when a traffic model is set —
/// mixed 3:1 simulate:embed, cycling through the engine's four
/// workloads.
fn requests_for(
    conn: usize,
    conns: usize,
    count: usize,
    nodes: u64,
    dist: &KeyDist,
) -> Vec<Request> {
    let batches = seeded_batches(dist.seed, dist.pool, conns, count);
    // Per-connection sampler stream; the default base seed reproduces
    // the historical `0x21BF_0000 ^ (conn << 32)` zipf stream exactly.
    let sampler = dist.traffic.map(|t| {
        t.key_sampler(
            dist.pool as usize,
            0x21BF_0000 ^ ((conn as u64) << 32) ^ (dist.seed ^ DEFAULT_SEED),
        )
    });
    batches[conn]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let seed = match &sampler {
                Some(s) => SEED_BASE + s.rank(i as u64) as u64,
                None => SEED_BASE + u64::from(m.src),
            };
            if m.dst % 4 == 3 {
                Request::Embed {
                    family: FAMILY,
                    nodes,
                    seed,
                    theorem: 1,
                }
            } else {
                Request::Simulate {
                    family: FAMILY,
                    nodes,
                    seed,
                    theorem: 1,
                    workload: (m.dst % 4) as u8,
                }
            }
        })
        .collect()
}

/// One connection's request loop. In the historical (intolerant) mode any
/// failure panics, exactly as before. In tolerant mode — chaos, a
/// deadline budget, or `--allow-typed-errors` — every outcome must land
/// in a typed [`Tally`] bucket: transport failures ride the retrying
/// client, decode errors and bounced garbage reconnect (the stream is
/// desynced), and only genuinely unexplained outcomes count as
/// `unclassified`.
fn drive_conn(
    conn: usize,
    addr: SocketAddr,
    reqs: Vec<Request>,
    resil: &Resilience,
) -> (Tally, Vec<u64>) {
    let chaos_conn = resil.chaos.map(|plan| plan.conn(conn as u64));
    let mut client = loop {
        match Client::connect_with_chaos(addr, chaos_conn.clone()) {
            Ok(c) => break c,
            // An injected connect refusal; the fault is consumed, dial again.
            Err(_) if chaos_conn.is_some() => continue,
            Err(e) => panic!("connect: {e}"),
        }
    };
    let policy = ReconnectPolicy::default();
    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(reqs.len());
    for req in reqs {
        let sent = Instant::now();
        let result = client.call_retrying(&req, &policy, resil.deadline, resil.host);
        latencies.push(sent.elapsed().as_micros() as u64);
        if !resil.tolerant {
            match result.expect("call") {
                Response::EmbedOk { .. } | Response::SimulateOk { .. } => tally.ok += 1,
                Response::Overloaded { .. } => tally.overloaded += 1,
                other => {
                    tally.unclassified += 1;
                    eprintln!("loadgen: unexpected response: {other:?}");
                }
            }
            continue;
        }
        if tally.classify(result, resil.chaos.is_some()) {
            // Chaos-garbled bytes desynced the stream; resync with a
            // fresh dial.
            let _ = client.reconnect();
        }
    }
    (tally, latencies)
}

/// Drive `conns` concurrent connections, `count` requests each, against
/// `addr`; fetch the server's stats afterwards through a fresh client.
fn drive(
    name: &str,
    addr: SocketAddr,
    conns: usize,
    count: usize,
    nodes: u64,
    dist: &KeyDist,
    resil: &Resilience,
) -> Phase {
    let start = Instant::now();
    let per_conn: Vec<(Tally, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    let reqs = requests_for(conn, conns, count, nodes, dist);
                    drive_conn(conn, addr, reqs, resil)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);

    let mut latencies: Vec<u64> = per_conn.iter().flat_map(|p| p.1.iter().copied()).collect();
    latencies.sort_unstable();
    let stats = fetch_stats(addr, resil);
    let mut tally = Tally::default();
    for (t, _) in &per_conn {
        tally.add(t);
    }
    Phase {
        name: name.to_string(),
        requests: conns * count,
        tally,
        wall_s,
        p50_us: quantile(&latencies, 0.50),
        p95_us: quantile(&latencies, 0.95),
        p99_us: quantile(&latencies, 0.99),
        stats,
    }
}

/// Stats snapshot over a clean (chaos-free) connection. Under a
/// server-side chaos profile even this clean dial can be disturbed, so
/// tolerant runs retry a few times and fall back to empty stats rather
/// than sinking the whole bench.
fn fetch_stats(addr: SocketAddr, resil: &Resilience) -> WireStats {
    for _ in 0..3 {
        let Ok(mut client) = Client::connect(addr) else {
            continue;
        };
        match client.call_retrying(&Request::Stats, &ReconnectPolicy::default(), None, None) {
            Ok(Response::StatsOk(stats)) => return stats,
            Ok(other) if !resil.tolerant => panic!("expected StatsOk, got {other:?}"),
            Err(e) if !resil.tolerant => panic!("stats call: {e}"),
            _ => continue,
        }
    }
    if !resil.tolerant {
        panic!("stats connection failed");
    }
    eprintln!("loadgen: stats snapshot unavailable under chaos; reporting zeros");
    WireStats::default()
}

/// Run one phase through a consistent-hash router fronting `shards`
/// throwaway in-process daemons, then drain the whole cluster via a wire
/// `Shutdown`. Returns the phase plus the router's failover column
/// (routed/failed/replayed counts and failover-latency tail) for the
/// results doc.
fn spawn_cluster_and_drive(
    shards: usize,
    conns: usize,
    count: usize,
    nodes: u64,
    dist: &KeyDist,
    resil: &Resilience,
) -> (Phase, Value) {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let cluster = LocalCluster::spawn(shards, &config, &RouterConfig::default());
    let phase = drive(
        "via-router",
        cluster.router.local_addr(),
        conns,
        count,
        nodes,
        dist,
        resil,
    );
    let metrics = cluster.router.metrics();
    let (failover_p99_us, failovers) = metrics.failover_quantile_us(0.99);
    let column = Value::object()
        .with("shards", shards)
        .with("routed", metrics.total(ShardCount::Routed))
        .with("failed", metrics.total(ShardCount::Failed))
        .with("timeouts", metrics.total(ShardCount::Timeouts))
        .with("replayed", metrics.total(ShardCount::Replayed))
        .with("unreachable", metrics.get(ClusterCount::Unreachable))
        .with("exhausted", metrics.get(ClusterCount::Exhausted))
        .with(
            "deadline_rejects",
            metrics.get(ClusterCount::DeadlineRejects),
        )
        .with("restarts", metrics.get(ClusterCount::Restarts))
        .with("warmup_keys", metrics.get(ClusterCount::WarmupKeys))
        .with("failovers", failovers)
        .with("failover_p99_us", failover_p99_us);
    cluster.drain();
    (phase, column)
}

/// Run one phase against a throwaway in-process server and tear it down.
fn spawn_and_drive(
    name: &str,
    config: &ServerConfig,
    conns: usize,
    count: usize,
    nodes: u64,
    dist: &KeyDist,
    resil: &Resilience,
) -> Phase {
    let mut server = Server::spawn(config).expect("bind ephemeral server");
    let addr = server.local_addr();
    let phase = drive(name, addr, conns, count, nodes, dist, resil);
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.call(&Request::Shutdown).expect("shutdown");
    server.wait();
    phase
}

fn print_phase(phase: &Phase) {
    eprintln!(
        "{:>10}: {} reqs in {:.2}s — {:.0} req/s, p50 {}us p95 {}us p99 {}us, \
         hit rate {:.1}%, {} overloaded, {} deadline, {} unavailable, \
         {} transport, {} corrupted, {} errors",
        phase.name,
        phase.requests,
        phase.wall_s,
        phase.throughput_rps(),
        phase.p50_us,
        phase.p95_us,
        phase.p99_us,
        phase.hit_rate() * 100.0,
        phase.tally.overloaded,
        phase.tally.deadline,
        phase.tally.unavailable,
        phase.tally.transport,
        phase.tally.corrupted,
        phase.tally.unclassified,
    );
}

fn main() {
    let opts = xtree_cli::parse_env("loadgen", USAGE, Opts::read);
    let resil = opts.resil;
    let (uniform, skewed) = (opts.uniform.clone(), opts.skewed.clone());
    let mut doc = Value::object()
        .with("bench", "server")
        .with("conns", opts.conns)
        .with("requests_per_conn", opts.requests)
        .with("family", "random-bst")
        .with("nodes", NODES)
        .with("seed", opts.seed)
        .with("seed_pool", uniform.pool);
    if resil.tolerant {
        let mut r = Value::object().with("allow_typed_errors", true);
        if let Some(seed) = opts.chaos_seed {
            r.set("chaos_seed", seed);
            r.set("chaos_profile", opts.chaos_profile.as_str());
        }
        if let Some(ms) = opts.deadline_ms {
            r.set("deadline_ms", ms);
        }
        doc.set("resilience", r);
    }

    let mut phases = Vec::new();
    if let Some(addr) = opts.addr {
        // External mode: one bounded phase against a live daemon; leave
        // it running for whoever started it.
        let phase = drive(
            "external",
            addr,
            opts.conns,
            opts.requests,
            NODES,
            skewed.as_ref().unwrap_or(&uniform),
            &resil,
        );
        print_phase(&phase);
        assert_eq!(
            phase.tally.unclassified, 0,
            "external run must have zero unclassified errors"
        );
        if !resil.tolerant {
            assert!(phase.tally.ok >= 1, "external run must serve something");
        }
        phases.push(phase);
    } else {
        let warm_config = ServerConfig {
            workers: 4,
            cache_cap: 256,
            ..ServerConfig::default()
        };
        let cold_config = ServerConfig {
            cache_cap: 0,
            ..warm_config.clone()
        };

        let warm = spawn_and_drive(
            "warm",
            &warm_config,
            opts.conns,
            opts.requests,
            NODES,
            &uniform,
            &resil,
        );
        print_phase(&warm);
        let cold = spawn_and_drive(
            "cold",
            &cold_config,
            opts.conns,
            opts.requests,
            NODES,
            &uniform,
            &resil,
        );
        print_phase(&cold);

        // Skewed-key phase: same warm server, keys drawn by the traffic
        // model over a (by default) 16x larger pool — the hit rate now
        // measures how much of the distribution's head the cache
        // captures instead of being a pool-size artifact.
        let warm_skewed = skewed.as_ref().map(|dist| {
            let p = spawn_and_drive(
                &format!("warm-{}", dist.label()),
                &warm_config,
                opts.conns,
                opts.requests,
                NODES,
                dist,
                &resil,
            );
            print_phase(&p);
            p
        });

        // Saturation probe: one worker, a queue of two, a burst of
        // distinct expensive keys — backpressure must be explicit.
        let tight = ServerConfig {
            workers: 1,
            queue_cap: 2,
            cache_cap: 0,
            ..ServerConfig::default()
        };
        let burst_conns = opts.conns.max(8);
        let saturation = spawn_and_drive(
            "saturation",
            &tight,
            burst_conns,
            2,
            NODES,
            &uniform,
            &resil,
        );
        print_phase(&saturation);

        // The contract the serving layer was built around. In --smoke the
        // workload is too small to promise a hit-rate or a speedup, but
        // backpressure must hold at any size. Under injected chaos or a
        // deadline budget the exact ok/overloaded split is fault-schedule
        // dependent, so only the zero-unclassified invariant stays hard.
        assert_eq!(
            warm.tally.unclassified + cold.tally.unclassified,
            0,
            "no request may fail unclassified"
        );
        if !resil.tolerant {
            assert_eq!(
                warm.tally.overloaded + cold.tally.overloaded,
                0,
                "sized queue must not bounce the throughput phases"
            );
        }
        if !opts.smoke && !resil.tolerant {
            // The 90% contract is stated for the default 4-key pool;
            // larger --key-pool runs exist precisely to measure how the
            // hit rate decays with pool size.
            if opts.key_pool.is_none() {
                assert!(
                    warm.hit_rate() > 0.9,
                    "repeated-key workload must hit the cache: {:.3}",
                    warm.hit_rate()
                );
            }
            assert!(
                warm.throughput_rps() > cold.throughput_rps(),
                "warm cache must out-run cold: {:.0} vs {:.0} req/s",
                warm.throughput_rps(),
                cold.throughput_rps()
            );
        }
        if !resil.tolerant {
            assert!(
                saturation.tally.overloaded >= 1,
                "saturation probe must observe Overloaded"
            );
            assert_eq!(
                saturation.tally.overloaded as u64, saturation.stats.overloaded,
                "client-observed bounces must match server telemetry"
            );
        }

        eprintln!(
            "warm/cold speedup: {:.2}x (hit rate {:.1}%)",
            warm.throughput_rps() / cold.throughput_rps(),
            warm.hit_rate() * 100.0
        );
        doc.set(
            "comparison",
            Value::object()
                .with("warm_rps", warm.throughput_rps())
                .with("cold_rps", cold.throughput_rps())
                .with("speedup", warm.throughput_rps() / cold.throughput_rps())
                .with("warm_hit_rate", warm.hit_rate()),
        );
        // Hit rate per (distribution, pool size), side by side — the
        // warm-cache number is only meaningful next to the pool it was
        // measured against.
        let mut dists = vec![Value::object()
            .with("distribution", "uniform")
            .with("keys", uniform.pool)
            .with("hit_rate", warm.hit_rate())];
        if let (Some(p), Some(dist)) = (&warm_skewed, &skewed) {
            if !opts.smoke && !resil.tolerant {
                assert!(
                    p.hit_rate() > 0.0,
                    "skewed head keys must repeat enough to hit"
                );
            }
            dists.push(
                Value::object()
                    .with("distribution", dist.label())
                    .with("keys", dist.pool)
                    .with("hit_rate", p.hit_rate()),
            );
        }
        doc.set("distributions", dists.into_iter().collect::<Value>());
        phases.extend([warm, cold, saturation]);
        phases.extend(warm_skewed);
    }

    if let Some(shards) = opts.via_router {
        // Cluster phase: the same workload through a consistent-hash
        // router over a fresh shard roster. A healthy roster must serve
        // everything with zero failovers; the column records the
        // counters either way.
        let (phase, column) =
            spawn_cluster_and_drive(shards, opts.conns, opts.requests, NODES, &uniform, &resil);
        print_phase(&phase);
        assert_eq!(
            phase.tally.unclassified, 0,
            "via-router run must not fail unclassified"
        );
        if !resil.tolerant {
            assert_eq!(
                phase.tally.ok, phase.requests,
                "router must serve every request"
            );
        }
        doc.set("cluster", column);
        phases.push(phase);
    }

    doc.set(
        "phases",
        phases.iter().map(Phase::report).collect::<Value>(),
    );
    if opts.smoke {
        eprintln!("smoke mode: skipping results file");
    } else {
        xtree_json::write_pretty_file(&opts.out, &doc).expect("write results");
        eprintln!("wrote {}", opts.out);
    }
}
