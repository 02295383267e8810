//! Chaos benchmark: proves the serving path degrades into *typed*
//! failures — and does so deterministically — under seeded fault
//! injection and deadline pressure.
//!
//! Three phases, each designed so the numbers in the results doc are a
//! pure function of `(--seed, --profile, workload shape)`:
//!
//! 1. **zero-budget** — raw XWIRE1 frames carrying an already-spent
//!    deadline (`budget_us = 0`) at a clean server. Admission control
//!    must bounce every one with `ERR_DEADLINE` before any work queues;
//!    the count equals the request count exactly.
//! 2. **client-chaos** — the seeded chaos transport wraps the *client*
//!    side of each connection to a clean in-process server. Connections
//!    run strictly sequentially and no deadline is set, so every fault
//!    fires at a deterministic byte position and every outcome lands in
//!    the same typed bucket on every run — the full tally is recorded
//!    and byte-compared across runs in CI.
//! 3. **server-chaos-cluster** — a consistent-hash router over two
//!    shards whose *server* sides inject faults. Here timing does shape
//!    which bucket each request lands in (failover races health
//!    probing), so the doc records only the timing-independent
//!    invariants: the drive completed, nothing was unclassified, and
//!    client + router accounting covered every request.
//!
//! Wall-clock timings go to stderr only; `results/BENCH_chaos.json`
//! holds nothing that can drift between identical runs.
//!
//! Run with: cargo run --release -p xtree-bench --bin chaosbench

use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xtree_bench::serving::{LocalCluster, Tally};
use xtree_cli::Args;
use xtree_json::Value;
use xtree_server::wire::{decode_response, read_frame, write_request_host};
use xtree_server::{
    ChaosPlan, ChaosProfile, Client, ReconnectPolicy, Request, Response, RouterConfig, Server,
    ServerConfig, ShardCount, ERR_DEADLINE,
};

/// `random-bst` in `TreeFamily::ALL`.
const FAMILY: u8 = 4;
/// Small guests: the bench measures fault classification, not embedding
/// throughput, so compute stays cheap.
const NODES: u64 = 496;
const SEED_BASE: u64 = 3000;

const USAGE: &str = "[--seed N] [--profile P] [--conns N] [--requests N] [--out FILE]";

struct Opts {
    profile: String,
    plan: ChaosPlan,
    conns: usize,
    requests: usize,
    out: String,
}

impl Opts {
    fn read(a: &Args) -> Result<Opts, String> {
        let seed = a.num_or("seed", 1991)?;
        let profile = a.get_or("profile", "heavy").to_string();
        let plan = ChaosPlan::new(
            seed,
            ChaosProfile::parse(&profile).map_err(|e| format!("--profile: {e}"))?,
        );
        let (conns, requests) = (a.num_or("conns", 4)?, a.num_or("requests", 75)?);
        if conns == 0 || requests == 0 {
            return Err("--conns and --requests need work to do (≥ 1)".into());
        }
        Ok(Opts {
            profile,
            plan,
            conns,
            requests,
            out: a.get_or("out", "results/BENCH_chaos.json").to_string(),
        })
    }
}

/// The deterministic request stream for connection `conn`: 3:1
/// simulate:embed over a small repeated key pool, cycling workloads.
fn requests_for(conn: usize, count: usize) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let seed = SEED_BASE + ((conn * 31 + i) % 4) as u64;
            if i % 4 == 3 {
                Request::Embed {
                    family: FAMILY,
                    nodes: NODES,
                    seed,
                    theorem: 1,
                }
            } else {
                Request::Simulate {
                    family: FAMILY,
                    nodes: NODES,
                    seed,
                    theorem: 1,
                    workload: (i % 3) as u8,
                }
            }
        })
        .collect()
}

/// Phase 1: frames that arrive already out of budget. Raw wire calls —
/// no client-side deadline short-circuit — so the *server's* admission
/// control is what is being measured.
fn phase_zero_budget(requests: usize) -> Value {
    let mut server = Server::spawn(&ServerConfig::default()).expect("bind server");
    let addr = server.local_addr();
    let start = Instant::now();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    let mut deadline_rejected = 0usize;
    let mut other = 0usize;
    for req in requests_for(0, requests) {
        write_request_host(&mut writer, &req, Some(0), None).expect("write spent frame");
        let bytes = read_frame(&mut reader)
            .expect("read response")
            .expect("server must answer, not hang");
        match decode_response(&bytes).expect("typed response") {
            Response::Error { code, .. } if code == ERR_DEADLINE => deadline_rejected += 1,
            resp => {
                other += 1;
                eprintln!("chaosbench: zero-budget frame got {resp:?}");
            }
        }
    }
    drop((reader, writer));

    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.call(&Request::Shutdown).expect("shutdown");
    server.wait();
    eprintln!(
        "zero-budget: {requests} spent frames in {:.2}s — {deadline_rejected} ERR_DEADLINE",
        start.elapsed().as_secs_f64()
    );
    assert_eq!(
        deadline_rejected, requests,
        "every spent frame must bounce at admission"
    );
    Value::object()
        .with("phase", "zero-budget")
        .with("requests", requests)
        .with("deadline_rejected", deadline_rejected)
        .with("other", other)
        .with("all_typed", other == 0)
}

/// Phase 2: client-side chaos against a clean server, connections run
/// strictly one after another so the fault schedule — and therefore the
/// tally — is identical on every run.
fn phase_client_chaos(plan: ChaosPlan, conns: usize, requests: usize) -> Value {
    let mut server = Server::spawn(&ServerConfig::default()).expect("bind server");
    let addr = server.local_addr();
    let policy = ReconnectPolicy {
        max_retries: 8,
        backoff: xtree_sim::Backoff::Fixed(5),
    };
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut injected = xtree_server::ChaosCounts::default();
    for conn in 0..conns {
        let chaos = plan.conn(conn as u64);
        let mut client = loop {
            match Client::connect_with_chaos(addr, Some(chaos.clone())) {
                Ok(c) => break c,
                // An injected refusal; the fault is consumed, dial again.
                Err(_) => continue,
            }
        };
        for req in requests_for(conn, requests) {
            let resync = tally.classify(client.call_retrying(&req, &policy, None, None), true);
            if resync {
                while client.reconnect().is_err() {}
            }
        }
        drop(client);
        injected.add(&chaos.lock().expect("chaos counts").counts());
    }

    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.call(&Request::Shutdown).expect("shutdown");
    server.wait();
    let total = conns * requests;
    eprintln!(
        "client-chaos: {total} reqs in {:.2}s — {} ok, {} transport, {} corrupted, {} unclassified",
        start.elapsed().as_secs_f64(),
        tally.ok,
        tally.transport,
        tally.corrupted,
        tally.unclassified
    );
    assert_eq!(tally.total(), total, "every request must be accounted for");
    assert_eq!(tally.unclassified, 0, "no failure may go unclassified");
    Value::object()
        .with("phase", "client-chaos")
        .with("requests", total)
        .with("ok", tally.ok)
        .with("overloaded", tally.overloaded)
        .with("deadline_rejected", tally.deadline)
        .with("unavailable", tally.unavailable)
        .with("transport_errors", tally.transport)
        .with("corrupted", tally.corrupted)
        .with("unclassified", tally.unclassified)
        .with(
            "injected",
            Value::object()
                .with("delays", injected.delays)
                .with("shorts", injected.shorts)
                .with("corrupts", injected.corrupts)
                .with("resets", injected.resets)
                .with("truncates", injected.truncates)
                .with("refusals", injected.refusals),
        )
}

/// Phase 3: server-side chaos on every shard behind a clean router.
/// Failover timing makes the per-bucket split run-dependent, so only
/// timing-independent invariants are recorded.
fn phase_server_chaos_cluster(plan: ChaosPlan, conns: usize, requests: usize) -> Value {
    let shard_config = ServerConfig {
        chaos: Some(plan),
        ..ServerConfig::default()
    };
    let cluster = LocalCluster::spawn(2, &shard_config, &RouterConfig::default());
    let addr = cluster.router.local_addr();

    let start = Instant::now();
    let budget = Duration::from_secs(5);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut client = Client::connect(addr).expect("connect to router");
                    let policy = ReconnectPolicy::default();
                    for req in requests_for(conn, requests) {
                        let result = client.call_retrying(&req, &policy, Some(budget), None);
                        if tally.classify(result, true) {
                            while client.reconnect().is_err() {}
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut tally = Tally::default();
    for t in &tallies {
        tally.add(t);
    }
    let metrics = cluster.router.metrics();
    eprintln!(
        "server-chaos-cluster: {} reqs in {:.2}s — {} ok, {} deadline, {} unavailable, \
         {} transport, {} corrupted ({} routed, {} failed, {} replayed)",
        conns * requests,
        start.elapsed().as_secs_f64(),
        tally.ok,
        tally.deadline,
        tally.unavailable,
        tally.transport,
        tally.corrupted,
        metrics.total(ShardCount::Routed),
        metrics.total(ShardCount::Failed),
        metrics.total(ShardCount::Replayed),
    );

    cluster.drain();

    let total = conns * requests;
    assert_eq!(tally.total(), total, "every request must be accounted for");
    assert_eq!(tally.unclassified, 0, "no failure may go unclassified");
    Value::object()
        .with("phase", "server-chaos-cluster")
        .with("shards", 2)
        .with("requests", total)
        .with("completed", true)
        .with("unclassified", tally.unclassified)
        .with("all_accounted", tally.total() == total)
}

fn main() {
    let opts = xtree_cli::parse_env("chaosbench", USAGE, Opts::read);

    let phases = vec![
        phase_zero_budget(opts.conns * opts.requests),
        phase_client_chaos(opts.plan, opts.conns, opts.requests),
        phase_server_chaos_cluster(opts.plan, opts.conns, opts.requests),
    ];

    let doc = Value::object()
        .with("bench", "chaos")
        .with("chaos_seed", opts.plan.seed)
        .with("chaos_profile", opts.profile.as_str())
        .with("conns", opts.conns)
        .with("requests_per_conn", opts.requests)
        .with("phases", phases.into_iter().collect::<Value>());
    xtree_json::write_pretty_file(&opts.out, &doc).expect("write results");
    eprintln!("wrote {}", opts.out);
}
