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
use xtree_json::Value;
use xtree_server::wire::{decode_response, read_frame, write_request_host};
use xtree_server::{
    ChaosPlan, ChaosProfile, Client, ReconnectPolicy, Request, Response, Router, RouterConfig,
    Server, ServerConfig, ShardCount, ERR_BAD_REQUEST, ERR_DEADLINE, ERR_EXHAUSTED,
    ERR_SHUTTING_DOWN, ERR_UNREACHABLE,
};

/// `random-bst` in `TreeFamily::ALL`.
const FAMILY: u8 = 4;
/// Small guests: the bench measures fault classification, not embedding
/// throughput, so compute stays cheap.
const NODES: u64 = 496;
const SEED_BASE: u64 = 3000;

struct Opts {
    seed: u64,
    profile: String,
    conns: usize,
    requests: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        seed: 1991,
        profile: "heavy".into(),
        conns: 4,
        requests: 75,
        out: "results/BENCH_chaos.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => opts.seed = take().parse().expect("--seed takes a u64"),
            "--profile" => opts.profile = take(),
            "--conns" => opts.conns = take().parse().expect("--conns takes a count"),
            "--requests" => opts.requests = take().parse().expect("--requests takes a count"),
            "--out" => opts.out = take(),
            other => panic!("unknown argument: {other}"),
        }
    }
    assert!(opts.conns >= 1 && opts.requests >= 1, "need work to do");
    opts
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

/// Where every request of a phase landed. `unclassified` must be zero in
/// every phase; the other buckets are phase-specific.
#[derive(Default)]
struct Tally {
    ok: usize,
    overloaded: usize,
    deadline: usize,
    unavailable: usize,
    transport: usize,
    corrupted: usize,
    unclassified: usize,
}

impl Tally {
    fn total(&self) -> usize {
        self.ok
            + self.overloaded
            + self.deadline
            + self.unavailable
            + self.transport
            + self.corrupted
            + self.unclassified
    }

    fn classify(&mut self, result: Result<Response, xtree_server::WireError>, chaos: bool) -> bool {
        match result {
            Ok(Response::EmbedOk { .. } | Response::SimulateOk { .. }) => self.ok += 1,
            Ok(Response::Overloaded { .. }) => self.overloaded += 1,
            Ok(Response::Error { code, .. }) if code == ERR_DEADLINE => self.deadline += 1,
            Ok(Response::Error { code, .. })
                if [ERR_UNREACHABLE, ERR_EXHAUSTED, ERR_SHUTTING_DOWN].contains(&code) =>
            {
                self.unavailable += 1;
            }
            Ok(Response::Error { code, .. }) if code == ERR_BAD_REQUEST && chaos => {
                // The peer bounced our garbled bytes; the stream is
                // desynced and the caller must resync with a fresh dial.
                self.corrupted += 1;
                return true;
            }
            Ok(other) => {
                self.unclassified += 1;
                eprintln!("chaosbench: unexpected response: {other:?}");
            }
            Err(e) if e.is_transport() => self.transport += 1,
            Err(_) if chaos => {
                self.corrupted += 1;
                return true;
            }
            Err(e) => {
                self.unclassified += 1;
                eprintln!("chaosbench: unexpected error: {e}");
            }
        }
        false
    }
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
    let mut servers: Vec<Server> = (0..2)
        .map(|_| Server::spawn(&shard_config).expect("bind shard"))
        .collect();
    let mut router = Router::spawn(&RouterConfig {
        shards: servers.iter().map(Server::local_addr).collect(),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr();

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
        tally.ok += t.ok;
        tally.overloaded += t.overloaded;
        tally.deadline += t.deadline;
        tally.unavailable += t.unavailable;
        tally.transport += t.transport;
        tally.corrupted += t.corrupted;
        tally.unclassified += t.unclassified;
    }
    let metrics = router.metrics();
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

    // Drain: the router forwards Shutdown to every shard; under server
    // chaos the acknowledgement itself can be eaten, so fall back to
    // dropping the processes directly.
    if let Ok(mut client) = Client::connect(addr) {
        let _ = client.call_retrying(&Request::Shutdown, &ReconnectPolicy::default(), None, None);
    }
    router.wait();
    for s in &mut servers {
        s.wait();
    }

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
    let opts = parse_opts();
    let profile = ChaosProfile::parse(&opts.profile).unwrap_or_else(|e| panic!("--profile: {e}"));
    let plan = ChaosPlan::new(opts.seed, profile);

    let phases = vec![
        phase_zero_budget(opts.conns * opts.requests),
        phase_client_chaos(plan, opts.conns, opts.requests),
        phase_server_chaos_cluster(plan, opts.conns, opts.requests),
    ];

    let doc = Value::object()
        .with("bench", "chaos")
        .with("chaos_seed", opts.seed)
        .with("chaos_profile", opts.profile.as_str())
        .with("conns", opts.conns)
        .with("requests_per_conn", opts.requests)
        .with("phases", phases.into_iter().collect::<Value>());
    xtree_json::write_pretty_file(&opts.out, &doc).expect("write results");
    eprintln!("wrote {}", opts.out);
}
