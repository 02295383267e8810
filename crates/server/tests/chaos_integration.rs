//! End-to-end fault injection: a loadgen-shaped drive through a
//! consistent-hash router whose shards serve every connection through
//! the seeded chaos transport. The contract under test is the
//! robustness tentpole's acceptance bar: the drive *completes* (a
//! watchdog bounds it — a hang is a failure, not a timeout), and every
//! single outcome is a typed one — success, `Overloaded`, a typed
//! `ERR_*` error, or a classified transport/corruption failure. Nothing
//! may come back unexplained, and nothing may wedge.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use xtree_server::{
    ChaosPlan, ChaosProfile, Client, ReconnectPolicy, Request, Response, Router, RouterConfig,
    Server, ServerConfig, ERR_BAD_REQUEST, ERR_DEADLINE, ERR_EXHAUSTED, ERR_SHUTTING_DOWN,
    ERR_UNREACHABLE,
};

const FAMILY: u8 = 4; // random-bst
const NODES: u64 = 496;

fn request_stream(conn: usize, count: usize) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let seed = 7000 + ((conn * 13 + i) % 5) as u64;
            if i % 3 == 0 {
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
                    workload: (i % 4) as u8,
                }
            }
        })
        .collect()
}

/// Outcome buckets; `unclassified` is the one that must stay zero.
#[derive(Default, Debug)]
struct Outcomes {
    ok: usize,
    overloaded: usize,
    deadline: usize,
    unavailable: usize,
    transport: usize,
    corrupted: usize,
    unclassified: usize,
}

impl Outcomes {
    fn total(&self) -> usize {
        self.ok
            + self.overloaded
            + self.deadline
            + self.unavailable
            + self.transport
            + self.corrupted
            + self.unclassified
    }
}

/// The drive itself, run on a watchdogged thread: spawn the chaotic
/// cluster, push a fixed workload through it with budgeted retrying
/// clients, classify every outcome, drain, and return the buckets.
fn drive_chaotic_cluster(conns: usize, count: usize) -> Outcomes {
    let plan = ChaosPlan::new(0xBAD5EED, ChaosProfile::heavy());
    let shard_config = ServerConfig {
        workers: 2,
        queue_cap: 32,
        cache_cap: 64,
        chaos: Some(plan),
        ..ServerConfig::default()
    };
    let mut shards: Vec<Server> = (0..2)
        .map(|_| Server::spawn(&shard_config).expect("bind shard"))
        .collect();
    let mut router = Router::spawn(&RouterConfig {
        shards: shards.iter().map(Server::local_addr).collect(),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr();

    let results: Vec<Outcomes> = thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    let mut out = Outcomes::default();
                    // The router side of the wire is clean; the chaos
                    // lives between router and shards.
                    let mut client = Client::connect(addr).expect("connect to router");
                    let policy = ReconnectPolicy::default();
                    for req in request_stream(conn, count) {
                        let result =
                            client.call_retrying(&req, &policy, Some(Duration::from_secs(5)), None);
                        match result {
                            Ok(Response::EmbedOk { .. } | Response::SimulateOk { .. }) => {
                                out.ok += 1;
                            }
                            Ok(Response::Overloaded { .. }) => out.overloaded += 1,
                            Ok(Response::Error { code, .. }) if code == ERR_DEADLINE => {
                                out.deadline += 1;
                            }
                            Ok(Response::Error { code, .. })
                                if [ERR_UNREACHABLE, ERR_EXHAUSTED, ERR_SHUTTING_DOWN]
                                    .contains(&code) =>
                            {
                                out.unavailable += 1;
                            }
                            Ok(Response::Error { code, .. }) if code == ERR_BAD_REQUEST => {
                                // Shard chaos garbled our forwarded bytes
                                // and the bounce propagated; resync.
                                out.corrupted += 1;
                                while client.reconnect().is_err() {}
                            }
                            Ok(other) => {
                                out.unclassified += 1;
                                eprintln!("chaos drive: unexpected response {other:?}");
                            }
                            Err(e) if e.is_transport() => out.transport += 1,
                            Err(e) => {
                                out.unclassified += 1;
                                eprintln!("chaos drive: unexpected error {e}");
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Drain. Under shard chaos the Shutdown acknowledgement itself can be
    // eaten mid-frame, so tolerate a failed call and fall back to the
    // owned handles, which kill outright.
    if let Ok(mut client) = Client::connect(addr) {
        let _ = client.call_retrying(&Request::Shutdown, &ReconnectPolicy::default(), None, None);
    }
    router.wait();
    for s in &mut shards {
        s.wait();
    }

    let mut total = Outcomes::default();
    for r in results {
        total.ok += r.ok;
        total.overloaded += r.overloaded;
        total.deadline += r.deadline;
        total.unavailable += r.unavailable;
        total.transport += r.transport;
        total.corrupted += r.corrupted;
        total.unclassified += r.unclassified;
    }
    total
}

#[test]
fn chaotic_cluster_degrades_into_typed_outcomes_only() {
    const CONNS: usize = 4;
    const COUNT: usize = 25;

    // Watchdog: the whole point of deadline budgets is that fault
    // injection can slow the serving path down but never wedge it. Run
    // the drive on its own thread and bound it with a recv timeout.
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        tx.send(drive_chaotic_cluster(CONNS, COUNT)).ok();
    });
    let out = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("chaotic drive must complete under the watchdog, never hang");

    assert_eq!(
        out.total(),
        CONNS * COUNT,
        "every request must be accounted for: {out:?}"
    );
    assert_eq!(out.unclassified, 0, "every failure must be typed: {out:?}");
    // The budgeted retrying client heals transient shard faults, so the
    // overwhelming majority must still succeed outright.
    assert!(
        out.ok >= CONNS * COUNT / 2,
        "chaos must degrade, not destroy: {out:?}"
    );
}

#[test]
fn spent_budgets_bounce_typed_at_every_hop() {
    // Through the router: a zero-microsecond budget is refused at
    // admission with ERR_DEADLINE before any shard work happens. The
    // budget is forged with the raw wire helpers because a live client
    // fails a spent budget locally (TimedOut) without touching the wire.
    use std::io::BufReader;
    use std::net::TcpStream;
    use xtree_server::wire::{decode_response, read_frame, write_request_host};

    let shard_config = ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache_cap: 16,
        ..ServerConfig::default()
    };
    let mut shard = Server::spawn(&shard_config).expect("bind shard");
    let mut router = Router::spawn(&RouterConfig {
        shards: vec![shard.local_addr()],
        ..RouterConfig::default()
    })
    .expect("bind router");

    // A cold key, and one warm on the shard, whose reply would come from
    // the cache without a queue hop: a spent budget bounces both.
    let key = |seed| Request::Embed {
        family: FAMILY,
        nodes: NODES,
        seed,
        theorem: 1,
    };
    let mut warmer = Client::connect(shard.local_addr()).expect("connect");
    for _ in 0..2 {
        let resp = warmer.call(&key(7101)).expect("warm");
        assert!(matches!(resp, Response::EmbedOk { .. }), "{resp:?}");
    }
    for addr in [router.local_addr(), shard.local_addr()] {
        for seed in [7100, 7101] {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            write_request_host(&mut writer, &key(seed), Some(0), None).expect("write");
            let bytes = read_frame(&mut reader)
                .expect("read")
                .expect("a spent budget is answered, not hung up on");
            match decode_response(&bytes).expect("decode") {
                Response::Error { code, message } => {
                    assert_eq!(code, ERR_DEADLINE, "typed deadline reject: {message}");
                }
                other => panic!("expected ERR_DEADLINE for seed {seed}, got {other:?}"),
            }
        }
    }

    let mut client = Client::connect(router.local_addr()).expect("connect");
    client.call(&Request::Shutdown).expect("shutdown");
    router.wait();
    shard.wait();
}
