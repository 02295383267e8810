//! End-to-end cluster tests over real sockets: a consistent-hash router
//! in front of in-process shard daemons, byte-agreement with a
//! single-server reference, shard death under concurrent load with
//! nothing lost, typed terminal errors once the whole roster is dead,
//! and the client's own reconnect-after-restart loop.
//!
//! "Byte-agreement" is modulo one bit: the response's `cached` flag
//! reports which *shard's* LRU answered, so it legitimately differs
//! between a sharded cluster and the single reference server. The
//! [`normalized`] helper zeroes it before encoding both sides.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use xtree_host::{HOST_HYPERCUBE, HOST_UNIVERSAL};
use xtree_server::cluster::{ClusterCount, Router, RouterConfig, ShardCount};
use xtree_server::{
    Client, ReconnectPolicy, Request, Response, Server, ServerConfig, WireError, ERR_UNREACHABLE,
};
use xtree_sim::Backoff;

const FAMILY: u8 = 4; // random-bst
const NODES: u64 = 496;

fn embed_req(seed: u64) -> Request {
    Request::Embed {
        family: FAMILY,
        nodes: NODES,
        seed,
        theorem: 1,
    }
}

fn simulate_req(seed: u64) -> Request {
    Request::Simulate {
        family: FAMILY,
        nodes: NODES,
        seed,
        theorem: 1,
        workload: 0, // broadcast only: keeps the load phase fast
    }
}

fn shard_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 32,
        cache_cap: 64,
        io_timeout: None,
        chaos: None,
        ..ServerConfig::default()
    }
}

/// A router over `shards` with test-speed failover knobs: fast probes,
/// two-strike ejection, tight replay backoff.
fn router_config(shards: &[&Server]) -> RouterConfig {
    RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: shards.iter().map(|s| s.local_addr()).collect(),
        ring_seed: 1991,
        vnodes: 64,
        probe_interval: Duration::from_millis(20),
        fail_after: 2,
        replay: ReconnectPolicy {
            max_retries: 10,
            backoff: Backoff::Fixed(10),
        },
    }
}

/// Zeroes the cache-provenance bit so cluster and reference responses
/// can be compared byte-for-byte.
fn normalized(mut resp: Response) -> Response {
    match &mut resp {
        Response::EmbedOk { cached, .. } | Response::SimulateOk { cached, .. } => *cached = false,
        _ => {}
    }
    resp
}

/// The encoded bytes of a normalized response — the agreement currency.
fn wire_bytes(resp: Response) -> Vec<u8> {
    let mut buf = Vec::new();
    xtree_server::wire::encode_response(&normalized(resp), &mut buf);
    buf
}

#[test]
fn router_agrees_with_single_server_reference_byte_for_byte() {
    let mut shards: Vec<Server> = (0..3)
        .map(|_| Server::spawn(&shard_config()).unwrap())
        .collect();
    let mut router = Router::spawn(&router_config(&shards.iter().collect::<Vec<_>>())).unwrap();
    let mut reference = Server::spawn(&shard_config()).unwrap();

    let mut via_router = Client::connect(router.local_addr()).unwrap();
    let mut direct = Client::connect(reference.local_addr()).unwrap();
    // Every trailer shape goes through the router, which re-encodes each
    // forwarded frame: none, a budget, a host tag, and both. NODES = 496
    // is X(4), inside the universal host's height cap.
    let budget = Some(Duration::from_secs(60));
    let shapes = [
        (None, None),
        (budget, None),
        (None, Some(HOST_HYPERCUBE)),
        (budget, Some(HOST_UNIVERSAL)),
    ];
    for seed in 0..24 {
        for req in [embed_req(seed), simulate_req(seed)] {
            for (budget, host) in shapes {
                let a = via_router.call_host(&req, budget, host).unwrap();
                let b = direct.call_host(&req, budget, host).unwrap();
                assert!(
                    matches!(a, Response::EmbedOk { .. } | Response::SimulateOk { .. }),
                    "{req:?} {budget:?} {host:?}: {a:?}"
                );
                assert_eq!(
                    wire_bytes(a),
                    wire_bytes(b),
                    "disagreement on {req:?} with budget {budget:?}, host {host:?}"
                );
            }
        }
    }

    // The router's Health carries its own load signal (dead-shard count
    // in queue_depth), and Stats aggregates across the roster.
    let health = via_router.call(&Request::Health).unwrap();
    let Response::HealthOk { info } = health else {
        panic!("expected HealthOk, got {health:?}");
    };
    assert_eq!(info.expect("router health has info").queue_depth, 0);
    let stats = via_router.call(&Request::Stats).unwrap();
    let Response::StatsOk(stats) = stats else {
        panic!("expected StatsOk, got {stats:?}");
    };
    assert_eq!(
        stats.embeds + stats.simulates,
        24 * 2 * 4,
        "aggregate stats must see all forwarded compute: {stats:?}"
    );

    let resp = via_router.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::ShutdownOk { .. }));
    router.wait();
    for s in &mut shards {
        s.wait(); // the router's cluster-wide drain shut them down
    }
    let mut c = Client::connect(reference.local_addr()).unwrap();
    c.call(&Request::Shutdown).unwrap();
    reference.wait();
}

#[test]
fn shard_death_under_load_loses_and_corrupts_nothing() {
    let shards: Vec<Server> = (0..3)
        .map(|_| Server::spawn(&shard_config()).unwrap())
        .collect();
    let mut router = Router::spawn(&router_config(&shards.iter().collect::<Vec<_>>())).unwrap();
    let metrics = router.metrics();
    let shard_set = router.shard_set();
    let router_addr = router.local_addr();

    // Single-threaded reference answers for every key in the run.
    let mut reference = Server::spawn(&shard_config()).unwrap();
    let mut direct = Client::connect(reference.local_addr()).unwrap();
    let expected: Vec<Vec<u8>> = (0..48)
        .map(|seed| wire_bytes(direct.call(&embed_req(seed)).unwrap()))
        .collect();

    // Four clients sweep the key space through the router; after the
    // first quarter of requests, shard 0 is killed mid-load (its listener
    // closes and every cached connection resets).
    let killed = AtomicBool::new(false);
    let victim = &shards[0];
    let answers: Vec<(u64, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let killed = &killed;
                scope.spawn(move || {
                    let mut c = Client::connect(router_addr).unwrap();
                    let mut got = Vec::new();
                    for i in 0..12u64 {
                        let seed = t * 12 + i;
                        if t == 0 && i == 3 && !killed.swap(true, Ordering::SeqCst) {
                            victim.shutdown();
                        }
                        let resp = c.call(&embed_req(seed)).unwrap();
                        assert!(
                            matches!(resp, Response::EmbedOk { .. }),
                            "seed {seed} answered {resp:?} — a client saw the failover"
                        );
                        got.push((seed, wire_bytes(resp)));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Every request was answered exactly once, byte-identical to the
    // reference — replay neither lost nor duplicated anything.
    assert_eq!(answers.len(), 48);
    for (seed, bytes) in &answers {
        assert_eq!(
            bytes, &expected[*seed as usize],
            "response for seed {seed} diverged from the reference"
        );
    }
    // The detector observed the death (via probes, forwards, or both).
    assert_eq!(shard_set.live_count(), 2, "shard 0 must be ejected");
    assert!(
        metrics.total(ShardCount::Failed) >= 1,
        "the router must have seen the dead shard's transport failures"
    );
    assert_eq!(metrics.get(ClusterCount::Unreachable), 0);
    assert_eq!(metrics.get(ClusterCount::Exhausted), 0);

    let mut c = Client::connect(router_addr).unwrap();
    c.call(&Request::Shutdown).unwrap();
    router.wait();
    for mut s in shards {
        s.wait();
    }
    direct.call(&Request::Shutdown).unwrap();
    reference.wait();
}

#[test]
fn all_shards_dead_yields_typed_unreachable() {
    let shard = Server::spawn(&shard_config()).unwrap();
    let config = RouterConfig {
        replay: ReconnectPolicy {
            max_retries: 2,
            backoff: Backoff::Fixed(5),
        },
        ..router_config(&[&shard])
    };
    let mut router = Router::spawn(&config).unwrap();
    let shard_set = router.shard_set();

    // Kill the only shard and wait for the detector to eject it.
    shard.shutdown();
    let mut shard = shard;
    shard.wait();
    for _ in 0..100 {
        if shard_set.live_count() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(shard_set.live_count(), 0, "probe loop must eject the shard");

    let mut c = Client::connect(router.local_addr()).unwrap();
    let resp = c.call(&embed_req(1)).unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected a typed error, got {resp:?}");
    };
    assert_eq!(code, ERR_UNREACHABLE, "dead roster must answer Unreachable");

    router.shutdown();
    router.wait();
}

#[test]
fn client_reconnects_across_a_server_restart() {
    let mut first = Server::spawn(&shard_config()).unwrap();
    let addr = first.local_addr();
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client.call(&embed_req(7)).unwrap(),
        Response::EmbedOk { .. }
    ));

    // Kill the peer over the wire — the handler closes our connection
    // after acknowledging — then bring a replacement up on the same
    // address (the listener socket is closed, so the port is immediately
    // rebindable).
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShutdownOk { .. }
    ));
    first.wait();
    let mut second = Server::spawn(&ServerConfig {
        addr: addr.to_string(),
        ..shard_config()
    })
    .expect("rebind the freed port");

    // A plain call sees a typed transport error...
    let err = client.call(&embed_req(7)).unwrap_err();
    assert!(err.is_transport(), "expected a transport class, got {err}");
    assert!(
        matches!(
            err,
            WireError::Closed | WireError::Reset | WireError::Refused
        ),
        "unexpected transport flavour: {err}"
    );
    // ...and the retrying call heals the connection and replays.
    let policy = ReconnectPolicy {
        max_retries: 5,
        backoff: Backoff::Fixed(20),
    };
    let resp = client
        .call_retrying(&embed_req(7), &policy, None, None)
        .unwrap();
    assert!(matches!(resp, Response::EmbedOk { .. }), "{resp:?}");
    assert!(client.replays() >= 1, "the replay must be accounted");

    client.call(&Request::Shutdown).unwrap();
    second.wait();
}
