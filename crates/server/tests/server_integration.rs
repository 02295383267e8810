//! End-to-end daemon tests over real sockets: concurrent clients against
//! an ephemeral-port server, cache behaviour under contention, explicit
//! backpressure at queue saturation, warm hits answered beside a
//! saturated pool, malformed-byte robustness, deadline accounting, and
//! the graceful shutdown drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xtree_server::{
    Client, Request, Response, Server, ServerConfig, WireError, ERR_DEADLINE, ERR_SHUTTING_DOWN,
    WORKLOAD_ALL,
};
use xtree_telemetry::Format;

fn config(workers: usize, queue_cap: usize, cache_cap: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        cache_cap,
        io_timeout: None,
        chaos: None,
        ..ServerConfig::default()
    }
}

/// The key every concurrency test hammers: one (family, nodes, seed,
/// theorem) identity, so all worker threads contend on one cache entry.
const FAMILY: u8 = 4; // random-bst
const NODES: u64 = 496;
const SEED: u64 = 11;

fn embed_req() -> Request {
    Request::Embed {
        family: FAMILY,
        nodes: NODES,
        seed: SEED,
        theorem: 1,
    }
}

fn simulate_req() -> Request {
    Request::Simulate {
        family: FAMILY,
        nodes: NODES,
        seed: SEED,
        theorem: 1,
        workload: WORKLOAD_ALL,
    }
}

/// Series `name`'s value in the server's Prometheus text.
fn series(server: &Server, name: &str) -> u64 {
    let prom = server.metrics(Format::Prom);
    let prefix = format!("xtree_server_{name} ");
    prom.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no series {name} in {prom}"))
        .parse()
        .expect("a whole number")
}

/// Polls until `done` holds, or panics after ten seconds.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "timed out waiting until {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A cold `Embed` that keeps a worker busy for a while: a 32 752-node
/// guest on X(10).
fn big_embed(seed: u64) -> Request {
    Request::Embed {
        family: FAMILY,
        nodes: 32_752,
        seed,
        theorem: 1,
    }
}

/// Sends `req` on a fresh connection from a new thread.
fn spawn_call(addr: std::net::SocketAddr, req: Request) -> std::thread::JoinHandle<Response> {
    std::thread::spawn(move || Client::connect(addr).unwrap().call(&req).unwrap())
}

#[test]
fn concurrent_clients_share_the_cache_and_agree() {
    let mut server = Server::spawn(&config(2, 16, 8)).expect("bind");
    let addr = server.local_addr();

    // The single-threaded reference answers, straight through one client.
    let mut reference = Client::connect(addr).unwrap();
    let ref_embed = reference.call(&embed_req()).unwrap();
    let Response::EmbedOk {
        height,
        dilation,
        max_load,
        ..
    } = ref_embed
    else {
        panic!("expected EmbedOk, got {ref_embed:?}");
    };
    assert!(dilation <= 3, "Theorem 1 bound");
    assert_eq!(max_load, 16, "Theorem 1 bound");
    let ref_sim = reference.call(&simulate_req()).unwrap();
    let Response::SimulateOk {
        reports: ref_reports,
        ..
    } = ref_sim
    else {
        panic!("expected SimulateOk");
    };
    assert_eq!(ref_reports.len(), 4);

    // Four client threads fire Embed + Simulate for the same key.
    let results: Vec<(Response, Response)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let e = c.call(&embed_req()).unwrap();
                    let s = c.call(&simulate_req()).unwrap();
                    (e, s)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (e, s) in &results {
        // Every concurrent embed reports the same construction...
        let Response::EmbedOk {
            height: h,
            dilation: d,
            max_load: l,
            ..
        } = e
        else {
            panic!("expected EmbedOk, got {e:?}");
        };
        assert_eq!((*h, *d, *l), (height, dilation, max_load));
        // ...and every simulation matches the single-threaded reports.
        let Response::SimulateOk { reports, .. } = s else {
            panic!("expected SimulateOk, got {s:?}");
        };
        assert_eq!(reports, &ref_reports, "concurrency must not change results");
    }

    // 10 compute requests for one key: at most the racing cold builds
    // miss.
    let stats = reference.call(&Request::Stats).unwrap();
    let Response::StatsOk(stats) = stats else {
        panic!("expected StatsOk");
    };
    assert_eq!(stats.embeds + stats.simulates, 10);
    assert!(
        stats.cache_hits >= 6,
        "expected most lookups to hit one shared entry, got {stats:?}"
    );
    // One counted lookup per request, whichever thread answered it.
    assert_eq!(stats.cache_hits + stats.cache_misses, 10, "{stats:?}");
    // Inline replies are observed like queued ones.
    assert_eq!(stats.latency_count, 10, "{stats:?}");
    assert!(stats.cache_entries >= 1);
    // 10 compute requests plus the Stats request itself (counted before
    // the snapshot is taken).
    assert_eq!(stats.requests, 11);
    // Every compute request was answered inline or went through the
    // queue; none was bounced or refused.
    assert_eq!(
        series(&server, "embeds_total") + series(&server, "simulates_total"),
        series(&server, "inline_replies_total")
            + series(&server, "queue_depth_observed_count")
            + series(&server, "overloaded_total")
    );
    assert!(series(&server, "inline_replies_total") >= 1);

    let resp = reference.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::ShutdownOk { .. }));
    server.wait();
}

#[test]
fn saturated_queue_answers_overloaded_not_hangs() {
    // One worker, queue of one: a burst of slow simulates from many
    // connections must bounce some requests immediately.
    let mut server = Server::spawn(&config(1, 1, 8)).expect("bind");
    let addr = server.local_addr();

    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    // Distinct seeds so nothing is served from cache.
                    c.call(&Request::Simulate {
                        family: FAMILY,
                        nodes: 2032,
                        seed: 100 + i,
                        theorem: 1,
                        workload: WORKLOAD_ALL,
                    })
                    .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = responses
        .iter()
        .filter(|r| matches!(r, Response::SimulateOk { .. }))
        .count();
    let overloaded = responses
        .iter()
        .filter(|r| matches!(r, Response::Overloaded { .. }))
        .count();
    assert_eq!(
        ok + overloaded,
        8,
        "only Ok/Overloaded expected: {responses:?}"
    );
    assert!(ok >= 1, "some requests must be served");
    assert_eq!(server.overloaded(), overloaded as u64);

    let mut c = Client::connect(addr).unwrap();
    c.call(&Request::Shutdown).unwrap();
    server.wait();
}

#[test]
fn warm_hits_bypass_a_saturated_pool() {
    // One worker, queue of one: once a cold build runs and another waits,
    // every cold request bounces.
    let mut server = Server::spawn(&config(1, 1, 8)).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // Warm one small key: the first Embed builds and scores, the second
    // hits, and the Simulate fills every slot.
    for req in [embed_req(), embed_req(), simulate_req()] {
        let resp = client.call(&req).unwrap();
        assert!(
            matches!(resp, Response::EmbedOk { .. } | Response::SimulateOk { .. }),
            "{resp:?}"
        );
    }

    let pushed = series(&server, "queue_depth_observed_count");
    let running = spawn_call(addr, big_embed(900));
    wait_until("the first big build runs", || {
        series(&server, "queue_depth_observed_count") == pushed + 1
            && series(&server, "queue_depth") == 0
    });
    let queued = spawn_call(addr, big_embed(901));
    wait_until("the second big build waits in the queue", || {
        let health = client.call(&Request::Health).unwrap();
        matches!(health, Response::HealthOk { info: Some(i) } if i.queue_depth == 1)
    });

    let bounced = server.overloaded();
    let warm = client.call(&embed_req()).unwrap();
    assert!(
        matches!(warm, Response::EmbedOk { cached: true, .. }),
        "a warm Embed must not need the pool: {warm:?}"
    );
    let warm = client.call(&simulate_req()).unwrap();
    assert!(
        matches!(warm, Response::SimulateOk { cached: true, .. }),
        "a memo-hit Simulate must not need the pool: {warm:?}"
    );
    assert_eq!(server.overloaded(), bounced, "warm hits are never bounced");

    for handle in [running, queued] {
        let resp = handle.join().unwrap();
        assert!(matches!(resp, Response::EmbedOk { .. }), "{resp:?}");
    }
    client.call(&Request::Shutdown).unwrap();
    server.wait();
}

#[test]
fn warm_hits_after_the_drain_starts_are_refused() {
    let mut server = Server::spawn(&config(1, 4, 8)).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..2 {
        let resp = client.call(&embed_req()).unwrap();
        assert!(matches!(resp, Response::EmbedOk { .. }), "{resp:?}");
    }
    let hits = series(&server, "cache_hits_total");
    assert_eq!(hits, 1, "the second Embed hit");

    server.shutdown();
    // The connection outlives the acceptor; its handler still answers,
    // but with the drain's refusal, not from the cache.
    let resp = client.call(&embed_req()).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ERR_SHUTTING_DOWN,
                ..
            }
        ),
        "{resp:?}"
    );
    assert_eq!(series(&server, "cache_hits_total"), hits, "no lookup");
    server.wait();
}

#[test]
fn a_budget_spent_in_the_queue_is_counted_once() {
    let mut server = Server::spawn(&config(1, 4, 8)).expect("bind");
    let addr = server.local_addr();
    let running = spawn_call(addr, big_embed(910));
    wait_until("the big build runs", || {
        series(&server, "queue_depth_observed_count") == 1 && series(&server, "queue_depth") == 0
    });

    // A cold Embed queued behind the build: its handler gives up when the
    // 5 ms budget runs out, and the worker rejects it on the way past.
    let mut client = Client::connect(addr).unwrap();
    let resp = client
        .call_host(&big_embed(911), Some(Duration::from_millis(5)), None)
        .unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ERR_DEADLINE,
                ..
            }
        ),
        "{resp:?}"
    );
    assert!(matches!(running.join().unwrap(), Response::EmbedOk { .. }));
    // A cold request queued after it returns only once the worker has
    // popped the expired one.
    let resp = client
        .call(&Request::Embed {
            family: FAMILY,
            nodes: 240,
            seed: 912,
            theorem: 1,
        })
        .unwrap();
    assert!(matches!(resp, Response::EmbedOk { .. }), "{resp:?}");

    let Response::StatsOk(stats) = client.call(&Request::Stats).unwrap() else {
        panic!("expected StatsOk");
    };
    assert_eq!(stats.errors, 1, "{stats:?}");
    assert_eq!(series(&server, "deadline_rejects_total"), 1);
    client.call(&Request::Shutdown).unwrap();
    server.wait();
}

#[test]
fn garbage_bytes_get_a_typed_error_and_valid_clients_continue() {
    let mut server = Server::spawn(&config(1, 4, 4)).expect("bind");
    let addr = server.local_addr();

    // A liar: correct magic, then junk. The server must answer with a
    // typed Error frame and close — not crash, not hang.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"XWIRE1\n\x05hello").unwrap();
    raw.flush().unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap(); // server closes after replying
    assert!(!buf.is_empty(), "expected an error response before close");
    let mut cursor = &buf[..];
    let frame = xtree_server::wire::read_frame(&mut cursor)
        .unwrap()
        .expect("one response frame");
    let resp = xtree_server::wire::decode_response(&frame).unwrap();
    assert!(
        matches!(resp, Response::Error { code: 1, .. }),
        "expected bad-request error, got {resp:?}"
    );

    // And a total liar: no magic at all.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    raw.flush().unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap();

    // The daemon is still healthy for honest clients.
    let mut c = Client::connect(addr).unwrap();
    let health = c.call(&Request::Health).unwrap();
    let Response::HealthOk { info } = health else {
        panic!("expected HealthOk, got {health:?}");
    };
    assert!(
        info.is_some_and(|i| i.queue_depth == 0),
        "health must carry the load signals: {info:?}"
    );
    c.call(&Request::Shutdown).unwrap();
    server.wait();
}

#[test]
fn shutdown_drains_queued_work_and_refuses_new() {
    let mut server = Server::spawn(&config(1, 16, 8)).expect("bind");
    let addr = server.local_addr();

    // Fill the queue with slow work from background connections, then
    // shut down while they are in flight: every accepted request must
    // still get a real answer.
    let results: Vec<Response> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.call(&Request::Simulate {
                        family: FAMILY,
                        nodes: 2032,
                        seed: 500 + i,
                        theorem: 1,
                        workload: WORKLOAD_ALL,
                    })
                    .unwrap()
                })
            })
            .collect();
        // Give the burst a moment to enqueue, then pull the plug.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut c = Client::connect(addr).unwrap();
        let resp = c.call(&Request::Shutdown).unwrap();
        assert!(matches!(resp, Response::ShutdownOk { .. }));
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Accepted requests drained to real responses (no hangs, no drops).
    for r in &results {
        assert!(
            matches!(
                r,
                Response::SimulateOk { .. } | Response::Overloaded { .. } | Response::Error { .. }
            ),
            "unexpected response during drain: {r:?}"
        );
    }
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Response::SimulateOk { .. })),
        "at least the in-flight request must complete"
    );
    server.wait();

    // The listener is gone after the drain.
    assert!(
        Client::connect(addr)
            .map(|mut c| c.call(&Request::Health))
            .map_or(true, |r| matches!(
                r,
                Err(WireError::Closed | WireError::Io(_))
            )),
        "post-shutdown connections must fail"
    );
}

#[test]
fn deadline_budgets_succeed_generous_and_fail_typed_when_spent() {
    use std::time::Duration;

    let mut server = Server::spawn(&config(2, 16, 16)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A generous budget rides the trailing field end to end and the
    // request completes normally.
    let resp = client
        .call_host(&embed_req(), Some(Duration::from_secs(10)), None)
        .unwrap();
    assert!(matches!(resp, Response::EmbedOk { .. }));

    // A spent budget fails fast and typed — locally, before the frame
    // ever reaches the wire.
    let err = client
        .call_host(&embed_req(), Some(Duration::ZERO), None)
        .unwrap_err();
    assert!(
        matches!(err, WireError::TimedOut),
        "spent budget must be TimedOut, got {err}"
    );

    // The connection survives the local rejection: budget-free calls on
    // the same client still work (timeouts were restored to blocking).
    let resp = client.call(&embed_req()).unwrap();
    assert!(matches!(resp, Response::EmbedOk { .. }));

    client.call(&Request::Shutdown).unwrap();
    server.wait();
}

#[test]
fn budgets_past_u64_microseconds_saturate_instead_of_wrapping() {
    use std::io::BufReader;
    use std::net::TcpListener;
    use std::time::Duration;
    use xtree_server::wire::{decode_request_host, read_frame, write_response, NO_BUDGET};

    // The test owns the peer, so it sees the frame exactly as sent.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut seen = Vec::new();
        while let Some(bytes) = read_frame(&mut reader).unwrap() {
            seen.push(decode_request_host(&bytes).unwrap());
            write_response(&mut writer, &Response::ShutdownOk { pending: 0 }).unwrap();
        }
        seen
    });

    // 2^64 µs is about 18 446 744 073 709 552 ms: this budget is just
    // past what the budget word can carry.
    let huge = Some(Duration::from_millis(18_446_744_073_709_552));
    let mut client = Client::connect(addr).unwrap();
    client.call_host(&embed_req(), huge, None).unwrap();
    client.call_host(&embed_req(), huge, Some(2)).unwrap();
    drop(client);

    assert_eq!(
        peer.join().unwrap(),
        vec![
            (embed_req(), Some(u64::MAX), None),
            // Beside a host tag the encoder clamps below the sentinel.
            (embed_req(), Some(NO_BUDGET - 1), Some(2)),
        ]
    );
}

#[test]
fn stats_and_health_requests_are_exported() {
    let mut server = Server::spawn(&config(1, 4, 4)).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(
        client.call(&Request::Stats).unwrap(),
        Response::StatsOk(_)
    ));
    assert!(matches!(
        client.call(&Request::Health).unwrap(),
        Response::HealthOk { .. }
    ));
    let prom = server.metrics(Format::Prom);
    assert!(
        prom.contains("\nxtree_server_stats_requests_total 1\n"),
        "{prom}"
    );
    assert!(
        prom.contains("\nxtree_server_health_requests_total 1\n"),
        "{prom}"
    );
    let jsonl = server.metrics(Format::Jsonl);
    assert!(jsonl.contains("\"stats_requests\":1,\"health_requests\":1,"));
    client.call(&Request::Shutdown).unwrap();
    server.wait();
}
