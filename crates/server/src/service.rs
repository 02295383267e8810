//! Request execution: what a worker thread does with a pooled request.
//!
//! Validation happens here, not in the codec — the wire layer moves any
//! well-formed message, and the service decides whether the values make
//! sense (`family` must index `TreeFamily::ALL`, `theorem` must be 1 or
//! 2, `nodes` is capped). The embedding itself is a pure function of the
//! request key, fetched from the shared cache or built via the Theorem-1
//! construction (plus Theorem-2 injectivization) on a miss.
//!
//! A warm `Embed` is a cache lookup: the entry carries the reply's
//! host-specific fields, scored by the first `Embed` for the key, so the
//! guest tree is not even generated. Every host comes from a
//! process-wide table that builds each (tag, height) once.

// `Result<_, Response>` keeps the typed error frame as the error value
// on the compute path; `Response` is as large as its biggest variant
// (`StatsOk`) but these calls are per-request, not per-byte.
#![allow(clippy::result_large_err)]

use crate::cache::{EmbedScore, EmbeddingCache, EmbeddingKey};
use crate::metrics::ServerMetrics;
use crate::wire::{Request, Response, WireReport, ERR_BAD_REQUEST, ERR_INTERNAL, WORKLOAD_ALL};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use xtree_core::theorem1::{EmbedOptions, Theorem1Scratch};
use xtree_core::{evaluate, metrics::edge_congestion, theorem1, theorem2, XEmbedding};
use xtree_host::{guest_map, host_label, AnyHost, Host, HOST_LABELS};
use xtree_sim::workload::{HostMap, WORKLOADS};
use xtree_sim::{
    compute_load, congestion, simulate_all_with, simulate_one_with, SimError, SimReport,
};
use xtree_telemetry::Sink;
use xtree_trees::{BinaryTree, TreeFamily};

/// Largest guest a single request may ask for: a million-node tree embeds
/// in well under a second, and the cap keeps one request from pinning a
/// worker (and the cache from holding arbitrarily large maps).
pub const MAX_NODES: u64 = 1 << 20;

/// Tallest X-tree a request can reach: Theorem 1 puts a [`MAX_NODES`]
/// guest on `X(16)`, and Theorem 2 adds four levels.
const MAX_HEIGHT: u8 = 20;

fn bad(message: impl Into<String>) -> Response {
    Response::Error {
        code: ERR_BAD_REQUEST,
        message: message.into(),
    }
}

/// The typed reply for work whose deadline budget expired before it could
/// run. `stage` names where the budget died (admission, the queue, the
/// router's replay loop) so a client log pinpoints the bottleneck.
pub fn deadline_reject(stage: &str) -> Response {
    Response::Error {
        code: crate::wire::ERR_DEADLINE,
        message: format!("deadline budget expired ({stage})"),
    }
}

/// Validates a request's guest fields. The tree itself is generated only
/// when the reply needs it.
fn guest_family(family: u8, nodes: u64) -> Result<TreeFamily, Response> {
    let fam = *TreeFamily::ALL
        .get(usize::from(family))
        .ok_or_else(|| bad(format!("unknown family index {family}")))?;
    if nodes == 0 || nodes > MAX_NODES {
        return Err(bad(format!(
            "nodes must be in 1..={MAX_NODES}, got {nodes}"
        )));
    }
    Ok(fam)
}

thread_local! {
    /// One Theorem-1 scratch per worker thread: every cache-miss build on
    /// a worker reuses the previous build's buffers (DESIGN.md §13), so
    /// steady-state misses allocate only the result itself.
    static SCRATCH: RefCell<Theorem1Scratch> = RefCell::new(Theorem1Scratch::new());
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// The embedding for `key` and whether it came from the cache. `found`
/// is the request's one cache lookup, which took `lookup`; a miss builds
/// from `tree` and inserts. The time goes into the hit/miss-split
/// construction histograms: the lookup on a hit, lookup plus build on a
/// miss.
fn embedding(
    cache: &EmbeddingCache,
    key: EmbeddingKey,
    found: Option<Arc<XEmbedding>>,
    lookup: Duration,
    tree: &BinaryTree,
    metrics: &ServerMetrics,
) -> Result<(Arc<XEmbedding>, bool), Response> {
    if let Some(emb) = found {
        metrics.observe_embed_us(micros(lookup), true);
        return Ok((emb, true));
    }
    let t0 = Instant::now();
    let emb = SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        match key.theorem {
            1 => Ok(theorem1::embed_with_scratch(tree, EmbedOptions::default(), scratch).emb),
            2 => Ok(theorem2::injectivize(
                &theorem1::embed_with_scratch(tree, EmbedOptions::default(), scratch).emb,
            )),
            t => Err(bad(format!("theorem must be 1 or 2, got {t}"))),
        }
    })?;
    let emb = Arc::new(emb);
    cache.insert(key, Arc::clone(&emb));
    metrics.observe_embed_us(micros(lookup + t0.elapsed()), false);
    Ok((emb, false))
}

fn wire_report(r: &SimReport) -> WireReport {
    let workload = WORKLOADS
        .iter()
        .position(|&w| w == r.workload)
        .unwrap_or(usize::from(WORKLOAD_ALL)) as u8;
    WireReport {
        workload,
        cycles: u64::from(r.cycles),
        ideal_cycles: u64::from(r.ideal_cycles),
        max_link_traffic: u64::from(r.max_link_traffic),
    }
}

/// Every host this process has served, at most one per (tag, height).
/// Hosts are pure functions of both, so the first request to need one
/// builds it and every later request shares it; universal hosts stop at
/// `UNIVERSAL_MAX_HEIGHT` (DESIGN.md §12 has the retention bound).
static HOSTS: [[OnceLock<Option<AnyHost>>; MAX_HEIGHT as usize + 1]; HOST_LABELS.len()] =
    [const { [const { OnceLock::new() }; MAX_HEIGHT as usize + 1] }; HOST_LABELS.len()];

/// Resolves the servable host backend for a request, or the typed
/// rejection when the tag is unknown / the backend is unavailable at this
/// height (the universal graph's BFS table is capped). Concurrent first
/// requests for one (tag, height) build it once; the others wait for it.
fn host_net(host: u8, height: u8) -> Result<&'static AnyHost, Response> {
    let slot = HOSTS
        .get(usize::from(host))
        .and_then(|row| row.get(usize::from(height)));
    slot.and_then(|s| {
        s.get_or_init(|| AnyHost::for_xtree_height(host, height))
            .as_ref()
    })
    .ok_or_else(|| match host_label(host) {
        Some(label) => bad(format!(
            "host '{label}' is unavailable at X-tree height {height}"
        )),
        None => bad(format!("unknown host tag {host}")),
    })
}

/// How `emb` scores on `host`: the host-specific `EmbedOk` fields. The
/// X-tree keeps the `xtree_core` metrics, whose congestion counts
/// undirected edges; the other hosts go through [`score_on`].
fn score(host: u8, tree: &BinaryTree, emb: &XEmbedding) -> Result<EmbedScore, Response> {
    let net = host_net(host, emb.height)?;
    if let AnyHost::XTree(x) = net {
        let stats = evaluate(tree, emb);
        return Ok(EmbedScore {
            dilation: u64::from(stats.dilation),
            max_load: u64::from(stats.max_load),
            congestion: u64::from(edge_congestion(tree, emb, x.xtree())),
            injective: stats.injective,
        });
    }
    let map = guest_map(host, emb).expect("tag validated by host_net");
    score_on(net, tree, &map)
}

/// The score through the generic host pipeline: dilation is the routed
/// distance, congestion counts directed links.
fn score_on<M: HostMap>(net: &AnyHost, tree: &BinaryTree, map: &M) -> Result<EmbedScore, Response> {
    let dilation = tree
        .edges()
        .map(|(p, c)| net.distance(map.host_of(p), map.host_of(c)))
        .max()
        .unwrap_or(0);
    let max_load = compute_load(net, tree, map);
    let cong = congestion(net, tree, map).map_err(|e| Response::Error {
        code: ERR_INTERNAL,
        message: format!("host routing failed: {e}"),
    })?;
    Ok(EmbedScore {
        dilation: u64::from(dilation),
        max_load: u64::from(max_load),
        congestion: u64::from(cong),
        injective: max_load <= 1,
    })
}

fn embed_ok(emb: &XEmbedding, s: EmbedScore, cached: bool) -> Response {
    Response::EmbedOk {
        // The X-tree height the map was built for — the shared size
        // parameter every host derives its own order from.
        height: emb.height,
        dilation: s.dilation,
        max_load: s.max_load,
        congestion: s.congestion,
        injective: s.injective,
        cached,
    }
}

/// An `Embed` reply. A scored cache hit returns the stored fields and
/// touches nothing else; otherwise the guest is generated, built on a
/// miss, scored, and the score stored on the entry.
fn embed(
    key: EmbeddingKey,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Result<Response, Response> {
    let fam = guest_family(key.family, key.nodes)?;
    let t0 = Instant::now();
    let found = cache.lookup(&key);
    let lookup = t0.elapsed();
    let found = match found {
        Some((emb, Some(s))) => {
            metrics.observe_embed_us(micros(lookup), true);
            return Ok(embed_ok(&emb, s, true));
        }
        found => found.map(|(emb, _)| emb),
    };
    let tree = fam.generate_seeded(key.nodes as usize, key.seed);
    let (emb, cached) = embedding(cache, key, found, lookup, &tree, metrics)?;
    let s = score(key.host, &tree, &emb)?;
    cache.set_score(&key, s);
    Ok(embed_ok(&emb, s, cached))
}

/// A `Simulate` reply: the guest is always generated, since the
/// simulation walks it.
fn simulate(
    key: EmbeddingKey,
    workload: u8,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Result<Response, Response> {
    if workload != WORKLOAD_ALL && usize::from(workload) >= WORKLOADS.len() {
        return Err(bad(format!(
            "workload must be 0..{} or 255",
            WORKLOADS.len()
        )));
    }
    let fam = guest_family(key.family, key.nodes)?;
    let tree = fam.generate_seeded(key.nodes as usize, key.seed);
    let t0 = Instant::now();
    let found = cache.get(&key);
    let (emb, cached) = embedding(cache, key, found, t0.elapsed(), &tree, metrics)?;
    let net = host_net(key.host, emb.height)?;
    let map = guest_map(key.host, &emb).expect("tag validated by host_net");
    let reports = run_workloads(net, &tree, &map, workload, &mut &metrics.sim);
    let reports = reports.map_err(|e| Response::Error {
        code: ERR_INTERNAL,
        message: format!("simulation failed: {e}"),
    })?;
    Ok(Response::SimulateOk {
        cached,
        reports: reports.iter().map(wire_report).collect(),
    })
}

/// One workload's report, or all four for [`WORKLOAD_ALL`].
fn run_workloads<H: Host, M: HostMap + Sync, S: Sink>(
    net: &H,
    tree: &BinaryTree,
    map: &M,
    workload: u8,
    sink: &mut S,
) -> Result<Vec<SimReport>, SimError> {
    if workload == WORKLOAD_ALL {
        simulate_all_with(net, tree, map, sink)
    } else {
        simulate_one_with(net, tree, map, usize::from(workload), sink).map(|r| vec![r])
    }
}

/// Executes one pooled request against the shared cache, reporting engine
/// events and embed-construction latency to `metrics`. Only `Embed` and
/// `Simulate` arrive here — control requests are answered inline by the
/// connection handler. `host` selects the host topology the embedding is
/// served on ([`xtree_host::HOST_XTREE`] is the wire default and the
/// pre-host behavior, bit for bit).
pub fn handle_compute(
    req: &Request,
    host: u8,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Response {
    // Reject junk tags before any compute (and before they become cache
    // keys); height-dependent availability is checked once the height is
    // known.
    if host_label(host).is_none() {
        return bad(format!("unknown host tag {host}"));
    }
    let reply = match *req {
        Request::Embed {
            family,
            nodes,
            seed,
            theorem,
        } => embed(
            EmbeddingKey {
                family,
                nodes,
                seed,
                theorem,
                host,
            },
            cache,
            metrics,
        ),
        Request::Simulate {
            family,
            nodes,
            seed,
            theorem,
            workload,
        } => simulate(
            EmbeddingKey {
                family,
                nodes,
                seed,
                theorem,
                host,
            },
            workload,
            cache,
            metrics,
        ),
        // Control requests never reach the pool.
        Request::Stats | Request::Health | Request::Shutdown => Err(Response::Error {
            code: ERR_INTERNAL,
            message: "control request routed to a worker".into(),
        }),
    };
    reply.unwrap_or_else(|e| e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_host::{XTreeHost, HOST_XTREE};

    fn counters() -> ServerMetrics {
        ServerMetrics::new()
    }

    #[test]
    fn embed_matches_direct_construction() {
        let cache = EmbeddingCache::new(8);
        let req = Request::Embed {
            family: 0, // path
            nodes: 240,
            seed: 7,
            theorem: 1,
        };
        let metrics = counters();
        let resp = handle_compute(&req, HOST_XTREE, &cache, &metrics);
        let Response::EmbedOk {
            height,
            dilation,
            max_load,
            cached,
            ..
        } = resp
        else {
            panic!("expected EmbedOk, got {resp:?}");
        };
        assert_eq!(height, 3);
        assert!(dilation <= 3);
        assert_eq!(max_load, 16);
        assert!(!cached, "first request must miss");
        // Second identical request hits.
        let resp = handle_compute(&req, HOST_XTREE, &cache, &metrics);
        assert!(matches!(resp, Response::EmbedOk { cached: true, .. }));
        // One construction landed in each side of the split histogram.
        let prom = metrics.to_prometheus(&cache, 0);
        assert!(prom.contains("xtree_server_embed_miss_latency_us_count 1"));
        assert!(prom.contains("xtree_server_embed_hit_latency_us_count 1"));
    }

    #[test]
    fn simulate_single_workload_matches_the_all_run() {
        let cache = EmbeddingCache::new(8);
        let base = |workload| Request::Simulate {
            family: 2, // caterpillar
            nodes: 112,
            seed: 5,
            theorem: 1,
            workload,
        };
        let all = handle_compute(&base(WORKLOAD_ALL), HOST_XTREE, &cache, &counters());
        let Response::SimulateOk { reports: all, .. } = all else {
            panic!("expected SimulateOk");
        };
        assert_eq!(all.len(), 4);
        for (i, expect) in all.iter().enumerate() {
            let one = handle_compute(&base(i as u8), HOST_XTREE, &cache, &counters());
            let Response::SimulateOk { reports: one, .. } = one else {
                panic!("expected SimulateOk");
            };
            assert_eq!(one.len(), 1);
            assert_eq!(&one[0], expect, "workload {i} must match the all-run");
        }
    }

    #[test]
    fn theorem2_requests_are_injective() {
        let cache = EmbeddingCache::new(8);
        let resp = handle_compute(
            &Request::Embed {
                family: 3, // broom
                nodes: 48,
                seed: 7,
                theorem: 2,
            },
            HOST_XTREE,
            &cache,
            &counters(),
        );
        let Response::EmbedOk {
            injective,
            max_load,
            ..
        } = resp
        else {
            panic!("expected EmbedOk, got {resp:?}");
        };
        assert!(injective);
        assert_eq!(max_load, 1);
    }

    #[test]
    fn invalid_fields_return_typed_errors() {
        let cache = EmbeddingCache::new(8);
        let sim = counters();
        for req in [
            Request::Embed {
                family: 200,
                nodes: 48,
                seed: 7,
                theorem: 1,
            },
            Request::Embed {
                family: 0,
                nodes: 0,
                seed: 7,
                theorem: 1,
            },
            Request::Embed {
                family: 0,
                nodes: MAX_NODES + 1,
                seed: 7,
                theorem: 1,
            },
            Request::Embed {
                family: 0,
                nodes: 48,
                seed: 7,
                theorem: 3,
            },
            Request::Simulate {
                family: 0,
                nodes: 48,
                seed: 7,
                theorem: 1,
                workload: 4,
            },
        ] {
            let resp = handle_compute(&req, HOST_XTREE, &cache, &sim);
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: ERR_BAD_REQUEST,
                        ..
                    }
                ),
                "{req:?} must be rejected, got {resp:?}"
            );
        }
    }

    const HOSTS_ALL: [u8; 3] = [
        HOST_XTREE,
        xtree_host::HOST_HYPERCUBE,
        xtree_host::HOST_UNIVERSAL,
    ];

    /// `resp` with its `cached` flag cleared: warm and cold replies must
    /// agree on everything else.
    fn uncached(mut resp: Response) -> Response {
        match &mut resp {
            Response::EmbedOk { cached, .. } | Response::SimulateOk { cached, .. } => {
                *cached = false
            }
            other => panic!("expected a compute reply, got {other:?}"),
        }
        resp
    }

    fn embed(theorem: u8) -> Request {
        Request::Embed {
            family: 2, // caterpillar
            nodes: 112,
            seed: 5,
            theorem,
        }
    }

    #[test]
    fn max_height_is_theorem2_at_max_nodes() {
        assert_eq!(theorem1::optimal_height(MAX_NODES as usize) + 4, MAX_HEIGHT);
    }

    #[test]
    fn warm_embed_equals_cold_for_every_host_and_theorem() {
        for host in HOSTS_ALL {
            for theorem in [1, 2] {
                let req = embed(theorem);
                let metrics = counters();
                let cold = handle_compute(&req, host, &EmbeddingCache::new(0), &metrics);
                assert!(
                    matches!(cold, Response::EmbedOk { cached: false, .. }),
                    "host {host} theorem {theorem}: {cold:?}"
                );

                // Embed first: a miss that scores, then scored hits.
                let cache = EmbeddingCache::new(8);
                assert_eq!(handle_compute(&req, host, &cache, &metrics), cold);
                for _ in 0..2 {
                    let warm = handle_compute(&req, host, &cache, &metrics);
                    assert!(matches!(warm, Response::EmbedOk { cached: true, .. }));
                    assert_eq!(uncached(warm), cold, "host {host} theorem {theorem}");
                }
                assert_eq!((cache.hits(), cache.misses()), (2, 1));

                // Simulate first: the entry exists but holds no score, so
                // the first Embed hit scores it and the next reuses it.
                let cache = EmbeddingCache::new(8);
                let sim = Request::Simulate {
                    family: 2,
                    nodes: 112,
                    seed: 5,
                    theorem,
                    workload: 0,
                };
                let sim_cold = handle_compute(&sim, host, &cache, &metrics);
                assert!(matches!(
                    sim_cold,
                    Response::SimulateOk { cached: false, .. }
                ));
                for _ in 0..2 {
                    let warm = handle_compute(&req, host, &cache, &metrics);
                    assert!(matches!(warm, Response::EmbedOk { cached: true, .. }));
                    assert_eq!(uncached(warm), cold, "host {host} theorem {theorem}");
                }
                // A Simulate after the score is stored still simulates.
                let sim_warm = handle_compute(&sim, host, &cache, &metrics);
                assert_eq!(uncached(sim_warm), sim_cold);
                assert_eq!((cache.hits(), cache.misses()), (3, 1));
            }
        }
    }

    #[test]
    fn scoring_failures_are_not_cached() {
        // Universal hosts stop at X(10): a Theorem-2 guest of 2^12 nodes
        // needs X(12). The embedding is cached, the score never is, and
        // every request gets the same typed error.
        let cache = EmbeddingCache::new(8);
        let req = Request::Embed {
            family: 0,
            nodes: 4096,
            seed: 1,
            theorem: 2,
        };
        for _ in 0..2 {
            let resp = handle_compute(&req, xtree_host::HOST_UNIVERSAL, &cache, &counters());
            assert!(
                matches!(resp, Response::Error { code: ERR_BAD_REQUEST, ref message } if message.contains("unavailable")),
                "{resp:?}"
            );
        }
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 1, 1));
    }

    #[test]
    fn table_hosts_answer_like_fresh_ones() {
        for tag in HOSTS_ALL {
            for height in 3..=6u8 {
                let shared = host_net(tag, height).expect("servable");
                assert!(
                    std::ptr::eq(shared, host_net(tag, height).unwrap()),
                    "one build per (tag, height)"
                );
                let fresh = AnyHost::for_xtree_height(tag, height).unwrap();
                // The smallest guest Theorem 1 puts on X(height).
                let nodes = 16 * ((1usize << height) - 1) + 1;
                let tree = TreeFamily::ALL[2].generate_seeded(nodes, 9);
                let emb = theorem1::embed(&tree).emb;
                assert_eq!(emb.height, height);
                let map = guest_map(tag, &emb).unwrap();
                assert_eq!(
                    score_on(shared, &tree, &map),
                    score_on(&fresh, &tree, &map),
                    "{} X({height})",
                    fresh.label()
                );
                let sink = &mut &counters().sim;
                assert_eq!(
                    run_workloads(shared, &tree, &map, WORKLOAD_ALL, sink).unwrap(),
                    run_workloads(&fresh, &tree, &map, WORKLOAD_ALL, sink).unwrap(),
                    "{} X({height})",
                    fresh.label()
                );
                // Through the service, the table host's replies equal the
                // fresh host's.
                let (family, nodes, seed, theorem) = (2, nodes as u64, 9, 1);
                let req = Request::Embed {
                    family,
                    nodes,
                    seed,
                    theorem,
                };
                let resp = handle_compute(&req, tag, &EmbeddingCache::new(0), &counters());
                let fresh_score = if tag == HOST_XTREE {
                    // The X-tree is scored by the `xtree_core` metrics.
                    let stats = evaluate(&tree, &emb);
                    let cong = edge_congestion(&tree, &emb, XTreeHost::new(height).xtree());
                    EmbedScore {
                        dilation: u64::from(stats.dilation),
                        max_load: u64::from(stats.max_load),
                        congestion: u64::from(cong),
                        injective: stats.injective,
                    }
                } else {
                    score_on(&fresh, &tree, &map).unwrap()
                };
                assert_eq!(
                    resp,
                    embed_ok(&emb, fresh_score, false),
                    "{} X({height})",
                    fresh.label()
                );
                let req = Request::Simulate {
                    family,
                    nodes,
                    seed,
                    theorem,
                    workload: WORKLOAD_ALL,
                };
                let resp = handle_compute(&req, tag, &EmbeddingCache::new(0), &counters());
                let reports = if tag == HOST_XTREE {
                    // A fresh X-tree with the embedding as its own map.
                    run_workloads(&XTreeHost::new(height), &tree, &emb, WORKLOAD_ALL, sink)
                } else {
                    run_workloads(&fresh, &tree, &map, WORKLOAD_ALL, sink)
                };
                let reports = reports.unwrap();
                let expect = Response::SimulateOk {
                    cached: false,
                    reports: reports.iter().map(wire_report).collect(),
                };
                assert_eq!(resp, expect, "{} X({height})", fresh.label());
            }
        }
    }

    #[test]
    fn concurrent_first_requests_share_one_universal_build() {
        // X(7) is built by no other test in this binary, so the four
        // threads race on an empty slot.
        let req = Request::Embed {
            family: 1,
            nodes: 16 * 127 + 1,
            seed: 3,
            theorem: 1,
        };
        let start = std::sync::Barrier::new(4);
        let replies: Vec<(Response, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let resp = handle_compute(
                            &req,
                            xtree_host::HOST_UNIVERSAL,
                            &EmbeddingCache::new(8),
                            &counters(),
                        );
                        let host = host_net(xtree_host::HOST_UNIVERSAL, 7).unwrap();
                        (resp, host as *const AnyHost as usize)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            matches!(replies[0].0, Response::EmbedOk { height: 7, .. }),
            "{:?}",
            replies[0].0
        );
        for r in &replies[1..] {
            assert_eq!(r, &replies[0], "same reply, same host");
        }
    }

    #[test]
    fn simulations_report_engine_events() {
        let cache = EmbeddingCache::new(8);
        let sim = counters();
        handle_compute(
            &Request::Simulate {
                family: 0,
                nodes: 112,
                seed: 7,
                theorem: 1,
                workload: 0,
            },
            HOST_XTREE,
            &cache,
            &sim,
        );
        let snap = sim.sim.snapshot();
        assert!(snap.hops > 0, "engine events must land in the shared sink");
        assert!(snap.delivered > 0);
    }
}
