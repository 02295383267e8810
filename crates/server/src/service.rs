//! Request execution, in two halves.
//!
//! The *warm half* ([`handle_warm`]) validates an `Embed` or `Simulate`
//! and makes its one counted cache lookup. It answers what the lookup
//! alone can answer, and the server runs it on the connection thread.
//! The *cold half* ([`handle_cold`]) does everything else — tree
//! generation, the build on a miss, scoring, engine runs — and the server
//! runs it on a worker. [`handle_compute`] runs both, one after the
//! other, on the calling thread.
//!
//! Validation happens here, not in the codec — the wire layer moves any
//! well-formed message, and the service decides whether the values make
//! sense (`family` must index `TreeFamily::ALL`, `theorem` must be 1 or
//! 2, `nodes` is capped), before the cache is consulted. The embedding
//! itself is a pure function of the request key, fetched from the shared
//! cache or built via the Theorem-1 construction (plus Theorem-2
//! injectivization) on a miss.
//!
//! A warm `Embed` is the warm half alone: the entry carries the reply's
//! host-specific fields, scored by the first `Embed` for the key, so the
//! guest tree is not even generated. A warm `Simulate` is too:
//! the entry carries each engine workload's report and event tally,
//! stored by the first `Simulate` that ran it, and a request whose
//! workloads are all stored runs no engine. Every host comes from a
//! process-wide table that builds each (tag, height) once.

// `Result<_, Response>` keeps the typed error frame as the error value
// on the compute path; `Response` is as large as its biggest variant
// (`StatsOk`) but these calls are per-request, not per-byte.
#![allow(clippy::result_large_err)]

use crate::cache::{EmbedScore, EmbeddingCache, EmbeddingKey, SimSlot, SimSlots};
use crate::metrics::{Count, ServerMetrics};
use crate::wire::{Request, Response, WireReport, ERR_BAD_REQUEST, ERR_INTERNAL, WORKLOAD_ALL};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use xtree_core::theorem1::{EmbedOptions, Theorem1Scratch};
use xtree_core::{metrics::route_stats, theorem1, theorem2, XEmbedding};
use xtree_host::{guest_map, host_label, AnyHost, Host, HOST_LABELS};
use xtree_sim::workload::{HostMap, WORKLOADS};
use xtree_sim::{compute_load, congestion, simulate_one_in, Engine, SimError};
use xtree_telemetry::Counters;
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

/// Validates a request's guest fields, before its cache lookup: a
/// rejected request counts no hit or miss and generates no tree. The
/// tree itself is generated only when the reply needs it.
fn guest_family(key: &EmbeddingKey) -> Result<TreeFamily, Response> {
    let fam = *TreeFamily::ALL
        .get(usize::from(key.family))
        .ok_or_else(|| bad(format!("unknown family index {}", key.family)))?;
    if key.nodes == 0 || key.nodes > MAX_NODES {
        return Err(bad(format!(
            "nodes must be in 1..={MAX_NODES}, got {}",
            key.nodes
        )));
    }
    if !(1..=2).contains(&key.theorem) {
        return Err(bad(format!("theorem must be 1 or 2, got {}", key.theorem)));
    }
    Ok(fam)
}

thread_local! {
    /// One Theorem-1 scratch per worker thread: every cache-miss build on
    /// a worker reuses the previous build's buffers (DESIGN.md §13), so
    /// steady-state misses allocate only the result itself.
    static SCRATCH: RefCell<Theorem1Scratch> = RefCell::new(Theorem1Scratch::new());
    /// One simulation engine per worker thread: its per-link buffers grow
    /// to the largest host the worker has simulated on and stay (DESIGN.md
    /// §12 has the bound), so a `Simulate` pays for its hops, not for the
    /// host's link count.
    static ENGINE: RefCell<Engine> = RefCell::new(Engine::new());
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// The embedding for `key` and whether it came from the cache. `found`
/// is the request's one cache lookup, which took `lookup`; a miss builds
/// from `tree` and inserts, unless a racing request inserted the key in
/// the meantime. The time goes into the hit/miss-split construction
/// histograms: the lookup on a hit, lookup plus build on a miss.
fn embedding(
    cache: &EmbeddingCache,
    key: EmbeddingKey,
    found: Option<Arc<XEmbedding>>,
    lookup: Duration,
    tree: &BinaryTree,
    metrics: &ServerMetrics,
) -> (Arc<XEmbedding>, bool) {
    if let Some(emb) = found {
        metrics.observe_embed_us(micros(lookup), true);
        return (emb, true);
    }
    let t0 = Instant::now();
    // Between the counted lookup and here, the request waited in the
    // queue, where another request for the key may have built it. That
    // entry serves this request too; its miss stays counted, and its
    // reply still says `cached: false`.
    if let Some(emb) = cache.peek(&key) {
        metrics.observe_embed_us(micros(lookup + t0.elapsed()), false);
        return (emb, false);
    }
    let emb = SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let emb = theorem1::embed_with_scratch(tree, EmbedOptions::default(), scratch).emb;
        // `guest_family` admitted only theorems 1 and 2.
        if key.theorem == 2 {
            theorem2::injectivize(&emb)
        } else {
            emb
        }
    });
    let emb = Arc::new(emb);
    cache.insert(key, Arc::clone(&emb));
    metrics.observe_embed_us(micros(lookup + t0.elapsed()), false);
    (emb, false)
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
/// undirected edges, and reads the dilation off the same walk of the
/// routes (they are shortest paths) and the load off one count; the
/// other hosts go through [`score_on`].
fn score(host: u8, tree: &BinaryTree, emb: &XEmbedding) -> Result<EmbedScore, Response> {
    let net = host_net(host, emb.height)?;
    if let AnyHost::XTree(x) = net {
        let routes = route_stats(tree, emb, x.xtree());
        let max_load = emb.max_load();
        return Ok(EmbedScore {
            dilation: u64::from(routes.dilation),
            max_load: u64::from(max_load),
            congestion: u64::from(routes.congestion),
            injective: max_load <= 1,
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

/// What [`handle_warm`] made of a request: its reply, or the work a
/// worker still has to do.
// A `Step` lives for one call. Its `Cold` carries the entry's simulation
// slots by value, so the worker reads them without a second lookup.
#[allow(clippy::large_enum_variant)]
pub enum Step {
    /// The complete reply: a scored `Embed` hit, a `Simulate` whose
    /// workloads all have a slot, or a rejection.
    Reply(Response),
    /// A build, a score or an engine run is still to do.
    Cold(Cold),
}

/// A request's cold half: everything [`handle_cold`] needs, including
/// the outcome of the warm half's one counted lookup, so the cold half
/// makes no lookup of its own.
pub struct Cold {
    key: EmbeddingKey,
    fam: TreeFamily,
    /// How long the lookup took: a miss's construction sample is the
    /// lookup plus the build.
    lookup: Duration,
    /// The entry's embedding, if the lookup hit.
    found: Option<Arc<XEmbedding>>,
    /// For a `Simulate`, the workloads it wants and the entry's slots as
    /// the lookup saw them (all empty on a miss); `None` for an `Embed`.
    sims: Option<(Range<usize>, SimSlots)>,
}

/// An `Embed`'s warm half: validation and the one counted lookup. A
/// scored hit returns the stored fields and touches nothing else.
fn embed_warm(
    key: EmbeddingKey,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Result<Step, Response> {
    let fam = guest_family(&key)?;
    let t0 = Instant::now();
    let found = cache.lookup(&key);
    let lookup = t0.elapsed();
    Ok(match found {
        Some((emb, Some(s))) => {
            metrics.observe_embed_us(micros(lookup), true);
            Step::Reply(embed_ok(&emb, s, true))
        }
        found => Step::Cold(Cold {
            key,
            fam,
            lookup,
            found: found.map(|(emb, _)| emb),
            sims: None,
        }),
    })
}

/// Workload `idx`'s share of a `SimulateOk`, from its slot. Every reply
/// a slot serves adds the slot's engine events to `metrics.sim`.
fn serve(metrics: &ServerMetrics, idx: usize, s: &SimSlot) -> WireReport {
    metrics.sim.add(&s.events);
    WireReport {
        workload: idx as u8,
        cycles: s.cycles,
        ideal_cycles: s.ideal_cycles,
        max_link_traffic: s.max_link_traffic,
    }
}

/// A `Simulate`'s warm half: validation and the one counted lookup. When
/// the entry's slots hold every workload the request asks for, the reply
/// is a copy of them and touches nothing else.
fn simulate_warm(
    key: EmbeddingKey,
    workload: u8,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Result<Step, Response> {
    let wanted = match usize::from(workload) {
        _ if workload == WORKLOAD_ALL => 0..WORKLOADS.len(),
        idx if idx < WORKLOADS.len() => idx..idx + 1,
        _ => {
            return Err(bad(format!(
                "workload must be 0..{} or 255",
                WORKLOADS.len()
            )))
        }
    };
    let fam = guest_family(&key)?;
    let t0 = Instant::now();
    let found = cache.lookup_sims(&key);
    let lookup = t0.elapsed();
    let (found, sims): (_, SimSlots) = match found {
        Some((emb, sims)) => (Some(emb), sims),
        None => (None, [None; WORKLOADS.len()]),
    };
    let stored = &sims[wanted.clone()];
    if stored.iter().all(Option::is_some) {
        metrics.observe_embed_us(micros(lookup), true);
        metrics.count(Count::SimMemoHits);
        let reports = stored.iter().flatten().zip(wanted);
        return Ok(Step::Reply(Response::SimulateOk {
            cached: true,
            reports: reports.map(|(s, idx)| serve(metrics, idx, s)).collect(),
        }));
    }
    Ok(Step::Cold(Cold {
        key,
        fam,
        lookup,
        found,
        sims: Some((wanted, sims)),
    }))
}

/// A `Simulate`'s reports once its guest is built: only the workloads
/// without a slot run, on this thread's engine, each storing its slot.
/// Each workload's engine events, stored or fresh, reach `metrics.sim`
/// once; a failed run's events count too.
fn simulate_cold(
    key: EmbeddingKey,
    wanted: Range<usize>,
    sims: &SimSlots,
    tree: &BinaryTree,
    emb: &XEmbedding,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Result<Vec<WireReport>, Response> {
    let net = host_net(key.host, emb.height)?;
    let map = guest_map(key.host, emb).expect("tag validated by host_net");
    let reports = ENGINE.with(|engine| {
        let engine = &mut *engine.borrow_mut();
        wanted
            .map(|idx| {
                let s = match sims[idx] {
                    Some(s) => s,
                    None => {
                        let mut events = Counters::default();
                        let r = simulate_one_in(engine, net, tree, &map, idx, &mut events)
                            .inspect_err(|_| metrics.sim.add(&events))?;
                        let s = SimSlot {
                            cycles: u64::from(r.cycles),
                            ideal_cycles: u64::from(r.ideal_cycles),
                            max_link_traffic: u64::from(r.max_link_traffic),
                            events,
                        };
                        cache.set_sim(&key, idx, s);
                        s
                    }
                };
                Ok(serve(metrics, idx, &s))
            })
            .collect::<Result<Vec<_>, SimError>>()
    });
    reports.map_err(|e| Response::Error {
        code: ERR_INTERNAL,
        message: format!("simulation failed: {e}"),
    })
}

/// The warm half of an `Embed` or `Simulate`: validates it and makes its
/// one counted cache lookup, and answers a scored `Embed` hit, a
/// `Simulate` whose workloads all have a slot, or a rejection. No tree is
/// generated and no host is touched. Everything else comes back as
/// [`Step::Cold`] for [`handle_cold`]. `host` selects the host topology
/// the embedding is served on ([`xtree_host::HOST_XTREE`] is the wire
/// default and the pre-host behavior, bit for bit).
pub fn handle_warm(
    req: &Request,
    host: u8,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Step {
    // Reject junk tags before any lookup (and before they become cache
    // keys); height-dependent availability is checked once the height is
    // known.
    if host_label(host).is_none() {
        return Step::Reply(bad(format!("unknown host tag {host}")));
    }
    let step = match *req {
        Request::Embed {
            family,
            nodes,
            seed,
            theorem,
        } => embed_warm(
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
        } => simulate_warm(
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
        // Control requests are answered by the connection handler.
        Request::Stats | Request::Health | Request::Shutdown => Err(Response::Error {
            code: ERR_INTERNAL,
            message: "control request routed to the compute path".into(),
        }),
    };
    step.unwrap_or_else(Step::Reply)
}

/// The cold half of an `Embed` or `Simulate`: generates the guest and
/// builds it on a cache miss. An `Embed` then scores it on the key's host
/// and stores the score on the entry; a `Simulate` runs the workloads
/// without a slot. Makes no cache lookup: `work` carries the warm half's.
pub fn handle_cold(work: Cold, cache: &EmbeddingCache, metrics: &ServerMetrics) -> Response {
    let Cold {
        key,
        fam,
        lookup,
        found,
        sims,
    } = work;
    let tree = fam.generate_seeded(key.nodes as usize, key.seed);
    let (emb, cached) = embedding(cache, key, found, lookup, &tree, metrics);
    let reply = match sims {
        None => score(key.host, &tree, &emb).map(|s| {
            cache.set_score(&key, s);
            embed_ok(&emb, s, cached)
        }),
        Some((wanted, sims)) => simulate_cold(key, wanted, &sims, &tree, &emb, cache, metrics)
            .map(|reports| Response::SimulateOk { cached, reports }),
    };
    reply.unwrap_or_else(|e| e)
}

/// Executes one `Embed` or `Simulate` against the shared cache, reporting
/// engine events and embed-construction latency to `metrics`: the warm
/// half, then the cold half if one is left. The server runs the two
/// halves on different threads; this is the same work on one.
pub fn handle_compute(
    req: &Request,
    host: u8,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Response {
    match handle_warm(req, host, cache, metrics) {
        Step::Reply(resp) => resp,
        Step::Cold(work) => handle_cold(work, cache, metrics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SHARDS;
    use xtree_core::{evaluate, metrics::edge_congestion};
    use xtree_host::{XTreeHost, HOST_XTREE};
    use xtree_sim::simulate_all_with;
    use xtree_telemetry::Format;

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
        let prom = Format::Prom.render(ServerMetrics::PREFIX, &metrics.families(&cache, 0));
        assert!(prom.contains("xtree_server_embed_miss_latency_us_count 1"));
        assert!(prom.contains("xtree_server_embed_hit_latency_us_count 1"));
    }

    #[test]
    fn a_cold_half_uses_the_entry_a_racing_build_inserted() {
        let cache = EmbeddingCache::new(8);
        let metrics = counters();
        let req = Request::Embed {
            family: 4, // random-bst
            nodes: 496,
            seed: 3,
            theorem: 1,
        };
        // Both warm halves miss before either cold half runs, as two
        // connections racing on one cold key do.
        let warm = || handle_warm(&req, HOST_XTREE, &cache, &metrics);
        let (Step::Cold(a), Step::Cold(b)) = (warm(), warm()) else {
            panic!("both lookups must miss");
        };
        let first = handle_cold(a, &cache, &metrics);
        let key = EmbeddingKey {
            family: 4,
            nodes: 496,
            seed: 3,
            theorem: 1,
            host: HOST_XTREE,
        };
        let built = cache.get(&key).expect("the first cold half inserts");
        let second = handle_cold(b, &cache, &metrics);
        assert!(matches!(first, Response::EmbedOk { cached: false, .. }));
        assert_eq!(second, first);
        let held = cache.get(&key).expect("the entry stays");
        assert!(
            Arc::ptr_eq(&held, &built),
            "the second cold half built again"
        );
        assert_eq!(cache.misses(), 2, "both misses stay counted");
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
            // The largest guest: rejected before its tree is generated.
            Request::Simulate {
                family: 0,
                nodes: MAX_NODES,
                seed: 7,
                theorem: 3,
                workload: 0,
            },
            Request::Embed {
                family: 0,
                nodes: MAX_NODES,
                seed: 7,
                theorem: 0,
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
            assert_eq!(
                (cache.hits(), cache.misses()),
                (0, 0),
                "{req:?} was rejected after a cache lookup"
            );
        }
        let resp = handle_compute(
            &Request::Embed {
                family: 0,
                nodes: 48,
                seed: 7,
                theorem: 3,
            },
            HOST_XTREE,
            &cache,
            &sim,
        );
        assert_eq!(
            resp,
            bad("theorem must be 1 or 2, got 3"),
            "the message stays"
        );
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
                // The Simulate's own slot answers it again, score or not.
                let sim_warm = handle_compute(&sim, host, &cache, &metrics);
                assert_eq!(uncached(sim_warm), sim_cold);
                assert_eq!((cache.hits(), cache.misses()), (3, 1));
            }
        }
    }

    #[test]
    fn the_warm_half_answers_only_what_one_lookup_can() {
        let (cache, metrics) = (EmbeddingCache::new(8), counters());
        let lookups = || cache.hits() + cache.misses();
        // (request, answered by the warm half, `cached` in the reply)
        let steps = [
            (embed(1), false, false),            // a miss builds
            (embed(1), true, true),              // a scored hit
            (simulate_req(1, 0), false, true),   // a hit without the slot
            (simulate_req(1, 0), true, true),    // a memo hit
            (simulate_req(1, 255), false, true), // three slots still empty
            (simulate_req(1, 255), true, true),  // all four filled
        ];
        for (k, (req, warm, cached)) in steps.into_iter().enumerate() {
            let before = lookups();
            let resp = match handle_warm(&req, HOST_XTREE, &cache, &metrics) {
                Step::Reply(resp) => {
                    assert!(warm, "{req:?} was answered by the warm half");
                    resp
                }
                Step::Cold(work) => {
                    assert!(!warm, "{req:?} was left to the cold half");
                    assert_eq!(lookups(), before + 1);
                    handle_cold(work, &cache, &metrics)
                }
            };
            assert_eq!(lookups(), before + 1, "step {k}: one lookup in all");
            assert!(
                matches!(resp, Response::EmbedOk { cached: c, .. } | Response::SimulateOk { cached: c, .. } if c == cached),
                "step {k}: {resp:?}"
            );
        }
        // A rejection is warm and makes no lookup.
        let before = lookups();
        assert!(matches!(
            handle_warm(&embed(3), HOST_XTREE, &cache, &metrics),
            Step::Reply(Response::Error {
                code: ERR_BAD_REQUEST,
                ..
            })
        ));
        assert_eq!(lookups(), before);
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

    fn simulate_req(theorem: u8, workload: u8) -> Request {
        Request::Simulate {
            family: 2, // caterpillar
            nodes: 112,
            seed: 5,
            theorem,
            workload,
        }
    }

    /// A key in the same cache shard as `key`: on a cache with one entry
    /// per shard, inserting it evicts `key`.
    fn shard_mate(key: EmbeddingKey) -> EmbeddingKey {
        let emb = Arc::new(XEmbedding {
            height: 1,
            map: vec![0],
        });
        (key.seed + 1..)
            .map(|seed| EmbeddingKey { seed, ..key })
            .find(|&mate| {
                let probe = EmbeddingCache::new(1);
                probe.insert(key, Arc::clone(&emb));
                probe.insert(mate, Arc::clone(&emb));
                probe.entries() == 1
            })
            .expect("some seed shares the shard")
    }

    /// Sends `reqs`, all for `simulate_req`'s guest at `theorem`, on
    /// `host` to a memoizing cache with one entry per shard and to a
    /// disabled one, each with its own metrics; then evicts the guest's
    /// entry with an `Embed` for its shard mate and sends them again.
    /// Every reply must equal the uncached server's apart from `cached`,
    /// and so must the engine-event totals, field for field. Returns the
    /// memo hits of each pass.
    fn memo_against_uncached(host: u8, theorem: u8, reqs: &[Request]) -> [u64; 2] {
        let (cache, memo) = (EmbeddingCache::new(SHARDS), counters());
        let (off, cold) = (EmbeddingCache::new(0), counters());
        let key = EmbeddingKey {
            family: 2,
            nodes: 112,
            seed: 5,
            theorem,
            host,
        };
        let evict = Request::Embed {
            family: 2,
            nodes: 112,
            seed: shard_mate(key).seed,
            theorem,
        };
        let mut hits = [0; 2];
        for (pass, hits) in hits.iter_mut().enumerate() {
            let before = (memo.get(Count::SimMemoHits), cache.hits() + cache.misses());
            for req in reqs {
                let want = handle_compute(req, host, &off, &cold);
                let got = handle_compute(req, host, &cache, &memo);
                assert_eq!(uncached(got), want, "host {host} pass {pass}: {req:?}");
                assert_eq!(
                    memo.sim.snapshot(),
                    cold.sim.snapshot(),
                    "host {host} pass {pass}: {req:?}"
                );
            }
            let lookups = cache.hits() + cache.misses() - before.1;
            assert_eq!(lookups, reqs.len() as u64, "one lookup per request");
            *hits = memo.get(Count::SimMemoHits) - before.0;
            handle_compute(&evict, host, &cache, &memo);
            assert!(cache.lookup_sims(&key).is_none(), "evicted");
        }
        assert_eq!(cold.get(Count::SimMemoHits), 0, "nothing to remember");
        hits
    }

    #[test]
    fn memoized_simulates_equal_an_uncached_server() {
        let singles = || 0..WORKLOADS.len() as u8;
        for host in HOSTS_ALL {
            for theorem in [1, 2] {
                let sim = |workload| simulate_req(theorem, workload);
                // Each workload alone fills its slot; then all four are a
                // lookup.
                let reqs: Vec<_> = singles().chain([WORKLOAD_ALL]).map(sim).collect();
                assert_eq!(memo_against_uncached(host, theorem, &reqs), [1, 1]);
                // All four fill every slot; then each alone is a lookup.
                let reqs: Vec<_> = [WORKLOAD_ALL]
                    .into_iter()
                    .chain(singles())
                    .map(sim)
                    .collect();
                assert_eq!(memo_against_uncached(host, theorem, &reqs), [4, 4]);
                // Embed first: the entry exists but holds no slot. One
                // workload runs alone, all four then run only the other
                // three, and everything after is a lookup.
                let reqs: Vec<_> = [embed(theorem)]
                    .into_iter()
                    .chain([1, WORKLOAD_ALL, 3, WORKLOAD_ALL].map(sim))
                    .chain([embed(theorem), sim(1)])
                    .collect();
                assert_eq!(memo_against_uncached(host, theorem, &reqs), [3, 3]);
            }
        }
    }

    #[test]
    fn simulation_failures_are_not_memoized() {
        // As in `scoring_failures_are_not_cached`: a Theorem-2 guest of
        // 2^12 nodes needs X(12), above the universal hosts' X(10).
        let cache = EmbeddingCache::new(8);
        let metrics = counters();
        let req = |workload| Request::Simulate {
            family: 0,
            nodes: 4096,
            seed: 1,
            theorem: 2,
            workload,
        };
        let first = handle_compute(&req(0), xtree_host::HOST_UNIVERSAL, &cache, &metrics);
        assert!(
            matches!(first, Response::Error { code: ERR_BAD_REQUEST, ref message } if message.contains("unavailable")),
            "{first:?}"
        );
        for workload in [0, WORKLOAD_ALL, 0, WORKLOAD_ALL] {
            let resp = handle_compute(&req(workload), xtree_host::HOST_UNIVERSAL, &cache, &metrics);
            assert_eq!(resp, first, "workload {workload}");
        }
        let key = EmbeddingKey {
            family: 0,
            nodes: 4096,
            seed: 1,
            theorem: 2,
            host: xtree_host::HOST_UNIVERSAL,
        };
        let (_, sims) = cache.lookup_sims(&key).expect("the embedding is cached");
        assert_eq!(sims, [None; WORKLOADS.len()], "no slot filled");
        assert_eq!(metrics.get(Count::SimMemoHits), 0);
        assert_eq!(metrics.sim.snapshot(), Counters::default());
    }

    /// The X-tree score `evaluate` and `edge_congestion` give `emb`.
    fn evaluated(tree: &BinaryTree, emb: &XEmbedding) -> EmbedScore {
        let stats = evaluate(tree, emb);
        let cong = edge_congestion(tree, emb, XTreeHost::new(emb.height).xtree());
        EmbedScore {
            dilation: u64::from(stats.dilation),
            max_load: u64::from(stats.max_load),
            congestion: u64::from(cong),
            injective: stats.injective,
        }
    }

    #[test]
    fn xtree_replies_equal_evaluate_and_edge_congestion() {
        // Every family under both theorems at X(6), and through Theorem 1
        // at X(9).
        let x6 = 16 * 127;
        let x9 = 16 * 1023;
        for family in 0..TreeFamily::ALL.len() {
            for (nodes, theorem) in [(x6, 1), (x6, 2), (x9, 1)] {
                let seed = 4;
                let req = Request::Embed {
                    family: family as u8,
                    nodes: nodes as u64,
                    seed,
                    theorem,
                };
                let resp = handle_compute(&req, HOST_XTREE, &EmbeddingCache::new(0), &counters());
                let tree = TreeFamily::ALL[family].generate_seeded(nodes, seed);
                let mut emb = theorem1::embed(&tree).emb;
                if theorem == 2 {
                    emb = theorem2::injectivize(&emb);
                }
                let expect = embed_ok(&emb, evaluated(&tree, &emb), false);
                assert_eq!(
                    resp, expect,
                    "family {family}, {nodes} nodes, theorem {theorem}"
                );
            }
        }
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
                    simulate_all_with(shared, &tree, &map, sink).unwrap(),
                    simulate_all_with(&fresh, &tree, &map, sink).unwrap(),
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
                    evaluated(&tree, &emb)
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
                    simulate_all_with(&XTreeHost::new(height), &tree, &emb, sink)
                } else {
                    simulate_all_with(&fresh, &tree, &map, sink)
                };
                let expect = Response::SimulateOk {
                    cached: false,
                    reports: (reports.unwrap().iter().enumerate())
                        .map(|(idx, r)| WireReport {
                            workload: idx as u8,
                            cycles: u64::from(r.cycles),
                            ideal_cycles: u64::from(r.ideal_cycles),
                            max_link_traffic: u64::from(r.max_link_traffic),
                        })
                        .collect(),
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
