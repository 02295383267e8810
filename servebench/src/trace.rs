//! The traced replay: each request through `handle_compute`, then again
//! composed from the layer functions `handle_compute` calls, with one
//! span around each call.
//!
//! Spans live in memory and are written as JSON lines when the replay
//! ends. A span's self time is its duration minus the time its child
//! spans cover; a layer's `.us` metric is the self time of its spans per
//! replayed request.

use crate::workload::Call;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use xtree_core::theorem1::{self, EmbedOptions, Theorem1Scratch};
use xtree_core::{evaluate, metrics::edge_congestion, theorem2, XEmbedding};
use xtree_host::{guest_map, host_label, AnyHost, Host, HOST_UNIVERSAL, HOST_XTREE};
use xtree_server::service::handle_compute;
use xtree_server::wire::{
    decode_request_host, decode_response, encode_request_host, encode_response, frame, read_frame,
};
use xtree_server::{
    EmbeddingCache, EmbeddingKey, Request, Response, ServerMetrics, WireReport, WORKLOAD_ALL,
};
use xtree_sim::workload::WORKLOADS;
use xtree_sim::{compute_load, congestion, simulate_all_with, simulate_one_with, Network};
use xtree_topology::XTree;
use xtree_trees::{BinaryTree, TreeFamily};

/// Heap allocations (and reallocations) made by this process so far.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// One timed call.
struct Span {
    req: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder; when off, [`Tracer::span`] only runs the
/// closure.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span of the current request.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req: self.req,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"req\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn bad(message: &str) -> Response {
    Response::Error {
        code: xtree_server::ERR_BAD_REQUEST,
        message: message.into(),
    }
}

/// `handle_compute`'s reply, composed from the layer functions it calls,
/// each inside its own span. Holds its own cache and build scratch.
struct Composer {
    cache: EmbeddingCache,
    sim: ServerMetrics,
    scratch: Theorem1Scratch,
    /// Theorem-1 builds so far.
    pub builds: u64,
    /// `BuildLog::adjust_calls`, summed over builds.
    pub adjust_calls: u64,
    /// Lemma-2 splits (ADJUST's plus SPLIT's fine balance), summed.
    pub lemma2_splits: u64,
}

impl Composer {
    /// A composer with an empty cache of the server's capacity.
    pub fn new(cache_cap: usize) -> Composer {
        Composer {
            cache: EmbeddingCache::new(cache_cap),
            sim: ServerMetrics::new(),
            scratch: Theorem1Scratch::new(),
            builds: 0,
            adjust_calls: 0,
            lemma2_splits: 0,
        }
    }

    /// Engine hops the composed simulations reported.
    pub fn sim_hops(&self) -> u64 {
        self.sim.sim.snapshot().hops
    }

    fn embedding(
        &mut self,
        t: &mut Tracer,
        key: EmbeddingKey,
        tree: &BinaryTree,
    ) -> (Arc<XEmbedding>, bool) {
        let cache = &self.cache;
        if let Some(emb) = t.span("server.cache.get", |_| cache.get(&key)) {
            return (emb, true);
        }
        let scratch = &mut self.scratch;
        let built = t.span("core.theorem1.build", |_| {
            theorem1::embed_with_scratch(tree, EmbedOptions::default(), scratch)
        });
        self.builds += 1;
        self.adjust_calls += built.log.adjust_calls as u64;
        self.lemma2_splits += (built.log.adjust_splits + built.log.split_balances) as u64;
        let emb = if key.theorem == 2 {
            t.span("core.theorem2.injectivize", |_| {
                theorem2::injectivize(&built.emb)
            })
        } else {
            built.emb
        };
        let emb = Arc::new(emb);
        t.span("server.cache.insert", |_| {
            cache.insert(key, Arc::clone(&emb))
        });
        (emb, false)
    }

    /// The non-X-tree host for `tag` at `height`, built in its layer's span.
    fn host(t: &mut Tracer, tag: u8, height: u8) -> Option<AnyHost> {
        t.span(host_span(tag), |_| AnyHost::for_xtree_height(tag, height))
    }

    /// The reply `handle_compute` gives for `call`, for the well-formed
    /// requests the benchmark sends.
    pub fn reply(&mut self, t: &mut Tracer, call: &Call) -> Response {
        t.span("replay.compose", |t| self.compose(t, call))
    }

    fn compose(&mut self, t: &mut Tracer, call: &Call) -> Response {
        let host = call.host;
        let key = call.key();
        let workload = match call.req {
            Request::Simulate { workload, .. } => Some(workload),
            _ => None,
        };
        let Some(&family) = TreeFamily::ALL.get(usize::from(key.family)) else {
            return bad("family");
        };
        if host_label(host).is_none() || !(1..=2).contains(&key.theorem) {
            return bad("host or theorem");
        }
        let tree = t.span("trees.generate", |_| {
            family.generate_seeded(key.nodes as usize, key.seed)
        });
        let (emb, cached) = self.embedding(t, key, &tree);
        let resp = match workload {
            None if host == HOST_XTREE => {
                let stats = t.span("core.metrics.evaluate", |_| evaluate(&tree, &emb));
                let xt = t.span("topology.xtree_new", |_| XTree::new(emb.height));
                let cong = t.span("core.metrics.edge_congestion", |_| {
                    edge_congestion(&tree, &emb, &xt)
                });
                t.span("topology.xtree_new", |_| drop(xt));
                Response::EmbedOk {
                    height: emb.height,
                    dilation: u64::from(stats.dilation),
                    max_load: u64::from(stats.max_load),
                    congestion: u64::from(cong),
                    injective: stats.injective,
                    cached,
                }
            }
            None => {
                let Some(net) = Self::host(t, host, emb.height) else {
                    return bad("host unavailable");
                };
                let map = t.span("host.guest_map", |_| guest_map(host, &emb));
                let map = map.expect("tag checked above");
                let dilation = t.span("host.distance", |_| {
                    tree.edges()
                        .map(|(p, c)| net.distance(map[p.index()], map[c.index()]))
                        .max()
                        .unwrap_or(0)
                });
                let max_load = t.span("sim.compute_load", |_| compute_load(&net, &tree, &map));
                let cong = t.span("sim.congestion", |_| congestion(&net, &tree, &map));
                t.span(host_span(host), |_| drop(net));
                match cong {
                    Ok(cong) => Response::EmbedOk {
                        height: emb.height,
                        dilation: u64::from(dilation),
                        max_load: u64::from(max_load),
                        congestion: u64::from(cong),
                        injective: max_load <= 1,
                        cached,
                    },
                    Err(e) => bad(&format!("host routing failed: {e}")),
                }
            }
            Some(wl) => {
                let mut sink = &self.sim.sim;
                let reports = if host == HOST_XTREE {
                    let xt = t.span("topology.xtree_new", |_| XTree::new(emb.height));
                    let net = t.span("sim.network_xtree", |_| Network::xtree(&xt));
                    let reports = t.span("sim.simulate", |_| {
                        if wl == WORKLOAD_ALL {
                            simulate_all_with(&net, &tree, &*emb, &mut sink)
                        } else {
                            simulate_one_with(&net, &tree, &*emb, usize::from(wl), &mut sink)
                                .map(|r| vec![r])
                        }
                    });
                    t.span("sim.network_xtree", |_| drop(net));
                    t.span("topology.xtree_new", |_| drop(xt));
                    reports
                } else {
                    let Some(net) = Self::host(t, host, emb.height) else {
                        return bad("host unavailable");
                    };
                    let map = t.span("host.guest_map", |_| guest_map(host, &emb));
                    let map = map.expect("tag checked above");
                    let reports = t.span("sim.simulate", |_| {
                        if wl == WORKLOAD_ALL {
                            simulate_all_with(&net, &tree, &map, &mut sink)
                        } else {
                            simulate_one_with(&net, &tree, &map, usize::from(wl), &mut sink)
                                .map(|r| vec![r])
                        }
                    });
                    t.span(host_span(host), |_| drop(net));
                    reports
                };
                match reports {
                    Ok(reports) => Response::SimulateOk {
                        cached,
                        reports: reports
                            .iter()
                            .map(|r| WireReport {
                                workload: WORKLOADS
                                    .iter()
                                    .position(|&w| w == r.workload)
                                    .unwrap_or(usize::from(WORKLOAD_ALL))
                                    as u8,
                                cycles: u64::from(r.cycles),
                                ideal_cycles: u64::from(r.ideal_cycles),
                                max_link_traffic: u64::from(r.max_link_traffic),
                            })
                            .collect(),
                    },
                    Err(e) => bad(&format!("simulation failed: {e}")),
                }
            }
        };
        t.span("trees.generate", |_| drop(tree));
        resp
    }
}

/// The span a non-X-tree host's construction is recorded under.
fn host_span(tag: u8) -> &'static str {
    if tag == HOST_UNIVERSAL {
        "host.build_universal"
    } else {
        "host.build_hypercube"
    }
}

/// One request through the wire codec both ways, as the client and the
/// server run it: returns the frame bytes moved, or the first mismatch.
fn wire_round_trip(t: &mut Tracer, call: &Call, reply: &Response) -> Result<u64, String> {
    let req_frame = t.span("server.wire.encode_request", |_| {
        let mut payload = Vec::new();
        encode_request_host(&call.req, None, Some(call.host), &mut payload);
        frame(&payload)
    });
    let decoded = t.span("server.wire.decode_request", |_| {
        read_frame(&mut &req_frame[..])
            .ok()
            .flatten()
            .and_then(|p| decode_request_host(&p).ok())
    });
    if decoded != Some((call.req.clone(), None, Some(call.host))) {
        return Err(format!("request codec round trip changed {call:?}"));
    }
    let resp_frame = t.span("server.wire.encode_response", |_| {
        let mut payload = Vec::new();
        encode_response(reply, &mut payload);
        frame(&payload)
    });
    let decoded = t.span("server.wire.decode_response", |_| {
        read_frame(&mut &resp_frame[..])
            .ok()
            .flatten()
            .and_then(|p| decode_response(&p).ok())
    });
    if decoded.as_ref() != Some(reply) {
        return Err(format!("response codec round trip changed {reply:?}"));
    }
    Ok((req_frame.len() + resp_frame.len()) as u64)
}

/// What the replay measured.
pub struct Replay {
    /// Requests replayed.
    pub requests: u64,
    /// Self time per span name over the spans-on passes, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Allocations inside `handle_compute`.
    pub service_allocs: u64,
    /// Frame bytes through the codec, both directions.
    pub wire_bytes: u64,
    /// Composed path with spans on, then off: total nanoseconds.
    pub composed_on_ns: u64,
    /// See `composed_on_ns`.
    pub composed_off_ns: u64,
    /// Counts from the spans-on composer.
    pub builds: u64,
    /// See [`Composer::adjust_calls`].
    pub adjust_calls: u64,
    /// See [`Composer::lemma2_splits`].
    pub lemma2_splits: u64,
    /// Engine hops: `handle_compute`'s sink, then the composer's.
    pub sim_hops: (u64, u64),
    /// Composed replies that differ from `handle_compute`'s, and codec
    /// round trips that changed a message.
    pub mismatches: Vec<String>,
}

/// Replays `calls` after building `prewarm` untimed. Per request it runs
/// three passes, each on its own cache: `handle_compute` (the
/// `server.service` span), the composed reply with spans, and the
/// composed reply without spans; the order rotates with the request so
/// no pass always runs with the others' data in the CPU caches.
pub fn replay(calls: &[Call], prewarm: &[Call], cache_cap: usize, spans_out: &Path) -> Replay {
    let service_cache = EmbeddingCache::new(cache_cap);
    let service_metrics = ServerMetrics::new();
    let mut traced = Composer::new(cache_cap);
    let mut untraced = Composer::new(cache_cap);
    let mut off = Tracer::new(false);
    for call in prewarm {
        handle_compute(&call.req, call.host, &service_cache, &service_metrics);
        traced.reply(&mut off, call);
        untraced.reply(&mut off, call);
    }
    let pre_hops = (service_metrics.sim.snapshot().hops, traced.sim_hops());
    let (pre_builds, pre_adjust, pre_splits) =
        (traced.builds, traced.adjust_calls, traced.lemma2_splits);

    let mut t = Tracer::new(true);
    let mut out = Replay {
        requests: calls.len() as u64,
        self_ns: BTreeMap::new(),
        service_allocs: 0,
        wire_bytes: 0,
        composed_on_ns: 0,
        composed_off_ns: 0,
        builds: 0,
        adjust_calls: 0,
        lemma2_splits: 0,
        sim_hops: (0, 0),
        mismatches: Vec::new(),
    };
    for (i, call) in calls.iter().enumerate() {
        t.req = i as u32;
        let mut service = None;
        let mut composed = None;
        for pass in 0..3 {
            match (pass + i) % 3 {
                0 => {
                    let before = ALLOCS.load(Relaxed);
                    service = Some(t.span("server.service", |_| {
                        handle_compute(&call.req, call.host, &service_cache, &service_metrics)
                    }));
                    out.service_allocs += ALLOCS.load(Relaxed) - before;
                }
                1 => {
                    let t0 = t.now_ns();
                    composed = Some(traced.reply(&mut t, call));
                    out.composed_on_ns += t.now_ns() - t0;
                }
                _ => {
                    let t0 = Instant::now();
                    std::hint::black_box(untraced.reply(&mut off, call));
                    out.composed_off_ns += t0.elapsed().as_nanos() as u64;
                }
            }
        }
        let (service, composed) = (service.expect("ran"), composed.expect("ran"));
        if composed != service {
            out.mismatches.push(format!(
                "composed {composed:?} != handle_compute {service:?} for {call:?}"
            ));
        }
        match wire_round_trip(&mut t, call, &service) {
            Ok(bytes) => out.wire_bytes += bytes,
            Err(e) => out.mismatches.push(e),
        }
    }
    out.self_ns = t.self_ns();
    out.builds = traced.builds - pre_builds;
    out.adjust_calls = traced.adjust_calls - pre_adjust;
    out.lemma2_splits = traced.lemma2_splits - pre_splits;
    out.sim_hops = (
        service_metrics.sim.snapshot().hops - pre_hops.0,
        traced.sim_hops() - pre_hops.1,
    );
    if let Err(e) = t.write_jsonl(spans_out) {
        out.mismatches
            .push(format!("writing {}: {e}", spans_out.display()));
    }
    out
}
