//! The cluster front door: one XWIRE1 listener that owns no compute.
//!
//! A router handler decodes each client request just far enough to learn
//! its routing key — the embedding-cache key `(family, nodes, seed,
//! theorem)` — hashes it onto the [`HashRing`], and forwards the
//! re-encoded frame to the owning shard, relaying the shard's response
//! payload back verbatim. Keeping the routing key equal to the cache key
//! means every shard's LRU only ever sees its own slice of the key
//! space: the cluster's aggregate cache is partitioned, not replicated.
//!
//! Failover is *replay*, and replay is safe by construction: `Embed` and
//! `Simulate` are pure functions of their request fields (the daemon
//! computes the same bytes for the same request, cache hit or not), so a
//! request whose shard died mid-flight can be re-sent — to the same
//! shard after reconnecting, or to the next live shard clockwise once
//! the failure detector ejects the dead one — without any risk of
//! double-applied effects. The only observable difference is the
//! response's `cached` convenience flag, which reports *which shard's*
//! cache answered; the integration tests normalise it before comparing
//! bytes. Budget and pacing reuse the client's [`ReconnectPolicy`]
//! (`max_retries` + Fixed/Exponential [`xtree_sim::Backoff`] in milliseconds — the
//! simulator's `RecoveryPolicy` shape). When every attempt found no live
//! shard the client gets `ERR_UNREACHABLE`; when the budget dies on live
//! shards it gets `ERR_EXHAUSTED`.
//!
//! Control requests never cross the ring: `Health` answers with the
//! router's own load signal, `Stats` aggregates a snapshot from every
//! live shard, and `Shutdown` drains the whole cluster — stop the
//! prober, tell the supervisor the coming exits are intentional, forward
//! `Shutdown` to every shard, then let `wait()` reap.
//!
//! Two robustness layers ride the forward path. *Deadline budgets*: a
//! client's remaining budget arrives in the frame's trailing field; the
//! router deducts elapsed time (including backoff sleeps) before every
//! attempt, re-encodes the shrunken budget for the shard, bounds each
//! attempt's socket I/O by it, and answers `ERR_DEADLINE` the moment the
//! budget dies — so a replay storm can never out-spend the client's
//! patience. *Cache warmup*: the router keeps a census of hot routing
//! keys, and when the supervisor restarts a crashed shard it replays
//! that shard's share of the hottest keys into the fresh cache before
//! client traffic lands on it.

use super::health::{FailureKind, HealthMonitor, ShardSet};
use super::metrics::{ClusterCount, ClusterMetrics, ShardCount};
use super::ring::HashRing;
use super::supervisor::Supervisor;
use crate::cache::EmbeddingKey;
use crate::client::ReconnectPolicy;
use crate::service::deadline_reject;
use crate::wire::{
    decode_request_host, decode_response, encode_request_host, frame, read_frame,
    write_request_host, write_response, HealthInfo, Request, Response, WireError, WireStats,
    ERR_BAD_REQUEST, ERR_EXHAUSTED, ERR_SHUTTING_DOWN, ERR_UNREACHABLE,
};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xtree_host::HOST_XTREE;

/// How a router is shaped: where it listens, who its shards are, and how
/// it detects and rides over their failures.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Shard daemon addresses; index = shard id on the ring.
    pub shards: Vec<SocketAddr>,
    /// Seed for the consistent-hash ring (placement is a pure function
    /// of this and the roster).
    pub ring_seed: u64,
    /// Virtual nodes per shard.
    pub vnodes: u32,
    /// Health-probe period.
    pub probe_interval: Duration,
    /// Consecutive disconnect-weight failures (probe or forward) that
    /// eject a shard; timeouts strike at half this weight.
    pub fail_after: u32,
    /// Replay budget and pacing for failed forwards.
    pub replay: ReconnectPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            ring_seed: 1991,
            vnodes: HashRing::DEFAULT_VNODES,
            probe_interval: Duration::from_millis(100),
            fail_after: 3,
            replay: ReconnectPolicy {
                max_retries: 8,
                backoff: xtree_sim::Backoff::Exponential { base: 25, cap: 800 },
            },
        }
    }
}

/// Dialing a shard that stops answering its accept queue must not hang a
/// client forever.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-attempt ceiling on shard I/O when the client supplied a deadline
/// budget; without one the forward path stays blocking, as before.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(10);

/// `Stats` aggregation must answer even when one shard wedges.
const STATS_TIMEOUT: Duration = Duration::from_secs(2);

/// I/O ceiling while warming a restarted shard's cache.
const WARMUP_TIMEOUT: Duration = Duration::from_secs(2);

/// Hot-key census capacity; crossing it evicts the coldest half.
const HOT_KEYS_CAP: usize = 1024;

/// Hot keys considered when warming one restarted shard.
const WARMUP_TOP_K: usize = 8;

/// The router's sliding census of hot routing keys: what the cluster has
/// actually been asked for, used to pre-fill the cache of a freshly
/// restarted shard.
#[derive(Default)]
struct HotKeys {
    counts: HashMap<EmbeddingKey, u64>,
}

/// A total order on keys so hot-key ranking (and therefore warmup
/// traffic) is deterministic under equal counts.
fn key_rank(k: &EmbeddingKey) -> (u8, u64, u64, u8, u8) {
    (k.family, k.nodes, k.seed, k.theorem, k.host)
}

impl HotKeys {
    fn touch(&mut self, key: EmbeddingKey) {
        *self.counts.entry(key).or_insert(0) += 1;
        if self.counts.len() > HOT_KEYS_CAP {
            let mut by_heat: Vec<(EmbeddingKey, u64)> = self.counts.drain().collect();
            by_heat.sort_unstable_by(|a, b| {
                b.1.cmp(&a.1)
                    .then_with(|| key_rank(&a.0).cmp(&key_rank(&b.0)))
            });
            by_heat.truncate(HOT_KEYS_CAP / 2);
            self.counts = by_heat.into_iter().collect();
        }
    }

    /// The `k` hottest keys, hottest first.
    fn top(&self, k: usize) -> Vec<EmbeddingKey> {
        let mut by_heat: Vec<(&EmbeddingKey, &u64)> = self.counts.iter().collect();
        by_heat
            .sort_unstable_by(|a, b| b.1.cmp(a.1).then_with(|| key_rank(a.0).cmp(&key_rank(b.0))));
        by_heat.into_iter().take(k).map(|(key, _)| *key).collect()
    }
}

struct RouterShared {
    ring: HashRing,
    shards: Arc<ShardSet>,
    metrics: Arc<ClusterMetrics>,
    replay: ReconnectPolicy,
    shutdown: AtomicBool,
    started: Instant,
    /// Present when the shards are child processes the router owns.
    supervisor: Mutex<Option<Supervisor>>,
    /// Hot routing keys for restart cache warmup.
    hot: Mutex<HotKeys>,
}

/// A running router. Send it a wire `Shutdown` (or call
/// [`Router::shutdown`]) and then [`Router::wait`].
pub struct Router {
    local_addr: SocketAddr,
    shared: Arc<RouterShared>,
    monitor: HealthMonitor,
    acceptor: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds `config.addr`, builds the ring over `config.shards`, and
    /// starts the acceptor and health monitor.
    ///
    /// # Errors
    /// The bind failure, or `InvalidInput` for an empty shard roster.
    pub fn spawn(config: &RouterConfig) -> std::io::Result<Router> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shards = ShardSet::new(&config.shards, config.fail_after);
        let shared = Arc::new(RouterShared {
            ring: HashRing::with_shards(
                config.ring_seed,
                config.vnodes,
                config.shards.len() as u16,
            ),
            shards: Arc::clone(&shards),
            metrics: Arc::new(ClusterMetrics::new(config.shards.len())),
            replay: config.replay,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            supervisor: Mutex::new(None),
            hot: Mutex::new(HotKeys::default()),
        });
        let monitor = HealthMonitor::spawn(shards, config.probe_interval);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("xtree-cluster-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))
                .expect("spawn cluster acceptor")
        };
        Ok(Router {
            local_addr,
            shared,
            monitor,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared shard roster (liveness, addresses) — what a supervisor
    /// pushes restarted addresses into.
    pub fn shard_set(&self) -> Arc<ShardSet> {
        Arc::clone(&self.shared.shards)
    }

    /// The shared cluster metrics — what a supervisor counts restarts
    /// into.
    pub fn metrics(&self) -> Arc<ClusterMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Hands the router the supervisor owning the shard processes, so a
    /// wire `Shutdown` can drain them too.
    pub fn attach_supervisor(&self, sup: Supervisor) {
        *self.shared.supervisor.lock().expect("supervisor lock") = Some(sup);
    }

    /// The cache-warmup callback a supervisor should run after restarting
    /// a shard: replays that shard's share of the router's hottest keys
    /// into its fresh, empty cache (best effort, bounded I/O).
    pub fn warmup_fn(&self) -> super::supervisor::WarmupFn {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |id| warm_shard(&shared, id))
    }

    /// Initiates the same cluster-wide drain a wire `Shutdown` does.
    pub fn shutdown(&self) {
        begin_cluster_shutdown(&self.shared, self.local_addr);
    }

    /// Blocks until the acceptor has exited, then stops the prober and
    /// reaps any supervised shard processes. Idempotent; metrics remain
    /// readable afterwards.
    pub fn wait(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.monitor.stop();
        if let Some(mut sup) = self
            .shared
            .supervisor
            .lock()
            .expect("supervisor lock")
            .take()
        {
            sup.wait();
        }
    }
}

/// Flips the flag, tells the supervisor the coming exits are
/// intentional, forwards `Shutdown` to every shard (best effort), and
/// self-connects to kick the acceptor out of `accept()`.
fn begin_cluster_shutdown(shared: &RouterShared, addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    if let Some(sup) = shared.supervisor.lock().expect("supervisor lock").as_ref() {
        sup.begin_drain();
    }
    for id in 0..shared.shards.len() as u16 {
        let shard_addr = shared.shards.addr(id);
        let drain = (|| -> Result<(), WireError> {
            let stream = TcpStream::connect_timeout(&shard_addr, CONNECT_TIMEOUT)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            write_request_host(&mut writer, &Request::Shutdown, None, None)?;
            read_frame(&mut reader)?;
            Ok(())
        })();
        if drain.is_err() && shared.shards.is_alive(id) {
            eprintln!("xtree-cluster: shard {id} did not acknowledge shutdown");
        }
    }
    let _ = TcpStream::connect(addr);
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<RouterShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let shared = Arc::clone(shared);
        let addr = listener.local_addr().ok();
        let _ = std::thread::Builder::new()
            .name("xtree-cluster-conn".into())
            .spawn(move || {
                let local = addr.unwrap_or_else(|| "0.0.0.0:0".parse().expect("literal addr"));
                handle_connection(stream, &shared, local);
            });
    }
}

/// A shard connection a handler keeps warm, tagged with the roster
/// generation it was dialed under — a supervisor restart bumps the
/// generation and the stale socket is dropped instead of written to.
struct CachedConn {
    generation: u64,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

type ConnCache = HashMap<u16, CachedConn>;

fn open_shard_conn(addr: SocketAddr, generation: u64) -> Result<CachedConn, WireError> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true).ok();
    let writer = stream.try_clone()?;
    Ok(CachedConn {
        generation,
        reader: BufReader::new(stream),
        writer,
    })
}

/// One forward attempt: write the framed request to `shard`, read one
/// response frame back. Any failure invalidates the cached connection.
/// `io_timeout` bounds both socket directions for this attempt; `None`
/// restores blocking I/O (cached connections may carry a previous
/// budgeted request's timeouts, so it is applied every attempt).
fn try_forward(
    shared: &RouterShared,
    conns: &mut ConnCache,
    shard: u16,
    framed: &[u8],
    io_timeout: Option<Duration>,
) -> Result<Vec<u8>, WireError> {
    let generation = shared.shards.generation(shard);
    let needs_dial = match conns.get(&shard) {
        Some(c) => c.generation != generation,
        None => true,
    };
    if needs_dial {
        let conn = open_shard_conn(shared.shards.addr(shard), generation)?;
        conns.insert(shard, conn);
    }
    let conn = conns.get_mut(&shard).expect("just inserted");
    conn.writer.set_read_timeout(io_timeout).ok();
    conn.writer.set_write_timeout(io_timeout).ok();
    let result = (|| {
        conn.writer.write_all(framed)?;
        conn.writer.flush()?;
        match read_frame(&mut conn.reader)? {
            Some(payload) => Ok(payload),
            None => Err(WireError::Closed),
        }
    })();
    if result.is_err() {
        conns.remove(&shard);
    }
    result
}

/// Replays the hottest keys owned by `shard` into its freshly restarted
/// cache. Safe because `Embed` is a pure function of the key — warmup is
/// just asking the shard, ahead of time, what clients will ask it again.
fn warm_shard(shared: &RouterShared, shard: u16) {
    let keys = shared.hot.lock().expect("hot keys").top(WARMUP_TOP_K);
    let owned: Vec<EmbeddingKey> = keys
        .into_iter()
        .filter(|key| {
            let hash = shared.ring.key_hash(key);
            // Route on the ring as it stands once this shard is back.
            shared
                .ring
                .route_live(hash, |s| s == shard || shared.shards.is_alive(s))
                == Some(shard)
        })
        .collect();
    if owned.is_empty() {
        return;
    }
    let mut warmed = 0u64;
    let _ = (|| -> Result<(), WireError> {
        let stream = TcpStream::connect_timeout(&shared.shards.addr(shard), CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(WARMUP_TIMEOUT))?;
        stream.set_write_timeout(Some(WARMUP_TIMEOUT))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        for key in &owned {
            let req = Request::Embed {
                family: key.family,
                nodes: key.nodes,
                seed: key.seed,
                theorem: key.theorem,
            };
            // A key heated by host-tagged traffic is replayed with the
            // same tag; X-tree keys keep the pre-host frame bytes.
            let host = (key.host != HOST_XTREE).then_some(key.host);
            write_request_host(&mut writer, &req, None, host)?;
            match read_frame(&mut reader)? {
                Some(_) => warmed += 1,
                None => break,
            }
        }
        Ok(())
    })();
    shared.metrics.add(ClusterCount::WarmupKeys, warmed);
    if warmed > 0 {
        eprintln!("xtree-cluster: shard {shard} cache warmed with {warmed} hot keys");
    }
}

/// Whether a shard's response payload is the typed "server is draining"
/// refusal — a shard answering that cannot serve this request and is
/// about to close its listener, so the router treats it like a transport
/// failure and replays elsewhere.
fn is_draining_error(payload: &[u8]) -> bool {
    matches!(
        decode_response(payload),
        Ok(Response::Error {
            code: ERR_SHUTTING_DOWN,
            ..
        })
    )
}

/// The relay-or-respond result of routing: either raw shard payload
/// bytes to copy to the client verbatim, or a response the router built
/// itself.
enum Outcome {
    Raw(Vec<u8>),
    Built(Response),
}

/// Routes one compute request with replay: pick the closest live shard,
/// forward, and on transport failure feed the detector, wait out the
/// backoff, and re-route — the ring may eject the shard meanwhile,
/// sliding the key to its clockwise successor. Returns the raw response
/// payload to relay, or the typed terminal error.
///
/// When the client supplied a deadline budget, every attempt first
/// deducts the time already spent (forwarding, backoff sleeps, dead
/// shards): the frame is re-encoded carrying only the remaining budget,
/// socket I/O is bounded by it, and an empty budget terminates the replay
/// loop with `ERR_DEADLINE` instead of burning attempts the client has
/// already given up on.
fn forward_with_replay(
    shared: &RouterShared,
    conns: &mut ConnCache,
    key: &EmbeddingKey,
    req: &Request,
    host: Option<u8>,
    deadline: Option<Instant>,
) -> Outcome {
    let mut payload = Vec::new();
    encode_request_host(req, None, host, &mut payload);
    let mut framed = frame(&payload);
    let hash = shared.ring.key_hash(key);
    let start = Instant::now();
    let mut found_live = false;
    for attempt in 0..=shared.replay.max_retries {
        if attempt > 0 {
            let mut wait =
                Duration::from_millis(u64::from(shared.replay.backoff.delay(attempt - 1)));
            if let Some(d) = deadline {
                wait = wait.min(d.saturating_duration_since(Instant::now()));
            }
            std::thread::sleep(wait);
        }
        let io_timeout = match deadline {
            None => None,
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    shared.metrics.count(ClusterCount::DeadlineRejects);
                    return Outcome::Built(deadline_reject("router"));
                }
                payload.clear();
                encode_request_host(req, Some(remaining.as_micros() as u64), host, &mut payload);
                framed = frame(&payload);
                Some(remaining.max(Duration::from_millis(1)).min(FORWARD_TIMEOUT))
            }
        };
        let Some(shard) = shared
            .ring
            .route_live(hash, |id| shared.shards.is_alive(id))
        else {
            // Nobody is live right now; the supervisor may be mid-restart,
            // so spend the budget waiting rather than failing fast.
            continue;
        };
        found_live = true;
        shared.metrics.count_shard(ShardCount::Routed, shard);
        if attempt > 0 {
            shared.metrics.count_shard(ShardCount::Replayed, shard);
        }
        match try_forward(shared, conns, shard, &framed, io_timeout) {
            Ok(resp_payload) => {
                // A shard that answers "I am draining" is as gone as one
                // that dropped the connection — its listener closes next.
                // Fail over instead of relaying the refusal.
                if is_draining_error(&resp_payload) {
                    conns.remove(&shard);
                    shared.metrics.count_shard(ShardCount::Failed, shard);
                    shared.shards.report_failure(shard);
                    continue;
                }
                shared.shards.report_success(shard, None);
                if attempt > 0 {
                    shared
                        .metrics
                        .observe_failover_us(start.elapsed().as_micros() as u64);
                }
                return Outcome::Raw(resp_payload);
            }
            Err(e) if e.is_transport() => {
                shared.metrics.count_shard(ShardCount::Failed, shard);
                if matches!(e, WireError::TimedOut) {
                    shared.metrics.count_shard(ShardCount::Timeouts, shard);
                }
                // A shard that outran its socket deadline is suspect, not
                // dead: it strikes at half the weight of a disconnect.
                shared
                    .shards
                    .report_failure_kind(shard, FailureKind::from_error(&e));
            }
            Err(_) => {
                // Protocol-level trouble on the shard link (garbled or
                // oversized frame). With fault injection in the picture
                // this indicts the *link*, not the request — the request
                // bytes we sent are known-well-formed — so strike the
                // shard and replay on a fresh connection.
                shared.metrics.count_shard(ShardCount::Failed, shard);
                shared
                    .shards
                    .report_failure_kind(shard, FailureKind::Disconnect);
            }
        }
    }
    Outcome::Built(if found_live {
        shared.metrics.count(ClusterCount::Exhausted);
        Response::Error {
            code: ERR_EXHAUSTED,
            message: format!(
                "replay budget exhausted after {} attempts",
                shared.replay.max_retries + 1
            ),
        }
    } else {
        shared.metrics.count(ClusterCount::Unreachable);
        Response::Error {
            code: ERR_UNREACHABLE,
            message: "no live shard".into(),
        }
    })
}

/// Aggregates a `Stats` snapshot across the shard roster: counters sum;
/// percentiles and depths take the max (a conservative cluster-wide
/// tail). Shards that are dead, unreachable, or slower than
/// [`STATS_TIMEOUT`] are no longer silently absorbed into the sum: the
/// snapshot comes back with `partial = true`, so a reader can tell a
/// quiet cluster from a half-blind aggregation.
fn aggregate_stats(shared: &RouterShared) -> WireStats {
    let mut total = WireStats::default();
    let roster = shared.shards.len() as u16;
    let mut answered = 0u16;
    for id in 0..roster {
        if !shared.shards.is_alive(id) {
            continue;
        }
        let snap = (|| -> Result<WireStats, WireError> {
            let stream = TcpStream::connect_timeout(&shared.shards.addr(id), CONNECT_TIMEOUT)?;
            stream.set_read_timeout(Some(STATS_TIMEOUT))?;
            stream.set_write_timeout(Some(STATS_TIMEOUT))?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            write_request_host(&mut writer, &Request::Stats, None, None)?;
            match read_frame(&mut reader)? {
                Some(bytes) => match decode_response(&bytes)? {
                    Response::StatsOk(s) => Ok(s),
                    _ => Err(WireError::Closed),
                },
                None => Err(WireError::Closed),
            }
        })();
        let s = match snap {
            Ok(s) => s,
            Err(e) => {
                if matches!(e, WireError::TimedOut) {
                    shared.metrics.count_shard(ShardCount::Timeouts, id);
                }
                continue;
            }
        };
        answered += 1;
        total.partial |= s.partial;
        total.requests += s.requests;
        total.embeds += s.embeds;
        total.simulates += s.simulates;
        total.overloaded += s.overloaded;
        total.errors += s.errors;
        total.cache_hits += s.cache_hits;
        total.cache_misses += s.cache_misses;
        total.cache_entries += s.cache_entries;
        total.queue_depth += s.queue_depth;
        total.latency_count += s.latency_count;
        total.latency_p50_us = total.latency_p50_us.max(s.latency_p50_us);
        total.latency_p95_us = total.latency_p95_us.max(s.latency_p95_us);
        total.latency_p99_us = total.latency_p99_us.max(s.latency_p99_us);
        total.sim_hops += s.sim_hops;
        total.sim_delivered += s.sim_delivered;
    }
    total.partial |= answered < roster;
    total
}

/// The router's own `Health` payload: live-shard count as queue depth
/// proxy is wrong — instead report the aggregate cache totals from the
/// last probes and the router's uptime; queue depth is the number of
/// *dead* shards (0 = all healthy), which is the one scalar a cluster
/// health check actually wants.
fn router_health(shared: &RouterShared) -> HealthInfo {
    let mut hits = 0;
    let mut misses = 0;
    for id in 0..shared.shards.len() as u16 {
        if let Some(info) = shared.shards.last_info(id) {
            hits += info.cache_hits;
            misses += info.cache_misses;
        }
    }
    HealthInfo {
        queue_depth: (shared.shards.len() - shared.shards.live_count()) as u64,
        cache_hits: hits,
        cache_misses: misses,
        uptime_s: shared.started.elapsed().as_secs(),
    }
}

fn wire_reject(e: &WireError) -> Response {
    Response::Error {
        code: ERR_BAD_REQUEST,
        message: format!("bad request: {e}"),
    }
}

/// Serves one client connection until EOF, a wire error, or shutdown.
fn handle_connection(stream: TcpStream, shared: &RouterShared, local: SocketAddr) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut conns = ConnCache::new();
    loop {
        let (req, deadline_us, host) = match read_frame(&mut reader) {
            Ok(Some(bytes)) => match decode_request_host(&bytes) {
                Ok(decoded) => decoded,
                Err(e) => {
                    shared.metrics.count(ClusterCount::Requests);
                    let _ = write_response(&mut writer, &wire_reject(&e));
                    return;
                }
            },
            Ok(None) => return,
            Err(WireError::Io(_) | WireError::Reset | WireError::Closed) => return,
            Err(e) => {
                shared.metrics.count(ClusterCount::Requests);
                let _ = write_response(&mut writer, &wire_reject(&e));
                return;
            }
        };
        shared.metrics.count(ClusterCount::Requests);
        // The trailing budget is the client's *remaining* patience at
        // send time; the clock for it starts at receipt.
        let deadline = deadline_us.map(|us| Instant::now() + Duration::from_micros(us));
        if deadline_us == Some(0) {
            shared.metrics.count(ClusterCount::DeadlineRejects);
            if write_response(&mut writer, &deadline_reject("router admission")).is_err() {
                return;
            }
            continue;
        }
        let outcome = match &req {
            Request::Health => Outcome::Built(Response::HealthOk {
                info: Some(router_health(shared)),
            }),
            Request::Stats => Outcome::Built(Response::StatsOk(aggregate_stats(shared))),
            Request::Shutdown => Outcome::Built(Response::ShutdownOk {
                pending: (shared.shards.len() - shared.shards.live_count()) as u64,
            }),
            Request::Embed {
                family,
                nodes,
                seed,
                theorem,
            }
            | Request::Simulate {
                family,
                nodes,
                seed,
                theorem,
                ..
            } => {
                let key = EmbeddingKey {
                    family: *family,
                    nodes: *nodes,
                    seed: *seed,
                    theorem: *theorem,
                    host: host.unwrap_or(HOST_XTREE),
                };
                shared.hot.lock().expect("hot keys").touch(key);
                forward_with_replay(shared, &mut conns, &key, &req, host, deadline)
            }
        };
        let written = match &outcome {
            Outcome::Raw(payload) => writer
                .write_all(&frame(payload))
                .and_then(|()| writer.flush())
                .is_ok(),
            Outcome::Built(resp) => write_response(&mut writer, resp).is_ok(),
        };
        if !written {
            return;
        }
        if matches!(req, Request::Shutdown) {
            begin_cluster_shutdown(shared, local);
            return;
        }
    }
}
