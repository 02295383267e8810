//! Server-side observability, built on the same `xtree-telemetry`
//! primitives the simulation engine reports through.
//!
//! Request counters are relaxed atomics (handlers on many threads bump
//! them lock-free); request latency and queue depth go into
//! [`Histogram`]s behind short-lived mutexes; and the engine events of
//! every worker-run simulation land in one shared [`AtomicCounters`]. A
//! worker tallies a request's events into a plain `Counters` and adds
//! them once, so the engine's cycle loop makes no atomic adds. Exports
//! reuse the telemetry crate's exposition helpers, so `xtree_server_*`
//! series render exactly like the established `xtree_sim_*` ones.

use crate::cache::EmbeddingCache;
use crate::wire::WireStats;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use xtree_json::Value;
use xtree_telemetry::{histogram_jsonl, histogram_prometheus, AtomicCounters, Histogram};

/// Latency buckets: pow-2 microseconds up to ~134 s.
const LATENCY_BUCKETS: u32 = 28;
/// Queue-depth buckets, matching the sim metrics layout.
const QUEUE_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// All metrics one daemon accumulates over its lifetime.
pub struct ServerMetrics {
    requests: AtomicU64,
    embeds: AtomicU64,
    simulates: AtomicU64,
    stats_reqs: AtomicU64,
    healths: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
    /// Requests rejected with `ERR_DEADLINE` (budget expired at
    /// admission, in the queue, or before compute started).
    deadline_rejects: AtomicU64,
    /// Connections dropped because a socket read/write outran the
    /// configured I/O timeout (idle or stalled peers).
    io_timeouts: AtomicU64,
    latency_us: Mutex<Histogram>,
    /// Embed-construction latency on cache hits (the lookup).
    embed_hit_us: Mutex<Histogram>,
    /// Embed-construction latency on cache misses (full Theorem-1 build).
    embed_miss_us: Mutex<Histogram>,
    queue_depth: Mutex<Histogram>,
    /// Engine events from every simulation a worker runs.
    pub sim: AtomicCounters,
}

impl ServerMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        ServerMetrics {
            requests: AtomicU64::new(0),
            embeds: AtomicU64::new(0),
            simulates: AtomicU64::new(0),
            stats_reqs: AtomicU64::new(0),
            healths: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            deadline_rejects: AtomicU64::new(0),
            io_timeouts: AtomicU64::new(0),
            latency_us: Mutex::new(Histogram::pow2(LATENCY_BUCKETS)),
            embed_hit_us: Mutex::new(Histogram::pow2(LATENCY_BUCKETS)),
            embed_miss_us: Mutex::new(Histogram::pow2(LATENCY_BUCKETS)),
            queue_depth: Mutex::new(Histogram::new(QUEUE_DEPTH_BOUNDS)),
            sim: AtomicCounters::new(),
        }
    }

    /// Counts one accepted request of any type.
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Relaxed);
    }

    /// Counts one `Embed` dispatched to the pool.
    pub fn count_embed(&self) {
        self.embeds.fetch_add(1, Relaxed);
    }

    /// Counts one `Simulate` dispatched to the pool.
    pub fn count_simulate(&self) {
        self.simulates.fetch_add(1, Relaxed);
    }

    /// Counts one `Stats` request.
    pub fn count_stats(&self) {
        self.stats_reqs.fetch_add(1, Relaxed);
    }

    /// Counts one `Health` request.
    pub fn count_health(&self) {
        self.healths.fetch_add(1, Relaxed);
    }

    /// Counts one request bounced with `Overloaded`.
    pub fn count_overloaded(&self) {
        self.overloaded.fetch_add(1, Relaxed);
    }

    /// Counts one request answered with `Error`.
    pub fn count_error(&self) {
        self.errors.fetch_add(1, Relaxed);
    }

    /// Counts one request rejected because its deadline budget expired.
    pub fn count_deadline_reject(&self) {
        self.deadline_rejects.fetch_add(1, Relaxed);
    }

    /// Counts one connection dropped on an I/O timeout.
    pub fn count_io_timeout(&self) {
        self.io_timeouts.fetch_add(1, Relaxed);
    }

    /// Requests rejected with `ERR_DEADLINE` so far.
    pub fn deadline_rejects(&self) -> u64 {
        self.deadline_rejects.load(Relaxed)
    }

    /// Records one completed pooled request's end-to-end latency
    /// (queue wait + compute + reply), in microseconds.
    pub fn observe_latency_us(&self, us: u64) {
        self.latency_us
            .lock()
            .expect("latency poisoned")
            .observe(us);
    }

    /// Records the time one `Embed`/`Simulate` request spent resolving its
    /// embedding (cache lookup plus, on a miss, the full construction),
    /// split by whether the cache hit — the serving-side view of the
    /// cold-path rebuild.
    pub fn observe_embed_us(&self, us: u64, hit: bool) {
        let h = if hit {
            &self.embed_hit_us
        } else {
            &self.embed_miss_us
        };
        h.lock().expect("embed latency poisoned").observe(us);
    }

    /// Records the queue depth right after an enqueue.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth
            .lock()
            .expect("depth poisoned")
            .observe(depth);
    }

    /// Requests bounced with `Overloaded` so far.
    pub fn overloaded(&self) -> u64 {
        self.overloaded.load(Relaxed)
    }

    /// A wire-ready snapshot, pulling cache and queue state from their
    /// owners.
    pub fn snapshot(&self, cache: &EmbeddingCache, queue_depth: usize) -> WireStats {
        let lat = self.latency_us.lock().expect("latency poisoned");
        let sim = self.sim.snapshot();
        WireStats {
            requests: self.requests.load(Relaxed),
            embeds: self.embeds.load(Relaxed),
            simulates: self.simulates.load(Relaxed),
            overloaded: self.overloaded.load(Relaxed),
            errors: self.errors.load(Relaxed),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_entries: cache.entries() as u64,
            queue_depth: queue_depth as u64,
            latency_count: lat.count(),
            latency_p50_us: lat.quantile(0.50),
            latency_p95_us: lat.quantile(0.95),
            latency_p99_us: lat.quantile(0.99),
            sim_hops: sim.hops,
            sim_delivered: sim.delivered,
            // A single daemon always has the complete picture; only the
            // router's aggregate can be partial.
            partial: false,
        }
    }

    /// Prometheus text exposition of the server series plus the pooled
    /// simulations' engine counters — the same format (and histogram
    /// helper) as the sim `MetricsSink`.
    pub fn to_prometheus(&self, cache: &EmbeddingCache, queue_depth: usize) -> String {
        let s = self.snapshot(cache, queue_depth);
        let mut out = String::new();
        for (name, v) in [
            ("requests", s.requests),
            ("embeds", s.embeds),
            ("simulates", s.simulates),
            ("overloaded", s.overloaded),
            ("errors", s.errors),
            ("deadline_rejects", self.deadline_rejects.load(Relaxed)),
            ("io_timeouts", self.io_timeouts.load(Relaxed)),
            ("cache_hits", s.cache_hits),
            ("cache_misses", s.cache_misses),
            ("sim_hops", s.sim_hops),
            ("sim_delivered", s.sim_delivered),
        ] {
            out.push_str(&format!(
                "# TYPE xtree_server_{name}_total counter\nxtree_server_{name}_total {v}\n"
            ));
        }
        for (name, v) in [
            ("cache_entries", s.cache_entries),
            ("queue_depth", s.queue_depth),
        ] {
            out.push_str(&format!(
                "# TYPE xtree_server_{name} gauge\nxtree_server_{name} {v}\n"
            ));
        }
        histogram_prometheus(
            &mut out,
            "xtree_server_request_latency_us",
            &self.latency_us.lock().expect("latency poisoned"),
        );
        histogram_prometheus(
            &mut out,
            "xtree_server_embed_hit_latency_us",
            &self.embed_hit_us.lock().expect("embed latency poisoned"),
        );
        histogram_prometheus(
            &mut out,
            "xtree_server_embed_miss_latency_us",
            &self.embed_miss_us.lock().expect("embed latency poisoned"),
        );
        histogram_prometheus(
            &mut out,
            "xtree_server_queue_depth_observed",
            &self.queue_depth.lock().expect("depth poisoned"),
        );
        out
    }

    /// JSONL export: one counters object, then the latency and
    /// queue-depth histograms in the workspace's standard record shape.
    pub fn to_jsonl(&self, cache: &EmbeddingCache, queue_depth: usize) -> String {
        let s = self.snapshot(cache, queue_depth);
        let mut out = String::new();
        let counters = Value::object()
            .with("type", "counters")
            .with("requests", s.requests)
            .with("embeds", s.embeds)
            .with("simulates", s.simulates)
            .with("overloaded", s.overloaded)
            .with("errors", s.errors)
            .with("deadline_rejects", self.deadline_rejects.load(Relaxed))
            .with("io_timeouts", self.io_timeouts.load(Relaxed))
            .with("cache_hits", s.cache_hits)
            .with("cache_misses", s.cache_misses)
            .with("cache_entries", s.cache_entries)
            .with("queue_depth", s.queue_depth)
            .with("sim_hops", s.sim_hops)
            .with("sim_delivered", s.sim_delivered);
        out.push_str(&xtree_json::to_string(&counters));
        out.push('\n');
        for (name, h) in [
            ("request_latency_us", &self.latency_us),
            ("embed_hit_latency_us", &self.embed_hit_us),
            ("embed_miss_latency_us", &self.embed_miss_us),
            ("queue_depth_observed", &self.queue_depth),
        ] {
            let h = h.lock().expect("histogram poisoned");
            out.push_str(&xtree_json::to_string(&histogram_jsonl(name, &h)));
            out.push('\n');
        }
        out
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts_and_percentiles() {
        let m = ServerMetrics::new();
        let cache = EmbeddingCache::new(8);
        m.count_request();
        m.count_request();
        m.count_embed();
        m.count_overloaded();
        for us in [100, 200, 400, 800] {
            m.observe_latency_us(us);
        }
        let s = m.snapshot(&cache, 3);
        assert_eq!(s.requests, 2);
        assert_eq!(s.embeds, 1);
        assert_eq!(s.overloaded, 1);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.latency_count, 4);
        assert!(s.latency_p50_us <= s.latency_p95_us);
        assert!(s.latency_p95_us <= s.latency_p99_us);
        assert!(s.latency_p99_us >= 800);
    }

    #[test]
    fn exports_render_all_series() {
        let m = ServerMetrics::new();
        let cache = EmbeddingCache::new(8);
        m.count_request();
        m.observe_latency_us(50);
        m.observe_queue_depth(2);
        let prom = m.to_prometheus(&cache, 0);
        assert!(prom.contains("xtree_server_requests_total 1"), "{prom}");
        assert!(
            prom.contains("# TYPE xtree_server_request_latency_us histogram"),
            "{prom}"
        );
        assert!(prom.contains("xtree_server_request_latency_us_count 1"));
        assert!(prom.contains("xtree_server_queue_depth 0"));
        let jsonl = m.to_jsonl(&cache, 0);
        for line in jsonl.lines() {
            assert!(xtree_json::from_str(line).is_ok(), "bad JSONL: {line}");
        }
        assert!(jsonl.contains("\"name\":\"request_latency_us\""));
        assert!(jsonl.contains("\"name\":\"queue_depth_observed\""));
    }

    #[test]
    fn embed_latency_splits_by_cache_outcome() {
        let m = ServerMetrics::new();
        let cache = EmbeddingCache::new(8);
        m.observe_embed_us(30, true);
        m.observe_embed_us(5000, false);
        m.observe_embed_us(7000, false);
        let prom = m.to_prometheus(&cache, 0);
        assert!(
            prom.contains("xtree_server_embed_hit_latency_us_count 1"),
            "{prom}"
        );
        assert!(
            prom.contains("xtree_server_embed_miss_latency_us_count 2"),
            "{prom}"
        );
        let jsonl = m.to_jsonl(&cache, 0);
        assert!(jsonl.contains("\"name\":\"embed_hit_latency_us\""));
        assert!(jsonl.contains("\"name\":\"embed_miss_latency_us\""));
    }
}
