//! Server-side observability, built on the same `xtree-telemetry`
//! primitives the simulation engine reports through.
//!
//! Request counters are one block of relaxed atomics indexed by [`Count`]
//! (handlers on many threads bump them lock-free); request latency and
//! queue depth go into [`Histogram`]s behind short-lived mutexes; and the
//! engine events of every `Simulate` reply served land in one shared
//! [`AtomicCounters`]. A worker tallies each workload's events into a
//! plain `Counters` and adds them once, so the engine's cycle loop makes
//! no atomic adds; a reply served from the cache's slots adds the tallies
//! stored with them, so the totals do not depend on what the cache held.
//! [`ServerMetrics::families`] lists it all for the telemetry crate's one
//! writer, so `xtree_server_*` series render exactly like the
//! `xtree_sim_*` ones.

use crate::cache::EmbeddingCache;
use crate::wire::WireStats;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use xtree_telemetry::{AtomicCounters, Family, Histogram};

/// Latency buckets: pow-2 microseconds up to ~134 s.
const LATENCY_BUCKETS: u32 = 28;
/// Queue-depth buckets, matching the sim metrics layout.
const QUEUE_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// The daemon's request counters, one slot each in [`ServerMetrics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Accepted requests of any type.
    Requests,
    /// `Embed` requests received.
    Embeds,
    /// `Simulate` requests received.
    Simulates,
    /// `Simulate`s answered from their cache entry's slots, without
    /// running the engine. Every other `Simulate` ran it or was rejected,
    /// so `simulates - sim_memo_hits` bounds the engine runs from above.
    SimMemoHits,
    /// `Embed`s and `Simulate`s answered by their warm half on the
    /// connection thread, without a queue hop: cache hits and
    /// validation errors. Every other compute request was queued
    /// (`queue_depth_observed`'s count), bounced `Overloaded`, or refused
    /// at admission or during the drain.
    InlineReplies,
    /// `Stats` requests.
    StatsRequests,
    /// `Health` requests.
    HealthRequests,
    /// Requests bounced with `Overloaded`.
    Overloaded,
    /// Requests answered with `Error`, counted once per reply written.
    Errors,
    /// Requests answered with `ERR_DEADLINE` (budget expired at
    /// admission, in the queue, or while the handler waited for its
    /// worker), counted once per reply written.
    DeadlineRejects,
    /// Connections dropped because a socket read/write outran the
    /// configured I/O timeout (idle or stalled peers).
    IoTimeouts,
}

impl Count {
    /// Export names, in slot order.
    const NAMES: [&'static str; 11] = [
        "requests",
        "embeds",
        "simulates",
        "sim_memo_hits",
        "inline_replies",
        "stats_requests",
        "health_requests",
        "overloaded",
        "errors",
        "deadline_rejects",
        "io_timeouts",
    ];
}

/// All metrics one daemon accumulates over its lifetime.
pub struct ServerMetrics {
    counts: [AtomicU64; Count::NAMES.len()],
    latency_us: Mutex<Histogram>,
    /// Embed-construction latency on cache hits (the lookup).
    embed_hit_us: Mutex<Histogram>,
    /// Embed-construction latency on cache misses (full Theorem-1 build).
    embed_miss_us: Mutex<Histogram>,
    queue_depth: Mutex<Histogram>,
    /// Engine events of every `Simulate` reply served, whether its
    /// workloads ran or came from the cache's slots.
    pub sim: AtomicCounters,
}

impl ServerMetrics {
    /// The start of every Prometheus series name the daemon exports.
    pub const PREFIX: &'static str = "xtree_server_";

    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        ServerMetrics {
            counts: Default::default(),
            latency_us: Mutex::new(Histogram::pow2(LATENCY_BUCKETS)),
            embed_hit_us: Mutex::new(Histogram::pow2(LATENCY_BUCKETS)),
            embed_miss_us: Mutex::new(Histogram::pow2(LATENCY_BUCKETS)),
            queue_depth: Mutex::new(Histogram::new(QUEUE_DEPTH_BOUNDS)),
            sim: AtomicCounters::new(),
        }
    }

    /// Adds one to counter `c`: a relaxed add on a fixed slot.
    pub fn count(&self, c: Count) {
        self.counts[c as usize].fetch_add(1, Relaxed);
    }

    /// Counter `c`'s value so far.
    pub fn get(&self, c: Count) -> u64 {
        self.counts[c as usize].load(Relaxed)
    }

    /// Records one answered `Embed`/`Simulate`'s latency in microseconds,
    /// from admission to reply: the warm half for an inline reply, plus
    /// queue wait and the cold half for a queued one.
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

    /// A wire-ready snapshot, pulling cache and queue state from their
    /// owners.
    pub fn snapshot(&self, cache: &EmbeddingCache, queue_depth: usize) -> WireStats {
        let lat = self.latency_us.lock().expect("latency poisoned");
        let sim = self.sim.snapshot();
        WireStats {
            requests: self.get(Count::Requests),
            embeds: self.get(Count::Embeds),
            simulates: self.get(Count::Simulates),
            overloaded: self.get(Count::Overloaded),
            errors: self.get(Count::Errors),
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

    /// The daemon's metric families: every [`Count`], the cache and
    /// simulation totals, the cache-size and queue-depth gauges, and the
    /// four histograms.
    pub fn families(&self, cache: &EmbeddingCache, queue_depth: usize) -> Vec<Family> {
        let sim = self.sim.snapshot();
        let hist = |name, h: &Mutex<Histogram>| {
            Family::Histogram(name, h.lock().expect("histogram poisoned").clone())
        };
        Count::NAMES
            .iter()
            .zip(&self.counts)
            .map(|(&name, c)| Family::Counter(name, c.load(Relaxed)))
            .chain([
                Family::Counter("cache_hits", cache.hits()),
                Family::Counter("cache_misses", cache.misses()),
                Family::Counter("sim_hops", sim.hops),
                Family::Counter("sim_delivered", sim.delivered),
                Family::Gauge("cache_entries", cache.entries() as u64),
                Family::Gauge("queue_depth", queue_depth as u64),
                hist("request_latency_us", &self.latency_us),
                hist("embed_hit_latency_us", &self.embed_hit_us),
                hist("embed_miss_latency_us", &self.embed_miss_us),
                hist("queue_depth_observed", &self.queue_depth),
            ])
            .collect()
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
    use xtree_telemetry::Format;

    fn render(m: &ServerMetrics, f: Format) -> String {
        f.render(
            ServerMetrics::PREFIX,
            &m.families(&EmbeddingCache::new(8), 0),
        )
    }

    #[test]
    fn snapshot_reflects_counts_and_percentiles() {
        let m = ServerMetrics::new();
        let cache = EmbeddingCache::new(8);
        m.count(Count::Requests);
        m.count(Count::Requests);
        m.count(Count::Embeds);
        m.count(Count::Overloaded);
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
        m.count(Count::Requests);
        m.observe_latency_us(50);
        m.observe_queue_depth(2);
        let prom = render(&m, Format::Prom);
        assert!(prom.contains("xtree_server_requests_total 1"), "{prom}");
        assert!(
            prom.contains("# TYPE xtree_server_request_latency_us histogram"),
            "{prom}"
        );
        assert!(prom.contains("xtree_server_request_latency_us_count 1"));
        assert!(prom.contains("xtree_server_queue_depth 0"));
        let jsonl = render(&m, Format::Jsonl);
        for line in jsonl.lines() {
            assert!(xtree_json::from_str(line).is_ok(), "bad JSONL: {line}");
        }
        assert!(jsonl.contains("\"name\":\"request_latency_us\""));
        assert!(jsonl.contains("\"name\":\"queue_depth_observed\""));
    }

    #[test]
    fn embed_latency_splits_by_cache_outcome() {
        let m = ServerMetrics::new();
        m.observe_embed_us(30, true);
        m.observe_embed_us(5000, false);
        m.observe_embed_us(7000, false);
        let prom = render(&m, Format::Prom);
        assert!(
            prom.contains("xtree_server_embed_hit_latency_us_count 1"),
            "{prom}"
        );
        assert!(
            prom.contains("xtree_server_embed_miss_latency_us_count 2"),
            "{prom}"
        );
        let jsonl = render(&m, Format::Jsonl);
        assert!(jsonl.contains("\"name\":\"embed_hit_latency_us\""));
        assert!(jsonl.contains("\"name\":\"embed_miss_latency_us\""));
    }

    #[test]
    fn name_table_matches_the_enum() {
        // Each counter a different number of times: a name listed out of
        // order exports another counter's value.
        let expect = [
            (Count::Requests, "requests"),
            (Count::Embeds, "embeds"),
            (Count::Simulates, "simulates"),
            (Count::SimMemoHits, "sim_memo_hits"),
            (Count::InlineReplies, "inline_replies"),
            (Count::StatsRequests, "stats_requests"),
            (Count::HealthRequests, "health_requests"),
            (Count::Overloaded, "overloaded"),
            (Count::Errors, "errors"),
            (Count::DeadlineRejects, "deadline_rejects"),
            (Count::IoTimeouts, "io_timeouts"),
        ];
        assert_eq!(expect.len(), Count::NAMES.len());
        let m = ServerMetrics::new();
        for (k, &(c, _)) in expect.iter().enumerate() {
            (0..=k).for_each(|_| m.count(c));
        }
        let (prom, jsonl) = (render(&m, Format::Prom), render(&m, Format::Jsonl));
        let counters = xtree_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        for (k, &(c, name)) in expect.iter().enumerate() {
            let v = k + 1;
            assert_eq!(m.get(c), v as u64);
            assert!(prom.contains(&format!("\nxtree_server_{name}_total {v}\n")));
            assert_eq!(counters[name].as_u64(), Some(v as u64), "{name}");
        }
    }
}
