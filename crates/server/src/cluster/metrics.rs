//! Router-side observability: who got routed where, what failed, what
//! was replayed, and how long failovers cost.
//!
//! Router-wide counters are one block of relaxed atomics indexed by
//! [`ClusterCount`]; per-shard counters are one such block per shard,
//! indexed by [`ShardCount`] (the roster is fixed at spawn, so no
//! locking). The failover histogram records end-to-end latency *only* for
//! requests that needed at least one replay — the tail the kill-a-shard
//! bench probe reads back. [`ClusterMetrics::families`] lists them for the
//! telemetry crate's one writer, with a `shard` label on the per-shard
//! families, so `xtree_cluster_*` series sit next to the `xtree_server_*`
//! ones in the same scrape.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use xtree_telemetry::{Family, Histogram};

/// Failover-latency buckets: pow-2 microseconds up to ~134 s.
const FAILOVER_BUCKETS: u32 = 28;

/// The router's own counters, one slot each in [`ClusterMetrics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterCount {
    /// Client requests accepted by the router, of any type.
    Requests,
    /// Requests failed with `Unreachable` (no live shard at any attempt).
    Unreachable,
    /// Requests failed with `Exhausted` (replay budget spent).
    Exhausted,
    /// Requests rejected with `ERR_DEADLINE` (client budget spent before
    /// a shard answered).
    DeadlineRejects,
    /// Shard processes the supervisor restarted.
    Restarts,
    /// Hot keys replayed into freshly restarted shards (cache warmup).
    WarmupKeys,
}

impl ClusterCount {
    /// Export names, in slot order.
    const NAMES: [&'static str; 6] = [
        "requests",
        "unreachable",
        "exhausted",
        "deadline_rejects",
        "restarts",
        "warmup_keys",
    ];
}

/// The counters the router keeps once per shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardCount {
    /// Forward attempts dispatched to the shard.
    Routed,
    /// Transport failures observed talking to the shard.
    Failed,
    /// The subset of failures that were socket deadlines (the shard held
    /// the connection but outran the budget) rather than disconnects.
    Timeouts,
    /// Re-dispatches after a failure, counted at the shard that
    /// *received* the replay.
    Replayed,
}

impl ShardCount {
    /// Export names, in slot order.
    const NAMES: [&'static str; 4] = ["routed", "failed", "timeouts", "replayed"];
}

/// All metrics one router accumulates over its lifetime.
pub struct ClusterMetrics {
    counts: [AtomicU64; ClusterCount::NAMES.len()],
    /// One counter block per shard.
    shards: Vec<[AtomicU64; ShardCount::NAMES.len()]>,
    /// End-to-end latency of requests that needed ≥ 1 replay.
    failover_us: Mutex<Histogram>,
}

impl ClusterMetrics {
    /// The start of every Prometheus series name the router exports.
    pub const PREFIX: &'static str = "xtree_cluster_";

    /// Fresh, zeroed metrics for a roster of `shards` shards.
    pub fn new(shards: usize) -> Self {
        ClusterMetrics {
            counts: Default::default(),
            shards: (0..shards).map(|_| Default::default()).collect(),
            failover_us: Mutex::new(Histogram::pow2(FAILOVER_BUCKETS)),
        }
    }

    /// Adds one to counter `c`.
    pub fn count(&self, c: ClusterCount) {
        self.add(c, 1);
    }

    /// Adds `n` to counter `c`: a relaxed add on a fixed slot.
    pub fn add(&self, c: ClusterCount, n: u64) {
        self.counts[c as usize].fetch_add(n, Relaxed);
    }

    /// Counter `c`'s value so far.
    pub fn get(&self, c: ClusterCount) -> u64 {
        self.counts[c as usize].load(Relaxed)
    }

    /// Adds one to `shard`'s counter `c`.
    pub fn count_shard(&self, c: ShardCount, shard: u16) {
        self.shards[usize::from(shard)][c as usize].fetch_add(1, Relaxed);
    }

    /// Counter `c` summed over every shard.
    pub fn total(&self, c: ShardCount) -> u64 {
        self.shards
            .iter()
            .map(|s| s[c as usize].load(Relaxed))
            .sum()
    }

    /// Records the end-to-end latency of a request that needed at least
    /// one replay.
    pub fn observe_failover_us(&self, us: u64) {
        self.failover_us
            .lock()
            .expect("failover poisoned")
            .observe(us);
    }

    /// A quantile (upper bucket bound, microseconds) of the
    /// failover-latency histogram, and how many failovers it summarises.
    pub fn failover_quantile_us(&self, q: f64) -> (u64, u64) {
        let h = self.failover_us.lock().expect("failover poisoned");
        (h.quantile(q), h.count())
    }

    /// The router's metric families: each [`ShardCount`] labelled by
    /// shard, every [`ClusterCount`], and the failover-latency histogram.
    pub fn families(&self) -> Vec<Family> {
        let per_shard = ShardCount::NAMES.iter().enumerate().map(|(i, &name)| {
            let values = self.shards.iter().map(|s| s[i].load(Relaxed));
            Family::Labelled(name, "shard", (0..).zip(values).collect())
        });
        let counts = ClusterCount::NAMES
            .iter()
            .zip(&self.counts)
            .map(|(&name, c)| Family::Counter(name, c.load(Relaxed)));
        let failover = self.failover_us.lock().expect("failover poisoned").clone();
        per_shard
            .chain(counts)
            .chain([Family::Histogram("failover_latency_us", failover)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_telemetry::Format;

    fn render(m: &ClusterMetrics, f: Format) -> String {
        f.render(ClusterMetrics::PREFIX, &m.families())
    }

    #[test]
    fn exports_render_per_shard_series() {
        let m = ClusterMetrics::new(2);
        m.count(ClusterCount::Requests);
        m.count_shard(ShardCount::Routed, 0);
        m.count_shard(ShardCount::Routed, 1);
        m.count_shard(ShardCount::Routed, 1);
        m.count_shard(ShardCount::Failed, 1);
        m.count_shard(ShardCount::Timeouts, 1);
        m.count_shard(ShardCount::Replayed, 0);
        m.count(ClusterCount::Restarts);
        m.count(ClusterCount::DeadlineRejects);
        m.add(ClusterCount::WarmupKeys, 3);
        m.observe_failover_us(1500);
        assert_eq!(m.total(ShardCount::Routed), 3);
        assert_eq!(m.total(ShardCount::Failed), 1);
        assert_eq!(m.total(ShardCount::Timeouts), 1);
        assert_eq!(m.total(ShardCount::Replayed), 1);
        assert_eq!(m.get(ClusterCount::DeadlineRejects), 1);
        assert_eq!(m.get(ClusterCount::WarmupKeys), 3);
        let prom = render(&m, Format::Prom);
        assert!(
            prom.contains("xtree_cluster_routed_total{shard=\"1\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("xtree_cluster_timeouts_total{shard=\"1\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("xtree_cluster_restarts_total 1"), "{prom}");
        assert!(prom.contains("xtree_cluster_warmup_keys_total 3"), "{prom}");
        assert!(
            prom.contains("# TYPE xtree_cluster_failover_latency_us histogram"),
            "{prom}"
        );
        let jsonl = render(&m, Format::Jsonl);
        for line in jsonl.lines() {
            assert!(xtree_json::from_str(line).is_ok(), "bad JSONL: {line}");
        }
        let replayed = r#""replayed":[{"shard":0,"count":1},{"shard":1,"count":0}]"#;
        assert!(jsonl.contains(replayed), "{jsonl}");
        let timeouts = r#""timeouts":[{"shard":0,"count":0},{"shard":1,"count":1}]"#;
        assert!(jsonl.contains(timeouts), "{jsonl}");
        assert!(jsonl.contains("\"deadline_rejects\":1"), "{jsonl}");
        assert!(jsonl.contains("\"name\":\"failover_latency_us\""));
    }

    #[test]
    fn name_tables_match_the_enums() {
        // Each counter a different number of times (and, per shard, a
        // different number again): a name listed out of order exports
        // another counter's value.
        let router = [
            (ClusterCount::Requests, "requests"),
            (ClusterCount::Unreachable, "unreachable"),
            (ClusterCount::Exhausted, "exhausted"),
            (ClusterCount::DeadlineRejects, "deadline_rejects"),
            (ClusterCount::Restarts, "restarts"),
            (ClusterCount::WarmupKeys, "warmup_keys"),
        ];
        let shard = [
            (ShardCount::Routed, "routed"),
            (ShardCount::Failed, "failed"),
            (ShardCount::Timeouts, "timeouts"),
            (ShardCount::Replayed, "replayed"),
        ];
        assert_eq!(router.len(), ClusterCount::NAMES.len());
        assert_eq!(shard.len(), ShardCount::NAMES.len());
        let m = ClusterMetrics::new(2);
        for (k, &(c, _)) in router.iter().enumerate() {
            (0..=k).for_each(|_| m.count(c));
        }
        // Counter k gets k + 1 on shard 0 and 10 (k + 1) on shard 1.
        for (k, &(c, _)) in shard.iter().enumerate() {
            (0..=k).for_each(|_| m.count_shard(c, 0));
            (0..10 * (k + 1)).for_each(|_| m.count_shard(c, 1));
        }
        let (prom, jsonl) = (render(&m, Format::Prom), render(&m, Format::Jsonl));
        let counters = xtree_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        for (k, &(c, name)) in router.iter().enumerate() {
            let v = k + 1;
            assert_eq!(m.get(c), v as u64);
            assert!(prom.contains(&format!("\nxtree_cluster_{name}_total {v}\n")));
            assert_eq!(counters[name].as_u64(), Some(v as u64), "{name}");
        }
        for (k, &(c, name)) in shard.iter().enumerate() {
            let (v0, v1) = (k + 1, 10 * (k + 1));
            assert_eq!(m.total(c), (v0 + v1) as u64);
            for (s, v) in [(0, v0), (1, v1)] {
                let line = format!("\nxtree_cluster_{name}_total{{shard=\"{s}\"}} {v}\n");
                assert!(prom.contains(&line), "{prom}");
            }
            let array = format!(
                "\"{name}\":[{{\"shard\":0,\"count\":{v0}}},{{\"shard\":1,\"count\":{v1}}}]"
            );
            assert!(jsonl.contains(&array), "{jsonl}");
        }
    }
}
