//! Golden Prometheus text of the daemon's [`ServerMetrics`] and the
//! router's [`ClusterMetrics`]: fixed inputs in, exact bytes out. A
//! change to either text is a change of the exported contract.

use std::sync::Arc;
use xtree_core::XEmbedding;
use xtree_server::{
    ClusterCount, ClusterMetrics, Count, EmbeddingCache, EmbeddingKey, ServerMetrics, ShardCount,
};
use xtree_telemetry::{Counters, Format};

fn key(seed: u64) -> EmbeddingKey {
    EmbeddingKey {
        family: 0,
        nodes: 16,
        seed,
        theorem: 1,
        host: 0,
    }
}

#[test]
fn server_prometheus_text_is_golden() {
    let m = ServerMetrics::new();
    let counts = [
        (Count::Requests, 9),
        (Count::Embeds, 2),
        (Count::Simulates, 3),
        (Count::SimMemoHits, 10),
        (Count::InlineReplies, 13),
        (Count::StatsRequests, 4),
        (Count::HealthRequests, 5),
        (Count::Overloaded, 6),
        (Count::Errors, 7),
        (Count::DeadlineRejects, 8),
        (Count::IoTimeouts, 1),
    ];
    for (c, n) in counts {
        (0..n).for_each(|_| m.count(c));
    }
    for us in [100, 200, 400, 800, 1 << 30] {
        m.observe_latency_us(us);
    }
    m.observe_embed_us(30, true);
    m.observe_embed_us(5000, false);
    m.observe_embed_us(7000, false);
    for depth in [0, 2, 3, 2000] {
        m.observe_queue_depth(depth);
    }
    m.sim.add(&Counters {
        hops: 11,
        delivered: 12,
        ..Counters::default()
    });
    let cache = EmbeddingCache::new(64);
    let emb = Arc::new(XEmbedding {
        height: 1,
        map: vec![0],
    });
    cache.insert(key(1), Arc::clone(&emb));
    cache.insert(key(2), emb);
    for seed in [1, 1, 2, 3, 4, 5, 6] {
        cache.get(&key(seed));
    }
    let families = m.families(&cache, 5);
    assert_eq!(
        Format::Prom.render(ServerMetrics::PREFIX, &families),
        SERVER_GOLDEN
    );
}

#[test]
fn cluster_prometheus_text_is_golden() {
    let m = ClusterMetrics::new(3);
    for shard in 0..3u16 {
        for _ in 0..=shard {
            m.count_shard(ShardCount::Routed, shard);
        }
    }
    m.count_shard(ShardCount::Failed, 2);
    m.count_shard(ShardCount::Timeouts, 1);
    m.count_shard(ShardCount::Replayed, 0);
    m.count_shard(ShardCount::Replayed, 0);
    let counts = [
        (ClusterCount::Requests, 4),
        (ClusterCount::Unreachable, 1),
        (ClusterCount::Exhausted, 2),
        (ClusterCount::DeadlineRejects, 3),
        (ClusterCount::Restarts, 5),
    ];
    for (c, n) in counts {
        (0..n).for_each(|_| m.count(c));
    }
    m.add(ClusterCount::WarmupKeys, 6);
    m.observe_failover_us(1500);
    m.observe_failover_us(1 << 28);
    let families = m.families();
    assert_eq!(
        Format::Prom.render(ClusterMetrics::PREFIX, &families),
        CLUSTER_GOLDEN
    );
}

const SERVER_GOLDEN: &str = r#"# TYPE xtree_server_requests_total counter
xtree_server_requests_total 9
# TYPE xtree_server_embeds_total counter
xtree_server_embeds_total 2
# TYPE xtree_server_simulates_total counter
xtree_server_simulates_total 3
# TYPE xtree_server_sim_memo_hits_total counter
xtree_server_sim_memo_hits_total 10
# TYPE xtree_server_inline_replies_total counter
xtree_server_inline_replies_total 13
# TYPE xtree_server_stats_requests_total counter
xtree_server_stats_requests_total 4
# TYPE xtree_server_health_requests_total counter
xtree_server_health_requests_total 5
# TYPE xtree_server_overloaded_total counter
xtree_server_overloaded_total 6
# TYPE xtree_server_errors_total counter
xtree_server_errors_total 7
# TYPE xtree_server_deadline_rejects_total counter
xtree_server_deadline_rejects_total 8
# TYPE xtree_server_io_timeouts_total counter
xtree_server_io_timeouts_total 1
# TYPE xtree_server_cache_hits_total counter
xtree_server_cache_hits_total 3
# TYPE xtree_server_cache_misses_total counter
xtree_server_cache_misses_total 4
# TYPE xtree_server_sim_hops_total counter
xtree_server_sim_hops_total 11
# TYPE xtree_server_sim_delivered_total counter
xtree_server_sim_delivered_total 12
# TYPE xtree_server_cache_entries gauge
xtree_server_cache_entries 2
# TYPE xtree_server_queue_depth gauge
xtree_server_queue_depth 5
# TYPE xtree_server_request_latency_us histogram
xtree_server_request_latency_us_bucket{le="1"} 0
xtree_server_request_latency_us_bucket{le="2"} 0
xtree_server_request_latency_us_bucket{le="4"} 0
xtree_server_request_latency_us_bucket{le="8"} 0
xtree_server_request_latency_us_bucket{le="16"} 0
xtree_server_request_latency_us_bucket{le="32"} 0
xtree_server_request_latency_us_bucket{le="64"} 0
xtree_server_request_latency_us_bucket{le="128"} 1
xtree_server_request_latency_us_bucket{le="256"} 2
xtree_server_request_latency_us_bucket{le="512"} 3
xtree_server_request_latency_us_bucket{le="1024"} 4
xtree_server_request_latency_us_bucket{le="2048"} 4
xtree_server_request_latency_us_bucket{le="4096"} 4
xtree_server_request_latency_us_bucket{le="8192"} 4
xtree_server_request_latency_us_bucket{le="16384"} 4
xtree_server_request_latency_us_bucket{le="32768"} 4
xtree_server_request_latency_us_bucket{le="65536"} 4
xtree_server_request_latency_us_bucket{le="131072"} 4
xtree_server_request_latency_us_bucket{le="262144"} 4
xtree_server_request_latency_us_bucket{le="524288"} 4
xtree_server_request_latency_us_bucket{le="1048576"} 4
xtree_server_request_latency_us_bucket{le="2097152"} 4
xtree_server_request_latency_us_bucket{le="4194304"} 4
xtree_server_request_latency_us_bucket{le="8388608"} 4
xtree_server_request_latency_us_bucket{le="16777216"} 4
xtree_server_request_latency_us_bucket{le="33554432"} 4
xtree_server_request_latency_us_bucket{le="67108864"} 4
xtree_server_request_latency_us_bucket{le="134217728"} 4
xtree_server_request_latency_us_bucket{le="+Inf"} 5
xtree_server_request_latency_us_sum 1073743324
xtree_server_request_latency_us_count 5
# TYPE xtree_server_embed_hit_latency_us histogram
xtree_server_embed_hit_latency_us_bucket{le="1"} 0
xtree_server_embed_hit_latency_us_bucket{le="2"} 0
xtree_server_embed_hit_latency_us_bucket{le="4"} 0
xtree_server_embed_hit_latency_us_bucket{le="8"} 0
xtree_server_embed_hit_latency_us_bucket{le="16"} 0
xtree_server_embed_hit_latency_us_bucket{le="32"} 1
xtree_server_embed_hit_latency_us_bucket{le="64"} 1
xtree_server_embed_hit_latency_us_bucket{le="128"} 1
xtree_server_embed_hit_latency_us_bucket{le="256"} 1
xtree_server_embed_hit_latency_us_bucket{le="512"} 1
xtree_server_embed_hit_latency_us_bucket{le="1024"} 1
xtree_server_embed_hit_latency_us_bucket{le="2048"} 1
xtree_server_embed_hit_latency_us_bucket{le="4096"} 1
xtree_server_embed_hit_latency_us_bucket{le="8192"} 1
xtree_server_embed_hit_latency_us_bucket{le="16384"} 1
xtree_server_embed_hit_latency_us_bucket{le="32768"} 1
xtree_server_embed_hit_latency_us_bucket{le="65536"} 1
xtree_server_embed_hit_latency_us_bucket{le="131072"} 1
xtree_server_embed_hit_latency_us_bucket{le="262144"} 1
xtree_server_embed_hit_latency_us_bucket{le="524288"} 1
xtree_server_embed_hit_latency_us_bucket{le="1048576"} 1
xtree_server_embed_hit_latency_us_bucket{le="2097152"} 1
xtree_server_embed_hit_latency_us_bucket{le="4194304"} 1
xtree_server_embed_hit_latency_us_bucket{le="8388608"} 1
xtree_server_embed_hit_latency_us_bucket{le="16777216"} 1
xtree_server_embed_hit_latency_us_bucket{le="33554432"} 1
xtree_server_embed_hit_latency_us_bucket{le="67108864"} 1
xtree_server_embed_hit_latency_us_bucket{le="134217728"} 1
xtree_server_embed_hit_latency_us_bucket{le="+Inf"} 1
xtree_server_embed_hit_latency_us_sum 30
xtree_server_embed_hit_latency_us_count 1
# TYPE xtree_server_embed_miss_latency_us histogram
xtree_server_embed_miss_latency_us_bucket{le="1"} 0
xtree_server_embed_miss_latency_us_bucket{le="2"} 0
xtree_server_embed_miss_latency_us_bucket{le="4"} 0
xtree_server_embed_miss_latency_us_bucket{le="8"} 0
xtree_server_embed_miss_latency_us_bucket{le="16"} 0
xtree_server_embed_miss_latency_us_bucket{le="32"} 0
xtree_server_embed_miss_latency_us_bucket{le="64"} 0
xtree_server_embed_miss_latency_us_bucket{le="128"} 0
xtree_server_embed_miss_latency_us_bucket{le="256"} 0
xtree_server_embed_miss_latency_us_bucket{le="512"} 0
xtree_server_embed_miss_latency_us_bucket{le="1024"} 0
xtree_server_embed_miss_latency_us_bucket{le="2048"} 0
xtree_server_embed_miss_latency_us_bucket{le="4096"} 0
xtree_server_embed_miss_latency_us_bucket{le="8192"} 2
xtree_server_embed_miss_latency_us_bucket{le="16384"} 2
xtree_server_embed_miss_latency_us_bucket{le="32768"} 2
xtree_server_embed_miss_latency_us_bucket{le="65536"} 2
xtree_server_embed_miss_latency_us_bucket{le="131072"} 2
xtree_server_embed_miss_latency_us_bucket{le="262144"} 2
xtree_server_embed_miss_latency_us_bucket{le="524288"} 2
xtree_server_embed_miss_latency_us_bucket{le="1048576"} 2
xtree_server_embed_miss_latency_us_bucket{le="2097152"} 2
xtree_server_embed_miss_latency_us_bucket{le="4194304"} 2
xtree_server_embed_miss_latency_us_bucket{le="8388608"} 2
xtree_server_embed_miss_latency_us_bucket{le="16777216"} 2
xtree_server_embed_miss_latency_us_bucket{le="33554432"} 2
xtree_server_embed_miss_latency_us_bucket{le="67108864"} 2
xtree_server_embed_miss_latency_us_bucket{le="134217728"} 2
xtree_server_embed_miss_latency_us_bucket{le="+Inf"} 2
xtree_server_embed_miss_latency_us_sum 12000
xtree_server_embed_miss_latency_us_count 2
# TYPE xtree_server_queue_depth_observed histogram
xtree_server_queue_depth_observed_bucket{le="0"} 1
xtree_server_queue_depth_observed_bucket{le="1"} 1
xtree_server_queue_depth_observed_bucket{le="2"} 2
xtree_server_queue_depth_observed_bucket{le="4"} 3
xtree_server_queue_depth_observed_bucket{le="8"} 3
xtree_server_queue_depth_observed_bucket{le="16"} 3
xtree_server_queue_depth_observed_bucket{le="32"} 3
xtree_server_queue_depth_observed_bucket{le="64"} 3
xtree_server_queue_depth_observed_bucket{le="128"} 3
xtree_server_queue_depth_observed_bucket{le="256"} 3
xtree_server_queue_depth_observed_bucket{le="512"} 3
xtree_server_queue_depth_observed_bucket{le="1024"} 3
xtree_server_queue_depth_observed_bucket{le="+Inf"} 4
xtree_server_queue_depth_observed_sum 2005
xtree_server_queue_depth_observed_count 4
"#;

const CLUSTER_GOLDEN: &str = r#"# TYPE xtree_cluster_routed_total counter
xtree_cluster_routed_total{shard="0"} 1
xtree_cluster_routed_total{shard="1"} 2
xtree_cluster_routed_total{shard="2"} 3
# TYPE xtree_cluster_failed_total counter
xtree_cluster_failed_total{shard="0"} 0
xtree_cluster_failed_total{shard="1"} 0
xtree_cluster_failed_total{shard="2"} 1
# TYPE xtree_cluster_timeouts_total counter
xtree_cluster_timeouts_total{shard="0"} 0
xtree_cluster_timeouts_total{shard="1"} 1
xtree_cluster_timeouts_total{shard="2"} 0
# TYPE xtree_cluster_replayed_total counter
xtree_cluster_replayed_total{shard="0"} 2
xtree_cluster_replayed_total{shard="1"} 0
xtree_cluster_replayed_total{shard="2"} 0
# TYPE xtree_cluster_requests_total counter
xtree_cluster_requests_total 4
# TYPE xtree_cluster_unreachable_total counter
xtree_cluster_unreachable_total 1
# TYPE xtree_cluster_exhausted_total counter
xtree_cluster_exhausted_total 2
# TYPE xtree_cluster_deadline_rejects_total counter
xtree_cluster_deadline_rejects_total 3
# TYPE xtree_cluster_restarts_total counter
xtree_cluster_restarts_total 5
# TYPE xtree_cluster_warmup_keys_total counter
xtree_cluster_warmup_keys_total 6
# TYPE xtree_cluster_failover_latency_us histogram
xtree_cluster_failover_latency_us_bucket{le="1"} 0
xtree_cluster_failover_latency_us_bucket{le="2"} 0
xtree_cluster_failover_latency_us_bucket{le="4"} 0
xtree_cluster_failover_latency_us_bucket{le="8"} 0
xtree_cluster_failover_latency_us_bucket{le="16"} 0
xtree_cluster_failover_latency_us_bucket{le="32"} 0
xtree_cluster_failover_latency_us_bucket{le="64"} 0
xtree_cluster_failover_latency_us_bucket{le="128"} 0
xtree_cluster_failover_latency_us_bucket{le="256"} 0
xtree_cluster_failover_latency_us_bucket{le="512"} 0
xtree_cluster_failover_latency_us_bucket{le="1024"} 0
xtree_cluster_failover_latency_us_bucket{le="2048"} 1
xtree_cluster_failover_latency_us_bucket{le="4096"} 1
xtree_cluster_failover_latency_us_bucket{le="8192"} 1
xtree_cluster_failover_latency_us_bucket{le="16384"} 1
xtree_cluster_failover_latency_us_bucket{le="32768"} 1
xtree_cluster_failover_latency_us_bucket{le="65536"} 1
xtree_cluster_failover_latency_us_bucket{le="131072"} 1
xtree_cluster_failover_latency_us_bucket{le="262144"} 1
xtree_cluster_failover_latency_us_bucket{le="524288"} 1
xtree_cluster_failover_latency_us_bucket{le="1048576"} 1
xtree_cluster_failover_latency_us_bucket{le="2097152"} 1
xtree_cluster_failover_latency_us_bucket{le="4194304"} 1
xtree_cluster_failover_latency_us_bucket{le="8388608"} 1
xtree_cluster_failover_latency_us_bucket{le="16777216"} 1
xtree_cluster_failover_latency_us_bucket{le="33554432"} 1
xtree_cluster_failover_latency_us_bucket{le="67108864"} 1
xtree_cluster_failover_latency_us_bucket{le="134217728"} 1
xtree_cluster_failover_latency_us_bucket{le="+Inf"} 2
xtree_cluster_failover_latency_us_sum 268436956
xtree_cluster_failover_latency_us_count 2
"#;
