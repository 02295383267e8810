//! Golden Prometheus text of the simulation's [`MetricsSink`]: fixed
//! events in, exact bytes out. CI greps `xtree_sim_*` lines from this
//! text, so any change to it is a change of the exported contract.

use xtree_telemetry::{Event, Format, MetricsSink, Sink};

/// Every event kind a different number of times (1 batch, 20 hops, then
/// 3, 4, …, 11 of the rest), so a value exported under another counter's
/// name shows. The hops cover 19 edges, more than the 16-edge cap.
fn sink() -> MetricsSink {
    let mut m = MetricsSink::new();
    m.record(Event::BatchStarted { messages: 4 });
    for i in 0..20u32 {
        let cycle = 1 + u64::from(i / 4);
        m.record(Event::HopTaken {
            cycle,
            msg: i % 4,
            from: 0,
            to: 1,
            edge: i * 7 % 19,
        });
        if i % 7 == 0 {
            m.record(Event::LinkContended {
                cycle,
                edge: i * 7 % 19,
                msg: 1,
                winner: 0,
            });
        }
    }
    for cycle in [5, 5, 90, 70_000] {
        m.record(Event::MessageDelivered {
            cycle,
            msg: 0,
            at: 1,
        });
    }
    let rest = [
        Event::FaultApplied {
            cycle: 2,
            down_links: 1,
            down_nodes: 0,
        },
        Event::RerouteComputed {
            cycle: 2,
            messages: 1,
        },
        Event::WatchdogIdle {
            cycle: 10,
            skipped: 3,
        },
        Event::RecoveryAttempt {
            attempt: 1,
            backoff: 4,
            requeued: 1,
        },
        Event::MessageRequeued {
            attempt: 1,
            msg: 1,
            src: 2,
            dst: 3,
        },
        Event::EmbeddingRepaired {
            migrated: 3,
            max_load: 2,
            dilation: 4,
        },
        Event::CheckpointWritten { bytes: 99 },
    ];
    for (k, ev) in rest.into_iter().enumerate() {
        for _ in 0..k + 5 {
            m.record(ev);
        }
    }
    m.finish();
    m
}

#[test]
fn sim_prometheus_text_is_golden() {
    let m = sink();
    assert_eq!(
        Format::Prom.render(MetricsSink::PREFIX, &m.families()),
        GOLDEN
    );
}

const GOLDEN: &str = r#"# TYPE xtree_sim_batches_total counter
xtree_sim_batches_total 1
# TYPE xtree_sim_hops_total counter
xtree_sim_hops_total 20
# TYPE xtree_sim_contentions_total counter
xtree_sim_contentions_total 3
# TYPE xtree_sim_delivered_total counter
xtree_sim_delivered_total 4
# TYPE xtree_sim_faults_applied_total counter
xtree_sim_faults_applied_total 5
# TYPE xtree_sim_reroutes_total counter
xtree_sim_reroutes_total 6
# TYPE xtree_sim_idle_jumps_total counter
xtree_sim_idle_jumps_total 7
# TYPE xtree_sim_idle_cycles_skipped_total counter
xtree_sim_idle_cycles_skipped_total 21
# TYPE xtree_sim_recovery_attempts_total counter
xtree_sim_recovery_attempts_total 8
# TYPE xtree_sim_requeues_total counter
xtree_sim_requeues_total 9
# TYPE xtree_sim_repairs_total counter
xtree_sim_repairs_total 10
# TYPE xtree_sim_checkpoints_total counter
xtree_sim_checkpoints_total 11
# TYPE xtree_sim_queue_depth histogram
xtree_sim_queue_depth_bucket{le="0"} 4
xtree_sim_queue_depth_bucket{le="1"} 7
xtree_sim_queue_depth_bucket{le="2"} 7
xtree_sim_queue_depth_bucket{le="4"} 7
xtree_sim_queue_depth_bucket{le="8"} 7
xtree_sim_queue_depth_bucket{le="16"} 7
xtree_sim_queue_depth_bucket{le="32"} 7
xtree_sim_queue_depth_bucket{le="64"} 7
xtree_sim_queue_depth_bucket{le="128"} 7
xtree_sim_queue_depth_bucket{le="256"} 7
xtree_sim_queue_depth_bucket{le="512"} 7
xtree_sim_queue_depth_bucket{le="1024"} 7
xtree_sim_queue_depth_bucket{le="+Inf"} 7
xtree_sim_queue_depth_sum 3
xtree_sim_queue_depth_count 7
# TYPE xtree_sim_message_latency_cycles histogram
xtree_sim_message_latency_cycles_bucket{le="1"} 0
xtree_sim_message_latency_cycles_bucket{le="2"} 0
xtree_sim_message_latency_cycles_bucket{le="4"} 0
xtree_sim_message_latency_cycles_bucket{le="8"} 2
xtree_sim_message_latency_cycles_bucket{le="16"} 2
xtree_sim_message_latency_cycles_bucket{le="32"} 2
xtree_sim_message_latency_cycles_bucket{le="64"} 2
xtree_sim_message_latency_cycles_bucket{le="128"} 3
xtree_sim_message_latency_cycles_bucket{le="256"} 3
xtree_sim_message_latency_cycles_bucket{le="512"} 3
xtree_sim_message_latency_cycles_bucket{le="1024"} 3
xtree_sim_message_latency_cycles_bucket{le="2048"} 3
xtree_sim_message_latency_cycles_bucket{le="4096"} 3
xtree_sim_message_latency_cycles_bucket{le="8192"} 3
xtree_sim_message_latency_cycles_bucket{le="16384"} 3
xtree_sim_message_latency_cycles_bucket{le="32768"} 3
xtree_sim_message_latency_cycles_bucket{le="65536"} 3
xtree_sim_message_latency_cycles_bucket{le="+Inf"} 4
xtree_sim_message_latency_cycles_sum 70100
xtree_sim_message_latency_cycles_count 4
# TYPE xtree_sim_edge_utilization_hops histogram
xtree_sim_edge_utilization_hops_bucket{le="1"} 18
xtree_sim_edge_utilization_hops_bucket{le="2"} 19
xtree_sim_edge_utilization_hops_bucket{le="4"} 19
xtree_sim_edge_utilization_hops_bucket{le="8"} 19
xtree_sim_edge_utilization_hops_bucket{le="16"} 19
xtree_sim_edge_utilization_hops_bucket{le="32"} 19
xtree_sim_edge_utilization_hops_bucket{le="64"} 19
xtree_sim_edge_utilization_hops_bucket{le="128"} 19
xtree_sim_edge_utilization_hops_bucket{le="256"} 19
xtree_sim_edge_utilization_hops_bucket{le="512"} 19
xtree_sim_edge_utilization_hops_bucket{le="1024"} 19
xtree_sim_edge_utilization_hops_bucket{le="2048"} 19
xtree_sim_edge_utilization_hops_bucket{le="4096"} 19
xtree_sim_edge_utilization_hops_bucket{le="8192"} 19
xtree_sim_edge_utilization_hops_bucket{le="16384"} 19
xtree_sim_edge_utilization_hops_bucket{le="32768"} 19
xtree_sim_edge_utilization_hops_bucket{le="65536"} 19
xtree_sim_edge_utilization_hops_bucket{le="+Inf"} 19
xtree_sim_edge_utilization_hops_sum 20
xtree_sim_edge_utilization_hops_count 19
# TYPE xtree_sim_edge_hops_total counter
xtree_sim_edge_hops_total{edge="0"} 2
xtree_sim_edge_hops_total{edge="1"} 1
xtree_sim_edge_hops_total{edge="2"} 1
xtree_sim_edge_hops_total{edge="3"} 1
xtree_sim_edge_hops_total{edge="4"} 1
xtree_sim_edge_hops_total{edge="5"} 1
xtree_sim_edge_hops_total{edge="6"} 1
xtree_sim_edge_hops_total{edge="7"} 1
xtree_sim_edge_hops_total{edge="8"} 1
xtree_sim_edge_hops_total{edge="9"} 1
xtree_sim_edge_hops_total{edge="10"} 1
xtree_sim_edge_hops_total{edge="11"} 1
xtree_sim_edge_hops_total{edge="12"} 1
xtree_sim_edge_hops_total{edge="13"} 1
xtree_sim_edge_hops_total{edge="14"} 1
xtree_sim_edge_hops_total{edge="15"} 1
"#;
