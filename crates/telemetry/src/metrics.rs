//! Live metrics: counters, per-edge utilization, and fixed-bucket
//! histograms, exported as [`Family`] values.

use crate::counters::Counters;
use crate::event::Event;
use crate::exposition::Family;
use crate::hist::Histogram;
use crate::sink::Sink;

/// Queue depth = messages that lost a link arbitration in one cycle.
const QUEUE_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
/// Message latency in batch-local cycles.
const LATENCY_BUCKETS: u32 = 17; // 1 … 65536, pow2
/// Hops carried by one directed edge over the run.
const EDGE_UTIL_BUCKETS: u32 = 17;

/// A [`Sink`] that aggregates the event stream into exportable metrics.
///
/// Call [`finish`](MetricsSink::finish) once the run is over (it flushes
/// the last cycle's queue-depth sample), then render
/// [`families`](MetricsSink::families) with a
/// [`Format`](crate::Format).
#[derive(Clone, Debug)]
pub struct MetricsSink {
    counters: Counters,
    /// Hops per directed edge, grown on demand.
    edge_hops: Vec<u64>,
    /// Blocked messages per traffic-carrying cycle.
    queue_depth: Histogram,
    /// Delivery cycle (batch-local) per delivered message.
    latency: Histogram,
    /// The cycle currently being accumulated, if any.
    cur_cycle: Option<u64>,
    cur_blocked: u64,
}

impl MetricsSink {
    /// The start of every Prometheus series name this sink exports.
    pub const PREFIX: &'static str = "xtree_sim_";
    /// How many of the busiest edges the `edge_hops` family lists.
    const EDGE_CAP: usize = 16;

    /// Fresh, empty metrics.
    pub fn new() -> Self {
        MetricsSink {
            counters: Counters::default(),
            edge_hops: Vec::new(),
            queue_depth: Histogram::new(QUEUE_DEPTH_BOUNDS),
            latency: Histogram::pow2(LATENCY_BUCKETS),
            cur_cycle: None,
            cur_blocked: 0,
        }
    }

    /// Total events observed.
    pub fn event_count(&self) -> u64 {
        self.counters.events()
    }

    /// The aggregated counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Hops per directed edge index.
    pub fn edge_hops(&self) -> &[u64] {
        &self.edge_hops
    }

    /// The queue-depth histogram (one sample per cycle that carried or
    /// blocked traffic).
    pub fn queue_depth(&self) -> &Histogram {
        &self.queue_depth
    }

    /// The message-latency histogram (batch-local delivery cycles).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Flushes the cycle still being accumulated. Idempotent; call after
    /// the last batch and before exporting.
    pub fn finish(&mut self) {
        if self.cur_cycle.take().is_some() {
            self.queue_depth.observe(self.cur_blocked);
            self.cur_blocked = 0;
        }
    }

    /// The `k` busiest directed edges as `(edge, hops)`, busiest first
    /// (ties to the lower edge index).
    pub fn hottest_edges(&self, k: usize) -> Vec<(u32, u64)> {
        let mut edges: Vec<(u32, u64)> = self
            .edge_hops
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h > 0)
            .map(|(e, &h)| (e as u32, h))
            .collect();
        edges.sort_by_key(|&(e, h)| (std::cmp::Reverse(h), e));
        edges.truncate(k);
        edges
    }

    /// Histogram over per-edge hop totals (edges that carried traffic).
    pub fn edge_utilization(&self) -> Histogram {
        let mut h = Histogram::pow2(EDGE_UTIL_BUCKETS);
        for &hops in self.edge_hops.iter().filter(|&&h| h > 0) {
            h.observe(hops);
        }
        h
    }

    fn roll_cycle(&mut self, cycle: u64) {
        if self.cur_cycle != Some(cycle) {
            if self.cur_cycle.is_some() {
                self.queue_depth.observe(self.cur_blocked);
            }
            self.cur_cycle = Some(cycle);
            self.cur_blocked = 0;
        }
    }

    /// The sink's metric families: the event counters, the three
    /// histograms, and hops per edge for the 16 busiest edges. Every edge
    /// is in the `edge_utilization_hops` histogram, and a trace records
    /// every hop.
    pub fn families(&self) -> Vec<Family> {
        let c = &self.counters;
        let counters = [
            ("batches", c.batches),
            ("hops", c.hops),
            ("contentions", c.contentions),
            ("delivered", c.delivered),
            ("faults_applied", c.faults_applied),
            ("reroutes", c.reroutes),
            ("idle_jumps", c.idle_jumps),
            ("idle_cycles_skipped", c.idle_cycles_skipped),
            ("recovery_attempts", c.recovery_attempts),
            ("requeues", c.requeues),
            ("repairs", c.repairs),
            ("checkpoints", c.checkpoints),
        ];
        let edges = self.hottest_edges(Self::EDGE_CAP);
        counters
            .into_iter()
            .map(|(name, v)| Family::Counter(name, v))
            .chain([
                Family::Histogram("queue_depth", self.queue_depth.clone()),
                Family::Histogram("message_latency_cycles", self.latency.clone()),
                Family::Histogram("edge_utilization_hops", self.edge_utilization()),
                Family::Labelled(
                    "edge_hops",
                    "edge",
                    edges.into_iter().map(|(e, h)| (u64::from(e), h)).collect(),
                ),
            ])
            .collect()
    }
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl Sink for MetricsSink {
    fn record(&mut self, ev: Event) {
        match ev {
            Event::BatchStarted { .. } => self.finish(),
            Event::HopTaken { cycle, edge, .. } => {
                self.roll_cycle(cycle);
                let e = edge as usize;
                if self.edge_hops.len() <= e {
                    self.edge_hops.resize(e + 1, 0);
                }
                self.edge_hops[e] += 1;
            }
            Event::LinkContended { cycle, .. } => {
                self.roll_cycle(cycle);
                self.cur_blocked += 1;
            }
            Event::MessageDelivered { cycle, .. } => {
                self.roll_cycle(cycle);
                self.latency.observe(cycle);
            }
            _ => {}
        }
        self.counters.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Format;
    use xtree_json::Value;

    fn hop(cycle: u64, msg: u32, edge: u32) -> Event {
        Event::HopTaken {
            cycle,
            msg,
            from: 0,
            to: 1,
            edge,
        }
    }

    #[test]
    fn aggregates_counters_edges_and_latency() {
        let mut m = MetricsSink::new();
        m.record(Event::BatchStarted { messages: 2 });
        m.record(hop(1, 0, 5));
        m.record(Event::LinkContended {
            cycle: 1,
            edge: 5,
            msg: 1,
            winner: 0,
        });
        m.record(hop(2, 0, 5));
        m.record(Event::MessageDelivered {
            cycle: 2,
            msg: 0,
            at: 1,
        });
        m.finish();
        assert_eq!(m.counters().hops, 2);
        assert_eq!(m.counters().contentions, 1);
        assert_eq!(m.counters().delivered, 1);
        assert_eq!(m.edge_hops()[5], 2);
        assert_eq!(m.hottest_edges(3), vec![(5, 2)]);
        // Two cycles sampled: cycle 1 had one blocked message, cycle 2 none.
        assert_eq!(m.queue_depth().count(), 2);
        assert_eq!(m.queue_depth().sum(), 1);
        assert_eq!(m.latency().count(), 1);
        assert_eq!(m.latency().sum(), 2);
        assert_eq!(m.event_count(), 5);
    }

    #[test]
    fn finish_is_idempotent_and_batch_start_flushes() {
        let mut m = MetricsSink::new();
        m.record(Event::BatchStarted { messages: 1 });
        m.record(hop(1, 0, 0));
        m.record(Event::BatchStarted { messages: 1 });
        m.record(hop(1, 0, 1));
        m.finish();
        m.finish();
        assert_eq!(m.queue_depth().count(), 2);
    }

    #[test]
    fn hottest_edges_orders_by_hops_then_index() {
        let mut m = MetricsSink::new();
        m.record(hop(1, 0, 3));
        m.record(hop(2, 0, 1));
        m.record(hop(3, 0, 3));
        m.record(hop(4, 0, 7));
        m.finish();
        assert_eq!(m.hottest_edges(2), vec![(3, 2), (1, 1)]);
        assert_eq!(m.hottest_edges(10).len(), 3);
    }

    #[test]
    fn exporters_render_all_sections() {
        let mut m = MetricsSink::new();
        m.record(Event::BatchStarted { messages: 1 });
        m.record(hop(1, 0, 2));
        m.record(Event::MessageDelivered {
            cycle: 1,
            msg: 0,
            at: 1,
        });
        m.finish();
        let jsonl = Format::Jsonl.render(MetricsSink::PREFIX, &m.families());
        let lines: Vec<Value> = jsonl
            .lines()
            .map(|line| xtree_json::from_str(line).expect("bad JSONL line"))
            .collect();
        // The counters record carries no `events` key, and the per-edge
        // hops are one labelled array.
        assert_eq!(
            jsonl.lines().next().unwrap(),
            "{\"type\":\"counters\",\"batches\":1,\"hops\":1,\"contentions\":0,\
             \"delivered\":1,\"faults_applied\":0,\"reroutes\":0,\"idle_jumps\":0,\
             \"idle_cycles_skipped\":0,\"recovery_attempts\":0,\"requeues\":0,\
             \"repairs\":0,\"checkpoints\":0,\"edge_hops\":[{\"edge\":2,\"count\":1}]}"
        );
        let names: Vec<&str> = lines[1..]
            .iter()
            .map(|v| v["name"].as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "queue_depth",
                "message_latency_cycles",
                "edge_utilization_hops"
            ]
        );
        let prom = Format::Prom.render(MetricsSink::PREFIX, &m.families());
        assert!(prom.contains("xtree_sim_hops_total 1"));
        assert!(prom.contains("xtree_sim_message_latency_cycles_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("xtree_sim_edge_hops_total{edge=\"2\"} 1"));
        // Both formats list only the busiest EDGE_CAP edges.
        for e in 10..40 {
            m.record(hop(2, 0, e));
        }
        let jsonl = Format::Jsonl.render(MetricsSink::PREFIX, &m.families());
        let counters: Value = xtree_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(counters["edge_hops"].as_array().unwrap().len(), 16);
        let prom = Format::Prom.render(MetricsSink::PREFIX, &m.families());
        assert_eq!(prom.matches("xtree_sim_edge_hops_total{").count(), 16);
        assert!(prom.contains("# TYPE xtree_sim_queue_depth histogram"));
    }
}
