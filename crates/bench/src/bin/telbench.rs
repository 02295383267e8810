//! `telbench` — telemetry overhead record for the instrumented engine,
//! written to `results/BENCH_telemetry.json`.
//!
//! For each X-tree host it delivers the same seeded random batches through
//! five configurations of the cycle loop:
//!
//! * **baseline** — the pre-instrumentation flat-buffer loop, reproduced
//!   verbatim below (the same way `simbench` keeps `run_batch_legacy`), so
//!   the comparison is against code with no `Sink` parameter at all;
//! * **noop** — `Engine::run_batch`, i.e. the instrumented loop with
//!   [`NopSink`](xtree_sim::telemetry::NopSink): the number that must
//!   stay within ~2% of baseline,
//!   proving the statically-dispatched instrumentation compiles out;
//! * **counters** / **metrics** / **trace** — the loop paying for real
//!   sinks, so the cost of *enabled* telemetry is on record too.
//!
//! Modes are interleaved across repetitions and the per-mode minimum is
//! kept, which filters scheduler noise out of a percent-level comparison.
//!
//! Run with: `cargo run --release -p xtree-bench --bin telbench`
//! (`--smoke` sweeps two tiny hosts and skips the results file.)

use std::time::Instant;
use xtree_bench::seeded_batches;
use xtree_json::Value;
use xtree_sim::telemetry::{AtomicCounters, MetricsSink, TraceRecorder};
use xtree_sim::{Engine, Host, Message, SimError, XTreeHost};
use xtree_topology::Csr;

/// Acceptance threshold for the no-op sink: the instrumented loop may cost
/// at most this much over the pre-instrumentation baseline.
const NOOP_THRESHOLD_PCT: f64 = 2.0;

/// The fault-free engine exactly as it was before telemetry existed: the
/// same flat scratch buffers, epoch-stamped claims, and in-place
/// compaction, with no sink parameter anywhere.
#[derive(Default)]
struct Baseline {
    at: Vec<u32>,
    dst: Vec<u32>,
    active: Vec<u32>,
    hop_to: Vec<u32>,
    hop_edge: Vec<u32>,
    claim_msg: Vec<u32>,
    claim_epoch: Vec<u64>,
    epoch: u64,
    traffic: Vec<u32>,
    touched: Vec<u32>,
}

/// What both loops are compared on: enough totals to prove they did the
/// identical work.
#[derive(PartialEq, Eq, Debug, Default)]
struct Totals {
    cycles: u64,
    hops: u64,
}

impl Baseline {
    fn run_batch(&mut self, net: &XTreeHost, messages: &[Message]) -> Result<(u32, u64), SimError> {
        let graph: &Csr = net.csr();
        let links = graph.directed_edge_count();
        if self.claim_epoch.len() < links {
            self.claim_msg.resize(links, 0);
            self.claim_epoch.resize(links, 0);
            self.traffic.resize(links, 0);
        }
        self.at.clear();
        self.dst.clear();
        self.active.clear();
        if self.hop_to.len() < messages.len() {
            self.hop_to.resize(messages.len(), 0);
            self.hop_edge.resize(messages.len(), 0);
        }
        let mut ideal_cycles = 0u32;
        for (i, m) in messages.iter().enumerate() {
            self.at.push(m.src);
            self.dst.push(m.dst);
            if m.src != m.dst {
                self.active.push(i as u32);
                let to = net.next_hop(m.src, m.dst);
                self.hop_to[i] = to;
                self.hop_edge[i] = graph
                    .directed_edge_index(m.src, to)
                    .ok_or(SimError::RouterInvariant { at: m.src, to })?;
            }
            ideal_cycles = ideal_cycles.max(net.distance(m.src, m.dst));
        }
        let mut cycles = 0u32;
        let mut total_hops = 0u64;
        while !self.active.is_empty() {
            cycles += 1;
            if cycles > 4 * (ideal_cycles + 1) * (messages.len() as u32 + 1) {
                let undelivered = self.active.len();
                self.active.clear();
                for &e in &self.touched {
                    self.traffic[e as usize] = 0;
                }
                self.touched.clear();
                return Err(SimError::Diverged {
                    cycle: cycles,
                    undelivered,
                });
            }
            self.epoch += 1;
            for &i in &self.active {
                let e = self.hop_edge[i as usize] as usize;
                if self.claim_epoch[e] != self.epoch {
                    self.claim_epoch[e] = self.epoch;
                    self.claim_msg[e] = i;
                }
            }
            let mut w = 0usize;
            for k in 0..self.active.len() {
                let i = self.active[k];
                let e = self.hop_edge[i as usize] as usize;
                if self.claim_msg[e] == i {
                    let to = self.hop_to[i as usize];
                    self.at[i as usize] = to;
                    total_hops += 1;
                    if self.traffic[e] == 0 {
                        self.touched.push(e as u32);
                    }
                    self.traffic[e] += 1;
                    let dst = self.dst[i as usize];
                    if to == dst {
                        continue;
                    }
                    let next = net.next_hop(to, dst);
                    self.hop_to[i as usize] = next;
                    self.hop_edge[i as usize] = graph
                        .directed_edge_index(to, next)
                        .ok_or(SimError::RouterInvariant { at: to, to: next })?;
                }
                self.active[w] = i;
                w += 1;
            }
            self.active.truncate(w);
        }
        for &e in &self.touched {
            self.traffic[e as usize] = 0;
        }
        self.touched.clear();
        Ok((cycles, total_hops))
    }
}

/// Times one pass of `run` over every batch, returning elapsed seconds and
/// the accumulated totals.
fn time_pass(
    rounds: &[Vec<Message>],
    mut run: impl FnMut(&[Message]) -> (u32, u64),
) -> (f64, Totals) {
    let start = Instant::now();
    let mut t = Totals::default();
    for batch in rounds {
        let (cycles, hops) = run(batch);
        t.cycles += u64::from(cycles);
        t.hops += hops;
    }
    (start.elapsed().as_secs_f64().max(1e-9), t)
}

const MODES: [&str; 5] = ["baseline", "noop", "counters", "metrics", "trace"];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = xtree_bench::seed_from_args(0x5EED_7E1E);
    let heights: &[(u8, usize)] = if smoke {
        &[(5, 2), (6, 2)]
    } else {
        &[(8, 96), (9, 48), (10, 32), (11, 12), (12, 6)]
    };
    let reps = if smoke { 2 } else { 5 };
    let mut hosts = Vec::new();
    let mut x10_noop_overhead = None;
    for &(r, batches) in heights {
        let net = XTreeHost::new(r);
        let n = net.node_count();
        let per_batch = n / 2;
        let rounds = seeded_batches(seed, n as u64, batches, per_batch);

        let mut baseline = Baseline::default();
        let mut engine = Engine::new();
        let counters = AtomicCounters::new();
        let mut metrics = MetricsSink::new();
        let mut trace = TraceRecorder::new();
        // Warm every scratch buffer (and the trace's byte buffer) so the
        // timed passes all run in the steady state.
        baseline.run_batch(&net, &rounds[0]).expect("warmup");
        engine.run_batch(&net, &rounds[0]).expect("warmup");
        engine
            .run_batch_with(&net, &rounds[0], &mut trace)
            .expect("warmup");

        let mut best = [f64::INFINITY; MODES.len()];
        let mut reference: Option<Totals> = None;
        for _ in 0..reps {
            for (m, slot) in best.iter_mut().enumerate() {
                let (elapsed, totals) = match MODES[m] {
                    "baseline" => time_pass(&rounds, |b| baseline.run_batch(&net, b).unwrap()),
                    "noop" => time_pass(&rounds, |b| {
                        let s = engine.run_batch(&net, b).unwrap();
                        (s.cycles, s.total_hops)
                    }),
                    "counters" => time_pass(&rounds, |b| {
                        let mut sink = &counters;
                        let s = engine.run_batch_with(&net, b, &mut sink).unwrap();
                        (s.cycles, s.total_hops)
                    }),
                    "metrics" => time_pass(&rounds, |b| {
                        let s = engine.run_batch_with(&net, b, &mut metrics).unwrap();
                        (s.cycles, s.total_hops)
                    }),
                    _ => {
                        trace.clear();
                        time_pass(&rounds, |b| {
                            let s = engine.run_batch_with(&net, b, &mut trace).unwrap();
                            (s.cycles, s.total_hops)
                        })
                    }
                };
                // Every mode must do the identical work — a cheap guard
                // that instrumentation never perturbs the schedule.
                match &reference {
                    Some(t) => assert_eq!(t, &totals, "{} diverged", MODES[m]),
                    None => reference = Some(totals),
                }
                if elapsed < *slot {
                    *slot = elapsed;
                }
            }
        }

        let overhead = |m: usize| (best[m] - best[0]) / best[0] * 100.0;
        let mut modes = Value::object();
        for (m, name) in MODES.iter().enumerate().skip(1) {
            modes.set(
                name,
                Value::object()
                    .with("elapsed_ms", best[m] * 1e3)
                    .with("overhead_pct", overhead(m)),
            );
        }
        modes.set("trace_bytes_per_pass", trace.bytes().len());
        eprintln!(
            "X({r}): {n} vertices, {batches} batches x {per_batch} msgs — baseline {:.2} ms, \
             noop {:+.2}%, counters {:+.2}%, metrics {:+.2}%, trace {:+.2}%",
            best[0] * 1e3,
            overhead(1),
            overhead(2),
            overhead(3),
            overhead(4),
        );
        if r == 10 {
            x10_noop_overhead = Some(overhead(1));
        }
        hosts.push(
            Value::object()
                .with("host", format!("X({r})"))
                .with("vertices", n)
                .with("batches", batches)
                .with("messages_per_batch", per_batch)
                .with("baseline_ms", best[0] * 1e3)
                .with("modes", modes),
        );
    }
    let mut doc = Value::object()
        .with("bench", "telemetry-overhead")
        .with("seed", seed)
        .with(
            "workload",
            "seeded uniform-random batches; pre-instrumentation loop vs the Sink-parameterised \
             engine under no-op, counter, metrics, and trace sinks; min over interleaved reps",
        )
        .with("reps", reps)
        .with("hosts", Value::from(hosts));
    if let Some(pct) = x10_noop_overhead {
        doc.set(
            "acceptance",
            Value::object()
                .with("host", "X(10)")
                .with("noop_overhead_pct", pct)
                .with("threshold_pct", NOOP_THRESHOLD_PCT)
                .with("pass", pct <= NOOP_THRESHOLD_PCT),
        );
    }
    if !smoke {
        xtree_json::write_pretty_file("results/BENCH_telemetry.json", &doc)
            .expect("write BENCH_telemetry.json");
    }
    println!("{}", xtree_json::to_string_pretty(&doc));
    if let Some(pct) = x10_noop_overhead {
        assert!(
            pct <= NOOP_THRESHOLD_PCT,
            "no-op sink overhead {pct:.2}% exceeds {NOOP_THRESHOLD_PCT}% at X(10)"
        );
    }
}
