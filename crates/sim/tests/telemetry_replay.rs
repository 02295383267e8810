//! Telemetry integration: deterministic replay and zero-impact sinks.
//!
//! Two guarantees are tested across random workloads and fault plans:
//!
//! 1. **Byte-identical replay** — running the same seeded workload twice
//!    (fault-free and faulted) records byte-for-byte identical binary
//!    traces, and the trace decodes back to a well-formed event stream
//!    whose hop/delivery counts match the engine's own statistics.
//! 2. **Observer effect is zero** — attaching any sink (or none) leaves
//!    the `BatchStats`/`BatchOutcome` bit-identical to the uninstrumented
//!    run: telemetry observes the schedule, it never perturbs it.

use proptest::prelude::*;
use xtree_sim::telemetry::{read_trace, Event, MetricsSink, Tee, TraceRecorder};
use xtree_sim::{Engine, FaultPlan, FaultState, Host, Message, TableHost, XTreeHost};
use xtree_topology::XTree;

fn messages(n: u32, picks: &[(u32, u32)]) -> Vec<Message> {
    picks
        .iter()
        .map(|&(a, b)| Message {
            src: a % n,
            dst: b % n,
        })
        .collect()
}

/// One faulted run from a fresh engine + fresh fault state, recording
/// into a fresh trace; returns the trace plus outcome.
fn traced_faulted_run(
    net: &impl Host,
    msgs: &[Message],
    plan: &FaultPlan,
) -> (TraceRecorder, xtree_sim::BatchOutcome) {
    let mut rec = TraceRecorder::new();
    let mut faults = FaultState::new(net.csr(), plan.clone()).unwrap();
    let out = Engine::new()
        .run_batch_faulted_with(net, msgs, &mut faults, &mut rec)
        .unwrap();
    (rec, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fault_free_replay_is_byte_identical(
        size in 2u8..=4,
        msg_picks in prop::collection::vec((any::<u32>(), any::<u32>()), 1..32),
    ) {
        let net = XTreeHost::new(size);
        let msgs = messages(net.node_count() as u32, &msg_picks);
        let mut traces = Vec::new();
        for _ in 0..2 {
            let mut rec = TraceRecorder::new();
            let stats = Engine::new().run_batch_with(&net, &msgs, &mut rec).unwrap();
            let events = read_trace(rec.bytes()).unwrap();
            let hops = events.iter().filter(|e| matches!(e, Event::HopTaken { .. })).count();
            let delivered = events
                .iter()
                .filter(|e| matches!(e, Event::MessageDelivered { .. }))
                .count();
            prop_assert_eq!(hops as u64, stats.total_hops);
            let moving = msgs.iter().filter(|m| m.src != m.dst).count();
            prop_assert_eq!(delivered, moving);
            traces.push(rec.into_bytes());
        }
        prop_assert_eq!(&traces[0], &traces[1]);
    }

    #[test]
    fn faulted_replay_is_byte_identical(
        size in 2u8..=4,
        seed in any::<u64>(),
        msg_picks in prop::collection::vec((any::<u32>(), any::<u32>()), 1..24),
    ) {
        let net = XTreeHost::new(size);
        let msgs = messages(net.node_count() as u32, &msg_picks);
        let plan = FaultPlan::random_links(net.csr(), 0.15, seed, 6, Some(3)).unwrap();
        let (rec_a, out_a) = traced_faulted_run(&net, &msgs, &plan);
        let (rec_b, out_b) = traced_faulted_run(&net, &msgs, &plan);
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(rec_a.bytes(), rec_b.bytes());
        // The stream decodes and its cycles never run backwards per batch.
        let events = read_trace(rec_a.bytes()).unwrap();
        let mut prev = 0u64;
        for ev in &events {
            if matches!(ev, Event::BatchStarted { .. }) {
                prev = 0;
            } else {
                prop_assert!(ev.cycle() >= prev, "cycle regressed in {ev:?}");
                prev = ev.cycle();
            }
        }
    }

    #[test]
    fn sinks_do_not_perturb_outcomes(
        size in 2u8..=4,
        seed in any::<u64>(),
        msg_picks in prop::collection::vec((any::<u32>(), any::<u32>()), 1..24),
    ) {
        let net = XTreeHost::new(size);
        let msgs = messages(net.node_count() as u32, &msg_picks);

        // Fault-free: the no-op path (`run_batch`) vs recording sinks.
        let plain = Engine::new().run_batch(&net, &msgs).unwrap();
        let mut rec = TraceRecorder::new();
        let mut met = MetricsSink::new();
        let teed = Engine::new()
            .run_batch_with(&net, &msgs, &mut Tee(&mut rec, &mut met))
            .unwrap();
        prop_assert_eq!(&plain, &teed);
        met.finish();
        prop_assert_eq!(met.counters().hops, plain.total_hops);

        // Faulted: same check through the survivor path.
        let plan = FaultPlan::random_links(net.csr(), 0.2, seed, 6, Some(3)).unwrap();
        let mut faults = FaultState::new(net.csr(), plan.clone()).unwrap();
        let out_plain = Engine::new().run_batch_faulted(&net, &msgs, &mut faults).unwrap();
        let (_, out_traced) = traced_faulted_run(&net, &msgs, &plan);
        prop_assert_eq!(out_plain, out_traced);
    }
}

#[test]
fn faulted_x10_fixed_seed_replays_byte_for_byte() {
    // The acceptance scenario: a faulted X(10) run with a fixed seed must
    // verify byte-for-byte on replay.
    let net = XTreeHost::new(10);
    let n = net.node_count() as u64;
    let mut state = 0x7E1E_2026_u64;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let msgs: Vec<Message> = (0..512)
        .map(|_| Message {
            src: (rand() % n) as u32,
            dst: (rand() % n) as u32,
        })
        .collect();
    let plan = FaultPlan::random_links(net.csr(), 0.05, 0xFA17, 32, Some(16)).unwrap();
    let (rec_a, out_a) = traced_faulted_run(&net, &msgs, &plan);
    let (rec_b, out_b) = traced_faulted_run(&net, &msgs, &plan);
    assert_eq!(out_a, out_b);
    assert_eq!(rec_a.bytes(), rec_b.bytes());
    assert!(rec_a.event_count() > 0);
    // The damage actually shows up in the stream.
    let events = read_trace(rec_a.bytes()).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::FaultApplied { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::RerouteComputed { .. })));
}

#[test]
fn counted_sweep_matches_uncounted_and_tallies_hops() {
    use xtree_core::metrics::heap_order_embedding;
    use xtree_sim::telemetry::AtomicCounters;
    use xtree_trees::generate;

    let x = XTree::new(3);
    let net = TableHost::new(x.graph().clone()).unwrap();
    let cases: Vec<_> = (0..4)
        .map(|i| {
            let t = generate::caterpillar(10 + i);
            let e = heap_order_embedding(&t, 3);
            (t, e)
        })
        .collect();
    let counters = AtomicCounters::new();
    // One thread per case, every one recording into the shared tally.
    let counted: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = cases
            .iter()
            .map(|(t, e)| {
                let (net, mut sink) = (&net, &counters);
                scope.spawn(move || xtree_sim::simulate_all_with(net, t, e, &mut sink).unwrap())
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert_eq!(counted, xtree_sim::sweep(&net, &cases).unwrap());
    let snap = counters.snapshot();
    assert!(snap.hops > 0);
    assert!(snap.batches > 0);
    assert_eq!(snap.faults_applied, 0);
}
