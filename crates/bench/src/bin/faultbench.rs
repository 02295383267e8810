//! `faultbench` — graceful-degradation record for the fault-injection
//! subsystem, written to `results/BENCH_faults.json`.
//!
//! For each X-tree host it delivers the same seeded random batches under
//! increasing link-failure rates and reports the slowdown against the
//! fault-free engine, twice per rate:
//!
//! * **repaired** — every failed link comes back a fixed number of cycles
//!   later, so the survivor graph eventually heals and everything is
//!   delivered: the slowdown curve isolates the cost of detours and
//!   repair-waiting;
//! * **cut** — the same failures with no repairs: the delivery rate shows
//!   how much traffic strands permanently as the host partitions.
//!
//! A third sweep measures the **recovery supervisor** under node failures
//! at the same rates: the host's vertices double as guests of a
//! heap-order (identity) embedding, so the random batches gain guest
//! semantics and `recover_batch` can migrate them off dead vertices. The
//! curve reports delivery under the default policy against a no-retry
//! policy, and the extra cycles the retries cost; the no-retry run is
//! asserted cycle-identical to the bare engine — recovery is free when
//! disabled.
//!
//! Run with: `cargo run --release -p xtree-bench --bin faultbench`
//! (`--smoke` sweeps two tiny hosts and skips the results file — the CI
//! guard that the degraded engine terminates with sane numbers.)

use xtree_bench::seeded_batches;
use xtree_core::metrics::heap_order_embedding;
use xtree_core::XEmbedding;
use xtree_json::Value;
use xtree_sim::{
    recover_batch, Engine, FaultPlan, FaultState, Host, Message, RecoveryEnd, RecoveryPolicy,
    XTreeHost,
};
use xtree_trees::{generate, BinaryTree};

/// Failure cycles are drawn from this window, so damage lands while the
/// batches are in flight.
const FAULT_WINDOW: u32 = 32;
/// Cycles from a link's failure to its repair in the repaired sweep.
const REPAIR_AFTER: u32 = 16;

struct Degraded {
    cycles: u64,
    messages: usize,
    delivered: usize,
}

/// Runs every batch from a fresh [`FaultState`], so each one replays the
/// damage schedule from cycle 0.
fn run_degraded(
    engine: &mut Engine,
    net: &XTreeHost,
    rounds: &[Vec<Message>],
    plan: &FaultPlan,
) -> Degraded {
    let mut d = Degraded {
        cycles: 0,
        messages: 0,
        delivered: 0,
    };
    for batch in rounds {
        let mut faults = FaultState::new(net.csr(), plan.clone()).expect("plan fits its host");
        let out = engine
            .run_batch_faulted(net, batch, &mut faults)
            .expect("faulted batch");
        assert!(
            !out.is_stalled(),
            "horizon {FAULT_WINDOW}+{REPAIR_AFTER} is far inside the idle-wait budget"
        );
        d.cycles += u64::from(out.stats().cycles);
        d.messages += out.stats().messages;
        d.delivered += out.stats().messages - out.undelivered().len();
    }
    d
}

struct Recovered {
    cycles: u64,
    messages: usize,
    delivered: usize,
    retries: u64,
    requeued: u64,
    migrated: u64,
}

/// Runs every batch under the recovery supervisor, each from a fresh
/// [`FaultState`] and a fresh copy of the pristine embedding — the same
/// replay semantics as [`run_degraded`], plus migrations and retries.
#[allow(clippy::too_many_arguments)]
fn run_recovered(
    engine: &mut Engine,
    net: &XTreeHost,
    tree: &BinaryTree,
    emb0: &XEmbedding,
    rounds: &[Vec<Message>],
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> Recovered {
    let mut d = Recovered {
        cycles: 0,
        messages: 0,
        delivered: 0,
        retries: 0,
        requeued: 0,
        migrated: 0,
    };
    for batch in rounds {
        let mut faults = FaultState::new(net.csr(), plan.clone()).expect("plan fits its host");
        let mut emb = emb0.clone();
        let out = recover_batch(engine, net, tree, &mut emb, batch, &mut faults, policy)
            .expect("supervised batch");
        let lost = match &out.end {
            RecoveryEnd::Delivered => 0,
            RecoveryEnd::Unreachable { stranded } => stranded.len(),
            RecoveryEnd::Exhausted {
                undelivered,
                stranded,
            } => undelivered.len() + stranded.len(),
        };
        d.cycles += u64::from(out.stats.cycles);
        d.messages += out.stats.messages;
        d.delivered += out.stats.messages - lost;
        d.retries += u64::from(out.retries());
        d.requeued += out.requeued() as u64;
        d.migrated += out.repair.as_ref().map_or(0, |r| r.migrated as u64);
    }
    d
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let base_seed = xtree_bench::seed_from_args(0x5EED_FA17);
    let heights: &[u8] = if smoke { &[5, 6] } else { &[8, 9, 10, 11, 12] };
    let rates = [0.0, 0.01, 0.02, 0.05, 0.1];
    let mut hosts = Vec::new();
    for &r in heights {
        let net = XTreeHost::new(r);
        let n = net.node_count();
        let batches = if smoke { 2 } else { 4 };
        let per_batch = (n / 2).min(512);
        let rounds = seeded_batches(base_seed, n as u64, batches, per_batch);
        // Every host vertex doubles as a guest under the heap-order
        // (identity) embedding, which gives the random host-level batches
        // guest semantics for the recovery sweep.
        let tree = generate::left_complete(n);
        let emb0 = heap_order_embedding(&tree, r);
        let mut engine = Engine::new();
        let clean: u64 = rounds
            .iter()
            .map(|b| u64::from(engine.run_batch(&net, b).expect("fault-free batch").cycles))
            .sum();

        let mut curve = Vec::new();
        for &rate in &rates {
            // Fault-plan seed derived from the base: the default base
            // reproduces the historical `0xFA17 + r` plans exactly.
            let seed = base_seed.wrapping_sub(0x5EED_0000) + u64::from(r);
            let repaired = run_degraded(
                &mut engine,
                &net,
                &rounds,
                &FaultPlan::random_links(net.csr(), rate, seed, FAULT_WINDOW, Some(REPAIR_AFTER))
                    .expect("rate is a probability"),
            );
            assert_eq!(
                repaired.delivered, repaired.messages,
                "repaired links leave nothing stranded"
            );
            let cut = run_degraded(
                &mut engine,
                &net,
                &rounds,
                &FaultPlan::random_links(net.csr(), rate, seed, FAULT_WINDOW, None)
                    .expect("rate is a probability"),
            );
            let slowdown = repaired.cycles as f64 / clean.max(1) as f64;
            let delivery = cut.delivered as f64 / cut.messages.max(1) as f64;

            // Recovery sweep: permanent *node* failures at the same rate,
            // with and without the supervisor. The no-retry supervised run
            // must match the bare engine exactly — recovery costs nothing
            // when it is switched off.
            let node_plan = FaultPlan::random_nodes(net.csr(), rate, seed, FAULT_WINDOW)
                .expect("rate is a probability");
            let bare = run_degraded(&mut engine, &net, &rounds, &node_plan);
            let off = run_recovered(
                &mut engine,
                &net,
                &tree,
                &emb0,
                &rounds,
                &node_plan,
                &RecoveryPolicy::none(),
            );
            assert_eq!(
                (off.cycles, off.delivered),
                (bare.cycles, bare.delivered),
                "a disabled supervisor must cost zero cycles and change nothing"
            );
            let on = run_recovered(
                &mut engine,
                &net,
                &tree,
                &emb0,
                &rounds,
                &node_plan,
                &RecoveryPolicy::default(),
            );
            assert!(
                on.delivered >= off.delivered,
                "migrating guests off dead vertices can only help delivery"
            );
            let delivery_off = off.delivered as f64 / off.messages.max(1) as f64;
            let delivery_on = on.delivered as f64 / on.messages.max(1) as f64;
            let extra_cycles = on.cycles as i64 - off.cycles as i64;

            eprintln!(
                "X({r}): rate {rate:.2} — slowdown {slowdown:.2}x (repaired), \
                 delivery {:.3} (no repairs, {} of {} stranded); \
                 node faults: delivery {delivery_off:.3} -> {delivery_on:.3} recovered \
                 (+{extra_cycles} cycles, {} migrated)",
                delivery,
                cut.messages - cut.delivered,
                cut.messages,
                on.migrated,
            );
            curve.push(
                Value::object()
                    .with("fault_rate", rate)
                    .with("cycles_faulted", repaired.cycles)
                    .with("slowdown_repaired", slowdown)
                    .with("delivered_no_repair", cut.delivered)
                    .with("stranded_no_repair", cut.messages - cut.delivered)
                    .with("delivery_rate_no_repair", delivery)
                    .with("delivery_rate_nodes_no_recovery", delivery_off)
                    .with("delivery_rate_nodes_recovered", delivery_on)
                    .with("recovery_extra_cycles", extra_cycles)
                    .with("recovery_retries", on.retries)
                    .with("recovery_requeued", on.requeued)
                    .with("recovery_migrated", on.migrated),
            );
        }
        hosts.push(
            Value::object()
                .with("host", format!("X({r})"))
                .with("vertices", n)
                .with("batches", batches)
                .with("messages_per_batch", per_batch)
                .with("cycles_clean", clean)
                .with("curve", Value::from(curve)),
        );
    }
    let doc = Value::object()
        .with("bench", "fault-degradation")
        .with("seed", base_seed)
        .with(
            "workload",
            "seeded uniform-random batches under random link failures; repaired runs \
             measure detour slowdown, unrepaired runs measure permanent stranding; \
             the recovery columns re-run the batches under permanent node failures as \
             guests of an identity embedding, default RecoveryPolicy vs none",
        )
        .with("fault_window", FAULT_WINDOW)
        .with("repair_after", REPAIR_AFTER)
        .with("hosts", Value::from(hosts));
    if !smoke {
        xtree_json::write_pretty_file("results/BENCH_faults.json", &doc)
            .expect("write BENCH_faults.json");
    }
    println!("{}", xtree_json::to_string_pretty(&doc));
}
