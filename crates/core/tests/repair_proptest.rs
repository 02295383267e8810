//! Property tests for `xtree_core::repair`: whatever the damage, a repair
//! pass either produces a *valid* embedding — every guest on an alive
//! vertex, migration targets within the load cap, moves within the search
//! radius, deterministic guest-id order — or fails *correctly*: the
//! reported infeasibility survives relaxing the cap and radius only when
//! the dead vertex is genuinely sealed off from every survivor.

use proptest::prelude::*;
use xtree_core::metrics::heap_order_embedding;
use xtree_core::repair::{all_alive, repair, RepairConfig, RepairError};
use xtree_topology::{Graph, XTree};
use xtree_trees::generate;

/// Independent reachability oracle: can a BFS from `from`'s alive
/// neighbours, crossing only alive vertices, reach any survivor at all?
fn any_survivor_reachable(height: u8, dead: &[u32], from: u32) -> bool {
    let x = XTree::new(height);
    let graph = x.graph();
    let alive = |v: u32| !dead.contains(&v);
    let mut seen = vec![false; graph.node_count()];
    let mut stack: Vec<u32> = graph
        .out_edges(from as usize)
        .map(|(_, w)| w)
        .filter(|&w| alive(w))
        .collect();
    while let Some(v) = stack.pop() {
        if seen[v as usize] {
            continue;
        }
        seen[v as usize] = true;
        return true; // any alive vertex found is a potential home
    }
    false
}

proptest! {
    #[test]
    fn repair_is_valid_or_correctly_infeasible(
        height in 2u8..=5,
        guest_seed in any::<u64>(),
        dead_picks in prop::collection::vec(any::<u32>(), 0..6),
        load_cap in 1u32..=40,
        max_radius in 0u32..=10,
    ) {
        let host_len = (1usize << (height + 1)) - 1;
        let guest_n = 1 + (guest_seed as usize % host_len);
        let tree = generate::left_complete(guest_n);
        let emb = heap_order_embedding(&tree, height);
        let mut dead: Vec<u32> = dead_picks
            .iter()
            .map(|p| p % host_len as u32)
            .collect();
        dead.sort_unstable();
        dead.dedup();
        let cfg = RepairConfig { load_cap, max_radius };
        let before = emb.map.clone();

        match repair(&tree, &emb, &dead, &cfg) {
            Ok(None) => {
                // A no-op is only legal when no guest sits on a dead vertex.
                prop_assert!(emb
                    .map
                    .iter()
                    .all(|id| !dead.contains(id)));
            }
            Ok(Some(r)) => {
                // Valid: every guest alive, targets alive and within the
                // cap and radius, relocations in guest-id order, and the
                // input embedding untouched.
                prop_assert!(all_alive(&r.emb, |v| !dead.contains(&v)));
                prop_assert_eq!(r.report.migrated, r.report.relocations.len());
                for w in r.report.relocations.windows(2) {
                    prop_assert!(w[0].guest < w[1].guest);
                }
                let loads = r.emb.load_vector();
                for rl in &r.report.relocations {
                    prop_assert!(!dead.contains(&rl.to));
                    prop_assert!(dead.contains(&rl.from));
                    prop_assert!((1..=max_radius).contains(&rl.radius));
                    prop_assert_eq!(r.emb.map[rl.guest], rl.to);
                    prop_assert!(loads[rl.to as usize] <= load_cap);
                }
                prop_assert!(r.report.max_load <= r.report.max_load_before.max(load_cap));
                // Pure repair must not mutate its input.
                prop_assert_eq!(before, emb.map);
            }
            Err(RepairError::DeadVertexOutOfRange { vertex, .. }) => {
                prop_assert!(false, "in-range dead id {} reported out of range", vertex);
            }
            Err(RepairError::Infeasible { from, .. }) => {
                prop_assert!(dead.contains(&from));
                // Correctly infeasible: with an unbounded cap and a radius
                // covering the whole host, repair succeeds unless some dead
                // vertex is sealed off from every survivor.
                let relaxed = RepairConfig {
                    load_cap: u32::MAX,
                    max_radius: 2 * u32::from(height) + 2,
                };
                match repair(&tree, &emb, &dead, &relaxed) {
                    Ok(Some(_)) => {} // the tight budget was the only obstacle
                    Ok(None) => prop_assert!(
                        false,
                        "infeasible repair became a no-op when relaxed"
                    ),
                    Err(RepairError::Infeasible { from: f, .. }) => prop_assert!(
                        !any_survivor_reachable(height, &dead, f),
                        "unbounded repair failed for vertex {f} although a survivor is reachable"
                    ),
                    Err(e) => prop_assert!(false, "unexpected relaxed-repair error: {e}"),
                }
            }
        }
    }
}
