//! Embedding repair: migrating guest nodes off dead host vertices.
//!
//! The paper's Theorem-1 embedding is static — it assumes every X-tree
//! processor stays up. Under the simulator's fault model a host vertex can
//! die while it still hosts guest nodes, leaving every message to or from
//! those guests permanently stranded. This module turns that breaking
//! failure into graceful degradation: each affected guest is moved to a
//! surviving vertex found by a bounded-radius BFS over the alive subgraph,
//! subject to a configurable load cap, and the caller gets a
//! [`RepairReport`] quantifying what the migration cost (new max load, new
//! dilation, how many guests moved and how far).
//!
//! Determinism contract: guests are migrated in guest-id order, BFS levels
//! are scanned in ascending vertex id, and the first vertex with spare
//! capacity wins — the same damage always produces the same repaired
//! embedding, which is what lets recovered runs replay byte-for-byte.

use crate::embedding::XEmbedding;
use std::fmt;
use xtree_topology::{analytic_distance, Graph, XTree};
use xtree_trees::BinaryTree;

/// Tunables of a repair pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairConfig {
    /// Maximum guests a surviving vertex may hold after migration. The
    /// default (32) is double the paper's load-16 guarantee, so a healthy
    /// Theorem-1 embedding always has somewhere to put refugees.
    pub load_cap: u32,
    /// How far (in host hops) from the dead vertex the BFS will look for
    /// a new home before declaring the repair infeasible.
    pub max_radius: u32,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            load_cap: 32,
            max_radius: 8,
        }
    }
}

/// One migrated guest node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Relocation {
    /// Guest node index.
    pub guest: usize,
    /// The dead vertex it was hosted on.
    pub from: u32,
    /// The surviving vertex it now lives on.
    pub to: u32,
    /// Host hops between the two (the BFS level that found the new home).
    pub radius: u32,
}

/// What a repair pass did and what it cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairReport {
    /// Guests moved off dead vertices.
    pub migrated: usize,
    /// Embedding max load before the migration.
    pub max_load_before: u32,
    /// Embedding max load after (≤ the configured cap, by construction —
    /// pre-existing loads above the cap are left where they are).
    pub max_load: u32,
    /// Embedding dilation before the migration.
    pub dilation_before: u32,
    /// Embedding dilation after.
    pub dilation: u32,
    /// Every individual move, in guest-id order.
    pub relocations: Vec<Relocation>,
}

/// Why a repair could not complete. The embedding is left untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// A dead vertex id does not exist in the host.
    DeadVertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// Host vertex count.
        host_len: usize,
    },
    /// No surviving vertex within `max_radius` of `from` had spare
    /// capacity for guest `guest`.
    Infeasible {
        /// The guest that could not be rehomed.
        guest: usize,
        /// The dead vertex it sits on.
        from: u32,
        /// The search radius that was exhausted.
        max_radius: u32,
        /// The load cap in force.
        load_cap: u32,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::DeadVertexOutOfRange { vertex, host_len } => write!(
                f,
                "dead vertex {vertex} out of range for a {host_len}-vertex host"
            ),
            RepairError::Infeasible {
                guest,
                from,
                max_radius,
                load_cap,
            } => write!(
                f,
                "no alive vertex within {max_radius} hops of dead vertex {from} has spare \
                 capacity (cap {load_cap}) for guest {guest}"
            ),
        }
    }
}

impl std::error::Error for RepairError {}

/// A repaired embedding plus the degradation report.
#[derive(Clone, Debug)]
pub struct Repaired {
    /// The embedding with every affected guest rehomed.
    pub emb: XEmbedding,
    /// What moved and what it cost.
    pub report: RepairReport,
}

/// True when every guest image satisfies `alive` — the post-repair
/// invariant. The simulator wraps this as `validate_against(&FaultState)`.
pub fn all_alive<F: Fn(u32) -> bool>(emb: &XEmbedding, alive: F) -> bool {
    emb.map.iter().all(|&id| alive(id))
}

fn dilation_of(tree: &BinaryTree, emb: &XEmbedding) -> u32 {
    tree.edges()
        .map(|(u, v)| analytic_distance(emb.image(u), emb.image(v)))
        .max()
        .unwrap_or(0)
}

/// Pure repair: clones `emb`, migrates every guest hosted on a `dead`
/// vertex, and returns the repaired embedding with its report — or
/// `Ok(None)` when no guest sits on a dead vertex.
///
/// # Errors
/// See [`repair_in_place`].
pub fn repair(
    tree: &BinaryTree,
    emb: &XEmbedding,
    dead: &[u32],
    cfg: &RepairConfig,
) -> Result<Option<Repaired>, RepairError> {
    let mut out = emb.clone();
    Ok(repair_in_place(tree, &mut out, dead, cfg, |_, _| true)?
        .map(|report| Repaired { emb: out, report }))
}

/// Migrates every guest hosted on a `dead` vertex to the nearest surviving
/// vertex with load below `cfg.load_cap`, mutating `emb` in place.
///
/// `link_ok(u, v)` additionally gates which host links the BFS may cross
/// (pass `|_, _| true` when only vertices fail) — the simulator plugs its
/// live-link mask in here so refugees never land in a survivor component
/// their peers cannot reach. Links incident to a dead vertex are always
/// considered down, so the BFS seeds directly with the dead vertex's alive
/// neighbours.
///
/// Returns `Ok(None)` when no guest is affected (`emb` untouched), and on
/// any error restores `emb` to its pre-call state.
///
/// # Errors
/// [`RepairError::DeadVertexOutOfRange`] for an invalid `dead` entry;
/// [`RepairError::Infeasible`] when some affected guest has no reachable
/// home within the radius and cap.
pub fn repair_in_place<F: Fn(u32, u32) -> bool>(
    tree: &BinaryTree,
    emb: &mut XEmbedding,
    dead: &[u32],
    cfg: &RepairConfig,
    link_ok: F,
) -> Result<Option<RepairReport>, RepairError> {
    let host_len = emb.host_len();
    let mut alive = vec![true; host_len];
    for &v in dead {
        if v as usize >= host_len {
            return Err(RepairError::DeadVertexOutOfRange {
                vertex: v,
                host_len,
            });
        }
        alive[v as usize] = false;
    }
    let affected: Vec<usize> = (0..emb.map.len())
        .filter(|&g| !alive[emb.map[g] as usize])
        .collect();
    if affected.is_empty() {
        return Ok(None);
    }

    let max_load_before = emb.max_load();
    let dilation_before = dilation_of(tree, emb);
    let snapshot = emb.map.clone();
    let host = XTree::new(emb.height);
    let graph = host.graph();
    let mut load = emb.load_vector();
    let mut relocations = Vec::with_capacity(affected.len());

    for &guest in &affected {
        let from = emb.map[guest];
        match find_home(graph, &alive, &load, from, cfg, &link_ok) {
            Some((to, radius)) => {
                load[to as usize] += 1;
                emb.map[guest] = to;
                relocations.push(Relocation {
                    guest,
                    from,
                    to,
                    radius,
                });
            }
            None => {
                emb.map = snapshot;
                return Err(RepairError::Infeasible {
                    guest,
                    from,
                    max_radius: cfg.max_radius,
                    load_cap: cfg.load_cap,
                });
            }
        }
    }

    Ok(Some(RepairReport {
        migrated: relocations.len(),
        max_load_before,
        max_load: emb.max_load(),
        dilation_before,
        dilation: dilation_of(tree, emb),
        relocations,
    }))
}

/// Level-by-level BFS from `from` over the alive subgraph: the first
/// alive vertex (in ascending id within each level) with load below the
/// cap wins. Returns the vertex and its BFS level, or `None` when the
/// radius is exhausted.
fn find_home<F: Fn(u32, u32) -> bool>(
    graph: &xtree_topology::Csr,
    alive: &[bool],
    load: &[u32],
    from: u32,
    cfg: &RepairConfig,
    link_ok: &F,
) -> Option<(u32, u32)> {
    let mut seen = vec![false; graph.node_count()];
    seen[from as usize] = true;
    // Seed: the dead vertex's alive neighbours (its own links are all down
    // with it, so `link_ok` is not consulted for the first step).
    let mut frontier: Vec<u32> = graph
        .out_edges(from as usize)
        .map(|(_, w)| w)
        .filter(|&w| alive[w as usize])
        .collect();
    for radius in 1..=cfg.max_radius {
        frontier.sort_unstable();
        frontier.dedup();
        for &v in &frontier {
            seen[v as usize] = true;
        }
        if let Some(&v) = frontier.iter().find(|&&v| load[v as usize] < cfg.load_cap) {
            return Some((v, radius));
        }
        if radius == cfg.max_radius {
            break;
        }
        let mut next = Vec::new();
        for &u in &frontier {
            for (_, w) in graph.out_edges(u as usize) {
                if !seen[w as usize] && alive[w as usize] && link_ok(u, w) {
                    next.push(w);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::heap_order_embedding;
    use crate::theorem1;
    use xtree_trees::generate;

    #[test]
    fn no_dead_guests_is_a_no_op() {
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        // Vertex 14 is a leaf hosting guest 14; kill an empty host instead.
        let r = repair(&t, &e, &[], &RepairConfig::default()).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn migrates_guests_off_a_dead_leaf() {
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let dead = [14u32];
        let r = repair(&t, &e, &dead, &RepairConfig::default())
            .unwrap()
            .expect("guest 14 lives on vertex 14");
        assert_eq!(r.report.migrated, 1);
        assert_eq!(r.report.relocations[0].from, 14);
        assert_ne!(r.emb.map[14], 14);
        assert!(all_alive(&r.emb, |v| !dead.contains(&v)));
        assert!(r.report.max_load <= RepairConfig::default().load_cap);
        assert!(r.report.dilation >= r.report.dilation_before);
    }

    #[test]
    fn repair_is_deterministic() {
        let t = generate::caterpillar(200);
        let e = theorem1::embed(&t).emb;
        let dead = [0u32, 3, 7];
        let a = repair(&t, &e, &dead, &RepairConfig::default()).unwrap();
        let b = repair(&t, &e, &dead, &RepairConfig::default()).unwrap();
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.report, y.report);
                assert_eq!(x.emb.map, y.emb.map);
            }
            (None, None) => {}
            _ => panic!("non-deterministic repair"),
        }
    }

    #[test]
    fn tight_cap_reports_infeasibility_and_restores() {
        // Injective embedding of the full guest: every vertex holds one
        // guest, so a cap of 1 leaves nowhere to go.
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let before = e.map.clone();
        let cfg = RepairConfig {
            load_cap: 1,
            max_radius: 8,
        };
        let mut work = e.clone();
        let err = repair_in_place(&t, &mut work, &[5], &cfg, |_, _| true).unwrap_err();
        assert!(matches!(err, RepairError::Infeasible { from: 5, .. }));
        assert_eq!(before, work.map, "failed repair must restore the embedding");
    }

    #[test]
    fn out_of_range_dead_vertex_is_rejected() {
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let err = repair(&t, &e, &[99], &RepairConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            RepairError::DeadVertexOutOfRange { vertex: 99, .. }
        ));
    }

    #[test]
    fn radius_bound_is_respected() {
        let t = generate::left_complete(15);
        let e = heap_order_embedding(&t, 3);
        let cfg = RepairConfig {
            load_cap: 1,
            max_radius: 0,
        };
        // Radius 0 can never find a home for a displaced guest.
        assert!(repair(&t, &e, &[14], &cfg).is_err());
    }
}
