//! Deterministic fault injection: scheduled link/node failures and the
//! survivor-graph routing that lets messages detour around damage.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of topology events
//! (link-down, link-up, node-down) keyed by *fault-clock* cycle. The
//! engine consumes it through a [`FaultState`], which tracks which links
//! and nodes are currently dead, applies due events as the clock advances,
//! and answers routing queries on the **survivor graph** — the host minus
//! the dead links and the links incident to dead nodes.
//!
//! Survivor routing keeps the simulator's determinism contract: the next
//! hop is the smallest-id alive neighbour that decreases the survivor-
//! graph distance, exactly the convention of the closed-form hosts and
//! the dense BFS tables (see `xtree_host::TableHost`). Routes are served
//! from per-destination BFS tables that are built lazily and cached until
//! the next topology change (each applied event bumps an epoch that
//! invalidates the cache), so a quiet network pays for BFS only once per
//! destination per damage configuration.
//!
//! Nothing here touches the fault-free fast path: an engine run without a
//! fault plan never consults this module.

use crate::error::SimError;
use std::collections::HashMap;
use xtree_topology::{Csr, Graph};

/// One scheduled topology change. Links are undirected host edges; a
/// downed link rejects traffic in both directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The link `{u, v}` fails.
    LinkDown {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// The link `{u, v}` is repaired.
    LinkUp {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Vertex `v` fails: every incident link dies with it, and messages
    /// currently parked there freeze until the batch ends. Node repairs are
    /// deliberately not modelled — a rebooted processor has lost its state,
    /// so "the same node comes back" is a different experiment.
    NodeDown {
        /// The failing vertex.
        v: u32,
    },
}

/// A [`FaultKind`] scheduled at a fault-clock cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Fault-clock cycle at which the event applies (cycle 0 is *before*
    /// the first delivery cycle of the first batch run against the plan).
    pub cycle: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, reproducible schedule of fault events.
///
/// Build one explicitly with the chainable [`FaultPlan::link_down`] /
/// [`FaultPlan::link_up`] / [`FaultPlan::node_down`], or generate a random
/// one with [`FaultPlan::random_links`]. Events are kept sorted by cycle
/// (stably, so same-cycle events apply in insertion order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// SplitMix64 — tiny, seedable, and stable across platforms, so fault
/// plans never depend on an external RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Rejects NaN and out-of-range failure probabilities.
fn validate_rate(rate: f64) -> Result<(), SimError> {
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(SimError::InvalidRate {
            given: format!("{rate}"),
        });
    }
    Ok(())
}

impl FaultPlan {
    /// An empty plan (no faults ever).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a link failure.
    pub fn link_down(mut self, cycle: u32, u: u32, v: u32) -> Self {
        self.push(FaultEvent {
            cycle,
            kind: FaultKind::LinkDown { u, v },
        });
        self
    }

    /// Schedules a link repair.
    pub fn link_up(mut self, cycle: u32, u: u32, v: u32) -> Self {
        self.push(FaultEvent {
            cycle,
            kind: FaultKind::LinkUp { u, v },
        });
        self
    }

    /// Schedules a node failure.
    pub fn node_down(mut self, cycle: u32, v: u32) -> Self {
        self.push(FaultEvent {
            cycle,
            kind: FaultKind::NodeDown { v },
        });
        self
    }

    fn push(&mut self, e: FaultEvent) {
        // Stable insert-sort position: after every event with cycle <= e.cycle.
        let pos = self.events.partition_point(|x| x.cycle <= e.cycle);
        self.events.insert(pos, e);
    }

    /// Random link failures: each undirected edge of `graph` independently
    /// fails with probability `rate`, at a cycle drawn uniformly from
    /// `0..window.max(1)`. With `repair_after = Some(k)` every failed link
    /// comes back `k` cycles after it went down. Fully determined by
    /// `seed` — the same seed, graph, and parameters always produce the
    /// same plan.
    ///
    /// # Errors
    /// [`SimError::InvalidRate`] when `rate` is NaN or outside `[0, 1]` —
    /// a degenerate rate would silently fail every link or none.
    pub fn random_links(
        graph: &Csr,
        rate: f64,
        seed: u64,
        window: u32,
        repair_after: Option<u32>,
    ) -> Result<Self, SimError> {
        validate_rate(rate)?;
        let mut plan = FaultPlan::new();
        let mut state = seed ^ 0xFA_17_5E_ED_u64.rotate_left(32);
        for (u, v) in graph.edges() {
            let fails = unit_f64(splitmix64(&mut state)) < rate;
            let at = (splitmix64(&mut state) % u64::from(window.max(1))) as u32;
            if !fails {
                continue; // draws happen regardless, keeping plans prefix-stable
            }
            plan = plan.link_down(at, u, v);
            if let Some(k) = repair_after {
                plan = plan.link_up(at.saturating_add(k), u, v);
            }
        }
        Ok(plan)
    }

    /// Random node failures: each vertex of `graph` independently fails
    /// with probability `rate`, at a cycle drawn uniformly from
    /// `0..window.max(1)`. Deterministic in `seed` and drawn from a stream
    /// independent of [`FaultPlan::random_links`], so the two compose
    /// (via [`FaultPlan::merged`]) without correlating.
    ///
    /// # Errors
    /// [`SimError::InvalidRate`] when `rate` is NaN or outside `[0, 1]`.
    pub fn random_nodes(graph: &Csr, rate: f64, seed: u64, window: u32) -> Result<Self, SimError> {
        validate_rate(rate)?;
        let mut plan = FaultPlan::new();
        let mut state = seed ^ 0xD0_0D_FA_17_u64.rotate_left(32);
        for v in 0..graph.node_count() as u32 {
            let fails = unit_f64(splitmix64(&mut state)) < rate;
            let at = (splitmix64(&mut state) % u64::from(window.max(1))) as u32;
            if fails {
                plan = plan.node_down(at, v);
            }
        }
        Ok(plan)
    }

    /// Merges two schedules into one, keeping events sorted by cycle
    /// (`self`'s events come first within a tie).
    pub fn merged(mut self, other: FaultPlan) -> FaultPlan {
        for e in other.events {
            self.push(e);
        }
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events in application order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The cycle of the last scheduled event.
    pub fn horizon(&self) -> Option<u32> {
        self.events.last().map(|e| e.cycle)
    }

    /// Serialises the schedule as LEB128 words (count, then per event:
    /// cycle, kind tag, endpoints).
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        encode_events(&self.events, buf);
    }

    /// Inverse of [`FaultPlan::encode`]. Events were sorted when encoded,
    /// so the order round-trips.
    ///
    /// # Errors
    /// [`SimError::InvalidFault`] on truncation or an unknown tag.
    pub(crate) fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, SimError> {
        Ok(FaultPlan {
            events: decode_events(bytes, pos)?,
        })
    }
}

/// Per-destination survivor-graph routing table: BFS distances toward one
/// destination plus the deterministic next hop at every vertex.
struct DstTable {
    /// `dist[v]` = survivor-graph distance from `v` to the destination
    /// (`u32::MAX` when unreachable).
    dist: Vec<u32>,
    /// `next[v]` = smallest-id alive downhill neighbour (`u32::MAX` when
    /// unreachable or at the destination itself).
    next: Vec<u32>,
}

/// How many destination tables the survivor cache may hold before it is
/// wholesale cleared. Bounds memory at roughly `CACHE_CAP * n` words no
/// matter how many distinct destinations a workload touches.
const CACHE_CAP: usize = 1024;

/// Default number of idle cycles the engine's watchdog will wait for the
/// next scheduled event before diagnosing the batch as stalled (see
/// `Engine::run_batch_faulted`).
pub const DEFAULT_MAX_IDLE_WAIT: u32 = 1 << 16;

/// Runtime fault state: the live link/node masks, the event cursor, the
/// fault clock, and the cached survivor routing tables.
///
/// One `FaultState` spans a whole experiment: the clock keeps advancing
/// across batches run on the same state, so damage persists from one batch
/// to the next exactly like it would on real hardware.
pub struct FaultState {
    events: Vec<FaultEvent>,
    /// Index of the first unapplied event.
    next_event: usize,
    /// The fault clock: total delivery cycles elapsed across all batches.
    clock: u32,
    /// Bumped on every applied event; invalidates `cache`.
    epoch: u64,
    /// Down flags per *directed* CSR edge index (both directions of a
    /// failed link are set).
    edge_down: Vec<bool>,
    node_down: Vec<bool>,
    down_links: usize,
    down_nodes: usize,
    cache: HashMap<u32, DstTable>,
    cache_epoch: u64,
    max_idle_wait: u32,
    host_nodes: usize,
}

impl FaultState {
    /// Binds `plan` to a host, validating every event against the host's
    /// topology up front.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidFault`] when an event names a link the
    /// host does not have or a vertex out of range.
    pub fn new(graph: &Csr, plan: FaultPlan) -> Result<Self, SimError> {
        let n = graph.node_count();
        for e in plan.events() {
            match e.kind {
                FaultKind::LinkDown { u, v } | FaultKind::LinkUp { u, v } => {
                    if graph.directed_edge_index(u, v).is_none()
                        || graph.directed_edge_index(v, u).is_none()
                    {
                        return Err(SimError::InvalidFault {
                            reason: format!("{{{u}, {v}}} is not a link of this host"),
                        });
                    }
                }
                FaultKind::NodeDown { v } => {
                    if v as usize >= n {
                        return Err(SimError::InvalidFault {
                            reason: format!("node {v} out of range for a {n}-vertex host"),
                        });
                    }
                }
            }
        }
        Ok(FaultState {
            events: plan.events,
            next_event: 0,
            clock: 0,
            epoch: 0,
            edge_down: vec![false; graph.directed_edge_count()],
            node_down: vec![false; n],
            down_links: 0,
            down_nodes: 0,
            cache: HashMap::new(),
            cache_epoch: 0,
            max_idle_wait: DEFAULT_MAX_IDLE_WAIT,
            host_nodes: n,
        })
    }

    /// Caps how many idle cycles the engine waits for the next scheduled
    /// event before diagnosing a stall (default [`DEFAULT_MAX_IDLE_WAIT`]).
    pub fn with_max_idle_wait(mut self, cycles: u32) -> Self {
        self.max_idle_wait = cycles;
        self
    }

    /// The configured idle-wait cap.
    pub fn max_idle_wait(&self) -> u32 {
        self.max_idle_wait
    }

    /// The fault clock (delivery cycles elapsed under this state).
    pub fn clock(&self) -> u32 {
        self.clock
    }

    /// Advances the fault clock by `cycles`.
    pub(crate) fn advance_clock(&mut self, cycles: u32) {
        self.clock = self.clock.saturating_add(cycles);
    }

    /// True when anything is currently down.
    pub fn active(&self) -> bool {
        self.down_links > 0 || self.down_nodes > 0
    }

    /// True when this state can never affect a batch: nothing down now and
    /// nothing scheduled later.
    pub fn is_trivial(&self) -> bool {
        !self.active() && self.pending().is_none()
    }

    /// The cycle of the next unapplied event, if any.
    pub fn pending(&self) -> Option<u32> {
        self.events.get(self.next_event).map(|e| e.cycle)
    }

    /// The cycle of the last event in the plan, if any.
    pub fn horizon(&self) -> Option<u32> {
        self.events.last().map(|e| e.cycle)
    }

    /// Number of links currently down.
    pub fn down_links(&self) -> usize {
        self.down_links
    }

    /// Number of nodes currently down.
    pub fn down_nodes(&self) -> usize {
        self.down_nodes
    }

    /// Guards against driving a state built for one host with another.
    pub(crate) fn check_host(&self, graph: &Csr) -> Result<(), SimError> {
        if self.host_nodes != graph.node_count()
            || self.edge_down.len() != graph.directed_edge_count()
        {
            return Err(SimError::InvalidFault {
                reason: format!(
                    "fault state built for a {}-vertex host, driven with a {}-vertex one",
                    self.host_nodes,
                    graph.node_count()
                ),
            });
        }
        Ok(())
    }

    /// Applies every event due at or before the current clock. Returns
    /// true when any event was applied (topology epochs advance then, and
    /// cached routes are invalid).
    pub(crate) fn apply_due(&mut self, graph: &Csr) -> bool {
        let mut applied = false;
        while let Some(e) = self.events.get(self.next_event) {
            if e.cycle > self.clock {
                break;
            }
            let kind = e.kind;
            self.next_event += 1;
            applied = true;
            self.apply_kind(graph, kind);
        }
        if applied {
            self.epoch += 1;
        }
        applied
    }

    fn apply_kind(&mut self, graph: &Csr, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown { u, v } => self.set_link(graph, u, v, true),
            FaultKind::LinkUp { u, v } => self.set_link(graph, u, v, false),
            FaultKind::NodeDown { v } => {
                if !self.node_down[v as usize] {
                    self.node_down[v as usize] = true;
                    self.down_nodes += 1;
                }
            }
        }
    }

    fn set_link(&mut self, graph: &Csr, u: u32, v: u32, down: bool) {
        // Validated in `new`, so both directed indices exist.
        let (Some(uv), Some(vu)) = (
            graph.directed_edge_index(u, v),
            graph.directed_edge_index(v, u),
        ) else {
            return;
        };
        if self.edge_down[uv as usize] != down {
            self.edge_down[uv as usize] = down;
            self.edge_down[vu as usize] = down;
            if down {
                self.down_links += 1;
            } else {
                self.down_links -= 1;
            }
        }
    }

    /// True when the directed link `u -> v` currently carries traffic.
    #[inline]
    pub fn link_alive(&self, graph: &Csr, u: u32, v: u32) -> bool {
        if self.node_down[u as usize] || self.node_down[v as usize] {
            return false;
        }
        match graph.directed_edge_index(u, v) {
            Some(e) => !self.edge_down[e as usize],
            None => false,
        }
    }

    /// True when vertex `v` is alive.
    #[inline]
    pub fn node_alive(&self, v: u32) -> bool {
        !self.node_down[v as usize]
    }

    fn table(&mut self, graph: &Csr, dst: u32) -> &DstTable {
        if self.cache_epoch != self.epoch {
            self.cache.clear();
            self.cache_epoch = self.epoch;
        } else if self.cache.len() >= CACHE_CAP && !self.cache.contains_key(&dst) {
            self.cache.clear();
        }
        self.cache
            .entry(dst)
            .or_insert_with(|| build_dst_table(graph, dst, &self.edge_down, &self.node_down))
    }

    /// Survivor-graph next hop from `v` toward `dst`: the smallest-id
    /// alive neighbour that decreases the survivor distance, or `None`
    /// when `dst` is currently unreachable from `v` (including when either
    /// endpoint is a dead node). Returns `Some(v)` when `v == dst`.
    pub fn next_hop(&mut self, graph: &Csr, v: u32, dst: u32) -> Option<u32> {
        if v == dst {
            return Some(v);
        }
        let t = self.table(graph, dst);
        let next = t.next[v as usize];
        (next != u32::MAX).then_some(next)
    }

    /// Survivor-graph distance from `v` to `dst`, or `None` when
    /// unreachable.
    pub fn distance(&mut self, graph: &Csr, v: u32, dst: u32) -> Option<u32> {
        if v == dst {
            return Some(0);
        }
        let t = self.table(graph, dst);
        let d = t.dist[v as usize];
        (d != u32::MAX).then_some(d)
    }

    /// True when a message at `v` can currently reach `dst`.
    pub fn reachable(&mut self, graph: &Csr, v: u32, dst: u32) -> bool {
        self.distance(graph, v, dst).is_some()
    }

    /// Serialises the runtime state into `buf` as LEB128 words (see the
    /// checkpoint container for framing). The live link/node masks are
    /// *not* stored: they are a pure function of the applied event prefix,
    /// so [`FaultState::decode`] rebuilds them by replay — the snapshot
    /// stays small and cannot de-synchronise from the plan.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        use xtree_telemetry::varint::encode_u64;
        encode_u64(buf, u64::from(self.max_idle_wait));
        encode_u64(buf, u64::from(self.clock));
        encode_u64(buf, self.next_event as u64);
        encode_events(&self.events, buf);
    }

    /// Rebuilds a state serialised by [`FaultState::encode`], validating
    /// the embedded plan against `graph` exactly like [`FaultState::new`]
    /// and replaying the applied event prefix to reconstruct the masks.
    ///
    /// # Errors
    /// [`SimError::InvalidFault`] on truncated input, unknown event tags,
    /// an out-of-range cursor, or a plan that does not fit `graph`.
    pub(crate) fn decode(graph: &Csr, bytes: &[u8], pos: &mut usize) -> Result<Self, SimError> {
        let max_idle_wait = decode_u32(bytes, pos)?;
        let clock = decode_u32(bytes, pos)?;
        let next_event = decode_word(bytes, pos)? as usize;
        let plan = FaultPlan::decode(bytes, pos)?;
        if next_event > plan.len() {
            return Err(SimError::InvalidFault {
                reason: format!(
                    "checkpoint cursor {next_event} past the end of a {}-event plan",
                    plan.len()
                ),
            });
        }
        let mut st = FaultState::new(graph, plan)?;
        for i in 0..next_event {
            let kind = st.events[i].kind;
            st.apply_kind(graph, kind);
        }
        st.next_event = next_event;
        st.epoch = next_event as u64;
        st.clock = clock;
        st.max_idle_wait = max_idle_wait;
        Ok(st)
    }
}

fn encode_events(events: &[FaultEvent], buf: &mut Vec<u8>) {
    use xtree_telemetry::varint::encode_u64;
    encode_u64(buf, events.len() as u64);
    for e in events {
        encode_u64(buf, u64::from(e.cycle));
        match e.kind {
            FaultKind::LinkDown { u, v } => {
                encode_u64(buf, 0);
                encode_u64(buf, u64::from(u));
                encode_u64(buf, u64::from(v));
            }
            FaultKind::LinkUp { u, v } => {
                encode_u64(buf, 1);
                encode_u64(buf, u64::from(u));
                encode_u64(buf, u64::from(v));
            }
            FaultKind::NodeDown { v } => {
                encode_u64(buf, 2);
                encode_u64(buf, u64::from(v));
            }
        }
    }
}

fn decode_events(bytes: &[u8], pos: &mut usize) -> Result<Vec<FaultEvent>, SimError> {
    let len = decode_word(bytes, pos)? as usize;
    let mut events = Vec::new();
    for _ in 0..len {
        let cycle = decode_u32(bytes, pos)?;
        let kind = match decode_word(bytes, pos)? {
            0 => FaultKind::LinkDown {
                u: decode_u32(bytes, pos)?,
                v: decode_u32(bytes, pos)?,
            },
            1 => FaultKind::LinkUp {
                u: decode_u32(bytes, pos)?,
                v: decode_u32(bytes, pos)?,
            },
            2 => FaultKind::NodeDown {
                v: decode_u32(bytes, pos)?,
            },
            t => {
                return Err(SimError::InvalidFault {
                    reason: format!("unknown fault-event tag {t} in checkpoint"),
                })
            }
        };
        events.push(FaultEvent { cycle, kind });
    }
    Ok(events)
}

fn decode_word(bytes: &[u8], pos: &mut usize) -> Result<u64, SimError> {
    xtree_telemetry::varint::decode_u64(bytes, pos).ok_or_else(|| SimError::InvalidFault {
        reason: "checkpoint truncated inside the fault snapshot".into(),
    })
}

fn decode_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, SimError> {
    u32::try_from(decode_word(bytes, pos)?).map_err(|_| SimError::InvalidFault {
        reason: "fault snapshot word does not fit in 32 bits".into(),
    })
}

/// Reverse BFS from `dst` over the survivor graph. The host is
/// undirected, so distance-to-dst equals distance-from-dst; the next hop
/// at `v` is its smallest-id alive neighbour one step closer (neighbour
/// lists are sorted, so the first match wins — the same convention as
/// `xtree_host::TableHost`).
fn build_dst_table(graph: &Csr, dst: u32, edge_down: &[bool], node_down: &[bool]) -> DstTable {
    let n = graph.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut next = vec![u32::MAX; n];
    if !node_down[dst as usize] {
        let mut queue = std::collections::VecDeque::new();
        dist[dst as usize] = 0;
        queue.push_back(dst);
        while let Some(u) = queue.pop_front() {
            let d = dist[u as usize] + 1;
            for (e, w) in graph.out_edges(u as usize) {
                if edge_down[e as usize] || node_down[w as usize] {
                    continue;
                }
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = d;
                    queue.push_back(w);
                }
            }
        }
        for v in 0..n as u32 {
            if v == dst || dist[v as usize] == u32::MAX || node_down[v as usize] {
                continue;
            }
            for (e, w) in graph.out_edges(v as usize) {
                if !edge_down[e as usize]
                    && !node_down[w as usize]
                    && dist[w as usize] + 1 == dist[v as usize]
                {
                    next[v as usize] = w;
                    break;
                }
            }
        }
    }
    DstTable { dist, next }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Csr {
        let edges: Vec<_> = (1..n as u32).map(|v| (v - 1, v)).collect();
        Csr::from_edges(n, &edges)
    }

    fn cycle(n: usize) -> Csr {
        let mut edges: Vec<_> = (1..n as u32).map(|v| (v - 1, v)).collect();
        edges.push((0, n as u32 - 1));
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn plan_builder_sorts_by_cycle_stably() {
        let p = FaultPlan::new()
            .link_down(5, 0, 1)
            .node_down(2, 3)
            .link_up(5, 0, 1)
            .link_down(0, 1, 2);
        let cycles: Vec<u32> = p.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 2, 5, 5]);
        // Same-cycle events stay in insertion order: down before up.
        assert!(matches!(p.events()[2].kind, FaultKind::LinkDown { .. }));
        assert!(matches!(p.events()[3].kind, FaultKind::LinkUp { .. }));
        assert_eq!(p.horizon(), Some(5));
    }

    #[test]
    fn random_plans_are_deterministic_and_rate_scaled() {
        let g = cycle(64);
        let a = FaultPlan::random_links(&g, 0.25, 42, 8, Some(3)).unwrap();
        let b = FaultPlan::random_links(&g, 0.25, 42, 8, Some(3)).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::random_links(&g, 0.25, 43, 8, Some(3)).unwrap();
        assert_ne!(a, c, "a different seed must give a different plan");
        assert!(FaultPlan::random_links(&g, 0.0, 42, 8, None)
            .unwrap()
            .is_empty());
        let all = FaultPlan::random_links(&g, 1.0, 42, 1, None).unwrap();
        assert_eq!(all.len(), g.edge_count());
        assert!(all.events().iter().all(|e| e.cycle == 0));
        // Every repair trails its failure by exactly k.
        for w in a.events() {
            if let FaultKind::LinkDown { u, v } = w.kind {
                assert!(a
                    .events()
                    .iter()
                    .any(|e| e.kind == FaultKind::LinkUp { u, v } && e.cycle == w.cycle + 3));
            }
        }
    }

    #[test]
    fn degenerate_rates_are_rejected_not_silently_absorbed() {
        let g = cycle(8);
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    FaultPlan::random_links(&g, bad, 1, 4, None),
                    Err(SimError::InvalidRate { .. })
                ),
                "rate {bad} must be rejected"
            );
            assert!(matches!(
                FaultPlan::random_nodes(&g, bad, 1, 4),
                Err(SimError::InvalidRate { .. })
            ));
        }
        // The boundary values are legal probabilities.
        assert!(FaultPlan::random_links(&g, 0.0, 1, 4, None).is_ok());
        assert!(FaultPlan::random_nodes(&g, 1.0, 1, 4).is_ok());
    }

    #[test]
    fn random_nodes_and_merged_compose() {
        let g = cycle(64);
        let nodes = FaultPlan::random_nodes(&g, 0.25, 7, 8).unwrap();
        assert_eq!(nodes, FaultPlan::random_nodes(&g, 0.25, 7, 8).unwrap());
        assert!(!nodes.is_empty());
        assert!(nodes
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::NodeDown { .. })));
        let links = FaultPlan::random_links(&g, 0.25, 7, 8, None).unwrap();
        let both = links.clone().merged(nodes.clone());
        assert_eq!(both.len(), links.len() + nodes.len());
        let cycles: Vec<u32> = both.events().iter().map(|e| e.cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "merged stays sorted"
        );
    }

    #[test]
    fn fault_state_snapshot_round_trips_mid_plan() {
        let g = cycle(8);
        let plan = FaultPlan::new()
            .link_down(0, 0, 1)
            .node_down(2, 4)
            .link_up(5, 0, 1);
        let mut st = FaultState::new(&g, plan).unwrap().with_max_idle_wait(99);
        st.apply_due(&g);
        st.advance_clock(3);
        st.apply_due(&g); // link {0,1} down, node 4 down; link-up still pending
        let mut buf = Vec::new();
        st.encode(&mut buf);
        let mut pos = 0;
        let mut back = FaultState::decode(&g, &buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "decode must consume the whole snapshot");
        assert_eq!(back.clock(), st.clock());
        assert_eq!(back.max_idle_wait(), 99);
        assert_eq!(back.down_links(), st.down_links());
        assert_eq!(back.down_nodes(), st.down_nodes());
        assert_eq!(back.pending(), Some(5));
        for v in 0..8u32 {
            for dst in 0..8u32 {
                assert_eq!(back.next_hop(&g, v, dst), st.next_hop(&g, v, dst));
            }
        }
        // The restored state keeps consuming the plan identically.
        back.advance_clock(2);
        st.advance_clock(2);
        assert!(back.apply_due(&g) && st.apply_due(&g));
        assert_eq!(back.down_links(), 0);
        assert_eq!(st.down_links(), 0);
    }

    #[test]
    fn fault_state_decode_rejects_garbage() {
        let g = cycle(8);
        let mut buf = Vec::new();
        FaultState::new(&g, FaultPlan::new().link_down(0, 0, 7))
            .unwrap()
            .encode(&mut buf);
        // Truncation anywhere must error, never panic.
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                matches!(
                    FaultState::decode(&g, &buf[..cut], &mut pos),
                    Err(SimError::InvalidFault { .. })
                ),
                "cut at {cut} must be a decode error"
            );
        }
        // A snapshot for one host must not drive a different one.
        let mut pos = 0;
        assert!(FaultState::decode(&path(3), &buf, &mut pos).is_err());
    }

    #[test]
    fn validation_rejects_bogus_events() {
        let g = path(4);
        let bad_link = FaultPlan::new().link_down(0, 0, 2);
        assert!(matches!(
            FaultState::new(&g, bad_link),
            Err(SimError::InvalidFault { .. })
        ));
        let bad_node = FaultPlan::new().node_down(0, 9);
        assert!(matches!(
            FaultState::new(&g, bad_node),
            Err(SimError::InvalidFault { .. })
        ));
    }

    #[test]
    fn events_apply_in_clock_order_and_bump_epochs() {
        let g = path(4);
        let plan = FaultPlan::new().link_down(0, 1, 2).link_up(3, 1, 2);
        let mut st = FaultState::new(&g, plan).unwrap();
        assert!(!st.is_trivial());
        assert!(st.apply_due(&g));
        assert!(st.active());
        assert_eq!(st.down_links(), 1);
        assert!(!st.link_alive(&g, 1, 2));
        assert!(!st.link_alive(&g, 2, 1));
        assert!(st.link_alive(&g, 0, 1));
        assert_eq!(st.pending(), Some(3));
        // Nothing more due until the clock reaches 3.
        assert!(!st.apply_due(&g));
        st.advance_clock(3);
        assert!(st.apply_due(&g));
        assert!(!st.active());
        assert!(st.is_trivial());
        assert!(st.link_alive(&g, 1, 2));
    }

    #[test]
    fn survivor_routing_detours_around_a_dead_link() {
        // 4-cycle: killing {0, 1} forces 0 -> 1 traffic the long way round.
        let g = cycle(4);
        let mut st = FaultState::new(&g, FaultPlan::new().link_down(0, 0, 1)).unwrap();
        st.apply_due(&g);
        assert_eq!(st.distance(&g, 0, 1), Some(3));
        assert_eq!(st.next_hop(&g, 0, 1), Some(3));
        assert_eq!(st.next_hop(&g, 3, 1), Some(2));
        // The untouched direction still routes directly.
        assert_eq!(st.distance(&g, 1, 2), Some(1));
    }

    #[test]
    fn node_down_isolates_and_freezes() {
        let g = path(4);
        let mut st = FaultState::new(&g, FaultPlan::new().node_down(0, 1)).unwrap();
        st.apply_due(&g);
        assert!(!st.node_alive(1));
        assert_eq!(st.down_nodes(), 1);
        // Vertex 1 is gone: 0 is cut off from 2 and 3.
        assert!(!st.reachable(&g, 0, 3));
        assert!(st.reachable(&g, 2, 3));
        // Routing to or from the dead node is impossible.
        assert_eq!(st.next_hop(&g, 0, 1), None);
        assert_eq!(st.next_hop(&g, 1, 3), None);
    }

    #[test]
    fn cached_tables_refresh_after_repair() {
        let g = cycle(4);
        let plan = FaultPlan::new().link_down(0, 0, 1).link_up(2, 0, 1);
        let mut st = FaultState::new(&g, plan).unwrap();
        st.apply_due(&g);
        assert_eq!(st.distance(&g, 0, 1), Some(3));
        st.advance_clock(2);
        st.apply_due(&g);
        assert_eq!(
            st.distance(&g, 0, 1),
            Some(1),
            "repair must invalidate the cache"
        );
        assert_eq!(st.next_hop(&g, 0, 1), Some(1));
    }

    #[test]
    fn survivor_next_hop_matches_dense_convention_when_undamaged() {
        // With nothing down, survivor routing must equal the smallest-id
        // downhill rule of the dense tables.
        let g = cycle(6);
        let mut st = FaultState::new(&g, FaultPlan::new()).unwrap();
        let table = xtree_host::TableHost::new(g.clone()).unwrap();
        use xtree_host::Host;
        for v in 0..6u32 {
            for dst in 0..6u32 {
                assert_eq!(st.next_hop(&g, v, dst), Some(table.next_hop(v, dst)));
                assert_eq!(st.distance(&g, v, dst), Some(table.distance(v, dst)));
            }
        }
    }
}
