//! The synchronous message-passing engine.
//!
//! Model: time advances in clock cycles; in each cycle every *directed*
//! link of the host network can carry at most one message. Messages follow
//! shortest-path routes (deterministic next-hop routing); when several
//! messages want the same link in the same cycle, the lowest id wins and
//! the rest wait (FIFO by id — deterministic and starvation-free since
//! ids are fixed).
//!
//! This is the cost model behind the paper's motivation: an embedding with
//! dilation `d` lets formerly adjacent tree processors communicate within
//! `d` cycles — plus whatever congestion the embedding causes, which the
//! engine measures rather than assumes away.
//!
//! The cycle loop is allocation-free: per-message and per-link state live
//! in flat scratch buffers inside [`Engine`] (links are addressed by
//! [`Csr::directed_edge_index`], link claims are epoch-stamped so they
//! never need clearing, and finished messages are compacted out of the
//! active list in id order). [`run_batch`] is a convenience wrapper that
//! spins up a fresh engine; sweeps should hold one `Engine` and reuse it
//! across batches so the buffers warm up once.
//!
//! **Faults.** [`Engine::run_batch_faulted`] delivers a batch while a
//! [`FaultState`] kills and repairs links/nodes mid-flight. Routing then
//! comes from cached survivor-graph BFS tables instead of the closed-form
//! router, messages whose destination is currently unreachable wait for
//! repairs, and the result is a [`BatchOutcome`] instead of bare stats:
//! full delivery, partial delivery with the stranded messages, or a
//! `Stalled` diagnosis from the progress watchdog — never a hang and
//! never a panic. The fault-free path does not check a single fault flag,
//! so scheduling no faults costs nothing.
//!
//! **Telemetry.** [`Engine::run_batch_with`] and
//! [`Engine::run_batch_faulted_with`] thread a [`Sink`] through the cycle
//! loop, emitting typed [`Event`]s (hops, contention, deliveries, fault
//! applications, reroute sweeps, watchdog jumps). Sinks dispatch
//! statically and every emission site is guarded by the sink's
//! `const ACTIVE`, so the plain entry points — which pass
//! [`NopSink`] — compile to the same machine code as before
//! instrumentation existed (`telbench` measures this).

use crate::error::SimError;
use crate::fault::FaultState;
use xtree_host::Host;
use xtree_telemetry::{Event, NopSink, Sink};
use xtree_topology::{Csr, Graph};

/// A message to deliver: from host vertex `src` to host vertex `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    pub src: u32,
    pub dst: u32,
}

/// Result of delivering one batch of messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchStats {
    /// Cycles until every message arrived (for faulted batches: cycles
    /// until the engine settled, idle repair-waiting included).
    pub cycles: u32,
    /// Lower bound: the longest route in the batch (zero congestion, on
    /// the *undamaged* host — so faulted slowdowns compare against the
    /// healthy network).
    pub ideal_cycles: u32,
    /// Number of messages (those with `src == dst` deliver instantly).
    pub messages: usize,
    /// Maximum number of messages that crossed one directed link over the
    /// whole batch — the batch's *congestion*.
    pub max_link_traffic: u32,
    /// Total hops travelled by all messages.
    pub total_hops: u64,
}

/// How a faulted batch ended (see [`Engine::run_batch_faulted`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Every message arrived.
    Delivered(BatchStats),
    /// Every message that could arrive did; the rest are permanently cut
    /// off (their destination sits in another survivor component and the
    /// plan holds no further repairs).
    Partial {
        /// Stats up to the point the engine proved no progress was left.
        stats: BatchStats,
        /// Ids (indices into the batch) of the stranded messages.
        stranded: Vec<u32>,
    },
    /// The progress watchdog gave up: undelivered messages remain but the
    /// next possible topology change is beyond the engine's idle-wait
    /// budget (or the convergence bound was exceeded — a routing bug
    /// surfaced as data rather than a panic or an infinite loop).
    Stalled {
        /// Stats up to the diagnosis.
        stats: BatchStats,
        /// Ids of the messages still in flight.
        undelivered: Vec<u32>,
        /// The fault-clock cycle of the repair the engine declined to wait
        /// for (`None` when the convergence bound tripped instead).
        waiting_for: Option<u32>,
    },
}

impl BatchOutcome {
    /// The batch statistics, whatever the outcome.
    pub fn stats(&self) -> &BatchStats {
        match self {
            BatchOutcome::Delivered(s) => s,
            BatchOutcome::Partial { stats, .. } | BatchOutcome::Stalled { stats, .. } => stats,
        }
    }

    /// True when every message arrived.
    pub fn delivered_all(&self) -> bool {
        matches!(self, BatchOutcome::Delivered(_))
    }

    /// Messages proven permanently unreachable (empty unless `Partial`).
    pub fn stranded(&self) -> &[u32] {
        match self {
            BatchOutcome::Partial { stranded, .. } => stranded,
            _ => &[],
        }
    }

    /// Every message that did not arrive, for any reason.
    pub fn undelivered(&self) -> &[u32] {
        match self {
            BatchOutcome::Delivered(_) => &[],
            BatchOutcome::Partial { stranded, .. } => stranded,
            BatchOutcome::Stalled { undelivered, .. } => undelivered,
        }
    }

    /// True when the watchdog diagnosed a stall.
    pub fn is_stalled(&self) -> bool {
        matches!(self, BatchOutcome::Stalled { .. })
    }
}

/// Sentinel in `hop_edge` for a message whose destination is currently
/// unreachable on the survivor graph (it waits instead of claiming).
const UNROUTABLE: u32 = u32::MAX;

/// Reusable scratch state for [`Engine::run_batch`].
///
/// All buffers are sized on first use (and re-sized only when a batch or
/// host outgrows them), so repeated batches on the same network do no
/// heap allocation at all.
#[derive(Default)]
pub struct Engine {
    /// Current host vertex of message `i`.
    at: Vec<u32>,
    /// Destination of message `i`.
    dst: Vec<u32>,
    /// Ids of undelivered messages, always in ascending order.
    active: Vec<u32>,
    /// Next hop of message `i` from its current vertex. Routing is
    /// deterministic and blocked messages do not move, so this is computed
    /// once per *advance* rather than once per cycle — under congestion
    /// most of a cycle's messages reuse it unchanged.
    hop_to: Vec<u32>,
    /// Directed-edge index of that hop ([`UNROUTABLE`] = waiting).
    hop_edge: Vec<u32>,
    /// Lowest message id that claimed each directed link this cycle …
    claim_msg: Vec<u32>,
    /// … valid only when the link's stamp equals the current epoch, which
    /// removes the per-cycle `O(links)` clear.
    claim_epoch: Vec<u64>,
    /// Monotone cycle counter across all batches run on this engine.
    epoch: u64,
    /// Messages that crossed each directed link in the current batch.
    traffic: Vec<u32>,
    /// Links with non-zero traffic, for `O(touched)` reset.
    touched: Vec<u32>,
}

impl Engine {
    /// A fresh engine; buffers grow on first use.
    pub fn new() -> Self {
        Engine::default()
    }

    /// The engine's monotone clock: total delivery cycles across every
    /// batch run on this engine. Checkpoints store it so a resumed run
    /// reports the same cumulative timeline.
    pub fn clock(&self) -> u64 {
        self.epoch
    }

    /// Fast-forwards the clock to at least `clock` (it never moves
    /// backwards: the link-claim stamps rely on the epoch being monotone).
    pub fn restore_clock(&mut self, clock: u64) {
        self.epoch = self.epoch.max(clock);
    }

    fn reserve(&mut self, links: usize, messages: usize) {
        if self.claim_epoch.len() < links {
            self.claim_msg.resize(links, 0);
            self.claim_epoch.resize(links, 0);
            self.traffic.resize(links, 0);
        }
        self.at.clear();
        self.dst.clear();
        self.active.clear();
        if self.hop_to.len() < messages {
            self.hop_to.resize(messages, 0);
            self.hop_edge.resize(messages, 0);
        }
    }

    /// Folds the per-link traffic counters into the batch congestion and
    /// resets them, leaving the scratch ready for the next batch.
    fn drain_traffic(&mut self) -> u32 {
        let mut max_link_traffic = 0u32;
        for &e in &self.touched {
            max_link_traffic = max_link_traffic.max(self.traffic[e as usize]);
            self.traffic[e as usize] = 0;
        }
        self.touched.clear();
        max_link_traffic
    }

    /// Delivers `messages` on `net`, one hop per free link per cycle.
    ///
    /// # Errors
    /// [`SimError::RouterInvariant`] if the network's router proposes a
    /// non-neighbour, [`SimError::Diverged`] if the convergence bound is
    /// exceeded — both indicate a routing bug, reported instead of
    /// panicking.
    pub fn run_batch<H: Host>(
        &mut self,
        net: &H,
        messages: &[Message],
    ) -> Result<BatchStats, SimError> {
        self.run_batch_with(net, messages, &mut NopSink)
    }

    /// [`Engine::run_batch`] with telemetry: every hop, link arbitration
    /// loss, and delivery is reported to `sink`. With [`NopSink`] this *is*
    /// `run_batch` — the instrumentation compiles out.
    ///
    /// # Errors
    /// See [`Engine::run_batch`].
    pub fn run_batch_with<H: Host, S: Sink>(
        &mut self,
        net: &H,
        messages: &[Message],
        sink: &mut S,
    ) -> Result<BatchStats, SimError> {
        let graph: &Csr = net.csr();
        self.reserve(graph.directed_edge_count(), messages.len());
        if S::ACTIVE {
            sink.record(Event::BatchStarted {
                messages: messages.len() as u32,
            });
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
                self.drain_traffic();
                return Err(SimError::Diverged {
                    cycle: cycles,
                    undelivered,
                });
            }
            self.epoch += 1;
            // Pass 1: the lowest id claims each link (active ids are
            // ascending, so first writer wins). Hops were routed when the
            // message last moved.
            for &i in &self.active {
                let e = self.hop_edge[i as usize] as usize;
                if self.claim_epoch[e] != self.epoch {
                    self.claim_epoch[e] = self.epoch;
                    self.claim_msg[e] = i;
                }
            }
            // Pass 2: advance claim winners and route their next hop;
            // compact survivors in place, preserving ascending id order.
            let mut w = 0usize;
            for k in 0..self.active.len() {
                let i = self.active[k];
                let e = self.hop_edge[i as usize] as usize;
                if self.claim_msg[e] == i {
                    let to = self.hop_to[i as usize];
                    if S::ACTIVE {
                        sink.record(Event::HopTaken {
                            cycle: u64::from(cycles),
                            msg: i,
                            from: self.at[i as usize],
                            to,
                            edge: e as u32,
                        });
                    }
                    self.at[i as usize] = to;
                    total_hops += 1;
                    if self.traffic[e] == 0 {
                        self.touched.push(e as u32);
                    }
                    self.traffic[e] += 1;
                    let dst = self.dst[i as usize];
                    if to == dst {
                        if S::ACTIVE {
                            sink.record(Event::MessageDelivered {
                                cycle: u64::from(cycles),
                                msg: i,
                                at: to,
                            });
                        }
                        continue; // delivered — drop from the active list
                    }
                    let next = net.next_hop(to, dst);
                    self.hop_to[i as usize] = next;
                    self.hop_edge[i as usize] = graph
                        .directed_edge_index(to, next)
                        .ok_or(SimError::RouterInvariant { at: to, to: next })?;
                } else if S::ACTIVE {
                    sink.record(Event::LinkContended {
                        cycle: u64::from(cycles),
                        edge: e as u32,
                        msg: i,
                        winner: self.claim_msg[e],
                    });
                }
                self.active[w] = i;
                w += 1;
            }
            self.active.truncate(w);
        }
        Ok(BatchStats {
            cycles,
            ideal_cycles,
            messages: messages.len(),
            max_link_traffic: self.drain_traffic(),
            total_hops,
        })
    }

    /// Routes message `i` on the survivor graph, parking it as
    /// [`UNROUTABLE`] when its destination is currently cut off.
    fn route_survivor(
        &mut self,
        graph: &Csr,
        faults: &mut FaultState,
        i: usize,
    ) -> Result<(), SimError> {
        let (at, dst) = (self.at[i], self.dst[i]);
        match faults.next_hop(graph, at, dst) {
            Some(to) if to != at => {
                self.hop_to[i] = to;
                self.hop_edge[i] = graph
                    .directed_edge_index(at, to)
                    .ok_or(SimError::RouterInvariant { at, to })?;
            }
            _ => self.hop_edge[i] = UNROUTABLE,
        }
        Ok(())
    }

    /// Delivers `messages` on `net` while `faults` damages and repairs the
    /// topology.
    ///
    /// Each delivery cycle advances the fault clock by one; due events
    /// apply at the start of the cycle and invalidate every in-flight
    /// route (failed links reject claims — messages re-route on the
    /// survivor graph and detour around damage whenever their destination
    /// stays reachable). A message whose destination is currently cut off
    /// waits; if nothing can move the engine either jumps the clock to the
    /// next scheduled event (when it is within
    /// [`FaultState::max_idle_wait`] cycles) or terminates with a typed
    /// verdict:
    ///
    /// * all destinations permanently unreachable and no events pending →
    ///   [`BatchOutcome::Partial`] with the stranded ids;
    /// * the next repair is beyond the idle-wait budget →
    ///   [`BatchOutcome::Stalled`] naming the cycle it refused to wait for.
    ///
    /// The watchdog bound is `H + (n + 1) · (m + 1) + max_idle_wait`
    /// cycles for a plan whose last event lies `H` cycles ahead, an
    /// `n`-vertex host, and `m` messages: after the last event the
    /// survivor graph is static and the lowest-id routable message moves
    /// every cycle, so a run past the bound is diagnosed as `Stalled`
    /// (never an infinite loop).
    ///
    /// One `FaultState` may span many batches: damage and the fault clock
    /// carry over, modelling a host that stays broken between rounds.
    ///
    /// # Errors
    /// [`SimError::InvalidFault`] when `faults` was built for a different
    /// host, [`SimError::RouterInvariant`] on a survivor-routing bug.
    pub fn run_batch_faulted<H: Host>(
        &mut self,
        net: &H,
        messages: &[Message],
        faults: &mut FaultState,
    ) -> Result<BatchOutcome, SimError> {
        self.run_batch_faulted_with(net, messages, faults, &mut NopSink)
    }

    /// [`Engine::run_batch_faulted`] with telemetry: beyond the fast-path
    /// events, `sink` sees every fault application, survivor-reroute
    /// sweep, and watchdog clock jump. With [`NopSink`] this *is*
    /// `run_batch_faulted`.
    ///
    /// # Errors
    /// See [`Engine::run_batch_faulted`].
    pub fn run_batch_faulted_with<H: Host, S: Sink>(
        &mut self,
        net: &H,
        messages: &[Message],
        faults: &mut FaultState,
        sink: &mut S,
    ) -> Result<BatchOutcome, SimError> {
        // A trivial state never affects delivery: take the fault-free fast
        // path, which checks no fault flags at all.
        if faults.is_trivial() {
            return Ok(BatchOutcome::Delivered(
                self.run_batch_with(net, messages, sink)?,
            ));
        }
        enum End {
            Delivered,
            Stranded,
            Stalled(Option<u32>),
        }
        let graph: &Csr = net.csr();
        faults.check_host(graph)?;
        self.reserve(graph.directed_edge_count(), messages.len());
        if S::ACTIVE {
            sink.record(Event::BatchStarted {
                messages: messages.len() as u32,
            });
        }
        let mut ideal_cycles = 0u32;
        for (i, m) in messages.iter().enumerate() {
            self.at.push(m.src);
            self.dst.push(m.dst);
            if m.src != m.dst {
                self.active.push(i as u32);
            }
            ideal_cycles = ideal_cycles.max(net.distance(m.src, m.dst));
        }
        let horizon = faults
            .horizon()
            .map_or(0, |h| u64::from(h.saturating_sub(faults.clock())));
        let hard_limit: u64 = horizon
            + (graph.node_count() as u64 + 1) * (messages.len() as u64 + 1)
            + u64::from(faults.max_idle_wait());
        let mut cycles = 0u64;
        let mut total_hops = 0u64;
        let mut need_reroute = true;
        let end = loop {
            if self.active.is_empty() {
                break End::Delivered;
            }
            if faults.apply_due(graph) {
                // Topology changed: every cached hop may now cross a dead
                // link or follow a stale detour, so recompute them all.
                need_reroute = true;
                if S::ACTIVE {
                    sink.record(Event::FaultApplied {
                        cycle: cycles,
                        down_links: faults.down_links() as u32,
                        down_nodes: faults.down_nodes() as u32,
                    });
                }
            }
            if need_reroute {
                for k in 0..self.active.len() {
                    let i = self.active[k] as usize;
                    self.route_survivor(graph, faults, i)?;
                }
                need_reroute = false;
                if S::ACTIVE {
                    sink.record(Event::RerouteComputed {
                        cycle: cycles,
                        messages: self.active.len() as u32,
                    });
                }
            }
            let any_routable = self
                .active
                .iter()
                .any(|&i| self.hop_edge[i as usize] != UNROUTABLE);
            if !any_routable {
                match faults.pending() {
                    Some(event_cycle) => {
                        // Idle until the network changes again — but only
                        // within the watchdog's patience.
                        let wait = event_cycle.saturating_sub(faults.clock()).max(1);
                        if wait > faults.max_idle_wait() {
                            break End::Stalled(Some(event_cycle));
                        }
                        cycles += u64::from(wait);
                        faults.advance_clock(wait);
                        if S::ACTIVE {
                            sink.record(Event::WatchdogIdle {
                                cycle: cycles,
                                skipped: u64::from(wait),
                            });
                        }
                        continue;
                    }
                    // No repair will ever arrive: everyone left is
                    // provably stranded.
                    None => break End::Stranded,
                }
            }
            cycles += 1;
            faults.advance_clock(1);
            if cycles > hard_limit {
                break End::Stalled(None);
            }
            self.epoch += 1;
            // Pass 1: claims, exactly as in the fault-free loop — waiting
            // messages do not claim, and routes are never stale here (they
            // are rebuilt on every topology change), so a claimed link is
            // always alive.
            for &i in &self.active {
                let e = self.hop_edge[i as usize];
                if e == UNROUTABLE {
                    continue;
                }
                let e = e as usize;
                if self.claim_epoch[e] != self.epoch {
                    self.claim_epoch[e] = self.epoch;
                    self.claim_msg[e] = i;
                }
            }
            // Pass 2: advance winners, re-route them on the survivor graph.
            let mut w = 0usize;
            for k in 0..self.active.len() {
                let i = self.active[k];
                let e = self.hop_edge[i as usize];
                if e != UNROUTABLE && self.claim_msg[e as usize] == i {
                    let e = e as usize;
                    let to = self.hop_to[i as usize];
                    if S::ACTIVE {
                        sink.record(Event::HopTaken {
                            cycle: cycles,
                            msg: i,
                            from: self.at[i as usize],
                            to,
                            edge: e as u32,
                        });
                    }
                    self.at[i as usize] = to;
                    total_hops += 1;
                    if self.traffic[e] == 0 {
                        self.touched.push(e as u32);
                    }
                    self.traffic[e] += 1;
                    if to == self.dst[i as usize] {
                        if S::ACTIVE {
                            sink.record(Event::MessageDelivered {
                                cycle: cycles,
                                msg: i,
                                at: to,
                            });
                        }
                        continue; // delivered
                    }
                    self.route_survivor(graph, faults, i as usize)?;
                } else if S::ACTIVE && e != UNROUTABLE {
                    sink.record(Event::LinkContended {
                        cycle: cycles,
                        edge: e,
                        msg: i,
                        winner: self.claim_msg[e as usize],
                    });
                }
                self.active[w] = i;
                w += 1;
            }
            self.active.truncate(w);
        };
        let undelivered: Vec<u32> = std::mem::take(&mut self.active);
        let stats = BatchStats {
            cycles: u32::try_from(cycles).unwrap_or(u32::MAX),
            ideal_cycles,
            messages: messages.len(),
            max_link_traffic: self.drain_traffic(),
            total_hops,
        };
        Ok(match end {
            End::Delivered => BatchOutcome::Delivered(stats),
            End::Stranded => BatchOutcome::Partial {
                stats,
                stranded: undelivered,
            },
            End::Stalled(waiting_for) => BatchOutcome::Stalled {
                stats,
                undelivered,
                waiting_for,
            },
        })
    }
}

/// Delivers one batch on a throwaway [`Engine`].
///
/// # Errors
/// See [`Engine::run_batch`].
pub fn run_batch<H: Host>(net: &H, messages: &[Message]) -> Result<BatchStats, SimError> {
    Engine::new().run_batch(net, messages)
}

/// Runs a sequence of batches (e.g. one per tree level) on one shared
/// engine, so scratch buffers are allocated once for the whole sequence.
///
/// # Errors
/// See [`Engine::run_batch`].
pub fn run_rounds<H: Host>(net: &H, rounds: &[Vec<Message>]) -> Result<Vec<BatchStats>, SimError> {
    let mut engine = Engine::new();
    rounds.iter().map(|r| engine.run_batch(net, r)).collect()
}

/// Runs a batch sequence under one persistent [`FaultState`]: damage and
/// the fault clock carry across rounds, so a link that dies in round 2
/// stays dead for round 3 unless the plan repairs it.
///
/// # Errors
/// See [`Engine::run_batch_faulted`].
pub fn run_rounds_faulted<H: Host>(
    net: &H,
    rounds: &[Vec<Message>],
    faults: &mut FaultState,
) -> Result<Vec<BatchOutcome>, SimError> {
    let mut engine = Engine::new();
    rounds
        .iter()
        .map(|r| engine.run_batch_faulted(net, r, faults))
        .collect()
}

/// Total cycles across a batch sequence.
pub fn total_cycles(stats: &[BatchStats]) -> u32 {
    stats.iter().map(|s| s.cycles).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultState, DEFAULT_MAX_IDLE_WAIT};
    use xtree_host::{TableHost, XTreeHost};
    use xtree_topology::{Csr, Graph, XTree};

    fn path_net(n: usize) -> TableHost {
        let edges: Vec<_> = (1..n as u32).map(|v| (v - 1, v)).collect();
        TableHost::new(Csr::from_edges(n, &edges)).unwrap()
    }

    fn cycle_net(n: usize) -> TableHost {
        let mut edges: Vec<_> = (1..n as u32).map(|v| (v - 1, v)).collect();
        edges.push((0, n as u32 - 1));
        TableHost::new(Csr::from_edges(n, &edges)).unwrap()
    }

    /// The pre-optimisation engine, verbatim: hash maps keyed by vertex
    /// pairs, rebuilt every batch. The oracle for determinism tests.
    fn run_batch_reference<H: Host>(net: &H, messages: &[Message]) -> BatchStats {
        use std::collections::HashMap;
        let mut at: Vec<u32> = messages.iter().map(|m| m.src).collect();
        let mut done: Vec<bool> = messages.iter().map(|m| m.src == m.dst).collect();
        let ideal_cycles = messages
            .iter()
            .map(|m| net.distance(m.src, m.dst))
            .max()
            .unwrap_or(0);
        let mut remaining = done.iter().filter(|&&d| !d).count();
        let mut cycles = 0u32;
        let mut total_hops = 0u64;
        let mut link_traffic: HashMap<(u32, u32), u32> = HashMap::new();
        let mut claimed: HashMap<(u32, u32), usize> = HashMap::new();
        while remaining > 0 {
            cycles += 1;
            claimed.clear();
            for (i, m) in messages.iter().enumerate() {
                if done[i] {
                    continue;
                }
                let from = at[i];
                let to = net.next_hop(from, m.dst);
                claimed.entry((from, to)).or_insert(i);
            }
            for (i, m) in messages.iter().enumerate() {
                if done[i] {
                    continue;
                }
                let from = at[i];
                let to = net.next_hop(from, m.dst);
                if claimed.get(&(from, to)) != Some(&i) {
                    continue;
                }
                at[i] = to;
                total_hops += 1;
                *link_traffic.entry((from, to)).or_insert(0) += 1;
                if to == m.dst {
                    done[i] = true;
                    remaining -= 1;
                }
            }
        }
        BatchStats {
            cycles,
            ideal_cycles,
            messages: messages.len(),
            max_link_traffic: link_traffic.values().copied().max().unwrap_or(0),
            total_hops,
        }
    }

    #[test]
    fn single_message_takes_distance_cycles() {
        let net = path_net(10);
        let s = run_batch(&net, &[Message { src: 0, dst: 7 }]).unwrap();
        assert_eq!(s.cycles, 7);
        assert_eq!(s.ideal_cycles, 7);
        assert_eq!(s.total_hops, 7);
        assert_eq!(s.max_link_traffic, 1);
    }

    #[test]
    fn self_message_is_free() {
        let net = path_net(4);
        let s = run_batch(&net, &[Message { src: 2, dst: 2 }]).unwrap();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.total_hops, 0);
    }

    #[test]
    fn staggered_messages_pipeline_without_stall() {
        // 0→3 and 1→3 share links but never in the same cycle: perfect
        // pipelining, no queueing.
        let net = path_net(4);
        let msgs = [Message { src: 0, dst: 3 }, Message { src: 1, dst: 3 }];
        let s = run_batch(&net, &msgs).unwrap();
        assert_eq!(s.ideal_cycles, 3);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.max_link_traffic, 2);
    }

    #[test]
    fn contention_serialises_on_shared_link() {
        // Two messages leaving the same vertex for the same direction must
        // take turns on the first link: one cycle of queueing.
        let net = path_net(4);
        let msgs = [Message { src: 0, dst: 2 }, Message { src: 0, dst: 2 }];
        let s = run_batch(&net, &msgs).unwrap();
        assert_eq!(s.ideal_cycles, 2);
        assert_eq!(s.cycles, 3, "one cycle of queueing expected");
        assert_eq!(s.max_link_traffic, 2);
    }

    #[test]
    fn opposite_directions_do_not_collide() {
        // Directed links: a->b and b->a are distinct resources.
        let net = path_net(3);
        let msgs = [Message { src: 0, dst: 2 }, Message { src: 2, dst: 0 }];
        let s = run_batch(&net, &msgs).unwrap();
        assert_eq!(s.cycles, 2);
    }

    #[test]
    fn empty_batch() {
        let net = path_net(3);
        let s = run_batch(&net, &[]).unwrap();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.messages, 0);
    }

    #[test]
    fn xtree_horizontal_shortcut_used() {
        let net = XTreeHost::new(3);
        // 011 -> 100 are X-tree neighbours (horizontal edge): 1 cycle.
        let u = xtree_topology::Address::parse("011").unwrap().heap_id() as u32;
        let v = xtree_topology::Address::parse("100").unwrap().heap_id() as u32;
        let s = run_batch(&net, &[Message { src: u, dst: v }]).unwrap();
        assert_eq!(s.cycles, 1);
    }

    #[test]
    fn rounds_accumulate() {
        let net = path_net(5);
        let rounds = vec![
            vec![Message { src: 0, dst: 2 }],
            vec![Message { src: 2, dst: 4 }],
        ];
        let stats = run_rounds(&net, &rounds).unwrap();
        assert_eq!(total_cycles(&stats), 4);
    }

    #[test]
    fn matches_reference_engine_on_seeded_workloads() {
        // Deterministic pseudo-random batches on an X-tree host: the
        // rewritten engine must reproduce the reference engine's stats
        // bit for bit, with the engine reused across batches.
        let x = XTree::new(5);
        let (closed, table) = (
            XTreeHost::new(5),
            TableHost::new(x.graph().clone()).unwrap(),
        );
        let nets: [&dyn Host; 2] = [&closed, &table];
        let n = x.graph().node_count() as u64;
        let mut engine = Engine::new();
        for net in &nets {
            let mut state = 0x5EED_CAFE_u64;
            let mut rand = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for batch in 0..24 {
                let msgs: Vec<Message> = (0..(batch * 7) % 97)
                    .map(|_| Message {
                        src: (rand() % n) as u32,
                        dst: (rand() % n) as u32,
                    })
                    .collect();
                assert_eq!(
                    engine.run_batch(net, &msgs).unwrap(),
                    run_batch_reference(net, &msgs),
                    "batch {batch}"
                );
            }
        }
    }

    #[test]
    fn engine_reuse_is_stateless_between_batches() {
        // Same batch, fresh engine vs warmed engine: identical stats.
        let net = path_net(16);
        let msgs: Vec<Message> = (0..16)
            .flat_map(|s| (0..16).map(move |d| Message { src: s, dst: d }))
            .collect();
        let mut warmed = Engine::new();
        let first = warmed.run_batch(&net, &msgs).unwrap();
        for _ in 0..3 {
            assert_eq!(warmed.run_batch(&net, &msgs).unwrap(), first);
        }
        assert_eq!(Engine::new().run_batch(&net, &msgs).unwrap(), first);
    }

    // ---- faults ---------------------------------------------------------

    #[test]
    fn empty_fault_plan_is_bit_identical_to_the_fast_path() {
        let net = XTreeHost::new(4);
        let msgs: Vec<Message> = (0..24u32)
            .map(|i| Message {
                src: i % 31,
                dst: (i * 13 + 5) % 31,
            })
            .collect();
        let plain = run_batch(&net, &msgs).unwrap();
        let mut faults = FaultState::new(net.csr(), FaultPlan::new()).unwrap();
        let out = Engine::new()
            .run_batch_faulted(&net, &msgs, &mut faults)
            .unwrap();
        assert_eq!(out, BatchOutcome::Delivered(plain));
    }

    #[test]
    fn messages_detour_around_a_failed_link() {
        // 6-cycle, 0 -> 1 with the direct link dead: the detour is the
        // other way round the ring, 5 hops.
        let net = cycle_net(6);
        let plan = FaultPlan::new().link_down(0, 0, 1);
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let out = Engine::new()
            .run_batch_faulted(&net, &[Message { src: 0, dst: 1 }], &mut faults)
            .unwrap();
        let BatchOutcome::Delivered(s) = out else {
            panic!("connected survivor graph must deliver, got {out:?}");
        };
        assert_eq!(s.cycles, 5);
        assert_eq!(s.total_hops, 5);
        assert_eq!(s.ideal_cycles, 1, "ideal stays the undamaged bound");
    }

    #[test]
    fn repair_mid_batch_reopens_the_short_route() {
        // The dead link comes back at cycle 2: the message waits nowhere
        // near 5 hops because re-routing happens on the repair epoch.
        let net = cycle_net(6);
        let plan = FaultPlan::new().link_down(0, 0, 1).link_up(2, 0, 1);
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let out = Engine::new()
            .run_batch_faulted(&net, &[Message { src: 0, dst: 1 }], &mut faults)
            .unwrap();
        let BatchOutcome::Delivered(s) = out else {
            panic!("expected delivery, got {out:?}");
        };
        // 2 cycles walking the long way (0→5→4), then the repair applies
        // and the survivor route flips; the message walks back. Whatever
        // the exact path, it must beat the full 5-hop detour's *distance
        // remaining* and deliver.
        assert!(s.cycles <= 6, "repair must not slow past the detour: {s:?}");
    }

    #[test]
    fn partition_without_repair_reports_stranded_partial_delivery() {
        // path 0-1-2-3 with link {1,2} dead: 0→1 delivers, 0→3 and 2→0
        // are stranded, and the engine proves it without hanging.
        let net = path_net(4);
        let plan = FaultPlan::new().link_down(0, 1, 2);
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let msgs = [
            Message { src: 0, dst: 3 },
            Message { src: 0, dst: 1 },
            Message { src: 2, dst: 0 },
        ];
        let out = Engine::new()
            .run_batch_faulted(&net, &msgs, &mut faults)
            .unwrap();
        let BatchOutcome::Partial { stats, stranded } = out else {
            panic!("expected Partial, got {out:?}");
        };
        assert_eq!(stranded, vec![0, 2]);
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.total_hops, 1, "only 0→1 moved");
    }

    #[test]
    fn node_down_strands_messages_to_and_from_it() {
        let net = path_net(4);
        let plan = FaultPlan::new().node_down(0, 1);
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let msgs = [
            Message { src: 0, dst: 1 }, // into the dead node
            Message { src: 1, dst: 3 }, // frozen at the dead node
            Message { src: 2, dst: 3 }, // unaffected
        ];
        let out = Engine::new()
            .run_batch_faulted(&net, &msgs, &mut faults)
            .unwrap();
        assert_eq!(out.stranded(), &[0, 1]);
        assert!(!out.delivered_all());
    }

    #[test]
    fn watchdog_flags_stall_when_repair_never_arrives() {
        // The satellite scenario: the destination is fully partitioned and
        // the only scheduled "repair" lies far beyond the watchdog's
        // idle-wait budget — i.e. it never effectively arrives. The engine
        // must diagnose this within the documented bound instead of
        // hanging (or idling for two million cycles).
        let net = path_net(4);
        let never = DEFAULT_MAX_IDLE_WAIT * 40; // far past the patience
        let plan = FaultPlan::new().link_down(0, 1, 2).link_up(never, 1, 2);
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let msgs = [Message { src: 0, dst: 3 }];
        let out = Engine::new()
            .run_batch_faulted(&net, &msgs, &mut faults)
            .unwrap();
        let BatchOutcome::Stalled {
            stats,
            undelivered,
            waiting_for,
        } = out
        else {
            panic!("expected Stalled, got {out:?}");
        };
        assert_eq!(undelivered, vec![0]);
        assert_eq!(waiting_for, Some(never));
        // Documented watchdog bound: H + (n+1)(m+1) + max_idle_wait. The
        // diagnosis must arrive well inside it — here, essentially
        // instantly, since nothing can move from cycle one.
        let bound = u64::from(never) + 5 * 2 + u64::from(DEFAULT_MAX_IDLE_WAIT);
        assert!(u64::from(stats.cycles) <= bound);
        assert!(
            stats.cycles <= 2,
            "diagnosis should be immediate: {stats:?}"
        );
    }

    #[test]
    fn patient_engine_waits_through_a_late_repair() {
        // Same scenario, but the caller raises the idle-wait budget past
        // the repair: the engine skips the dead time and delivers.
        let net = path_net(4);
        let repair_at = 100_000;
        let plan = FaultPlan::new().link_down(0, 1, 2).link_up(repair_at, 1, 2);
        let mut faults = FaultState::new(net.csr(), plan)
            .unwrap()
            .with_max_idle_wait(repair_at + 1);
        let msgs = [Message { src: 0, dst: 3 }];
        let out = Engine::new()
            .run_batch_faulted(&net, &msgs, &mut faults)
            .unwrap();
        let BatchOutcome::Delivered(s) = out else {
            panic!("expected delivery after the repair, got {out:?}");
        };
        assert!(s.cycles >= repair_at, "waiting time is real time: {s:?}");
        assert_eq!(s.total_hops, 3);
    }

    #[test]
    fn fault_state_persists_across_batches() {
        // Round 1 runs under a dead link; the repair lands on the shared
        // fault clock, so round 2 sees the healed network.
        let net = cycle_net(6);
        let plan = FaultPlan::new().link_down(0, 0, 1).link_up(5, 0, 1);
        let mut faults = FaultState::new(net.csr(), plan).unwrap();
        let rounds = vec![
            vec![Message { src: 0, dst: 1 }], // detours: 5 cycles
            vec![Message { src: 0, dst: 1 }], // healed: 1 cycle
        ];
        let outs = run_rounds_faulted(&net, &rounds, &mut faults).unwrap();
        assert_eq!(outs[0].stats().cycles, 5);
        assert_eq!(outs[1].stats().cycles, 1);
        assert!(outs.iter().all(|o| o.delivered_all()));
    }

    #[test]
    fn fault_state_rejects_a_mismatched_host() {
        let net = path_net(4);
        let other = cycle_net(8);
        let mut faults = FaultState::new(other.csr(), FaultPlan::new().link_down(0, 0, 1)).unwrap();
        let err = Engine::new()
            .run_batch_faulted(&net, &[Message { src: 0, dst: 3 }], &mut faults)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidFault { .. }));
    }
}
