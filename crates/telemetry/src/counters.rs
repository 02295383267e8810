//! Event counters: plain ones for one thread, lock-free ones for many.
//!
//! [`AtomicCounters`] tallies events with relaxed atomic adds — no locks,
//! no contention beyond the cache line — and `&AtomicCounters` implements
//! [`Sink`], so a rayon sweep can hand every worker a shared reference to
//! one instance and read a consistent total afterwards ([`snapshot`]).
//!
//! [`Counters`] is a [`Sink`] too, with plain adds. A thread that runs a
//! whole simulation on its own tallies into one and folds it into the
//! shared block with a single [`add`], instead of one atomic add per
//! event on cache lines other threads write.
//!
//! [`snapshot`]: AtomicCounters::snapshot
//! [`add`]: AtomicCounters::add

use crate::event::Event;
use crate::sink::Sink;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Shared event tallies, updated with relaxed atomics.
#[derive(Debug, Default)]
pub struct AtomicCounters {
    batches: AtomicU64,
    hops: AtomicU64,
    contentions: AtomicU64,
    delivered: AtomicU64,
    faults_applied: AtomicU64,
    reroutes: AtomicU64,
    idle_jumps: AtomicU64,
    idle_cycles_skipped: AtomicU64,
    recovery_attempts: AtomicU64,
    requeues: AtomicU64,
    repairs: AtomicU64,
    checkpoints: AtomicU64,
}

/// A plain-value copy of [`AtomicCounters`] at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub batches: u64,
    pub hops: u64,
    pub contentions: u64,
    pub delivered: u64,
    pub faults_applied: u64,
    pub reroutes: u64,
    pub idle_jumps: u64,
    pub idle_cycles_skipped: u64,
    pub recovery_attempts: u64,
    pub requeues: u64,
    pub repairs: u64,
    pub checkpoints: u64,
}

impl Counters {
    /// Total events these counters account for.
    pub fn events(&self) -> u64 {
        self.batches
            + self.hops
            + self.contentions
            + self.delivered
            + self.faults_applied
            + self.reroutes
            + self.idle_jumps
            + self.recovery_attempts
            + self.requeues
            + self.repairs
            + self.checkpoints
    }
}

impl AtomicCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        AtomicCounters::default()
    }

    /// Tallies one event (usable through a shared reference).
    pub fn record(&self, ev: Event) {
        let c = match ev {
            Event::BatchStarted { .. } => &self.batches,
            Event::HopTaken { .. } => &self.hops,
            Event::LinkContended { .. } => &self.contentions,
            Event::MessageDelivered { .. } => &self.delivered,
            Event::FaultApplied { .. } => &self.faults_applied,
            Event::RerouteComputed { .. } => &self.reroutes,
            Event::WatchdogIdle { skipped, .. } => {
                self.idle_cycles_skipped.fetch_add(skipped, Relaxed);
                &self.idle_jumps
            }
            Event::RecoveryAttempt { .. } => &self.recovery_attempts,
            Event::MessageRequeued { .. } => &self.requeues,
            Event::EmbeddingRepaired { .. } => &self.repairs,
            Event::CheckpointWritten { .. } => &self.checkpoints,
        };
        c.fetch_add(1, Relaxed);
    }

    /// Adds every field of `c`, e.g. one request's locally tallied events.
    pub fn add(&self, c: &Counters) {
        self.batches.fetch_add(c.batches, Relaxed);
        self.hops.fetch_add(c.hops, Relaxed);
        self.contentions.fetch_add(c.contentions, Relaxed);
        self.delivered.fetch_add(c.delivered, Relaxed);
        self.faults_applied.fetch_add(c.faults_applied, Relaxed);
        self.reroutes.fetch_add(c.reroutes, Relaxed);
        self.idle_jumps.fetch_add(c.idle_jumps, Relaxed);
        self.idle_cycles_skipped
            .fetch_add(c.idle_cycles_skipped, Relaxed);
        self.recovery_attempts
            .fetch_add(c.recovery_attempts, Relaxed);
        self.requeues.fetch_add(c.requeues, Relaxed);
        self.repairs.fetch_add(c.repairs, Relaxed);
        self.checkpoints.fetch_add(c.checkpoints, Relaxed);
    }

    /// A consistent-enough copy: exact once all writers are done.
    pub fn snapshot(&self) -> Counters {
        Counters {
            batches: self.batches.load(Relaxed),
            hops: self.hops.load(Relaxed),
            contentions: self.contentions.load(Relaxed),
            delivered: self.delivered.load(Relaxed),
            faults_applied: self.faults_applied.load(Relaxed),
            reroutes: self.reroutes.load(Relaxed),
            idle_jumps: self.idle_jumps.load(Relaxed),
            idle_cycles_skipped: self.idle_cycles_skipped.load(Relaxed),
            recovery_attempts: self.recovery_attempts.load(Relaxed),
            requeues: self.requeues.load(Relaxed),
            repairs: self.repairs.load(Relaxed),
            checkpoints: self.checkpoints.load(Relaxed),
        }
    }
}

/// Plain counting: the single-threaded twin of [`AtomicCounters::record`].
impl Sink for Counters {
    #[inline]
    fn record(&mut self, ev: Event) {
        let c = match ev {
            Event::BatchStarted { .. } => &mut self.batches,
            Event::HopTaken { .. } => &mut self.hops,
            Event::LinkContended { .. } => &mut self.contentions,
            Event::MessageDelivered { .. } => &mut self.delivered,
            Event::FaultApplied { .. } => &mut self.faults_applied,
            Event::RerouteComputed { .. } => &mut self.reroutes,
            Event::WatchdogIdle { skipped, .. } => {
                self.idle_cycles_skipped += skipped;
                &mut self.idle_jumps
            }
            Event::RecoveryAttempt { .. } => &mut self.recovery_attempts,
            Event::MessageRequeued { .. } => &mut self.requeues,
            Event::EmbeddingRepaired { .. } => &mut self.repairs,
            Event::CheckpointWritten { .. } => &mut self.checkpoints,
        };
        *c += 1;
    }
}

/// A shared reference to the counters is itself a sink — clone the
/// reference into each worker thread.
impl Sink for &AtomicCounters {
    #[inline]
    fn record(&mut self, ev: Event) {
        AtomicCounters::record(self, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forces dispatch through the `Sink` impl (not the inherent method).
    fn via_sink(mut sink: impl Sink, ev: Event) {
        sink.record(ev);
    }

    #[test]
    fn records_each_event_kind_in_its_counter() {
        let c = AtomicCounters::new();
        via_sink(&c, Event::BatchStarted { messages: 2 });
        via_sink(
            &c,
            Event::HopTaken {
                cycle: 1,
                msg: 0,
                from: 0,
                to: 1,
                edge: 0,
            },
        );
        via_sink(
            &c,
            Event::MessageDelivered {
                cycle: 1,
                msg: 0,
                at: 1,
            },
        );
        via_sink(
            &c,
            Event::WatchdogIdle {
                cycle: 10,
                skipped: 9,
            },
        );
        let s = c.snapshot();
        assert_eq!(s.batches, 1);
        assert_eq!(s.hops, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.idle_jumps, 1);
        assert_eq!(s.idle_cycles_skipped, 9);
        assert_eq!(s.events(), 4);
    }

    /// One event of every kind, with distinct payloads.
    fn every_kind() -> [Event; 11] {
        [
            Event::BatchStarted { messages: 2 },
            Event::HopTaken {
                cycle: 1,
                msg: 0,
                from: 0,
                to: 1,
                edge: 0,
            },
            Event::LinkContended {
                cycle: 1,
                edge: 0,
                msg: 1,
                winner: 0,
            },
            Event::MessageDelivered {
                cycle: 1,
                msg: 0,
                at: 1,
            },
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
                skipped: 7,
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
        ]
    }

    #[test]
    fn local_tally_added_once_equals_atomic_recording() {
        // Every kind, each a different number of times, so a counter that
        // lands in the wrong field shows.
        let stream: Vec<Event> = every_kind()
            .iter()
            .enumerate()
            .flat_map(|(k, &ev)| std::iter::repeat_n(ev, k + 1))
            .collect();
        let shared = AtomicCounters::new();
        let mut local = Counters::default();
        for &ev in &stream {
            via_sink(&shared, ev);
            via_sink(&mut local, ev);
        }
        let added = AtomicCounters::new();
        added.add(&local);
        assert_eq!(added.snapshot(), shared.snapshot());
        assert_eq!(local, shared.snapshot());
        assert_eq!(local.idle_cycles_skipped, 7 * 7);
        assert_eq!(local.events(), stream.len() as u64);
        // Adding accumulates onto what is already there.
        added.add(&local);
        assert_eq!(added.snapshot().hops, 2 * local.hops);
        assert_eq!(added.snapshot().checkpoints, 2 * local.checkpoints);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let c = AtomicCounters::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000 {
                        via_sink(
                            &c,
                            Event::HopTaken {
                                cycle: i,
                                msg: 0,
                                from: 0,
                                to: 1,
                                edge: 0,
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(c.snapshot().hops, 4000);
    }
}
