//! Synchronous message-passing simulation of tree programs on host
//! networks — the executable version of the paper's motivation that "the
//! dilation corresponds to the number of clock cycles needed in the X-tree
//! network to communicate between formerly adjacent processors".
//!
//! * hosts come from [`host`] (the `xtree-host` crate): every engine and
//!   stats entry point takes any [`Host`] — [`XTreeHost`] and
//!   [`HypercubeHost`] route in closed form, [`UniversalHost`] over its
//!   quotient table, and [`TableHost`] on dense BFS tables for any other
//!   connected graph;
//! * [`workload`] — broadcast / reduce / exchange / divide-and-conquer
//!   message rounds derived from a guest tree and an embedding, built
//!   once per guest as flat arrays;
//! * [`engine`] — cycle-accurate delivery with per-link contention, with
//!   reusable allocation-free scratch state in [`engine::Engine`]; the
//!   fault-free and faulted loops share one delivery cycle;
//! * [`fault`] — deterministic link/node failure schedules and the cached
//!   survivor-graph routing the engine falls back to under damage;
//! * [`error`] — the [`SimError`] type every fallible entry point returns
//!   instead of panicking;
//! * [`stats`] — fault-free per-workload reports, congestion and load
//!   scores, rayon-parallel sweeps, and the degraded-delivery report row;
//! * [`recovery`] — the self-healing supervisor: embedding repair,
//!   stranded-message retry with backoff, provable-unreachability cutoff;
//! * [`session`] — the one driver of the four workloads under a fault
//!   plan, supervised or not: a resumable state machine with
//!   deterministic snapshots;
//! * [`checkpoint`] — the versioned `XCKPT1` container tying a session
//!   snapshot, the current embedding, and the telemetry trace together;
//! * [`telemetry`] (re-export of `xtree-telemetry`) — event sinks, binary
//!   traces with deterministic replay, and metric exporters that plug
//!   into [`engine::Engine::run_batch_with`] /
//!   [`engine::Engine::run_batch_faulted_with`].

pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod fault;
pub mod recovery;
pub mod session;
pub mod stats;
pub mod workload;

pub use checkpoint::{decode_checkpoint, encode_checkpoint, Checkpoint};
pub use engine::{run_batch, run_rounds, BatchOutcome, BatchStats, Engine, Message};
pub use error::SimError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultState, DEFAULT_MAX_IDLE_WAIT};
pub use recovery::{
    recover_batch, recover_batch_with, AttemptStats, Backoff, RecoveryEnd, RecoveryOutcome,
    RecoveryPolicy, RepairableHost,
};
pub use session::{RecoveryTotals, Session, SessionSnapshot, SessionStatus};
pub use stats::{
    compute_load, congestion, simulate_all, simulate_all_in, simulate_all_with, simulate_one_in,
    simulate_one_with, simulate_step, sweep, weighted_congestion, FaultSimReport, SimReport,
    StepReport,
};
pub use workload::HostMap;
pub use xtree_host as host;
pub use xtree_host::{
    AnyHost, Host, HostError, HypercubeHost, TableHost, UniversalHost, XTreeHost,
};
pub use xtree_telemetry as telemetry;
pub use xtree_telemetry::{AtomicCounters, Event, MetricsSink, NopSink, Sink, Tee, TraceRecorder};

/// The old name of the simulator's host type, kept only because the
/// serving benchmark (`servebench/`) spells `Network::xtree(&XTree)` in
/// its traced replay. It goes with that benchmark's next change; all
/// other code names the host types directly.
pub type Network = AnyHost;
