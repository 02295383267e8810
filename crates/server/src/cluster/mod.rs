//! The sharded cluster tier: M independent `xtree-server` daemons behind
//! one consistent-hash router with health-checked failover.
//!
//! The pieces, bottom-up:
//!
//! - [`ring`] — the seeded consistent-hash ring. The routing key is the
//!   embedding-cache key, so each shard's LRU holds exactly its slice of
//!   the key space and a roster change moves only ~`1/M` of the keys.
//! - [`health`] — the shared failure detector: a probe thread plus the
//!   router's own forward failures feed one weighted-strike ejection
//!   rule (timeouts strike at half the weight of disconnects); a
//!   restarted shard readmits via the same path.
//! - [`router`] — the XWIRE1 front door that forwards compute requests
//!   to their owning shard and *replays* them (re-hash, re-dispatch,
//!   backoff) when a shard dies mid-flight. Replay is safe because every
//!   compute request is a deterministic pure lookup.
//! - [`supervisor`] — process lifecycle for locally-spawned shards:
//!   readiness parsing, crash detection, restart-with-backoff on fresh
//!   ephemeral ports, cooperative drain.
//! - [`metrics`] — per-shard routed/failed/replayed counters and the
//!   failover-latency histogram, exported in the workspace's Prometheus
//!   and JSONL shapes.

pub mod health;
pub mod metrics;
pub mod ring;
pub mod router;
pub mod supervisor;

pub use health::{FailureKind, HealthMonitor, ShardSet};
pub use metrics::{ClusterCount, ClusterMetrics, ShardCount};
pub use ring::HashRing;
pub use router::{Router, RouterConfig};
pub use supervisor::{spawn_shard, ShardChild, ShardCommand, Supervisor};
