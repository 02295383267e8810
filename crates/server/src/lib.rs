//! `xtree-server` — the serving layer: a long-running daemon that
//! embeds and simulates trees on request over a binary TCP protocol.
//!
//! The pieces, bottom-up:
//!
//! * [`wire`] — the `XWIRE1` length-prefixed LEB128 frame codec and the
//!   typed [`Request`]/[`Response`] messages (versioned the same way the
//!   `XCKPT1` checkpoint container is);
//! * [`queue`] — the bounded MPMC job queue whose `try_push` failure *is*
//!   the backpressure signal (`Overloaded`, never a hang);
//! * [`chaos`] — the seeded chaos transport: a [`ChaosStream`] wrapper
//!   over `TcpStream` whose delays, short ops, corruption, resets, and
//!   refusals are a pure function of `(seed, connection id)`, so a fault
//!   schedule replays byte-deterministically;
//! * [`cache`] — the sharded-LRU embedding cache keyed on
//!   `(family, nodes, seed, theorem, host)`, sharing `Arc<XEmbedding>`s
//!   so a hit skips the Theorem-1 construction entirely, and keeping each
//!   entry's `Embed` score so a warm `Embed` is a lookup;
//! * [`service`] — how a request is answered, in two halves: the warm
//!   half a connection thread runs (validate → one cache lookup → the
//!   stored reply) and the cold half a worker runs (build on a miss →
//!   score / simulate, on hosts shared per height);
//! * [`metrics`] — request counters, latency/queue-depth histograms, and
//!   the shared engine-event sink, exported in the workspace's standard
//!   Prometheus and JSONL shapes;
//! * [`server`] — the daemon itself (acceptor + handler threads + worker
//!   pool + graceful drain);
//! * [`client`] — the blocking client the CLI, load generator, and tests
//!   all use, with reconnect-and-replay under a [`ReconnectPolicy`];
//! * [`cluster`] — the sharded tier: a consistent-hash [`Router`] over M
//!   daemons, a shared failure detector, in-flight replay on shard
//!   death, and a process [`Supervisor`] that restarts crashed shards.
//!
//! ```no_run
//! use xtree_server::{Client, Request, Response, Server, ServerConfig};
//!
//! let mut server = Server::spawn(&ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let resp = client
//!     .call(&Request::Embed { family: 0, nodes: 496, seed: 7, theorem: 1 })
//!     .unwrap();
//! assert!(matches!(resp, Response::EmbedOk { .. }));
//! client.call(&Request::Shutdown).unwrap();
//! server.wait();
//! ```

pub mod cache;
pub mod chaos;
pub mod client;
pub mod cluster;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod service;
pub mod wire;

pub use cache::{EmbeddingCache, EmbeddingKey};
pub use chaos::{ChaosConn, ChaosCounts, ChaosPlan, ChaosProfile, ChaosStream};
pub use client::{Client, ReconnectPolicy};
pub use cluster::{
    ClusterCount, ClusterMetrics, FailureKind, HashRing, Router, RouterConfig, ShardCount,
    ShardSet, Supervisor,
};
pub use metrics::{Count, ServerMetrics};
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerConfig};
pub use service::MAX_NODES;
pub use wire::{
    HealthInfo, Request, Response, WireError, WireReport, WireStats, ERR_BAD_REQUEST, ERR_DEADLINE,
    ERR_EXHAUSTED, ERR_SHUTTING_DOWN, ERR_UNREACHABLE, WORKLOAD_ALL,
};
