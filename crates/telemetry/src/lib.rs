//! Observability for the simulation engine: typed events, statically
//! dispatched sinks, binary traces with deterministic replay, and metric
//! export.
//!
//! The engine's cycle loop reports what happens through a [`Sink`] — a
//! trait with an associated `const ACTIVE` flag, so the no-op sink
//! ([`NopSink`], `ACTIVE = false`) monomorphises every instrumentation
//! site away and the uninstrumented fast path survives untouched (the
//! `telbench` binary in `xtree-bench` verifies the overhead is within
//! noise of zero). Real sinks plug in without engine changes:
//!
//! * [`TraceRecorder`] — a compact binary trace (varint fields, the cycle
//!   delta-encoded). Runs are deterministic, so re-running a seed and
//!   comparing trace bytes ([`read_trace`] / byte equality) is an
//!   end-to-end replay check of the whole engine;
//! * [`MetricsSink`] — counters plus fixed-bucket histograms (queue
//!   depth, per-edge utilization, message latency), listed as [`Family`]
//!   values that [`Format::render`] writes as JSONL or Prometheus text,
//!   the one writer the daemon and the router export through too;
//! * [`AtomicCounters`] — lock-free relaxed counters; `&AtomicCounters`
//!   is itself a [`Sink`], so one instance aggregates across rayon
//!   threads. [`Counters`], their plain copy, is a [`Sink`] too: a thread
//!   tallies locally and adds the total once ([`AtomicCounters::add`]);
//! * [`Tee`] — fans one event stream out to two sinks.

pub mod counters;
pub mod event;
pub mod exposition;
pub mod hist;
pub mod metrics;
pub mod sink;
pub mod trace;
pub mod varint;

pub use counters::{AtomicCounters, Counters};
pub use event::Event;
pub use exposition::{Family, Format};
pub use hist::Histogram;
pub use metrics::MetricsSink;
pub use sink::{NopSink, Sink, Tee};
pub use trace::{read_trace, TraceError, TraceRecorder, TRACE_MAGIC};
