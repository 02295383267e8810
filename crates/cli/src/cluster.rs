//! `cluster`: shard daemons behind a consistent-hash router.

use crate::args::{parse_backoff, parse_chaos, parse_io_timeout, MetricsOut};
use crate::{Args, CliError};
use std::time::Duration;
use xtree_server::cluster::{spawn_shard, ShardCommand};
use xtree_server::{
    ClusterCount, ClusterMetrics, HashRing, ReconnectPolicy, Router, RouterConfig, ShardCount,
    Supervisor,
};

pub(crate) const USAGE: &str = "[--shards M] [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N] [--vnodes V] [--ring-seed S] [--probe-interval-ms I] [--fail-after K] [--max-retries N] [--backoff fixed:K|exp:B:C] [--restart-backoff fixed:K|exp:B:C] [--io-timeout-ms T] [--chaos-seed S] [--chaos-profile P] [--metrics FILE] [--metrics-format jsonl|prom]";

/// `cluster`: spawn M shard daemons as child processes on ephemeral
/// ports, put the consistent-hash router in front of them, and supervise
/// until a wire `Shutdown` drains the whole tier. Readiness lines (one
/// per shard, then the router's) go to stdout flushed *before* blocking,
/// so scripts — and the CI kill-a-shard smoke — can scrape pids, shard
/// addresses, and the router address.
pub(crate) fn run(a: &Args) -> Result<String, CliError> {
    let shards: usize = a.num_or("shards", 2usize)?;
    if !(1..=64).contains(&shards) {
        return Err("--shards must be within 1..=64".into());
    }
    let workers: usize = a.num_or("workers", 4usize)?;
    let queue_cap: usize = a.num_or("queue-cap", 64usize)?;
    let cache_cap: usize = a.num_or("cache-cap", 256usize)?;
    if workers == 0 {
        return Err("--workers must be ≥ 1".into());
    }
    if queue_cap == 0 {
        return Err("--queue-cap must be ≥ 1".into());
    }
    let probe_ms: u64 = a.num_or("probe-interval-ms", 100u64)?;
    if probe_ms == 0 {
        return Err("--probe-interval-ms must be ≥ 1".into());
    }
    let fail_after: u32 = a.num_or("fail-after", 3u32)?;
    if fail_after == 0 {
        return Err("--fail-after must be ≥ 1".into());
    }
    let replay = ReconnectPolicy {
        max_retries: a.num_or("max-retries", 8u32)?,
        backoff: parse_backoff(a.get_or("backoff", "exp:25:800"))?,
    };
    let restart_backoff = parse_backoff(a.get_or("restart-backoff", "fixed:100"))?;
    let metrics_out = MetricsOut::parse(a)?;

    // Validate the chaos/timeout flags up front, then forward them
    // verbatim into every shard child: the *shards'* transports misbehave
    // while the router stays honest, which is the failover scenario the
    // cluster tier exists for.
    let chaos = parse_chaos(a)?;
    let io_timeout = parse_io_timeout(a)?;
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("cluster: cannot locate own binary: {e}")))?;
    let mut shard_args: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &workers.to_string(),
        "--queue-cap",
        &queue_cap.to_string(),
        "--cache-cap",
        &cache_cap.to_string(),
    ]
    .map(String::from)
    .to_vec();
    if io_timeout.is_some() {
        shard_args.extend([
            "--io-timeout-ms".into(),
            a.get_or("io-timeout-ms", "0").to_string(),
        ]);
    }
    if let Some(plan) = &chaos {
        shard_args.extend([
            "--chaos-seed".into(),
            plan.seed.to_string(),
            "--chaos-profile".into(),
            a.get_or("chaos-profile", "medium").to_string(),
        ]);
    }
    let cmd = ShardCommand {
        program: exe,
        args: shard_args,
    };
    let readiness = Duration::from_secs(10);
    let mut children = Vec::with_capacity(shards);
    {
        use std::io::Write;
        let mut stdout = std::io::stdout().lock();
        for i in 0..shards {
            let child = spawn_shard(&cmd, readiness)
                .map_err(|e| CliError::Io(format!("cluster: shard {i}: {e}")))?;
            let _ = writeln!(
                stdout,
                "shard {i}: pid {} listening on {}",
                child.pid, child.addr
            );
            children.push(child);
        }
        let _ = stdout.flush();
    }
    let config = RouterConfig {
        addr: a.get_or("addr", "127.0.0.1:7170").to_string(),
        shards: children.iter().map(|c| c.addr).collect(),
        ring_seed: a.num_or("ring-seed", 1991u64)?,
        vnodes: a.num_or("vnodes", HashRing::DEFAULT_VNODES)?,
        probe_interval: Duration::from_millis(probe_ms),
        fail_after,
        replay,
    };
    let mut router = Router::spawn(&config)
        .map_err(|e| CliError::Io(format!("cluster: bind {}: {e}", config.addr)))?;
    let supervisor = Supervisor::spawn(
        children,
        cmd,
        router.shard_set(),
        router.metrics(),
        restart_backoff,
        readiness,
        Some(router.warmup_fn()),
    );
    router.attach_supervisor(supervisor);
    {
        use std::io::Write;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(
            stdout,
            "xtree-cluster router listening on {} ({} shards, {} vnodes, fail after {})",
            router.local_addr(),
            shards,
            config.vnodes,
            fail_after
        );
        let _ = stdout.flush();
    }
    let metrics = router.metrics();
    router.wait();
    metrics_out.write(|f| f.render(ClusterMetrics::PREFIX, &metrics.families()))?;
    Ok(format!(
        "xtree-cluster drained and stopped ({} replayed, {} restarts, {} unreachable)",
        metrics.total(ShardCount::Replayed),
        metrics.get(ClusterCount::Restarts),
        metrics.get(ClusterCount::Unreachable)
    ))
}
