//! `serve`: one embedding daemon on a TCP port.

use crate::args::{parse_chaos, parse_io_timeout, MetricsOut};
use crate::{Args, CliError};
use xtree_server::{Server, ServerConfig};
use xtree_sim::host::{parse_host_label, HOST_LABELS};

pub(crate) const USAGE: &str = "[--addr HOST:PORT] [--host xtree|hypercube|universal] [--workers N] [--queue-cap N] [--cache-cap N] [--io-timeout-ms T] [--chaos-seed S] [--chaos-profile P] [--metrics FILE] [--metrics-format jsonl|prom]";

/// `serve`: run the daemon until a wire `Shutdown` request drains it.
/// The listening line goes to stdout (flushed) *before* blocking, so
/// scripts can wait for readiness; the returned summary prints after the
/// drain. `--metrics FILE` writes the final server metrics on the way out.
pub(crate) fn run(a: &Args) -> Result<String, CliError> {
    let host_name = a.get_or("host", "xtree");
    let default_host = parse_host_label(host_name).ok_or_else(|| {
        format!(
            "unknown host `{host_name}` (one of {})",
            HOST_LABELS.join("|")
        )
    })?;
    let config = ServerConfig {
        addr: a.get_or("addr", "127.0.0.1:7171").to_string(),
        workers: a.num_or("workers", 4usize)?,
        queue_cap: a.num_or("queue-cap", 64usize)?,
        cache_cap: a.num_or("cache-cap", 256usize)?,
        io_timeout: parse_io_timeout(a)?,
        chaos: parse_chaos(a)?,
        default_host,
    };
    if config.workers == 0 {
        return Err("--workers must be ≥ 1".into());
    }
    if config.queue_cap == 0 {
        return Err("--queue-cap must be ≥ 1".into());
    }
    let metrics_out = MetricsOut::parse(a)?;
    let mut server = Server::spawn(&config)
        .map_err(|e| CliError::Io(format!("serve: bind {}: {e}", config.addr)))?;
    {
        use std::io::Write;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(
            stdout,
            "xtree-server listening on {} ({} workers, queue {}, cache {}, host {host_name})",
            server.local_addr(),
            config.workers,
            config.queue_cap,
            config.cache_cap
        );
        let _ = stdout.flush();
    }
    server.wait();
    metrics_out.write(|f| server.metrics(f))?;
    Ok(format!(
        "xtree-server drained and stopped ({} requests bounced overloaded)",
        server.overloaded()
    ))
}
