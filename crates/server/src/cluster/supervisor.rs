//! Shard process lifecycle: spawn, watch, restart, drain.
//!
//! The `cluster` CLI runs each shard as a separate `xtree-cli serve`
//! process on an ephemeral port (`--addr 127.0.0.1:0`), so a shard crash
//! is a real process death with real connection resets — exactly the
//! failure the router's replay path exists for. [`spawn_shard`] pipes the
//! child's stdout and blocks until the daemon's readiness line names the
//! port the kernel actually assigned.
//!
//! The [`Supervisor`] thread polls its children with `try_wait`. A child
//! that exited (crashed or was `kill -9`ed) is restarted after a backoff
//! that grows with that slot's restart count, and the fresh address is
//! pushed into the shared [`ShardSet`] — which readmits the shard and
//! bumps its connection-cache generation, so the router starts routing to
//! the replacement without any coordination beyond that one store.
//!
//! Drain is cooperative: the router flips [`Supervisor::begin_drain`]
//! *before* forwarding `Shutdown` to the shards, so the supervisor reads
//! the resulting exits as intentional instead of resurrecting the
//! cluster it is trying to stop.

use super::health::ShardSet;
use super::metrics::{ClusterCount, ClusterMetrics};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use xtree_sim::Backoff;

/// Called with a shard id right after the supervisor restarts that shard
/// and publishes its fresh address — the router installs its hot-key
/// cache warmer here, so a replacement shard starts with the cluster's
/// hottest embeddings instead of a cold LRU.
pub type WarmupFn = Arc<dyn Fn(u16) + Send + Sync>;

/// How to launch one shard: a program and its argument list. The address
/// argument must request an ephemeral port (`127.0.0.1:0`); the actual
/// port is read back from the readiness line.
#[derive(Clone, Debug)]
pub struct ShardCommand {
    /// Binary to execute (normally `std::env::current_exe()`).
    pub program: std::path::PathBuf,
    /// Arguments, e.g. `["serve", "--addr", "127.0.0.1:0", ...]`.
    pub args: Vec<String>,
}

/// A live shard process and where it listens.
#[derive(Debug)]
pub struct ShardChild {
    /// OS process id (what a chaos test `kill -9`s).
    pub pid: u32,
    /// The ephemeral address the child reported in its readiness line.
    pub addr: SocketAddr,
    child: Child,
}

impl ShardChild {
    /// Non-blocking liveness check; `Some(..)` once the process exited.
    fn try_wait(&mut self) -> std::io::Result<Option<std::process::ExitStatus>> {
        self.child.try_wait()
    }

    /// Blocks until the process exits, killing it after `timeout`.
    fn reap(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    self.child.kill().ok();
                    self.child.wait().ok();
                    return;
                }
            }
        }
    }
}

/// Extracts the socket address from a daemon readiness line of the form
/// `... listening on 127.0.0.1:40123 ...`.
pub fn parse_listen_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split("listening on ").nth(1)?;
    let token = rest.split_whitespace().next()?;
    token.parse().ok()
}

/// Spawns one shard process and blocks until it prints its readiness
/// line (or `timeout` passes / the child exits early). The child's
/// stderr is inherited so shard diagnostics land in the cluster log;
/// stdout is drained by a detached thread after readiness so the pipe
/// can never fill and stall the shard.
///
/// # Errors
/// Spawn failures, early child exit, unparseable readiness line, or
/// timeout — all as `io::Error`.
pub fn spawn_shard(cmd: &ShardCommand, timeout: Duration) -> std::io::Result<ShardChild> {
    let mut child = Command::new(&cmd.program)
        .args(&cmd.args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .stdin(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let deadline = Instant::now() + timeout;
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                let status = child.wait()?;
                return Err(std::io::Error::other(format!(
                    "shard exited before readiness ({status})"
                )));
            }
            Ok(_) => {
                if let Some(addr) = parse_listen_addr(&line) {
                    break addr;
                }
            }
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return Err(e);
            }
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "shard readiness timed out",
            ));
        }
    };
    // Keep the pipe drained for the daemon's remaining output (one drain
    // line at shutdown) without holding this thread.
    thread::Builder::new()
        .name("xtree-shard-stdout".into())
        .spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        })
        .ok();
    Ok(ShardChild {
        pid: child.id(),
        addr,
        child,
    })
}

struct SupervisorInner {
    children: Mutex<Vec<ShardChild>>,
    cmd: ShardCommand,
    shards: Arc<ShardSet>,
    metrics: Arc<ClusterMetrics>,
    draining: AtomicBool,
    restart_backoff: Backoff,
    readiness_timeout: Duration,
    warmup: Option<WarmupFn>,
}

/// The background thread that keeps the shard roster populated.
pub struct Supervisor {
    inner: Arc<SupervisorInner>,
    handle: Option<thread::JoinHandle<()>>,
}

/// How often the supervisor polls children for exits.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

impl Supervisor {
    /// Takes ownership of already-spawned `children` (index = shard id)
    /// and starts watching them. `restart_backoff` (milliseconds) paces
    /// restarts per slot: attempt `k` of the same slot waits
    /// `backoff.delay(k)`. `warmup`, when present, runs after each
    /// restarted shard's address is published (router cache warmup).
    pub fn spawn(
        children: Vec<ShardChild>,
        cmd: ShardCommand,
        shards: Arc<ShardSet>,
        metrics: Arc<ClusterMetrics>,
        restart_backoff: Backoff,
        readiness_timeout: Duration,
        warmup: Option<WarmupFn>,
    ) -> Supervisor {
        let inner = Arc::new(SupervisorInner {
            children: Mutex::new(children),
            cmd,
            shards,
            metrics,
            draining: AtomicBool::new(false),
            restart_backoff,
            readiness_timeout,
            warmup,
        });
        let inner2 = Arc::clone(&inner);
        let handle = thread::Builder::new()
            .name("xtree-cluster-supervisor".into())
            .spawn(move || supervise(&inner2))
            .expect("spawn supervisor");
        Supervisor {
            inner,
            handle: Some(handle),
        }
    }

    /// Current pid of shard `id` (changes across restarts).
    pub fn pid(&self, id: u16) -> u32 {
        self.inner.children.lock().expect("children lock")[usize::from(id)].pid
    }

    /// Stops restarting: subsequent child exits are treated as the
    /// intentional result of a drain.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Relaxed);
    }

    /// Joins the watch thread and reaps every child (killing any that
    /// ignore the drain for more than a few seconds). Idempotent.
    pub fn wait(&mut self) {
        self.begin_drain();
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
        let mut children = self.inner.children.lock().expect("children lock");
        for child in children.iter_mut() {
            child.reap(Duration::from_secs(5));
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.wait();
    }
}

fn supervise(inner: &SupervisorInner) {
    // Per-slot restart counts drive the backoff; they persist for the
    // supervisor's lifetime so a crash-looping shard backs off to the cap
    // instead of spinning.
    let n = inner.children.lock().expect("children lock").len();
    let mut restarts = vec![0u32; n];
    let mut next_attempt = vec![Instant::now(); n];
    while !inner.draining.load(Relaxed) {
        for id in 0..n {
            if inner.draining.load(Relaxed) {
                return;
            }
            let exited = {
                let mut children = inner.children.lock().expect("children lock");
                matches!(children[id].try_wait(), Ok(Some(_)))
            };
            if !exited || Instant::now() < next_attempt[id] {
                continue;
            }
            let attempt = restarts[id];
            match spawn_shard(&inner.cmd, inner.readiness_timeout) {
                Ok(fresh) => {
                    eprintln!(
                        "xtree-cluster: shard {id} restarted (pid {}, {})",
                        fresh.pid, fresh.addr
                    );
                    inner.shards.set_addr(id as u16, fresh.addr);
                    inner.metrics.count(ClusterCount::Restarts);
                    inner.children.lock().expect("children lock")[id] = fresh;
                    restarts[id] = attempt + 1;
                    next_attempt[id] = Instant::now();
                    if let Some(warm) = &inner.warmup {
                        warm(id as u16);
                    }
                }
                Err(e) => {
                    eprintln!("xtree-cluster: shard {id} restart failed: {e}");
                    restarts[id] = attempt + 1;
                    next_attempt[id] = Instant::now()
                        + Duration::from_millis(u64::from(inner.restart_backoff.delay(attempt)));
                }
            }
        }
        thread::sleep(POLL_INTERVAL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_daemon_readiness_lines() {
        assert_eq!(
            parse_listen_addr(
                "xtree-server listening on 127.0.0.1:40123 (4 workers, queue 64, cache 256)"
            ),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(
            parse_listen_addr("xtree-cluster router listening on 127.0.0.1:7170 (2 shards)"),
            Some("127.0.0.1:7170".parse().unwrap())
        );
        assert_eq!(parse_listen_addr("something else"), None);
        assert_eq!(parse_listen_addr("listening on notanaddr here"), None);
    }

    #[test]
    fn spawn_shard_reports_early_exit() {
        let cmd = ShardCommand {
            program: "/bin/sh".into(),
            args: vec!["-c".into(), "exit 3".into()],
        };
        let err = spawn_shard(&cmd, Duration::from_secs(2)).unwrap_err();
        assert!(
            err.to_string().contains("before readiness"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn spawn_shard_parses_readiness_from_a_fake_shard() {
        let cmd = ShardCommand {
            program: "/bin/sh".into(),
            args: vec![
                "-c".into(),
                "echo warmup; echo fake listening on 127.0.0.1:45678 ok; sleep 0.1".into(),
            ],
        };
        let shard = spawn_shard(&cmd, Duration::from_secs(5)).unwrap();
        assert_eq!(shard.addr, "127.0.0.1:45678".parse().unwrap());
        assert!(shard.pid > 0);
    }
}
