//! The server under test as its own process, the closed-loop clients that
//! drive it, and what `/proc` says about it.

use crate::workload::{Call, Stream, CACHE_CAP, CONNS, WORKERS};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use xtree_server::{Client, Request, Response, WireStats};

/// How long a stopping server may take to drain before it is killed.
const STOP_GRACE: Duration = Duration::from_secs(10);

/// A running `xtree-cli serve` process. Dropping it kills the process if
/// it is still running and waits for it, so no path leaves it behind.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address the server bound.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server on an ephemeral port and waits for its
    /// listening line.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--cache-cap", &CACHE_CAP.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("xtree-server listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "server did not report its address: {read:?} {line:?}"
            ));
        };
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain over the wire and waits for it to exit,
    /// killing it after [`STOP_GRACE`]. The `Shutdown` reply itself may
    /// be lost: the server can exit before its connection thread writes
    /// it, so only the exit status counts.
    pub fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.call(&Request::Shutdown);
        }
        let deadline = Instant::now() + STOP_GRACE;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err(format!("server did not drain within {STOP_GRACE:?}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request's outcome as a client saw it.
pub struct Sample {
    /// The request sent.
    pub call: Call,
    /// Send to decoded reply, in microseconds.
    pub us: f64,
    /// The reply, or the transport error.
    pub reply: Result<Response, String>,
}

/// How long each connection keeps sending.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Closed loop until this instant.
    At(Instant),
    /// Exactly this many requests per connection.
    Count(u64),
}

/// Drives one closed loop per connection, each over its own stream,
/// and returns every connection's samples in send order.
pub fn drive(clients: &mut [Client], streams: &[Stream], stop: Stop) -> Vec<Vec<Sample>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for j in 0.. {
                        match stop {
                            Stop::At(t) if Instant::now() >= t => break,
                            Stop::Count(n) if j >= n => break,
                            _ => {}
                        }
                        samples.push(send(client, stream.call(j)));
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Sends one request and times it.
pub fn send(client: &mut Client, call: Call) -> Sample {
    let t0 = Instant::now();
    let reply = client
        .call_host(&call.req, None, Some(call.host))
        .map_err(|e| e.to_string());
    Sample {
        us: t0.elapsed().as_secs_f64() * 1e6,
        call,
        reply,
    }
}

/// Opens the benchmark's connections.
pub fn connect(addr: SocketAddr) -> Result<Vec<Client>, String> {
    (0..CONNS)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

/// The server's own counters, read over the wire.
pub fn stats(client: &mut Client) -> Result<WireStats, String> {
    match client.call(&Request::Stats) {
        Ok(Response::StatsOk(s)) => Ok(s),
        other => Err(format!("Stats failed: {other:?}")),
    }
}

/// Clock ticks per second in `/proc` times: the kernel reports them in
/// `USER_HZ`, which is 100 on every architecture Rust's tier-1 Linux
/// targets cover.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds the process has used, all threads
/// included (`/proc/<pid>/stat` fields 14 and 15).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("no field {} in /proc/{pid}/stat", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or("no VmHWM in /proc status")?;
    Ok(kb / 1024.0)
}

/// Machine-wide CPU time counters from the first line of `/proc/stat`:
/// (steal, total), in clock ticks.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    let cpu: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    let total = cpu.iter().take(8).sum();
    Ok((cpu.get(7).copied().unwrap_or(0), total))
}
