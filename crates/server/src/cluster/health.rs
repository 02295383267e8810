//! Shard liveness: the failure detector the router and supervisor share.
//!
//! [`ShardSet`] is the single source of truth about where each shard
//! lives and whether it is believed alive. Two evidence streams feed it:
//! the [`HealthMonitor`] thread, which probes every shard with a `Health`
//! request on a fixed interval, and the router's own request handlers,
//! which report transport failures they observe while forwarding. Both
//! feed the same weighted strike counter, so a shard that dies under
//! load is ejected no matter which path noticed first — and a single
//! successful probe (or forward) readmits it and zeroes the streak.
//!
//! Strikes are weighted by [`FailureKind`]: a *disconnect* (refused,
//! reset, closed — the peer is provably not serving this socket) scores
//! double a *timeout* (the peer holds the connection but answered late —
//! possibly just overloaded). Ejection triggers at `2 × fail_after`
//! strike points, so `fail_after` consecutive disconnects keep their
//! historical meaning while pure timeouts need twice the evidence; a
//! slow-but-alive shard degrades, it does not flap.
//!
//! Ejection never mutates the hash ring; the router filters dead shards
//! at lookup time, which `ring.rs` shows is equivalent. That keeps the
//! failure path lock-free: liveness is one `AtomicBool` load per lookup.
//!
//! Addresses are mutable because the supervisor restarts crashed shard
//! processes on *new* ephemeral ports. Every address change bumps a
//! per-shard generation counter; handlers that cache connections compare
//! generations and re-dial instead of talking to a dead socket.

use crate::wire::{read_frame, write_request_host, HealthInfo, Request, Response, WireError};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How a shard failed, for strike weighting and per-kind accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The peer answered too slowly (socket deadline elapsed). Weakest
    /// evidence of death: an overloaded shard looks exactly like this.
    Timeout,
    /// The peer refused, reset, or closed the connection — it is provably
    /// not serving on this socket.
    Disconnect,
}

impl FailureKind {
    /// Classifies a wire error: expired socket budgets are timeouts,
    /// everything else (refused, reset, closed, protocol damage) counts
    /// as a disconnect.
    pub fn from_error(e: &WireError) -> FailureKind {
        match e {
            WireError::TimedOut => FailureKind::Timeout,
            _ => FailureKind::Disconnect,
        }
    }

    /// Strike points this failure adds to the shard's streak.
    fn weight(self) -> u32 {
        match self {
            FailureKind::Timeout => 1,
            FailureKind::Disconnect => 2,
        }
    }
}

struct ShardSlot {
    addr: Mutex<SocketAddr>,
    /// Bumped on every address change; invalidates cached connections.
    generation: AtomicU64,
    alive: AtomicBool,
    /// Weighted strike points since the last success.
    fails: AtomicU32,
    /// Times this shard has been ejected.
    deaths: AtomicU64,
    /// Lifetime timeout-class failures (for the metrics exports).
    timeouts: AtomicU64,
    /// Lifetime disconnect-class failures.
    disconnects: AtomicU64,
    /// The last `Health` payload the prober saw (load signal).
    last_info: Mutex<Option<HealthInfo>>,
}

/// The cluster's shard roster: addresses, liveness, failure streaks.
pub struct ShardSet {
    slots: Vec<ShardSlot>,
    /// Consecutive failures that eject a shard.
    fail_after: u32,
}

impl ShardSet {
    /// A roster of `addrs.len()` shards, all initially alive. `fail_after`
    /// is clamped to ≥ 1.
    pub fn new(addrs: &[SocketAddr], fail_after: u32) -> Arc<ShardSet> {
        Arc::new(ShardSet {
            slots: addrs
                .iter()
                .map(|&addr| ShardSlot {
                    addr: Mutex::new(addr),
                    generation: AtomicU64::new(0),
                    alive: AtomicBool::new(true),
                    fails: AtomicU32::new(0),
                    deaths: AtomicU64::new(0),
                    timeouts: AtomicU64::new(0),
                    disconnects: AtomicU64::new(0),
                    last_info: Mutex::new(None),
                })
                .collect(),
            fail_after: fail_after.max(1),
        })
    }

    /// Number of shards in the roster (fixed for the cluster's lifetime).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the roster is empty (never, for a spawned router).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current address of shard `id`.
    pub fn addr(&self, id: u16) -> SocketAddr {
        *self.slots[usize::from(id)].addr.lock().expect("addr lock")
    }

    /// Points shard `id` at a freshly restarted process and readmits it:
    /// the supervisor only calls this after the child printed its
    /// readiness line, so the listener is provably up.
    pub fn set_addr(&self, id: u16, addr: SocketAddr) {
        let slot = &self.slots[usize::from(id)];
        *slot.addr.lock().expect("addr lock") = addr;
        slot.generation.fetch_add(1, Relaxed);
        slot.fails.store(0, Relaxed);
        if !slot.alive.swap(true, Relaxed) {
            eprintln!("xtree-cluster: shard {id} readmitted at {addr}");
        }
    }

    /// Connection-cache epoch for shard `id`.
    pub fn generation(&self, id: u16) -> u64 {
        self.slots[usize::from(id)].generation.load(Relaxed)
    }

    /// Is shard `id` currently believed alive?
    pub fn is_alive(&self, id: u16) -> bool {
        self.slots[usize::from(id)].alive.load(Relaxed)
    }

    /// Shards currently believed alive.
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.alive.load(Relaxed)).count()
    }

    /// Total ejections across all shards so far.
    pub fn deaths(&self) -> u64 {
        self.slots.iter().map(|s| s.deaths.load(Relaxed)).sum()
    }

    /// Records a successful probe or forward: zeroes the failure streak
    /// and readmits the shard if it was ejected.
    pub fn report_success(&self, id: u16, info: Option<HealthInfo>) {
        let slot = &self.slots[usize::from(id)];
        slot.fails.store(0, Relaxed);
        if info.is_some() {
            *slot.last_info.lock().expect("info lock") = info;
        }
        if !slot.alive.swap(true, Relaxed) {
            eprintln!("xtree-cluster: shard {id} readmitted at {}", self.addr(id));
        }
    }

    /// Records a disconnect-class failure (the historical behavior:
    /// `fail_after` consecutive calls eject). Returns `true` when this
    /// failure ejected the shard.
    pub fn report_failure(&self, id: u16) -> bool {
        self.report_failure_kind(id, FailureKind::Disconnect)
    }

    /// Records a failed probe or forward of the given kind. Disconnects
    /// add two strike points, timeouts one; the shard is ejected when the
    /// streak reaches `2 × fail_after` points. Returns `true` when this
    /// failure ejected the shard.
    pub fn report_failure_kind(&self, id: u16, kind: FailureKind) -> bool {
        let slot = &self.slots[usize::from(id)];
        match kind {
            FailureKind::Timeout => slot.timeouts.fetch_add(1, Relaxed),
            FailureKind::Disconnect => slot.disconnects.fetch_add(1, Relaxed),
        };
        let streak = slot.fails.fetch_add(kind.weight(), Relaxed) + kind.weight();
        if streak >= 2 * self.fail_after && slot.alive.swap(false, Relaxed) {
            slot.deaths.fetch_add(1, Relaxed);
            eprintln!(
                "xtree-cluster: shard {id} marked dead at {streak} strike points ({kind:?} last)"
            );
            return true;
        }
        false
    }

    /// Lifetime timeout-class failures recorded against shard `id`.
    pub fn timeouts(&self, id: u16) -> u64 {
        self.slots[usize::from(id)].timeouts.load(Relaxed)
    }

    /// Lifetime disconnect-class failures recorded against shard `id`.
    pub fn disconnects(&self, id: u16) -> u64 {
        self.slots[usize::from(id)].disconnects.load(Relaxed)
    }

    /// The most recent `Health` load signal the prober stored for `id`.
    pub fn last_info(&self, id: u16) -> Option<HealthInfo> {
        *self.slots[usize::from(id)]
            .last_info
            .lock()
            .expect("info lock")
    }
}

/// One `Health` round trip with hard timeouts on every socket operation
/// (a probe must never hang the monitor on a wedged shard).
///
/// # Errors
/// The classified transport or protocol failure.
pub fn probe(addr: SocketAddr, timeout: Duration) -> Result<Option<HealthInfo>, WireError> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    write_request_host(&mut writer, &Request::Health, None, None)?;
    match read_frame(&mut reader)? {
        Some(bytes) => match crate::wire::decode_response(&bytes)? {
            Response::HealthOk { info } => Ok(info),
            // Any well-formed response proves the shard is up and
            // serving; only the load signal is missing.
            _ => Ok(None),
        },
        None => Err(WireError::Closed),
    }
}

/// The background prober: walks the roster every `interval`, feeding
/// successes and failures into the shared [`ShardSet`].
pub struct HealthMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl HealthMonitor {
    /// Starts probing `shards` every `interval`. Each probe's socket
    /// timeout is the interval clamped to `[25ms, 500ms]` so one dead
    /// shard cannot starve probes of the others for long.
    pub fn spawn(shards: Arc<ShardSet>, interval: Duration) -> HealthMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let timeout = interval
            .max(Duration::from_millis(25))
            .min(Duration::from_millis(500));
        let handle = thread::Builder::new()
            .name("xtree-cluster-health".into())
            .spawn(move || {
                while !stop2.load(Relaxed) {
                    for id in 0..shards.len() as u16 {
                        match probe(shards.addr(id), timeout) {
                            Ok(info) => shards.report_success(id, info),
                            Err(e) => {
                                shards.report_failure_kind(id, FailureKind::from_error(&e));
                            }
                        }
                    }
                    thread::sleep(interval);
                }
            })
            .expect("spawn health monitor");
        HealthMonitor {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the prober and joins its thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

impl Drop for HealthMonitor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), port)
    }

    #[test]
    fn ejects_after_k_consecutive_failures_and_readmits_on_success() {
        let set = ShardSet::new(&[addr(1), addr(2)], 3);
        assert!(!set.report_failure(0));
        assert!(!set.report_failure(0));
        assert!(set.is_alive(0), "below threshold stays alive");
        assert!(set.report_failure(0), "third consecutive failure ejects");
        assert!(!set.is_alive(0));
        assert_eq!(set.live_count(), 1);
        assert!(!set.report_failure(0), "already dead: no second ejection");
        set.report_success(0, None);
        assert!(set.is_alive(0));
        assert_eq!(set.deaths(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let set = ShardSet::new(&[addr(1)], 2);
        assert!(!set.report_failure(0));
        set.report_success(0, None);
        assert!(!set.report_failure(0), "streak was reset by the success");
        assert!(set.is_alive(0));
    }

    #[test]
    fn timeouts_strike_at_half_the_weight_of_disconnects() {
        let set = ShardSet::new(&[addr(1)], 2);
        // 2 × fail_after = 4 points: three timeouts (3 points) keep the
        // shard alive where two disconnects (4 points) would not.
        assert!(!set.report_failure_kind(0, FailureKind::Timeout));
        assert!(!set.report_failure_kind(0, FailureKind::Timeout));
        assert!(!set.report_failure_kind(0, FailureKind::Timeout));
        assert!(set.is_alive(0), "three timeouts are not enough evidence");
        assert!(set.report_failure_kind(0, FailureKind::Timeout));
        assert!(!set.is_alive(0));
        set.report_success(0, None);
        // Mixed evidence: a timeout plus a disconnect is 3 points, one
        // more disconnect crosses 4.
        assert!(!set.report_failure_kind(0, FailureKind::Timeout));
        assert!(!set.report_failure_kind(0, FailureKind::Disconnect));
        assert!(set.is_alive(0));
        assert!(set.report_failure_kind(0, FailureKind::Disconnect));
        assert_eq!(set.timeouts(0), 5);
        assert_eq!(set.disconnects(0), 2);
    }

    #[test]
    fn wire_errors_classify_into_failure_kinds() {
        assert_eq!(
            FailureKind::from_error(&WireError::TimedOut),
            FailureKind::Timeout
        );
        for e in [WireError::Refused, WireError::Reset, WireError::Closed] {
            assert_eq!(FailureKind::from_error(&e), FailureKind::Disconnect);
        }
    }

    #[test]
    fn set_addr_bumps_generation_and_readmits() {
        let set = ShardSet::new(&[addr(1)], 1);
        set.report_failure(0);
        assert!(!set.is_alive(0));
        let g = set.generation(0);
        set.set_addr(0, addr(9));
        assert!(set.is_alive(0));
        assert_eq!(set.addr(0), addr(9));
        assert_eq!(set.generation(0), g + 1);
    }
}
