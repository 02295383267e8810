//! What the serving benches (`loadgen`, `clusterbench`, `chaosbench`)
//! share: the typed tally of where requests landed, the latency quantile,
//! and an in-process cluster of shards behind a router.

use xtree_server::{
    Client, ReconnectPolicy, Request, Response, Router, RouterConfig, Server, ServerConfig,
    WireError, ERR_BAD_REQUEST, ERR_DEADLINE, ERR_EXHAUSTED, ERR_SHUTTING_DOWN, ERR_UNREACHABLE,
};

/// Where every request landed. Buckets are mutually exclusive;
/// `unclassified` is the one that must stay zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub ok: usize,
    pub overloaded: usize,
    /// Typed `ERR_DEADLINE`: the budget died before an answer.
    pub deadline: usize,
    /// Typed `ERR_UNREACHABLE`/`ERR_EXHAUSTED`/`ERR_SHUTTING_DOWN`.
    pub unavailable: usize,
    /// Transport failures surviving the retry budget (refused / reset /
    /// timed out / closed), tolerated only under chaos or a deadline.
    pub transport: usize,
    /// Stream desync from injected byte corruption: a frame that decoded
    /// to garbage, or the peer bouncing our garbled bytes.
    pub corrupted: usize,
    /// Anything else — asserted zero in every mode.
    pub unclassified: usize,
}

impl Tally {
    /// Requests counted, over every bucket.
    pub fn total(&self) -> usize {
        self.ok
            + self.overloaded
            + self.deadline
            + self.unavailable
            + self.transport
            + self.corrupted
            + self.unclassified
    }

    /// Adds another tally's buckets to this one.
    pub fn add(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.deadline += other.deadline;
        self.unavailable += other.unavailable;
        self.transport += other.transport;
        self.corrupted += other.corrupted;
        self.unclassified += other.unclassified;
    }

    /// Files one call's outcome in its typed bucket. `chaos` says the
    /// connection's bytes may be garbled, which makes a decode failure or
    /// a bounced frame corruption rather than a bug. Returns true when the
    /// stream is desynced and the caller must reconnect.
    pub fn classify(&mut self, result: Result<Response, WireError>, chaos: bool) -> bool {
        match result {
            Ok(Response::EmbedOk { .. } | Response::SimulateOk { .. }) => self.ok += 1,
            Ok(Response::Overloaded { .. }) => self.overloaded += 1,
            Ok(Response::Error { code, .. }) if code == ERR_DEADLINE => self.deadline += 1,
            Ok(Response::Error { code, .. })
                if [ERR_UNREACHABLE, ERR_EXHAUSTED, ERR_SHUTTING_DOWN].contains(&code) =>
            {
                self.unavailable += 1;
            }
            Ok(Response::Error { code, .. }) if code == ERR_BAD_REQUEST && chaos => {
                // The peer bounced our garbled bytes; the stream is
                // desynced and the caller must resync with a fresh dial.
                self.corrupted += 1;
                return true;
            }
            Ok(other) => {
                self.unclassified += 1;
                eprintln!("unexpected response: {other:?}");
            }
            Err(e) if e.is_transport() => self.transport += 1,
            Err(_) if chaos => {
                // A decode failure under injected corruption: the stream
                // position is untrustworthy, so resync.
                self.corrupted += 1;
                return true;
            }
            Err(e) => {
                self.unclassified += 1;
                eprintln!("unexpected error: {e}");
            }
        }
        false
    }
}

/// The `q`-quantile of ascending `sorted` (nearest rank), 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// M throwaway in-process shard daemons behind a consistent-hash router.
pub struct LocalCluster {
    pub shards: Vec<Server>,
    pub router: Router,
}

impl LocalCluster {
    /// Spawns `shards` daemons from `shard` and a router over them from
    /// `router` (its shard list is filled in).
    pub fn spawn(shards: usize, shard: &ServerConfig, router: &RouterConfig) -> LocalCluster {
        let shards: Vec<Server> = (0..shards)
            .map(|_| Server::spawn(shard).expect("bind shard"))
            .collect();
        let router = Router::spawn(&RouterConfig {
            shards: shards.iter().map(Server::local_addr).collect(),
            ..router.clone()
        })
        .expect("bind router");
        LocalCluster { shards, router }
    }

    /// Drains the whole cluster: a wire `Shutdown` to the router, which
    /// forwards it to every shard, then waits for all of them. The reply
    /// is not checked: under server-side chaos it can be lost after the
    /// router took the request.
    pub fn drain(mut self) {
        let mut client = Client::connect(self.router.local_addr()).expect("connect for shutdown");
        let _ = client.call_retrying(&Request::Shutdown, &ReconnectPolicy::default(), None, None);
        self.router.wait();
        for s in &mut self.shards {
            s.wait();
        }
    }
}
