//! The daemon: acceptor, connection handlers, and the worker pool.
//!
//! Threading model: one acceptor thread blocks in `accept()`; each
//! connection gets a handler thread that owns its socket; a fixed pool of
//! worker threads does every build and engine run. A handler answers
//! `Health`/`Stats`/`Shutdown` itself, and runs the warm half of an
//! `Embed`/`Simulate` ([`handle_warm`]: validation and one cache lookup)
//! itself too, so cache hits and validation errors never leave their
//! connection thread. Only the cold half ([`handle_cold`]) goes through
//! the bounded [`BoundedQueue`] as a job, so control requests and warm
//! hits keep working while the pool is saturated. A full queue is an
//! immediate `Overloaded` response — the daemon never buffers unboundedly
//! and never blocks a client on admission.
//!
//! Shutdown is graceful by construction: the flag stops new admissions,
//! closing the queue lets workers drain already-accepted jobs before
//! exiting, and a self-connect wakes the blocking `accept()` so the
//! acceptor can observe the flag and leave. A wire `Shutdown` starts the
//! drain only after its reply is written, so a process that exits as
//! soon as [`Server::wait`] returns never cuts that reply off.

use crate::cache::EmbeddingCache;
use crate::chaos::{ChaosPlan, ChaosStream};
use crate::metrics::{Count, ServerMetrics};
use crate::queue::{BoundedQueue, PushError};
use crate::service::{deadline_reject, handle_cold, handle_warm, Cold, Step};
use crate::wire::{
    decode_request_host, read_frame, write_response, HealthInfo, Request, Response, WireError,
    ERR_BAD_REQUEST, ERR_DEADLINE, ERR_SHUTTING_DOWN,
};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xtree_host::HOST_XTREE;
use xtree_telemetry::Format;

/// How a daemon is shaped: where it listens and how much it admits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Compute threads in the worker pool (≥ 1).
    pub workers: usize,
    /// Bounded job-queue capacity (≥ 1); beyond it requests bounce with
    /// `Overloaded`.
    pub queue_cap: usize,
    /// Total embedding-cache capacity; 0 disables caching.
    pub cache_cap: usize,
    /// `SO_RCVTIMEO`/`SO_SNDTIMEO` for every connection: a peer that
    /// stalls longer than this mid-frame is dropped instead of wedging
    /// its handler thread forever. `None` (the default) keeps the
    /// pre-deadline unbounded blocking behavior.
    pub io_timeout: Option<Duration>,
    /// Seeded fault injection on every accepted connection; `None` (the
    /// default) serves raw sockets.
    pub chaos: Option<ChaosPlan>,
    /// Host topology served to requests that don't carry the wire host
    /// field (`xtree_host::HOST_XTREE` by default — old clients keep the
    /// old behavior). A frame's own host field always wins.
    pub default_host: u8,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            cache_cap: 256,
            io_timeout: None,
            chaos: None,
            default_host: HOST_XTREE,
        }
    }
}

/// One pooled request: its cold half, where to send the answer, and how
/// long anyone still cares.
struct Job {
    work: Cold,
    reply: mpsc::Sender<Response>,
    /// The absolute instant after which the client's budget is spent and
    /// the answer is worthless.
    deadline: Option<Instant>,
}

/// State shared by the acceptor, every handler, and every worker.
struct Shared {
    queue: BoundedQueue<Job>,
    cache: EmbeddingCache,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    /// When the daemon came up — `Health` reports whole seconds since.
    started: Instant,
    io_timeout: Option<Duration>,
    default_host: u8,
}

/// A running daemon. Dropping the handle does not stop it — send a
/// `Shutdown` request (or call [`Server::shutdown`]) and then
/// [`Server::wait`].
pub struct Server {
    local_addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the acceptor and worker pool.
    ///
    /// # Errors
    /// Propagates the bind failure (address in use, permission, …).
    pub fn spawn(config: &ServerConfig) -> std::io::Result<Server> {
        assert!(config.workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_cap.max(1)),
            cache: EmbeddingCache::new(config.cache_cap),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            io_timeout: config.io_timeout,
            default_host: config.default_host,
        });

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xtree-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            let chaos = config.chaos.filter(|p| !p.profile.is_off());
            std::thread::Builder::new()
                .name("xtree-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared, chaos))
                .expect("spawn acceptor")
        };

        Ok(Server {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port picked).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Requests bounced with `Overloaded` so far.
    pub fn overloaded(&self) -> u64 {
        self.shared.metrics.get(Count::Overloaded)
    }

    /// The server metrics at this instant, rendered in `format`.
    pub fn metrics(&self, format: Format) -> String {
        let (cache, depth) = (&self.shared.cache, self.shared.queue.len());
        format.render(
            ServerMetrics::PREFIX,
            &self.shared.metrics.families(cache, depth),
        )
    }

    /// Initiates the same graceful drain a wire `Shutdown` request does.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared, self.local_addr);
    }

    /// Blocks until the acceptor and every worker have exited — i.e.
    /// until a shutdown has been requested *and* accepted work drained.
    /// Idempotent; metrics remain readable afterwards.
    pub fn wait(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Flips the flag, closes the queue (drain point), and self-connects to
/// kick the acceptor out of `accept()`.
fn begin_shutdown(shared: &Shared, addr: std::net::SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    shared.queue.close();
    // The acceptor blocks in accept(); a throwaway connection wakes it so
    // it can observe the flag. Failure is fine — it means the listener is
    // already gone.
    let _ = TcpStream::connect(addr);
}

fn worker_loop(shared: &Shared) {
    // Deadline-expired jobs are answered with the typed rejection on the
    // way past instead of burning compute on an answer nobody awaits.
    // Workers count no errors: the handler counts the reply it writes.
    while let Some(job) = shared.queue.pop_filtered(
        |job| job.deadline.is_none_or(|d| Instant::now() < d),
        |job| {
            let _ = job.reply.send(deadline_reject("queue"));
        },
    ) {
        let resp = handle_cold(job.work, &shared.cache, &shared.metrics);
        // A dead reply channel means the client hung up or its handler
        // timed out; drop the result.
        let _ = job.reply.send(resp);
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>, chaos: Option<ChaosPlan>) {
    // Accepted connections number from 0; under chaos each index derives
    // its own fault stream from the plan.
    let conn_counter = AtomicU64::new(0);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a late client) during drain
        }
        let conn_id = conn_counter.fetch_add(1, Ordering::Relaxed);
        let stream = ChaosStream::wrap(stream, chaos.as_ref().map(|p| p.conn(conn_id)));
        let shared = Arc::clone(shared);
        let addr = listener.local_addr().ok();
        // Handlers are detached: they die with their connection (EOF /
        // error) or with the process. wait() only joins compute threads.
        let _ = std::thread::Builder::new()
            .name("xtree-conn".into())
            .spawn(move || {
                let local = addr.unwrap_or_else(|| "0.0.0.0:0".parse().expect("literal addr"));
                handle_connection(stream, &shared, local);
            });
    }
}

/// The response a malformed frame or payload earns before the connection
/// is dropped (framing cannot be trusted past the first bad byte).
fn wire_reject(e: &WireError) -> Response {
    Response::Error {
        code: ERR_BAD_REQUEST,
        message: format!("bad request: {e}"),
    }
}

/// Serves one connection until EOF, a wire error, an I/O timeout, or
/// shutdown.
fn handle_connection(stream: ChaosStream, shared: &Shared, local: std::net::SocketAddr) {
    // The socket-level budget: a peer that stalls longer than this
    // mid-frame (or between the bytes of one) is dropped, not waited on.
    if stream.set_read_timeout(shared.io_timeout).is_err()
        || stream.set_write_timeout(shared.io_timeout).is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let (req, deadline_us, host) = match read_frame(&mut reader) {
            Ok(Some(bytes)) => match decode_request_host(&bytes) {
                Ok(decoded) => decoded,
                Err(e) => {
                    shared.metrics.count(Count::Requests);
                    shared.metrics.count(Count::Errors);
                    let _ = write_response(&mut writer, &wire_reject(&e));
                    return; // framing is lost after a bad payload
                }
            },
            Ok(None) => return, // clean EOF between frames
            Err(WireError::TimedOut) => {
                // Idle or stalled peer outran the I/O budget: close
                // silently — there is no frame to answer.
                shared.metrics.count(Count::IoTimeouts);
                return;
            }
            Err(WireError::Io(_)) => return,
            Err(e) => {
                shared.metrics.count(Count::Requests);
                shared.metrics.count(Count::Errors);
                let _ = write_response(&mut writer, &wire_reject(&e));
                return;
            }
        };
        shared.metrics.count(Count::Requests);
        // The budget field is the client's *remaining* time at send
        // time; receipt time is the closest clock-free approximation of
        // when it started ticking here.
        let deadline = deadline_us.map(|us| Instant::now() + Duration::from_micros(us));
        let host = host.unwrap_or(shared.default_host);
        let resp = match req {
            Request::Health => {
                shared.metrics.count(Count::HealthRequests);
                // The liveness probe doubles as a load signal: queue
                // depth, cache totals, and uptime ride along as the
                // protocol's optional trailing fields.
                Response::HealthOk {
                    info: Some(HealthInfo {
                        queue_depth: shared.queue.len() as u64,
                        cache_hits: shared.cache.hits(),
                        cache_misses: shared.cache.misses(),
                        uptime_s: shared.started.elapsed().as_secs(),
                    }),
                }
            }
            Request::Stats => {
                shared.metrics.count(Count::StatsRequests);
                Response::StatsOk(shared.metrics.snapshot(&shared.cache, shared.queue.len()))
            }
            // The drain starts below, once this reply is written.
            Request::Shutdown => Response::ShutdownOk {
                pending: shared.queue.len() as u64,
            },
            Request::Embed { .. } | Request::Simulate { .. } => {
                if matches!(req, Request::Embed { .. }) {
                    shared.metrics.count(Count::Embeds);
                } else {
                    shared.metrics.count(Count::Simulates);
                }
                dispatch(shared, &req, host, deadline)
            }
        };
        // Every error is counted here, once, for the reply written —
        // whether the handler, the queue filter or a worker made it.
        if let Response::Error { code, .. } = resp {
            shared.metrics.count(Count::Errors);
            if code == ERR_DEADLINE {
                shared.metrics.count(Count::DeadlineRejects);
            }
        }
        // A budgeted response gets the remaining budget as its write
        // timeout (a dead-slow reader cannot hold the handler past the
        // client's own patience); budget-free traffic keeps io_timeout.
        if let Some(d) = deadline {
            let remaining = d
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            let budget = shared.io_timeout.map_or(remaining, |io| io.min(remaining));
            let _ = writer.set_write_timeout(Some(budget));
        }
        let wrote = write_response(&mut writer, &resp);
        if deadline.is_some() {
            let _ = writer.set_write_timeout(shared.io_timeout);
        }
        let shutting_down = matches!(resp, Response::ShutdownOk { .. });
        if shutting_down {
            // Only now: `xtree-cli serve` exits as soon as the drain is
            // done, and this detached thread's reply would die with it.
            begin_shutdown(shared, local);
        }
        if wrote.is_err() {
            if matches!(wrote, Err(WireError::TimedOut)) {
                shared.metrics.count(Count::IoTimeouts);
            }
            return;
        }
        if shutting_down {
            return;
        }
    }
}

/// The refusal a compute request gets once the drain has started.
fn draining() -> Response {
    Response::Error {
        code: ERR_SHUTTING_DOWN,
        message: "server is draining".into(),
    }
}

/// Answers one compute request: inline when its warm half can, otherwise
/// by admitting its cold half to the pool and blocking (connection thread
/// only) until the reply arrives or the request's deadline budget runs
/// out.
fn dispatch(shared: &Shared, req: &Request, host: u8, deadline: Option<Instant>) -> Response {
    let start = Instant::now();
    // Reject already-expired work before it costs a lookup or a queue
    // slot.
    if deadline.is_some_and(|d| start >= d) {
        return deadline_reject("admission");
    }
    // A draining server answers nothing new, not even from the cache. A
    // drain that starts after this check is caught by the closed queue.
    if shared.shutdown.load(Ordering::SeqCst) {
        return draining();
    }
    let work = match handle_warm(req, host, &shared.cache, &shared.metrics) {
        Step::Reply(resp) => {
            shared.metrics.count(Count::InlineReplies);
            shared
                .metrics
                .observe_latency_us(start.elapsed().as_micros() as u64);
            return resp;
        }
        Step::Cold(work) => work,
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        work,
        reply: reply_tx,
        deadline,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared.metrics.observe_queue_depth(depth as u64);
        }
        Err(PushError::Full(_)) => {
            shared.metrics.count(Count::Overloaded);
            return Response::Overloaded {
                depth: shared.queue.len() as u64,
                cap: shared.queue.capacity() as u64,
            };
        }
        Err(PushError::Closed(_)) => return draining(),
    }
    // recv fails only if the worker died with the job; surface it as a
    // typed error instead of hanging the connection. A budgeted request
    // waits at most its remaining budget — the typed rejection replaces
    // what used to be an unbounded block.
    let resp = match deadline {
        None => reply_rx.recv().ok(),
        Some(d) => match reply_rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
            Ok(resp) => Some(resp),
            // The worker (or the queue filter) will find a dead reply
            // channel and drop its late answer.
            Err(mpsc::RecvTimeoutError::Timeout) => Some(deadline_reject("compute")),
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        },
    };
    let resp = resp.unwrap_or(Response::Error {
        code: crate::wire::ERR_INTERNAL,
        message: "worker dropped the request".into(),
    });
    shared
        .metrics
        .observe_latency_us(start.elapsed().as_micros() as u64);
    resp
}
