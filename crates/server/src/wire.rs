//! The `XWIRE1` wire protocol: length-prefixed binary frames carrying
//! typed requests and responses.
//!
//! Every frame on the stream is:
//!
//! ```text
//! "XWIRE1\n"            magic + version (like XCKPT1 / XTRACE1)
//! LEB128 payload_len    via xtree_telemetry::varint, capped at 1 MiB
//! payload               one tagged message
//! ```
//!
//! The payload starts with a one-byte tag (requests `1..=5`, responses
//! `128..`), followed by LEB128 fields in a fixed order. Strings are
//! `LEB128 len` + UTF-8 bytes. Decoding never panics: every malformed
//! input — wrong magic, truncation, an unknown tag, trailing bytes, an
//! oversized length — returns a typed [`WireError`], mirrored after the
//! `XCKPT1` decoder's discipline and pinned by the proptest suite.

use std::io::{Read, Write};
use xtree_telemetry::varint::{decode_u64, encode_u64};

/// Frame magic; the trailing digit is the protocol version.
pub const MAGIC: &[u8; 7] = b"XWIRE1\n";

/// Hard cap on one frame's payload: nothing the protocol speaks comes
/// close, so anything larger is a framing error, not a big message.
pub const MAX_PAYLOAD: u64 = 1 << 20;

/// `workload` value meaning "run all four canonical workloads".
pub const WORKLOAD_ALL: u8 = 255;

/// Everything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum WireError {
    /// The stream did not start a frame with `XWIRE1\n`.
    BadMagic,
    /// The frame or a field inside it ended early.
    Truncated,
    /// A declared length exceeds [`MAX_PAYLOAD`].
    TooLarge {
        /// The declared payload length.
        len: u64,
    },
    /// An unknown message tag.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// The payload decoded cleanly but had bytes left over.
    Trailing {
        /// How many bytes were left.
        extra: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A field value does not fit its domain (e.g. a `u8` field > 255).
    BadField {
        /// Which field.
        field: &'static str,
    },
    /// The peer closed the connection mid-frame or before replying.
    Closed,
    /// The peer actively refused the connection: nothing is listening
    /// there (daemon gone, or a restart has not finished binding yet).
    Refused,
    /// An established connection was torn down mid-stream (peer killed,
    /// TCP reset, broken pipe).
    Reset,
    /// A socket read/write ran past its `SO_RCVTIMEO`/`SO_SNDTIMEO`
    /// budget: the peer is (still) connected but did not move bytes in
    /// time. Distinct from [`WireError::Reset`] so failure accounting can
    /// weigh "slow" differently from "dead".
    TimedOut,
    /// Any other underlying socket error.
    Io(std::io::Error),
}

impl WireError {
    /// True for transport-level failures a pure request can safely be
    /// replayed after (the peer never sent a response): connection
    /// refused/reset/closed and raw socket errors. Protocol-level errors
    /// (bad frames, bad fields) are *not* transport errors — replaying
    /// the same bytes would fail the same way.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            WireError::Closed
                | WireError::Refused
                | WireError::Reset
                | WireError::TimedOut
                | WireError::Io(_)
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "missing XWIRE1 magic (not an xtree-server peer?)"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::TooLarge { len } => {
                write!(f, "declared payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            WireError::BadTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadField { field } => write!(f, "field `{field}` out of range"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Refused => write!(f, "connection refused (peer not listening)"),
            WireError::Reset => write!(f, "connection reset mid-stream"),
            WireError::TimedOut => write!(f, "socket deadline elapsed (peer too slow)"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    /// Classifies the socket error: refused and reset/aborted/broken-pipe
    /// kinds get their own typed variants (the client's reconnect logic
    /// tells "peer not up yet" from "peer died under me"), expired
    /// `SO_RCVTIMEO`/`SO_SNDTIMEO` budgets become [`WireError::TimedOut`]
    /// (Unix reports them as `WouldBlock`, other platforms as `TimedOut`),
    /// and everything else stays an opaque [`WireError::Io`].
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::ConnectionRefused => WireError::Refused,
            ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
                WireError::Reset
            }
            ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::TimedOut,
            _ => WireError::Io(e),
        }
    }
}

/// What a client asks the daemon to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Build (or fetch from cache) a Theorem-1/2 embedding and report its
    /// quality metrics.
    Embed {
        /// Index into `TreeFamily::ALL`.
        family: u8,
        /// Guest tree size.
        nodes: u64,
        /// Tree-generation seed.
        seed: u64,
        /// `1` = Theorem 1 (load 16), `2` = Theorem 2 (injectivized).
        theorem: u8,
    },
    /// Run canonical workloads on the (cached) embedding.
    Simulate {
        /// Index into `TreeFamily::ALL`.
        family: u8,
        /// Guest tree size.
        nodes: u64,
        /// Tree-generation seed.
        seed: u64,
        /// `1` = Theorem 1 (load 16), `2` = Theorem 2 (injectivized).
        theorem: u8,
        /// Workload index (`0..4`), or [`WORKLOAD_ALL`] for all four.
        workload: u8,
    },
    /// Snapshot the server's counters, cache, queue, and latency stats.
    Stats,
    /// Liveness probe.
    Health,
    /// Drain in-flight requests and stop the daemon.
    Shutdown,
}

/// One simulated workload's summary on the wire (a `SimReport` with the
/// workload as an index instead of a static string).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireReport {
    /// Index into `xtree_sim::workload::WORKLOADS`.
    pub workload: u8,
    /// Total cycles across all rounds.
    pub cycles: u64,
    /// Dilation-only lower bound.
    pub ideal_cycles: u64,
    /// Maximum traffic over a single directed link in any round.
    pub max_link_traffic: u64,
}

/// Load-signal fields carried by a [`Response::HealthOk`] since the
/// cluster tier landed: the router's liveness probe doubles as a load
/// probe, so one `Health` round-trip tells it both "alive" and "how
/// busy". Encoded as trailing LEB128 fields after the bare tag —
/// decoders that predate them stop at the tag, decoders from this
/// version on accept both shapes, so XWIRE1 stays one protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthInfo {
    /// Request-queue depth at probe time.
    pub queue_depth: u64,
    /// Embedding-cache hits so far.
    pub cache_hits: u64,
    /// Embedding-cache misses so far.
    pub cache_misses: u64,
    /// Whole seconds since the daemon started.
    pub uptime_s: u64,
}

/// The server-stats snapshot on the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Requests accepted (all types, Overloaded rejections included).
    pub requests: u64,
    /// `Embed` requests that reached a worker.
    pub embeds: u64,
    /// `Simulate` requests that reached a worker.
    pub simulates: u64,
    /// Requests bounced with [`Response::Overloaded`].
    pub overloaded: u64,
    /// Requests answered with [`Response::Error`].
    pub errors: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
    /// Embeddings currently cached.
    pub cache_entries: u64,
    /// Request-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Completed pooled requests the latency histogram has seen.
    pub latency_count: u64,
    /// Request latency percentiles, in microseconds (queue wait included).
    pub latency_p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub latency_p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub latency_p99_us: u64,
    /// Engine hops taken by worker simulations.
    pub sim_hops: u64,
    /// Messages delivered by worker simulations.
    pub sim_delivered: u64,
    /// True when this snapshot is an aggregate that could not reach every
    /// contributor (a shard timed out or was down), so the counters
    /// under-report. A single daemon always answers `false`. Encoded as a
    /// trailing field only when set — the `false` encoding is
    /// byte-identical to the pre-deadline protocol, like [`HealthInfo`].
    pub partial: bool,
}

/// What the daemon answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Result of an [`Request::Embed`].
    EmbedOk {
        /// Host X-tree height.
        height: u8,
        /// Measured dilation.
        dilation: u64,
        /// Measured load factor.
        max_load: u64,
        /// Directed-edge congestion of the embedding.
        congestion: u64,
        /// Whether the embedding is injective.
        injective: bool,
        /// True when the embedding came from the cache.
        cached: bool,
    },
    /// Result of a [`Request::Simulate`].
    SimulateOk {
        /// True when the embedding came from the cache.
        cached: bool,
        /// One summary per workload run.
        reports: Vec<WireReport>,
    },
    /// Result of a [`Request::Stats`].
    StatsOk(WireStats),
    /// The daemon is alive. `info` carries the optional trailing load
    /// fields (`None` when the peer predates them — the protocol accepts
    /// both shapes, see [`HealthInfo`]).
    HealthOk {
        /// Queue/cache/uptime load signals, when the peer sends them.
        info: Option<HealthInfo>,
    },
    /// Shutdown accepted; the queue is draining.
    ShutdownOk {
        /// Requests still queued when shutdown was accepted (they will be
        /// answered before the workers exit).
        pending: u64,
    },
    /// The bounded request queue is full — retry later. Never blocks.
    Overloaded {
        /// Queue depth at rejection time.
        depth: u64,
        /// The queue's capacity.
        cap: u64,
    },
    /// The request was understood but cannot be served.
    Error {
        /// Machine-readable code: 1 = bad request, 2 = internal failure,
        /// 3 = shutting down.
        code: u8,
        /// Human-readable explanation.
        message: String,
    },
}

/// Error code for a request with out-of-domain fields.
pub const ERR_BAD_REQUEST: u8 = 1;
/// Error code for an internal failure (engine error, dead worker).
pub const ERR_INTERNAL: u8 = 2;
/// Error code for work refused because the daemon is draining.
pub const ERR_SHUTTING_DOWN: u8 = 3;
/// Error code the cluster router returns when *no* shard is live to take
/// a request (every attempt found an empty ring).
pub const ERR_UNREACHABLE: u8 = 4;
/// Error code the cluster router returns when the replay budget ran out
/// before any shard answered (some shards were live but kept failing).
pub const ERR_EXHAUSTED: u8 = 5;
/// Error code for a request whose deadline budget expired before the work
/// could run (rejected at admission, in the queue, or mid-replay). The
/// typed reply replaces what would otherwise be an unbounded hang.
pub const ERR_DEADLINE: u8 = 6;

const TAG_EMBED: u8 = 1;
const TAG_SIMULATE: u8 = 2;
const TAG_STATS: u8 = 3;
const TAG_HEALTH: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_EMBED_OK: u8 = 128;
const TAG_SIMULATE_OK: u8 = 129;
const TAG_STATS_OK: u8 = 130;
const TAG_HEALTH_OK: u8 = 131;
const TAG_SHUTDOWN_OK: u8 = 132;
const TAG_OVERLOADED: u8 = 133;
const TAG_ERROR: u8 = 134;

fn word(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    decode_u64(bytes, pos).ok_or(WireError::Truncated)
}

fn byte_field(bytes: &[u8], pos: &mut usize, field: &'static str) -> Result<u8, WireError> {
    u8::try_from(word(bytes, pos)?).map_err(|_| WireError::BadField { field })
}

fn bool_field(bytes: &[u8], pos: &mut usize, field: &'static str) -> Result<bool, WireError> {
    match word(bytes, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::BadField { field }),
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = word(bytes, pos)?;
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge { len });
    }
    let len = len as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(WireError::Truncated)?;
    let s = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| WireError::BadUtf8)?;
    *pos = end;
    Ok(s.to_owned())
}

/// Sentinel for "no deadline budget" in the two-word trailer that
/// [`encode_request_host`] writes for a host-tagged request: trailing
/// fields decode positionally, so the host word can only follow a budget
/// word, and a request without a budget carries this in the budget slot.
/// Never a meaningful budget — a real `u64::MAX`-microsecond deadline is
/// ~585 millennia, and the encoder clamps one word below.
pub const NO_BUDGET: u64 = u64::MAX;

/// Encodes a request payload (no frame header): the tag, the body's
/// LEB128 fields, then the optional trailing fields, one word each:
///
/// * no budget, no host → no trailing words (the pre-deadline frame);
/// * budget only → one word, the budget in microseconds;
/// * host set → two words: the budget (or [`NO_BUDGET`]), then the host
///   tag. A budget beside a host tag is clamped below the sentinel.
///
/// Each shape extends the bare encoding of the same request, so a peer
/// that stops reading after the body sees the added fields as trailing
/// bytes, never as a different request.
pub fn encode_request_host(
    req: &Request,
    deadline_us: Option<u64>,
    host: Option<u8>,
    buf: &mut Vec<u8>,
) {
    match req {
        Request::Embed {
            family,
            nodes,
            seed,
            theorem,
        } => {
            buf.push(TAG_EMBED);
            encode_u64(buf, u64::from(*family));
            encode_u64(buf, *nodes);
            encode_u64(buf, *seed);
            encode_u64(buf, u64::from(*theorem));
        }
        Request::Simulate {
            family,
            nodes,
            seed,
            theorem,
            workload,
        } => {
            buf.push(TAG_SIMULATE);
            encode_u64(buf, u64::from(*family));
            encode_u64(buf, *nodes);
            encode_u64(buf, *seed);
            encode_u64(buf, u64::from(*theorem));
            encode_u64(buf, u64::from(*workload));
        }
        Request::Stats => buf.push(TAG_STATS),
        Request::Health => buf.push(TAG_HEALTH),
        Request::Shutdown => buf.push(TAG_SHUTDOWN),
    }
    match (deadline_us, host) {
        (None, None) => {}
        (Some(us), None) => encode_u64(buf, us),
        (budget, Some(h)) => {
            encode_u64(buf, budget.map_or(NO_BUDGET, |us| us.min(NO_BUDGET - 1)));
            encode_u64(buf, u64::from(h));
        }
    }
}

/// Decodes a request payload and its optional trailing budget and host
/// fields (see [`encode_request_host`] for the four shapes), returning
/// `None` for each field the peer did not send. The whole slice must be
/// consumed. Servers and routers decode every request with this.
///
/// # Errors
/// [`WireError`] on truncation, an unknown tag, a field beyond its
/// domain (a host tag beyond `u8`), or bytes beyond the host field.
pub fn decode_request_host(bytes: &[u8]) -> Result<(Request, Option<u64>, Option<u8>), WireError> {
    let (&tag, rest) = bytes.split_first().ok_or(WireError::Truncated)?;
    let mut pos = 0usize;
    let req = match tag {
        TAG_EMBED => Request::Embed {
            family: byte_field(rest, &mut pos, "family")?,
            nodes: word(rest, &mut pos)?,
            seed: word(rest, &mut pos)?,
            theorem: byte_field(rest, &mut pos, "theorem")?,
        },
        TAG_SIMULATE => Request::Simulate {
            family: byte_field(rest, &mut pos, "family")?,
            nodes: word(rest, &mut pos)?,
            seed: word(rest, &mut pos)?,
            theorem: byte_field(rest, &mut pos, "theorem")?,
            workload: byte_field(rest, &mut pos, "workload")?,
        },
        TAG_STATS => Request::Stats,
        TAG_HEALTH => Request::Health,
        TAG_SHUTDOWN => Request::Shutdown,
        tag => return Err(WireError::BadTag { tag }),
    };
    if pos == rest.len() {
        return Ok((req, None, None));
    }
    let budget = word(rest, &mut pos)?;
    if pos == rest.len() {
        // One-word shape: a budget and no host, so even `u64::MAX` is a
        // real budget here.
        return Ok((req, Some(budget), None));
    }
    let host = byte_field(rest, &mut pos, "host")?;
    if pos != rest.len() {
        return Err(WireError::Trailing {
            extra: rest.len() - pos,
        });
    }
    let deadline_us = (budget != NO_BUDGET).then_some(budget);
    Ok((req, deadline_us, Some(host)))
}

/// Encodes a response payload (no frame header).
pub fn encode_response(resp: &Response, buf: &mut Vec<u8>) {
    match resp {
        Response::EmbedOk {
            height,
            dilation,
            max_load,
            congestion,
            injective,
            cached,
        } => {
            buf.push(TAG_EMBED_OK);
            encode_u64(buf, u64::from(*height));
            encode_u64(buf, *dilation);
            encode_u64(buf, *max_load);
            encode_u64(buf, *congestion);
            encode_u64(buf, u64::from(*injective));
            encode_u64(buf, u64::from(*cached));
        }
        Response::SimulateOk { cached, reports } => {
            buf.push(TAG_SIMULATE_OK);
            encode_u64(buf, u64::from(*cached));
            encode_u64(buf, reports.len() as u64);
            for r in reports {
                encode_u64(buf, u64::from(r.workload));
                encode_u64(buf, r.cycles);
                encode_u64(buf, r.ideal_cycles);
                encode_u64(buf, r.max_link_traffic);
            }
        }
        Response::StatsOk(s) => {
            buf.push(TAG_STATS_OK);
            for v in [
                s.requests,
                s.embeds,
                s.simulates,
                s.overloaded,
                s.errors,
                s.cache_hits,
                s.cache_misses,
                s.cache_entries,
                s.queue_depth,
                s.latency_count,
                s.latency_p50_us,
                s.latency_p95_us,
                s.latency_p99_us,
                s.sim_hops,
                s.sim_delivered,
            ] {
                encode_u64(buf, v);
            }
            // Trailing field, written only when set: the `false` encoding
            // is byte-identical to the pre-deadline 15-word shape.
            if s.partial {
                encode_u64(buf, 1);
            }
        }
        Response::HealthOk { info } => {
            buf.push(TAG_HEALTH_OK);
            if let Some(i) = info {
                for v in [i.queue_depth, i.cache_hits, i.cache_misses, i.uptime_s] {
                    encode_u64(buf, v);
                }
            }
        }
        Response::ShutdownOk { pending } => {
            buf.push(TAG_SHUTDOWN_OK);
            encode_u64(buf, *pending);
        }
        Response::Overloaded { depth, cap } => {
            buf.push(TAG_OVERLOADED);
            encode_u64(buf, *depth);
            encode_u64(buf, *cap);
        }
        Response::Error { code, message } => {
            buf.push(TAG_ERROR);
            encode_u64(buf, u64::from(*code));
            encode_u64(buf, message.len() as u64);
            buf.extend_from_slice(message.as_bytes());
        }
    }
}

/// Decodes a response payload. The whole slice must be consumed.
///
/// # Errors
/// [`WireError`] on truncation, an unknown tag, bad UTF-8, or trailing
/// bytes.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let (&tag, rest) = bytes.split_first().ok_or(WireError::Truncated)?;
    let mut pos = 0usize;
    let resp = match tag {
        TAG_EMBED_OK => Response::EmbedOk {
            height: byte_field(rest, &mut pos, "height")?,
            dilation: word(rest, &mut pos)?,
            max_load: word(rest, &mut pos)?,
            congestion: word(rest, &mut pos)?,
            injective: bool_field(rest, &mut pos, "injective")?,
            cached: bool_field(rest, &mut pos, "cached")?,
        },
        TAG_SIMULATE_OK => {
            let cached = bool_field(rest, &mut pos, "cached")?;
            let count = word(rest, &mut pos)?;
            if count > MAX_PAYLOAD {
                return Err(WireError::TooLarge { len: count });
            }
            // A report takes at least four bytes, so the rest of the
            // payload bounds how many can follow whatever `count` claims.
            let mut reports = Vec::with_capacity((count as usize).min((rest.len() - pos) / 4));
            for _ in 0..count {
                reports.push(WireReport {
                    workload: byte_field(rest, &mut pos, "workload")?,
                    cycles: word(rest, &mut pos)?,
                    ideal_cycles: word(rest, &mut pos)?,
                    max_link_traffic: word(rest, &mut pos)?,
                });
            }
            Response::SimulateOk { cached, reports }
        }
        TAG_STATS_OK => {
            let mut s = WireStats::default();
            for slot in [
                &mut s.requests,
                &mut s.embeds,
                &mut s.simulates,
                &mut s.overloaded,
                &mut s.errors,
                &mut s.cache_hits,
                &mut s.cache_misses,
                &mut s.cache_entries,
                &mut s.queue_depth,
                &mut s.latency_count,
                &mut s.latency_p50_us,
                &mut s.latency_p95_us,
                &mut s.latency_p99_us,
                &mut s.sim_hops,
                &mut s.sim_delivered,
            ] {
                *slot = word(rest, &mut pos)?;
            }
            // Optional trailing `partial` marker (aggregates that missed
            // a shard); absent means complete, the pre-deadline shape.
            if pos != rest.len() {
                s.partial = bool_field(rest, &mut pos, "partial")?;
            }
            Response::StatsOk(s)
        }
        // A bare tag is the pre-cluster shape; trailing fields are the
        // load signals. Both are valid XWIRE1.
        TAG_HEALTH_OK => Response::HealthOk {
            info: if rest.is_empty() {
                None
            } else {
                Some(HealthInfo {
                    queue_depth: word(rest, &mut pos)?,
                    cache_hits: word(rest, &mut pos)?,
                    cache_misses: word(rest, &mut pos)?,
                    uptime_s: word(rest, &mut pos)?,
                })
            },
        },
        TAG_SHUTDOWN_OK => Response::ShutdownOk {
            pending: word(rest, &mut pos)?,
        },
        TAG_OVERLOADED => Response::Overloaded {
            depth: word(rest, &mut pos)?,
            cap: word(rest, &mut pos)?,
        },
        TAG_ERROR => Response::Error {
            code: byte_field(rest, &mut pos, "code")?,
            message: string(rest, &mut pos)?,
        },
        tag => return Err(WireError::BadTag { tag }),
    };
    if pos != rest.len() {
        return Err(WireError::Trailing {
            extra: rest.len() - pos,
        });
    }
    Ok(resp)
}

/// Wraps a payload in a frame: magic, LEB128 length, payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 10 + payload.len());
    out.extend_from_slice(MAGIC);
    encode_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// The most bytes one LEB128 word takes.
const MAX_WORD: usize = 10;

/// An upper bound on a request's payload length: the tag, at most five
/// body words and two trailing words.
const REQUEST_BOUND: usize = 1 + 7 * MAX_WORD;

/// Writes the frame of the payload `encode` appends, with one `write_all`
/// from one buffer allocated once: `bound` must be at least the payload's
/// length. The length varint goes after the payload and is rotated in
/// front of it, so the payload is encoded in place.
fn write_frame<W: Write>(
    w: &mut W,
    bound: usize,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(MAGIC.len() + bound + MAX_WORD);
    buf.extend_from_slice(MAGIC);
    encode(&mut buf);
    let len = buf.len() - MAGIC.len();
    encode_u64(&mut buf, len as u64);
    let varint = buf.len() - MAGIC.len() - len;
    buf[MAGIC.len()..].rotate_right(varint);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// An upper bound on `resp`'s payload length: the tag, its words, and an
/// error's message bytes.
fn response_bound(resp: &Response) -> usize {
    1 + match resp {
        Response::EmbedOk { .. } => 6 * MAX_WORD,
        Response::SimulateOk { reports, .. } => (2 + 4 * reports.len()) * MAX_WORD,
        Response::StatsOk(_) => 16 * MAX_WORD,
        Response::HealthOk { .. } => 4 * MAX_WORD,
        Response::ShutdownOk { .. } => MAX_WORD,
        Response::Overloaded { .. } => 2 * MAX_WORD,
        Response::Error { message, .. } => 2 * MAX_WORD + message.len(),
    }
}

/// Writes one framed request with its optional deadline-budget and host
/// fields (see [`encode_request_host`]) to `w`.
///
/// # Errors
/// [`WireError::Io`] on socket failure.
pub fn write_request_host<W: Write>(
    w: &mut W,
    req: &Request,
    deadline_us: Option<u64>,
    host: Option<u8>,
) -> Result<(), WireError> {
    write_frame(w, REQUEST_BOUND, |buf| {
        encode_request_host(req, deadline_us, host, buf)
    })
}

/// Writes one framed response to `w`.
///
/// # Errors
/// [`WireError::Io`] on socket failure.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<(), WireError> {
    write_frame(w, response_bound(resp), |buf| encode_response(resp, buf))
}

/// Reads one frame's payload from `r`. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer hung up between messages).
///
/// # Errors
/// [`WireError::BadMagic`] / [`WireError::Truncated`] /
/// [`WireError::TooLarge`] on framing violations, [`WireError::Io`] on
/// socket failure.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut magic = [0u8; 7];
    let mut got = 0usize;
    while got < magic.len() {
        match r.read(&mut magic[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if &magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    // The length varint, byte by byte (≤ 10 bytes for a u64).
    let mut len_bytes = [0u8; MAX_WORD];
    let mut got = 0usize;
    let len = loop {
        match r.read(&mut len_bytes[got..=got]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(_) => {
                got += 1;
                if len_bytes[got - 1] & 0x80 == 0 {
                    let mut pos = 0;
                    break decode_u64(&len_bytes[..got], &mut pos).ok_or(WireError::Truncated)?;
                }
                if got == MAX_WORD {
                    return Err(WireError::Truncated);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    };
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request_host(&req, None, None, &mut buf);
        assert_eq!(decode_request_host(&buf).unwrap(), (req, None, None));
    }

    /// Round-trips `resp`, and checks that `write_response` sends exactly
    /// its framed encoding from a buffer sized by `response_bound`.
    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        assert_eq!(decode_response(&buf).unwrap(), resp);
        assert!(buf.len() <= response_bound(&resp), "{resp:?}");
        let mut sent = Vec::new();
        write_response(&mut sent, &resp).unwrap();
        assert_eq!(sent, frame(&buf), "{resp:?}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Embed {
            family: 3,
            nodes: 496,
            seed: u64::MAX,
            theorem: 2,
        });
        round_trip_request(Request::Simulate {
            family: 0,
            nodes: 1,
            seed: 0,
            theorem: 1,
            workload: WORKLOAD_ALL,
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Health);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::EmbedOk {
            height: 5,
            dilation: 3,
            max_load: 16,
            congestion: 40,
            injective: false,
            cached: true,
        });
        round_trip_response(Response::SimulateOk {
            cached: false,
            reports: vec![
                WireReport {
                    workload: 0,
                    cycles: 100,
                    ideal_cycles: 30,
                    max_link_traffic: 7,
                },
                WireReport {
                    workload: 3,
                    cycles: u64::MAX,
                    ideal_cycles: 0,
                    max_link_traffic: 1,
                },
            ],
        });
        round_trip_response(Response::StatsOk(WireStats {
            requests: 10,
            cache_hits: 9,
            latency_p99_us: 1 << 40,
            ..WireStats::default()
        }));
        round_trip_response(Response::HealthOk { info: None });
        round_trip_response(Response::HealthOk {
            info: Some(HealthInfo {
                queue_depth: 3,
                cache_hits: 1 << 40,
                cache_misses: 0,
                uptime_s: 86400,
            }),
        });
        round_trip_response(Response::ShutdownOk { pending: 4 });
        round_trip_response(Response::Overloaded { depth: 64, cap: 64 });
        round_trip_response(Response::Error {
            code: ERR_BAD_REQUEST,
            message: "unknown family 99 — héllo".into(),
        });
        // Two- and three-byte length varints in front of the payload.
        for len in [200, 20_000] {
            round_trip_response(Response::Error {
                code: ERR_BAD_REQUEST,
                message: "x".repeat(len),
            });
        }
    }

    #[test]
    fn the_longest_request_frame_fits_its_buffer() {
        let req = Request::Simulate {
            family: u8::MAX,
            nodes: u64::MAX,
            seed: u64::MAX,
            theorem: u8::MAX,
            workload: u8::MAX,
        };
        let mut payload = Vec::new();
        encode_request_host(&req, Some(NO_BUDGET - 1), Some(u8::MAX), &mut payload);
        assert!(payload.len() <= REQUEST_BOUND);
        let mut sent = Vec::new();
        write_request_host(&mut sent, &req, Some(NO_BUDGET - 1), Some(u8::MAX)).unwrap();
        assert_eq!(sent, frame(&payload));
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut payload = Vec::new();
        encode_request_host(&Request::Health, None, None, &mut payload);
        let bytes = frame(&payload);
        assert_eq!(&bytes[..7], MAGIC);
        let mut cursor = std::io::Cursor::new(&bytes);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, payload);
        // A second read at the clean boundary reports EOF, not an error.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn read_frame_rejects_garbage_and_truncation() {
        let mut garbage = std::io::Cursor::new(b"GARBAGE-NOT-A-FRAME".to_vec());
        assert!(matches!(read_frame(&mut garbage), Err(WireError::BadMagic)));
        let mut payload = Vec::new();
        encode_request_host(&Request::Stats, None, None, &mut payload);
        let bytes = frame(&payload);
        for cut in 1..bytes.len() {
            let mut cursor = std::io::Cursor::new(&bytes[..cut]);
            assert!(
                matches!(read_frame(&mut cursor), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn read_frame_rejects_oversized_declarations() {
        let mut bytes = MAGIC.to_vec();
        encode_u64(&mut bytes, MAX_PAYLOAD + 1);
        let mut cursor = std::io::Cursor::new(&bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn decoders_reject_unknown_tags_and_trailing_bytes() {
        assert!(matches!(
            decode_request_host(&[200]),
            Err(WireError::BadTag { tag: 200 })
        ));
        assert!(matches!(
            decode_request_host(&[]),
            Err(WireError::Truncated)
        ));
        // Two trailing words are the budget and host fields; a third is
        // one too many.
        let mut buf = Vec::new();
        encode_request_host(&Request::Health, Some(0), Some(0), &mut buf);
        buf.push(0);
        assert!(matches!(
            decode_request_host(&buf),
            Err(WireError::Trailing { extra: 1 })
        ));
        assert!(matches!(
            decode_response(&[TAG_ERROR, 1, 200]),
            Err(WireError::Truncated) | Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn bare_health_ok_still_decodes() {
        // A peer running the pre-cluster protocol sends just the tag; the
        // trailing load fields are optional by construction.
        assert_eq!(
            decode_response(&[TAG_HEALTH_OK]).unwrap(),
            Response::HealthOk { info: None }
        );
        // Partial trailing fields are a truncation, not a silent None.
        let mut buf = vec![TAG_HEALTH_OK];
        encode_u64(&mut buf, 3);
        assert!(matches!(decode_response(&buf), Err(WireError::Truncated)));
    }

    /// The request both trailing-field tests extend, and its payload with
    /// the given trailing fields.
    const TRAILER_REQ: Request = Request::Embed {
        family: 4,
        nodes: 2032,
        seed: 11,
        theorem: 1,
    };

    fn encoded(budget: Option<u64>, host: Option<u8>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_request_host(&TRAILER_REQ, budget, host, &mut buf);
        buf
    }

    /// `bare` followed by `words`, one LEB128 word each.
    fn with_words(bare: &[u8], words: &[u64]) -> Vec<u8> {
        let mut buf = bare.to_vec();
        for &w in words {
            encode_u64(&mut buf, w);
        }
        buf
    }

    #[test]
    fn deadline_budget_is_an_optional_trailing_field() {
        // No budget: the pre-deadline encoding, decoding with no fields.
        let bare = encoded(None, None);
        assert_eq!(
            decode_request_host(&bare).unwrap(),
            (TRAILER_REQ, None, None)
        );
        // A budget is one word after the bare request. A zero budget
        // (already expired at send time) is representable, and in this
        // one-word shape even u64::MAX is a real budget: the sentinel
        // exists only beside a host tag.
        for budget in [250_000, 0, u64::MAX] {
            let expected = with_words(&bare, &[budget]);
            assert_eq!(encoded(Some(budget), None), expected, "{budget}");
            assert_eq!(
                decode_request_host(&expected).unwrap(),
                (TRAILER_REQ, Some(budget), None)
            );
        }
    }

    #[test]
    fn host_is_an_optional_trailing_field() {
        let bare = encoded(None, None);
        // A host tag is two words after the bare request: the budget, or
        // the sentinel when there is none, then the tag.
        for (budget, host, words) in [(None, 1, [NO_BUDGET, 1]), (Some(250_000), 2, [250_000, 2])] {
            let expected = with_words(&bare, &words);
            assert_eq!(encoded(budget, Some(host)), expected, "{budget:?}");
            assert_eq!(
                decode_request_host(&expected).unwrap(),
                (TRAILER_REQ, budget, Some(host))
            );
        }
        // A u64::MAX budget beside a host is clamped rather than misread
        // as "no budget".
        assert_eq!(
            encoded(Some(u64::MAX), Some(0)),
            with_words(&bare, &[NO_BUDGET - 1, 0])
        );
        assert_eq!(
            decode_request_host(&encoded(Some(u64::MAX), Some(0))).unwrap(),
            (TRAILER_REQ, Some(u64::MAX - 1), Some(0))
        );
        // A host tag beyond u8 is malformed.
        assert!(matches!(
            decode_request_host(&with_words(&bare, &[5, 256])),
            Err(WireError::BadField { field: "host" })
        ));
    }

    #[test]
    fn stats_partial_marker_is_an_optional_trailing_field() {
        let complete = WireStats {
            requests: 10,
            ..WireStats::default()
        };
        let mut bare = Vec::new();
        encode_response(&Response::StatsOk(complete.clone()), &mut bare);
        // A complete snapshot encodes to the pre-deadline 15-word shape
        // and decodes with `partial: false`.
        assert_eq!(
            decode_response(&bare).unwrap(),
            Response::StatsOk(complete.clone())
        );
        let partial = WireStats {
            partial: true,
            ..complete
        };
        let mut marked = Vec::new();
        encode_response(&Response::StatsOk(partial.clone()), &mut marked);
        assert_eq!(marked.len(), bare.len() + 1);
        assert_eq!(
            decode_response(&marked).unwrap(),
            Response::StatsOk(partial)
        );
        // The marker is a bool: any other value is malformed.
        *marked.last_mut().unwrap() = 7;
        assert!(matches!(
            decode_response(&marked),
            Err(WireError::BadField { field: "partial" })
        ));
    }

    #[test]
    fn socket_timeouts_classify_as_timed_out() {
        use std::io::{Error, ErrorKind};
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            let e: WireError = Error::from(kind).into();
            assert!(matches!(e, WireError::TimedOut), "{kind:?}");
            assert!(e.is_transport());
        }
    }

    #[test]
    fn bool_and_byte_fields_are_domain_checked() {
        // An EmbedOk whose `injective` field is 7 is malformed.
        let mut buf = vec![TAG_EMBED_OK];
        for v in [5u64, 3, 16, 40, 7, 0] {
            encode_u64(&mut buf, v);
        }
        assert!(matches!(
            decode_response(&buf),
            Err(WireError::BadField { field: "injective" })
        ));
        // A request whose family field exceeds u8 is malformed.
        let mut buf = vec![TAG_EMBED];
        for v in [300u64, 496, 7, 1] {
            encode_u64(&mut buf, v);
        }
        assert!(matches!(
            decode_request_host(&buf),
            Err(WireError::BadField { field: "family" })
        ));
    }
}
