//! A minimal blocking client: one connection, one request in flight.
//!
//! This is what the CLI `request` subcommand, the load generator, the
//! cluster router, and the integration tests all speak through — so
//! client-side framing bugs would show up everywhere at once.
//!
//! Transport failures come in three typed flavours ([`WireError::Refused`]
//! — nobody listening, e.g. mid-restart — [`WireError::Reset`] — the
//! peer died under an established connection — and
//! [`WireError::TimedOut`] — the peer holds the socket but outran its
//! budget), and [`Client::call_retrying`] closes the loop over them:
//! because every `Embed`/`Simulate`/`Stats`/`Health` request is a pure
//! function of its fields, a request the peer never answered can be
//! re-sent verbatim after reconnecting, under the same Fixed/Exponential
//! [`Backoff`] shapes the simulation's `RecoveryPolicy` uses (interpreted
//! here as milliseconds of wall clock instead of simulated cycles).
//!
//! The one exception is `Shutdown`, the protocol's only non-idempotent
//! request: once its frame was *fully written*, the peer may already be
//! draining, so a transport failure after the write is returned instead
//! of replayed — retrying could shut down a freshly restarted daemon.
//! Failures *before* the frame was on the wire (refused at connect, reset
//! mid-write) replay like everything else.
//!
//! Deadline budgets ride the same calls: [`Client::call_host`] and
//! [`Client::call_retrying`] set `SO_RCVTIMEO`/`SO_SNDTIMEO` from the
//! remaining budget and stamp it into the frame's trailing field, so the
//! server, the router, and every hop downstream inherit how much patience
//! this client has left.

use crate::chaos::{ChaosConn, ChaosStream};
use crate::wire::{read_frame, write_request_host, Request, Response, WireError};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xtree_sim::Backoff;

/// How a client heals a broken connection: the client-side analogue of
/// the simulator's `RecoveryPolicy` (same retry-budget + backoff shape,
/// no repair step — reconnecting *is* the repair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Reconnect attempts after the initial failure (0 = fail fast).
    pub max_retries: u32,
    /// Wall-clock wait schedule between attempts, in milliseconds.
    pub backoff: Backoff,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_retries: 5,
            backoff: Backoff::Exponential { base: 25, cap: 400 },
        }
    }
}

/// A connected client. Requests are strictly serial per connection; open
/// several clients for concurrency.
pub struct Client {
    reader: BufReader<ChaosStream>,
    writer: ChaosStream,
    /// Where the connection points, kept for reconnects.
    peer: SocketAddr,
    /// Requests re-sent after a reconnect over this client's lifetime.
    replays: u64,
    /// The seeded fault stream, when this client is a chaos participant.
    /// Kept across reconnects: positions persist, so a consumed fault
    /// never replays.
    chaos: Option<Arc<Mutex<ChaosConn>>>,
}

fn open(
    addr: SocketAddr,
    chaos: &Option<Arc<Mutex<ChaosConn>>>,
) -> std::io::Result<(BufReader<ChaosStream>, ChaosStream)> {
    if let Some(c) = chaos {
        if c.lock().expect("chaos poisoned").refuse_connect() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "chaos: injected connect refusal",
            ));
        }
    }
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let stream = ChaosStream::wrap(stream, chaos.clone());
    let writer = stream.try_clone()?;
    if let Some(c) = chaos {
        c.lock().expect("chaos poisoned").reconnected();
    }
    Ok((BufReader::new(stream), writer))
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    /// Propagates the connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::connect_with_chaos(addr, None)
    }

    /// Connects with an optional seeded fault stream wrapped around the
    /// socket — the load generator and chaos bench use this to make the
    /// *client* side of every connection hostile, deterministically.
    ///
    /// # Errors
    /// Propagates the connect failure (which may itself be an injected
    /// refusal).
    pub fn connect_with_chaos<A: ToSocketAddrs>(
        addr: A,
        chaos: Option<Arc<Mutex<ChaosConn>>>,
    ) -> std::io::Result<Client> {
        let peer = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let (reader, writer) = open(peer, &chaos)?;
        Ok(Client {
            reader,
            writer,
            peer,
            replays: 0,
            chaos,
        })
    }

    /// The address this client (re)connects to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Requests re-sent after a reconnect so far — the client-side replay
    /// accounting `call_retrying` accumulates.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    /// Any wire error, including [`WireError::Closed`] when the server
    /// hangs up without answering and the typed [`WireError::Refused`] /
    /// [`WireError::Reset`] transport classes.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.call_host(req, None, None)
    }

    /// [`Client::call`] with the frame's optional trailing fields.
    ///
    /// * `budget`: the socket's read and write timeouts are set from the
    ///   remaining budget (so a wedged peer surfaces as
    ///   [`WireError::TimedOut`] instead of hanging forever), and the
    ///   remaining microseconds ride the frame for the server and router
    ///   to deduct from.
    /// * `host`: a host-topology tag (`xtree_host::HOST_HYPERCUBE`, …).
    ///   `None` leaves the choice to the server's default.
    ///
    /// # Errors
    /// [`WireError::TimedOut`] when the budget runs out, or any other
    /// wire error.
    pub fn call_host(
        &mut self,
        req: &Request,
        budget: Option<Duration>,
        host: Option<u8>,
    ) -> Result<Response, WireError> {
        self.call_classified(req, budget.map(|b| Instant::now() + b), host)
            .map_err(|(e, _)| e)
    }

    /// The call core: errors carry whether the request frame was fully
    /// written (`true` = the peer may have received and acted on it).
    fn call_classified(
        &mut self,
        req: &Request,
        deadline: Option<Instant>,
        host: Option<u8>,
    ) -> Result<Response, (WireError, bool)> {
        let budget_us = match deadline {
            None => None,
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err((WireError::TimedOut, false));
                }
                // SO_* timeouts reject zero; the 1 ms floor only pads a
                // budget that is already effectively spent.
                let t = Some(remaining.max(Duration::from_millis(1)));
                self.writer.set_read_timeout(t).ok();
                self.writer.set_write_timeout(t).ok();
                // Saturate: `as` would wrap a budget past 2^64 µs to a
                // nearly spent one.
                Some(u64::try_from(remaining.as_micros()).unwrap_or(u64::MAX))
            }
        };
        let sent = write_request_host(&mut self.writer, req, budget_us, host);
        let res = match sent {
            Err(e) => Err((e, false)),
            Ok(()) => match read_frame(&mut self.reader) {
                Ok(Some(bytes)) => crate::wire::decode_response(&bytes).map_err(|e| (e, true)),
                Ok(None) => Err((WireError::Closed, true)),
                Err(e) => Err((e, true)),
            },
        };
        if deadline.is_some() {
            // Budget-free calls on this connection go back to blocking.
            self.writer.set_read_timeout(None).ok();
            self.writer.set_write_timeout(None).ok();
        }
        res
    }

    /// Drops the broken connection and dials the peer again.
    ///
    /// # Errors
    /// The classified connect failure ([`WireError::Refused`] while the
    /// peer is still down).
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        let (reader, writer) = open(self.peer, &self.chaos)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// [`Client::call_host`], but transport failures (refused / reset /
    /// timed out / closed / raw socket errors) trigger reconnect-and-resend
    /// under `policy` instead of failing the first request after a peer
    /// restart. Protocol-level errors (malformed frames, bad fields) are
    /// returned immediately — replaying them would fail identically — and
    /// a `Shutdown` whose frame was fully written is never replayed (see
    /// the module docs).
    ///
    /// The deadline `budget` is shared by *all* attempts: backoff sleeps
    /// are clamped to the remaining budget, a spent budget fails with
    /// [`WireError::TimedOut`] instead of starting another attempt, and
    /// each attempt's frame carries the budget left at that moment. The
    /// `host` tag rides every attempt's frame verbatim.
    ///
    /// # Errors
    /// [`WireError::TimedOut`] when the budget ran out, the last
    /// transport error once the retry budget is spent, or any
    /// non-transport wire error as soon as it occurs.
    pub fn call_retrying(
        &mut self,
        req: &Request,
        policy: &ReconnectPolicy,
        budget: Option<Duration>,
        host: Option<u8>,
    ) -> Result<Response, WireError> {
        let deadline = budget.map(|b| Instant::now() + b);
        // In-flight Shutdown is the one non-idempotent request: once the
        // frame was written, the peer may be draining — don't resend.
        let retryable = |sent: bool| !(sent && matches!(req, Request::Shutdown));
        let mut last = match self.call_classified(req, deadline, host) {
            Ok(resp) => return Ok(resp),
            Err((e, sent)) if e.is_transport() && retryable(sent) => e,
            Err((e, _)) => return Err(e),
        };
        for attempt in 0..policy.max_retries {
            let mut wait = Duration::from_millis(u64::from(policy.backoff.delay(attempt)));
            if let Some(d) = deadline {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(WireError::TimedOut);
                }
                wait = wait.min(remaining);
            }
            std::thread::sleep(wait);
            if let Err(e) = self.reconnect() {
                last = e;
                continue;
            }
            self.replays += 1;
            match self.call_classified(req, deadline, host) {
                Ok(resp) => return Ok(resp),
                Err((e, sent)) if e.is_transport() && retryable(sent) => last = e,
                Err((e, _)) => return Err(e),
            }
        }
        Err(last)
    }
}
