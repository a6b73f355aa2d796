//! [`RemoteBackend`]: a [`SimilaritySearch`] client for one shard server.
//!
//! The design goal is blunt: **a dead peer costs a typed error, never a
//! panic and never a hang.** Every connect carries a timeout and a
//! bounded retry budget; every request carries an overall deadline; every
//! transport or decode failure drops the connection (the next request
//! reconnects from scratch) and surfaces as [`OnexError::Network`].
//!
//! The connection is a [`Duplex`](crate::wire): a request sleeps on the
//! reader thread's channel until the reply arrives or the request
//! deadline passes — no socket read timeout, so neither is noticed a
//! timer tick late. During a query the client seeds the request with its
//! current bound and attaches the query's [`SharedBound`] to the
//! connection: a tightening the shard sends lands in the bound the moment
//! the reader decodes it (where the cluster's other connections, subscribed
//! to the same bound, pass it on), and a tightening any other shard
//! produced is written to this one by the thread that applied it. Each
//! live connection costs one parked reader thread.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{
    Capabilities, Epoch, Metric, NetworkErrorKind, OnexError, SearchOutcome, SharedBound,
    SimilaritySearch,
};
use onex_core::QueryOptions;
use parking_lot::Mutex;

use crate::frame::{io_err, read_hello, write_hello};
use crate::proto::{error_from, Message};
use crate::wire::{Duplex, Event};

/// Client-side knobs. The defaults suit a LAN: fail fast on connect,
/// allow long queries.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Overall deadline for one request (query/info/append), measured
    /// from send to reply. Passing it is a typed
    /// [`NetworkErrorKind::Timeout`].
    pub read_timeout: Duration,
    /// Connection attempts per request (the first plus reconnects).
    pub connect_attempts: u32,
    /// Sleep after a failed attempt; doubles per attempt.
    pub reconnect_backoff: Duration,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            connect_attempts: 3,
            reconnect_backoff: Duration::from_millis(25),
        }
    }
}

/// What a shard reported about itself (the `Info` reply).
#[derive(Debug, Clone)]
pub struct RemoteInfo {
    /// The hosted backend's name.
    pub name: String,
    /// The hosted backend's capabilities.
    pub caps: Capabilities,
    /// Series count at the time of the request.
    pub series: u64,
    /// Engine epoch at the time of the request.
    pub epoch: Epoch,
}

/// A [`SimilaritySearch`] backend living in another process, reached
/// over the checksummed binary protocol.
pub struct RemoteBackend {
    addr: String,
    config: RemoteConfig,
    opts: QueryOptions,
    conn: Mutex<Option<Duplex>>,
    info: Mutex<Option<RemoteInfo>>,
    last_epoch: AtomicU64,
    tightenings_sent: AtomicUsize,
    tightenings_received: AtomicUsize,
}

impl RemoteBackend {
    /// A client for the shard at `addr` (e.g. `"127.0.0.1:7401"`). No
    /// connection is made yet — the first request connects lazily.
    pub fn new(addr: impl Into<String>, config: RemoteConfig) -> Self {
        RemoteBackend {
            addr: addr.into(),
            config,
            opts: QueryOptions::default(),
            conn: Mutex::new(None),
            info: Mutex::new(None),
            last_epoch: AtomicU64::new(0),
            tightenings_sent: AtomicUsize::new(0),
            tightenings_received: AtomicUsize::new(0),
        }
    }

    /// Builder-style query options sent with every query.
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The peer address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `(sent, received)` gossip tighten-frame counters, cumulative over
    /// the client's lifetime.
    pub fn gossip_counters(&self) -> (usize, usize) {
        (
            self.tightenings_sent.load(Ordering::Relaxed),
            self.tightenings_received.load(Ordering::Relaxed),
        )
    }

    /// Dial with per-attempt timeout and bounded, backed-off retries.
    /// A protocol version mismatch aborts immediately — retrying cannot
    /// change what the peer speaks.
    fn dial(&self) -> Result<Duplex, OnexError> {
        let addrs: Vec<_> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| {
                OnexError::network(
                    NetworkErrorKind::Unreachable,
                    format!("cannot resolve {}: {e}", self.addr),
                )
            })?
            .collect();
        let Some(target) = addrs.first().copied() else {
            return Err(OnexError::network(
                NetworkErrorKind::Unreachable,
                format!("{} resolves to no address", self.addr),
            ));
        };
        let attempts = self.config.connect_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.config.reconnect_backoff * (1 << (attempt - 1).min(6)));
            }
            match TcpStream::connect_timeout(&target, self.config.connect_timeout) {
                Ok(mut stream) => {
                    let _ = stream.set_nodelay(true);
                    stream
                        .set_read_timeout(Some(self.config.connect_timeout))
                        .map_err(|e| io_err("configuring socket", &e))?;
                    write_hello(&mut stream)?;
                    // VersionMismatch propagates without another attempt.
                    read_hello(&mut stream)?;
                    return Duplex::spawn(stream, false);
                }
                Err(e) => last = Some(e),
            }
        }
        let detail = match last {
            Some(e) => format!("{} after {attempts} attempt(s): {e}", self.addr),
            None => format!("{} after {attempts} attempt(s)", self.addr),
        };
        Err(OnexError::network(NetworkErrorKind::Unreachable, detail))
    }

    /// Run `f` against the (lazily established) connection. Any error
    /// discards the connection so the next request starts clean — after
    /// a failure mid-exchange the stream position is untrustworthy.
    fn with_conn<T>(
        &self,
        f: impl FnOnce(&Duplex) -> Result<T, OnexError>,
    ) -> Result<T, OnexError> {
        let mut guard = self.conn.lock();
        if guard.is_none() {
            *guard = Some(self.dial()?);
        }
        let conn = guard.as_ref().expect("connection just established");
        let result = f(conn);
        if result.is_err() {
            *guard = None;
        }
        result
    }

    /// When a request sent now must have been answered.
    fn deadline(&self) -> Instant {
        Instant::now() + self.config.read_timeout
    }

    /// Sleep until the reply to the request in flight arrives, the peer
    /// goes away, or `deadline` passes.
    fn reply(&self, conn: &Duplex, deadline: Instant) -> Result<Message, OnexError> {
        match conn.recv_until(deadline) {
            Some(Event::Message(Message::ErrorReply { code, detail })) => {
                Err(error_from(code, detail))
            }
            Some(Event::Message(reply)) => Ok(reply),
            Some(Event::Malformed(e) | Event::Closed(Some(e))) => Err(e),
            Some(Event::Closed(None)) => Err(OnexError::network(
                NetworkErrorKind::Closed,
                format!("{} closed the connection before replying", self.addr),
            )),
            None => Err(OnexError::network(
                NetworkErrorKind::Timeout,
                format!(
                    "no reply from {} within {:?}",
                    self.addr, self.config.read_timeout
                ),
            )),
        }
    }

    /// One request/reply exchange with no gossip.
    fn exchange(&self, conn: &Duplex, request: &Message) -> Result<Message, OnexError> {
        let deadline = self.deadline();
        conn.send(request, Some(deadline))?;
        self.reply(conn, deadline)
    }

    /// The bounded query — the cluster fan-out entry point. Seeds the
    /// request with `bound`'s current value, gossips both ways while the
    /// shard works, and returns the shard's answer plus the epoch it was
    /// computed against. The bound comes in an `Arc` because the
    /// connection's reader thread tightens it for as long as the query
    /// runs.
    pub fn k_best_bounded(
        &self,
        query: &[f64],
        k: usize,
        bound: &Arc<SharedBound>,
    ) -> Result<(SearchOutcome, Epoch), OnexError> {
        self.k_best_bounded_with(query, k, &self.opts.clone(), bound)
    }

    /// [`RemoteBackend::k_best_bounded`] with explicit per-call options —
    /// the cluster fan-out localises option series ids per shard, so the
    /// client's default option set cannot be used there.
    pub fn k_best_bounded_with(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
        bound: &Arc<SharedBound>,
    ) -> Result<(SearchOutcome, Epoch), OnexError> {
        onex_api::validate_query(query, k)?;
        self.with_conn(|conn| {
            let deadline = self.deadline();
            let seed = bound.get();
            conn.send_query(k as u32, seed, opts, query, deadline)?;
            let gossip = conn.attach(bound, seed);
            let reply = self.reply(conn, deadline);
            let (sent, received) = gossip.finish();
            self.tightenings_sent.fetch_add(sent, Ordering::Relaxed);
            self.tightenings_received
                .fetch_add(received, Ordering::Relaxed);
            match reply? {
                Message::Answer {
                    epoch,
                    matches,
                    stats,
                    coverage,
                } => {
                    self.last_epoch.store(epoch, Ordering::Relaxed);
                    Ok((
                        SearchOutcome {
                            matches,
                            stats,
                            coverage,
                        },
                        epoch,
                    ))
                }
                other => Err(OnexError::network(
                    NetworkErrorKind::Decode,
                    format!("expected Answer, got {other:?}"),
                )),
            }
        })
    }

    /// Ask the shard to describe itself; caches the reply for
    /// [`SimilaritySearch::capabilities`].
    pub fn info(&self) -> Result<RemoteInfo, OnexError> {
        let info = self.with_conn(|conn| match self.exchange(conn, &Message::InfoRequest)? {
            Message::Info {
                name,
                caps,
                series,
                epoch,
            } => Ok(RemoteInfo {
                name,
                caps,
                series,
                epoch,
            }),
            other => Err(OnexError::network(
                NetworkErrorKind::Decode,
                format!("expected Info, got {other:?}"),
            )),
        })?;
        self.last_epoch.store(info.epoch, Ordering::Relaxed);
        *self.info.lock() = Some(info.clone());
        Ok(info)
    }

    /// Append one series to the remote engine; returns `(epoch, series
    /// count)` after the append.
    pub fn append(&self, name: &str, values: Vec<f64>) -> Result<(Epoch, u64), OnexError> {
        self.with_conn(|conn| {
            let request = Message::Append {
                name: name.to_string(),
                values,
            };
            match self.exchange(conn, &request)? {
                Message::Appended { epoch, series } => {
                    self.last_epoch.store(epoch, Ordering::Relaxed);
                    Ok((epoch, series))
                }
                other => Err(OnexError::network(
                    NetworkErrorKind::Decode,
                    format!("expected Appended, got {other:?}"),
                )),
            }
        })
    }

    /// Deploy a segment-format-v2 base file image to the remote engine —
    /// the cluster's shard-provisioning step. Returns `(epoch, length
    /// columns offered)` after the shard has decoded and adopted it; its
    /// next query answers from it. The image must fit
    /// one frame ([`crate::frame::MAX_FRAME`], 16 MiB): larger bases fail
    /// the send with a typed error — there is no chunking.
    pub fn ship_base(&self, bytes: Vec<u8>) -> Result<(Epoch, u64), OnexError> {
        self.with_conn(
            |conn| match self.exchange(conn, &Message::ShipBase { bytes })? {
                Message::LoadBase { epoch, lengths } => {
                    self.last_epoch.store(epoch, Ordering::Relaxed);
                    Ok((epoch, lengths))
                }
                other => Err(OnexError::network(
                    NetworkErrorKind::Decode,
                    format!("expected LoadBase, got {other:?}"),
                )),
            },
        )
    }
}

impl SimilaritySearch for RemoteBackend {
    fn name(&self) -> &'static str {
        "remote"
    }

    /// The shard's own capabilities when an `Info` exchange has
    /// succeeded; a conservative default (inexact raw-DTW) when the peer
    /// has never been reached — this accessor cannot fail by contract.
    fn capabilities(&self) -> Capabilities {
        if self.info.lock().is_none() {
            let _ = self.info();
        }
        if let Some(info) = self.info.lock().as_ref() {
            return info.caps;
        }
        Capabilities {
            metric: Metric::RawDtw,
            exact: false,
            multi_length: false,
            streaming: false,
            one_match_per_series: false,
            cached: false,
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        let bound = Arc::new(SharedBound::new());
        self.k_best_bounded(query, k, &bound).map(|(out, _)| out)
    }

    fn epoch(&self) -> Epoch {
        self.last_epoch.load(Ordering::Relaxed)
    }
}
