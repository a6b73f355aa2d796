//! The shard server: hosts one [`Onex`] engine behind the wire protocol.
//!
//! One connection is one blocking conversation. Outside a query the
//! server just decodes frames and answers them; **during** a query it
//! becomes a gossip pump: the DTW work runs on a scoped helper thread
//! against an epoch-pinned snapshot while the connection thread
//! alternates between draining client `Tighten` frames into the query's
//! [`SharedBound`] and pushing the bound back out whenever the local
//! search tightened it — so a shard's discoveries start pruning on every
//! other shard within a pump tick, not after the answer.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use onex_api::{NetworkErrorKind, OnexError, SharedBound, SimilaritySearch};
use onex_core::backends::{outcome, OnexBackend};
use onex_core::Onex;
use onex_tseries::TimeSeries;

use crate::accept::{serve_streams, AcceptOptions};
use crate::frame::{read_hello, write_frame, write_hello, FrameReader, Poll};
use crate::proto::{error_code, Message};

/// How long the pump waits on the socket / the compute channel per tick.
/// Small enough that gossip crosses the wire in well under a millisecond
/// of queueing; large enough not to burn a core spinning.
const PUMP_TICK: Duration = Duration::from_micros(200);
/// Read timeout for the hello preamble — a peer that connects and says
/// nothing should not pin a worker forever.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Hosts one engine behind the binary protocol on the shared
/// worker-pool accept loop.
#[derive(Clone)]
pub struct ShardServer {
    engine: Arc<Onex>,
}

impl ShardServer {
    /// A server around an engine handle. The engine stays shared — the
    /// hosting process can keep appending to it; queries pin snapshots.
    pub fn new(engine: Arc<Onex>) -> Self {
        ShardServer { engine }
    }

    /// Serve forever on an already-bound listener with
    /// [`AcceptOptions::default`].
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        self.serve_with(listener, &AcceptOptions::default())
    }

    /// [`ShardServer::serve`] with explicit pool/backoff settings.
    pub fn serve_with(&self, listener: TcpListener, opts: &AcceptOptions) -> std::io::Result<()> {
        let server = self.clone();
        serve_streams(listener.incoming(), opts, move |stream| {
            let _ = server.handle_conn(stream);
        })
    }

    /// One connection: hello exchange, then a frame loop until the peer
    /// hangs up. Returns `Err` only for protocol violations / transport
    /// failures — the caller (a pool worker) just drops the connection.
    pub fn handle_conn(&self, stream: TcpStream) -> Result<(), OnexError> {
        let mut stream = stream;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(HELLO_TIMEOUT))
            .map_err(|e| crate::frame::io_err("configuring socket", &e))?;
        // Both sides write first, then read: 6 bytes always fit in the
        // socket buffer, so this cannot deadlock, and a client talking to
        // a non-ONEX port still gets a hello it can reject as garbage.
        write_hello(&mut stream)?;
        read_hello(&mut stream)?;

        let mut reader = FrameReader::new();
        loop {
            stream
                .set_read_timeout(None)
                .map_err(|e| crate::frame::io_err("configuring socket", &e))?;
            match reader.poll_frame(&mut stream)? {
                Poll::Closed => return Ok(()),
                Poll::TimedOut => continue,
                Poll::Frame(kind, payload) => {
                    let msg = match Message::decode(kind, &payload) {
                        Ok(m) => m,
                        Err(e) => {
                            // The stream still frames correctly (the
                            // checksum held) — report and keep serving.
                            self.reply_error(&mut stream, &e)?;
                            continue;
                        }
                    };
                    match msg {
                        Message::Query {
                            k,
                            seed,
                            opts,
                            query,
                        } => self.handle_query(&mut stream, &mut reader, k, seed, opts, query)?,
                        Message::InfoRequest => {
                            let backend = OnexBackend::new(Arc::clone(&self.engine));
                            let reply = Message::Info {
                                name: "onex".into(),
                                caps: backend.capabilities(),
                                series: self.engine.dataset().len() as u64,
                                epoch: self.engine.epoch(),
                            };
                            self.send(&mut stream, &reply)?;
                        }
                        Message::Append { name, values } => {
                            let reply =
                                match self.engine.append_series(TimeSeries::new(name, values)) {
                                    // What *this* append committed, not
                                    // what a concurrent one has since.
                                    Ok(report) => Message::Appended {
                                        epoch: report.epoch,
                                        series: report.series as u64,
                                    },
                                    Err(e) => {
                                        let (code, detail) = error_code(&e);
                                        Message::ErrorReply { code, detail }
                                    }
                                };
                            self.send(&mut stream, &reply)?;
                        }
                        Message::ShipBase { bytes } => {
                            let reply = match self.engine.install_base(bytes) {
                                Ok(()) => Message::LoadBase {
                                    epoch: self.engine.epoch(),
                                    lengths: self
                                        .engine
                                        .base_source()
                                        .map_or(0, |s| s.total_lengths as u64),
                                },
                                Err(e) => {
                                    let (code, detail) = error_code(&e);
                                    Message::ErrorReply { code, detail }
                                }
                            };
                            self.send(&mut stream, &reply)?;
                        }
                        // A tighten outside a query is a stale gossip tail
                        // from a finished one — harmless, drop it.
                        Message::Tighten { .. } => {}
                        other => {
                            let e = OnexError::network(
                                NetworkErrorKind::Decode,
                                format!("unexpected client message: {other:?}"),
                            );
                            self.reply_error(&mut stream, &e)?;
                        }
                    }
                }
            }
        }
    }

    fn send(&self, stream: &mut TcpStream, msg: &Message) -> Result<(), OnexError> {
        let (kind, payload) = msg.encode();
        write_frame(stream, kind, &payload)
    }

    fn reply_error(&self, stream: &mut TcpStream, e: &OnexError) -> Result<(), OnexError> {
        let (code, detail) = error_code(e);
        self.send(stream, &Message::ErrorReply { code, detail })
    }

    /// Run one bounded query while pumping gossip both ways.
    fn handle_query(
        &self,
        stream: &mut TcpStream,
        reader: &mut FrameReader,
        k: u32,
        seed: f64,
        opts: onex_core::QueryOptions,
        query: Vec<f64>,
    ) -> Result<(), OnexError> {
        // A snapshot only sees columns resolved before it was pinned:
        // on a cold-started (or freshly shipped) base, pull in the ones
        // this query's plan touches first.
        if let Err(e) = self.engine.prepare(query.len(), &opts) {
            return self.reply_error(stream, &e);
        }
        let snapshot = self.engine.snapshot();
        let epoch = snapshot.epoch();
        let bound = Arc::new(SharedBound::new());
        bound.tighten(seed);

        stream
            .set_read_timeout(Some(PUMP_TICK))
            .map_err(|e| crate::frame::io_err("configuring socket", &e))?;

        let (done_tx, done_rx) = crossbeam::channel::bounded(1);
        let scope_result = crossbeam::thread::scope(|s| {
            {
                let bound = Arc::clone(&bound);
                let snapshot = snapshot.clone();
                let query = &query;
                let opts = &opts;
                s.spawn(move |_| {
                    let _ = done_tx.send(snapshot.k_best_bounded(query, k as usize, opts, &bound));
                });
            }

            // The pump: wait briefly for the answer, drain client gossip,
            // push local tightenings. `last_sent` starts at the seed so
            // the client is only told about *improvements* on what it
            // already knows.
            let mut last_sent = seed;
            let result = loop {
                match done_rx.recv_timeout(PUMP_TICK) {
                    Ok(result) => break result,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        break Err(OnexError::Internal("query worker vanished".into()))
                    }
                }
                if let Err(e) = self.pump_once(stream, reader, &bound, &mut last_sent) {
                    // The connection is gone: hasten the query to a
                    // trivial finish (a zero bound prunes everything),
                    // discard its result at scope exit, and surface the
                    // transport error.
                    bound.tighten(0.0);
                    return Err(e);
                }
            };
            let reply = match result {
                Ok((matches, stats)) => {
                    let out = outcome(matches, stats);
                    Message::Answer {
                        epoch,
                        matches: out.matches,
                        stats: out.stats,
                        coverage: out.coverage,
                    }
                }
                Err(e) => {
                    let (code, detail) = error_code(&e);
                    Message::ErrorReply { code, detail }
                }
            };
            self.send(stream, &reply)
        });
        match scope_result {
            Ok(r) => r,
            Err(_) => Err(OnexError::Internal("query scope panicked".into())),
        }
    }

    /// One pump tick: drain whatever the client sent, then gossip out a
    /// tighter bound if the local search found one.
    fn pump_once(
        &self,
        stream: &mut TcpStream,
        reader: &mut FrameReader,
        bound: &SharedBound,
        last_sent: &mut f64,
    ) -> Result<(), OnexError> {
        match reader.poll_frame(&mut *stream)? {
            Poll::TimedOut => {}
            Poll::Closed => {
                return Err(OnexError::network(
                    NetworkErrorKind::Closed,
                    "client disconnected mid-query",
                ))
            }
            Poll::Frame(kind, payload) => match Message::decode(kind, &payload)? {
                Message::Tighten { bound: b } => {
                    bound.tighten(b);
                }
                other => {
                    return Err(OnexError::network(
                        NetworkErrorKind::Decode,
                        format!("unexpected mid-query message: {other:?}"),
                    ))
                }
            },
        }
        let current = bound.get();
        if current < *last_sent {
            self.send(stream, &Message::Tighten { bound: current })?;
            *last_sent = current;
        }
        Ok(())
    }
}
