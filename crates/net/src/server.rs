//! The shard server: hosts one [`Onex`] engine behind the wire protocol.
//!
//! One connection is one conversation, owned by one pool worker for as
//! long as it lasts, over a [`Duplex`](crate::wire): the worker sleeps on
//! the reader thread's channel between requests and answers each as it
//! arrives. A query runs on that same worker, against an epoch-pinned
//! snapshot, with its [`SharedBound`] attached to the connection: a
//! `Tighten` from the client lands in the bound the moment the reader
//! decodes it, and each time the search lowers the bound it writes the
//! `Tighten` frame itself before moving on — so a shard's discoveries
//! start pruning on every other shard a loopback round-trip later, not at
//! the next timer tick and not after the answer. A client that vanishes
//! mid-query cancels the bound at EOF, which frees the worker
//! without waiting for the search to run its course. Each connection
//! costs the pool worker it occupies plus one parked reader thread.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use onex_api::{NetworkErrorKind, OnexError, SharedBound, SimilaritySearch};
use onex_core::backends::{outcome, OnexBackend};
use onex_core::Onex;
use onex_tseries::TimeSeries;

use crate::accept::{serve_streams, AcceptOptions};
use crate::frame::{io_err, read_hello, write_hello};
use crate::proto::{error_code, Message};
use crate::wire::{Duplex, Event};

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

    /// One connection: hello exchange, then a request loop until the peer
    /// hangs up. Returns `Err` only for protocol violations / transport
    /// failures — the caller (a pool worker) just drops the connection.
    pub fn handle_conn(&self, stream: TcpStream) -> Result<(), OnexError> {
        let mut stream = stream;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(HELLO_TIMEOUT))
            .map_err(|e| io_err("configuring socket", &e))?;
        // Both sides write first, then read: 6 bytes always fit in the
        // socket buffer, so this cannot deadlock, and a client talking to
        // a non-ONEX port still gets a hello it can reject as garbage.
        write_hello(&mut stream)?;
        read_hello(&mut stream)?;

        let conn = Duplex::spawn(stream, true)?;
        loop {
            let msg = match conn.recv() {
                Event::Message(msg) => msg,
                Event::Malformed(e) => {
                    // The stream still frames correctly (the checksum
                    // held) — report and keep serving.
                    reply_error(&conn, &e)?;
                    continue;
                }
                Event::Closed(None) => return Ok(()),
                Event::Closed(Some(e)) => return Err(e),
            };
            let reply = match msg {
                Message::Query {
                    k,
                    seed,
                    opts,
                    query,
                } => self.answer(&conn, k, seed, &opts, &query),
                Message::InfoRequest => Ok(Message::Info {
                    name: "onex".into(),
                    caps: OnexBackend::new(Arc::clone(&self.engine)).capabilities(),
                    series: self.engine.dataset().len() as u64,
                    epoch: self.engine.epoch(),
                }),
                Message::Append { name, values } => self
                    .engine
                    .append_series(TimeSeries::new(name, values))
                    // What *this* append committed, not what a
                    // concurrent one has since.
                    .map(|report| Message::Appended {
                        epoch: report.epoch,
                        series: report.series as u64,
                    }),
                Message::ShipBase { bytes } => self.engine.install_base(bytes).map(|()| {
                    let now = self.engine.snapshot();
                    Message::LoadBase {
                        epoch: now.epoch(),
                        lengths: now.base().lengths().count() as u64,
                    }
                }),
                other => Err(OnexError::network(
                    NetworkErrorKind::Decode,
                    format!("unexpected client message: {other:?}"),
                )),
            };
            match reply {
                Ok(reply) => conn.send(&reply, None)?,
                Err(e) => reply_error(&conn, &e)?,
            }
        }
    }

    /// Run one bounded query on this worker, the connection gossiping
    /// both ways while it runs.
    fn answer(
        &self,
        conn: &Duplex,
        k: u32,
        seed: f64,
        opts: &onex_core::QueryOptions,
        query: &[f64],
    ) -> Result<Message, OnexError> {
        let snapshot = self.engine.snapshot();
        let bound = Arc::new(SharedBound::new());
        bound.tighten(seed);
        // The client holds the seed already: only improvements on it
        // are worth a frame.
        let gossip = conn.attach(&bound, seed);
        let result = snapshot.k_best_bounded(query, k as usize, opts, &bound);
        drop(gossip);
        let (matches, stats) = result?;
        let out = outcome(matches, stats);
        Ok(Message::Answer {
            epoch: snapshot.epoch(),
            matches: out.matches,
            stats: out.stats,
            coverage: out.coverage,
        })
    }
}

fn reply_error(conn: &Duplex, e: &OnexError) -> Result<(), OnexError> {
    let (code, detail) = error_code(e);
    conn.send(&Message::ErrorReply { code, detail }, None)
}
