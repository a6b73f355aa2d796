//! [`Duplex`]: one event-driven connection, the same type on both ends of
//! the wire.
//!
//! Nothing on a connection waits for a timer. A blocking **reader thread**
//! per connection (spawned once the hello is done, no socket read timeout,
//! gone at EOF / error / `shutdown`) decodes frames as they arrive: an
//! inbound `Tighten` goes straight into the running query's
//! [`SharedBound`], every other frame goes to the connection's owner over
//! a std `sync_channel` eight frames deep. The owner — a `RemoteBackend`
//! request or a `ShardServer` pool worker — sleeps on that channel, with
//! the request deadline where it has one, so a reply is acted on when it
//! arrives and a deadline is noticed when it passes.
//!
//! Outbound gossip is wake-on-event too. While a query runs the
//! connection is subscribed to the query's bound
//! ([`SharedBound::subscribe`]): the thread that lowers the bound writes
//! the `Tighten` frame itself, under the write-half lock, before it goes
//! back to searching. Two rules keep that safe:
//!
//! * **Never echo.** `last_pushed` is the tightest value the peer is known
//!   to hold. An inbound value lowers it *before* it is published to the
//!   bound, so the listener that fires for it finds nothing new to say.
//! * **Gossip never waits for a peer.** The socket carries a send timeout
//!   of one scheduler tick, reached only when the peer's buffers are full.
//!   A gossip frame that meets it is dropped (whole, or its unsent tail is
//!   kept for the next writer so the stream stays framed) and gossip is
//!   off for the rest of that query; the answer path retries instead.
//!
//! The cost is one parked thread per connection on each end.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{NetworkErrorKind, OnexError, SharedBound, Subscription};
use onex_core::QueryOptions;
use parking_lot::Mutex;

use crate::frame::{append_frame, io_err, FrameReader, Poll};
use crate::proto::{put_query, Message};

/// Socket send timeout: how long a write waits for buffer space before
/// it reports "would block". The kernel rounds it up to a scheduler tick;
/// it is never reached while the peer reads.
const SEND_WAIT: Duration = Duration::from_millis(1);
/// Frames the reader may queue ahead of the owner before it stops reading
/// (backpressure lands in the socket buffer).
const INBOX: usize = 8;
/// Scratch capacity kept between frames; a shipped base image is not.
const SCRATCH_KEEP: usize = 64 << 10;

/// What the reader thread hands the connection's owner.
pub(crate) enum Event {
    /// A decoded frame (never a `Tighten`).
    Message(Message),
    /// A frame whose checksum held but whose body did not decode: the
    /// stream is still in step, the peer can be told.
    Malformed(OnexError),
    /// The reader is gone: clean EOF at a frame boundary (`None`) or the
    /// transport / framing error that ended it. Always the last event.
    Closed(Option<OnexError>),
}

/// The reader's view of the query in flight.
struct Inbound {
    /// The running query's bound; inbound tightenings land here.
    bound: Option<Arc<SharedBound>>,
    /// `Some` from a `Query` frame passing in either direction until its
    /// bound is attached: the tightest value the peer gossiped in between.
    /// A `Tighten` outside both is the tail of a finished query and is
    /// dropped — applying it to the next query would be unsound.
    early: Option<f64>,
    /// The reader saw the end of the stream.
    closed: bool,
}

struct Shared {
    stream: TcpStream,
    /// The write half: lock plus scratch buffer. Empty between writes,
    /// except for the unsent tail of a gossip frame that met a full socket.
    out: Mutex<Vec<u8>>,
    inbound: Mutex<Inbound>,
    /// [`ordered_bits`] of the tightest bound the peer is known to hold.
    last_pushed: AtomicU64,
    /// On the serving end a vanished peer abandons its query: the bound
    /// is cancelled at EOF and the search prunes its way out.
    collapse_on_close: bool,
    sent: AtomicUsize,
    received: AtomicUsize,
}

/// One connection past its hello. Dropping it shuts the socket down and
/// joins the reader.
pub(crate) struct Duplex {
    shared: Arc<Shared>,
    inbox: Receiver<Event>,
    reader: Option<std::thread::JoinHandle<()>>,
}

/// A query's bound attached to a connection; dropping it detaches.
pub(crate) struct Gossip<'a> {
    shared: &'a Shared,
    subscription: Option<Subscription<'a>>,
}

fn closed_err(detail: &str) -> OnexError {
    OnexError::network(NetworkErrorKind::Closed, detail)
}

/// The reader always ends with [`Event::Closed`]; only a panic in it
/// hangs the channel up without one.
fn reader_vanished() -> Event {
    Event::Closed(Some(OnexError::Internal("wire reader vanished".into())))
}

/// Bit pattern that orders like the value over what a bound can hold:
/// `0` for a cancel (`−∞`), then zero and up (`-0.0` would sort last).
fn ordered_bits(bound: f64) -> u64 {
    if bound == f64::NEG_INFINITY {
        0
    } else {
        bound.abs().to_bits() + 1
    }
}

impl Shared {
    /// Write `out` to the socket. "Would block" asks `patient` whether to
    /// try again; whatever did not go out stays at the front of `out`.
    fn write_out(&self, out: &mut Vec<u8>, patient: impl Fn() -> bool) -> Result<(), OnexError> {
        let mut done = 0;
        let result = loop {
            if done == out.len() {
                break Ok(());
            }
            match (&self.stream).write(&out[done..]) {
                Ok(0) => break Err(closed_err("peer stopped accepting bytes mid-frame")),
                Ok(n) => done += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if !patient() {
                        break Err(io_err("writing frame", &e));
                    }
                }
                Err(e) => break Err(io_err("writing frame", &e)),
            }
        };
        out.drain(..done);
        if out.is_empty() && out.capacity() > SCRATCH_KEEP {
            *out = Vec::new();
        }
        result
    }

    /// The owner's write: frame into the scratch buffer (behind any gossip
    /// tail) and write it all, waiting out a slow peer until `deadline` or
    /// until the reader has seen the peer go.
    fn send(
        &self,
        payload: impl FnOnce(&mut Vec<u8>) -> u8,
        deadline: Option<Instant>,
    ) -> Result<(), OnexError> {
        if self.inbound.lock().closed {
            return Err(closed_err("the peer closed the connection"));
        }
        let mut out = self.out.lock();
        append_frame(&mut out, payload)?;
        self.write_out(&mut out, || {
            deadline.is_none_or(|d| Instant::now() < d) && !self.inbound.lock().closed
        })
    }

    /// The bound this connection watches was lowered to `bound`: tell the
    /// peer, unless it already knows or cannot take a frame right now.
    fn push(&self, bound: f64) {
        let bits = ordered_bits(bound);
        if self.last_pushed.fetch_min(bits, Ordering::SeqCst) <= bits {
            return;
        }
        if self.push_frame(&mut self.out.lock(), bound) {
            self.sent.fetch_add(1, Ordering::Relaxed);
        } else {
            // Nothing is tighter than a cancel: no more gossip this query.
            self.last_pushed.store(0, Ordering::SeqCst);
        }
    }

    /// One attempt at a `Tighten` frame; `false` when the socket would
    /// not take all of it.
    fn push_frame(&self, out: &mut Vec<u8>, bound: f64) -> bool {
        // A tail left by an earlier frame goes first, or nothing does.
        if !out.is_empty() && self.write_out(out, || false).is_err() {
            return false;
        }
        if append_frame(out, |buf| Message::Tighten { bound }.encode_into(buf)).is_err() {
            return false;
        }
        let framed = out.len();
        if self.write_out(out, || false).is_ok() {
            return true;
        }
        // Not a byte went out: the frame is dropped whole. Otherwise its
        // tail stays for the next writer, so the stream stays framed.
        if out.len() == framed {
            out.clear();
        }
        false
    }

    fn tightened_by_peer(&self, bound: f64) {
        // What `SharedBound::tighten` would refuse must not move
        // `last_pushed` either.
        if !SharedBound::publishable(bound) {
            return;
        }
        let mut inbound = self.inbound.lock();
        let Some(running) = inbound.bound.clone() else {
            if let Some(early) = inbound.early.as_mut() {
                *early = early.min(bound);
                self.received.fetch_add(1, Ordering::Relaxed);
            }
            return;
        };
        drop(inbound);
        self.received.fetch_add(1, Ordering::Relaxed);
        // Before publishing: the listener this triggers must find the
        // value already known to the peer.
        self.last_pushed
            .fetch_min(ordered_bits(bound), Ordering::SeqCst);
        running.tighten(bound);
    }

    fn arm_early(&self) {
        self.inbound.lock().early = Some(f64::INFINITY);
    }
}

fn read_loop(shared: &Shared, mut stream: TcpStream, events: &SyncSender<Event>) {
    let mut frames = FrameReader::new();
    let end = loop {
        let event = match frames.poll_frame(&mut stream) {
            // No read timeout is set; a stray EAGAIN is not an end.
            Ok(Poll::TimedOut) => continue,
            Ok(Poll::Closed) => break None,
            Err(e) => break Some(e),
            Ok(Poll::Frame(kind, payload)) => match Message::decode(kind, &payload) {
                Ok(Message::Tighten { bound }) => {
                    shared.tightened_by_peer(bound);
                    continue;
                }
                Ok(message) => {
                    if matches!(message, Message::Query { .. }) {
                        shared.arm_early();
                    }
                    Event::Message(message)
                }
                Err(e) => Event::Malformed(e),
            },
        };
        if events.send(event).is_err() {
            return;
        }
    };
    // `attach` reads `closed` under the same lock it publishes the bound
    // under, so one of the two sides always collapses an abandoned query.
    let abandoned = {
        let mut inbound = shared.inbound.lock();
        inbound.closed = true;
        inbound.bound.clone().filter(|_| shared.collapse_on_close)
    };
    if let Some(running) = abandoned {
        running.cancel();
    }
    let _ = events.send(Event::Closed(end));
}

impl Duplex {
    /// Take over a connection whose hello exchange is complete: clear the
    /// hello's read timeout and start the reader.
    pub(crate) fn spawn(stream: TcpStream, collapse_on_close: bool) -> Result<Self, OnexError> {
        let configured = stream
            .set_read_timeout(None)
            .and_then(|()| stream.set_write_timeout(Some(SEND_WAIT)))
            .and_then(|()| stream.try_clone());
        let reading = configured.map_err(|e| io_err("configuring socket", &e))?;
        let shared = Arc::new(Shared {
            stream,
            out: Mutex::new(Vec::new()),
            inbound: Mutex::new(Inbound {
                bound: None,
                early: None,
                closed: false,
            }),
            last_pushed: AtomicU64::new(0),
            collapse_on_close,
            sent: AtomicUsize::new(0),
            received: AtomicUsize::new(0),
        });
        let (events, inbox) = sync_channel(INBOX);
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("onex-wire".into())
                .spawn(move || read_loop(&shared, reading, &events))
                .map_err(|e| OnexError::Internal(format!("cannot start a wire reader: {e}")))?
        };
        Ok(Duplex {
            shared,
            inbox,
            reader: Some(reader),
        })
    }

    /// Send one message. `deadline` bounds the wait on a peer that has
    /// stopped reading; without one the wait ends when the peer goes.
    pub(crate) fn send(&self, msg: &Message, deadline: Option<Instant>) -> Result<(), OnexError> {
        self.shared.send(|buf| msg.encode_into(buf), deadline)
    }

    /// Send a `Query` framed straight from the caller's borrows.
    pub(crate) fn send_query(
        &self,
        k: u32,
        seed: f64,
        opts: &QueryOptions,
        query: &[f64],
        deadline: Instant,
    ) -> Result<(), OnexError> {
        self.shared.arm_early();
        self.shared
            .send(|buf| put_query(buf, k, seed, opts, query), Some(deadline))
    }

    /// Sleep until the next event.
    pub(crate) fn recv(&self) -> Event {
        self.inbox.recv().unwrap_or_else(|_| reader_vanished())
    }

    /// Sleep until the next event, or `None` once `deadline` has passed.
    pub(crate) fn recv_until(&self, deadline: Instant) -> Option<Event> {
        let left = deadline.saturating_duration_since(Instant::now());
        match self.inbox.recv_timeout(left) {
            Ok(event) => Some(event),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(reader_vanished()),
        }
    }

    /// Attach the running query's bound: the peer's tightenings land in
    /// it (those that arrived since the `Query` frame included) and every
    /// lowering of it below `known` — what the peer holds already, the
    /// query's seed — is written to the peer as it happens.
    pub(crate) fn attach<'a>(&'a self, bound: &'a Arc<SharedBound>, known: f64) -> Gossip<'a> {
        let shared = &*self.shared;
        let mut inbound = shared.inbound.lock();
        let early = inbound.early.take().unwrap_or(f64::INFINITY);
        shared
            .last_pushed
            .store(ordered_bits(known.min(early)), Ordering::SeqCst);
        inbound.bound = Some(Arc::clone(bound));
        let gone = inbound.closed && shared.collapse_on_close;
        drop(inbound);
        if gone {
            bound.cancel();
        } else {
            bound.tighten(early);
        }

        let listener = Arc::clone(&self.shared);
        let subscription = bound.subscribe(Arc::new(move |b| listener.push(b)));
        // Lowerings between the seed being read and the subscription.
        shared.push(bound.get());
        Gossip {
            shared,
            subscription: Some(subscription),
        }
    }
}

impl Drop for Duplex {
    fn drop(&mut self) {
        let _ = self.shared.stream.shutdown(Shutdown::Both);
        // The reader may be parked on a full inbox rather than on the
        // socket: drain until it hangs up its end.
        while self.inbox.recv().is_ok() {}
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Gossip<'_> {
    /// Detach, returning the `(sent, received)` tighten-frame counts of
    /// this query.
    pub(crate) fn finish(mut self) -> (usize, usize) {
        // Unsubscribing waits for a delivery in flight, so the counts
        // are final.
        self.subscription.take();
        (
            self.shared.sent.load(Ordering::Relaxed),
            self.shared.received.load(Ordering::Relaxed),
        )
    }
}

impl Drop for Gossip<'_> {
    fn drop(&mut self) {
        self.subscription.take();
        let mut inbound = self.shared.inbound.lock();
        inbound.bound = None;
        inbound.early = None;
        // The counts are per query (`finish` has read them by now).
        self.shared.sent.store(0, Ordering::Relaxed);
        self.shared.received.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        near.set_nodelay(true).unwrap();
        (near, far)
    }

    /// Decoded frames readable from `far` right now.
    fn read_frames(far: &mut TcpStream, frames: &mut FrameReader) -> Vec<Message> {
        far.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut seen = Vec::new();
        while let Poll::Frame(kind, payload) = frames.poll_frame(far).unwrap() {
            seen.push(Message::decode(kind, &payload).unwrap());
        }
        seen
    }

    #[test]
    fn gossip_to_a_peer_that_stopped_reading_is_dropped_and_the_stream_stays_framed() {
        let (near, mut far) = pair();
        let conn = Duplex::spawn(near, false).unwrap();
        let bound = Arc::new(SharedBound::new());
        let gossip = conn.attach(&bound, f64::INFINITY);

        // Lower the bound until the socket takes no more: from then on
        // gossip is off and a tighten costs nothing.
        let mut value = 1e12;
        let mut slowest = Duration::ZERO;
        while conn.shared.last_pushed.load(Ordering::SeqCst) != 0 {
            value -= 1.0;
            let t0 = Instant::now();
            bound.tighten(value);
            slowest = slowest.max(t0.elapsed());
            assert!(value > 0.0, "the socket never filled");
        }
        assert!(
            slowest < Duration::from_millis(250),
            "a tighten waited {slowest:?} for a peer that is not reading"
        );
        let t0 = Instant::now();
        for _ in 0..1000 {
            value -= 1.0;
            bound.tighten(value);
        }
        assert!(t0.elapsed() < Duration::from_millis(50));
        let (sent, _) = gossip.finish();

        // The peer wakes up: every frame that was counted as sent is
        // there, in order, and nothing after them is garbage — the owner's
        // next message follows whatever tail the last frame left.
        let mut frames = FrameReader::new();
        let mut seen = read_frames(&mut far, &mut frames);
        conn.send(
            &Message::InfoRequest,
            Some(Instant::now() + Duration::from_secs(5)),
        )
        .unwrap();
        seen.extend(read_frames(&mut far, &mut frames));
        assert_eq!(seen.pop(), Some(Message::InfoRequest));
        assert!(seen.len() == sent || seen.len() == sent + 1, "{sent} sent");
        let bounds: Vec<f64> = seen
            .iter()
            .map(|m| match m {
                Message::Tighten { bound } => *bound,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(bounds.windows(2).all(|w| w[1] < w[0]));
    }

    /// A cancel travels as the `Tighten` frame of `−∞` and cancels the
    /// peer's copy of the bound, after a zero that did not.
    #[test]
    fn a_cancel_reaches_the_peer_after_a_zero_bound() {
        let (near, far) = pair();
        let (near, far) = (
            Duplex::spawn(near, false).unwrap(),
            Duplex::spawn(far, false).unwrap(),
        );
        let (here, there) = (Arc::new(SharedBound::new()), Arc::new(SharedBound::new()));
        let _near = near.attach(&here, f64::INFINITY);
        let _far = far.attach(&there, f64::INFINITY);
        let heard = |want: fn(&SharedBound) -> bool| {
            let t0 = Instant::now();
            while !want(&there) {
                assert!(t0.elapsed() < Duration::from_secs(5), "{there:?}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        here.tighten(0.0);
        heard(|b| b.get() == 0.0);
        here.cancel();
        heard(|b| b.get() == f64::NEG_INFINITY);
        assert_eq!(ordered_bits(f64::NEG_INFINITY), 0);
        assert!(ordered_bits(-0.0) == ordered_bits(0.0) && ordered_bits(0.0) > 0);
    }
}
