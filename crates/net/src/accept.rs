//! The shared accept loop: a fixed worker pool over a bounded connection
//! queue, used by both the HTTP server (`onex-server`) and the binary
//! shard server ([`crate::ShardServer`]). The queue is a std
//! `sync_channel`; the workers share its one receiver behind a mutex that
//! a worker holds only while it waits for the next connection.
//!
//! This used to live inside the HTTP app; it moved here unchanged when
//! the shard server needed the identical hardening — bounded queueing,
//! per-connection panic isolation, exponential accept backoff, and the
//! transient-vs-fatal accept-error split.

use std::io;
use std::net::TcpStream;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// How an accept loop runs: a fixed worker pool over a bounded connection
/// queue (so a connection flood cannot exhaust OS threads or memory) and
/// an accept-failure policy (so a persistently failing listener backs
/// off instead of busy-looping, and eventually reports the error).
#[derive(Debug, Clone)]
pub struct AcceptOptions {
    /// Worker threads handling connections. Fixed at startup — the cap
    /// on concurrent request processing.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker. When the queue
    /// is full the accept loop blocks (kernel backlog backpressure)
    /// rather than buffering unboundedly.
    pub queue: usize,
    /// Consecutive `accept` failures after which the loop gives up
    /// and returns the last error. Successful accepts reset the count.
    pub max_consecutive_accept_failures: u32,
    /// Base sleep after a failed `accept`; doubles per consecutive
    /// failure (capped at 128× the base) so a persistent error costs
    /// sleeps, not a hot spin.
    pub accept_backoff: Duration,
}

impl Default for AcceptOptions {
    fn default() -> Self {
        AcceptOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8),
            queue: 64,
            max_consecutive_accept_failures: 16,
            accept_backoff: Duration::from_millis(1),
        }
    }
}

/// Accept errors that describe one lost connection, not the
/// listener: a peer resetting mid-handshake (`ECONNABORTED`/reset),
/// a signal, or a spurious wakeup. These never count toward the
/// give-up threshold — under a connection flood they arrive in
/// bursts, and bailing on them would let the flood shut the server
/// down. Resource exhaustion (EMFILE) and genuinely broken listeners
/// land in other kinds and do count, after backoff.
pub fn transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

/// The accept loop over any stream source (injectable for tests).
///
/// Connections are handed to a fixed pool of worker threads through
/// a bounded channel: the pool caps concurrent request handling, the
/// channel caps waiting connections, and a full queue blocks the
/// accept loop — backpressure lands in the kernel backlog instead of
/// in unbounded memory or one-thread-per-connection spawns.
///
/// Accept errors never busy-loop: each failure sleeps an
/// exponentially growing backoff. Per-connection races the kernel
/// reports through `accept` ([`transient_accept_error`]) are
/// retried forever — they say nothing about the listener — while
/// other errors bail with the error once
/// `max_consecutive_accept_failures` hit in a row, instead of
/// spinning on a dead listener.
///
/// `handler` is cloned once per worker (clone whatever shared state it
/// needs — an `Arc`'d engine, an app handle) and runs under
/// `catch_unwind`: a panicking handler costs one connection, never a
/// pool worker.
pub fn serve_streams<I, H>(incoming: I, opts: &AcceptOptions, handler: H) -> io::Result<()>
where
    I: Iterator<Item = io::Result<TcpStream>>,
    H: Fn(TcpStream) + Clone + Send + 'static,
{
    let (tx, rx) = sync_channel::<TcpStream>(opts.queue.max(1));
    // One receiver for the whole pool. A worker holds the lock only while
    // it waits for the next connection, never while it handles one.
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..opts.workers.max(1))
        .map(|_| {
            let handler = handler.clone();
            let rx = Arc::clone(&rx);
            let next = move || rx.lock().recv();
            std::thread::spawn(move || {
                while let Ok(stream) = next() {
                    // A panicking handler must cost one response, not
                    // a pool worker: without this, a few poisoned
                    // requests would quietly shrink the pool to zero
                    // (thread-per-connection never had that failure
                    // mode, so the pool must not introduce it).
                    let handler = &handler;
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                        handler(stream)
                    }));
                }
            })
        })
        .collect();
    drop(rx);

    let mut consecutive = 0u32;
    let mut result = Ok(());
    for stream in incoming {
        match stream {
            Ok(stream) => {
                consecutive = 0;
                if tx.send(stream).is_err() {
                    // Every worker exited — nothing can serve.
                    result = Err(io::Error::other("worker pool exited"));
                    break;
                }
            }
            Err(e) => {
                if !transient_accept_error(&e) {
                    consecutive += 1;
                    if consecutive >= opts.max_consecutive_accept_failures.max(1) {
                        result = Err(e);
                        break;
                    }
                }
                let factor = 1u32 << consecutive.saturating_sub(1).min(7);
                std::thread::sleep(opts.accept_backoff * factor);
            }
        }
    }
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Condvar;

    #[test]
    fn two_workers_handle_two_connections_at_once() {
        // Each handler waits for the other: a barrier of two, bounded by a
        // timeout so a pool that serialises its workers fails the assert
        // below instead of hanging.
        let barrier = Arc::new((Mutex::new(0usize), Condvar::new()));
        let (met_tx, met) = sync_channel::<bool>(2);
        let handler = move |_stream: TcpStream| {
            let (count, arrived) = &*barrier;
            let mut count = count.lock();
            *count += 1;
            arrived.notify_all();
            let (count, _) = arrived
                .wait_timeout_while(count, Duration::from_secs(5), |n| *n < 2)
                .unwrap();
            met_tx.send(*count >= 2).unwrap();
        };

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _clients: Vec<_> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let accepted: Vec<_> = (0..2).map(|_| listener.accept().map(|(s, _)| s)).collect();
        let opts = AcceptOptions {
            workers: 2,
            queue: 2,
            ..AcceptOptions::default()
        };
        serve_streams(accepted.into_iter(), &opts, handler).unwrap();
        let met: Vec<bool> = met.try_iter().collect();
        assert_eq!(
            met,
            [true, true],
            "both connections were in a handler at once"
        );
    }
}
