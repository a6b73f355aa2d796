//! [`ChaosProxy`]: deterministic fault injection for the wire protocol.
//!
//! A chaos proxy sits between a client and a shard server on loopback,
//! relaying bytes — and sabotaging them according to a schedule. Each
//! accepted connection is assigned one [`Fault`] (from a fixed schedule,
//! optionally seeded via [`Fault::schedule_from_seed`], or a forced
//! override set at runtime), which makes every failure mode the network
//! can produce — dead peer, slow peer, corrupted frame, mid-frame
//! disconnect — reproducible in a unit test with no real packet loss
//! required.
//!
//! The proxy is also the resilience bench's kill switch: forcing
//! [`Fault::Drop`] "kills" a shard (every new connection dies
//! immediately) and clearing the override "restarts" it, without any
//! process management — which is what lets `e19_resilience` measure
//! failover and recovery deterministically.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// How often relay loops and the accept loop check the stop flag.
const POLL: Duration = Duration::from_millis(20);
/// How many leading bytes a [`Fault::SlowDrip`] drips one at a time
/// before relaying normally (keeps total injected delay bounded).
const DRIP_BYTES: usize = 24;

/// One failure mode, applied to a single proxied connection. Unless
/// noted otherwise, faults act on the server→client direction — the one
/// carrying answers — while client→server bytes relay cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Relay faithfully (the control case).
    Healthy,
    /// Close the connection the moment it is accepted — the proxy-level
    /// equivalent of a dead peer.
    Drop,
    /// Hold the connection for this long before relaying anything.
    Delay(Duration),
    /// Forward only this many server→client bytes, then close both ways.
    Truncate(usize),
    /// Flip one bit of the server→client byte at this stream offset —
    /// the frame checksum must catch it.
    BitFlip(usize),
    /// Relay the first `DRIP_BYTES` (24) server→client bytes one at a time
    /// with this pause between them — a pathologically slow peer that
    /// still eventually answers.
    SlowDrip(Duration),
    /// Forward the hello preamble plus a few bytes of the first reply
    /// frame, then close — a disconnect mid-frame, never at a boundary.
    CloseMidFrame,
}

impl Fault {
    /// A deterministic schedule of `len` faults from `seed`, cycling
    /// through every fault class with seeded parameters. Identical
    /// `(seed, len)` always produces the identical schedule.
    pub fn schedule_from_seed(seed: u64, len: usize) -> Vec<Fault> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => Fault::Drop,
                1 => Fault::Delay(Duration::from_millis(rng.gen_range(1..20u64))),
                2 => Fault::Truncate(rng.gen_range(7..40usize)),
                3 => Fault::BitFlip(rng.gen_range(1..12usize)),
                4 => Fault::SlowDrip(Duration::from_millis(rng.gen_range(1..3u64))),
                _ => Fault::CloseMidFrame,
            })
            .collect()
    }
}

/// A loopback TCP proxy that injects [`Fault`]s per connection.
pub struct ChaosProxy {
    addr: String,
    stop: Arc<AtomicBool>,
    forced: Arc<Mutex<Option<Fault>>>,
    connections: Arc<AtomicUsize>,
    faults_injected: Arc<AtomicUsize>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Bind an ephemeral loopback port and start relaying to `target`.
    /// Connection `i` (0-based accept order) suffers `schedule[i]`;
    /// connections beyond the schedule relay healthily.
    pub fn spawn(target: impl Into<String>, schedule: Vec<Fault>) -> std::io::Result<ChaosProxy> {
        let target = target.into();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let forced = Arc::new(Mutex::new(None::<Fault>));
        let connections = Arc::new(AtomicUsize::new(0));
        let faults_injected = Arc::new(AtomicUsize::new(0));

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let forced = Arc::clone(&forced);
            let connections = Arc::clone(&connections);
            let faults_injected = Arc::clone(&faults_injected);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let index = connections.fetch_add(1, Ordering::Relaxed);
                            let fault = forced
                                .lock()
                                .or_else(|| schedule.get(index).copied())
                                .unwrap_or(Fault::Healthy);
                            if fault != Fault::Healthy {
                                faults_injected.fetch_add(1, Ordering::Relaxed);
                            }
                            let target = target.clone();
                            let stop = Arc::clone(&stop);
                            let forced = Arc::clone(&forced);
                            std::thread::spawn(move || {
                                relay_conn(client, &target, fault, &stop, &forced)
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => break,
                    }
                }
            })
        };

        Ok(ChaosProxy {
            addr,
            stop,
            forced,
            connections,
            faults_injected,
            accept_handle: Some(accept_handle),
        })
    }

    /// The proxy's own listen address — point clients here.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Force `fault` onto every future connection regardless of the
    /// schedule, or clear the override (`None`) to restore the schedule.
    /// `Some(Fault::Drop)` is the kill switch: it also severs every
    /// connection already being relayed, so a client holding a
    /// persistent connection sees the shard die mid-workload — and
    /// clearing the override is the restart.
    pub fn set_fault(&self, fault: Option<Fault>) {
        *self.forced.lock() = fault;
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> usize {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections that were assigned a non-[`Fault::Healthy`] fault.
    pub fn faults_injected(&self) -> usize {
        self.faults_injected.load(Ordering::Relaxed)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

/// Apply `fault` to one proxied connection. Client→server always relays
/// cleanly (on a helper thread); this thread runs the server→client leg
/// with the sabotage. Either leg ending shuts both streams down so the
/// other leg exits within one poll tick.
fn relay_conn(
    client: TcpStream,
    target: &str,
    fault: Fault,
    stop: &AtomicBool,
    forced: &Arc<Mutex<Option<Fault>>>,
) {
    if fault == Fault::Drop {
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let Ok(server) = TcpStream::connect(target) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    if let Fault::Delay(d) = fault {
        std::thread::sleep(d);
    }
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);

    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    // Client→server: clean relay on a helper thread.
    {
        let stop_seen = Arc::new(AtomicBool::new(false));
        let up_stop = Arc::clone(&stop_seen);
        let up_forced = Arc::clone(forced);
        let up = std::thread::Builder::new()
            .name("chaos-up".into())
            .spawn(move || {
                relay_leg(client_r, server, Fault::Healthy, &up_stop, &up_forced);
            });
        // Server→client: the sabotaged leg, on this thread.
        relay_leg(server_r, client, fault, stop, forced);
        stop_seen.store(true, Ordering::Release);
        if let Ok(h) = up {
            let _ = h.join();
        }
    }
}

/// Copy bytes `from` → `to`, applying `fault` to the stream. A forced
/// [`Fault::Drop`] kills the leg mid-relay — the live-connection half of
/// the kill switch. On exit (EOF, error, fault-mandated close, kill, or
/// stop), both directions of both streams are shut down.
fn relay_leg(
    mut from: TcpStream,
    mut to: TcpStream,
    fault: Fault,
    stop: &AtomicBool,
    forced: &Mutex<Option<Fault>>,
) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut forwarded = 0usize;
    let budget = match fault {
        Fault::Truncate(n) => Some(n),
        // Hello (6 bytes) plus a torn sliver of the first reply frame.
        Fault::CloseMidFrame => Some(6 + 3),
        _ => None,
    };
    let mut buf = [0u8; 8192];
    'relay: while !stop.load(Ordering::Acquire) {
        if *forced.lock() == Some(Fault::Drop) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        // Again, now that the read has returned: a leg that was already
        // waiting when the kill switch was thrown must not relay what
        // arrived after it.
        if *forced.lock() == Some(Fault::Drop) {
            break;
        }
        let mut chunk = &mut buf[..n];
        if let Some(limit) = budget {
            let keep = limit.saturating_sub(forwarded).min(chunk.len());
            chunk = &mut chunk[..keep];
        }
        if let Fault::BitFlip(offset) = fault {
            if (forwarded..forwarded + chunk.len()).contains(&offset) {
                chunk[offset - forwarded] ^= 0x01;
            }
        }
        if let Fault::SlowDrip(pause) = fault {
            while forwarded < DRIP_BYTES && !chunk.is_empty() {
                if stop.load(Ordering::Acquire) || to.write_all(&chunk[..1]).is_err() {
                    break 'relay;
                }
                let _ = to.flush();
                std::thread::sleep(pause);
                forwarded += 1;
                chunk = &mut chunk[1..];
            }
        }
        if !chunk.is_empty() {
            if to.write_all(chunk).is_err() {
                break;
            }
            let _ = to.flush();
            forwarded += chunk.len();
        }
        if budget.is_some_and(|limit| forwarded >= limit) {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_deterministic_and_varied() {
        let a = Fault::schedule_from_seed(42, 64);
        let b = Fault::schedule_from_seed(42, 64);
        assert_eq!(a, b, "same seed, same schedule");
        let c = Fault::schedule_from_seed(43, 64);
        assert_ne!(a, c, "different seed, different schedule");
        // Every fault class appears somewhere in 64 draws.
        assert!(a.iter().any(|f| matches!(f, Fault::Drop)));
        assert!(a.iter().any(|f| matches!(f, Fault::Delay(_))));
        assert!(a.iter().any(|f| matches!(f, Fault::Truncate(_))));
        assert!(a.iter().any(|f| matches!(f, Fault::BitFlip(_))));
        assert!(a.iter().any(|f| matches!(f, Fault::SlowDrip(_))));
        assert!(a.iter().any(|f| matches!(f, Fault::CloseMidFrame)));
    }

    /// A plain TCP echo peer (no ONEX protocol) is enough to verify the
    /// relay and fault mechanics byte-for-byte.
    fn echo_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let mut s = stream;
                let mut buf = [0u8; 512];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn healthy_relay_is_transparent() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::spawn(addr, vec![]).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"ping").unwrap();
        let mut back = [0u8; 4];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ping");
        assert_eq!(proxy.connections(), 1);
        assert_eq!(proxy.faults_injected(), 0);
    }

    #[test]
    fn drop_fault_kills_the_connection() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::spawn(addr, vec![Fault::Drop]).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut back = [0u8; 1];
        // Either the write or the read observes the closed socket.
        let dead = c.write_all(b"x").is_err() || !matches!(c.read(&mut back), Ok(n) if n > 0);
        assert!(dead, "dropped connection still carried data");
        assert_eq!(proxy.faults_injected(), 1);
    }

    #[test]
    fn truncate_fault_cuts_the_reply_short() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::spawn(addr, vec![Fault::Truncate(3)]).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"0123456789").unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match c.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
        assert_eq!(got, b"012", "exactly the truncation budget came back");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::spawn(addr, vec![Fault::BitFlip(2)]).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"abcd").unwrap();
        let mut back = [0u8; 4];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ab\x62d", "byte 2 ('c' = 0x63) flipped to 0x62");
    }

    #[test]
    fn forced_fault_overrides_and_clears() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::spawn(addr, vec![]).unwrap();
        proxy.set_fault(Some(Fault::Drop));
        {
            let mut c = TcpStream::connect(proxy.addr()).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut b = [0u8; 1];
            let dead = c.write_all(b"x").is_err() || !matches!(c.read(&mut b), Ok(n) if n > 0);
            assert!(dead, "forced Drop did not kill the connection");
        }
        proxy.set_fault(None);
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"back").unwrap();
        let mut back = [0u8; 4];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"back", "cleared override relays again");
    }
}
