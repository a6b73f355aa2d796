//! The load generator's side of the socket: one keep-alive HTTP connection
//! per client, used the way a browser uses it (no `Connection: close`, no
//! pipelining, one request in flight).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that takes longer than this counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Reply {
    pub status: u16,
    pub body: String,
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Browsers disable Nagle on their side; what the server's socket does
        // is the server's business and stays as it is.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one GET and read the whole response body.
    pub fn get(&mut self, target: &str) -> Result<Reply, String> {
        let request =
            format!("GET {target} HTTP/1.1\r\nHost: onex\r\nConnection: keep-alive\r\n\r\n");
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("status line: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = None;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("header: {e}"))?;
            if line == "\r\n" || line == "\n" {
                break;
            }
            if line.is_empty() {
                return Err("connection closed inside the headers".into());
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("body: {e}"))?;
        let body = String::from_utf8(body).map_err(|_| "non-utf8 body".to_owned())?;
        Ok(Reply { status, body })
    }
}

/// A connection that survives its own failures: after a transport error the
/// next request dials again, so one failure is counted once.
pub struct Client {
    addr: SocketAddr,
    conn: Result<Conn, String>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: Conn::open(addr),
        }
    }

    /// The body of a 200 answer, or why there is none.
    pub fn fetch(&mut self, target: &str) -> Result<String, String> {
        let reply = match self.conn.as_mut() {
            Ok(conn) => conn.get(target),
            Err(e) => Err(e.clone()),
        };
        match reply {
            Ok(reply) if reply.status == 200 => Ok(reply.body),
            Ok(reply) => Err(format!("status {}: {}", reply.status, reply.body)),
            Err(e) => {
                self.conn = Conn::open(self.addr);
                Err(e)
            }
        }
    }
}

/// One request as the generator saw it.
pub struct Sample {
    /// Index into the targets it was drawn from.
    pub index: usize,
    /// When it was due: fixed by the schedule in an open loop, the moment it
    /// was sent in a closed one.
    pub due: Instant,
    pub sent: Instant,
    pub received: Instant,
    /// Body of a 200 response; the reason otherwise.
    pub outcome: Result<String, String>,
}

impl Sample {
    /// What a user who asked at the due time waited.
    pub fn latency_ms(&self) -> f64 {
        (self.received - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator itself ran.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// Closed loop: ask for `targets[first]`, `targets[first + stride]`, ... one
/// after the other, wrapping around, until `stop` says so (checked before each
/// request).
pub fn closed_loop(
    addr: SocketAddr,
    targets: &[String],
    first: usize,
    stride: usize,
    mut stop: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut client = Client::new(addr);
    let mut samples = Vec::new();
    let mut next = first;
    while !stop(samples.len()) {
        let index = next % targets.len();
        let sent = Instant::now();
        let outcome = client.fetch(&targets[index]);
        samples.push(Sample {
            index,
            due: sent,
            sent,
            received: Instant::now(),
            outcome,
        });
        next += stride;
    }
    samples
}

/// When request `i` of an open-loop schedule is due.
pub fn due(start: Instant, every: Duration, i: usize) -> Instant {
    start + every * i as u32
}

/// Open loop on one connection: request `i` is due at `start + i * every`,
/// sent as soon after as the generator manages, and timed from when it was
/// due. A slow answer delays later sends (one request in flight per
/// connection) but never their due times, so the delay shows in their latency.
pub fn open_loop(
    addr: SocketAddr,
    targets: &[String],
    start: Instant,
    every: Duration,
) -> Vec<Sample> {
    let mut client = Client::new(addr);
    let mut samples = Vec::with_capacity(targets.len());
    for (index, target) in targets.iter().enumerate() {
        let due = due(start, every, index);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let outcome = client.fetch(target);
        samples.push(Sample {
            index,
            due,
            sent,
            received: Instant::now(),
            outcome,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_fixed_by_the_schedule_alone() {
        let start = Instant::now();
        let every = Duration::from_millis(250);
        assert_eq!(due(start, every, 0), start);
        assert_eq!(due(start, every, 4), start + Duration::from_secs(1));
        // A request answered late is timed from when it was due, not sent.
        let s = Sample {
            index: 0,
            due: start,
            sent: start + Duration::from_millis(30),
            received: start + Duration::from_millis(80),
            outcome: Ok(String::new()),
        };
        assert!((s.latency_ms() - 80.0).abs() < 1e-9);
        assert!((s.late_ms() - 30.0).abs() < 1e-9);
    }
}
