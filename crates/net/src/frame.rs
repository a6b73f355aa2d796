//! The framing layer: hello preamble plus checksummed, length-prefixed
//! frames.
//!
//! Everything on an ONEX connection after the 6-byte hello is a frame:
//!
//! ```text
//! [u32 LE: len of kind+payload] [u8: kind] [payload] [u32 LE: FNV-1a of kind+payload]
//! ```
//!
//! `len` must be in `1..=MAX_FRAME`; the bound is enforced the moment the
//! 4 header bytes are visible, **before** any payload buffer is reserved,
//! so a hostile or corrupt peer declaring a 4 GiB frame costs nothing.
//! The trailing checksum catches torn writes and desynchronised streams:
//! a mismatch is a [`NetworkErrorKind::Decode`] error, never a
//! misinterpreted frame.
//!
//! [`FrameReader`] is deliberately incremental: it buffers whatever bytes
//! the socket yields and re-parses, so short reads — and, for a caller
//! that polls with a read timeout, a timeout mid-frame — never corrupt
//! frame boundaries: "no full frame yet" is not an error.

use std::io::{ErrorKind, Read, Write};

use onex_api::{NetworkErrorKind, OnexError};

/// First bytes on every connection, both directions: magic + version.
pub const MAGIC: [u8; 4] = *b"ONXW";
/// Wire protocol version carried in the hello preamble. v2 extended the
/// Answer frame with per-tier prune counters and the Query options with
/// the L0-prefilter flag; v3 appended a shard-coverage record to the
/// Answer frame so a degraded fan-out can say *how much* of the
/// collection its answer covers; v4 dropped the group-pruning and
/// LB_Keogh flags from the Query options, since exact search no longer
/// has those switches. All fixed-order fields, so the version bump is
/// what keeps older peers from misparsing them.
pub const PROTOCOL_VERSION: u16 = 4;
/// Upper bound on `kind + payload` size. Checked before allocating.
pub const MAX_FRAME: usize = 1 << 24; // 16 MiB

/// 32-bit FNV-1a over `kind + payload` — tiny, dependency-free, and
/// plenty to catch desync/corruption (this is an integrity check, not a
/// cryptographic one).
pub fn checksum(kind: u8, payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut step = |b: u8| {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    };
    step(kind);
    for &b in payload {
        step(b);
    }
    h
}

fn decode_err(detail: impl Into<String>) -> OnexError {
    OnexError::network(NetworkErrorKind::Decode, detail)
}

/// Map an I/O failure during a network exchange to the typed error.
pub(crate) fn io_err(context: &str, e: &std::io::Error) -> OnexError {
    let kind = match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => NetworkErrorKind::Timeout,
        ErrorKind::ConnectionRefused => NetworkErrorKind::Unreachable,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe => NetworkErrorKind::Closed,
        _ => NetworkErrorKind::Closed,
    };
    OnexError::network(kind, format!("{context}: {e}"))
}

/// Write the hello preamble (magic + version) to a fresh connection.
pub fn write_hello(w: &mut impl Write) -> Result<(), OnexError> {
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    w.write_all(&hello)
        .and_then(|_| w.flush())
        .map_err(|e| io_err("writing hello", &e))
}

/// Read and validate the peer's hello preamble. Garbage magic or a
/// different version is a [`NetworkErrorKind::VersionMismatch`] — the one
/// failure class reconnecting can never fix.
pub fn read_hello(r: &mut impl Read) -> Result<(), OnexError> {
    let mut hello = [0u8; 6];
    r.read_exact(&mut hello).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            OnexError::network(
                NetworkErrorKind::VersionMismatch,
                "peer closed before completing the hello preamble",
            )
        } else {
            io_err("reading hello", &e)
        }
    })?;
    if hello[..4] != MAGIC {
        return Err(OnexError::network(
            NetworkErrorKind::VersionMismatch,
            format!("bad magic {:02x?} (not an ONEX peer?)", &hello[..4]),
        ));
    }
    let version = u16::from_le_bytes([hello[4], hello[5]]);
    if version != PROTOCOL_VERSION {
        return Err(OnexError::network(
            NetworkErrorKind::VersionMismatch,
            format!("peer speaks protocol v{version}, this side speaks v{PROTOCOL_VERSION}"),
        ));
    }
    Ok(())
}

/// Append one frame to `buf`: `payload` writes the body in place and
/// returns the kind, the length header and the checksum are filled in
/// around it. This is how a connection frames into its scratch buffer
/// without an intermediate payload `Vec`. On an over-long body `buf` is
/// left as it was.
pub(crate) fn append_frame(
    buf: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>) -> u8,
) -> Result<(), OnexError> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 5]);
    let kind = payload(buf);
    let len = buf.len() - start - 4;
    if len > MAX_FRAME {
        buf.truncate(start);
        return Err(OnexError::network(
            NetworkErrorKind::Decode,
            format!("refusing to send over-long frame ({len} > {MAX_FRAME} bytes)"),
        ));
    }
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[start + 4] = kind;
    let sum = checksum(kind, &buf[start + 5..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Serialise one frame (header, kind, payload, checksum) to `w`.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), OnexError> {
    let mut buf = Vec::with_capacity(4 + 1 + payload.len() + 4);
    append_frame(&mut buf, |buf| {
        buf.extend_from_slice(payload);
        kind
    })?;
    w.write_all(&buf)
        .and_then(|_| w.flush())
        .map_err(|e| io_err("writing frame", &e))
}

/// Outcome of one [`FrameReader::poll_frame`] call.
#[derive(Debug)]
pub enum Poll {
    /// A complete, checksum-verified frame: `(kind, payload)`.
    Frame(u8, Vec<u8>),
    /// The socket's read timeout elapsed with no complete frame; any
    /// partial bytes stay buffered for the next poll.
    TimedOut,
    /// The peer closed the connection cleanly, at a frame boundary.
    Closed,
}

/// Incremental frame parser that survives short reads and read timeouts.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declared length of the buffered frame header, if visible and valid.
    fn header_len(&self) -> Result<Option<usize>, OnexError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len == 0 {
            return Err(decode_err("frame declares zero length"));
        }
        if len > MAX_FRAME {
            return Err(decode_err(format!(
                "frame declares {len} bytes (limit {MAX_FRAME}); rejected before allocation"
            )));
        }
        Ok(Some(len))
    }

    /// Extract the next complete frame from the buffer, if present.
    fn take_buffered(&mut self) -> Result<Option<(u8, Vec<u8>)>, OnexError> {
        let Some(len) = self.header_len()? else {
            return Ok(None);
        };
        let total = 4 + len + 4;
        if self.buf.len() < total {
            return Ok(None);
        }
        let kind = self.buf[4];
        let payload = self.buf[5..4 + len].to_vec();
        let declared = u32::from_le_bytes([
            self.buf[4 + len],
            self.buf[4 + len + 1],
            self.buf[4 + len + 2],
            self.buf[4 + len + 3],
        ]);
        self.buf.drain(..total);
        let actual = checksum(kind, &payload);
        if declared != actual {
            return Err(decode_err(format!(
                "frame checksum mismatch (declared {declared:#010x}, computed {actual:#010x})"
            )));
        }
        Ok(Some((kind, payload)))
    }

    /// Pull bytes from `r` until a full frame, a read timeout, or EOF.
    ///
    /// EOF with a partially buffered frame is a
    /// [`NetworkErrorKind::Closed`] error (mid-frame disconnect); EOF on
    /// an empty buffer is the clean [`Poll::Closed`].
    pub fn poll_frame(&mut self, r: &mut impl Read) -> Result<Poll, OnexError> {
        loop {
            if let Some((kind, payload)) = self.take_buffered()? {
                return Ok(Poll::Frame(kind, payload));
            }
            let mut chunk = [0u8; 8192];
            match r.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(Poll::Closed);
                    }
                    return Err(OnexError::network(
                        NetworkErrorKind::Closed,
                        format!(
                            "peer disconnected mid-frame ({} byte(s) of an incomplete frame)",
                            self.buf.len()
                        ),
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(Poll::TimedOut)
                }
                Err(e) => return Err(io_err("reading frame", &e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_api::OnexError;

    fn roundtrip(kind: u8, payload: &[u8]) -> (u8, Vec<u8>) {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, payload).unwrap();
        let mut reader = FrameReader::new();
        match reader.poll_frame(&mut wire.as_slice()).unwrap() {
            Poll::Frame(k, p) => (k, p),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip() {
        for payload in [&b""[..], &b"x"[..], &[0u8; 1000][..]] {
            let (k, p) = roundtrip(7, payload);
            assert_eq!(k, 7);
            assert_eq!(p, payload);
        }
    }

    #[test]
    fn split_delivery_is_reassembled() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 3, b"hello gossip").unwrap();
        let mut reader = FrameReader::new();
        // Feed one byte at a time through a cursor that yields EOF after
        // each byte; the reader must keep partial progress.
        for (i, b) in wire.iter().enumerate() {
            let last = i + 1 == wire.len();
            match reader.poll_frame(&mut [*b].as_slice()) {
                Ok(Poll::Frame(k, p)) => {
                    assert!(last, "frame completed early at byte {i}");
                    assert_eq!((k, p.as_slice()), (3, &b"hello gossip"[..]));
                    return;
                }
                Ok(Poll::Closed) => panic!("spurious close at byte {i}"),
                Ok(Poll::TimedOut) => panic!("no timeout source in this test"),
                Err(e) => {
                    // Only the mid-frame EOF between bytes may error — but
                    // a single-byte slice EOFs only after its byte is
                    // consumed, and we re-poll with the next byte, so the
                    // buffer is never empty at a real EOF. Mid-frame EOF
                    // errors are expected here except at the boundary.
                    assert!(!last, "decode error on completed frame: {e}");
                }
            }
        }
        panic!("frame never completed");
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]); // far fewer bytes than declared
        let mut reader = FrameReader::new();
        let err = reader.poll_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Decode));
        // The reader must not have tried to buffer anywhere near the
        // declared 4 GiB.
        assert!(reader.buf.capacity() < 1 << 20);
    }

    #[test]
    fn checksum_corruption_is_a_typed_decode_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"payload").unwrap();
        let mid = wire.len() / 2;
        wire[mid] ^= 0xff;
        let mut reader = FrameReader::new();
        let err = reader.poll_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Decode));
    }

    #[test]
    fn hello_rejects_garbage_and_wrong_versions() {
        let mut ok = Vec::new();
        write_hello(&mut ok).unwrap();
        assert!(read_hello(&mut ok.as_slice()).is_ok());

        let garbage = b"GET / ";
        let err = read_hello(&mut &garbage[..]).unwrap_err();
        assert!(
            matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::VersionMismatch)
        );

        let mut future = Vec::new();
        future.extend_from_slice(&MAGIC);
        future.extend_from_slice(&999u16.to_le_bytes());
        let err = read_hello(&mut future.as_slice()).unwrap_err();
        assert!(
            matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::VersionMismatch)
        );
    }
}
