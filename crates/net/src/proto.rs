//! Message bodies riding on the frame layer: the ONEX wire vocabulary.
//!
//! Every payload is little-endian and fixed-order — no field tags, no
//! self-description — because both ends are this crate and the hello
//! preamble already pins the protocol version. Variable-size collections
//! carry a `u32` count that is validated against the bytes actually
//! remaining in the payload **before** any buffer is reserved, so a
//! corrupt count cannot trigger an unbounded allocation.

use onex_api::{
    BackendMatch, BackendStats, Capabilities, Coverage, Metric, NetworkErrorKind, OnexError,
};
use onex_core::{LengthSelection, QueryOptions, ScanBreadth};
use onex_distance::Band;
use onex_tseries::SubseqRef;

fn decode_err(detail: impl Into<String>) -> OnexError {
    OnexError::network(NetworkErrorKind::Decode, detail)
}

/// One protocol message. The `u8` frame kind identifies the variant; the
/// payload is the variant's fields in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: run a bounded top-k query. `seed` is the
    /// client's current [`onex_api::SharedBound`] value (`+∞` when
    /// untightened) so the shard starts pruning at the cluster-wide bound
    /// rather than from scratch.
    Query {
        /// Number of answers wanted.
        k: u32,
        /// The client's bound at send time (`f64::INFINITY` if none).
        seed: f64,
        /// Full query option set, applied verbatim on the shard.
        opts: QueryOptions,
        /// The query samples.
        query: Vec<f64>,
    },
    /// Either direction, any time during a query: "my bound is now this
    /// tight". Monotone and idempotent — applying a stale or echoed
    /// tighten is a no-op, so neither side needs ordering guarantees.
    Tighten {
        /// The new (tighter) bound value.
        bound: f64,
    },
    /// Server → client: the query's answer.
    Answer {
        /// The engine epoch the answer was computed against.
        epoch: u64,
        /// Top-k matches, best first, in shard-local series ids.
        matches: Vec<BackendMatch>,
        /// The shard's work counters for this query.
        stats: BackendStats,
        /// Shard coverage of the answer (protocol v3). `None` for a
        /// backend that saw its whole collection; `Some` when the
        /// answering peer is itself a fan-out that may have degraded.
        coverage: Option<Coverage>,
    },
    /// Server → client: the request failed; a re-typed [`OnexError`].
    ErrorReply {
        /// Stable wire code (see [`error_code`]).
        code: u8,
        /// The error's rendered detail.
        detail: String,
    },
    /// Client → server: describe yourself.
    InfoRequest,
    /// Server → client: identity, capabilities, and size.
    Info {
        /// The hosted backend's name.
        name: String,
        /// The hosted backend's capabilities.
        caps: Capabilities,
        /// Number of series currently hosted.
        series: u64,
        /// Current engine epoch.
        epoch: u64,
    },
    /// Client → server: append one series to the hosted engine.
    Append {
        /// Name of the new series.
        name: String,
        /// Its samples.
        values: Vec<f64>,
    },
    /// Server → client: the append landed.
    Appended {
        /// Engine epoch after the append.
        epoch: u64,
        /// Number of series after the append.
        series: u64,
    },
    /// Client → server: deploy this segment-format-v2 base file image to
    /// the hosted engine (the cluster's shard-provisioning step). The
    /// image must fit one frame — [`crate::frame::MAX_FRAME`] caps it at
    /// 16 MiB and there is no chunking; larger bases fail the send with
    /// a typed error instead of a mid-stream surprise.
    ShipBase {
        /// A complete v2 base file, exactly as written by `save_v2`.
        bytes: Vec<u8>,
    },
    /// Server → client: the shipped base validated, decoded whole and was
    /// adopted; the shard's next query answers from it.
    LoadBase {
        /// Engine epoch after the swap.
        epoch: u64,
        /// Length columns the new base offers.
        lengths: u64,
    },
}

const KIND_QUERY: u8 = 1;
const KIND_TIGHTEN: u8 = 2;
const KIND_ANSWER: u8 = 3;
const KIND_ERROR: u8 = 4;
const KIND_INFO_REQUEST: u8 = 5;
const KIND_INFO: u8 = 6;
const KIND_APPEND: u8 = 7;
const KIND_APPENDED: u8 = 8;
const KIND_SHIP_BASE: u8 = 9;
const KIND_LOAD_BASE: u8 = 10;

// ---------------------------------------------------------------- encode

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u32(out, vs.len() as u32);
    out.reserve(vs.len() * 8);
    for &v in vs {
        put_f64(out, v);
    }
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u32(out, x);
        }
    }
}

fn put_options(out: &mut Vec<u8>, opts: &QueryOptions) {
    match opts.band {
        Band::Full => out.push(0),
        Band::SakoeChiba(r) => {
            out.push(1);
            put_u32(out, r as u32);
        }
        Band::Itakura => out.push(2),
    }
    match &opts.lengths {
        LengthSelection::Exact => out.push(0),
        LengthSelection::Nearest(n) => {
            out.push(1);
            put_u32(out, *n as u32);
        }
        LengthSelection::Range(lo, hi) => {
            out.push(2);
            put_u32(out, *lo as u32);
            put_u32(out, *hi as u32);
        }
    }
    match opts.breadth {
        ScanBreadth::Exact => out.push(0),
        ScanBreadth::TopGroups(g) => {
            out.push(1);
            put_u32(out, g as u32);
        }
    }
    put_bool(out, opts.l0_prefilter);
    put_opt_u32(out, opts.exclude_series);
    put_opt_u32(out, opts.only_series);
    put_u32(out, opts.exclude_windows.len() as u32);
    for w in &opts.exclude_windows {
        put_u32(out, w.series);
        put_u32(out, w.start);
        put_u32(out, w.len);
    }
}

fn metric_code(m: Metric) -> u8 {
    match m {
        Metric::RawEuclidean => 0,
        Metric::RawDtw => 1,
        Metric::ZNormalizedDtw => 2,
        Metric::SubsequenceDtw => 3,
        // `Metric` is #[non_exhaustive] upstream; an unmapped variant
        // degrades to the ONEX default rather than failing the send.
        _ => 1,
    }
}

fn put_caps(out: &mut Vec<u8>, caps: &Capabilities) {
    out.push(metric_code(caps.metric));
    put_bool(out, caps.exact);
    put_bool(out, caps.multi_length);
    put_bool(out, caps.streaming);
    put_bool(out, caps.one_match_per_series);
    put_bool(out, caps.cached);
}

/// Append a [`Message::Query`] payload built from borrows — the send
/// path's way round cloning the options and the samples into a
/// `Message` first. Returns the frame kind.
pub(crate) fn put_query(
    out: &mut Vec<u8>,
    k: u32,
    seed: f64,
    opts: &QueryOptions,
    query: &[f64],
) -> u8 {
    put_u32(out, k);
    put_f64(out, seed);
    put_options(out, opts);
    put_f64s(out, query);
    KIND_QUERY
}

impl Message {
    /// Serialise to `(frame kind, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let kind = self.encode_into(&mut out);
        (kind, out)
    }

    /// Append the payload to `out` (a connection's scratch buffer) and
    /// return the frame kind.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) -> u8 {
        match self {
            Message::Query {
                k,
                seed,
                opts,
                query,
            } => put_query(out, *k, *seed, opts, query),
            Message::Tighten { bound } => {
                put_f64(out, *bound);
                KIND_TIGHTEN
            }
            Message::Answer {
                epoch,
                matches,
                stats,
                coverage,
            } => {
                put_u64(out, *epoch);
                put_u32(out, matches.len() as u32);
                for m in matches {
                    put_u32(out, m.series);
                    put_u64(out, m.start as u64);
                    put_u64(out, m.len as u64);
                    put_f64(out, m.distance);
                }
                put_u64(out, stats.examined as u64);
                put_u64(out, stats.pruned as u64);
                put_u64(out, stats.distance_computations as u64);
                put_u64(out, stats.tiers.l0);
                put_u64(out, stats.tiers.kim);
                put_u64(out, stats.tiers.keogh);
                put_u64(out, stats.tiers.dtw_abandoned);
                match coverage {
                    None => out.push(0),
                    Some(c) => {
                        out.push(1);
                        put_u32(out, c.shards_answered);
                        put_u32(out, c.shards_total);
                    }
                }
                KIND_ANSWER
            }
            Message::ErrorReply { code, detail } => {
                out.push(*code);
                put_str(out, detail);
                KIND_ERROR
            }
            Message::InfoRequest => KIND_INFO_REQUEST,
            Message::Info {
                name,
                caps,
                series,
                epoch,
            } => {
                put_str(out, name);
                put_caps(out, caps);
                put_u64(out, *series);
                put_u64(out, *epoch);
                KIND_INFO
            }
            Message::Append { name, values } => {
                put_str(out, name);
                put_f64s(out, values);
                KIND_APPEND
            }
            Message::Appended { epoch, series } => {
                put_u64(out, *epoch);
                put_u64(out, *series);
                KIND_APPENDED
            }
            Message::ShipBase { bytes } => {
                put_u32(out, bytes.len() as u32);
                out.extend_from_slice(bytes);
                KIND_SHIP_BASE
            }
            Message::LoadBase { epoch, lengths } => {
                put_u64(out, *epoch);
                put_u64(out, *lengths);
                KIND_LOAD_BASE
            }
        }
    }
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], OnexError> {
        if self.remaining() < n {
            return Err(decode_err(format!(
                "truncated payload: wanted {n} more byte(s), {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, OnexError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, OnexError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(decode_err(format!("invalid bool byte {b:#04x}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, OnexError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, OnexError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn usize64(&mut self) -> Result<usize, OnexError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| decode_err(format!("value {v} overflows usize")))
    }

    fn f64(&mut self) -> Result<f64, OnexError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A count followed by `count * unit` bytes. The multiplication is
    /// checked against the bytes actually present *before* anything is
    /// allocated — a declared count of 4 billion against a 50-byte
    /// payload fails here, not in the allocator.
    fn counted(&mut self, unit: usize) -> Result<usize, OnexError> {
        let count = self.u32()? as usize;
        let need = count
            .checked_mul(unit)
            .ok_or_else(|| decode_err(format!("count {count} overflows")))?;
        if self.remaining() < need {
            return Err(decode_err(format!(
                "declared {count} element(s) ({need} bytes) but only {} byte(s) remain",
                self.remaining()
            )));
        }
        Ok(count)
    }

    fn str(&mut self) -> Result<String, OnexError> {
        let n = self.counted(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| decode_err(format!("invalid UTF-8: {e}")))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, OnexError> {
        let n = self.counted(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, OnexError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            b => Err(decode_err(format!("invalid option flag {b:#04x}"))),
        }
    }

    fn options(&mut self) -> Result<QueryOptions, OnexError> {
        let band = match self.u8()? {
            0 => Band::Full,
            1 => Band::SakoeChiba(self.u32()? as usize),
            2 => Band::Itakura,
            t => return Err(decode_err(format!("unknown band tag {t}"))),
        };
        let lengths = match self.u8()? {
            0 => LengthSelection::Exact,
            1 => LengthSelection::Nearest(self.u32()? as usize),
            2 => LengthSelection::Range(self.u32()? as usize, self.u32()? as usize),
            t => return Err(decode_err(format!("unknown length-selection tag {t}"))),
        };
        let breadth = match self.u8()? {
            0 => ScanBreadth::Exact,
            1 => ScanBreadth::TopGroups(self.u32()? as usize),
            t => return Err(decode_err(format!("unknown breadth tag {t}"))),
        };
        let l0_prefilter = self.bool()?;
        let exclude_series = self.opt_u32()?;
        let only_series = self.opt_u32()?;
        let n = self.counted(12)?;
        let mut exclude_windows = Vec::with_capacity(n);
        for _ in 0..n {
            exclude_windows.push(SubseqRef {
                series: self.u32()?,
                start: self.u32()?,
                len: self.u32()?,
            });
        }
        Ok(QueryOptions {
            band,
            lengths,
            breadth,
            l0_prefilter,
            exclude_series,
            only_series,
            exclude_windows,
        })
    }

    fn caps(&mut self) -> Result<Capabilities, OnexError> {
        let metric = match self.u8()? {
            0 => Metric::RawEuclidean,
            1 => Metric::RawDtw,
            2 => Metric::ZNormalizedDtw,
            3 => Metric::SubsequenceDtw,
            t => return Err(decode_err(format!("unknown metric code {t}"))),
        };
        Ok(Capabilities {
            metric,
            exact: self.bool()?,
            multi_length: self.bool()?,
            streaming: self.bool()?,
            one_match_per_series: self.bool()?,
            cached: self.bool()?,
        })
    }

    fn finish(self) -> Result<(), OnexError> {
        if self.remaining() != 0 {
            return Err(decode_err(format!(
                "{} trailing byte(s) after message body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

impl Message {
    /// Parse a frame's `(kind, payload)` back into a message. Unknown
    /// kinds, truncations, bad tags, and trailing garbage are all typed
    /// [`NetworkErrorKind::Decode`] failures.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Message, OnexError> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            KIND_QUERY => Message::Query {
                k: r.u32()?,
                seed: r.f64()?,
                opts: r.options()?,
                query: r.f64s()?,
            },
            KIND_TIGHTEN => Message::Tighten { bound: r.f64()? },
            KIND_ANSWER => {
                let epoch = r.u64()?;
                let n = r.counted(28)?;
                let mut matches = Vec::with_capacity(n);
                for _ in 0..n {
                    matches.push(BackendMatch {
                        series: r.u32()?,
                        start: r.usize64()?,
                        len: r.usize64()?,
                        distance: r.f64()?,
                    });
                }
                let stats = BackendStats {
                    examined: r.usize64()?,
                    pruned: r.usize64()?,
                    distance_computations: r.usize64()?,
                    tiers: onex_api::TierPrunes {
                        l0: r.u64()?,
                        kim: r.u64()?,
                        keogh: r.u64()?,
                        dtw_abandoned: r.u64()?,
                    },
                };
                let coverage = match r.u8()? {
                    0 => None,
                    1 => Some(Coverage {
                        shards_answered: r.u32()?,
                        shards_total: r.u32()?,
                    }),
                    b => return Err(decode_err(format!("invalid coverage flag {b:#04x}"))),
                };
                Message::Answer {
                    epoch,
                    matches,
                    stats,
                    coverage,
                }
            }
            KIND_ERROR => Message::ErrorReply {
                code: r.u8()?,
                detail: r.str()?,
            },
            KIND_INFO_REQUEST => Message::InfoRequest,
            KIND_INFO => Message::Info {
                name: r.str()?,
                caps: r.caps()?,
                series: r.u64()?,
                epoch: r.u64()?,
            },
            KIND_APPEND => Message::Append {
                name: r.str()?,
                values: r.f64s()?,
            },
            KIND_APPENDED => Message::Appended {
                epoch: r.u64()?,
                series: r.u64()?,
            },
            KIND_SHIP_BASE => {
                let n = r.counted(1)?;
                Message::ShipBase {
                    bytes: r.take(n)?.to_vec(),
                }
            }
            KIND_LOAD_BASE => Message::LoadBase {
                epoch: r.u64()?,
                lengths: r.u64()?,
            },
            k => return Err(decode_err(format!("unknown message kind {k}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

// ----------------------------------------------------------- error codes

/// Map an [`OnexError`] to its stable wire code + detail string.
pub fn error_code(e: &OnexError) -> (u8, String) {
    let code = match e {
        OnexError::InvalidConfig(_) => 1,
        OnexError::InvalidQuery(_) => 2,
        OnexError::DatasetMismatch(_) => 3,
        OnexError::UnknownSeries(_) => 4,
        OnexError::Unsupported(_) => 5,
        OnexError::InvalidData(_) => 6,
        OnexError::Io(_) => 7,
        OnexError::Internal(_) => 8,
        OnexError::Network(n) => match n.kind {
            NetworkErrorKind::Unreachable => 9,
            NetworkErrorKind::Timeout => 10,
            NetworkErrorKind::Closed => 11,
            NetworkErrorKind::Decode => 12,
            NetworkErrorKind::VersionMismatch => 13,
            _ => 8,
        },
        OnexError::Storage(_) => 14,
        // `OnexError` is #[non_exhaustive] from this crate's viewpoint.
        _ => 8,
    };
    (code, e.to_string())
}

/// Reconstruct a typed [`OnexError`] from a wire code + detail. Unknown
/// codes degrade to [`OnexError::Internal`] rather than failing decode —
/// a newer peer's error is still an error.
pub fn error_from(code: u8, detail: String) -> OnexError {
    match code {
        1 => OnexError::InvalidConfig(detail),
        2 => OnexError::InvalidQuery(detail),
        3 => OnexError::DatasetMismatch(detail),
        4 => OnexError::UnknownSeries(detail),
        5 => OnexError::Unsupported(detail),
        6 => OnexError::InvalidData(detail),
        7 => OnexError::Io(std::io::Error::other(detail)),
        8 => OnexError::Internal(detail),
        9 => OnexError::network(NetworkErrorKind::Unreachable, detail),
        10 => OnexError::network(NetworkErrorKind::Timeout, detail),
        11 => OnexError::network(NetworkErrorKind::Closed, detail),
        12 => OnexError::network(NetworkErrorKind::Decode, detail),
        13 => OnexError::network(NetworkErrorKind::VersionMismatch, detail),
        // The storage kind taxonomy is not carried on the wire; the
        // detail string retains the remote label ("checksum mismatch" …).
        14 => OnexError::storage(onex_api::StorageErrorKind::Corrupt, detail),
        other => OnexError::Internal(format!("unknown remote error code {other}: {detail}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) -> Message {
        let (kind, payload) = msg.encode();
        Message::decode(kind, &payload).unwrap()
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Query {
                k: 5,
                seed: f64::INFINITY,
                opts: QueryOptions::default()
                    .lengths(LengthSelection::Nearest(3))
                    .excluding_series(Some(7))
                    .excluding_window(SubseqRef::new(1, 4, 16)),
                query: vec![0.0, 1.5, -2.25],
            },
            Message::Tighten { bound: 0.125 },
            Message::Answer {
                epoch: 9,
                matches: vec![BackendMatch {
                    series: 3,
                    start: 11,
                    len: 16,
                    distance: 1.75,
                }],
                stats: BackendStats {
                    examined: 100,
                    pruned: 40,
                    distance_computations: 12,
                    tiers: onex_api::TierPrunes {
                        l0: 21,
                        kim: 9,
                        keogh: 10,
                        dtw_abandoned: 7,
                    },
                },
                coverage: None,
            },
            Message::Answer {
                epoch: 10,
                matches: vec![],
                stats: BackendStats::default(),
                coverage: Some(Coverage {
                    shards_answered: 2,
                    shards_total: 3,
                }),
            },
            Message::ErrorReply {
                code: 2,
                detail: "invalid query: empty".into(),
            },
            Message::InfoRequest,
            Message::Info {
                name: "onex".into(),
                caps: Capabilities {
                    metric: Metric::RawDtw,
                    exact: true,
                    multi_length: false,
                    streaming: false,
                    one_match_per_series: false,
                    cached: false,
                },
                series: 12,
                epoch: 3,
            },
            Message::Append {
                name: "NH".into(),
                values: vec![1.0, 2.0, 3.0],
            },
            Message::Appended {
                epoch: 4,
                series: 13,
            },
            Message::ShipBase {
                bytes: vec![0x4f, 0x4e, 0x45, 0x58, 0x00, 0xff],
            },
            Message::LoadBase {
                epoch: 5,
                lengths: 12,
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            assert_eq!(roundtrip(&msg), msg, "{msg:?}");
        }
    }

    #[test]
    fn options_roundtrip_every_shape() {
        let shapes = [
            QueryOptions::default(),
            QueryOptions::with_band(Band::SakoeChiba(5)),
            QueryOptions::with_band(Band::Itakura),
            QueryOptions::default().lengths(LengthSelection::Range(8, 24)),
            QueryOptions::default().top_groups(2).without_l0(),
            QueryOptions::default().without_l0(),
            QueryOptions::default().within_series(3),
        ];
        for opts in shapes {
            let msg = Message::Query {
                k: 1,
                seed: 2.0,
                opts: opts.clone(),
                query: vec![0.5],
            };
            match roundtrip(&msg) {
                Message::Query { opts: back, .. } => assert_eq!(back, opts),
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn declared_counts_are_validated_before_allocating() {
        // An Append whose value count claims 500M floats against a
        // 12-byte payload must fail fast without reserving 4 GB.
        let mut payload = Vec::new();
        put_str(&mut payload, "x");
        put_u32(&mut payload, 500_000_000);
        payload.extend_from_slice(&[0u8; 12]);
        let err = Message::decode(KIND_APPEND, &payload).unwrap_err();
        assert!(matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Decode));

        // Same rule for a shipped base image claiming 4 GB of bytes.
        let mut payload = Vec::new();
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(&[0u8; 4]);
        let err = Message::decode(KIND_SHIP_BASE, &payload).unwrap_err();
        assert!(matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Decode));
    }

    #[test]
    fn unknown_kind_and_trailing_garbage_are_decode_errors() {
        assert!(Message::decode(200, &[]).is_err());
        let (kind, mut payload) = Message::Tighten { bound: 1.0 }.encode();
        payload.push(0);
        assert!(Message::decode(kind, &payload).is_err());
    }

    #[test]
    fn error_codes_roundtrip_typed_variants() {
        let samples = [
            OnexError::InvalidConfig("c".into()),
            OnexError::InvalidQuery("q".into()),
            OnexError::DatasetMismatch("m".into()),
            OnexError::UnknownSeries("s".into()),
            OnexError::Unsupported("u".into()),
            OnexError::InvalidData("d".into()),
            OnexError::Io(std::io::Error::other("io")),
            OnexError::Internal("i".into()),
            OnexError::network(NetworkErrorKind::Timeout, "t"),
            OnexError::storage(
                onex_api::StorageErrorKind::ChecksumMismatch,
                "section GROUPS",
            ),
        ];
        for e in &samples {
            let (code, detail) = error_code(e);
            let back = error_from(code, detail);
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(e),
                "{e} -> {back}"
            );
        }
        assert!(matches!(
            error_from(250, "future".into()),
            OnexError::Internal(_)
        ));
    }
}
