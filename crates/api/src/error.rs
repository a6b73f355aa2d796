use std::fmt;

/// The workspace-wide error type: every fallible public operation across
/// the ONEX crates reports failures through this enum, so callers match
/// on variants instead of parsing strings and servers map variants to
/// protocol status codes mechanically.
///
/// The demo's client–server architecture is the forcing function: a
/// server surviving millions of users' malformed requests must be able to
/// tell "your query is bad" (4xx) apart from "your artefacts do not
/// belong together" (conflict) and "the disk failed" (5xx) without
/// guessing from prose.
#[derive(Debug)]
#[non_exhaustive]
pub enum OnexError {
    /// A build- or run-time configuration violated a documented
    /// constraint (non-positive threshold, zero stride, band fraction out
    /// of range, ...).
    InvalidConfig(String),
    /// A query violated a precondition: empty query, `k == 0`, a
    /// non-finite sample, or a length the backend cannot serve.
    InvalidQuery(String),
    /// Two artefacts that must describe the same data do not — e.g. a
    /// persisted base re-attached to a dataset with a different number of
    /// series, or a base extended under a different configuration.
    DatasetMismatch(String),
    /// A request referenced a series name that is not in the dataset.
    UnknownSeries(String),
    /// The operation is not supported by this backend (capability
    /// mismatch rather than a malformed request).
    Unsupported(String),
    /// Stored or received data failed validation: parse errors, corrupt
    /// persisted artefacts, violated structural invariants.
    InvalidData(String),
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// An internal invariant broke on the server side — e.g. a
    /// construction worker panicked. Never the caller's fault (a 5xx in
    /// HTTP terms); carried as an error so one poisoned computation
    /// cannot abort a process serving other requests.
    Internal(String),
    /// Talking to a remote peer failed: the peer is unreachable, a frame
    /// failed to decode, the protocol versions disagree, the connection
    /// died mid-exchange, or a deadline passed. Distinct from
    /// [`OnexError::Io`] because the *fault domain* differs — the local
    /// process is healthy, a dependency is not — which is exactly the
    /// 502-vs-500 distinction HTTP draws.
    Network(NetworkError),
    /// A persisted artefact (base segment file) failed to load or
    /// validate: bad magic, unsupported format version, checksum
    /// mismatch, malformed layout. Distinct from [`OnexError::Io`]
    /// (the read itself succeeded; the *bytes* are wrong) and from
    /// [`OnexError::InvalidData`] (which covers request payloads): the
    /// typed [`StorageErrorKind`] lets callers tell "upgrade your
    /// binary" from "your file is corrupt" without parsing prose.
    Storage(StorageError),
}

/// What went wrong with a persisted artefact — the typed payload of
/// [`OnexError::Storage`].
#[derive(Debug)]
pub struct StorageError {
    /// The failure class.
    pub kind: StorageErrorKind,
    /// Human-readable context (section name, offset, expected/actual
    /// checksums, ...).
    pub detail: String,
}

impl StorageError {
    /// Construct a typed storage failure.
    pub fn new(kind: StorageErrorKind, detail: impl Into<String>) -> Self {
        StorageError {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

/// Failure classes of [`StorageError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StorageErrorKind {
    /// The file does not start with an ONEX base magic — it is not a
    /// base file at all.
    BadMagic,
    /// The file declares a format version this binary cannot read.
    UnsupportedVersion,
    /// A checksum over the file's directory or one of its sections did
    /// not match — the bytes were damaged after writing.
    ChecksumMismatch,
    /// The bytes decoded but violate the format's structural rules:
    /// out-of-bounds section, overlapping directory entries, truncated
    /// record, impossible count.
    Corrupt,
}

impl StorageErrorKind {
    /// Stable human-readable label for the class.
    pub fn label(&self) -> &'static str {
        match self {
            StorageErrorKind::BadMagic => "bad magic",
            StorageErrorKind::UnsupportedVersion => "unsupported format version",
            StorageErrorKind::ChecksumMismatch => "checksum mismatch",
            StorageErrorKind::Corrupt => "corrupt base file",
        }
    }
}

/// What went wrong on the wire — the typed payload of
/// [`OnexError::Network`], so callers can distinguish "retry elsewhere"
/// (unreachable, timeout) from "never retry" (version mismatch) without
/// parsing prose.
#[derive(Debug)]
pub struct NetworkError {
    /// The failure class.
    pub kind: NetworkErrorKind,
    /// Human-readable context (peer address, frame offset, ...).
    pub detail: String,
}

impl NetworkError {
    /// Construct a typed network failure.
    pub fn new(kind: NetworkErrorKind, detail: impl Into<String>) -> Self {
        NetworkError {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

/// Failure classes of [`NetworkError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum NetworkErrorKind {
    /// The peer could not be reached (connect refused/timed out, even
    /// after the configured reconnect attempts).
    Unreachable,
    /// The peer was reached but a response deadline passed.
    Timeout,
    /// The connection closed mid-exchange (EOF inside a frame, or before
    /// an expected reply).
    Closed,
    /// Bytes arrived but did not decode: bad checksum, oversized or
    /// truncated frame, unknown message kind, malformed payload.
    Decode,
    /// The peer speaks a different protocol version (or is not an ONEX
    /// peer at all). Never retried — reconnecting cannot fix it.
    VersionMismatch,
}

impl NetworkErrorKind {
    /// Stable human-readable label for the class.
    pub fn label(&self) -> &'static str {
        match self {
            NetworkErrorKind::Unreachable => "peer unreachable",
            NetworkErrorKind::Timeout => "network timeout",
            NetworkErrorKind::Closed => "connection closed",
            NetworkErrorKind::Decode => "frame decode failure",
            NetworkErrorKind::VersionMismatch => "protocol version mismatch",
        }
    }
}

impl OnexError {
    /// Shorthand constructor for [`OnexError::InvalidQuery`].
    pub fn invalid_query(msg: impl Into<String>) -> Self {
        OnexError::InvalidQuery(msg.into())
    }

    /// Shorthand constructor for [`OnexError::InvalidConfig`].
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        OnexError::InvalidConfig(msg.into())
    }

    /// Whether the failure is the caller's fault (a 4xx in HTTP terms):
    /// everything except [`OnexError::Io`] and [`OnexError::Internal`].
    pub fn is_client_error(&self) -> bool {
        self.http_status() < 500
    }

    /// The HTTP status this error maps to — the single source of truth
    /// the server's error responses are derived from.
    ///
    /// The match is deliberately **exhaustive** (no `_` arm). The enum is
    /// `#[non_exhaustive]` for downstream crates, but within this crate
    /// the compiler still demands every variant, so adding a variant
    /// without deciding its status is a compile error rather than a
    /// silent 500 — the failure mode a catch-all arm would reintroduce.
    pub fn http_status(&self) -> u16 {
        match self {
            OnexError::InvalidConfig(_) => 400,
            OnexError::InvalidQuery(_) => 400,
            OnexError::Unsupported(_) => 400,
            OnexError::UnknownSeries(_) => 404,
            OnexError::DatasetMismatch(_) => 409,
            OnexError::InvalidData(_) => 422,
            OnexError::Io(_) => 500,
            OnexError::Internal(_) => 500,
            // A passed deadline is 504 Gateway Timeout — the dependency
            // was reached but did not answer in time — while every other
            // network fault is 502 Bad Gateway. The kind match is as
            // exhaustive as the variant match, for the same reason.
            OnexError::Network(e) => match e.kind {
                NetworkErrorKind::Timeout => 504,
                NetworkErrorKind::Unreachable
                | NetworkErrorKind::Closed
                | NetworkErrorKind::Decode
                | NetworkErrorKind::VersionMismatch => 502,
            },
            // A damaged or foreign base file is unprocessable content
            // (422) — the server is healthy, the artefact it was handed
            // is not — matching the InvalidData classification above.
            OnexError::Storage(_) => 422,
        }
    }

    /// Shorthand constructor for [`OnexError::Network`].
    pub fn network(kind: NetworkErrorKind, detail: impl Into<String>) -> Self {
        OnexError::Network(NetworkError::new(kind, detail))
    }

    /// Shorthand constructor for [`OnexError::Storage`].
    pub fn storage(kind: StorageErrorKind, detail: impl Into<String>) -> Self {
        OnexError::Storage(StorageError::new(kind, detail))
    }
}

impl fmt::Display for OnexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnexError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            OnexError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            OnexError::DatasetMismatch(msg) => write!(f, "dataset mismatch: {msg}"),
            OnexError::UnknownSeries(name) => write!(f, "unknown series {name:?}"),
            OnexError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            OnexError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            OnexError::Io(e) => write!(f, "i/o error: {e}"),
            OnexError::Internal(msg) => write!(f, "internal error: {msg}"),
            OnexError::Network(e) => write!(f, "network error: {e}"),
            OnexError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for OnexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OnexError {
    fn from(e: std::io::Error) -> Self {
        OnexError::Io(e)
    }
}

impl From<onex_tseries::Error> for OnexError {
    fn from(e: onex_tseries::Error) -> Self {
        use onex_tseries::Error as E;
        match e {
            E::Io(io) => OnexError::Io(io),
            E::UnknownSeries(name) => OnexError::UnknownSeries(name),
            e @ E::OutOfBounds { .. } => OnexError::InvalidQuery(e.to_string()),
            e @ E::Parse { .. } => OnexError::InvalidData(e.to_string()),
            e @ E::InvalidArgument(_) => OnexError::InvalidQuery(e.to_string()),
            other => OnexError::InvalidData(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_category() {
        assert!(OnexError::invalid_query("empty query")
            .to_string()
            .contains("invalid query"));
        assert!(OnexError::invalid_config("st must be positive")
            .to_string()
            .contains("invalid configuration"));
        assert!(OnexError::UnknownSeries("MA".into())
            .to_string()
            .contains("\"MA\""));
    }

    #[test]
    fn io_round_trips_source() {
        use std::error::Error as _;
        let e = OnexError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(!e.is_client_error());
        assert!(OnexError::invalid_query("x").is_client_error());
    }

    #[test]
    fn internal_errors_are_server_faults() {
        let e = OnexError::Internal("worker panicked".into());
        assert!(!e.is_client_error());
        assert!(e.to_string().contains("internal error"));
    }

    /// Enumerates **every** variant's status. Both this function and
    /// [`OnexError::http_status`] match without a wildcard arm, so a new
    /// variant fails the build in two places until its status — and this
    /// test's expectation — are written down.
    fn expected_status(e: &OnexError) -> u16 {
        match e {
            OnexError::InvalidConfig(_) => 400,
            OnexError::InvalidQuery(_) => 400,
            OnexError::Unsupported(_) => 400,
            OnexError::UnknownSeries(_) => 404,
            OnexError::DatasetMismatch(_) => 409,
            OnexError::InvalidData(_) => 422,
            OnexError::Io(_) => 500,
            OnexError::Internal(_) => 500,
            OnexError::Network(n) => match n.kind {
                NetworkErrorKind::Timeout => 504,
                _ => 502,
            },
            OnexError::Storage(_) => 422,
        }
    }

    #[test]
    fn every_variant_has_a_decided_http_status() {
        let all = [
            OnexError::InvalidConfig("c".into()),
            OnexError::InvalidQuery("q".into()),
            OnexError::DatasetMismatch("m".into()),
            OnexError::UnknownSeries("s".into()),
            OnexError::Unsupported("u".into()),
            OnexError::InvalidData("d".into()),
            OnexError::Io(std::io::Error::other("io")),
            OnexError::Internal("i".into()),
            OnexError::network(NetworkErrorKind::Unreachable, "no shard at :9999"),
            OnexError::network(NetworkErrorKind::Timeout, "cluster reply deadline"),
            OnexError::storage(StorageErrorKind::ChecksumMismatch, "section CONFIG"),
        ];
        for e in &all {
            let status = e.http_status();
            assert_eq!(status, expected_status(e), "{e}");
            assert!((400..=599).contains(&status), "{e}: {status}");
            assert_eq!(e.is_client_error(), status < 500, "{e}");
        }
        // Status classes partition exactly as documented.
        assert_eq!(OnexError::UnknownSeries("x".into()).http_status(), 404);
        assert_eq!(OnexError::DatasetMismatch("x".into()).http_status(), 409);
        assert_eq!(OnexError::InvalidData("x".into()).http_status(), 422);
    }

    #[test]
    fn network_errors_are_gateway_faults_not_client_faults() {
        for kind in [
            NetworkErrorKind::Unreachable,
            NetworkErrorKind::Timeout,
            NetworkErrorKind::Closed,
            NetworkErrorKind::Decode,
            NetworkErrorKind::VersionMismatch,
        ] {
            let e = OnexError::network(kind, "peer 127.0.0.1:7001");
            // Deadlines are 504 Gateway Timeout; every other wire fault
            // is 502 Bad Gateway. Both are gateway-side, never 4xx.
            let want = if kind == NetworkErrorKind::Timeout {
                504
            } else {
                502
            };
            assert_eq!(e.http_status(), want, "{e}");
            assert!(!e.is_client_error(), "{e}");
            assert!(e.to_string().contains("network error"), "{e}");
            assert!(e.to_string().contains(kind.label()), "{e}");
        }
    }

    #[test]
    fn storage_errors_are_unprocessable_content_not_server_faults() {
        for kind in [
            StorageErrorKind::BadMagic,
            StorageErrorKind::UnsupportedVersion,
            StorageErrorKind::ChecksumMismatch,
            StorageErrorKind::Corrupt,
        ] {
            let e = OnexError::storage(kind, "base.onexseg");
            assert_eq!(e.http_status(), 422, "{e}");
            assert!(e.is_client_error(), "{e}");
            assert!(e.to_string().contains("storage error"), "{e}");
            assert!(e.to_string().contains(kind.label()), "{e}");
        }
        // The I/O half of a failed load stays OnexError::Io → 500: the
        // 500/422 split distinguishes "the disk failed" from "the bytes
        // are wrong".
        assert_eq!(
            OnexError::from(std::io::Error::other("disk")).http_status(),
            500
        );
    }

    #[test]
    fn tseries_errors_map_to_typed_variants() {
        use onex_tseries::Error as E;
        assert!(matches!(
            OnexError::from(E::UnknownSeries("zz".into())),
            OnexError::UnknownSeries(_)
        ));
        assert!(matches!(
            OnexError::from(E::OutOfBounds {
                series: "a".into(),
                start: 9,
                len: 9,
                available: 4
            }),
            OnexError::InvalidQuery(_)
        ));
        assert!(matches!(
            OnexError::from(E::Parse {
                line: 2,
                message: "bad float".into()
            }),
            OnexError::InvalidData(_)
        ));
        assert!(matches!(
            OnexError::from(E::Io(std::io::Error::other("x"))),
            OnexError::Io(_)
        ));
    }
}
