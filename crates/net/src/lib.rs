//! # onex-net — Distributed ONEX
//!
//! The SIGMOD'17 demo's pitch is answering similarity queries online for
//! "millions of users"; one process is the ceiling on that until the
//! precomputed base can live across machines. This crate is the layer
//! that removes the ceiling, built from four pieces:
//!
//! * **The wire protocol** ([`FrameReader`], [`Message`]): a compact
//!   little-endian, length-prefixed binary framing with a version hello
//!   and an FNV-1a checksum per frame. Declared lengths are validated
//!   before any allocation; every malformed input is a typed
//!   [`onex_api::OnexError::Network`], never a panic.
//! * **[`ShardServer`]**: hosts one `Onex` engine behind the protocol on
//!   the shared worker-pool accept loop ([`serve_streams`] — the same
//!   hardened loop the HTTP server uses; it moved here so both can).
//! * **[`RemoteBackend`]**: a `SimilaritySearch` client with a connect
//!   timeout, a request deadline, bounded reconnect-with-backoff, and
//!   typed errors — a dead peer costs an error, never a hang.
//! * **[`ClusterEngine`]**: N remotes composed through the identical
//!   fan-out/`BestK`-merge/`SharedBound` machinery `ShardedEngine` uses
//!   in-process, with the bound kept cluster-wide by **gossip**: the
//!   client seeds each query with its current bound, shards stream
//!   tighten notifications as their local search improves, and the
//!   client pushes each shard's discoveries to the others mid-query.
//!
//! Both ends of a connection are the same event-driven type (the `wire`
//! module): a blocking reader thread per connection applies inbound
//! tightenings to the running query's bound and wakes the owner for
//! everything else, and a connection subscribed to a bound writes each
//! lowering out from the thread that made it. No socket read timeout
//! sits on the query path, so the bound crosses processes in
//! microseconds, at the cost of one parked thread per connection per end.
//!
//! The gossip is safe by monotonicity: a [`onex_api::SharedBound`] only
//! ever tightens toward the true k-th-best distance, so a gossiped bound
//! prunes only candidates a locally discovered bound would also have
//! pruned — late or lost gossip costs work, never answers.
//!
//! ## Fault tolerance
//!
//! The cluster layer is built to answer *with what survives*. Each shard
//! slot can hold replicas (`"a|a2"`), queries fail over on typed network
//! errors and can hedge a slow replica against the next live one, and
//! every replica sits behind a lock-free circuit [`Breaker`]
//! (`Closed → Open → HalfOpen`) so a dead peer stops costing a dial
//! until a background probe revives it. When a whole slot is down, a
//! [`onex_api::DegradePolicy`] decides between strict failure and a
//! typed partial answer carrying [`onex_api::Coverage`]. All of it is
//! testable deterministically through [`ChaosProxy`], a seeded
//! fault-injecting TCP relay (drops, delays, truncation, bit flips,
//! slow drips, mid-frame closes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accept;
mod chaos;
mod client;
mod cluster;
mod frame;
mod health;
mod proto;
mod server;
mod wire;

pub use accept::{serve_streams, transient_accept_error, AcceptOptions};
pub use chaos::{ChaosProxy, Fault};
pub use client::{RemoteBackend, RemoteConfig, RemoteInfo};
pub use cluster::{ClusterConfig, ClusterEngine, ReplicaHealth, SlotHealth};
pub use frame::{
    checksum, read_hello, write_frame, write_hello, FrameReader, Poll, MAGIC, MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use health::{Breaker, BreakerConfig, BreakerSnapshot, BreakerState};
pub use proto::{error_code, error_from, Message};
pub use server::ShardServer;
