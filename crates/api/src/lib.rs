//! # onex-api — the blessed ONEX query surface
//!
//! The ONEX demo's pitch (SIGMOD'17) is one query surface over multiple
//! engines: the grouping-based ONEX base against the UCR Suite \[6\], the
//! FRM/ST-index \[4\], EBSM \[1\] and SPRING \[7\]. This crate is that surface,
//! reduced to its two load-bearing abstractions:
//!
//! * [`SimilaritySearch`] — the backend trait: `k_best` / `best_match`,
//!   capability introspection ([`Capabilities`], [`Metric`]) and
//!   per-query work accounting ([`BackendStats`]).
//! * [`OnexError`] — the workspace-wide typed error every fallible public
//!   operation returns, replacing ad-hoc stringly-typed results and
//!   panics on malformed queries.
//!
//! Two small pruning primitives back every top-k search: [`BestK`], the
//! bounded best-k accumulator, and [`SharedBound`], the lock-free
//! monotone threshold that lets concurrent workers (per-shard searchers,
//! per-length passes) share one query-global k-th-best bound.
//!
//! Live ingest rides on one more primitive: [`Versioned`], the
//! epoch-stamped snapshot cell whose [`ReadTxn`]/[`WriteTxn`] pair lets
//! queries pin an immutable base while appends build the next epoch off
//! to the side and publish it atomically
//! ([`SimilaritySearch::epoch`] exposes the pinned counter).
//!
//! The crate sits at the bottom of the workspace dependency graph (only
//! `onex-tseries` below it), so every engine crate can speak the shared
//! vocabulary without cycles. The ONEX engine's adapter lives in
//! `onex_core::backends`, the comparison systems' in `onex-baselines`;
//! the facade crate re-exports everything here as the stable entry
//! point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound;
mod error;
mod search;
mod topk;
mod tx;

pub use bound::{BoundListener, SharedBound, Subscription};
pub use error::{NetworkError, NetworkErrorKind, OnexError, StorageError, StorageErrorKind};
pub use search::{
    validate_query, BackendMatch, BackendStats, Capabilities, Coverage, DegradePolicy, Metric,
    SearchOutcome, SimilaritySearch, TierPrunes,
};
pub use topk::{BestK, TOP_K_RESERVE};
pub use tx::{Epoch, ReadTxn, Versioned, WriteTxn};
