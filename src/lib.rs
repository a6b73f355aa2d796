//! # ONEX — Online Exploration of Time Series
//!
//! Facade crate: re-exports the public API of every ONEX subsystem so
//! downstream users depend on a single crate.
//!
//! The blessed entry point is the unified query surface from
//! [`onex_api`]: the [`SimilaritySearch`] backend trait (implemented by
//! the ONEX engine — see [`engine::backends`] — and by adapters over
//! every system the demo compares it with, in [`baselines`]) and the
//! workspace-wide typed [`OnexError`]. A five-line tour:
//!
//! ```
//! use onex::{SimilaritySearch, OnexError};
//! use onex::baselines::UcrSuiteBackend;
//!
//! let series = vec![(0..64).map(|i| (i as f64 * 0.3).sin()).collect::<Vec<_>>()];
//! let backend = UcrSuiteBackend::from_series(series.clone());
//! let query = series[0][20..36].to_vec();
//! let best = backend.best_match(&query).unwrap();
//! assert!(best.best().unwrap().distance < 1e-9);
//! assert!(matches!(backend.k_best(&query, 0), Err(OnexError::InvalidQuery(_))));
//! ```
//!
//! * [`tseries`] — time-series substrate (model, normalisation, I/O,
//!   workload generators).
//! * [`distance`] — Euclidean / DTW distances, envelopes, lower bounds and
//!   the ED↔DTW bridge underpinning the ONEX base.
//! * [`grouping`] — the ONEX base: Euclidean similarity groups over the
//!   subsequence space of a dataset.
//! * [`engine`] — the ONEX query engine: best-match, k-similar, seasonal
//!   queries and threshold recommendation.
//! * [`baselines`] — the systems ONEX is compared against: the UCR Suite
//!   (reference \[6\]), the FRM/ST-index (\[4\]), EBSM (\[1\]), the SPRING
//!   stream monitor (\[7\]) and iterative-deepening DTW (\[3\]), with
//!   their `SimilaritySearch` adapters.
//! * [`viz`] — visual-analytics output: overview pane, warped multi-line
//!   charts, radial charts, connected scatter plots, seasonal views.
//! * [`net`] — distributed ONEX: the length-prefixed binary wire
//!   protocol, the [`net::ShardServer`] hosting an engine behind it, the
//!   [`net::RemoteBackend`] client, and the [`net::ClusterEngine`]
//!   fanning queries over shard servers with cross-process bound gossip.
//! * [`server`] — the demo's client–server architecture: a dependency-free
//!   HTTP server exposing the engine as JSON endpoints and SVG views.
//!
//! See `examples/quickstart.rs` for the five-minute tour.

#![forbid(unsafe_code)]

pub use onex_api as api;
pub use onex_api::{
    BackendMatch, BackendStats, Capabilities, Metric, OnexError, SearchOutcome, SimilaritySearch,
};
pub use onex_baselines as baselines;
pub use onex_core as engine;
pub use onex_distance as distance;
pub use onex_grouping as grouping;
pub use onex_net as net;
pub use onex_server as server;
pub use onex_tseries as tseries;
pub use onex_viz as viz;
