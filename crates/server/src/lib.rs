//! # onex-server — the demo's client–server architecture
//!
//! The paper demonstrates ONEX through a web interface backed by a server
//! that preprocesses collections and answers exploration queries "with
//! near real-time responsiveness" (§4). This crate is that server: a
//! deliberately small HTTP/1.1 implementation over `std::net` (no
//! external dependencies) exposing the engine's operations as JSON
//! endpoints and the visual-analytics views as SVG documents a browser
//! renders directly.
//!
//! | route | payload |
//! |---|---|
//! | `GET /` | HTML index linking every view |
//! | `GET /api/summary` | dataset + base statistics |
//! | `GET /api/series` | series names |
//! | `GET /api/match?series=&start=&len=&k=` | k best matches (JSON) |
//! | `GET /api/seasonal?series=` | recurring patterns (JSON) |
//! | `GET /api/threshold?len=` | recommended thresholds (JSON) |
//! | `GET /view/overview.svg?len=` | Fig 2 overview pane |
//! | `GET /view/preview.svg?series=&start=&len=` | Fig 2 query preview |
//! | `GET /view/match.svg?series=&start=&len=` | Fig 2 results pane |
//! | `GET /view/radial.svg?series=&start=&len=` | Fig 3a radial chart |
//! | `GET /view/scatter.svg?series=&start=&len=` | Fig 3b connected scatter |
//! | `GET /view/seasonal.svg?series=` | Fig 4 seasonal view |
//!
//! The request handler is a pure function ([`App::handle`]) so the whole
//! surface is unit-testable without sockets; [`App::serve`] adds the
//! blocking accept loop — the hardened worker-pool loop shared with the
//! binary shard server (`onex_net::serve_streams`): a fixed pool over a
//! bounded connection queue (a connection flood cannot exhaust OS
//! threads), exponential backoff, and an eventual typed failure on
//! persistent accept errors ([`ServeOptions`] tunes both).
//!
//! Connections are reused when the client opts in with
//! `Connection: keep-alive` (strictly opt-in; anything else stays
//! one-shot), with a short idle timeout so parked sockets cannot starve
//! the fixed pool.
//!
//! `?backend=cluster` on `/api/match` routes the query through an
//! [`onex_net::ClusterEngine`] over the shard servers configured with
//! [`App::with_cluster`] — unreachable shards surface as 502 Bad
//! Gateway, and responses carry the fleet's pool and gossip counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
pub mod http;
pub mod json;
mod registry;

pub use app::{App, ServeOptions};
