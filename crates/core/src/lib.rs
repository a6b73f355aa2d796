//! # onex-core — the ONEX query engine
//!
//! DTW-empowered exploration over the ONEX base (paper §2, §3.2–3.3). The
//! engine answers the paper's "rich classes of exploratory operations":
//!
//! * [`Onex::best_match`] — the best time-warped match for a sample
//!   sequence ("find the state that has the most similar economic growth
//!   rate with that of MA").
//! * [`Onex::k_best`] — the k most similar subsequences.
//! * [`Onex::seasonal`] — recurring patterns *within* one series ("find if
//!   a specific growth or decline … has previously been experienced in
//!   this state", the Seasonal View of Fig 4).
//! * [`threshold`] — data-driven similarity-threshold recommendation
//!   ("help analysts select appropriate parameter settings").
//! * [`exhaustive`] — the brute-force scan used both as ground truth for
//!   accuracy experiments and as the paper's "raw data" strawman.
//!
//! ## The two-phase query plan
//!
//! Every similarity query runs the paper's fundamental similarity mapping
//! (§3.2): **phase 1** ranks group representatives by early-abandoning
//! DTW; **phase 2** scans members of surviving groups, pruning whole
//! groups through the ED↔DTW bridge
//! (`DTW(q,s) ≥ DTW(q,r) − √W·ED(r,s)`, see `onex_distance::bounds`) and
//! individual members through LB_Keogh and early-abandoning DTW. Under the
//! `Seed` representative policy the certified group radii make this plan
//! *exact* over the indexed subsequence space — a property the integration
//! tests verify against [`exhaustive`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
mod engine;
pub mod exhaustive;
pub mod fanout;
mod options;
mod result;
pub mod scale;
mod search;
mod seasonal;
mod stats;
pub mod threshold;

pub use engine::{
    BaseRef, BaseSource, Comparison, DatasetRef, EngineSnapshot, Onex, ResidentReport,
};
pub use fanout::PoolStats;
pub use onex_api::{Epoch, OnexError, SharedBound, SimilaritySearch};
pub use onex_grouping::{BuildReport, IndexWork};
pub use options::{LengthSelection, QueryOptions, ScanBreadth};
pub use result::{Match, SeasonalPattern};
pub use scale::{CacheStats, CachedSearch, ShardedBuildReport, ShardedEngine};
pub use search::normalize as normalized_distance;
pub use seasonal::SeasonalOptions;
pub use stats::QueryStats;
