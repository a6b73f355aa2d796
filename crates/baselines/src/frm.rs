//! The FRM / ST-index subsequence-matching baseline.
//!
//! A clean-room Rust implementation of Faloutsos, Ranganathan and
//! Manolopoulos, *Fast subsequence matching in time-series databases*
//! (SIGMOD 1994) — reference \[4\] of the ONEX demo paper and the classic
//! representative of the "fast-to-compute distances like the Euclidean
//! Distance" school the paper contrasts ONEX with.
//!
//! The pipeline, exactly as in the paper:
//!
//! 1. **Feature extraction** ([`dft_features`]): slide a window of width `w` over
//!    every series and map each window to its first few DFT coefficients.
//!    With the orthonormal DFT, truncation is *contractive* — feature
//!    distance lower-bounds true Euclidean distance — which is the whole
//!    correctness argument (no false dismissals).
//! 2. **Trail division** ([`StIndex::build`]): consecutive windows trace a
//!    *trail* through feature space; the trail is greedily cut into
//!    sub-trails using the paper's marginal-cost heuristic and each
//!    sub-trail is summarised by its minimum bounding rectangle.
//! 3. **Spatial index** ([`RTree`]): sub-trail MBRs go into an R-tree —
//!    built from scratch here, with quadratic split, as a genuine
//!    database substrate.
//! 4. **Search** ([`StIndex`]): a range query maps the query
//!    into feature space, retrieves intersecting sub-trails, expands them
//!    to candidate window positions, and verifies candidates against the
//!    raw data with early-abandoning Euclidean distance. Queries longer
//!    than `w` use the paper's PrefixSearch/multi-piece lemma with radius
//!    `ε/√p` per piece.
//!
//! ## Semantics
//!
//! FRM answers **raw-scale Euclidean** subsequence queries of a fixed
//! window length — the narrowest semantics of the four engines compared
//! in experiment E11 (ONEX: elastic DTW over heterogeneous lengths;
//! UCR Suite: z-normalised DTW; SPRING: streaming DTW; FRM: raw ED).
//! The point of the experiment is precisely this semantic ladder: FRM's
//! filter is cheapest and its answers are least robust to warping, which
//! is the gap ONEX's "marriage of distances" closes.

pub use crate::dft::{dft_features, feature_dist_sq};
pub use crate::rtree::{NearestIter, RTree, Rect};
pub use crate::stindex::{FrmHit, FrmStats, StConfig, StIndex};
