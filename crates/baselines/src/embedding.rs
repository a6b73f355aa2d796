//! The EBSM approximate-matching baseline.
//!
//! A clean-room Rust implementation of the method of Athitsos, Papapetrou,
//! Potamias, Kollios and Gunopulos, *Approximate embedding-based
//! subsequence matching of time series* (SIGMOD 2008) — reference \[1\] of
//! the ONEX demo paper, cited as the preprocessing-based school whose
//! "requirement for setting many different parameters limits their
//! efficiency".
//!
//! EBSM trades exactness for speed via a vector embedding:
//!
//! 1. **Offline.** Pick `k` *reference sequences* (random subsequences of
//!    the database). For every database position `(series, t)`, compute
//!    the star-padded subsequence-DTW cost of each reference ending
//!    exactly at `t` — one O(|X|·|R|) sweep per (series, reference) pair.
//!    The `k` costs form the position's embedding vector `F(X, t) ∈ ℝᵏ`.
//! 2. **Query.** Embed the query the same way (each reference warped
//!    against a suffix of the query ending at its last sample), rank all
//!    database positions by Euclidean distance in embedding space, and
//!    *refine* only the top `N` candidate end positions with real
//!    subsequence DTW in a local window.
//!
//! The embedding is **not contractive**, so EBSM may miss the true best
//! match — its accuracy is a dial (`N`) traded against refinement cost.
//! That dial is exactly what experiment E11 measures, contrasting it with
//! ONEX (whose grouping filter comes with the ED↔DTW bridge guarantee)
//! and FRM (exact but Euclidean-only).
//!
//! The parameter surface (`k` references, reference length, candidate
//! count `N`, refinement window) is faithful to the paper — and is the
//! very "many different parameters" the ONEX introduction calls out.

pub use crate::dp::end_costs;
pub use crate::index::{EbsmConfig, EbsmHit, EbsmIndex, EbsmStats};
