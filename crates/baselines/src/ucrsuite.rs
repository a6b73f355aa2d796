//! The UCR Suite baseline.
//!
//! A clean-room Rust implementation of the subsequence-search algorithm of
//! Rakthanmanon et al., *Searching and mining trillions of time series
//! subsequences under dynamic time warping* (KDD 2012) — reference \[6\] of
//! the ONEX demo paper and the "fastest known method" its headline speed
//! claim is measured against (experiment E5).
//!
//! Given a query `q` and a long series `t`, the suite finds the window of
//! `t` whose **z-normalised** distance to `q` is minimal, under ED or
//! band-constrained DTW, using the full optimisation stack:
//!
//! 1. just-in-time z-normalisation from running sums (no window rescans),
//! 2. query reordering by |z| so early abandonment hits fast,
//! 3. the cascading lower bounds LB_KimFL → LB_Keogh(EQ) → LB_Keogh(EC),
//! 4. early-abandoning DTW fed with the cumulative bound of the last
//!    LB_Keogh stage.
//!
//! Every pruning tier is counted in [`SearchStats`], reproducing the
//! "pruned by …" accounting of the original paper's tables.
//!
//! ## Semantics note
//!
//! The UCR Suite answers *z-normalised* similarity (every candidate window
//! is normalised to zero mean / unit variance); ONEX answers raw-scale
//! similarity. The speed experiment E5 compares wall-clock per query on
//! each system's own semantics — the same caveat the original comparison
//! carries. Distances returned here are on the root scale (`√Σd²`), like
//! everything else in this workspace.

pub use crate::search::{
    ucr_dtw_search, ucr_dtw_search_dataset, ucr_dtw_search_dataset_topk, ucr_dtw_search_topk,
    ucr_dtw_search_with_bsf, ucr_ed_search, DtwSearchConfig, Hit, SearchStats, TopK,
};
