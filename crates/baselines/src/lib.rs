//! # onex-baselines — the systems ONEX is compared against
//!
//! The demo paper presents ONEX beside the subsequence-matching systems
//! it improves on, each with its own speed/semantics trade-off:
//!
//! * [`ucrsuite`] — the UCR Suite \[6\], z-normalised ED/DTW search with
//!   cascading lower bounds (the speed comparison, E5).
//! * [`frm`] — the FRM/ST-index \[4\]: DFT features, MBR trails and an
//!   R-tree for exact Euclidean matching.
//! * [`embedding`] — EBSM \[1\]: approximate embedding-based subsequence
//!   matching under DTW.
//! * [`spring`] — SPRING \[7\]: exact streaming subsequence DTW.
//! * [`iddtw`] over [`paa`] — iterative-deepening DTW \[3\], the
//!   coarse-to-fine nearest-neighbour search of E11c.
//!
//! [`UcrSuiteBackend`], [`FrmBackend`], [`EbsmBackend`] and
//! [`SpringBackend`] put the first four behind `onex_api::SimilaritySearch`,
//! the trait the ONEX engine answers through too, so the bench harness,
//! the server's `?backend=` route and the conformance suite ask every
//! system the same question. The query engine, the wire crate and the
//! shard server do not depend on this crate.
//!
//! ```
//! use onex_api::SimilaritySearch;
//! use onex_baselines::{FrmBackend, SpringBackend, UcrSuiteBackend};
//!
//! let series: Vec<Vec<f64>> = (0..4)
//!     .map(|p| (0..96).map(|i| ((i + 9 * p) as f64 * 0.23).sin()).collect())
//!     .collect();
//! let query = series[1][30..46].to_vec();
//! let backends: Vec<Box<dyn SimilaritySearch>> = vec![
//!     Box::new(UcrSuiteBackend::from_series(series.clone())),
//!     Box::new(FrmBackend::<4>::from_series(series.clone(), 8).unwrap()),
//!     Box::new(SpringBackend::from_series(series.clone())),
//! ];
//! for b in &backends {
//!     let best = b.best_match(&query).unwrap();
//!     assert!(best.best().unwrap().distance < 1e-6, "{}", b.name());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod embedding;
pub mod frm;
pub mod iddtw;
pub mod paa;
pub mod spring;
pub mod ucrsuite;

mod backends;

// Each system's implementation, one file a part; the modules above
// gather each system's public items under its name.
mod dft;
mod dp;
mod index;
mod monitor;
mod rtree;
mod search;
mod stindex;

pub use backends::{plain_series, EbsmBackend, FrmBackend, SpringBackend, UcrSuiteBackend};

#[cfg(test)]
mod tests {
    use crate::spring::spring_search;

    /// The [`spring`](crate::spring) module example, as a batch search.
    #[test]
    fn doc_example_shape() {
        let query = [0.0, 1.0, 2.0, 3.0];
        let stream = [9.0, 9.0, 0.0, 1.0, 2.0, 3.0, 9.0, 9.0];
        let hits = spring_search(&stream, &query, 0.5).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].start, hits[0].end), (2, 5));
    }
}
