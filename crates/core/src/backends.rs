//! The ONEX engine behind [`SimilaritySearch`], the query surface the
//! demo asks every engine through.
//!
//! [`OnexBackend`] wraps an [`Onex`] engine and the [`QueryOptions`] its
//! trait queries run under; [`outcome`] maps the engine's matches and
//! work counters into the trait's [`SearchOutcome`]. The scale-out
//! engines — [`ShardedEngine`] and [`CachedSearch`], re-exported here
//! from [`crate::scale`] — implement the same trait and inherit the
//! whole conformance suite. The systems ONEX is compared against sit
//! behind the same trait in the `onex-baselines` crate, which this crate
//! does not depend on.
//!
//! ```
//! use std::sync::Arc;
//!
//! use onex_api::SimilaritySearch;
//! use onex_core::backends::{OnexBackend, ShardedEngine};
//! use onex_core::Onex;
//! use onex_grouping::BaseConfig;
//! use onex_tseries::gen::{sine_mix_dataset, SyntheticConfig};
//!
//! let ds = sine_mix_dataset(SyntheticConfig { series: 8, len: 64, seed: 5 }, 3, 0.1);
//! let query = ds.series(2).unwrap().subsequence(10, 16).unwrap().to_vec();
//! let config = BaseConfig::new(0.5, 16, 16);
//! let (sharded, _) = ShardedEngine::build(&ds, config.clone(), 4).unwrap();
//! let (engine, _) = Onex::build(ds, config).unwrap();
//! let backends: Vec<Box<dyn SimilaritySearch>> = vec![
//!     Box::new(OnexBackend::new(Arc::new(engine))),
//!     Box::new(sharded),
//! ];
//! for b in &backends {
//!     let best = b.best_match(&query).unwrap();
//!     assert!(best.best().unwrap().distance < 1e-9, "{}", b.name());
//! }
//! ```

use std::sync::Arc;

use onex_api::{
    BackendMatch, BackendStats, Capabilities, Metric, OnexError, SearchOutcome, SharedBound,
    SimilaritySearch,
};
use onex_grouping::RepresentativePolicy;

pub use crate::scale::{CachedSearch, ShardedEngine};

use crate::{Onex, QueryOptions, ScanBreadth};

/// The ONEX engine behind the unified trait. Carries the
/// [`QueryOptions`] every trait query runs under, so callers pick length
/// selection / breadth / exclusions once at construction.
#[derive(Debug, Clone)]
pub struct OnexBackend {
    engine: Arc<Onex>,
    opts: QueryOptions,
}

impl OnexBackend {
    /// Wrap an engine with default query options (exact search at the
    /// query's own length).
    pub fn new(engine: Arc<Onex>) -> Self {
        OnexBackend {
            engine,
            opts: QueryOptions::default(),
        }
    }

    /// Builder-style: run every trait query under `opts`.
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Onex {
        &self.engine
    }

    /// [`SimilaritySearch::k_best`] pruning against (and tightening) a
    /// caller-owned query-global [`SharedBound`] — the per-shard entry
    /// point [`ShardedEngine`] fans queries out through. The bound must
    /// be fresh per logical query; see [`Onex::k_best_bounded`].
    ///
    /// # Errors
    /// Same conditions as [`SimilaritySearch::k_best`].
    pub fn k_best_bounded(
        &self,
        query: &[f64],
        k: usize,
        bound: &SharedBound,
    ) -> Result<SearchOutcome, OnexError> {
        let (matches, stats) = self.engine.k_best_bounded(query, k, &self.opts, bound)?;
        Ok(outcome(matches, stats))
    }
}

/// Map the engine's native matches + work counters into the trait's
/// [`SearchOutcome`] — shared by [`OnexBackend`] and the sharded engine's
/// pool workers, so both report identical counters for identical work.
pub fn outcome(matches: Vec<crate::Match>, stats: crate::QueryStats) -> SearchOutcome {
    SearchOutcome {
        matches: matches
            .into_iter()
            .map(|m| BackendMatch {
                series: m.subseq.series,
                start: m.subseq.start as usize,
                len: m.subseq.len as usize,
                distance: m.distance,
            })
            .collect(),
        // `groups_examined` counts every group the loop considered,
        // including ones subsequently pruned; subtract so examined
        // and pruned stay disjoint (the BackendStats contract).
        stats: BackendStats {
            examined: stats.groups_examined.saturating_sub(stats.groups_pruned)
                + stats.members_examined,
            pruned: stats.groups_pruned + stats.members_bound_pruned(),
            distance_computations: stats.dtw_completed + stats.dtw_abandoned,
            tiers: onex_api::TierPrunes {
                l0: stats.members_l0_pruned as u64,
                kim: stats.members_kim_pruned as u64,
                keogh: stats.members_lb_pruned as u64,
                dtw_abandoned: stats.dtw_abandoned as u64,
            },
        },
        coverage: None,
    }
}

impl SimilaritySearch for OnexBackend {
    fn name(&self) -> &'static str {
        "onex"
    }

    fn capabilities(&self) -> Capabilities {
        let exact = self.engine.base().config().policy == RepresentativePolicy::Seed
            && self.opts.breadth == ScanBreadth::Exact
            && self.opts.band == onex_distance::Band::Full;
        Capabilities {
            metric: Metric::RawDtw,
            exact,
            multi_length: !matches!(self.opts.lengths, crate::LengthSelection::Exact),
            streaming: false,
            one_match_per_series: false,
            cached: false,
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        let (matches, stats) = self.engine.k_best(query, k, &self.opts)?;
        Ok(outcome(matches, stats))
    }

    fn epoch(&self) -> onex_api::Epoch {
        self.engine.epoch()
    }
}
