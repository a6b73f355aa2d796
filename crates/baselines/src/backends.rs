//! [`SimilaritySearch`] adapters over the comparison systems, so the
//! bench harness, the server's `?backend=` route and the conformance
//! suite drive every engine the demo compares through one code path.

use onex_api::{
    validate_query, BackendMatch, BackendStats, Capabilities, Metric, OnexError, SearchOutcome,
    SimilaritySearch,
};
use onex_tseries::Dataset;

use crate::{embedding, frm, spring, ucrsuite};

/// Plain per-series vectors from a dataset — the representation the
/// baseline engines index.
pub fn plain_series(dataset: &Dataset) -> Vec<Vec<f64>> {
    dataset.iter().map(|(_, s)| s.values().to_vec()).collect()
}

// ---------------------------------------------------------------------
// UCR Suite
// ---------------------------------------------------------------------

/// The UCR Suite baseline (z-normalised, band-constrained DTW) behind the
/// unified trait.
#[derive(Debug, Clone)]
pub struct UcrSuiteBackend {
    series: Vec<Vec<f64>>,
}

impl UcrSuiteBackend {
    /// Index plain series under the default UCR band (5% of the query).
    pub fn from_series(series: Vec<Vec<f64>>) -> Self {
        UcrSuiteBackend { series }
    }

    /// Index a dataset's series.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        Self::from_series(plain_series(dataset))
    }
}

impl SimilaritySearch for UcrSuiteBackend {
    fn name(&self) -> &'static str {
        "ucrsuite"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            metric: Metric::ZNormalizedDtw,
            exact: true,
            multi_length: false,
            streaming: false,
            one_match_per_series: false,
            cached: false,
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        validate_query(query, k)?;
        let cfg = ucrsuite::DtwSearchConfig::default();
        let mut acc = ucrsuite::TopK::new(k);
        let mut stats = ucrsuite::SearchStats::default();
        for (sid, t) in self.series.iter().enumerate() {
            ucrsuite::ucr_dtw_search_topk(t, query, &cfg, sid as u32, &mut acc, &mut stats);
        }
        Ok(SearchOutcome {
            matches: acc
                .into_hits()
                .into_iter()
                .map(|h| BackendMatch {
                    series: h.series,
                    start: h.start,
                    len: query.len(),
                    distance: h.distance,
                })
                .collect(),
            // UCR's `candidates` counts every window including the ones
            // the cascade later kills; report the disjoint split.
            stats: {
                let pruned = stats.kim_pruned + stats.keogh_eq_pruned + stats.keogh_ec_pruned;
                BackendStats {
                    examined: stats.candidates.saturating_sub(pruned),
                    pruned,
                    distance_computations: stats.dtw_runs,
                    tiers: onex_api::TierPrunes {
                        l0: 0,
                        kim: stats.kim_pruned as u64,
                        keogh: (stats.keogh_eq_pruned + stats.keogh_ec_pruned) as u64,
                        dtw_abandoned: stats.dtw_abandoned as u64,
                    },
                }
            },
            coverage: None,
        })
    }
}

// ---------------------------------------------------------------------
// FRM / ST-index
// ---------------------------------------------------------------------

/// The FRM/ST-index baseline (exact raw-Euclidean windows) behind the
/// unified trait. `D` is the feature dimension (2 × retained DFT
/// coefficients); 4 is the classic choice.
#[derive(Debug, Clone)]
pub struct FrmBackend<const D: usize = 4> {
    index: frm::StIndex<D>,
}

impl<const D: usize> FrmBackend<D> {
    /// Index plain series with a given sliding-window width (the minimum
    /// supported query length).
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] when `D` is odd or zero, or `window`
    /// is below `D`: the `D / 2` retained DFT coefficients need at least
    /// twice as many samples for the feature contraction to hold.
    pub fn from_series(series: Vec<Vec<f64>>, window: usize) -> Result<Self, OnexError> {
        if D < 2 || !D.is_multiple_of(2) || window < D {
            return Err(OnexError::invalid_config(format!(
                "FRM needs an even feature dimension of at least 2 and a window of at least \
                 that many samples (D = {D}, window {window})"
            )));
        }
        Ok(FrmBackend {
            index: frm::StIndex::<D>::build(
                series,
                frm::StConfig {
                    window,
                    ..frm::StConfig::default()
                },
            ),
        })
    }

    /// Index a dataset's series.
    ///
    /// # Errors
    /// Same conditions as [`FrmBackend::from_series`].
    pub fn from_dataset(dataset: &Dataset, window: usize) -> Result<Self, OnexError> {
        Self::from_series(plain_series(dataset), window)
    }

    /// Wrap a prebuilt index.
    pub fn from_index(index: frm::StIndex<D>) -> Self {
        FrmBackend { index }
    }

    /// The wrapped index.
    pub fn index(&self) -> &frm::StIndex<D> {
        &self.index
    }
}

impl<const D: usize> SimilaritySearch for FrmBackend<D> {
    fn name(&self) -> &'static str {
        "frm"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            metric: Metric::RawEuclidean,
            exact: true,
            multi_length: false,
            streaming: false,
            one_match_per_series: false,
            cached: false,
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        validate_query(query, k)?;
        let w = self.index.config().window;
        if query.len() < w {
            return Err(OnexError::invalid_query(format!(
                "query length {} below the FRM index window {w}",
                query.len()
            )));
        }
        let (hits, stats) = self.index.k_best(query, k);
        Ok(SearchOutcome {
            matches: hits
                .into_iter()
                .map(|h| BackendMatch {
                    series: h.series,
                    start: h.start,
                    len: query.len(),
                    distance: h.dist,
                })
                .collect(),
            stats: BackendStats {
                examined: stats.candidates,
                pruned: stats.windows_total.saturating_sub(stats.candidates),
                distance_computations: stats.candidates,
                tiers: onex_api::TierPrunes::default(),
            },
            coverage: None,
        })
    }
}

// ---------------------------------------------------------------------
// EBSM
// ---------------------------------------------------------------------

/// The EBSM baseline (approximate embedding-based subsequence DTW)
/// behind the unified trait.
#[derive(Debug, Clone)]
pub struct EbsmBackend {
    index: embedding::EbsmIndex,
}

impl EbsmBackend {
    /// Build the embedding index over plain series.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] when any of EBSM's (many) parameters
    /// is zero — the parameter surface the ONEX introduction critiques.
    pub fn from_series(
        series: Vec<Vec<f64>>,
        cfg: embedding::EbsmConfig,
    ) -> Result<Self, OnexError> {
        if cfg.references == 0 || cfg.ref_len == 0 || cfg.candidates == 0 || cfg.refine_factor == 0
        {
            return Err(OnexError::invalid_config(
                "EBSM references, ref_len, candidates and refine_factor must all be positive",
            ));
        }
        Ok(EbsmBackend {
            index: embedding::EbsmIndex::build(series, cfg),
        })
    }

    /// Build over a dataset's series.
    ///
    /// # Errors
    /// Same conditions as [`EbsmBackend::from_series`].
    pub fn from_dataset(dataset: &Dataset, cfg: embedding::EbsmConfig) -> Result<Self, OnexError> {
        Self::from_series(plain_series(dataset), cfg)
    }

    /// The wrapped index.
    pub fn index(&self) -> &embedding::EbsmIndex {
        &self.index
    }
}

impl SimilaritySearch for EbsmBackend {
    fn name(&self) -> &'static str {
        "ebsm"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            metric: Metric::SubsequenceDtw,
            exact: false,
            multi_length: true,
            streaming: false,
            one_match_per_series: false,
            cached: false,
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        validate_query(query, k)?;
        let (hits, stats) = self.index.k_best(query, k);
        Ok(SearchOutcome {
            matches: hits
                .into_iter()
                .map(|h| BackendMatch {
                    series: h.series,
                    start: h.start,
                    len: h.end - h.start + 1,
                    distance: h.dist,
                })
                .collect(),
            // Embedding ranking filters all positions down to the
            // refinement set; only the refined candidates count as
            // examined so the split stays disjoint.
            stats: BackendStats {
                examined: stats.refined,
                pruned: stats.positions_total.saturating_sub(stats.refined),
                distance_computations: stats.refined,
                tiers: onex_api::TierPrunes::default(),
            },
            coverage: None,
        })
    }
}

// ---------------------------------------------------------------------
// SPRING
// ---------------------------------------------------------------------

/// The SPRING baseline (exact unconstrained subsequence DTW, one best
/// window per series) behind the unified trait — the only backend that
/// also answers the stream-monitoring question ([`SpringBackend::monitor`]).
#[derive(Debug, Clone)]
pub struct SpringBackend {
    series: Vec<Vec<f64>>,
}

impl SpringBackend {
    /// Monitor plain series.
    pub fn from_series(series: Vec<Vec<f64>>) -> Self {
        SpringBackend { series }
    }

    /// Monitor a dataset's series.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        Self::from_series(plain_series(dataset))
    }

    /// All disjoint matches of `pattern` within `epsilon` over series
    /// `target`, read as if it were an unbounded stream — what a live
    /// SPRING monitor would have reported.
    ///
    /// # Errors
    /// [`OnexError::InvalidQuery`] for an empty/non-finite pattern or a
    /// negative/NaN `epsilon`; [`OnexError::UnknownSeries`] when `target`
    /// is out of range.
    pub fn monitor(
        &self,
        target: u32,
        pattern: &[f64],
        epsilon: f64,
    ) -> Result<Vec<spring::SpringMatch>, OnexError> {
        let t = self
            .series
            .get(target as usize)
            .ok_or_else(|| OnexError::UnknownSeries(format!("series #{target}")))?;
        spring::spring_search(t, pattern, epsilon).ok_or_else(|| {
            OnexError::invalid_query("pattern must be non-empty and finite, epsilon non-negative")
        })
    }
}

impl SimilaritySearch for SpringBackend {
    fn name(&self) -> &'static str {
        "spring"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            metric: Metric::SubsequenceDtw,
            exact: true,
            multi_length: true,
            streaming: true,
            one_match_per_series: true,
            cached: false,
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        validate_query(query, k)?;
        let mut stats = BackendStats::default();
        let mut hits: Vec<BackendMatch> = Vec::new();
        for (sid, t) in self.series.iter().enumerate() {
            // Every stream position is a candidate end; each series costs
            // one full subsequence-DTW sweep (counted as one distance
            // computation, matching how the other backends count DP runs).
            stats.examined += t.len();
            stats.distance_computations += usize::from(!t.is_empty());
            if let Some(m) = spring::spring_best_match(t, query) {
                hits.push(BackendMatch {
                    series: sid as u32,
                    start: m.start,
                    len: m.end - m.start + 1,
                    distance: m.dist,
                });
            }
        }
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| (a.series, a.start).cmp(&(b.series, b.start)))
        });
        hits.truncate(k);
        Ok(SearchOutcome {
            matches: hits,
            stats,
            coverage: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use onex_core::backends::OnexBackend;
    use onex_core::Onex;
    use onex_grouping::BaseConfig;
    use onex_tseries::TimeSeries;

    fn toy(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 + seed as f64;
                (x * 0.29).sin() * 2.0 + (x * 0.05).cos()
            })
            .collect()
    }

    fn dataset() -> Dataset {
        Dataset::from_series(
            (0..5)
                .map(|i| TimeSeries::new(format!("s{i}"), toy(80, i * 13)))
                .collect(),
        )
        .unwrap()
    }

    fn onex_backend(ds: &Dataset) -> OnexBackend {
        let (engine, _) = Onex::build(ds.clone(), BaseConfig::new(0.8, 16, 16)).unwrap();
        OnexBackend::new(Arc::new(engine))
    }

    #[test]
    fn every_backend_finds_the_verbatim_window() {
        let ds = dataset();
        let query = ds.series(2).unwrap().subsequence(20, 16).unwrap().to_vec();
        let backends: Vec<Box<dyn SimilaritySearch>> = vec![
            Box::new(onex_backend(&ds)),
            Box::new(UcrSuiteBackend::from_dataset(&ds)),
            Box::new(FrmBackend::<4>::from_dataset(&ds, 8).unwrap()),
            Box::new(EbsmBackend::from_dataset(&ds, embedding::EbsmConfig::default()).unwrap()),
            Box::new(SpringBackend::from_dataset(&ds)),
        ];
        for b in &backends {
            let out = b.best_match(&query).unwrap();
            let best = out
                .best()
                .unwrap_or_else(|| panic!("{} found nothing", b.name()));
            assert!(
                best.distance < 1e-6,
                "{}: verbatim window at distance {}",
                b.name(),
                best.distance
            );
            assert!(out.stats.work() > 0, "{} reports work", b.name());
        }
    }

    #[test]
    fn invalid_queries_are_typed_errors_for_every_backend() {
        let ds = dataset();
        let backends: Vec<Box<dyn SimilaritySearch>> = vec![
            Box::new(onex_backend(&ds)),
            Box::new(UcrSuiteBackend::from_dataset(&ds)),
            Box::new(FrmBackend::<4>::from_dataset(&ds, 8).unwrap()),
            Box::new(EbsmBackend::from_dataset(&ds, embedding::EbsmConfig::default()).unwrap()),
            Box::new(SpringBackend::from_dataset(&ds)),
        ];
        for b in &backends {
            assert!(
                matches!(b.k_best(&[], 1), Err(OnexError::InvalidQuery(_))),
                "{}: empty query",
                b.name()
            );
            assert!(
                matches!(b.k_best(&[1.0; 16], 0), Err(OnexError::InvalidQuery(_))),
                "{}: k = 0",
                b.name()
            );
        }
        // FRM's extra length constraint is also a typed error, not a panic,
        // and so is a window too short for its DFT coefficients.
        let frm = FrmBackend::<4>::from_dataset(&ds, 8).unwrap();
        assert!(matches!(
            frm.k_best(&[1.0; 4], 1),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            FrmBackend::<4>::from_dataset(&ds, 2),
            Err(OnexError::InvalidConfig(_))
        ));
    }

    #[test]
    fn ebsm_config_is_validated_not_asserted() {
        let cfg = embedding::EbsmConfig {
            references: 0,
            ..embedding::EbsmConfig::default()
        };
        assert!(matches!(
            EbsmBackend::from_series(vec![toy(40, 1)], cfg),
            Err(OnexError::InvalidConfig(_))
        ));
    }

    #[test]
    fn spring_streaming_extension_reports_disjoint_matches() {
        let ds = dataset();
        let backend = SpringBackend::from_dataset(&ds);
        let pattern = ds.series(1).unwrap().subsequence(10, 12).unwrap().to_vec();
        let hits = backend.monitor(1, &pattern, 0.05).unwrap();
        assert!(hits.iter().any(|h| h.start == 10 && h.dist < 1e-9));
        for pair in hits.windows(2) {
            assert!(pair[0].end < pair[1].start, "disjoint matches");
        }
        assert!(matches!(
            backend.monitor(99, &pattern, 0.5),
            Err(OnexError::UnknownSeries(_))
        ));
        assert!(matches!(
            backend.monitor(0, &[], 0.5),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            backend.monitor(0, &pattern, -1.0),
            Err(OnexError::InvalidQuery(_))
        ));
    }

    #[test]
    fn capabilities_reflect_the_semantic_ladder() {
        let ds = dataset();
        let onex = onex_backend(&ds);
        assert_eq!(onex.capabilities().metric, Metric::RawDtw);
        assert!(!onex.capabilities().exact, "centroid policy is approximate");
        let ucr = UcrSuiteBackend::from_dataset(&ds);
        assert_eq!(ucr.capabilities().metric, Metric::ZNormalizedDtw);
        let frm = FrmBackend::<4>::from_dataset(&ds, 8).unwrap();
        assert_eq!(frm.capabilities().metric, Metric::RawEuclidean);
        let spring = SpringBackend::from_dataset(&ds);
        assert!(spring.capabilities().streaming);
        assert!(spring.capabilities().one_match_per_series);
    }
}
