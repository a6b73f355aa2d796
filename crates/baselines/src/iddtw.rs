//! Iterative Deepening DTW (Chu, Keogh, Hart & Pazzani, SDM 2002).
//!
//! Reference \[3\] of the ONEX demo paper. IDDTW accelerates
//! nearest-neighbour search under DTW by evaluating candidates
//! coarse-to-fine over PAA resolutions: at each level the coarse DTW
//! estimate plus a **learned error distribution** decides whether the
//! candidate can still beat the best-so-far; if not, it is abandoned
//! without ever paying the full O(n²).
//!
//! The error model is trained on sample pairs from the same data
//! distribution: for each level it records a *lower* quantile of the
//! signed error `exact − coarse`, so `coarse + correction` behaves like
//! a probabilistic lower bound of the exact distance (the correction is
//! usually negative — it discounts the coarse estimate by the largest
//! overshoot seen in training). With the quantile at 1.0 the correction
//! is the minimum observed error, covering **every** trained pair, and
//! the search is exact on pairs drawn from the training set; smaller
//! quantiles trade recall for speed — the same accuracy dial the ONEX
//! paper contrasts its guaranteed pruning with.

use onex_distance::{dtw, Band};

use crate::paa::dtw_paa;

/// Per-level additive error bound learned from training pairs.
#[derive(Debug, Clone)]
pub struct IddtwModel {
    /// PAA segment counts, coarsest first, strictly increasing.
    levels: Vec<usize>,
    /// For each level, the chosen lower quantile of `exact − coarse`
    /// (typically negative: the discount absorbing coarse overshoot).
    corrections: Vec<f64>,
    band: Band,
}

/// Work accounting for one IDDTW nearest-neighbour query.
#[derive(Debug, Clone, Copy, Default)]
pub struct IddtwStats {
    /// Candidates abandoned at each coarse level (index = level).
    pub abandoned_per_level: [usize; 8],
    /// Candidates that survived to the exact computation.
    pub full_computations: usize,
}

impl IddtwModel {
    /// Train on `pairs` of (query-like, candidate-like) series.
    ///
    /// `levels` are PAA segment counts, coarsest first (e.g. `[4, 16]`).
    /// `quantile` in `(0, 1]` picks how much of the observed error mass
    /// the per-level correction must cover; 1.0 uses the minimum signed
    /// error, i.e. every trained pair's exact distance stays above its
    /// corrected coarse estimate.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` or `levels` is empty, levels are not strictly
    /// increasing, more than 8 levels are given (the stats array is
    /// fixed-size), or `quantile` is outside `(0, 1]`.
    pub fn train(
        pairs: &[(Vec<f64>, Vec<f64>)],
        levels: &[usize],
        quantile: f64,
        band: Band,
    ) -> Self {
        assert!(!pairs.is_empty(), "need training pairs");
        assert!(!levels.is_empty() && levels.len() <= 8, "1..=8 levels");
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly increasing"
        );
        assert!(quantile > 0.0 && quantile <= 1.0, "quantile in (0, 1]");
        let mut corrections = Vec::with_capacity(levels.len());
        for &seg in levels {
            let mut errs: Vec<f64> = pairs
                .iter()
                .map(|(x, y)| dtw(x, y, band) - dtw_paa(x, y, seg, band))
                .collect();
            errs.sort_by(|a, b| a.total_cmp(b));
            // Lower quantile: covering fraction `quantile` of pairs means
            // at most (1 − quantile) may have their exact distance
            // undercut the corrected estimate.
            let idx = ((errs.len() as f64 * (1.0 - quantile)).floor() as usize).min(errs.len() - 1);
            corrections.push(errs[idx]);
        }
        IddtwModel {
            levels: levels.to_vec(),
            corrections,
            band,
        }
    }

    /// The trained per-level corrections (for inspection/benching).
    pub fn corrections(&self) -> &[f64] {
        &self.corrections
    }

    /// The PAA levels, coarsest first.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Probabilistic lower bound of `DTW(x, y)` at level index `li`.
    pub fn lower_estimate(&self, x: &[f64], y: &[f64], li: usize) -> f64 {
        let coarse = dtw_paa(x, y, self.levels[li], self.band);
        (coarse + self.corrections[li]).max(0.0)
    }

    /// Nearest neighbour of `query` among `candidates` by
    /// iterative-deepening: returns `(index, exact distance, stats)`.
    ///
    /// Exact whenever every candidate's true error is covered by the
    /// trained corrections (guaranteed on the training set at
    /// quantile 1.0); otherwise the result is the best among candidates
    /// that survive the probabilistic filter.
    pub fn nearest<'a, I>(&self, query: &[f64], candidates: I) -> Option<(usize, f64, IddtwStats)>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut stats = IddtwStats::default();
        let mut best: Option<(usize, f64)> = None;
        for (ci, cand) in candidates.into_iter().enumerate() {
            let mut abandoned = false;
            if let Some((_, bsf)) = best {
                for li in 0..self.levels.len() {
                    if self.levels[li] >= cand.len().min(query.len()) {
                        break; // coarse level no cheaper than exact
                    }
                    if self.lower_estimate(query, cand, li) > bsf {
                        stats.abandoned_per_level[li] += 1;
                        abandoned = true;
                        break;
                    }
                }
            }
            if abandoned {
                continue;
            }
            stats.full_computations += 1;
            let d = dtw(query, cand, self.band);
            if best.is_none_or(|(_, b)| d < b) {
                best = Some((ci, d));
            }
        }
        best.map(|(i, d)| (i, d, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, f: f64, phase: f64, amp: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * f + phase).sin() * amp).collect()
    }

    fn family(count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|i| {
                wave(
                    32,
                    0.2 + 0.01 * (i % 5) as f64,
                    i as f64 * 0.3,
                    1.0 + (i % 3) as f64,
                )
            })
            .collect()
    }

    fn train_pairs() -> Vec<(Vec<f64>, Vec<f64>)> {
        let fam = family(12);
        (0..fam.len() - 1)
            .map(|i| (fam[i].clone(), fam[i + 1].clone()))
            .collect()
    }

    #[test]
    fn max_quantile_is_exact_on_training_distribution() {
        // Train on exactly the (query, candidate) pairs the search will
        // evaluate: quantile 1.0 then covers every candidate's error and
        // the filter can never abandon the true nearest neighbour.
        let fam = family(12);
        let pairs: Vec<(Vec<f64>, Vec<f64>)> = fam[1..]
            .iter()
            .map(|c| (fam[0].clone(), c.clone()))
            .collect();
        let model = IddtwModel::train(&pairs, &[4, 16], 1.0, Band::Full);
        let query = &fam[0];
        // Brute force.
        let mut want = (0, f64::INFINITY);
        for (i, c) in fam[1..].iter().enumerate() {
            let d = dtw(query, c, Band::Full);
            if d < want.1 {
                want = (i, d);
            }
        }
        let (gi, gd, _) = model
            .nearest(query, fam[1..].iter().map(|v| v.as_slice()))
            .unwrap();
        assert_eq!(gi, want.0);
        assert!((gd - want.1).abs() < 1e-9);
    }

    #[test]
    fn abandons_distant_candidates_at_coarse_levels() {
        let model = IddtwModel::train(&train_pairs(), &[4, 16], 1.0, Band::Full);
        let near = wave(32, 0.2, 0.0, 1.0);
        let mut cands: Vec<Vec<f64>> = vec![wave(32, 0.2, 0.05, 1.0)];
        // Far candidates: huge offset, coarse level sees it immediately.
        for i in 0..20 {
            cands.push(
                wave(32, 0.2, 0.0, 1.0)
                    .iter()
                    .map(|v| v + 40.0 + i as f64)
                    .collect(),
            );
        }
        let (gi, _, stats) = model
            .nearest(&near, cands.iter().map(|v| v.as_slice()))
            .unwrap();
        assert_eq!(gi, 0);
        let abandoned: usize = stats.abandoned_per_level.iter().sum();
        assert!(abandoned >= 15, "stats: {stats:?}");
        assert!(stats.full_computations <= 6);
    }

    #[test]
    fn corrections_shrink_with_resolution() {
        // Finer PAA approximates better, so the discount it needs (a
        // negative correction absorbing coarse overshoot) moves toward
        // zero as resolution grows on smooth data.
        let model = IddtwModel::train(&train_pairs(), &[2, 8, 32], 1.0, Band::Full);
        let c = model.corrections();
        assert!(c[0] <= c[2] + 1e-9, "corrections {c:?}");
    }

    #[test]
    fn single_candidate_never_abandoned() {
        let model = IddtwModel::train(&train_pairs(), &[4], 0.5, Band::Full);
        let q = wave(32, 0.21, 0.0, 1.0);
        let c = wave(32, 0.19, 2.0, 1.0);
        let (i, d, stats) = model.nearest(&q, [c.as_slice()]).unwrap();
        assert_eq!(i, 0);
        assert!((d - dtw(&q, &c, Band::Full)).abs() < 1e-12);
        assert_eq!(stats.full_computations, 1);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let model = IddtwModel::train(&train_pairs(), &[4], 1.0, Band::Full);
        assert!(model.nearest(&[1.0, 2.0], std::iter::empty()).is_none());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_levels() {
        IddtwModel::train(&train_pairs(), &[16, 4], 1.0, Band::Full);
    }
}
