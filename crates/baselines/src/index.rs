//! The EBSM index: reference selection, per-position embeddings, and
//! filter-and-refine querying.

use crate::dp::end_costs;
use crate::monitor::spring_best_match;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunable surface of EBSM — deliberately faithful to the original's
/// parameter-heavy design (the ONEX paper's critique of this family).
#[derive(Debug, Clone, Copy)]
pub struct EbsmConfig {
    /// Number of reference sequences `k` (embedding dimension).
    pub references: usize,
    /// Length of each reference sequence.
    pub ref_len: usize,
    /// How many top-ranked candidate end positions to refine per query.
    pub candidates: usize,
    /// Refinement window: real subsequence DTW runs over the last
    /// `refine_factor × |query|` points before each candidate end.
    pub refine_factor: usize,
    /// Seed for reference selection (reproducibility).
    pub seed: u64,
}

impl Default for EbsmConfig {
    fn default() -> Self {
        EbsmConfig {
            references: 8,
            ref_len: 16,
            candidates: 16,
            refine_factor: 2,
            seed: 0x0eb5_0001,
        }
    }
}

/// A refined query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbsmHit {
    /// Index of the series within the index.
    pub series: u32,
    /// Start offset of the matched subsequence.
    pub start: usize,
    /// End offset (inclusive).
    pub end: usize,
    /// Real (unconstrained subsequence) DTW distance, root scale.
    pub dist: f64,
}

/// Per-query work accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct EbsmStats {
    /// Embedded positions scanned during ranking.
    pub positions_total: usize,
    /// Candidate end positions refined with real DTW.
    pub refined: usize,
    /// DTW cells spent in refinement.
    pub refine_cells: usize,
}

/// One database series with its per-position embedding matrix
/// (row-major: position × reference).
#[derive(Debug, Clone)]
struct Embedded {
    values: Vec<f64>,
    emb: Vec<f64>,
}

/// The EBSM index over a collection of series.
///
/// ```
/// use onex_baselines::embedding::{EbsmConfig, EbsmIndex};
///
/// let series: Vec<Vec<f64>> = (0..4)
///     .map(|p| (0..120).map(|i| ((i + 11 * p) as f64 * 0.21).sin()).collect())
///     .collect();
/// let query = series[2][40..60].to_vec();
/// let idx = EbsmIndex::build(series, EbsmConfig::default());
/// let (hit, _stats) = idx.best_match(&query).unwrap();
/// assert!(hit.dist < 1e-6); // the query occurs verbatim
/// ```
#[derive(Debug, Clone)]
pub struct EbsmIndex {
    cfg: EbsmConfig,
    refs: Vec<Vec<f64>>,
    series: Vec<Embedded>,
}

impl EbsmIndex {
    /// Build the index: sample references, then embed every position of
    /// every series against every reference.
    ///
    /// # Panics
    ///
    /// Panics if `references == 0`, `ref_len == 0`, `candidates == 0` or
    /// `refine_factor == 0`.
    pub fn build(series: Vec<Vec<f64>>, cfg: EbsmConfig) -> Self {
        assert!(cfg.references > 0, "need at least one reference");
        assert!(cfg.ref_len > 0, "reference length must be positive");
        assert!(cfg.candidates > 0, "must refine at least one candidate");
        assert!(cfg.refine_factor > 0, "refine window must be positive");
        let refs = sample_references(&series, &cfg);
        let mut idx = EbsmIndex {
            cfg,
            refs,
            series: Vec::new(),
        };
        for s in series {
            idx.push_series(s);
        }
        idx
    }

    /// Append one more series, embedding its positions.
    pub fn push_series(&mut self, values: Vec<f64>) -> u32 {
        let id = self.series.len() as u32;
        let k = self.refs.len();
        let mut emb = vec![0.0; values.len() * k];
        for (r, reference) in self.refs.iter().enumerate() {
            for (t, c) in end_costs(&values, reference).into_iter().enumerate() {
                emb[t * k + r] = c;
            }
        }
        self.series.push(Embedded { values, emb });
        id
    }

    /// The sampled reference sequences.
    pub fn references(&self) -> &[Vec<f64>] {
        &self.refs
    }

    /// Number of indexed series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total embedded positions across all series.
    pub fn positions_total(&self) -> usize {
        self.series.iter().map(|s| s.values.len()).sum()
    }

    /// The build configuration.
    pub fn config(&self) -> EbsmConfig {
        self.cfg
    }

    /// Embed a query: each reference warped to a suffix of the query
    /// ending at its last sample.
    fn embed_query(&self, query: &[f64]) -> Vec<f64> {
        self.refs
            .iter()
            .map(|r| *end_costs(query, r).last().expect("query checked non-empty"))
            .collect()
    }

    /// The candidate end positions ranked by embedding distance —
    /// exposed so benches can compute rank-of-truth accuracy curves.
    pub fn rank_candidates(&self, query: &[f64], n: usize) -> Vec<(u32, usize)> {
        assert!(!query.is_empty(), "empty query");
        let fq = self.embed_query(query);
        let k = self.refs.len();
        // (distance², series, end) min-heap emulated with sort of a
        // bounded selection: collect then partial sort is fine at the
        // scales the workspace runs (≤ a few hundred thousand positions).
        let mut scored: Vec<(f64, u32, usize)> = Vec::new();
        for (sid, s) in self.series.iter().enumerate() {
            let positions = s.values.len();
            for t in 0..positions {
                let row = &s.emb[t * k..(t + 1) * k];
                let d: f64 = row.iter().zip(&fq).map(|(a, b)| (a - b) * (a - b)).sum();
                scored.push((d, sid as u32, t));
            }
        }
        let n = n.min(scored.len());
        if n == 0 {
            return Vec::new();
        }
        scored.select_nth_unstable_by(n - 1, |a, b| a.0.total_cmp(&b.0));
        scored.truncate(n);
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored.into_iter().map(|(_, s, t)| (s, t)).collect()
    }

    /// Approximate best match: rank, refine top-`candidates`, return the
    /// best refined hit. `None` if the index is empty or `query` is.
    pub fn best_match(&self, query: &[f64]) -> Option<(EbsmHit, EbsmStats)> {
        let (hits, stats) = self.k_best(query, 1);
        hits.into_iter().next().map(|h| (h, stats))
    }

    /// The `k` best refined hits, best first (fewer when refinement
    /// yields fewer distinct subsequences). Approximate like
    /// [`EbsmIndex::best_match`]: only the top-ranked candidate end
    /// positions are refined, so the answer quality is governed by the
    /// same [`EbsmConfig::candidates`] dial.
    pub fn k_best(&self, query: &[f64], k: usize) -> (Vec<EbsmHit>, EbsmStats) {
        let mut stats = EbsmStats::default();
        if query.is_empty() || self.series.is_empty() || k == 0 {
            return (Vec::new(), stats);
        }
        stats.positions_total = self.positions_total();
        let candidates = self.rank_candidates(query, self.cfg.candidates);
        let mut hits: Vec<EbsmHit> = Vec::new();
        for (sid, end) in candidates {
            let s = &self.series[sid as usize];
            let span = self.cfg.refine_factor * query.len();
            let lo = (end + 1).saturating_sub(span);
            let window = &s.values[lo..=end.min(s.values.len() - 1)];
            if window.is_empty() {
                continue;
            }
            stats.refined += 1;
            stats.refine_cells += window.len() * query.len();
            if let Some(m) = spring_best_match(window, query) {
                hits.push(EbsmHit {
                    series: sid,
                    start: lo + m.start,
                    end: lo + m.end,
                    dist: m.dist,
                });
            }
        }
        // Adjacent candidate ends often refine to the same subsequence;
        // report each distinct window once, at its best distance.
        hits.sort_by(|a, b| {
            (a.series, a.start, a.end)
                .cmp(&(b.series, b.start, b.end))
                .then(a.dist.total_cmp(&b.dist))
        });
        hits.dedup_by_key(|h| (h.series, h.start, h.end));
        hits.sort_by(|a, b| {
            a.dist
                .total_cmp(&b.dist)
                .then_with(|| (a.series, a.start).cmp(&(b.series, b.start)))
        });
        hits.truncate(k);
        (hits, stats)
    }
}

/// Sample `k` references as random subsequences of the data (falling back
/// to whole short series), deterministic in the seed.
fn sample_references(series: &[Vec<f64>], cfg: &EbsmConfig) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let usable: Vec<&Vec<f64>> = series.iter().filter(|s| !s.is_empty()).collect();
    let mut refs = Vec::with_capacity(cfg.references);
    for i in 0..cfg.references {
        if usable.is_empty() {
            // Degenerate but well-defined: a synthetic ramp reference so
            // an index built before any data still accepts pushes.
            refs.push((0..cfg.ref_len).map(|j| (i + j) as f64).collect());
            continue;
        }
        let s = usable[rng.gen_range(0..usable.len())];
        if s.len() <= cfg.ref_len {
            refs.push(s.to_vec());
        } else {
            let start = rng.gen_range(0..=s.len() - cfg.ref_len);
            refs.push(s[start..start + cfg.ref_len].to_vec());
        }
    }
    refs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, f: f64, phase: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * f + phase).sin() * 2.0).collect()
    }

    fn small_db() -> Vec<Vec<f64>> {
        vec![
            wave(100, 0.17, 0.0),
            wave(100, 0.23, 1.0),
            wave(100, 0.31, 2.0),
        ]
    }

    #[test]
    fn verbatim_query_found_with_zero_distance() {
        let db = small_db();
        let query = db[1][30..50].to_vec();
        let idx = EbsmIndex::build(db, EbsmConfig::default());
        let (hit, stats) = idx.best_match(&query).unwrap();
        assert_eq!(hit.series, 1);
        assert!(hit.dist < 1e-9, "dist {}", hit.dist);
        assert!(hit.start <= 30 && 49 <= hit.end + query.len());
        assert_eq!(stats.refined, idx.config().candidates);
    }

    #[test]
    fn full_refinement_equals_exact_search() {
        // With N = all positions, EBSM degenerates to exact search.
        let db = small_db();
        let idx = EbsmIndex::build(
            db.clone(),
            EbsmConfig {
                candidates: 300,
                refine_factor: 3,
                ..EbsmConfig::default()
            },
        );
        let query = wave(20, 0.21, 0.4);
        let (hit, _) = idx.best_match(&query).unwrap();
        let exact = db
            .iter()
            .map(|s| spring_best_match(s, &query).unwrap().dist)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (hit.dist - exact).abs() < 1e-9,
            "ebsm {} exact {}",
            hit.dist,
            exact
        );
    }

    #[test]
    fn reported_distance_is_faithful() {
        let db = small_db();
        let idx = EbsmIndex::build(db.clone(), EbsmConfig::default());
        let query = wave(15, 0.19, 0.9);
        let (hit, _) = idx.best_match(&query).unwrap();
        let window = &db[hit.series as usize][hit.start..=hit.end];
        let real = onex_distance::dtw(window, &query, onex_distance::Band::Full);
        assert!((real - hit.dist).abs() < 1e-9);
    }

    #[test]
    fn deterministic_in_seed() {
        let db = small_db();
        let a = EbsmIndex::build(db.clone(), EbsmConfig::default());
        let b = EbsmIndex::build(db, EbsmConfig::default());
        assert_eq!(a.references(), b.references());
        let q = wave(12, 0.3, 0.1);
        assert_eq!(a.best_match(&q).unwrap().0, b.best_match(&q).unwrap().0);
    }

    #[test]
    fn incremental_push_matches_batch() {
        let db = small_db();
        let cfg = EbsmConfig::default();
        let batch = EbsmIndex::build(db.clone(), cfg);
        // Seed references identically by building from the same data,
        // then re-pushing: references depend only on (data, seed).
        let mut inc = EbsmIndex::build(db.clone(), cfg);
        let extra = wave(60, 0.27, 0.5);
        let mut batch2 = EbsmIndex::build(
            {
                let mut v = db.clone();
                v.push(extra.clone());
                v
            },
            cfg,
        );
        // Different reference sample (more data to draw from) — so only
        // check self-consistency of the incremental path:
        inc.push_series(extra.clone());
        assert_eq!(inc.series_count(), 4);
        let q = extra[10..30].to_vec();
        let (hit, _) = inc.best_match(&q).unwrap();
        assert_eq!(hit.series, 3);
        assert!(hit.dist < 1e-9);
        // Silence unused warning while documenting the semantic difference.
        let _ = batch2.push_series(vec![]);
        let _ = batch;
    }

    #[test]
    fn more_candidates_never_hurt() {
        let db = small_db();
        let query = wave(18, 0.29, 1.7);
        let mut prev = f64::INFINITY;
        for n in [1, 4, 16, 64, 300] {
            let idx = EbsmIndex::build(
                db.clone(),
                EbsmConfig {
                    candidates: n,
                    ..EbsmConfig::default()
                },
            );
            let (hit, stats) = idx.best_match(&query).unwrap();
            assert!(hit.dist <= prev + 1e-12, "n={n} worsened the answer");
            assert!(stats.refined <= n);
            prev = hit.dist;
        }
    }

    #[test]
    fn k_best_is_sorted_distinct_and_consistent_with_best() {
        let db = small_db();
        let idx = EbsmIndex::build(db, EbsmConfig::default());
        let query = wave(16, 0.22, 0.7);
        let (hits, stats) = idx.k_best(&query, 4);
        assert!(!hits.is_empty() && hits.len() <= 4);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
        let set: std::collections::HashSet<(u32, usize, usize)> =
            hits.iter().map(|h| (h.series, h.start, h.end)).collect();
        assert_eq!(set.len(), hits.len(), "distinct subsequences");
        let (best, _) = idx.best_match(&query).unwrap();
        assert!((best.dist - hits[0].dist).abs() < 1e-12);
        assert_eq!(stats.refined, idx.config().candidates);
    }

    #[test]
    fn empty_cases() {
        let idx = EbsmIndex::build(Vec::new(), EbsmConfig::default());
        assert!(idx.best_match(&[1.0, 2.0]).is_none());
        let idx = EbsmIndex::build(small_db(), EbsmConfig::default());
        assert!(idx.best_match(&[]).is_none());
    }
}
