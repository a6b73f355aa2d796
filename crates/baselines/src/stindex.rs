//! The ST-index: trails of window features, sub-trail MBRs, and
//! filter-and-refine subsequence search.

use onex_api::BestK;

use crate::dft::{dft_features, feature_dim, SlidingDft};
use crate::rtree::{RTree, Rect};
use std::collections::HashSet;

/// Build-time configuration of an [`StIndex`].
#[derive(Debug, Clone, Copy)]
pub struct StConfig {
    /// Sliding-window width `w`; the minimum supported query length.
    pub window: usize,
    /// Hard cap on sub-trail length (windows per MBR); the marginal-cost
    /// heuristic may cut earlier.
    pub subtrail_max: usize,
    /// Normalisation scale for the marginal-cost heuristic: MBR sides are
    /// divided by this before costing, so it should be on the order of a
    /// typical feature-space query radius. Only affects trail division
    /// quality, never correctness.
    pub cost_scale: f64,
}

impl Default for StConfig {
    fn default() -> Self {
        StConfig {
            window: 16,
            subtrail_max: 64,
            cost_scale: 1.0,
        }
    }
}

/// One sub-trail: a run of consecutive window positions of one series
/// summarised by a single MBR in the R-tree.
#[derive(Debug, Clone, Copy)]
struct SubTrail {
    series: u32,
    /// First window start position covered.
    first: u32,
    /// Last window start position covered (inclusive).
    last: u32,
}

/// A verified query answer: a window of a stored series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrmHit {
    /// Index of the series within the index.
    pub series: u32,
    /// Start offset of the matching subsequence.
    pub start: usize,
    /// True Euclidean distance to the query (root scale).
    pub dist: f64,
}

/// Filter-and-refine accounting for one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrmStats {
    /// Window positions stored in the index.
    pub windows_total: usize,
    /// Sub-trail MBRs touched by the R-tree search.
    pub subtrails_hit: usize,
    /// Candidate window positions after expanding sub-trails.
    pub candidates: usize,
    /// Candidates surviving raw-data verification.
    pub verified: usize,
}

impl FrmStats {
    /// Fraction of stored windows never verified — the filter's power.
    pub fn prune_rate(&self) -> f64 {
        if self.windows_total == 0 {
            return 0.0;
        }
        1.0 - self.candidates as f64 / self.windows_total as f64
    }
}

/// ST-index over a collection of series, parameterised by the feature
/// dimension `D = 2 × (retained DFT coefficients)`.
///
/// ```
/// use onex_baselines::frm::{StConfig, StIndex};
///
/// let series = vec![
///     (0..64).map(|i| (i as f64 * 0.3).sin()).collect::<Vec<_>>(),
///     (0..64).map(|i| (i as f64 * 0.3).cos()).collect::<Vec<_>>(),
/// ];
/// let idx = StIndex::<4>::build(series, StConfig { window: 8, ..Default::default() });
/// let query: Vec<f64> = (10..18).map(|i| (i as f64 * 0.3).sin()).collect();
/// let (hits, _stats) = idx.range_query(&query, 1e-6);
/// assert!(hits.iter().any(|h| h.series == 0 && h.start == 10));
/// ```
#[derive(Debug, Clone)]
pub struct StIndex<const D: usize> {
    cfg: StConfig,
    series: Vec<Vec<f64>>,
    subtrails: Vec<SubTrail>,
    rtree: RTree<D>,
    windows_total: usize,
}

impl<const D: usize> StIndex<D> {
    /// Retained complex DFT coefficients for this feature dimension.
    pub const FC: usize = D / 2;

    /// Build the index over `series` (series shorter than the window are
    /// stored but yield no windows).
    ///
    /// # Panics
    ///
    /// Panics if `D` is odd or zero, or `window < 2 × FC` (feature
    /// contraction would not hold), or `subtrail_max == 0`.
    pub fn build(series: Vec<Vec<f64>>, cfg: StConfig) -> Self {
        assert!(
            D >= 2 && D.is_multiple_of(2),
            "feature dimension must be even"
        );
        assert!(
            2 * Self::FC <= cfg.window,
            "window {} too short for {} coefficients",
            cfg.window,
            Self::FC
        );
        assert!(cfg.subtrail_max >= 1, "subtrail_max must be positive");
        assert_eq!(feature_dim(Self::FC), D);

        let mut idx = StIndex {
            cfg,
            series: Vec::new(),
            subtrails: Vec::new(),
            rtree: RTree::new(),
            windows_total: 0,
        };
        // Batch build: collect every sub-trail first, then STR bulk-load
        // the R-tree for near-full nodes and tight sibling locality.
        let mut pending: Vec<(Rect<D>, u64)> = Vec::new();
        for s in series {
            let sid = idx.series.len() as u32;
            idx.collect_subtrails(sid, &s, &mut pending);
            idx.series.push(s);
        }
        idx.rtree = RTree::bulk_load(pending);
        idx
    }

    /// Append one more series, indexing its windows (the incremental
    /// loading path of experiment E11). Uses one-at-a-time R-tree
    /// insertion; batch [`build`](StIndex::build) bulk-loads instead.
    pub fn push_series(&mut self, s: Vec<f64>) -> u32 {
        let sid = self.series.len() as u32;
        let mut pending = Vec::new();
        self.collect_subtrails(sid, &s, &mut pending);
        for (mbr, id) in pending {
            self.rtree.insert(mbr, id);
        }
        self.series.push(s);
        sid
    }

    /// Cut one series into sub-trails, registering them and appending
    /// their `(MBR, id)` pairs to `pending` for the caller to index.
    fn collect_subtrails(&mut self, sid: u32, s: &[f64], pending: &mut Vec<(Rect<D>, u64)>) {
        let w = self.cfg.window;
        if s.len() < w {
            return;
        }
        let mut sliding = SlidingDft::new(w, Self::FC);
        let mut cur: Option<(Rect<D>, u32, u32)> = None; // (mbr, first, last)
        let mut pos = 0u32;
        for &x in s {
            let Some(f) = sliding.push(x) else { continue };
            let p = to_point::<D>(&f);
            let pr = Rect::point(p);
            self.windows_total += 1;
            cur = Some(match cur {
                None => (pr, pos, pos),
                Some((mbr, first, last)) => {
                    let grown = mbr.union(&pr);
                    let count = (last - first + 1) as usize;
                    if count >= self.cfg.subtrail_max
                        || marginal_cost(&mbr, &grown, self.cfg.cost_scale) > 1.0
                    {
                        self.flush_subtrail(sid, mbr, first, last, pending);
                        (pr, pos, pos)
                    } else {
                        (grown, first, pos)
                    }
                }
            });
            pos += 1;
        }
        if let Some((mbr, first, last)) = cur {
            self.flush_subtrail(sid, mbr, first, last, pending);
        }
    }

    fn flush_subtrail(
        &mut self,
        series: u32,
        mbr: Rect<D>,
        first: u32,
        last: u32,
        pending: &mut Vec<(Rect<D>, u64)>,
    ) {
        let id = self.subtrails.len() as u64;
        self.subtrails.push(SubTrail {
            series,
            first,
            last,
        });
        pending.push((mbr, id));
    }

    /// Number of indexed series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Raw values of series `id`, if present.
    pub fn series(&self, id: u32) -> Option<&[f64]> {
        self.series.get(id as usize).map(|v| v.as_slice())
    }

    /// Total window positions indexed.
    pub fn windows_total(&self) -> usize {
        self.windows_total
    }

    /// Number of sub-trail MBRs (the R-tree's entry count).
    pub fn subtrail_count(&self) -> usize {
        self.subtrails.len()
    }

    /// The build-time configuration.
    pub fn config(&self) -> StConfig {
        self.cfg
    }

    /// All subsequences of length `query.len()` within Euclidean distance
    /// `eps` of `query`, by filter-and-refine. Exact: the DFT contraction
    /// plus the multi-piece lemma guarantee no false dismissals.
    ///
    /// # Panics
    ///
    /// Panics if the query is shorter than the index window.
    pub fn range_query(&self, query: &[f64], eps: f64) -> (Vec<FrmHit>, FrmStats) {
        let w = self.cfg.window;
        assert!(
            query.len() >= w,
            "query length {} below index window {}",
            query.len(),
            w
        );
        let mut stats = FrmStats {
            windows_total: self.windows_total,
            ..FrmStats::default()
        };

        // Multi-piece lemma (PrefixSearch): cut the query into p disjoint
        // windows; if ED(Q,S) ≤ ε then some piece is within ε/√p of the
        // aligned window of S.
        let p = query.len() / w;
        let piece_radius = eps / (p as f64).sqrt();
        let mut candidates: HashSet<(u32, usize)> = HashSet::new();
        for piece in 0..p {
            let qs = &query[piece * w..(piece + 1) * w];
            let f = dft_features(qs, Self::FC);
            let point = to_point::<D>(&f);
            let ids = self.rtree.search_within(&point, piece_radius);
            stats.subtrails_hit += ids.len();
            for id in ids {
                let st = self.subtrails[id as usize];
                for wpos in st.first..=st.last {
                    // Window wpos matched piece `piece`; the candidate
                    // subsequence starts piece*w earlier.
                    let Some(start) = (wpos as usize).checked_sub(piece * w) else {
                        continue;
                    };
                    let series = &self.series[st.series as usize];
                    if start + query.len() <= series.len() {
                        candidates.insert((st.series, start));
                    }
                }
            }
        }
        stats.candidates = candidates.len();

        // Refine against raw data with early abandonment at ε.
        let eps_sq = eps * eps;
        let mut hits = Vec::new();
        for (sid, start) in candidates {
            let s = &self.series[sid as usize];
            let window = &s[start..start + query.len()];
            let d_sq = onex_distance::ed_early_abandon_sq(query, window, eps_sq);
            if d_sq <= eps_sq {
                hits.push(FrmHit {
                    series: sid,
                    start,
                    dist: d_sq.sqrt(),
                });
            }
        }
        stats.verified = hits.len();
        hits.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        (hits, stats)
    }

    /// The single nearest subsequence of length `query.len()` under raw
    /// Euclidean distance, or `None` if no series is long enough.
    ///
    /// Exact, via the incremental nearest-neighbour traversal
    /// (Hjaltason–Samet): sub-trails stream out of the R-tree in
    /// non-decreasing feature-space distance to the query's first
    /// window; since that distance lower-bounds the true ED of any
    /// candidate the sub-trail contains (DFT contraction + prefix
    /// lemma), the scan stops the moment the next MBR is farther than
    /// the best verified candidate.
    pub fn best_match(&self, query: &[f64]) -> Option<(FrmHit, FrmStats)> {
        let w = self.cfg.window;
        assert!(
            query.len() >= w,
            "query length {} below index window {}",
            query.len(),
            w
        );
        let mut stats = FrmStats {
            windows_total: self.windows_total,
            ..FrmStats::default()
        };
        let point = to_point::<D>(&dft_features(&query[..w], Self::FC));
        let mut best: Option<FrmHit> = None;
        for (mindist_sq, id) in self.rtree.nearest_iter(point) {
            if let Some(b) = &best {
                if mindist_sq > b.dist * b.dist {
                    break; // every remaining sub-trail is provably worse
                }
            }
            stats.subtrails_hit += 1;
            let st = self.subtrails[id as usize];
            let series = &self.series[st.series as usize];
            for wpos in st.first..=st.last {
                let start = wpos as usize;
                if start + query.len() > series.len() {
                    continue;
                }
                stats.candidates += 1;
                let bound_sq = best.as_ref().map_or(f64::INFINITY, |b| b.dist * b.dist);
                let d_sq = onex_distance::ed_early_abandon_sq(
                    query,
                    &series[start..start + query.len()],
                    bound_sq,
                );
                if d_sq < bound_sq {
                    best = Some(FrmHit {
                        series: st.series,
                        start,
                        dist: d_sq.sqrt(),
                    });
                }
            }
        }
        stats.verified = usize::from(best.is_some());
        best.map(|b| (b, stats))
    }

    /// The `k` nearest subsequences of length `query.len()` under raw
    /// Euclidean distance, best first (fewer when the collection holds
    /// fewer eligible windows). Exact by the same incremental
    /// nearest-neighbour argument as [`StIndex::best_match`], with the
    /// running k-th best as the stopping bound.
    ///
    /// # Panics
    ///
    /// Panics if the query is shorter than the index window or `k == 0`.
    pub fn k_best(&self, query: &[f64], k: usize) -> (Vec<FrmHit>, FrmStats) {
        let w = self.cfg.window;
        assert!(k > 0, "k must be positive");
        assert!(
            query.len() >= w,
            "query length {} below index window {}",
            query.len(),
            w
        );
        let mut stats = FrmStats {
            windows_total: self.windows_total,
            ..FrmStats::default()
        };
        let point = to_point::<D>(&dft_features(&query[..w], Self::FC));
        // Shared bounded best-k accumulator: its k-th best squared
        // distance is both the stopping and the verification bound.
        let mut acc: BestK<(u32, usize)> = BestK::new(k);
        for (mindist_sq, id) in self.rtree.nearest_iter(point) {
            if mindist_sq > acc.bound() {
                break; // every remaining sub-trail is provably worse
            }
            stats.subtrails_hit += 1;
            let st = self.subtrails[id as usize];
            let series = &self.series[st.series as usize];
            for wpos in st.first..=st.last {
                let start = wpos as usize;
                if start + query.len() > series.len() {
                    continue;
                }
                stats.candidates += 1;
                let d_sq = onex_distance::ed_early_abandon_sq(
                    query,
                    &series[start..start + query.len()],
                    acc.bound(),
                );
                acc.offer(d_sq, (st.series, start));
            }
        }
        let hits: Vec<FrmHit> = acc
            .into_sorted()
            .into_iter()
            .map(|(d_sq, (series, start))| FrmHit {
                series,
                start,
                dist: d_sq.sqrt(),
            })
            .collect();
        stats.verified = hits.len();
        (hits, stats)
    }
}

/// Marginal cost of growing `mbr` to `grown`, in Guttman/FRM units: the
/// increase in expected R-tree accesses for a point query, modelled as
/// the volume of the side-extended rectangle ∏(Lᵢ/scale + 1).
fn marginal_cost<const D: usize>(mbr: &Rect<D>, grown: &Rect<D>, scale: f64) -> f64 {
    let cost = |r: &Rect<D>| -> f64 {
        (0..D)
            .map(|d| (r.max[d] - r.min[d]) / scale + 1.0)
            .product()
    };
    cost(grown) - cost(mbr)
}

fn to_point<const D: usize>(f: &[f64]) -> [f64; D] {
    let mut p = [0.0; D];
    p.copy_from_slice(f);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.31 + phase).sin() * 2.0 + (i as f64 * 0.07).cos())
            .collect()
    }

    fn brute_range(series: &[Vec<f64>], query: &[f64], eps: f64) -> Vec<(u32, usize, f64)> {
        let mut out = Vec::new();
        for (sid, s) in series.iter().enumerate() {
            if s.len() < query.len() {
                continue;
            }
            for start in 0..=s.len() - query.len() {
                let d = onex_distance::ed(query, &s[start..start + query.len()]);
                if d <= eps {
                    out.push((sid as u32, start, d));
                }
            }
        }
        out
    }

    #[test]
    fn finds_exact_occurrence() {
        let series = vec![wavy(80, 0.0), wavy(80, 1.0)];
        let idx = StIndex::<4>::build(
            series.clone(),
            StConfig {
                window: 8,
                ..StConfig::default()
            },
        );
        let query = series[1][20..28].to_vec();
        let (hits, stats) = idx.range_query(&query, 1e-9);
        assert!(hits.iter().any(|h| h.series == 1 && h.start == 20));
        assert!(stats.candidates >= hits.len());
    }

    #[test]
    fn range_query_equals_brute_force() {
        let series = vec![wavy(60, 0.0), wavy(45, 2.0), wavy(70, 4.0)];
        let idx = StIndex::<4>::build(
            series.clone(),
            StConfig {
                window: 8,
                subtrail_max: 8,
                cost_scale: 1.0,
            },
        );
        let query = wavy(8, 0.3);
        for eps in [0.5, 1.0, 2.0, 4.0] {
            let (hits, _) = idx.range_query(&query, eps);
            let want = brute_range(&series, &query, eps);
            assert_eq!(hits.len(), want.len(), "eps={eps}");
            for (sid, start, d) in want {
                let got = hits
                    .iter()
                    .find(|h| h.series == sid && h.start == start)
                    .unwrap_or_else(|| panic!("missing ({sid},{start}) at eps={eps}"));
                assert!((got.dist - d).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn long_queries_use_multipiece_lemma() {
        let series = vec![wavy(120, 0.0)];
        let idx = StIndex::<4>::build(
            series.clone(),
            StConfig {
                window: 8,
                ..StConfig::default()
            },
        );
        // Query of 3.5 windows (28 points): p = 3 pieces.
        let query = series[0][40..68].to_vec();
        let (hits, _) = idx.range_query(&query, 1e-9);
        assert!(hits.iter().any(|h| h.start == 40), "hits: {hits:?}");

        // And with noise, against brute force.
        let mut q2 = query.clone();
        for (i, v) in q2.iter_mut().enumerate() {
            *v += ((i * 7 % 5) as f64 - 2.0) * 0.05;
        }
        let eps = 1.5;
        let (hits, _) = idx.range_query(&q2, eps);
        let want = brute_range(&series, &q2, eps);
        assert_eq!(hits.len(), want.len());
    }

    #[test]
    fn best_match_is_exact() {
        let series = vec![wavy(90, 0.0), wavy(90, 0.9)];
        let idx = StIndex::<6>::build(
            series.clone(),
            StConfig {
                window: 10,
                ..StConfig::default()
            },
        );
        let query = wavy(10, 0.85);
        let (best, _) = idx.best_match(&query).unwrap();
        let mut want = (0u32, 0usize, f64::INFINITY);
        for (sid, s) in series.iter().enumerate() {
            for start in 0..=s.len() - query.len() {
                let d = onex_distance::ed(&query, &s[start..start + query.len()]);
                if d < want.2 {
                    want = (sid as u32, start, d);
                }
            }
        }
        assert_eq!((best.series, best.start), (want.0, want.1));
        assert!((best.dist - want.2).abs() < 1e-9);
    }

    #[test]
    fn k_best_matches_exhaustive_ranking() {
        let series = vec![wavy(70, 0.0), wavy(70, 1.1), wavy(55, 2.2)];
        let idx = StIndex::<4>::build(
            series.clone(),
            StConfig {
                window: 8,
                subtrail_max: 8,
                cost_scale: 1.0,
            },
        );
        let query = wavy(8, 0.4);
        let k = 6;
        let (hits, stats) = idx.k_best(&query, k);
        assert_eq!(hits.len(), k);
        assert_eq!(stats.verified, k);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
        // Brute-force reference.
        let mut all: Vec<(f64, u32, usize)> = Vec::new();
        for (sid, s) in series.iter().enumerate() {
            for start in 0..=s.len() - query.len() {
                let d = onex_distance::ed(&query, &s[start..start + query.len()]);
                all.push((d, sid as u32, start));
            }
        }
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (hit, want) in hits.iter().zip(&all) {
            assert!((hit.dist - want.0).abs() < 1e-9);
        }
        // k = 1 agrees with best_match; larger k never does less work.
        let (best, s1) = idx.best_match(&query).unwrap();
        assert!((hits[0].dist - best.dist).abs() < 1e-9);
        let (_, sk) = idx.k_best(&query, k);
        assert!(sk.candidates >= s1.candidates);
    }

    #[test]
    fn filter_prunes_on_separable_data() {
        // Two far-apart families: querying one should prune the other.
        let mut series: Vec<Vec<f64>> = (0..6).map(|i| wavy(100, i as f64 * 0.01)).collect();
        series.extend((0..6).map(|i| {
            wavy(100, i as f64 * 0.01)
                .into_iter()
                .map(|v| v + 50.0)
                .collect::<Vec<_>>()
        }));
        let idx = StIndex::<4>::build(
            series.clone(),
            StConfig {
                window: 16,
                subtrail_max: 16,
                cost_scale: 1.0,
            },
        );
        let query = wavy(16, 0.005);
        let (_, stats) = idx.range_query(&query, 1.0);
        assert!(
            stats.prune_rate() > 0.4,
            "expected pruning, got {:?}",
            stats
        );
    }

    #[test]
    fn short_series_are_skipped_gracefully() {
        let idx = StIndex::<4>::build(
            vec![vec![1.0, 2.0], wavy(40, 0.0)],
            StConfig {
                window: 8,
                ..StConfig::default()
            },
        );
        assert_eq!(idx.series_count(), 2);
        assert_eq!(idx.windows_total(), 40 - 8 + 1);
        let (hits, _) = idx.range_query(&wavy(8, 0.0), 0.5);
        assert!(hits.iter().all(|h| h.series == 1));
    }

    #[test]
    fn incremental_push_matches_batch_build() {
        let series = vec![wavy(50, 0.0), wavy(50, 1.5)];
        let cfg = StConfig {
            window: 8,
            ..StConfig::default()
        };
        let batch = StIndex::<4>::build(series.clone(), cfg);
        let mut inc = StIndex::<4>::build(Vec::new(), cfg);
        for s in series {
            inc.push_series(s);
        }
        assert_eq!(batch.windows_total(), inc.windows_total());
        assert_eq!(batch.subtrail_count(), inc.subtrail_count());
        let q = wavy(8, 1.45);
        let (h1, _) = batch.range_query(&q, 1.0);
        let (h2, _) = inc.range_query(&q, 1.0);
        assert_eq!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "query length")]
    fn rejects_short_query() {
        let idx = StIndex::<4>::build(
            vec![wavy(40, 0.0)],
            StConfig {
                window: 8,
                ..StConfig::default()
            },
        );
        idx.range_query(&[1.0; 4], 1.0);
    }
}
