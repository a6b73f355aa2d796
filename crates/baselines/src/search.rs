use onex_api::BestK;
use onex_distance::dtw::dtw_early_abandon_sq_with_cb;
use onex_distance::lb::{
    cumulative_bound, lb_keogh_env_znorm_sq, lb_keogh_znorm_sq, lb_kim_fl_sq_corners,
};
use onex_distance::{Band, Envelope};
use onex_tseries::normalize::{znorm, STD_FLOOR};
use onex_tseries::Dataset;

/// Where the best window was found, and how far it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Index of the series in the dataset (0 for single-series search).
    pub series: u32,
    /// Start offset of the best window.
    pub start: usize,
    /// Z-normalised distance (root scale).
    pub distance: f64,
}

/// Pruning accounting across the cascade — the UCR paper reports these
/// percentages; experiment E5 prints them next to the timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate windows examined.
    pub candidates: usize,
    /// Killed by LB_KimFL.
    pub kim_pruned: usize,
    /// Killed by LB_Keogh (query envelope vs candidate).
    pub keogh_eq_pruned: usize,
    /// Killed by LB_Keogh (candidate envelope vs query).
    pub keogh_ec_pruned: usize,
    /// DTW DP runs started.
    pub dtw_runs: usize,
    /// DTW DP runs abandoned before completion.
    pub dtw_abandoned: usize,
}

impl SearchStats {
    /// Fraction of candidates that never reached the DTW stage.
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        1.0 - self.dtw_runs as f64 / self.candidates as f64
    }
}

/// Configuration of a DTW search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtwSearchConfig {
    /// Sakoe–Chiba radius as a fraction of the query length (the UCR
    /// convention; 0.05 is the classic default).
    pub band_fraction: f64,
}

impl Default for DtwSearchConfig {
    fn default() -> Self {
        DtwSearchConfig {
            band_fraction: 0.05,
        }
    }
}

/// Rolling mean/std over fixed-size windows from running sums — the
/// "just-in-time z-normalisation" of the UCR Suite.
struct RollingMoments<'a> {
    t: &'a [f64],
    m: usize,
    sum: f64,
    sumsq: f64,
    /// Start of the window currently summarised, `None` before priming.
    at: Option<usize>,
}

impl<'a> RollingMoments<'a> {
    fn new(t: &'a [f64], m: usize) -> Self {
        RollingMoments {
            t,
            m,
            sum: 0.0,
            sumsq: 0.0,
            at: None,
        }
    }

    /// Moments of window `[start, start + m)`; must be called with
    /// non-decreasing `start` (steps of any size re-prime as needed).
    fn moments(&mut self, start: usize) -> (f64, f64) {
        match self.at {
            Some(prev) if start == prev => {}
            Some(prev) if start == prev + 1 => {
                let out = self.t[prev];
                let inn = self.t[prev + self.m];
                self.sum += inn - out;
                self.sumsq += inn * inn - out * out;
                self.at = Some(start);
            }
            _ => {
                self.sum = self.t[start..start + self.m].iter().sum();
                self.sumsq = self.t[start..start + self.m].iter().map(|v| v * v).sum();
                self.at = Some(start);
            }
        }
        let mean = self.sum / self.m as f64;
        let var = (self.sumsq / self.m as f64 - mean * mean).max(0.0);
        (mean, var.sqrt())
    }
}

/// Query preprocessed once per search.
struct PreparedQuery {
    /// Z-normalised query.
    qz: Vec<f64>,
    /// Indices of `qz` sorted by |value| descending (reordering early
    /// abandonment: biggest contributions first).
    order: Vec<usize>,
    /// Envelope of `qz` (for LB_Keogh EQ), in original index space.
    env: Envelope,
}

fn prepare_query(q: &[f64], radius: usize) -> PreparedQuery {
    let qz = znorm(q);
    let mut order: Vec<usize> = (0..qz.len()).collect();
    order.sort_by(|&a, &b| qz[b].abs().total_cmp(&qz[a].abs()).then(a.cmp(&b)));
    let env = Envelope::build(&qz, radius);
    PreparedQuery { qz, order, env }
}

/// The kernel-side z-norm scale for a window: `1/σ`, or 0 for a flat
/// window (the [`STD_FLOOR`] convention — same collapse-to-zero the DTW
/// stage's `znorm_with_moments` applies, in the identical
/// subtract-then-multiply form, so bounds and DP values stay
/// bit-consistent).
#[inline]
fn znorm_scale(std: f64) -> f64 {
    if std < STD_FLOOR {
        0.0
    } else {
        1.0 / std
    }
}

/// LB_KimFL on z-normalised data: the shared
/// [`lb_kim_fl_sq_corners`] kernel fed with just the four z-normalised
/// corner values of the window (the ONEX cascade's `lb_kim_fl_sq` is the
/// same kernel over raw values). `mean`/`std` are the candidate window's
/// moments.
fn lb_kim_fl(
    t: &[f64],
    start: usize,
    m: usize,
    qz: &[f64],
    mean: f64,
    std: f64,
    bsf_sq: f64,
) -> f64 {
    let scale = znorm_scale(std);
    let zn = |i: usize| (t[start + i] - mean) * scale;
    let (c1, c2) = if m >= 4 {
        (zn(1), zn(m - 2))
    } else {
        (0.0, 0.0)
    };
    lb_kim_fl_sq_corners(qz, m, zn(0), c1, c2, zn(m - 1), bsf_sq)
}

/// LB_Keogh EQ: candidate values (z-normalised inside the shared SIMD
/// kernel) against the query envelope. Fills `contrib` for the
/// cumulative bound.
fn lb_keogh_eq(
    t: &[f64],
    start: usize,
    pq: &PreparedQuery,
    mean: f64,
    std: f64,
    bsf_sq: f64,
    contrib: &mut [f64],
) -> f64 {
    let m = pq.qz.len();
    lb_keogh_znorm_sq(
        &t[start..start + m],
        mean,
        znorm_scale(std),
        &pq.env,
        bsf_sq,
        contrib,
    )
}

/// LB_Keogh EC: z-normalised *candidate* envelope against the query,
/// via the shared SIMD kernel. Uses the precomputed raw envelope of the
/// whole series — a superset of the window envelope, hence still a
/// sound (slightly looser) bound — normalised with the window's moments.
fn lb_keogh_ec(
    env_t: &Envelope,
    start: usize,
    pq: &PreparedQuery,
    mean: f64,
    std: f64,
    bsf_sq: f64,
    contrib: &mut [f64],
) -> f64 {
    let m = pq.qz.len();
    lb_keogh_env_znorm_sq(
        &pq.qz,
        &env_t.lower[start..start + m],
        &env_t.upper[start..start + m],
        mean,
        znorm_scale(std),
        bsf_sq,
        contrib,
    )
}

/// Best z-normalised **ED** window of length `|q|` in `t` (reordering
/// early abandonment, no lower-bound cascade needed: ED itself is cheap).
pub fn ucr_ed_search(t: &[f64], q: &[f64]) -> Option<(Hit, SearchStats)> {
    let m = q.len();
    if m == 0 || t.len() < m {
        return None;
    }
    let pq = prepare_query(q, 0);
    let mut moments = RollingMoments::new(t, m);
    let mut stats = SearchStats::default();
    let mut bsf_sq = f64::INFINITY;
    let mut best_start = 0usize;
    for start in 0..=t.len() - m {
        stats.candidates += 1;
        let (mean, std) = moments.moments(start);
        let mut acc = 0.0;
        let mut abandoned = false;
        for &i in &pq.order {
            let c = if std < STD_FLOOR {
                0.0
            } else {
                (t[start + i] - mean) / std
            };
            let d = c - pq.qz[i];
            acc += d * d;
            if acc > bsf_sq {
                abandoned = true;
                break;
            }
        }
        if !abandoned && acc < bsf_sq {
            bsf_sq = acc;
            best_start = start;
        }
    }
    Some((
        Hit {
            series: 0,
            start: best_start,
            distance: bsf_sq.sqrt(),
        },
        stats,
    ))
}

/// Best z-normalised **DTW** window of length `|q|` in `t` under the
/// configured Sakoe–Chiba band, with the full UCR cascade.
///
/// ```
/// use onex_baselines::ucrsuite::{ucr_dtw_search, DtwSearchConfig};
/// let t: Vec<f64> = (0..200).map(|i| (i as f64 * 0.3).sin()).collect();
/// let q = t[120..150].to_vec(); // an embedded window
/// let (hit, _stats) = ucr_dtw_search(&t, &q, &DtwSearchConfig::default()).unwrap();
/// assert_eq!(hit.start, 120);
/// assert!(hit.distance < 1e-9);
/// ```
pub fn ucr_dtw_search(t: &[f64], q: &[f64], cfg: &DtwSearchConfig) -> Option<(Hit, SearchStats)> {
    let mut stats = SearchStats::default();
    ucr_dtw_search_with_bsf(t, q, cfg, f64::INFINITY, &mut stats).map(|h| (h, stats))
}

/// The shared scan behind every DTW search form: slide the window over
/// `t`, run the full pruning cascade against the current bound, and hand
/// each surviving window to `accept(start, d_sq)`, which returns the
/// bound (squared) the scan continues with. Best-only searches return the
/// new distance; top-k searches return their k-th best.
fn scan_dtw_windows(
    t: &[f64],
    q: &[f64],
    cfg: &DtwSearchConfig,
    stats: &mut SearchStats,
    init_bound_sq: f64,
    accept: &mut dyn FnMut(usize, f64) -> f64,
) {
    let m = q.len();
    if m == 0 || t.len() < m {
        return;
    }
    assert!(
        (0.0..=1.0).contains(&cfg.band_fraction),
        "band fraction out of range"
    );
    let radius = (cfg.band_fraction * m as f64).ceil() as usize;
    let band = Band::SakoeChiba(radius);
    let pq = prepare_query(q, radius);
    let env_t = Envelope::build(t, radius);
    let mut moments = RollingMoments::new(t, m);
    let mut bsf_sq = init_bound_sq;
    let mut contrib_eq = vec![0.0; m];
    let mut contrib_ec = vec![0.0; m];
    let mut cand = vec![0.0; m];

    for start in 0..=t.len() - m {
        stats.candidates += 1;
        let (mean, std) = moments.moments(start);

        // Tier 1: LB_KimFL.
        if lb_kim_fl(t, start, m, &pq.qz, mean, std, bsf_sq).is_infinite() {
            stats.kim_pruned += 1;
            continue;
        }
        // Tier 2: LB_Keogh EQ.
        let lb_eq = lb_keogh_eq(t, start, &pq, mean, std, bsf_sq, &mut contrib_eq);
        if lb_eq.is_infinite() {
            stats.keogh_eq_pruned += 1;
            continue;
        }
        // Tier 3: LB_Keogh EC.
        let lb_ec = lb_keogh_ec(&env_t, start, &pq, mean, std, bsf_sq, &mut contrib_ec);
        if lb_ec.is_infinite() {
            stats.keogh_ec_pruned += 1;
            continue;
        }
        // DTW with the cumulative bound of the tighter LB.
        let cb = if lb_eq >= lb_ec {
            cumulative_bound(&contrib_eq)
        } else {
            cumulative_bound(&contrib_ec)
        };
        onex_tseries::normalize::znorm_with_moments(&t[start..start + m], mean, std, &mut cand);
        stats.dtw_runs += 1;
        let d_sq = dtw_early_abandon_sq_with_cb(&pq.qz, &cand, band, bsf_sq, Some(&cb));
        if d_sq.is_infinite() {
            stats.dtw_abandoned += 1;
            continue;
        }
        if d_sq < bsf_sq {
            bsf_sq = accept(start, d_sq);
        }
    }
}

/// [`ucr_dtw_search`] seeded with an externally known best-so-far
/// (squared). Returns `None` when `t` is shorter than the query **or** no
/// window beats the seed. The dataset search threads its running best
/// through this, so pruning carries across series exactly as the original
/// single-sequence code carries it across windows.
pub fn ucr_dtw_search_with_bsf(
    t: &[f64],
    q: &[f64],
    cfg: &DtwSearchConfig,
    seed_bsf_sq: f64,
    stats: &mut SearchStats,
) -> Option<Hit> {
    let mut best: Option<(usize, f64)> = None;
    scan_dtw_windows(t, q, cfg, stats, seed_bsf_sq, &mut |start, d_sq| {
        best = Some((start, d_sq));
        d_sq
    });
    best.map(|(start, d_sq)| Hit {
        series: 0,
        start,
        distance: d_sq.sqrt(),
    })
}

/// Bounded best-k accumulator for multi-series top-k searches: the
/// shared [`BestK`] over `(series, start)` windows keyed by squared
/// distance, exposed as the pruning bound threaded through the shared
/// window scan.
#[derive(Debug)]
pub struct TopK {
    inner: BestK<(u32, usize)>,
}

impl TopK {
    /// Accumulator keeping the best `k` windows (`k` must be positive).
    pub fn new(k: usize) -> TopK {
        TopK {
            inner: BestK::new(k),
        }
    }

    /// Current pruning bound: the k-th best squared distance, or infinity
    /// while fewer than `k` windows have been kept.
    pub fn bound_sq(&self) -> f64 {
        self.inner.bound()
    }

    fn offer(&mut self, series: u32, start: usize, d_sq: f64) -> f64 {
        self.inner.offer(d_sq, (series, start))
    }

    /// The kept windows as [`Hit`]s, best first.
    pub fn into_hits(self) -> Vec<Hit> {
        self.inner
            .into_sorted()
            .into_iter()
            .map(|(d_sq, (series, start))| Hit {
                series,
                start,
                distance: d_sq.sqrt(),
            })
            .collect()
    }
}

/// Feed every window of `t` (labelled `series_id`) through the cascade
/// into a shared [`TopK`] accumulator. The accumulator's k-th best is the
/// pruning bound, so the cascade prunes exactly as hard as a k-best
/// search soundly can.
pub fn ucr_dtw_search_topk(
    t: &[f64],
    q: &[f64],
    cfg: &DtwSearchConfig,
    series_id: u32,
    acc: &mut TopK,
    stats: &mut SearchStats,
) {
    let bound = acc.bound_sq();
    scan_dtw_windows(t, q, cfg, stats, bound, &mut |start, d_sq| {
        acc.offer(series_id, start, d_sq)
    });
}

/// The `k` best z-normalised DTW windows across a whole dataset, best
/// first. Exact under the same argument as [`ucr_dtw_search`]: the bound
/// only ever prunes windows provably worse than the current k-th best.
pub fn ucr_dtw_search_dataset_topk(
    dataset: &Dataset,
    q: &[f64],
    cfg: &DtwSearchConfig,
    k: usize,
) -> (Vec<Hit>, SearchStats) {
    let mut acc = TopK::new(k);
    let mut stats = SearchStats::default();
    for (sid, series) in dataset.iter() {
        ucr_dtw_search_topk(series.values(), q, cfg, sid, &mut acc, &mut stats);
    }
    (acc.into_hits(), stats)
}

/// Run the UCR search over every series of a dataset (the collection form
/// ONEX is compared against in E5). The best-so-far threads across
/// series, so later series are pruned against the global best — the same
/// optimisation the original applies across windows.
pub fn ucr_dtw_search_dataset(
    dataset: &Dataset,
    q: &[f64],
    cfg: &DtwSearchConfig,
) -> Option<(Hit, SearchStats)> {
    let mut best: Option<Hit> = None;
    let mut stats = SearchStats::default();
    let mut bsf_sq = f64::INFINITY;
    for (sid, series) in dataset.iter() {
        if let Some(hit) = ucr_dtw_search_with_bsf(series.values(), q, cfg, bsf_sq, &mut stats) {
            bsf_sq = hit.distance * hit.distance;
            best = Some(Hit { series: sid, ..hit });
        }
    }
    best.map(|b| (b, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_distance::dtw;
    use onex_distance::ed;

    /// Reference: exhaustive z-normalised scan without any pruning.
    fn brute_force(t: &[f64], q: &[f64], band: Band) -> (usize, f64) {
        let m = q.len();
        let qz = znorm(q);
        let mut best = (0usize, f64::INFINITY);
        for start in 0..=t.len() - m {
            let cz = znorm(&t[start..start + m]);
            let d = dtw(&qz, &cz, band);
            if d < best.1 {
                best = (start, d);
            }
        }
        best
    }

    fn toy_series(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic wiggle without pulling rand into the hot tests.
        (0..n)
            .map(|i| {
                let x = i as f64 + seed as f64;
                (x * 0.31).sin() * 2.0 + (x * 0.07).cos() + (x * 1.7).sin() * 0.3
            })
            .collect()
    }

    #[test]
    fn dtw_search_matches_brute_force() {
        let t = toy_series(300, 5);
        let q: Vec<f64> = t[140..160].iter().map(|v| v + 0.05).collect();
        let cfg = DtwSearchConfig { band_fraction: 0.1 };
        let (hit, stats) = ucr_dtw_search(&t, &q, &cfg).unwrap();
        let radius = (0.1f64 * q.len() as f64).ceil() as usize;
        let (bf_start, bf_dist) = brute_force(&t, &q, Band::SakoeChiba(radius));
        assert!(
            (hit.distance - bf_dist).abs() < 1e-9,
            "ucr {} vs brute {}",
            hit.distance,
            bf_dist
        );
        assert_eq!(hit.start, bf_start);
        assert_eq!(stats.candidates, t.len() - q.len() + 1);
    }

    #[test]
    fn dtw_search_various_bands_match_brute_force() {
        let t = toy_series(160, 11);
        let q = toy_series(24, 87);
        for frac in [0.0, 0.05, 0.2, 1.0] {
            let cfg = DtwSearchConfig {
                band_fraction: frac,
            };
            let (hit, _) = ucr_dtw_search(&t, &q, &cfg).unwrap();
            let radius = (frac * q.len() as f64).ceil() as usize;
            let (_, bf_dist) = brute_force(&t, &q, Band::SakoeChiba(radius));
            assert!(
                (hit.distance - bf_dist).abs() < 1e-9,
                "frac={frac}: {} vs {bf_dist}",
                hit.distance
            );
        }
    }

    #[test]
    fn exact_embedded_window_is_found() {
        let t = toy_series(400, 3);
        let q = t[250..280].to_vec();
        let (hit, _) = ucr_dtw_search(&t, &q, &DtwSearchConfig::default()).unwrap();
        assert!(hit.distance < 1e-9);
        assert_eq!(hit.start, 250);
    }

    #[test]
    fn ed_search_matches_brute_force() {
        let t = toy_series(250, 7);
        let q = toy_series(20, 99);
        let (hit, _) = ucr_ed_search(&t, &q).unwrap();
        let qz = znorm(&q);
        let mut best = f64::INFINITY;
        let mut best_start = 0;
        for start in 0..=t.len() - q.len() {
            let cz = znorm(&t[start..start + q.len()]);
            let d = ed(&qz, &cz);
            if d < best {
                best = d;
                best_start = start;
            }
        }
        assert!((hit.distance - best).abs() < 1e-9);
        assert_eq!(hit.start, best_start);
    }

    #[test]
    fn pruning_actually_fires() {
        let t = toy_series(2000, 1);
        let q = t[500..532].to_vec();
        let (_, stats) = ucr_dtw_search(&t, &q, &DtwSearchConfig::default()).unwrap();
        let pruned = stats.kim_pruned + stats.keogh_eq_pruned + stats.keogh_ec_pruned;
        assert!(
            pruned > stats.candidates / 2,
            "cascade should remove most candidates: {stats:?}"
        );
        assert!(stats.prune_rate() > 0.5);
    }

    #[test]
    fn rolling_moments_match_batch() {
        let t = toy_series(64, 2);
        let m = 16;
        let mut rolling = RollingMoments::new(&t, m);
        for start in 0..=t.len() - m {
            let (mean, std) = rolling.moments(start);
            let (bm, bs) = onex_tseries::stats::mean_std(&t[start..start + m]);
            assert!((mean - bm).abs() < 1e-9, "start={start}");
            assert!((std - bs).abs() < 1e-9, "start={start}");
        }
        // Re-prime after a jump.
        let mut jumping = RollingMoments::new(&t, m);
        let (m0, _) = jumping.moments(0);
        let (m40, _) = jumping.moments(40);
        let (bm0, _) = onex_tseries::stats::mean_std(&t[0..m]);
        let (bm40, _) = onex_tseries::stats::mean_std(&t[40..40 + m]);
        assert!((m0 - bm0).abs() < 1e-9);
        assert!((m40 - bm40).abs() < 1e-9);
    }

    #[test]
    fn constant_regions_do_not_explode() {
        let mut t = vec![3.0; 100];
        t[60] = 4.0; // one blip so the query is not degenerate everywhere
        let q = vec![1.0, 2.0, 3.0, 2.0, 1.0, 0.0, 1.0, 2.0];
        let (hit, _) = ucr_dtw_search(&t, &q, &DtwSearchConfig::default()).unwrap();
        assert!(hit.distance.is_finite());
        let (ed_hit, _) = ucr_ed_search(&t, &q).unwrap();
        assert!(ed_hit.distance.is_finite());
    }

    #[test]
    fn dataset_search_picks_the_best_series() {
        use onex_tseries::TimeSeries;
        let mut target = toy_series(120, 21);
        let planted = toy_series(30, 55);
        target.splice(50..80, planted.iter().copied());
        let ds = Dataset::from_series(vec![
            TimeSeries::new("noise", toy_series(120, 77)),
            TimeSeries::new("target", target),
        ])
        .unwrap();
        let (hit, stats) =
            ucr_dtw_search_dataset(&ds, &planted, &DtwSearchConfig::default()).unwrap();
        assert_eq!(hit.series, 1);
        assert_eq!(hit.start, 50);
        assert!(hit.distance < 1e-9);
        assert!(stats.candidates > 0);
    }

    #[test]
    fn seeded_search_semantics() {
        let t = toy_series(200, 4);
        let q = toy_series(20, 61);
        let (free, _) = ucr_dtw_search(&t, &q, &DtwSearchConfig::default()).unwrap();
        // Seed below the best distance: nothing beats it → None.
        let mut stats = SearchStats::default();
        let tight = (free.distance * 0.5).powi(2);
        assert!(
            ucr_dtw_search_with_bsf(&t, &q, &DtwSearchConfig::default(), tight, &mut stats)
                .is_none()
        );
        // Seed above: same hit as the unseeded search.
        let mut stats2 = SearchStats::default();
        let loose = (free.distance * 2.0).powi(2) + 1.0;
        let hit = ucr_dtw_search_with_bsf(&t, &q, &DtwSearchConfig::default(), loose, &mut stats2)
            .unwrap();
        assert_eq!(hit.start, free.start);
        assert!((hit.distance - free.distance).abs() < 1e-12);
        // Tighter seeds prune at least as hard.
        assert!(stats.dtw_runs <= stats2.dtw_runs);
    }

    #[test]
    fn dataset_shared_bsf_matches_independent_searches() {
        use onex_tseries::TimeSeries;
        let ds = Dataset::from_series(vec![
            TimeSeries::new("s0", toy_series(150, 31)),
            TimeSeries::new("s1", toy_series(150, 32)),
            TimeSeries::new("s2", toy_series(150, 33)),
        ])
        .unwrap();
        let q = toy_series(24, 91);
        let cfg = DtwSearchConfig::default();
        let (shared, _) = ucr_dtw_search_dataset(&ds, &q, &cfg).unwrap();
        // Reference: best over independent per-series searches.
        let mut best: Option<Hit> = None;
        for (sid, s) in ds.iter() {
            if let Some((h, _)) = ucr_dtw_search(s.values(), &q, &cfg) {
                if best.is_none_or(|b| h.distance < b.distance) {
                    best = Some(Hit { series: sid, ..h });
                }
            }
        }
        let best = best.unwrap();
        // The toy series embed bit-identical windows in several series, so
        // ties can break differently; the distances must agree exactly up
        // to rounding, and the shared hit must be one of the optima.
        assert!((shared.distance - best.distance).abs() < 1e-9);
        let (indep_hit, _) =
            ucr_dtw_search(ds.series(shared.series).unwrap().values(), &q, &cfg).unwrap();
        assert_eq!(
            indep_hit.start, shared.start,
            "shared hit is that series' optimum"
        );
    }

    #[test]
    fn topk_matches_brute_force_ranking() {
        use onex_tseries::TimeSeries;
        let ds = Dataset::from_series(vec![
            TimeSeries::new("s0", toy_series(140, 41)),
            TimeSeries::new("s1", toy_series(140, 42)),
        ])
        .unwrap();
        let q = toy_series(20, 71);
        let cfg = DtwSearchConfig { band_fraction: 0.1 };
        let k = 5;
        let (hits, stats) = ucr_dtw_search_dataset_topk(&ds, &q, &cfg, k);
        assert_eq!(hits.len(), k);
        assert!(stats.candidates > 0);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance + 1e-12);
        }
        // Distinct windows.
        let set: std::collections::HashSet<(u32, usize)> =
            hits.iter().map(|h| (h.series, h.start)).collect();
        assert_eq!(set.len(), k);
        // Brute-force reference: every (series, start) window scored.
        let radius = (0.1f64 * q.len() as f64).ceil() as usize;
        let qz = znorm(&q);
        let mut all: Vec<(f64, u32, usize)> = Vec::new();
        for (sid, s) in ds.iter() {
            let t = s.values();
            for start in 0..=t.len() - q.len() {
                let cz = znorm(&t[start..start + q.len()]);
                all.push((dtw(&qz, &cz, Band::SakoeChiba(radius)), sid, start));
            }
        }
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (hit, want) in hits.iter().zip(&all) {
            assert!(
                (hit.distance - want.0).abs() < 1e-9,
                "topk {} vs brute {}",
                hit.distance,
                want.0
            );
        }
        // k = 1 agrees with the dedicated best-match search.
        let (best, _) = ucr_dtw_search_dataset(&ds, &q, &cfg).unwrap();
        let (top1, _) = ucr_dtw_search_dataset_topk(&ds, &q, &cfg, 1);
        assert!((top1[0].distance - best.distance).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(
            ucr_dtw_search(&[1.0, 2.0], &[1.0, 2.0, 3.0], &DtwSearchConfig::default()).is_none()
        );
        assert!(ucr_dtw_search(&[1.0, 2.0], &[], &DtwSearchConfig::default()).is_none());
        assert!(ucr_ed_search(&[], &[1.0]).is_none());
        // Query length == series length: exactly one candidate.
        let t = toy_series(16, 9);
        let (hit, stats) = ucr_dtw_search(&t, &t.clone(), &DtwSearchConfig::default()).unwrap();
        assert_eq!(stats.candidates, 1);
        assert!(hit.distance < 1e-9);
    }
}
