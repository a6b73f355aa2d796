//! Property tests for the comparison systems: every baseline must keep
//! its own exactness guarantee on arbitrary inputs.
//!
//! * FRM: the R-tree answers exactly like a linear scan, the DFT filter
//!   never dismisses a true match, and the whole index agrees with brute
//!   force.
//! * UCR Suite: agrees with an unoptimised z-normalised scan on every
//!   input — the whole cascade is pure pruning, never approximation.
//! * EBSM: the embedding sweep agrees with DTW definitions, and full
//!   refinement recovers the exact optimum.
//! * SPRING: the streaming monitor agrees with a brute-force
//!   subsequence-DTW scan, and its reports are disjoint and faithful.
//! * PAA / IDDTW: the coarse representations meet the exact ones at full
//!   resolution.

use onex_baselines::embedding::{end_costs, EbsmConfig, EbsmIndex};
use onex_baselines::frm::{dft_features, feature_dist_sq, FrmHit, RTree, Rect, StConfig, StIndex};
use onex_baselines::iddtw::IddtwModel;
use onex_baselines::paa::{dtw_paa, paa};
use onex_baselines::spring::{spring_best_match, spring_search, SpringMonitor};
use onex_baselines::ucrsuite::{ucr_dtw_search, ucr_ed_search, DtwSearchConfig};
use onex_distance::{dtw, Band};
use onex_tseries::normalize::znorm;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// FRM / ST-index
// ---------------------------------------------------------------------

fn rects(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<([f64; 2], [f64; 2])>> {
    prop::collection::vec(
        (-50.0f64..50.0, -50.0f64..50.0, 0.0f64..10.0, 0.0f64..10.0)
            .prop_map(|(x, y, w, h)| ([x, y], [x + w, y + h])),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bulk inserts keep every Guttman invariant.
    #[test]
    fn rtree_invariants_hold(rs in rects(0..120)) {
        let mut t = RTree::<2>::new();
        for (i, (min, max)) in rs.iter().enumerate() {
            t.insert(Rect { min: *min, max: *max }, i as u64);
        }
        prop_assert_eq!(t.len(), rs.len());
        prop_assert!(t.check_invariants().is_ok(),
            "{:?}", t.check_invariants());
    }

    /// Intersection search equals a linear scan, for arbitrary data and
    /// query rectangles.
    #[test]
    fn rtree_search_equals_scan(
        rs in rects(0..100),
        q in rects(1..2),
    ) {
        let mut t = RTree::<2>::new();
        for (i, (min, max)) in rs.iter().enumerate() {
            t.insert(Rect { min: *min, max: *max }, i as u64);
        }
        let query = Rect { min: q[0].0, max: q[0].1 };
        let mut got = t.search_intersecting(&query);
        got.sort_unstable();
        let mut want: Vec<u64> = rs
            .iter()
            .enumerate()
            .filter(|(_, (min, max))| Rect { min: *min, max: *max }.intersects(&query))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Ball search (MINDIST) equals a linear scan.
    #[test]
    fn rtree_ball_search_equals_scan(
        rs in rects(0..100),
        px in -60.0f64..60.0,
        py in -60.0f64..60.0,
        radius in 0.0f64..30.0,
    ) {
        let mut t = RTree::<2>::new();
        for (i, (min, max)) in rs.iter().enumerate() {
            t.insert(Rect { min: *min, max: *max }, i as u64);
        }
        let mut got = t.search_within(&[px, py], radius);
        got.sort_unstable();
        let mut want: Vec<u64> = rs
            .iter()
            .enumerate()
            .filter(|(_, (min, max))| {
                Rect { min: *min, max: *max }.mindist_sq(&[px, py]) <= radius * radius
            })
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The DFT feature distance never exceeds the true window distance
    /// (the contraction that makes FRM exact).
    #[test]
    fn dft_features_are_contractive(
        a in prop::collection::vec(-10.0f64..10.0, 8..32),
        b_delta in prop::collection::vec(-10.0f64..10.0, 8..32),
        fc in 1usize..4,
    ) {
        let n = a.len().min(b_delta.len());
        if 2 * fc > n {
            return Ok(());
        }
        let a = &a[..n];
        let b: Vec<f64> = a.iter().zip(&b_delta[..n]).map(|(x, d)| x + d).collect();
        let fd = feature_dist_sq(&dft_features(a, fc), &dft_features(&b, fc));
        let td: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        prop_assert!(fd <= td + 1e-6 + td * 1e-9, "feature {fd} > true {td}");
    }

    /// End-to-end: the ST-index range query returns exactly the brute-
    /// force answer set (no false dismissals, all faithful distances).
    #[test]
    fn stindex_range_query_is_exact(
        seed_vals in prop::collection::vec(-3.0f64..3.0, 30..60),
        eps in 0.2f64..3.0,
        qoff in 0usize..20,
    ) {
        let series = vec![seed_vals.clone()];
        let w = 8;
        let idx = StIndex::<4>::build(series.clone(), StConfig {
            window: w,
            subtrail_max: 6,
            cost_scale: 0.5,
        });
        let qstart = qoff.min(seed_vals.len() - w);
        let query = seed_vals[qstart..qstart + w].to_vec();
        let (hits, stats) = idx.range_query(&query, eps);
        // Brute force over raw data.
        let mut want = Vec::new();
        for start in 0..=seed_vals.len() - w {
            let d: f64 = seed_vals[start..start + w]
                .iter()
                .zip(&query)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            if d <= eps {
                want.push((start, d));
            }
        }
        prop_assert_eq!(hits.len(), want.len(),
            "eps={} hits={:?} want={:?}", eps, hits, want);
        for (start, d) in want {
            let h = hits.iter().find(|h| h.start == start);
            prop_assert!(h.is_some(), "missing start {}", start);
            prop_assert!((h.unwrap().dist - d).abs() < 1e-9);
        }
        prop_assert!(stats.candidates >= stats.verified);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `best_match` via the incremental-NN traversal equals brute force,
    /// for queries of the window length and longer.
    #[test]
    fn stindex_best_match_is_exact(
        vals in prop::collection::vec(-3.0f64..3.0, 30..60),
        qoff in 0usize..40,
        qlen_extra in 0usize..6,
    ) {
        let w = 8;
        let series = vec![vals.clone()];
        let idx = StIndex::<4>::build(series, StConfig {
            window: w,
            subtrail_max: 6,
            cost_scale: 0.5,
        });
        let qlen = w + qlen_extra;
        let qstart = qoff.min(vals.len() - qlen);
        let query = vals[qstart..qstart + qlen].to_vec();
        let (best, _) = idx.best_match(&query).unwrap();
        let mut want = f64::INFINITY;
        for start in 0..=vals.len() - qlen {
            let d: f64 = vals[start..start + qlen]
                .iter()
                .zip(&query)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            want = want.min(d);
        }
        prop_assert!((best.dist - want).abs() < 1e-9,
            "nn {} brute {}", best.dist, want);
    }

    /// Bulk-loaded and incrementally built indexes answer identically.
    #[test]
    fn bulk_and_incremental_builds_agree(
        s0 in prop::collection::vec(-3.0f64..3.0, 20..50),
        s1 in prop::collection::vec(-3.0f64..3.0, 20..50),
        eps in 0.3f64..3.0,
    ) {
        let cfg = StConfig { window: 8, subtrail_max: 6, cost_scale: 0.5 };
        let batch = StIndex::<4>::build(vec![s0.clone(), s1.clone()], cfg);
        let mut inc = StIndex::<4>::build(Vec::new(), cfg);
        inc.push_series(s0.clone());
        inc.push_series(s1);
        let query = s0[..8].to_vec();
        let (mut h1, _) = batch.range_query(&query, eps);
        let (mut h2, _) = inc.range_query(&query, eps);
        let key = |h: &FrmHit| (h.series, h.start);
        h1.sort_by_key(key);
        h2.sort_by_key(key);
        prop_assert_eq!(h1, h2);
    }
}

// ---------------------------------------------------------------------
// UCR Suite
// ---------------------------------------------------------------------

fn brute_force_dtw(t: &[f64], q: &[f64], radius: usize) -> (usize, f64) {
    let m = q.len();
    let qz = znorm(q);
    let mut best = (0usize, f64::INFINITY);
    for start in 0..=t.len() - m {
        let cz = znorm(&t[start..start + m]);
        let d = dtw(&qz, &cz, Band::SakoeChiba(radius));
        if d < best.1 {
            best = (start, d);
        }
    }
    best
}

fn brute_force_ed(t: &[f64], q: &[f64]) -> f64 {
    let m = q.len();
    let qz = znorm(q);
    let mut best = f64::INFINITY;
    for start in 0..=t.len() - m {
        let cz = znorm(&t[start..start + m]);
        let d: f64 = qz
            .iter()
            .zip(&cz)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        best = best.min(d);
    }
    best
}

fn series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dtw_search_equals_brute_force(
        t in series(30..80),
        q in series(4..16),
        frac in 0.0f64..0.3,
    ) {
        let cfg = DtwSearchConfig { band_fraction: frac };
        let (hit, stats) = ucr_dtw_search(&t, &q, &cfg).expect("t longer than q");
        let radius = (frac * q.len() as f64).ceil() as usize;
        let (_, bf_dist) = brute_force_dtw(&t, &q, radius);
        prop_assert!(
            (hit.distance - bf_dist).abs() < 1e-7,
            "ucr {} vs brute {}", hit.distance, bf_dist
        );
        prop_assert_eq!(stats.candidates, t.len() - q.len() + 1);
    }

    #[test]
    fn ed_search_equals_brute_force(t in series(30..80), q in series(4..16)) {
        let (hit, _) = ucr_ed_search(&t, &q).expect("t longer than q");
        let bf = brute_force_ed(&t, &q);
        prop_assert!((hit.distance - bf).abs() < 1e-7, "{} vs {bf}", hit.distance);
    }

    #[test]
    fn pruning_counters_are_consistent(t in series(40..100), q in series(6..14)) {
        let (_, stats) = ucr_dtw_search(&t, &q, &DtwSearchConfig::default()).unwrap();
        let accounted = stats.kim_pruned
            + stats.keogh_eq_pruned
            + stats.keogh_ec_pruned
            + stats.dtw_runs;
        prop_assert_eq!(accounted, stats.candidates, "every candidate ends somewhere");
        prop_assert!(stats.dtw_abandoned <= stats.dtw_runs);
        prop_assert!((0.0..=1.0).contains(&stats.prune_rate()));
    }
}

// ---------------------------------------------------------------------
// EBSM
// ---------------------------------------------------------------------

fn vals(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-4.0f64..4.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `end_costs` is the min over all starting positions of whole-window
    /// DTW ending at each t.
    #[test]
    fn end_costs_match_definition(
        stream in vals(1..14),
        pattern in vals(1..5),
    ) {
        let costs = end_costs(&stream, &pattern);
        prop_assert_eq!(costs.len(), stream.len());
        for (t, &c) in costs.iter().enumerate() {
            let want = (0..=t)
                .map(|s| dtw(&stream[s..=t], &pattern, Band::Full))
                .fold(f64::INFINITY, f64::min);
            prop_assert!((c - want).abs() < 1e-9, "t={}: {} vs {}", t, c, want);
        }
    }

    /// With the candidate list covering every position and a generous
    /// refinement window, EBSM recovers the exact subsequence-DTW optimum.
    #[test]
    fn exhaustive_refinement_is_exact(
        s0 in vals(10..40),
        s1 in vals(10..40),
        qlen in 3usize..8,
        qpick in 0usize..100,
    ) {
        let db = vec![s0.clone(), s1.clone()];
        let src = if qpick % 2 == 0 { &s0 } else { &s1 };
        let qstart = (qpick / 2) % (src.len() - qlen + 1).max(1);
        let query = src[qstart.min(src.len() - qlen)..][..qlen].to_vec();
        let idx = EbsmIndex::build(db.clone(), EbsmConfig {
            references: 4,
            ref_len: 6,
            candidates: 10_000,
            refine_factor: 8,
            seed: 7,
        });
        let (hit, _) = idx.best_match(&query).unwrap();
        let exact = db
            .iter()
            .filter_map(|s| spring_best_match(s, &query))
            .map(|m| m.dist)
            .fold(f64::INFINITY, f64::min);
        prop_assert!((hit.dist - exact).abs() < 1e-9,
            "ebsm {} exact {}", hit.dist, exact);
    }

    /// The reported hit's distance is always the real DTW of the reported
    /// range, whatever the parameters.
    #[test]
    fn hits_are_faithful(
        s0 in vals(12..40),
        query in vals(3..7),
        candidates in 1usize..12,
        refine_factor in 1usize..4,
    ) {
        let idx = EbsmIndex::build(vec![s0.clone()], EbsmConfig {
            references: 3,
            ref_len: 5,
            candidates,
            refine_factor,
            seed: 11,
        });
        if let Some((hit, stats)) = idx.best_match(&query) {
            let real = dtw(&s0[hit.start..=hit.end], &query, Band::Full);
            prop_assert!((real - hit.dist).abs() < 1e-9);
            prop_assert!(stats.refined <= candidates);
        }
    }
}

// ---------------------------------------------------------------------
// SPRING
// ---------------------------------------------------------------------

/// Brute-force optimal subsequence DTW over all (start, end) windows.
fn brute_best(stream: &[f64], query: &[f64]) -> (usize, usize, f64) {
    let mut best = (0, 0, f64::INFINITY);
    for s in 0..stream.len() {
        for e in s..stream.len() {
            let d = dtw(&stream[s..=e], query, Band::Full);
            if d < best.2 {
                best = (s, e, d);
            }
        }
    }
    best
}

fn small_values(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming best match equals the brute-force optimum (distance
    /// always; location whenever the optimum is unique enough to compare).
    #[test]
    fn best_match_distance_matches_brute_force(
        stream in small_values(1..18),
        query in small_values(1..6),
    ) {
        let got = spring_best_match(&stream, &query).unwrap();
        let (_, _, bd) = brute_best(&stream, &query);
        prop_assert!((got.dist - bd).abs() < 1e-9,
            "spring {} brute {}", got.dist, bd);
        // The reported range must actually achieve the reported distance.
        let real = dtw(&stream[got.start..=got.end], &query, Band::Full);
        prop_assert!((real - got.dist).abs() < 1e-9);
    }

    /// Every reported match is within threshold and reports are pairwise
    /// disjoint. Distances are valid warping-path costs of the reported
    /// range — so never *below* the true DTW — and the first report
    /// (computed before any cell invalidation) is exactly the true DTW.
    #[test]
    fn thresholded_reports_are_faithful_and_disjoint(
        stream in small_values(1..24),
        query in small_values(1..5),
        eps in 0.1f64..4.0,
    ) {
        let hits = spring_search(&stream, &query, eps).unwrap();
        for (i, h) in hits.iter().enumerate() {
            prop_assert!(h.dist <= eps + 1e-12);
            let real = dtw(&stream[h.start..=h.end], &query, Band::Full);
            // Reported cost is achieved by an admissible path, hence an
            // upper bound of the true DTW; after an earlier report the
            // surviving paths exclude the reported region (the paper's
            // cell-invalidation), so it may sit strictly above.
            prop_assert!(real <= h.dist + 1e-9,
                "reported {} below true DTW {}", h.dist, real);
            if i == 0 {
                prop_assert!((real - h.dist).abs() < 1e-9,
                    "first report {} should be exact, true {}", h.dist, real);
            }
        }
        for i in 1..hits.len() {
            prop_assert!(hits[i - 1].end < hits[i].start,
                "overlap: {:?} then {:?}", hits[i - 1], hits[i]);
        }
    }

    /// If the brute-force optimum is within the threshold, SPRING reports
    /// at least one match at (or below, for an overlapping better) that
    /// distance.
    #[test]
    fn no_false_dismissal_of_the_optimum(
        stream in small_values(2..16),
        query in small_values(1..5),
    ) {
        let (_, _, bd) = brute_best(&stream, &query);
        // Pick a threshold safely above the optimum.
        let eps = bd + 0.5;
        let hits = spring_search(&stream, &query, eps).unwrap();
        prop_assert!(!hits.is_empty());
        let best_reported = hits.iter().map(|h| h.dist).fold(f64::INFINITY, f64::min);
        prop_assert!(best_reported <= bd + 1e-9,
            "best reported {} vs optimum {}", best_reported, bd);
    }

    /// Incremental pushes and batch search agree exactly.
    #[test]
    fn streaming_equals_batch(
        stream in small_values(0..20),
        query in small_values(1..5),
        eps in 0.1f64..3.0,
    ) {
        let batch = spring_search(&stream, &query, eps).unwrap();
        let mut mon = SpringMonitor::new(&query, eps).unwrap();
        let mut inc = Vec::new();
        for &x in &stream {
            inc.extend(mon.push(x));
        }
        inc.extend(mon.finish());
        prop_assert_eq!(batch, inc);
    }
}

// ---------------------------------------------------------------------
// PAA / iterative-deepening DTW (paper reference [3])
// ---------------------------------------------------------------------

const EPS: f64 = 1e-7;

fn points(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 1..=max_len)
}

fn equal_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-100.0f64..100.0, n),
            prop::collection::vec(-100.0f64..100.0, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// PAA at full resolution is the identity; at one segment, the mean.
    #[test]
    fn paa_endpoints(x in points(24)) {
        let full = paa(&x, x.len());
        for (a, b) in full.iter().zip(&x) {
            prop_assert!((a - b).abs() < EPS);
        }
        let one = paa(&x, 1);
        let mean: f64 = x.iter().sum::<f64>() / x.len() as f64;
        prop_assert!((one[0] - mean).abs() < EPS);
    }

    /// Every PAA value lies within the min/max of the points it covers —
    /// segment means cannot escape the data range.
    #[test]
    fn paa_values_within_range(x in points(32), s in 1usize..8) {
        let s = s.min(x.len());
        let p = paa(&x, s);
        let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in p {
            prop_assert!(v >= lo - EPS && v <= hi + EPS);
        }
    }

    /// Coarse DTW at full resolution equals exact DTW.
    #[test]
    fn dtw_paa_full_resolution_exact((x, y) in equal_pair(16)) {
        let exact = dtw(&x, &y, Band::Full);
        let coarse = dtw_paa(&x, &y, x.len().max(y.len()), Band::Full);
        prop_assert!((exact - coarse).abs() < EPS, "{exact} vs {coarse}");
    }

    /// IDDTW with quantile 1.0, trained on the exact (query, candidate)
    /// pairs it will search, always returns the brute-force nearest
    /// neighbour's distance.
    #[test]
    fn iddtw_exact_when_fully_trained(
        q in prop::collection::vec(-10.0f64..10.0, 8..20),
        cands in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 8..20), 2..8),
    ) {
        let pairs: Vec<(Vec<f64>, Vec<f64>)> =
            cands.iter().map(|c| (q.clone(), c.clone())).collect();
        let model = IddtwModel::train(&pairs, &[2, 4], 1.0, Band::Full);
        let (_, got, _) = model
            .nearest(&q, cands.iter().map(|v| v.as_slice()))
            .unwrap();
        let want = cands
            .iter()
            .map(|c| dtw(&q, c, Band::Full))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((got - want).abs() < EPS, "iddtw {got} brute {want}");
    }
}
