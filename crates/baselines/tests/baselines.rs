//! Cross-system agreement tests: the ONEX engine, the exhaustive scanner
//! and the UCR Suite must tell consistent stories on data with a planted
//! ground truth.

use onex_baselines::ucrsuite::{ucr_dtw_search, ucr_ed_search, DtwSearchConfig};
use onex_core::{exhaustive, Onex, QueryOptions};
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_tseries::gen::{planted_motif_series, random_walk};
use onex_tseries::{Dataset, TimeSeries};

/// Two series, each with the same motif planted once, plus a decoy series.
fn planted_collection() -> (Dataset, Vec<f64>, Vec<(u32, usize)>) {
    let (s1, motif, p1) = planted_motif_series(300, 24, 1, 0.1, 5);
    let (s2, _, p2) = planted_motif_series(300, 24, 1, 0.1, 6);
    let decoy = random_walk(300, 1.0, 7);
    let ds = Dataset::from_series(vec![
        TimeSeries::new("a", s1),
        TimeSeries::new("b", s2),
        TimeSeries::new("decoy", decoy),
    ])
    .unwrap();
    let locations = vec![(0u32, p1[0]), (1u32, p2[0])];
    (ds, motif, locations)
}

#[test]
fn engine_finds_a_planted_motif() {
    let (ds, motif, locations) = planted_collection();
    let cfg = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 24, 24)
    };
    let (engine, _) = Onex::build(ds, cfg).unwrap();
    let (m, _) = engine.best_match(&motif, &QueryOptions::default()).unwrap();
    let m = m.unwrap();
    let hit = locations.iter().any(|&(sid, pos)| {
        m.subseq.series == sid && (m.subseq.start as i64 - pos as i64).abs() <= 2
    });
    assert!(
        hit,
        "engine match {:?} not at a planted site {locations:?}",
        m.subseq
    );
}

#[test]
fn engine_equals_exhaustive_on_planted_data() {
    let (ds, motif, _) = planted_collection();
    let cfg = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 24, 24)
    };
    let (engine, _) = Onex::build(ds.clone(), cfg).unwrap();
    let opts = QueryOptions::default();
    let (m, _) = engine.best_match(&motif, &opts).unwrap();
    let truth = exhaustive::scan_best(&ds, &motif, &[24], 1, &opts, true)
        .unwrap()
        .unwrap();
    assert!((m.unwrap().distance - truth.distance).abs() < 1e-9);
}

#[test]
fn ucr_suite_finds_planted_motifs_too() {
    // UCR works z-normalised, but the motif dwarfs the noise floor, so
    // the z-normalised best window still sits at a planted location.
    let (ds, motif, locations) = planted_collection();
    for &(sid, pos) in &locations {
        let series = ds.series(sid).unwrap().values();
        let (hit, stats) = ucr_dtw_search(series, &motif, &DtwSearchConfig::default()).unwrap();
        assert!(
            (hit.start as i64 - pos as i64).abs() <= 2,
            "series {sid}: ucr found {} expected ~{pos}",
            hit.start
        );
        assert!(stats.candidates > 0);
        let (ed_hit, _) = ucr_ed_search(series, &motif).unwrap();
        assert!((ed_hit.start as i64 - pos as i64).abs() <= 2);
    }
}

#[test]
fn scans_and_engine_agree_under_banded_dtw() {
    let (ds, motif, _) = planted_collection();
    let cfg = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 24, 24)
    };
    let (engine, _) = Onex::build(ds.clone(), cfg).unwrap();
    let opts = QueryOptions::with_band(onex_distance::Band::SakoeChiba(2));
    let (m, _) = engine.best_match(&motif, &opts).unwrap();
    let truth = exhaustive::scan_best(&ds, &motif, &[24], 1, &opts, true)
        .unwrap()
        .unwrap();
    assert!((m.unwrap().distance - truth.distance).abs() < 1e-9);
}

#[test]
fn k_best_covers_both_planted_sites() {
    let (ds, motif, locations) = planted_collection();
    let cfg = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 24, 24)
    };
    let (engine, _) = Onex::build(ds, cfg).unwrap();
    // Ask for enough neighbours to cover shifted duplicates around each
    // planted site plus both sites.
    let (matches, _) = engine.k_best(&motif, 10, &QueryOptions::default()).unwrap();
    for &(sid, pos) in &locations {
        let covered = matches
            .iter()
            .any(|m| m.subseq.series == sid && (m.subseq.start as i64 - pos as i64).abs() <= 3);
        assert!(covered, "site ({sid},{pos}) missing from top-10");
    }
}

// ---------------------------------------------------------------------
// The four reference baselines (paper refs [1], [3], [4], [7]) must tell
// the same story as the engine and each other on planted ground truth.
// ---------------------------------------------------------------------

use onex_baselines::embedding::{EbsmConfig, EbsmIndex};
use onex_baselines::frm::{StConfig, StIndex};
use onex_baselines::iddtw::IddtwModel;
use onex_baselines::spring::{spring_best_match, spring_search};
use onex_distance::{dtw, Band};

#[test]
fn spring_finds_planted_motifs_in_a_stream() {
    let (stream, motif, plants) = planted_motif_series(400, 24, 3, 0.05, 11);
    let hits = spring_search(&stream, &motif, 1.0).unwrap();
    // Every planted site must be covered by some reported match.
    for &p in &plants {
        let covered = hits.iter().any(|h| h.start <= p + 2 && p + 21 <= h.end + 2);
        assert!(covered, "plant at {p} missed; hits {hits:?}");
    }
}

#[test]
fn spring_best_match_agrees_with_engine_on_shared_semantics() {
    // Fixed-length raw-DTW best match: the engine in exact mode restricted
    // to one series must never beat SPRING's variable-length optimum, and
    // SPRING's optimum must never be worse than the engine's fixed-length
    // answer.
    let (s1, motif, _) = planted_motif_series(250, 24, 1, 0.1, 21);
    let ds = Dataset::from_series(vec![TimeSeries::new("a", s1.clone())]).unwrap();
    let cfg = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 24, 24)
    };
    let (engine, _) = Onex::build(ds, cfg).unwrap();
    let (m, _) = engine.best_match(&motif, &QueryOptions::default()).unwrap();
    let m = m.unwrap();
    let spring = spring_best_match(&s1, &motif).unwrap();
    assert!(
        spring.dist <= m.distance + 1e-9,
        "variable-length optimum {} above fixed-length {}",
        spring.dist,
        m.distance
    );
}

#[test]
fn frm_best_window_equals_raw_ed_scan() {
    let (s1, motif, _) = planted_motif_series(300, 32, 2, 0.08, 31);
    let (s2, _, _) = planted_motif_series(300, 32, 1, 0.08, 32);
    let series = vec![s1, s2];
    let idx = StIndex::<4>::build(
        series.clone(),
        StConfig {
            window: 32,
            subtrail_max: 24,
            cost_scale: 1.0,
        },
    );
    let (best, _) = idx.best_match(&motif).unwrap();
    // Brute-force raw ED.
    let mut want = f64::INFINITY;
    for s in &series {
        for start in 0..=s.len() - 32 {
            let d: f64 = s[start..start + 32]
                .iter()
                .zip(&motif)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            want = want.min(d);
        }
    }
    assert!(
        (best.dist - want).abs() < 1e-9,
        "frm {} scan {}",
        best.dist,
        want
    );
}

#[test]
fn ebsm_with_generous_budget_matches_spring_ground_truth() {
    let (s1, motif, _) = planted_motif_series(200, 24, 2, 0.1, 41);
    let (s2, _, _) = planted_motif_series(200, 24, 1, 0.1, 42);
    let series = vec![s1, s2];
    let idx = EbsmIndex::build(
        series.clone(),
        EbsmConfig {
            references: 8,
            ref_len: 24,
            candidates: 10_000,
            refine_factor: 4,
            seed: 5,
        },
    );
    let (hit, _) = idx.best_match(&motif).unwrap();
    let exact = series
        .iter()
        .filter_map(|s| spring_best_match(s, &motif))
        .map(|m| m.dist)
        .fold(f64::INFINITY, f64::min);
    assert!(
        (hit.dist - exact).abs() < 1e-9,
        "ebsm {} exact {}",
        hit.dist,
        exact
    );
}

#[test]
fn iddtw_ranks_planted_window_first() {
    // Candidates: windows of a planted series; the window at the planted
    // site must win, and IDDTW must agree with brute force.
    let (s1, motif, plants) = planted_motif_series(300, 24, 1, 0.05, 51);
    let windows: Vec<Vec<f64>> = (0..s1.len() - 24)
        .step_by(6)
        .map(|i| s1[i..i + 24].to_vec())
        .collect();
    let pairs: Vec<(Vec<f64>, Vec<f64>)> =
        windows.iter().map(|w| (motif.clone(), w.clone())).collect();
    let model = IddtwModel::train(&pairs, &[4, 12], 1.0, Band::Full);
    let (gi, gd, stats) = model
        .nearest(&motif, windows.iter().map(|v| v.as_slice()))
        .unwrap();
    let mut want = (0usize, f64::INFINITY);
    for (i, w) in windows.iter().enumerate() {
        let d = dtw(&motif, w, Band::Full);
        if d < want.1 {
            want = (i, d);
        }
    }
    assert!((gd - want.1).abs() < 1e-9, "iddtw {} brute {}", gd, want.1);
    assert_eq!(gi, want.0);
    // The winner should sit near the planted site.
    let win_start = gi * 6;
    assert!(
        (win_start as i64 - plants[0] as i64).abs() <= 6,
        "winner at {win_start}, plant at {}",
        plants[0]
    );
    // And the coarse filter should have done real work.
    let abandoned: usize = stats.abandoned_per_level.iter().sum();
    assert!(abandoned > 0, "no coarse abandonment: {stats:?}");
}
