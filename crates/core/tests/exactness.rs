//! The load-bearing correctness claim of the engine: under the `Seed`
//! representative policy (certified group radii), the two-phase group
//! search returns *exactly* the same best match as a brute-force scan of
//! the indexed subsequence space — all pruning layers are sound.
//!
//! Under the paper's `Centroid` policy the result is allowed to deviate
//! (that is the accuracy/compaction trade-off experiment E6/E9 measures),
//! but the deviation must stay small on benign data; the second half of
//! this file pins that.

use onex_core::{exhaustive, LengthSelection, Onex, QueryOptions};
use onex_distance::Band;
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_tseries::gen::{
    clustered_dataset, random_walk_dataset, sine_mix_dataset, SyntheticConfig,
};
use onex_tseries::{Dataset, SubseqRef, TimeSeries};
use proptest::prelude::*;

fn engine(
    ds: &Dataset,
    st: f64,
    min_len: usize,
    max_len: usize,
    policy: RepresentativePolicy,
) -> Onex {
    let cfg = BaseConfig {
        policy,
        ..BaseConfig::new(st, min_len, max_len)
    };
    let (e, _) = Onex::build(ds.clone(), cfg).unwrap();
    e
}

fn all_lengths(e: &Onex) -> Vec<usize> {
    e.base().lengths().collect()
}

#[test]
fn seed_policy_matches_brute_force_on_walks() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 8,
        len: 48,
        seed: 17,
    });
    let e = engine(&ds, 1.0, 8, 16, RepresentativePolicy::Seed);
    let opts = QueryOptions::default();
    // Queries cut from the data at several lengths and offsets.
    for (sid, start, len) in [(0u32, 3usize, 8usize), (2, 10, 12), (5, 0, 16), (7, 20, 10)] {
        let query = ds
            .series(sid)
            .unwrap()
            .subsequence(start, len)
            .unwrap()
            .to_vec();
        let (m, _) = e.best_match(&query, &opts).unwrap();
        let m = m.expect("match exists");
        let truth = exhaustive::scan_best(&ds, &query, &[len], 1, &opts, true)
            .unwrap()
            .expect("scan finds something");
        assert!(
            (m.distance - truth.distance).abs() < 1e-9,
            "q=({sid},{start},{len}): engine {} vs truth {} ({:?} vs {:?})",
            m.distance,
            truth.distance,
            m.subseq,
            truth.subseq
        );
    }
}

#[test]
fn seed_policy_matches_brute_force_across_lengths() {
    let ds = sine_mix_dataset(
        SyntheticConfig {
            series: 6,
            len: 40,
            seed: 23,
        },
        3,
        0.3,
    );
    let e = engine(&ds, 0.8, 6, 12, RepresentativePolicy::Seed);
    let lengths = all_lengths(&e);
    let opts = QueryOptions::default().lengths(LengthSelection::Range(6, 12));
    let query = ds.series(1).unwrap().subsequence(5, 9).unwrap().to_vec();
    let (m, _) = e.best_match(&query, &opts).unwrap();
    let m = m.expect("match exists");
    let truth = exhaustive::scan_best(&ds, &query, &lengths, 1, &opts, true)
        .unwrap()
        .unwrap();
    assert!(
        (m.normalized - truth.normalized).abs() < 1e-9,
        "engine {} vs truth {}",
        m.normalized,
        truth.normalized
    );
}

#[test]
fn seed_policy_k_best_matches_brute_force() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 6,
        len: 40,
        seed: 29,
    });
    let e = engine(&ds, 1.2, 10, 10, RepresentativePolicy::Seed);
    let opts = QueryOptions::default();
    let query = ds.series(3).unwrap().subsequence(12, 10).unwrap().to_vec();
    let k = 7;
    let (matches, _) = e.k_best(&query, k, &opts).unwrap();
    let truth = exhaustive::scan_k(&ds, &query, &[10], 1, &opts, k, true).unwrap();
    assert_eq!(matches.len(), truth.len());
    for (m, t) in matches.iter().zip(&truth) {
        assert!(
            (m.distance - t.distance).abs() < 1e-9,
            "k-best distances diverge: {} vs {}",
            m.distance,
            t.distance
        );
    }
}

#[test]
fn pruning_toggles_do_not_change_results_under_seed() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 5,
        len: 36,
        seed: 31,
    });
    let e = engine(&ds, 1.0, 8, 12, RepresentativePolicy::Seed);
    let query = ds.series(0).unwrap().subsequence(7, 10).unwrap().to_vec();
    let with = QueryOptions::default();
    let without = QueryOptions::default().without_pruning();
    let (m1, s1) = e.best_match(&query, &with).unwrap();
    let (m2, s2) = e.best_match(&query, &without).unwrap();
    let (m1, m2) = (m1.unwrap(), m2.unwrap());
    assert!((m1.distance - m2.distance).abs() < 1e-9);
    assert!(
        s1.members_examined <= s2.members_examined,
        "pruning may only reduce work: {} vs {}",
        s1.members_examined,
        s2.members_examined
    );
}

#[test]
fn banded_queries_are_also_exact_under_seed() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 6,
        len: 40,
        seed: 37,
    });
    let e = engine(&ds, 1.0, 10, 10, RepresentativePolicy::Seed);
    let query = ds.series(2).unwrap().subsequence(4, 10).unwrap().to_vec();
    for band in [Band::SakoeChiba(1), Band::SakoeChiba(3)] {
        let opts = QueryOptions::with_band(band);
        let (m, _) = e.best_match(&query, &opts).unwrap();
        let truth = exhaustive::scan_best(&ds, &query, &[10], 1, &opts, true)
            .unwrap()
            .unwrap();
        assert!(
            (m.unwrap().distance - truth.distance).abs() < 1e-9,
            "band {band:?}"
        );
    }
}

#[test]
fn k_best_is_exact_across_lengths_and_bands() {
    // The member cascade (L0, LB_Kim, LB_Keogh) and the phase-1 ranking
    // run at every candidate length, so the top-k must equal the scan's
    // whatever the band and however far the lengths are from the query's.
    // Clustered shapes compact into a few large groups, so group pruning
    // cannot answer alone and candidates reach the member tiers.
    let ds = clustered_dataset(
        SyntheticConfig {
            series: 12,
            len: 64,
            seed: 43,
        },
        4,
        0.08,
    );
    let e = engine(&ds, 1.0, 8, 14, RepresentativePolicy::Seed);
    let k = 5;
    // An 11-point query inside the indexed lengths, and a 17-point one
    // whose three nearest lengths (14, 13, 12) are all shorter than it.
    let inside = ds.series(2).unwrap().subsequence(9, 11).unwrap().to_vec();
    let beyond = ds.series(4).unwrap().subsequence(20, 17).unwrap().to_vec();
    let cases = [
        (&inside, LengthSelection::Range(8, 14)),
        (&inside, LengthSelection::Nearest(3)),
        (&beyond, LengthSelection::Nearest(3)),
    ];
    for band in [
        Band::Full,
        Band::SakoeChiba(1),
        Band::SakoeChiba(3),
        Band::Itakura,
    ] {
        for (query, selection) in &cases {
            let opts = QueryOptions::with_band(band).lengths(selection.clone());
            let lengths = match *selection {
                LengthSelection::Nearest(c) => e.base().nearest_lengths(query.len(), c),
                _ => all_lengths(&e),
            };
            let (matches, stats) = e.k_best(query, k, &opts).unwrap();
            let truth = exhaustive::scan_k(&ds, query, &lengths, 1, &opts, k, true).unwrap();
            assert_eq!(matches.len(), truth.len(), "{band:?} {selection:?}");
            for (m, t) in matches.iter().zip(&truth) {
                assert!(
                    (m.normalized - t.normalized).abs() < 1e-9,
                    "{band:?} {selection:?} |q|={}: engine {} vs truth {}",
                    query.len(),
                    m.normalized,
                    t.normalized
                );
            }
            if query.len() == beyond.len() {
                assert!(!lengths.contains(&query.len()));
                assert!(
                    stats.members_l0_pruned > 0,
                    "{band:?}: L0 must fire at lengths other than the query's: {stats:?}"
                );
            }
        }
    }
}

/// Length of every window of [`block_edge_collection`].
const BLOCK_LEN: usize = 12;

/// A collection whose length-12 groups have cardinalities 1, 3, 4, 5, 63,
/// 64, 65 and 130 — both tails of the 4-slot L0 step, both sides of the
/// 64-slot block edge, a group of several blocks, and every short DTW
/// batch. Family `f` is a level `3·f` with ±0.2 of noise, so all of a
/// family's windows join its first one's group and no two families meet;
/// a series of `BLOCK_LEN + w − 1` points contributes `w` windows.
fn block_edge_collection() -> (Dataset, Vec<usize>) {
    let families: [&[usize]; 8] = [
        &[1],
        &[3],
        &[2, 2],
        &[2, 3],
        &[31, 32],
        &[60, 4],
        &[40, 25],
        &[50, 50, 30],
    ];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut noise = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 4001) as f64 / 10_000.0 - 0.2
    };
    let mut series = Vec::new();
    for (f, windows) in families.iter().enumerate() {
        for &w in *windows {
            let values = (0..BLOCK_LEN + w - 1)
                .map(|_| 3.0 * f as f64 + noise())
                .collect();
            series.push(TimeSeries::new(format!("f{f}-{}", series.len()), values));
        }
    }
    let cardinalities = families.iter().map(|w| w.iter().sum()).collect();
    (Dataset::from_series(series).unwrap(), cardinalities)
}

#[test]
fn block_scan_is_exact_at_every_block_edge_and_under_every_filter() {
    let (ds, cardinalities) = block_edge_collection();
    let e = engine(&ds, 1.0, BLOCK_LEN, BLOCK_LEN, RepresentativePolicy::Seed);
    let built: Vec<usize> = e
        .base()
        .groups_for_len(BLOCK_LEN)
        .iter()
        .map(|g| g.cardinality())
        .collect();
    assert_eq!(
        built, cardinalities,
        "the collection must group as designed"
    );

    // A near-miss of a window in the middle of the 130-member group.
    let own = 13u32;
    let mut query = ds
        .series(own)
        .unwrap()
        .subsequence(7, BLOCK_LEN)
        .unwrap()
        .to_vec();
    for (i, v) in query.iter_mut().enumerate() {
        *v += 0.05 * (i as f64 * 1.7).sin();
    }
    let windows = QueryOptions::default()
        .excluding_window(SubseqRef::new(own, 7, BLOCK_LEN as u32))
        .excluding_window(SubseqRef::new(10, 20, BLOCK_LEN as u32));
    let filters = [
        QueryOptions::default(),
        QueryOptions::default().excluding_series(Some(own)),
        QueryOptions::default().within_series(14),
        QueryOptions::default().within_series(9),
        windows,
    ];
    let k = 7;
    for opts in &filters {
        for opts in [
            opts.clone(),
            opts.clone().without_l0(),
            opts.clone().without_group_pruning(),
        ] {
            let (matches, stats) = e.k_best(&query, k, &opts).unwrap();
            let truth = exhaustive::scan_k(&ds, &query, &[BLOCK_LEN], 1, &opts, k, true).unwrap();
            assert_eq!(matches.len(), truth.len(), "{opts:?}");
            for (m, t) in matches.iter().zip(&truth) {
                assert_eq!(m.subseq, t.subseq, "{opts:?}");
                assert!((m.distance - t.distance).abs() < 1e-9, "{opts:?}");
            }
            if !opts.prune_groups {
                // Every group was scanned, so every admitted member was
                // dismissed by exactly one tier or started a DTW; a
                // filtered member is counted by none.
                let admitted = e
                    .base()
                    .groups_for_len(BLOCK_LEN)
                    .iter()
                    .flat_map(|g| g.members())
                    .filter(|m| {
                        opts.exclude_series != Some(m.series)
                            && opts.only_series.is_none_or(|only| only == m.series)
                            && !opts.exclude_windows.iter().any(|w| w.overlaps(m))
                    })
                    .count();
                assert_eq!(
                    stats.members_bound_pruned() + stats.members_examined,
                    admitted,
                    "{opts:?}: {stats:?}"
                );
                // (With fewer candidates than k the bound never turns
                // finite and no tier can fire.)
                assert!(
                    stats.members_l0_pruned > 0 || admitted <= k,
                    "L0 must fire: {stats:?}"
                );
            }
        }
    }
}

#[test]
fn centroid_policy_stays_close_to_truth() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 8,
        len: 48,
        seed: 41,
    });
    let e = engine(&ds, 1.0, 10, 14, RepresentativePolicy::Centroid);
    let opts = QueryOptions::default();
    let mut worst_ratio: f64 = 1.0;
    for (sid, start, len) in [(0u32, 5usize, 10usize), (3, 8, 12), (6, 0, 14)] {
        let query = ds
            .series(sid)
            .unwrap()
            .subsequence(start, len)
            .unwrap()
            .to_vec();
        let (m, _) = e.best_match(&query, &opts).unwrap();
        let truth = exhaustive::scan_best(&ds, &query, &[len], 1, &opts, true)
            .unwrap()
            .unwrap();
        let found = m.unwrap().distance;
        if truth.distance > 1e-12 {
            worst_ratio = worst_ratio.max(found / truth.distance);
        } else {
            assert!(found < 1e-9, "exact zero must be found");
        }
    }
    // The paper reports ONEX as highly accurate though approximate; on
    // benign synthetic data the found distance stays within a small factor
    // of the optimum.
    assert!(
        worst_ratio < 1.5,
        "centroid deviation too large: {worst_ratio}"
    );
}

#[test]
fn regression_suffix_radius_break() {
    // Found by proptest: the phase-2 stop test must use the *suffix
    // maximum* radius, not the current group's radius — radii are not
    // monotone along the lower-bound-sorted order, so a later group with
    // a larger radius can still contain the true best member.
    let ds = random_walk_dataset(SyntheticConfig {
        series: 4,
        len: 30,
        seed: 701,
    });
    let e = engine(&ds, 1.7977270279648634, 6, 12, RepresentativePolicy::Seed);
    let query = ds.series(0).unwrap().subsequence(2, 7).unwrap().to_vec();
    let (m, _) = e.best_match(&query, &QueryOptions::default()).unwrap();
    assert!(
        m.unwrap().distance < 1e-9,
        "exact self-window must be found"
    );
}

#[test]
fn top_groups_mode_is_a_good_approximation() {
    // The paper's best-group-only scan: never better than exact, usually
    // equal when the query's group is the nearest one, and always within
    // the bridge bound DTW(q, rep_best) + √W·radius of the optimum.
    let ds = random_walk_dataset(SyntheticConfig {
        series: 8,
        len: 48,
        seed: 53,
    });
    let e = engine(&ds, 1.2, 10, 10, RepresentativePolicy::Seed);
    for start in [0usize, 7, 19, 30] {
        let query = ds
            .series(1)
            .unwrap()
            .subsequence(start, 10)
            .unwrap()
            .to_vec();
        let exact_opts = QueryOptions::default();
        let approx_opts = QueryOptions::default().top_groups(1);
        let (exact, se) = e.best_match(&query, &exact_opts).unwrap();
        let (approx, sa) = e.best_match(&query, &approx_opts).unwrap();
        let (exact, approx) = (exact.unwrap(), approx.unwrap());
        assert!(
            approx.distance + 1e-9 >= exact.distance,
            "approximation cannot beat the optimum"
        );
        assert!(
            sa.members_examined + sa.members_lb_pruned
                <= se.members_examined + se.members_lb_pruned,
            "top-1 scans at most as many members"
        );
        // Self-window queries land in their own group, so top-1 is exact.
        assert!(
            approx.distance < 1e-9,
            "query cut from the data finds itself: {}",
            approx.distance
        );
    }
}

#[test]
fn wider_top_groups_monotonically_improve() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 10,
        len: 60,
        seed: 59,
    });
    let e = engine(&ds, 1.0, 12, 12, RepresentativePolicy::Seed);
    // A query that is NOT a member: perturb a window.
    let mut query = ds.series(2).unwrap().subsequence(9, 12).unwrap().to_vec();
    for (i, v) in query.iter_mut().enumerate() {
        *v += 0.8 * ((i as f64) * 1.3).sin();
    }
    let (exact, _) = e.best_match(&query, &QueryOptions::default()).unwrap();
    let exact = exact.unwrap().distance;
    let mut last = f64::INFINITY;
    for g in [1usize, 2, 4, 64] {
        let (m, _) = e
            .best_match(&query, &QueryOptions::default().top_groups(g))
            .unwrap();
        let d = m.unwrap().distance;
        assert!(d <= last + 1e-9, "more groups cannot hurt: g={g}");
        assert!(d + 1e-9 >= exact, "never better than exact");
        last = d;
    }
    // Scanning every group is the exact result again.
    assert!(
        (last - exact).abs() < 1e-9,
        "g=#groups degenerates to exact"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomised version of the headline exactness claim.
    #[test]
    fn seed_exactness_randomised(
        seed in 0u64..1000,
        st in 0.4f64..2.0,
        qlen in 6usize..12,
    ) {
        let ds = random_walk_dataset(SyntheticConfig {
            series: 4,
            len: 30,
            seed,
        });
        let e = engine(&ds, st, 6, 12, RepresentativePolicy::Seed);
        let opts = QueryOptions::default();
        let query = ds.series(0).unwrap().subsequence(2, qlen).unwrap().to_vec();
        let (m, _) = e.best_match(&query, &opts).unwrap();
        let truth = exhaustive::scan_best(&ds, &query, &[qlen], 1, &opts, true).unwrap();
        match (m, truth) {
            (Some(m), Some(t)) => prop_assert!(
                (m.distance - t.distance).abs() < 1e-9,
                "engine {} truth {}", m.distance, t.distance
            ),
            (None, None) => {}
            (m, t) => prop_assert!(false, "presence mismatch: {m:?} vs {t:?}"),
        }
    }
}
