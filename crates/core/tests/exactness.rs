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

/// The two collections of the group-of-one tests: random walks, where
/// nearly every group is a group of one, and the same walks beside a few
/// clustered shape families, where groups of one sit between groups of
/// dozens. Lengths 12..=14.
fn lone_collections() -> Vec<(&'static str, Dataset)> {
    let walks = random_walk_dataset(SyntheticConfig {
        series: 10,
        len: 80,
        seed: 71,
    });
    let shapes = clustered_dataset(
        SyntheticConfig {
            series: 6,
            len: 80,
            seed: 73,
        },
        2,
        0.08,
    );
    let mut mixed: Vec<TimeSeries> = walks.iter().map(|(_, s)| s.clone()).collect();
    mixed.extend(
        shapes
            .iter()
            .map(|(id, s)| TimeSeries::new(format!("shape-{id}"), s.values().to_vec())),
    );
    vec![
        ("walks", walks),
        ("mixed", Dataset::from_series(mixed).unwrap()),
    ]
}

/// `got` is `truth` up to distance ties: the same normalised distances
/// rank by rank, and the same window wherever the truth's distance is
/// not tied with another of its own.
fn assert_same_up_to_ties(got: &[(SubseqRef, f64)], truth: &[exhaustive::ScanHit], what: &str) {
    assert_eq!(got.len(), truth.len(), "{what}");
    for (i, ((subseq, normalized), t)) in got.iter().zip(truth).enumerate() {
        assert!(
            (normalized - t.normalized).abs() <= 1e-9,
            "{what} rank {i}: {normalized} vs truth {}",
            t.normalized
        );
        let tied = truth
            .iter()
            .enumerate()
            .any(|(j, u)| j != i && (u.normalized - t.normalized).abs() <= 1e-9);
        if !tied {
            assert_eq!(*subseq, t.subseq, "{what} rank {i}");
        }
    }
}

#[test]
fn groups_of_one_answer_as_the_exhaustive_scan_under_every_option() {
    for (name, ds) in lone_collections() {
        for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
            let e = engine(&ds, 1.0, 12, 14, policy);
            let groups: Vec<_> = e.base().iter().map(|(_, g)| g.cardinality()).collect();
            let lone = groups.iter().filter(|&&c| c == 1).count();
            match name {
                "walks" => assert!(
                    lone * 100 >= groups.len() * 99,
                    "{name}: {lone} of {}",
                    groups.len()
                ),
                _ => assert!(
                    lone > 0 && groups.iter().any(|&c| c > 20),
                    "{name}: {groups:?}"
                ),
            }
            assert!(e
                .base()
                .iter()
                .all(|(_, g)| g.is_lone() == (g.cardinality() == 1)));
            let last = ds.len() as u32 - 1;
            for (sid, start, len) in [(1u32, 5usize, 13usize), (last, 30, 12), (4, 61, 14)] {
                let mut query = ds
                    .series(sid)
                    .unwrap()
                    .subsequence(start, len)
                    .unwrap()
                    .to_vec();
                for (i, v) in query.iter_mut().enumerate() {
                    *v += 0.05 * (i as f64 * 0.9).sin();
                }
                let base = QueryOptions::default().lengths(LengthSelection::Nearest(2));
                let filters = [
                    base.clone(),
                    base.clone().excluding_series(Some(sid)),
                    base.clone().within_series((sid + 3) % ds.len() as u32),
                    base.clone()
                        .excluding_window(SubseqRef::new(sid, start as u32, len as u32))
                        .excluding_window(SubseqRef::new(2, 20, 13)),
                ];
                let lengths = e.base().nearest_lengths(len, 2);
                let k = 6;
                for opts in &filters {
                    let what = format!("{name} {policy:?} q=({sid},{start},{len}) {opts:?}");
                    let truth =
                        exhaustive::scan_k(&ds, &query, &lengths, 1, opts, k, true).unwrap();
                    // Every group scanned is the exact answer; so is a
                    // top-g scan whose g covers every group.
                    let everything = opts.clone().top_groups(groups.len());
                    for opts in [opts.clone(), everything] {
                        let (with, _) = e.k_best(&query, k, &opts).unwrap();
                        let (without, _) = e.k_best(&query, k, &opts.clone().without_l0()).unwrap();
                        let found: Vec<_> = with.iter().map(|m| (m.subseq, m.normalized)).collect();
                        assert_same_up_to_ties(&found, &truth, &what);
                        let bits = |ms: &[onex_core::Match]| -> Vec<_> {
                            ms.iter()
                                .map(|m| (m.subseq, m.distance.to_bits()))
                                .collect()
                        };
                        assert_eq!(bits(&with), bits(&without), "{what}: L0 off");
                    }
                    // A narrow top-g scan is an approximation: L0 changes
                    // nothing there either, and what it offers is each
                    // window's own distance.
                    let narrow = opts.clone().top_groups(3);
                    let (with, _) = e.k_best(&query, k, &narrow).unwrap();
                    let (without, _) = e.k_best(&query, k, &narrow.clone().without_l0()).unwrap();
                    assert_eq!(with.len(), without.len(), "{what}: top 3");
                    for (a, b) in with.iter().zip(&without) {
                        assert_eq!(
                            (a.subseq, a.distance.to_bits()),
                            (b.subseq, b.distance.to_bits())
                        );
                        assert!(opts.exclude_series != Some(a.subseq.series), "{what}");
                        let window = ds.resolve(a.subseq).unwrap();
                        let d = onex_distance::dtw_sq(&query, window, opts.band).sqrt();
                        assert!(
                            (a.distance - d).abs() <= 1e-9,
                            "{what}: {} vs {d}",
                            a.distance
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_groups_of_one_answer_as_the_exhaustive_scan_with_a_shared_bound() {
    use onex_core::{ShardedEngine, SimilaritySearch};
    for (name, ds) in lone_collections() {
        let query: Vec<f64> = ds
            .series(3)
            .unwrap()
            .subsequence(22, 13)
            .unwrap()
            .iter()
            .map(|v| v + 0.04)
            .collect();
        for shards in [2, 3] {
            for opts in [
                QueryOptions::default().lengths(LengthSelection::Exact),
                QueryOptions::default()
                    .lengths(LengthSelection::Exact)
                    .excluding_series(Some(3)),
                QueryOptions::default()
                    .lengths(LengthSelection::Exact)
                    .without_l0(),
            ] {
                let config = BaseConfig {
                    policy: RepresentativePolicy::Seed,
                    ..BaseConfig::new(1.0, 12, 14)
                };
                let (sharded, _) = ShardedEngine::build(&ds, config, shards).unwrap();
                let sharded = sharded.with_options(opts.clone()).sharing_bound(true);
                let what = format!("{name} {shards} shards {opts:?}");
                let outcome = sharded.k_best(&query, 5).unwrap();
                let truth = exhaustive::scan_k(&ds, &query, &[13], 1, &opts, 5, true).unwrap();
                let found: Vec<_> = outcome
                    .matches
                    .iter()
                    .map(|m| {
                        let subseq = SubseqRef::new(m.series, m.start as u32, m.len as u32);
                        (
                            subseq,
                            onex_core::normalized_distance(m.distance, query.len(), m.len),
                        )
                    })
                    .collect();
                assert_same_up_to_ties(&found, &truth, &what);
            }
        }
    }
}

#[test]
fn a_query_excluding_a_series_starts_no_dtw_on_its_groups_of_one() {
    // Walks at a threshold nothing joins at: every group a group of one.
    // Without group pruning every group's representative DTW runs, and it
    // is the only DTW its member gets.
    let ds = random_walk_dataset(SyntheticConfig {
        series: 6,
        len: 60,
        seed: 79,
    });
    let e = engine(&ds, 0.05, 12, 12, RepresentativePolicy::Seed);
    let base = e.base();
    let groups = base.groups_for_len(12);
    assert!(
        groups.iter().all(|g| g.is_lone()),
        "every group a group of one"
    );
    let query: Vec<f64> = ds
        .series(2)
        .unwrap()
        .subsequence(9, 12)
        .unwrap()
        .iter()
        .map(|v| v + 0.1)
        .collect();
    let all = QueryOptions::default().without_group_pruning();
    let (_, stats) = e.k_best(&query, 3, &all).unwrap();
    assert_eq!(
        stats.dtw_invocations(),
        groups.len(),
        "one DTW a group: {stats:?}"
    );
    assert_eq!(stats.members_examined, groups.len(), "{stats:?}");
    // No representative DTW abandons without group pruning; the member
    // tier's test drops the members the bound has passed, as abandoned.
    assert_eq!(stats.dtw_abandoned, 0, "{stats:?}");
    assert!(stats.members_abandoned > groups.len() / 2, "{stats:?}");
    for s in 0..ds.len() as u32 {
        let own = groups
            .iter()
            .filter(|g| g.members().at(0).series == s)
            .count();
        assert!(own > 0);
        let excluding = all.clone().excluding_series(Some(s));
        let (matches, stats) = e.k_best(&query, 3, &excluding).unwrap();
        assert!(matches.iter().all(|m| m.subseq.series != s));
        assert_eq!(
            stats.dtw_invocations(),
            groups.len() - own,
            "series {s}: {stats:?}"
        );
        assert_eq!(
            stats.members_examined,
            groups.len() - own,
            "series {s}: {stats:?}"
        );
        assert_eq!(stats.members_bound_pruned(), 0, "series {s}: {stats:?}");
        // The same with group pruning on: never more DTWs than the
        // groups the filter leaves.
        let (_, pruned) = e
            .k_best(
                &query,
                3,
                &QueryOptions::default().excluding_series(Some(s)),
            )
            .unwrap();
        assert!(
            pruned.dtw_invocations() <= groups.len() - own,
            "series {s}: {pruned:?}"
        );
    }
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
