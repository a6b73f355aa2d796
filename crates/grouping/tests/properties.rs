//! Property tests for the ONEX base construction invariants.

mod model;

use onex_distance::ed;
use onex_grouping::{
    BaseBuilder, BaseConfig, OnexBase, RepresentativePolicy, ResidentIndex, SubsequenceSpace,
};
use onex_tseries::gen::{random_walk_dataset, SyntheticConfig};
use onex_tseries::{Dataset, TimeSeries};
use proptest::prelude::*;

fn small_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 6..20), 1..6).prop_map(|series| {
        Dataset::from_series(
            series
                .into_iter()
                .enumerate()
                .map(|(i, v)| TimeSeries::new(format!("s{i}"), v))
                .collect(),
        )
        .expect("unique names")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every subsequence of the space is a member of exactly one group.
    #[test]
    fn partition_property(ds in small_dataset(), st in 0.1f64..5.0) {
        let cfg = BaseConfig::new(st, 3, 8);
        let (base, _) = BaseBuilder::new(cfg.clone()).unwrap().build(&ds);
        let space = SubsequenceSpace::new(&ds, &cfg);
        let mut seen = std::collections::HashSet::new();
        for len in base.lengths() {
            for g in base.groups_for_len(len) {
                prop_assert!(g.cardinality() >= 1);
                for m in g.members() {
                    prop_assert_eq!(m.len as usize, len);
                    prop_assert!(seen.insert(m), "subsequence in two groups");
                }
            }
        }
        prop_assert_eq!(seen.len(), space.total());
    }

    /// Under the Seed policy the ST/2 invariant is exact, which by the
    /// Euclidean triangle inequality makes any two members of one group
    /// at most ST apart.
    #[test]
    fn seed_policy_pairwise_guarantee(ds in small_dataset(), st in 0.2f64..4.0) {
        let cfg = BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(st, 3, 6)
        };
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        prop_assert_eq!(base.audit(&ds).violations, 0);
        for len in base.lengths() {
            let pairwise = base.config().pairwise_threshold(len);
            for g in base.groups_for_len(len) {
                // All-pairs check on a sample (first vs all) is implied by
                // the invariant; verify the full guarantee on small groups.
                if g.cardinality() <= 6 {
                    let vals: Vec<&[f64]> = g
                        .members()
                        .iter()
                        .map(|m| ds.resolve(m).unwrap())
                        .collect();
                    for i in 0..vals.len() {
                        for j in i + 1..vals.len() {
                            prop_assert!(
                                ed(vals[i], vals[j]) <= pairwise + 1e-9,
                                "pairwise ST violated"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The build spreads its lengths over workers; each length's column
    /// is bit-identical to the one a build of that length alone makes
    /// (one length runs on the calling thread).
    #[test]
    fn parallel_equals_sequential(ds in small_dataset(), st in 0.2f64..4.0) {
        let cfg = BaseConfig::new(st, 3, 8);
        let (all, _) = BaseBuilder::new(cfg.clone()).unwrap().build(&ds);
        for len in 3..=8 {
            let single = BaseConfig { min_len: len, max_len: len, ..cfg.clone() };
            let (one, _) = BaseBuilder::new(single).unwrap().build(&ds);
            prop_assert!(all.groups_for_len(len) == one.groups_for_len(len), "length {}", len);
            prop_assert!(all.sketches().for_len(len) == one.sketches().for_len(len), "length {}", len);
        }
    }

    /// A larger threshold never produces more groups (coarser quantisation).
    #[test]
    fn group_count_monotone_in_st(ds in small_dataset()) {
        let mut last = usize::MAX;
        for st in [0.1, 0.5, 2.0, 8.0] {
            let cfg = BaseConfig::new(st, 4, 6);
            let (_, report) = BaseBuilder::new(cfg).unwrap().build(&ds);
            prop_assert!(report.groups <= last, "st={st}: {} > {last}", report.groups);
            last = report.groups;
        }
    }

    /// Persistence round-trips every base exactly.
    #[test]
    fn persist_round_trip(ds in small_dataset(), st in 0.2f64..4.0) {
        let cfg = BaseConfig::new(st, 3, 7);
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        let back = opened(&onex_grouping::persist::save_v2(&base), &ds).unwrap();
        prop_assert_eq!(back.stats(), base.stats());
        prop_assert_eq!(back.config(), base.config());
        for (id, g) in base.iter() {
            let g2 = back.group(id).unwrap();
            prop_assert_eq!(g2.representative(), g.representative());
            prop_assert_eq!(g2.members(), g.members());
        }
    }

    /// Image round-trips are **byte-identical**: decode(encode(base))
    /// re-encodes to the same image, the reloaded base equals the saved
    /// one, and the frozen sketch quantisation parameters survive — so
    /// appended members keep encoding under the same quantisation instead
    /// of rebuilding the L0 tier.
    #[test]
    fn v2_round_trip_is_byte_identical(ds in small_dataset(), st in 0.2f64..4.0) {
        let cfg = BaseConfig::new(st, 3, 7);
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        let bytes = onex_grouping::persist::save_v2(&base);
        let back = opened(&bytes, &ds).unwrap();
        prop_assert_eq!(&back, &base);
        prop_assert_eq!(back.sketches(), base.sketches());
        for len in base.lengths() {
            let frozen = base.sketches().for_len(len).unwrap().params();
            prop_assert_eq!(back.sketches().for_len(len).unwrap().params(), frozen);
        }
        prop_assert_eq!(onex_grouping::persist::save_v2(&back), bytes);
    }

    /// Damage anywhere in a persisted image — any single byte flipped or
    /// any truncation — is either *detected* (load fails) or *provably
    /// harmless* (the reloaded base is identical; alignment padding is
    /// the only undetected region and it carries no data). Loading never
    /// panics and never allocates its way into garbage.
    #[test]
    fn corrupted_files_never_load_as_a_different_base(
        ds in small_dataset(),
        st in 0.3f64..3.0,
        flip_seed in any::<usize>(),
        bit in 0usize..8,
        cut_seed in any::<usize>(),
    ) {
        let cfg = BaseConfig::new(st, 3, 7);
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        let bytes = onex_grouping::persist::save_v2(&base);

        let mut flipped = bytes.clone();
        let at = flip_seed % flipped.len();
        flipped[at] ^= 1 << bit;
        if let Ok(back) = opened(&flipped, &ds) {
            prop_assert_eq!(&back, &base, "undetected flip at {} changed the base", at);
        }

        let truncated = &bytes[..cut_seed % bytes.len()];
        prop_assert!(
            opened(truncated, &ds).is_err(),
            "truncation to {} bytes accepted", truncated.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental extension over a split dataset builds the same base as
    /// one batch build over the whole dataset — the demo's click-to-load
    /// path must not change what gets indexed.
    #[test]
    fn extend_equals_batch_build(ds in small_dataset(), st in 0.3f64..4.0) {
        let cfg = BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(st, 4, 8)
        };
        let builder = BaseBuilder::new(cfg).unwrap();
        let (batch, _) = builder.build(&ds);

        // Rebuild: first series only, then extend with the rest.
        let first = Dataset::from_series(vec![
            ds.series(0).unwrap().clone()
        ]).unwrap();
        let (partial, _) = builder.build(&first);
        let (extended, _) = builder.extend(&partial, &ds).unwrap();

        let (bs, es) = (batch.stats(), extended.stats());
        prop_assert_eq!(bs.members, es.members);
        prop_assert_eq!(bs.groups, es.groups);
        for (id, g) in batch.iter() {
            let g2 = extended.group(id).expect("same group ids");
            prop_assert_eq!(g.members(), g2.members(), "group {:?}", id);
            prop_assert_eq!(g.representative(), g2.representative());
        }
    }

    /// Extension refuses configuration mismatches and shrunk datasets
    /// instead of silently corrupting the base.
    #[test]
    fn extend_rejects_mismatches(ds in small_dataset(), st in 0.3f64..3.0) {
        let cfg = BaseConfig::new(st, 4, 8);
        let builder = BaseBuilder::new(cfg).unwrap();
        let (base, _) = builder.build(&ds);
        let other = BaseBuilder::new(BaseConfig::new(st + 1.0, 4, 8)).unwrap();
        prop_assert!(other.extend(&base, &ds).is_err());
        if ds.len() > 1 {
            let shrunk = Dataset::from_series(vec![ds.series(0).unwrap().clone()]).unwrap();
            prop_assert!(builder.extend(&base, &shrunk).is_err());
        }
    }

    /// A failed extend is observationally a no-op: the caller's base is
    /// bit-identical to its pre-call state after every rejected
    /// extension, and a subsequent successful extend from that base gives
    /// exactly what a never-failed extend would have — failure leaves no
    /// residue (extend builds aside and only swaps on success).
    #[test]
    fn failed_extend_is_observationally_a_no_op(
        ds in small_dataset(),
        st in 0.3f64..3.0,
        extra in prop::collection::vec(-10.0f64..10.0, 6..20),
    ) {
        let cfg = BaseConfig::new(st, 4, 8);
        let builder = BaseBuilder::new(cfg).unwrap();
        let (base, _) = builder.build(&ds);
        let pristine = base.clone();

        // Failure mode 1: configuration mismatch.
        let other = BaseBuilder::new(BaseConfig::new(st + 1.0, 4, 8)).unwrap();
        prop_assert!(other.extend(&base, &ds).is_err());
        prop_assert_eq!(&base, &pristine);

        // Failure mode 2: shrunk dataset.
        let shrunk = Dataset::new();
        prop_assert!(builder.extend(&base, &shrunk).is_err());
        prop_assert_eq!(&base, &pristine);

        // The surviving base extends exactly as an untouched one would.
        let mut grown = ds.clone();
        grown.push(TimeSeries::new("appended", extra)).unwrap();
        let (after_failures, _) = builder.extend(&base, &grown).unwrap();
        let (clean, _) = builder.extend(&pristine, &grown).unwrap();
        prop_assert_eq!(after_failures, clean);
    }
}

/// Random-walk collections: the hard-to-group regime where the base
/// barely compacts, groups ≈ subsequences, and the nearest-representative
/// lookup dominates construction — exactly where an index bug would bite.
fn walk_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..6, 12usize..40, 0u64..10_000)
        .prop_map(|(series, len, seed)| random_walk_dataset(SyntheticConfig { series, len, seed }))
}

fn policy_of(seed_policy: bool) -> RepresentativePolicy {
    if seed_policy {
        RepresentativePolicy::Seed
    } else {
        RepresentativePolicy::Centroid
    }
}

/// Build `ds` under `cfg`, then grow the base of its first series to the
/// whole collection two ways — in one stateless step, and one series at
/// a time through a resident index — and demand the model's base every
/// time.
fn assert_equals_the_model(ds: &Dataset, cfg: &BaseConfig) {
    let model = model::build(ds, cfg);
    let builder = BaseBuilder::new(cfg.clone()).unwrap();
    let (built, report) = builder.build(ds);
    model::assert_matches(&model, &built, &format!("build under {cfg:?}"));
    assert_eq!(
        report.work.examined + report.work.pruned,
        model.scanned,
        "every representative is examined or pruned at every lookup"
    );
    if ds.len() < 2 {
        return;
    }
    let first = Dataset::from_series(vec![ds.series(0).unwrap().clone()]).unwrap();
    let (partial, _) = builder.build(&first);
    let (extended, _) = builder.extend(&partial, ds).unwrap();
    model::assert_matches(&model, &extended, &format!("extend under {cfg:?}"));
    let mut resident = ResidentIndex::new();
    let mut grown = first;
    let mut base = partial;
    for (_, s) in ds.iter().skip(1) {
        grown.push(s.clone()).unwrap();
        base = builder
            .extend_resident(&base, &grown, &mut resident)
            .unwrap()
            .0;
    }
    model::assert_matches(&model, &base, &format!("resident under {cfg:?}"));
    assert_eq!(base.sketches(), extended.sketches());
    assert_eq!(resident.entries(), base.group_count());
}

/// `ds` with every value mapped through `f`.
fn mapped(ds: &Dataset, f: impl Fn(f64) -> f64) -> Dataset {
    Dataset::from_series(
        ds.iter()
            .map(|(_, s)| TimeSeries::new(s.name(), s.values().iter().map(|&v| f(v)).collect()))
            .collect(),
    )
    .expect("names are unchanged")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Construction through the grid builds the model's base — the one
    /// a linear scan builds — under both representative policies, its
    /// lengths spread over workers.
    #[test]
    fn indexed_construction_equals_linear_scan(
        ds in walk_dataset(),
        st in 0.2f64..3.0,
        seed_policy in any::<bool>(),
    ) {
        let cfg = BaseConfig {
            policy: policy_of(seed_policy),
            ..BaseConfig::new(st, 4, 9)
        };
        let model = model::build(&ds, &cfg);
        let builder = BaseBuilder::new(cfg).unwrap();
        model::assert_matches(&model, &builder.build(&ds).0, "build");
    }

    /// Incremental extension through the index builds the model's base
    /// too: extending a base built under either policy lands every new
    /// subsequence where the linear scan would — in one stateless step,
    /// or one series at a time through an index kept resident across the
    /// steps.
    #[test]
    fn indexed_extend_equals_linear_scan(
        ds in walk_dataset(),
        st in 0.3f64..3.0,
        seed_policy in any::<bool>(),
    ) {
        prop_assume!(ds.len() >= 2);
        let cfg = BaseConfig {
            policy: policy_of(seed_policy),
            ..BaseConfig::new(st, 4, 9)
        };
        assert_equals_the_model(&ds, &cfg);
    }
}

/// The same equalities where rounding bites: the collection shifted
/// until a mean is good to a thousandth (where a "neighbouring cells"
/// rule and an un-slacked bound both fail) and scaled both ways, the
/// radius far below and far above the data's spread, and lengths 2 and
/// 3, whose PAA segments are partly empty.
#[test]
fn indexed_construction_is_exact_where_rounding_bites() {
    for seed in 0..2 {
        let walks = random_walk_dataset(SyntheticConfig {
            series: 3,
            len: 16 + 8 * seed as usize,
            seed,
        });
        for shift in [0.0, 1e6, 1e9, 1e12, -1e12] {
            for scale in [1.0, 1e-6, 1e6] {
                let ds = mapped(&walks, |v| v * scale + shift);
                for st in [0.05, 0.3, 1.0, 4.0, 20.0] {
                    for min_len in [2, 3] {
                        for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
                            let cfg = BaseConfig {
                                policy,
                                ..BaseConfig::new(st * scale, min_len, min_len + 5)
                            };
                            assert_equals_the_model(&ds, &cfg);
                        }
                    }
                }
            }
        }
    }
}

/// Every window at distance 0 from every other: the lowest group id —
/// the only group — must take them all, whatever the offset.
#[test]
fn a_constant_collection_lands_in_the_first_group() {
    for level in [0.0, 1.0, -3.5e12, 1e300] {
        let ds = Dataset::from_series(
            (0..3)
                .map(|i| TimeSeries::new(format!("c{i}"), vec![level; 12]))
                .collect(),
        )
        .unwrap();
        for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
            let cfg = BaseConfig {
                policy,
                ..BaseConfig::new(0.5, 2, 6)
            };
            assert_equals_the_model(&ds, &cfg);
            let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
            for len in base.lengths() {
                assert_eq!(
                    base.groups_for_len(len).len(),
                    1,
                    "level {level}, length {len}"
                );
            }
        }
    }
}

/// Values whose differences square past `f64::MAX`: `d²` overflows, so
/// no window may be admitted to another's group, nothing may panic, and
/// the grid's cell arithmetic has to saturate rather than wrap.
#[test]
fn values_that_overflow_the_distance_admit_nothing_and_never_panic() {
    let mut rng_state = 7u64;
    let mut sign = || {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if rng_state >> 63 == 0 {
            1e300
        } else {
            -1e300
        }
    };
    let ds = Dataset::from_series(
        (0..3)
            .map(|i| TimeSeries::new(format!("h{i}"), (0..14).map(|_| sign()).collect()))
            .collect(),
    )
    .unwrap();
    for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
        for st in [0.5, 1e290] {
            let cfg = BaseConfig {
                policy,
                ..BaseConfig::new(st, 2, 7)
            };
            assert_equals_the_model(&ds, &cfg);
            let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
            for len in base.lengths() {
                for g in base.groups_for_len(len) {
                    for m in g.members() {
                        let xs = ds.resolve(m).unwrap();
                        assert_eq!(
                            xs,
                            g.representative(),
                            "only identical windows share a group"
                        );
                    }
                }
            }
        }
    }
}

/// Subsequence length of [`edge_collection`]'s one column.
const EDGE_LEN: usize = 8;

/// One gently sloped series per group, the groups a hundred apart: series
/// `i` has `cardinalities[i]` windows of [`EDGE_LEN`], all within the
/// admission radius of its first and of nobody else's, so group `i` is
/// series `i` with that many members — and its mean, under `Centroid`,
/// drifts. Series 0 and 1 hold the collection's extremes, so a base begun
/// on any two series and up freezes the quantiser a batch build freezes.
fn edge_collection(cardinalities: &[usize]) -> Dataset {
    let n = cardinalities.len();
    let level = |i: usize| match i {
        0 => 0.0,
        1 => 100.0 * n as f64,
        _ => 100.0 * (i - 1) as f64,
    };
    Dataset::from_series(
        cardinalities
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let slope = if i == 0 { 1e-4 } else { -1e-4 };
                let values = (0..EDGE_LEN + c - 1).map(|t| level(i) + slope * t as f64);
                TimeSeries::new(format!("g{i}"), values.collect())
            })
            .collect(),
    )
    .unwrap()
}

/// The image `file` decoded beside `dataset`.
fn opened(file: &[u8], dataset: &Dataset) -> Result<OnexBase, onex_api::OnexError> {
    onex_grouping::persist::BaseSegment::from_bytes(file.to_vec())?.decode(dataset)
}

/// What a base holds does not depend on how its columns were filled:
/// built in one go, decoded from its own image beside its dataset, or
/// reached by three appends, it is the same base by `==`, the
/// same v2 image byte for byte and the same sketches — at every block
/// edge of the column, with groups of 1, 2, 63, 64 and 65 members in it
/// (a slot read by stride out of the block, and planes either side of the
/// searcher's 64-slot step), under both policies.
#[test]
fn a_base_is_the_same_base_however_its_columns_were_filled() {
    use onex_distance::{Envelope, QuerySketch, SKETCH_STRIDE};
    use onex_grouping::persist::save_v2;
    for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
        for groups in [1usize, 255, 256, 257, 513] {
            let cardinalities: Vec<usize> = (0..groups)
                .map(|i| [1, 2, 63, 64, 65, 1, 1, 1][(i + groups) % 8])
                .collect();
            let ds = edge_collection(&cardinalities);
            let what = format!("{policy:?}, {groups} groups");
            let builder = BaseBuilder::new(BaseConfig {
                policy,
                ..BaseConfig::new(1.0, EDGE_LEN, EDGE_LEN)
            })
            .unwrap();
            let (batch, report) = builder.build(&ds);
            let column = batch.groups_for_len(EDGE_LEN);
            let built: Vec<usize> = column.iter().map(|g| g.cardinality()).collect();
            assert_eq!(
                built, cardinalities,
                "{what}: the collection groups as designed"
            );
            assert_eq!(report.blocks_total, groups.div_ceil(256), "{what}");
            let image = save_v2(&batch);

            // Its own image, beside the dataset.
            let decoded = opened(&image, &ds).unwrap();
            assert_eq!(decoded, batch, "{what}: decoded");
            assert!(save_v2(&decoded) == image, "{what}: decoded image");
            assert_eq!(decoded.sketches(), batch.sketches(), "{what}: decoded");
            let owning = |base: &OnexBase| {
                let groups = base.iter();
                let own = groups.filter(|(_, g)| {
                    let window = ds.resolve(g.members().at(0)).unwrap();
                    !std::ptr::eq(g.representative(), window)
                });
                own.count()
            };
            assert_eq!(owning(&decoded), owning(&batch), "{what}: as it was built");
            if policy == RepresentativePolicy::Seed {
                assert_eq!(owning(&batch), 0, "{what}");
                assert_eq!(decoded.footprint().owned_representatives, 0, "{what}");
            } else {
                let drifted = cardinalities.iter().filter(|&&c| c > 1).count();
                assert_eq!(owning(&batch), drifted, "{what}");
            }

            // Three appends onto the base of all but the last three series.
            if groups > 4 {
                let series: Vec<TimeSeries> = ds.iter().map(|(_, s)| s.clone()).collect();
                let (head, tail) = series.split_at(groups - 3);
                let mut grown = Dataset::from_series(head.to_vec()).unwrap();
                let (mut base, _) = builder.build(&grown);
                let mut resident = ResidentIndex::new();
                for s in tail {
                    grown.push(s.clone()).unwrap();
                    let previous = base;
                    let extended = builder.extend_resident(&previous, &grown, &mut resident);
                    let (next, report) = extended.unwrap();
                    // One group seeded: the tail block (or a new one).
                    assert_eq!(report.blocks_copied, 1, "{what}");
                    assert_eq!(
                        next.shared_blocks(&previous),
                        report.blocks_total - 1,
                        "{what}"
                    );
                    base = next;
                }
                assert_eq!(base, batch, "{what}: appended");
                assert!(save_v2(&base) == image, "{what}: appended image");
                assert_eq!(base.sketches(), batch.sketches(), "{what}: appended");
                assert_eq!(resident.entries(), groups);
            }

            // The block test over what each group of two and more hands
            // the searcher — planes of its own — decides as the records
            // do. A group of one hands it none.
            let params = column.params().expect("built bases are sketched");
            let query: Vec<f64> = ds.series(2.min(groups as u32 - 1)).unwrap().values()[..EDGE_LEN]
                .iter()
                .map(|v| v + 0.3)
                .collect();
            let sketch = QuerySketch::new(&query, &Envelope::build(&query, 1), params);
            for (gi, g) in column.iter().enumerate() {
                if cardinalities[gi] == 1 {
                    assert!(g.is_lone() && g.planes().is_none(), "{what} g{gi}");
                    continue;
                }
                let planes = g.planes().expect("synced");
                assert_eq!(planes.cardinality(), cardinalities[gi], "{what} g{gi}");
                let mut records = Vec::new();
                planes.write_records(&mut records);
                for bound in [0.0, 1.0, f64::INFINITY] {
                    let want: Vec<usize> = records
                        .chunks_exact(SKETCH_STRIDE)
                        .enumerate()
                        .filter(|(_, record)| {
                            let rejected = sketch.bound_sq(record) > bound;
                            !rejected
                        })
                        .map(|(slot, _)| slot)
                        .collect();
                    let mut got = Vec::new();
                    sketch.survivors(planes, 0..planes.cardinality(), bound, &mut got);
                    assert_eq!(got, want, "{what} g{gi} at {bound}");
                }
            }
        }
    }
}
