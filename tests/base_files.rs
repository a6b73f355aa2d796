//! Base files through the live mutation path: a base saved *after*
//! `append_series` must cold-start back to the exact same engine — the
//! L0 sketches byte-identical (v2 persists them verbatim under
//! their frozen quantisation parameters, so a loaded base prunes with
//! the same rejections, not statistically similar ones) and the top-k
//! unchanged whether the L0 prefilter is on or off.
//!
//! And built or decoded beside its dataset, under either policy, before
//! and after appends: one base by `==`, one set of sketches, one image,
//! one answer bit for bit, with or without the dataset it was built over
//! still alive. An image in the previous layout is refused as an
//! unsupported version at every door an image comes in by.

use onex::engine::{Match, Onex, QueryOptions};
use onex::grouping::persist::save_v2;
use onex::grouping::{BaseBuilder, BaseConfig, RepresentativePolicy};
use onex::tseries::gen::{clustered_dataset, random_walk_dataset, SyntheticConfig};
use onex::tseries::{Dataset, TimeSeries};

const K: usize = 4;

fn windows(matches: &[Match]) -> Vec<(u32, u32, u32, String)> {
    matches
        .iter()
        .map(|m| {
            (
                m.subseq.series,
                m.subseq.start,
                m.subseq.len,
                format!("{:.12}", m.distance),
            )
        })
        .collect()
}

#[test]
fn base_saved_after_appends_reloads_with_identical_sketches_and_topk() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 8,
        len: 48,
        seed: 0xBA5EF11E,
    });
    let (engine, _) = Onex::build(ds, BaseConfig::new(0.8, 8, 16)).expect("valid config");

    // Grow the base through the live path — the saved file must capture
    // the *extended* engine, including sketch slots appended for the new
    // members under the per-length parameters frozen at first sync.
    for (i, seed) in [0x0Au64, 0x0B].iter().enumerate() {
        let mut x = *seed as f64 / 7.0;
        let values: Vec<f64> = (0..48)
            .map(|t| {
                x += ((t as f64 * 0.37 + *seed as f64).sin()) * 0.5;
                x
            })
            .collect();
        engine
            .append_series(TimeSeries::new(format!("appended-{i}"), values))
            .expect("valid series");
    }

    let dir = std::env::temp_dir().join("onex_base_files_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("after_append.onexbase");
    engine.save_base(&path).expect("writable temp dir");

    let reloaded = Onex::open(&path, engine.dataset().clone()).expect("own file");
    reloaded.resolve_all().expect("own file");
    std::fs::remove_file(&path).ok();

    // The sketch index is byte-exact (PartialEq over planes + params):
    // nothing was re-quantised on the way through the file.
    assert_eq!(
        reloaded.base().sketches(),
        engine.base().sketches(),
        "reloaded sketches must be byte-identical to the saved engine's"
    );
    assert_eq!(*reloaded.base(), *engine.base(), "full base round-trips");

    // Top-k equality across the reload, with the L0 prefilter on and
    // off: the prefilter is an optimisation, never an approximation, and
    // the persisted sketches must not change which candidates survive.
    let query: Vec<f64> = engine.dataset().series(8).unwrap().values()[3..15].to_vec();
    let on = QueryOptions::default();
    let off = QueryOptions::default().without_l0();
    let reference = windows(&engine.k_best(&query, K, &on).expect("valid query").0);
    assert!(!reference.is_empty(), "the query must actually match");
    for (label, engine_under_test, opts) in [
        ("saved engine, L0 off", &engine, &off),
        ("reloaded, L0 on", &reloaded, &on),
        ("reloaded, L0 off", &reloaded, &off),
    ] {
        let got = windows(
            &engine_under_test
                .k_best(&query, K, opts)
                .expect("valid query")
                .0,
        );
        assert_eq!(got, reference, "{label}: top-{K} diverged");
    }
}

/// The collections of the end-to-end harness's four workloads
/// (`benchmark/src/spec.rs`; `cluster` and `ingest` share one) at its toy
/// size — 8 series of 64 points — each with ten further series of the
/// same kind to append.
fn harness_collections(
    seed: u64,
    policy: RepresentativePolicy,
) -> Vec<(&'static str, Dataset, Vec<TimeSeries>, BaseConfig)> {
    let seed = SyntheticConfig {
        series: 18,
        len: 64,
        seed,
    };
    let walks = random_walk_dataset(seed);
    let clustered = || clustered_dataset(seed, 8, 0.08);
    [
        ("repeat", clustered(), (2.0, 16, 16)),
        ("cluster / ingest", walks, (1.0, 16, 24)),
        ("explore", clustered(), (1.0, 30, 32)),
    ]
    .into_iter()
    .map(|(name, all, (st, min_len, max_len))| {
        let mut series: Vec<TimeSeries> = all.iter().map(|(_, s)| s.clone()).collect();
        let spares = series.split_off(8);
        let config = BaseConfig {
            policy,
            ..BaseConfig::new(st, min_len, max_len)
        };
        (name, Dataset::from_series(series).unwrap(), spares, config)
    })
    .collect()
}

/// Answers down to the last bit of every distance.
fn answers(engine: &Onex, queries: &[Vec<f64>]) -> Vec<Vec<(u32, u32, u32, u64)>> {
    let opts = QueryOptions::default();
    queries
        .iter()
        .map(|q| {
            let (matches, _) = engine.k_best(q, 5, &opts).expect("valid query");
            assert!(!matches.is_empty());
            matches
                .iter()
                .map(|m| {
                    let w = m.subseq;
                    (w.series, w.start, w.len, m.distance.to_bits())
                })
                .collect()
        })
        .collect()
}

#[test]
fn built_decoded_and_adopted_bases_are_one_base_with_one_answer() {
    let mut answered = 0;
    for seed in [1, 2] {
        for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
            for (name, dataset, spares, config) in harness_collections(seed, policy) {
                let what = format!("{name}, seed {seed}, {policy:?}");
                let queries: Vec<Vec<f64>> = (0..17u32)
                    .map(|i| {
                        let len = config.min_len;
                        let series = dataset.series(i % 8).unwrap();
                        let window = series.subsequence((5 * i as usize) % 30, len);
                        let noisy = window.unwrap().iter().enumerate();
                        noisy.map(|(j, v)| v + 0.02 * (j as f64).cos()).collect()
                    })
                    .collect();

                let (built, _) = Onex::build(dataset.clone(), config.clone()).unwrap();
                let image = save_v2(&built.base());
                // The engine's lazy path hands the decoder its dataset.
                let opened = Onex::open_bytes(image.clone(), dataset.clone()).unwrap();
                opened.resolve_all().unwrap();
                let owned = |engine: &Onex| engine.base().footprint().owned_representatives;
                assert_eq!(owned(&opened), owned(&built), "{what}");
                if policy == RepresentativePolicy::Seed {
                    assert_eq!(owned(&built), 0, "{what}");
                }
                let mut same = |stage: &str| {
                    assert!(*opened.base() == *built.base(), "{what}, {stage}");
                    assert!(
                        opened.base().sketches() == built.base().sketches(),
                        "{what}, {stage}: sketches differ"
                    );
                    assert!(
                        save_v2(&opened.base()) == save_v2(&built.base()),
                        "{what}, {stage}: images differ"
                    );
                    let reference = answers(&built, &queries);
                    assert_eq!(answers(&opened, &queries), reference, "{what}, {stage}");
                    answered += reference.len();
                };
                same("as opened");
                assert!(
                    save_v2(&built.base()) == image,
                    "{what}: a save is repeatable"
                );

                for engine in [&built, &opened] {
                    for spare in &spares {
                        engine.append_series(spare.clone()).unwrap();
                    }
                }
                same("after ten appends");
            }
        }
    }
    assert!(answered >= 400, "{answered} answers compared");
}

#[test]
fn a_base_outlives_the_dataset_it_was_built_over() {
    let generate = || {
        random_walk_dataset(SyntheticConfig {
            series: 6,
            len: 40,
            seed: 0x0D1E,
        })
    };
    let config = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 8, 12)
    };
    let base = {
        let dataset = generate();
        let clone = dataset.clone();
        let (base, _) = BaseBuilder::new(config).unwrap().build(&clone);
        base
        // Both dataset handles drop here; the base keeps the series it
        // reads alive, and only those.
    };
    assert_eq!(base.footprint().owned_representatives, 0);
    let again = generate();
    for (id, group) in base.iter() {
        let first = again.resolve(group.members().at(0)).unwrap();
        assert_eq!(group.representative(), first, "{id}");
    }
    let audit = base.audit(&again);
    assert_eq!((audit.violations, audit.unresolvable), (0, 0), "{audit:?}");
    assert_eq!(audit.members_checked, base.member_count());
}

/// `image` with each section's bytes passed through `edit`, resealed
/// with fresh checksums.
fn resealed_with(image: &[u8], mut edit: impl FnMut(u32, &mut Vec<u8>)) -> Vec<u8> {
    use onex_storage::{Segment, SegmentBuilder};
    let segment = Segment::from_bytes(image.to_vec()).unwrap();
    let mut sealed = SegmentBuilder::new();
    for section in segment.directory() {
        let mut bytes = segment.section(section.id).unwrap().to_vec();
        edit(section.id, &mut bytes);
        sealed.section(section.id, bytes);
    }
    sealed.finish()
}

/// `image` resealed with `layout` in `CONFIG`'s layout byte and, when
/// given, `sketches` for its `SKETCHES` section.
fn resealed(image: &[u8], layout: u8, sketches: Option<&[u8]>) -> Vec<u8> {
    use onex::grouping::persist::{SEC_CONFIG, SEC_SKETCHES};
    resealed_with(image, |id, bytes| match (id, sketches) {
        (SEC_CONFIG, _) => bytes[22] = layout,
        (SEC_SKETCHES, Some(records)) => *bytes = records.to_vec(),
        _ => {}
    })
}

#[test]
fn a_later_member_that_is_no_window_is_refused_typed_at_every_door() {
    use onex::api::{OnexError, StorageErrorKind};
    use onex::grouping::persist::{BaseSegment, SEC_MEMBERS};
    use onex::tseries::SubseqRef;
    let dataset = random_walk_dataset(SyntheticConfig {
        series: 6,
        len: 40,
        seed: 0x1A70,
    });
    let config = BaseConfig::new(1.0, 8, 12);
    let (engine, _) = Onex::build(dataset.clone(), config.clone()).unwrap();
    let base = engine.base();
    // The `MEMBERS` record of the second member of the first group of
    // two and more: its first member resolves, so only a check of every
    // member sees it.
    let mut records = 0;
    let mut found = None;
    for (id, g) in base.iter() {
        if found.is_none() && g.cardinality() > 1 {
            found = Some((id.len as usize, records + 1));
        }
        records += g.cardinality();
    }
    let (len, record) = found.expect("a group of two and more");
    let image = resealed_with(&save_v2(&base), |id, bytes| {
        if id == SEC_MEMBERS {
            let start = &mut bytes[record * 8 + 4..][..4];
            start.copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
        }
    });
    let corrupt = |result: Result<(), OnexError>, what: &str| match result {
        Err(OnexError::Storage(e)) if e.kind == StorageErrorKind::Corrupt => {}
        other => panic!("{what}: {other:?}"),
    };
    // The sections tile and check out; the column does not decode.
    let segment = BaseSegment::from_bytes(image.clone()).unwrap();
    let mut cold = segment.empty_base(&dataset).unwrap();
    let decoded = segment.load_length(&mut cold, len, &dataset);
    corrupt(decoded.map(|_| ()), "load_length");

    // Opened, and adopted as a shard adopts a shipped image, the base
    // decodes the column on the first query that plans it: that query
    // gets the error, and nothing panics.
    let query = dataset.resolve(SubseqRef::new(0, 0, len as u32)).unwrap();
    let query = query.to_vec();
    let opts = QueryOptions::default();
    let opened = Onex::open_bytes(image.clone(), dataset.clone()).unwrap();
    corrupt(opened.k_best(&query, K, &opts).map(|_| ()), "open_bytes");
    let (shard, _) = Onex::build(dataset.clone(), config).unwrap();
    shard.install_base(image).unwrap();
    corrupt(shard.k_best(&query, K, &opts).map(|_| ()), "install_base");
}

#[test]
fn an_image_in_layout_one_is_refused_as_an_unsupported_version() {
    use onex::api::{OnexError, StorageErrorKind};
    use onex::distance::sketch::encode_into;
    use onex::distance::SKETCH_STRIDE;
    use onex::grouping::persist::BaseSegment;
    let dataset = random_walk_dataset(SyntheticConfig {
        series: 6,
        len: 40,
        seed: 0x1A70,
    });
    let (engine, _) = Onex::build(dataset.clone(), BaseConfig::new(1.0, 8, 12)).unwrap();
    let base = engine.base();
    let lone = base.iter().filter(|(_, g)| g.cardinality() == 1).count();
    assert!(lone > 0 && lone < base.stats().groups);
    // Layout 1 kept a sketch record for every member, a group of one's
    // included.
    let mut records = Vec::new();
    for len in base.lengths() {
        let params = base.sketches().for_len(len).unwrap().params();
        for member in base.groups_for_len(len).iter().flat_map(|g| g.members()) {
            let mut record = [0u8; SKETCH_STRIDE];
            encode_into(&params, dataset.resolve(member).unwrap(), &mut record);
            records.extend_from_slice(&record);
        }
    }
    let image = save_v2(&base);
    let old = resealed(&image, 1, Some(&records));
    let kind = |result: Result<(), OnexError>, what: &str| match result {
        Err(OnexError::Storage(e)) => e.kind,
        other => panic!("{what}: {other:?}"),
    };
    let unsupported = StorageErrorKind::UnsupportedVersion;
    let segment = BaseSegment::from_bytes(old.clone()).map(|_| ());
    assert_eq!(kind(segment, "from_bytes"), unsupported);
    let opened = Onex::open_bytes(old.clone(), dataset.clone()).map(|_| ());
    assert_eq!(kind(opened, "open_bytes"), unsupported);
    assert_eq!(
        kind(engine.install_base(old.clone()), "install_base"),
        unsupported
    );
    // The engine kept serving the base it had.
    assert_eq!(*engine.base(), *base);
    // Refused on the byte, not by accident: labelled with the current
    // layout its records do not add up, and the image it came from reads.
    let relabelled = BaseSegment::from_bytes(resealed(&old, 2, None)).map(|_| ());
    assert_eq!(kind(relabelled, "relabelled"), StorageErrorKind::Corrupt);
    assert!(BaseSegment::from_bytes(resealed(&image, 2, None)).is_ok());
}
