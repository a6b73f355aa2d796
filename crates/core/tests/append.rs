//! `Onex::append_series` builds the next epoch aside from the published
//! one through the writer's resident index. Two things must hold
//! whatever that index is doing: the base it produces is the one a batch
//! build of the final collection produces, and the epochs it publishes
//! share — not copy — everything the append did not change, without a
//! pinned reader ever noticing.

#[path = "../../grouping/tests/model/mod.rs"]
mod model;

use onex_core::{exhaustive, Onex, QueryOptions};
use onex_grouping::persist::save_v2;
use onex_grouping::{
    BaseBuilder, BaseConfig, GroupColumn, GroupView, OnexBase, RepresentativePolicy,
};
use onex_tseries::gen::{random_walk, random_walk_dataset, SyntheticConfig};
use onex_tseries::{Dataset, TimeSeries};
use proptest::prelude::*;

/// How the engine under test came up and what happens to its base
/// between appends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Start {
    /// `Onex::build`: warm, every column resident.
    Built,
    /// `Onex::open_bytes`: the image decoded whole at open.
    Opened,
    /// Built, then between the first and second append a base built
    /// under a looser threshold is installed: the index seeded by the
    /// first append mirrors groups that are no longer the published ones.
    Reinstalled,
}

fn start_of(n: usize) -> Start {
    [Start::Built, Start::Opened, Start::Reinstalled][n % 3]
}

fn prefix(all: &Dataset, n: usize) -> Dataset {
    Dataset::from_series(all.iter().take(n).map(|(_, s)| s.clone()).collect())
        .expect("generated names are unique")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// k successive appends leave exactly the base `BaseBuilder::build`
    /// makes of the final collection — the model's, which a linear scan
    /// builds — under either representative policy, on warm, cold-opened
    /// and re-installed bases; every report carries the epoch and series
    /// count its own commit produced, and every member has its sketch
    /// slot.
    #[test]
    fn successive_appends_equal_a_batch_build(
        (series, len, seed) in (3usize..7, 14usize..36, 0u64..10_000),
        st in 0.3f64..3.0,
        start in 0usize..3,
    ) {
        let start = start_of(start);
        let all = random_walk_dataset(SyntheticConfig { series, len, seed });
        let initial = prefix(&all, 2);
        for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
            let mut cfg = BaseConfig { policy, ..BaseConfig::new(st, 4, 9) };
            let (warm, _) = Onex::build(initial.clone(), cfg.clone()).unwrap();
            let engine = match start {
                Start::Opened => {
                    Onex::open_bytes(save_v2(&warm.base()), initial.clone()).unwrap()
                }
                _ => warm,
            };
            for (i, (_, s)) in all.iter().skip(2).enumerate() {
                if start == Start::Reinstalled && i == 1 {
                    cfg = BaseConfig { st: st * 1.5, ..cfg };
                    let (other, _) = BaseBuilder::new(cfg.clone())
                        .unwrap()
                        .build(&engine.dataset());
                    engine.install_base(save_v2(&other)).unwrap();
                    prop_assert_ne!(
                        engine.resident_index().epoch, Some(engine.epoch()),
                        "the index must not claim the installed base"
                    );
                }
                let report = engine.append_series(s.clone()).unwrap();
                prop_assert_eq!(report.epoch, engine.epoch());
                prop_assert_eq!(report.series, 3 + i);
                prop_assert_eq!(engine.resident_index().epoch, Some(report.epoch));
            }
            let (batch, built) = BaseBuilder::new(cfg.clone()).unwrap().build(&all);
            let base = engine.base();
            prop_assert!(*base == batch, "{:?} from {:?}", policy, start);
            model::assert_matches(&model::build(&all, &cfg), &base, &format!("{policy:?} from {start:?}"));
            prop_assert_eq!(base.member_count(), built.subsequences);
            for len in base.lengths() {
                let sketches = base.sketches().for_len(len).expect("every length is sketched");
                for (gi, g) in base.groups_for_len(len).iter().enumerate() {
                    // Every member of a group of two and more; a group
                    // of one keeps no sketch.
                    let sketched = if g.cardinality() > 1 { g.cardinality() } else { 0 };
                    prop_assert_eq!(
                        sketches.group(gi).map(|planes| planes.cardinality()),
                        Some(sketched),
                        "g{}@{}", gi, len
                    );
                }
            }
        }
    }
}

fn exact_config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 8, 10)
    }
}

#[test]
fn an_append_shares_what_it_did_not_change_and_pinned_readers_keep_their_epoch() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 6,
        len: 48,
        seed: 0x5EED,
    });
    let query: Vec<f64> = ds
        .series(1)
        .unwrap()
        .subsequence(7, 9)
        .unwrap()
        .iter()
        .enumerate()
        .map(|(i, v)| v + 0.03 * (i as f64 * 1.3).sin())
        .collect();
    let (engine, _) = Onex::build(ds, exact_config()).unwrap();
    let opts = QueryOptions::default();
    let pinned = engine.snapshot();
    let (before, _) = pinned.k_best(&query, 3, &opts).unwrap();

    // A near-copy of series 2 joins existing groups (they split from the
    // published ones); a fresh walk mostly seeds groups of its own.
    let near: Vec<f64> = pinned
        .dataset()
        .series(2)
        .unwrap()
        .values()
        .iter()
        .map(|v| v + 0.01)
        .collect();
    engine
        .append_series(TimeSeries::new("near-2", near))
        .unwrap();
    engine
        .append_series(TimeSeries::new("fresh", random_walk(48, 1.0, 99)))
        .unwrap();
    let now = engine.snapshot();
    assert_eq!((pinned.epoch(), now.epoch()), (0, 2));

    let (mut shared, mut split, mut seeded, mut inline) = (0, 0, 0, 0);
    for len in pinned.base().lengths() {
        let old = pinned.base().groups_for_len(len);
        let new = now.base().groups_for_len(len);
        let old_sketches = pinned.base().sketches().for_len(len).unwrap();
        let new_sketches = now.base().sketches().for_len(len).unwrap();
        seeded += new.len() - old.len();
        for (gi, (o, n)) in old.iter().zip(new).enumerate() {
            let (old_planes, new_planes) = (
                old_sketches.group(gi).unwrap(),
                new_sketches.group(gi).unwrap(),
            );
            let same_planes = new_planes.shares_storage_with(old_planes);
            let sketched = |g: GroupView<'_>| if g.is_lone() { 0 } else { g.cardinality() };
            assert_eq!(new_planes.cardinality(), sketched(n));
            // A frozen representative is a window of a series both
            // epochs' datasets share: admission or not, both groups read
            // the very samples the first member resolves to.
            let window = pinned.dataset().resolve(o.members().at(0)).unwrap();
            assert!(std::ptr::eq(o.representative(), window), "g{gi}@{len}");
            assert!(std::ptr::eq(n.representative(), window), "g{gi}@{len}");
            if n.cardinality() == o.cardinality() {
                // "Shared" is the same series handle at the same offset
                // and the same block behind the slot's pointer — for a
                // group of one, which has none, the same lone member, and
                // on either side no sketch at all.
                assert!(n.shares_storage_with(o), "untouched g{gi}@{len} was copied");
                assert!(same_planes, "untouched planes g{gi}@{len} were copied");
                if n.cardinality() == 1 {
                    assert!(n.is_lone() && n.planes().is_none() && old_planes.cardinality() == 0);
                    inline += 1;
                }
                shared += 1;
            } else {
                assert!(!n.shares_storage_with(o) && !same_planes);
                // The pinned epoch still reads the planes it had — none
                // where the group was a group of one.
                assert_eq!(old_planes.cardinality(), sketched(o));
                // The published epoch's group did not see the admission.
                let kept = n.members().iter().take(o.cardinality());
                assert!(kept.eq(o.members()));
                split += 1;
            }
        }
    }
    assert!(
        shared > inline && inline > 0 && split > 0 && seeded > 0,
        "shared {shared} (inline {inline}), split {split}, seeded {seeded}: \
         the collection must exercise all four"
    );
    for id in 0..pinned.dataset().len() as u32 {
        assert!(std::ptr::eq(
            pinned.dataset().series(id).unwrap(),
            now.dataset().series(id).unwrap()
        ));
    }

    // The reader pinned at epoch 0 still answers epoch 0's oracle — the
    // same answer as before the appends, which is the exhaustive scan of
    // the collection it pinned (Seed policy: exact) — while the engine
    // answers the oracle of the collection it has grown into.
    let agrees_with_scan = |matches: &[onex_core::Match], dataset: &Dataset| {
        let oracle = exhaustive::scan_k(dataset, &query, &[9], 1, &opts, 3, false).unwrap();
        assert_eq!(matches.len(), oracle.len());
        for (m, hit) in matches.iter().zip(&oracle) {
            assert_eq!(m.subseq, hit.subseq);
            assert_eq!(m.distance.to_bits(), hit.distance.to_bits());
        }
    };
    let (after, _) = pinned.k_best(&query, 3, &opts).unwrap();
    assert_eq!(before, after);
    agrees_with_scan(&after, pinned.dataset());
    assert_eq!(pinned.dataset().len(), 6);
    let (grown, _) = engine.k_best(&query, 3, &opts).unwrap();
    agrees_with_scan(&grown, now.dataset());
    assert_eq!(now.dataset().len(), 8);
}

/// Check `new`, extended from `old`, block by block: a column block is
/// `new`'s own exactly when a group in it admitted a member or was
/// seeded, and every other block is `old`'s, by pointer — the groups'
/// sketches included, which sit in the same blocks. Returns how many
/// groups admitted and how many blocks were written.
fn written_blocks_are_the_only_ones_copied(old: &OnexBase, new: &OnexBase) -> (usize, usize) {
    let (mut admitted, mut written_blocks, mut blocks) = (0, 0, 0);
    for len in new.lengths() {
        let (was, now) = (old.groups_for_len(len), new.groups_for_len(len));
        let block_of = GroupColumn::block_of;
        let mut written = std::collections::BTreeSet::new();
        for (gi, g) in now.iter().enumerate() {
            match was.get(gi) {
                Some(o) if o.cardinality() == g.cardinality() => {}
                Some(_) => {
                    admitted += 1;
                    written.insert(block_of(gi));
                }
                None => {
                    written.insert(block_of(gi));
                }
            }
        }
        for block in 0..now.block_count() {
            assert_eq!(
                now.shares_block(was, block),
                !written.contains(&block),
                "groups {block}@{len}"
            );
        }
        written_blocks += written.len();
        blocks += now.block_count();
    }
    // The base's own count says the same: one column a length.
    assert_eq!(
        (new.shared_blocks(old), new.block_count()),
        (blocks - written_blocks, blocks)
    );
    (admitted, written_blocks)
}

#[test]
fn an_append_copies_the_blocks_it_writes_and_shares_every_other_with_the_previous_epoch() {
    // Columns of a few hundred to a thousand groups: several blocks each.
    let ds = random_walk_dataset(SyntheticConfig {
        series: 20,
        len: 64,
        seed: 0xB10C,
    });
    let (engine, built) = Onex::build(ds, exact_config()).unwrap();
    assert_eq!(built.blocks_copied, built.blocks_total);
    let lengths = engine.base().lengths().count();
    assert!(
        built.blocks_total >= 3 * lengths,
        "{} blocks: the columns must span several",
        built.blocks_total
    );

    // A walk far from everything indexed seeds groups and joins none of
    // the published ones: every block but each column's tail is shared.
    let epoch0 = engine.snapshot();
    let image0 = save_v2(epoch0.base());
    let far: Vec<f64> = random_walk(64, 1.0, 7).iter().map(|v| v + 1e4).collect();
    let report = engine.append_series(TimeSeries::new("far", far)).unwrap();
    let epoch1 = engine.snapshot();
    let (admitted, written) = written_blocks_are_the_only_ones_copied(epoch0.base(), epoch1.base());
    assert_eq!(admitted, 0, "the far walk joined a published group");
    // The tail block, and the one begun after it where a column crossed
    // a block edge.
    assert!((lengths..=2 * lengths).contains(&written), "{written}");
    assert_eq!(
        (report.blocks_copied, report.blocks_total),
        (written, epoch1.base().block_count())
    );
    assert!(report.blocks_copied * 3 < report.blocks_total);

    // A near-copy of series 3 joins the groups series 3's windows are in:
    // exactly those groups' blocks are copied.
    let near: Vec<f64> = epoch1
        .dataset()
        .series(3)
        .unwrap()
        .values()
        .iter()
        .map(|v| v + 0.01)
        .collect();
    let image1 = save_v2(epoch1.base());
    let report = engine
        .append_series(TimeSeries::new("near-3", near))
        .unwrap();
    let epoch2 = engine.snapshot();
    let (admitted, written) = written_blocks_are_the_only_ones_copied(epoch1.base(), epoch2.base());
    assert!(admitted > 5 * lengths, "{admitted} admissions");
    assert_eq!(report.blocks_copied, written);
    assert!(report.blocks_copied * 2 < report.blocks_total);

    // Neither earlier epoch saw a write: each still saves the image it
    // saved before the append that followed it.
    assert!(save_v2(epoch0.base()) == image0);
    assert!(save_v2(epoch1.base()) == image1);
}

#[test]
fn thirty_appends_on_the_cluster_shape_equal_a_batch_build_to_the_bit() {
    // The end-to-end harness's `cluster` / `ingest` shape at toy size:
    // random walks, lengths 16..=24, ST 1.0, frozen seeds.
    let config = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 16, 24)
    };
    let walks = random_walk_dataset(SyntheticConfig {
        series: 38,
        len: 64,
        seed: 22,
    });
    // Sketch quantisation is frozen from the value range a length first
    // sees: lead with the two series that span the collection's, so the
    // appended base and the batch build freeze the same parameters.
    let low = |s: &TimeSeries| s.values().iter().copied().fold(f64::INFINITY, f64::min);
    let high = |s: &TimeSeries| s.values().iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let by = |f: &dyn Fn(&TimeSeries) -> f64, a: &TimeSeries, b: &TimeSeries| f(a).total_cmp(&f(b));
    let (lowest, _) = walks.iter().min_by(|a, b| by(&low, a.1, b.1)).unwrap();
    let (highest, _) = walks.iter().max_by(|a, b| by(&high, a.1, b.1)).unwrap();
    assert_ne!(lowest, highest);
    let mut order: Vec<u32> = vec![lowest, highest];
    order.extend((0..walks.len() as u32).filter(|id| ![lowest, highest].contains(id)));
    let series = |id: &u32| walks.series(*id).unwrap().clone();
    let all = Dataset::from_series(order.iter().map(series).collect()).unwrap();

    let (engine, _) = Onex::build(prefix(&all, 8), config.clone()).unwrap();
    for (_, s) in all.iter().skip(8) {
        engine.append_series(s.clone()).unwrap();
    }
    assert_eq!(engine.epoch(), 30);
    let (batch, _) = Onex::build(all.clone(), config).unwrap();
    assert!(*engine.base() == *batch.base());
    assert!(save_v2(&engine.base()) == save_v2(&batch.base()));

    let opts = QueryOptions::default();
    for (sid, start, len) in [
        (0u32, 3usize, 16usize),
        (9, 20, 20),
        (37, 40, 24),
        (21, 0, 18),
    ] {
        let query: Vec<f64> = all
            .series(sid)
            .unwrap()
            .subsequence(start, len)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.05 * (i as f64).cos())
            .collect();
        let (appended, _) = engine.k_best(&query, 5, &opts).unwrap();
        let (built, _) = batch.k_best(&query, 5, &opts).unwrap();
        assert_eq!(appended.len(), 5);
        for (a, b) in appended.iter().zip(&built) {
            assert_eq!(
                (a.subseq, a.distance.to_bits()),
                (b.subseq, b.distance.to_bits())
            );
        }
    }
}

#[test]
fn a_taken_name_is_refused_before_a_cold_engine_resolves_or_seeds_anything() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 4,
        len: 40,
        seed: 11,
    });
    let (warm, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let cold = Onex::open_bytes(save_v2(&warm.base()), ds.clone()).unwrap();
    let taken = ds.series(0).unwrap().name().to_owned();
    let err = cold
        .append_series(TimeSeries::new(taken, vec![0.0; 40]))
        .expect_err("the name is taken");
    assert!(
        matches!(err, onex_api::OnexError::DatasetMismatch(_)),
        "{err:?}"
    );
    assert_eq!(cold.epoch(), 0, "nothing was published");
    assert!(*cold.base() == *warm.base(), "the base is untouched");
    let resident = cold.resident_index();
    assert_eq!(
        (resident.kind, resident.entries, resident.seeds),
        ("none", 0, 0)
    );
}

#[test]
fn a_sample_that_is_not_finite_is_refused_with_nothing_published_or_unstamped() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 4,
        len: 40,
        seed: 11,
    });
    let (engine, _) = Onex::build(ds, exact_config()).unwrap();
    engine
        .append_series(TimeSeries::new("first", random_walk(40, 1.0, 3)))
        .unwrap();
    let stamped = engine.resident_index();
    assert_eq!(stamped.epoch, Some(1));
    let image = save_v2(&engine.base());

    for (i, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        let mut values = random_walk(40, 1.0, 5);
        values[5 + i] = bad;
        values[30] = f64::NAN;
        let err = engine
            .append_series(TimeSeries::new(format!("bad{i}"), values))
            .expect_err("no query could be cut from it");
        match err {
            onex_api::OnexError::InvalidData(msg) => {
                assert!(msg.contains(&format!("sample {} ", 5 + i)), "{msg}")
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(engine.epoch(), 1, "nothing was published");
        assert_eq!(engine.resident_index().epoch, Some(1), "still stamped");
    }
    assert_eq!(engine.dataset().len(), 5);
    assert_eq!(save_v2(&engine.base()), image);

    // The next good append lands on the next epoch through the index the
    // first one seeded.
    let report = engine
        .append_series(TimeSeries::new("second", random_walk(40, 1.0, 7)))
        .unwrap();
    assert_eq!((report.epoch, report.series), (2, 6));
    let after = engine.resident_index();
    assert_eq!((after.epoch, after.seeds), (Some(2), stamped.seeds));
}
