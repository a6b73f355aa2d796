//! The sketches a base carries are the records the one-window encoder
//! writes.
//!
//! The sketch sync builds them from per-series level columns
//! (`onex_distance::sketch::LevelColumn`); `encode_into` is the
//! reference. On the end-to-end harness's two base shapes — `cluster`
//! (random walks, nothing compacts: groups of one) and a cut-down
//! `explore` (a few shape families: groups of hundreds) — every member of
//! every group of two and more must hold exactly the record `encode_into`
//! writes for its window under the length's frozen parameters, and a
//! group of one must hold none: after a batch build and after thirty
//! appends, every third of which leaves the frozen range and repeats
//! itself, so that its windows group. The batch-built base's image is
//! pinned to a length
//! and checksum, so the stored sketches cannot move either (the radii are
//! sums in the kernel level's order, so the checksum is pinned per
//! level) — and however
//! the resident layout changes, a base decoded from that image beside its
//! dataset saves the same bytes.

use onex_distance::kernels::{level, KernelLevel};
use onex_distance::sketch::encode_into;
use onex_distance::SKETCH_STRIDE;
use onex_grouping::persist::{save_v2, BaseSegment};
use onex_grouping::{BaseBuilder, BaseConfig, OnexBase, RepresentativePolicy, ResidentIndex};
use onex_storage::fnv1a64;
use onex_tseries::gen::{clustered_dataset, random_walk_dataset, SyntheticConfig};
use onex_tseries::{Dataset, TimeSeries};

fn builder(min_len: usize, max_len: usize) -> BaseBuilder {
    BaseBuilder::new(BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, min_len, max_len)
    })
    .unwrap()
}

/// Every slot of every group against the reference — none for a group
/// of one; returns how many of them are the non-pruning placeholder.
fn assert_sketches_are_the_references(base: &OnexBase, dataset: &Dataset, what: &str) -> usize {
    let mut invalid = 0;
    for len in base.lengths() {
        let sketches = base.sketches().for_len(len).expect("every length synced");
        let params = sketches.params();
        for (gi, group) in base.groups_for_len(len).iter().enumerate() {
            let planes = sketches.group(gi).expect("every group synced");
            let sketched = if group.cardinality() > 1 {
                group.cardinality()
            } else {
                0
            };
            assert_eq!(planes.cardinality(), sketched, "{what} g{gi}@{len}");
            for (slot, member) in group.members().iter().take(sketched).enumerate() {
                let mut want = [0u8; SKETCH_STRIDE];
                encode_into(&params, dataset.resolve(member).unwrap(), &mut want);
                assert_eq!(
                    planes.record(slot),
                    want,
                    "{what} g{gi}@{len} slot {slot}: {member:?}"
                );
                invalid += usize::from(want[0] != 0);
            }
        }
    }
    invalid
}

/// Batch build (image pinned to `golden` = length, FNV-1a under AVX2,
/// FNV-1a under the scalar kernels) and a base grown from
/// the first `dataset.len() - 30` series by thirty appends, every third
/// one blown out of the frozen range and made of its first 32 points
/// over and over: its windows repeat, so they form groups of two and
/// more, and get sketched, even where nothing else compacts.
fn check_shape(what: &str, dataset: &Dataset, builder: &BaseBuilder, golden: (usize, u64, u64)) {
    let (batch, _) = builder.build(dataset);
    assert_eq!(
        assert_sketches_are_the_references(&batch, dataset, what),
        0,
        "{what}: a batch build freezes the range of everything it sketches"
    );
    let image = save_v2(&batch);
    let checksum = match level() {
        KernelLevel::Avx2 => golden.1,
        KernelLevel::Scalar => golden.2,
    };
    assert_eq!(
        (image.len(), fnv1a64(&image)),
        (golden.0, checksum),
        "{what}: the image moved ({:#018x})",
        fnv1a64(&image)
    );

    // The image gives the base back, sketches and all, beside its dataset
    // (groups reading their windows in place).
    let segment = BaseSegment::from_bytes(image.clone()).unwrap();
    let loaded = segment.decode(dataset).unwrap();
    assert!(loaded == batch, "{what}: decoded");
    assert!(loaded.sketches() == batch.sketches(), "{what}: decoded");
    assert!(save_v2(&loaded) == image, "{what}: decoded image");

    let all: Vec<TimeSeries> = dataset.iter().map(|(_, s)| s.clone()).collect();
    let (head, tail) = all.split_at(all.len() - 30);
    let mut grown = Dataset::from_series(head.to_vec()).unwrap();
    let (mut base, _) = builder.build(&grown);
    let mut resident = ResidentIndex::new();
    for (i, series) in tail.iter().enumerate() {
        let values = series.values().iter();
        let values = match i % 3 {
            0 => {
                let period: Vec<f64> = values.take(32).map(|v| 4.0 * v + 1.0).collect();
                period.iter().cycle().take(series.len()).copied().collect()
            }
            _ => values.copied().collect(),
        };
        grown.push(TimeSeries::new(series.name(), values)).unwrap();
        base = builder
            .extend_resident(&base, &grown, &mut resident)
            .unwrap()
            .0;
    }
    let invalid = assert_sketches_are_the_references(&base, &grown, what);
    assert!(
        invalid > 0,
        "{what}: no appended window left the frozen range"
    );
}

#[test]
fn the_cluster_shape_sketches_what_the_per_window_encoder_sketched() {
    // 48 x 256 random walks, lengths 16..=24: 102 384 groups of one.
    let dataset = random_walk_dataset(SyntheticConfig {
        series: 48,
        len: 256,
        seed: 7,
    });
    check_shape(
        "cluster",
        &dataset,
        &builder(16, 24),
        (3_292_808, 0x0ef6_5c5f_41c1_5a41, 0x8d81_cc05_5df3_9ed5),
    );
}

#[test]
fn a_cut_down_explore_shape_sketches_what_the_per_window_encoder_sketched() {
    // 8 shape families, jitter 0.08, lengths 30..=32 (the harness loads
    // 128 x 512 of it): a few dozen groups of hundreds of members.
    let cfg = SyntheticConfig {
        series: 40,
        len: 192,
        seed: 7,
    };
    let dataset = clustered_dataset(cfg, 8, 0.08);
    let builder = builder(30, 32);
    let (base, _) = builder.build(&dataset);
    assert!(
        base.member_count() > 100 * base.group_count(),
        "the shape stopped compacting: {} groups of {} members",
        base.group_count(),
        base.member_count()
    );
    check_shape(
        "explore",
        &dataset,
        &builder,
        (638_592, 0x925c_1bf0_2c43_94ff, 0xccca_d65d_bb87_ac80),
    );
}
