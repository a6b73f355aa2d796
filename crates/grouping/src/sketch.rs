//! Quantised-PAA sketches over the base's members — the storage side of
//! the L0 prefilter tier.
//!
//! Every member of every similarity group of two or more gets a sketch
//! ([`onex_distance::sketch`]), 21 plane-major bytes a member, kept in
//! the group's own [`onex_distance::SketchPlanes`]. The searcher gets a
//! [`PlanesRef`] ([`crate::GroupView::planes`]), tests a run of a
//! group's members at a time ([`onex_distance::QuerySketch::survivors`])
//! and rejects those whose sketch lower bound already exceeds the pruning
//! bound — before resolving any f64 data — a whole zone of 64 members at
//! a time where the zone's hull already does. Each sketch is tagged with
//! its member's series, so a zone also knows the series it spans. A group
//! of one keeps no sketch:
//! its representative is its member's window, so the representative's
//! DTW, which the search computes anyway, answers for the member. On a
//! collection that does not compact that is nearly every window. The
//! plane order is `onex_distance`'s business: this module hands it
//! encoded records and never indexes a plane.
//! [`SketchIndex`] and [`LengthSketches`] are read-only views of that
//! storage, kept for the callers that ask "what is sketched, and under
//! which quantiser?".
//!
//! Sketches are *derived* data — rebuildable from the dataset and
//! excluded from base equality — but they are also *persisted* (as
//! 24-byte records, see [`crate::persist`]), so a loaded base prunes with
//! L0 immediately instead of paying a rebuild.
//! Quantisation parameters are frozen per length the first time that
//! length is synced, so a sketch byte written once stays valid forever;
//! appended values that fall outside the frozen range simply encode as
//! non-pruning (invalid) sketches, keeping incremental extension sound
//! without requantising. Persisting the frozen parameters alongside the
//! records is what makes a save/load cycle byte-preserving. A group that
//! admitted members the sync has not reached yet offers no planes, so L0
//! passes its members through.
//!
//! What a sync quantises is points, not windows. Every construction path
//! — batch build, incremental extension — sketches through this module's
//! one per-length step, which the worker that built or extended a length
//! ends it with, and that step visits the groups of two and more only. A
//! construction quantises each series it meets a new slot of once, into
//! a [`LevelColumn`] under the parameters its lengths were frozen with,
//! which the workers of every length then read (`Levels`: a batch
//! build freezes every length alike, so three lengths quantise a series
//! once, not three times), and every window of the series is read off
//! the column: an append pays for the points of the series it sketches,
//! not for its 2 133 windows × 20 levels. The records are
//! [`encode_into`]'s, byte for byte, written into the group's new planes,
//! whose zones are widened a run of slots at a time. A
//! construction keeps nothing: the columns (two bytes a point) are gone
//! when it returns.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use onex_distance::sketch::{encode_into, LevelColumn};
use onex_distance::{PlanesRef, SketchParams};
use onex_tseries::{Dataset, SubseqRef};

use crate::GroupColumn;

/// The sketches of one subsequence length, as its column holds them: the
/// frozen quantisation parameters plus one run of slots per group (none
/// for a group of one).
///
/// A view: the bytes sit in the planes of the groups of two and more.
/// Equality is byte-exact over parameters and slots.
#[derive(Debug, Clone, Copy)]
pub struct LengthSketches<'a> {
    params: SketchParams,
    column: &'a GroupColumn,
}

impl PartialEq for LengthSketches<'_> {
    fn eq(&self, other: &Self) -> bool {
        let slots = |ls: &Self| ls.column.iter().map(|group| group.sketched());
        self.params == other.params
            && self.column.len() == other.column.len()
            && slots(self).eq(slots(other))
    }
}

impl<'a> LengthSketches<'a> {
    /// `column`'s sketches, if it has been synced.
    fn of(column: &'a GroupColumn) -> Option<Self> {
        let params = column.params()?;
        Some(LengthSketches { params, column })
    }

    /// Quantisation parameters every sketch of this length was encoded
    /// under (frozen at first sync).
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// The sketches of group `index` synced so far — slot `i` sketching
    /// `group.members()[i]`, no slot for a group of one — if there is
    /// such a group.
    #[inline]
    pub fn group(&self, index: usize) -> Option<PlanesRef<'a>> {
        Some(self.column.get(index)?.sketched())
    }
}

/// All member sketches of a base, keyed by subsequence length: a view of
/// the columns that have been synced ([`crate::OnexBase::sketches`]).
///
/// Derived from the dataset + groups by every construction path; cheap
/// to rebuild, append-only under incremental extension. Equality is byte-exact over slots and
/// parameters — the property persistence round-trip tests pin.
#[derive(Debug, Clone, Copy)]
pub struct SketchIndex<'a> {
    columns: &'a BTreeMap<usize, GroupColumn>,
}

impl PartialEq for SketchIndex<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.synced().eq(other.synced())
    }
}

impl<'a> SketchIndex<'a> {
    pub(crate) fn of(columns: &'a BTreeMap<usize, GroupColumn>) -> Self {
        SketchIndex { columns }
    }

    /// The synced lengths, ascending, each with its sketches.
    fn synced(&self) -> impl Iterator<Item = (usize, LengthSketches<'a>)> + 'a {
        let columns = self.columns.iter();
        columns.filter_map(|(&len, column)| Some((len, LengthSketches::of(column)?)))
    }

    /// Sketches for one subsequence length, if that length has been
    /// synced.
    #[inline]
    pub fn for_len(&self, len: usize) -> Option<LengthSketches<'a>> {
        LengthSketches::of(self.columns.get(&len)?)
    }

    /// True when no length has been synced yet.
    pub fn is_empty(&self) -> bool {
        self.synced().next().is_none()
    }
}

/// The level columns one construction sketches from: one per series of
/// the dataset, under one quantiser — the one the first length to sync
/// was frozen with (a batch build freezes every length with the same
/// one) — each quantised the first time a sync meets the series and
/// shared by the workers of every length from then on. They die with the
/// construction.
pub(crate) struct Levels<'a> {
    dataset: &'a Dataset,
    /// The parameters a length synced for the first time is frozen with:
    /// fit to the dataset's range, worked out once.
    fresh: OnceLock<SketchParams>,
    /// The shared columns.
    shared: OnceLock<SeriesLevels<'a>>,
}

impl<'a> Levels<'a> {
    pub(crate) fn new(dataset: &'a Dataset) -> Self {
        Levels {
            dataset,
            fresh: OnceLock::new(),
            shared: OnceLock::new(),
        }
    }

    /// The parameters a new length is frozen with.
    fn fresh(&self) -> SketchParams {
        *self.fresh.get_or_init(|| {
            let (min, max) = value_range(self.dataset);
            SketchParams::fit(min, max)
        })
    }
}

/// One lazily quantised [`LevelColumn`] per series, under `params`.
struct SeriesLevels<'a> {
    params: SketchParams,
    columns: Box<[OnceLock<LevelColumn<'a>>]>,
}

impl<'a> SeriesLevels<'a> {
    fn new(dataset: &Dataset, params: SketchParams) -> Self {
        SeriesLevels {
            params,
            columns: (0..dataset.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Fill `record` with `member`'s sketch, quantising its series first
    /// if no sync has met it yet.
    fn encode(&self, dataset: &'a Dataset, member: SubseqRef, record: &mut [u8]) {
        let (start, len) = (member.start as usize, member.len as usize);
        let series = dataset.series(member.series);
        let Some(series) = series.filter(|s| s.subsequence(start, len).is_some()) else {
            // An unresolvable reference cannot happen on a consistent
            // base; encode a non-pruning sketch so the planes stay
            // slot-aligned regardless.
            return encode_into(&self.params, &[], record);
        };
        self.columns[member.series as usize]
            .get_or_init(|| LevelColumn::new(self.params, series.values()))
            .encode_window(start, len, record);
    }
}

/// Bring the sketches of one length's `column` up to date with its
/// groups, visiting only the groups at the `which` indices (the caller
/// knows no other group gained a member; repeated indices are harmless):
/// freeze the parameters if the length is new, sketch the members of
/// groups of two and more not yet covered from `levels` (from level
/// columns of its own when the length was frozen with other parameters).
/// Existing bytes are never rewritten — member lists only grow at the
/// tail (admission order), so a sync is incremental and idempotent; a
/// group that gained members gets new planes (its old slots plus the new
/// ones, its first member's too when it grew from one) and every other
/// group's storage stays shared with the column this one was cloned from.
pub(crate) fn sync_length(
    levels: &Levels<'_>,
    column: &mut GroupColumn,
    which: impl Iterator<Item = usize>,
) {
    let params = column.params().unwrap_or_else(|| {
        let params = levels.fresh();
        column.set_params(params);
        params
    });
    let shared = levels
        .shared
        .get_or_init(|| SeriesLevels::new(levels.dataset, params));
    let own;
    let table = if shared.params == params {
        shared
    } else {
        own = SeriesLevels::new(levels.dataset, params);
        &own
    };
    for index in which {
        column.sketch_group(index, |member, record| {
            table.encode(levels.dataset, member, record);
        });
    }
}

/// Min/max over every sample of every series in the dataset, ignoring
/// non-finite values. Empty / all-non-finite datasets yield an inverted
/// range, which [`SketchParams::fit`] maps to safe degenerate parameters.
fn value_range(dataset: &Dataset) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for (_, series) in dataset.iter() {
        for &v in series.values() {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
    }
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::series_table;
    use crate::{BaseBuilder, BaseConfig, OnexBase};
    use onex_distance::{SKETCH_STRIDE, ZONE_SLOTS};
    use onex_tseries::TimeSeries;
    use proptest::prelude::*;

    fn dataset(seriess: &[&[f64]]) -> Dataset {
        Dataset::from_series(
            seriess
                .iter()
                .enumerate()
                .map(|(i, v)| TimeSeries::new(format!("s{i}"), v.to_vec()))
                .collect(),
        )
        .unwrap()
    }

    fn walk(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.max(1);
        let mut v = 0.0;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v += (state % 2000) as f64 / 1000.0 - 1.0;
                v
            })
            .collect()
    }

    /// `base`'s groups with nothing sketched: every column replayed, seed
    /// by seed and admission by admission, into a fresh one.
    fn unsketched(base: &OnexBase, ds: &Dataset) -> OnexBase {
        let centroid = base.config().policy == crate::RepresentativePolicy::Centroid;
        let columns = base.raw_groups().iter().map(|(&len, groups)| {
            let mut column = GroupColumn::over(base.series().clone());
            for (index, g) in groups.iter().enumerate() {
                let mut members = g.members().iter();
                assert!(column.push_seed(members.next().unwrap()));
                for m in members {
                    column.admit(index, m, ds.resolve(m).unwrap(), g.radius(), centroid);
                }
            }
            (len, column)
        });
        let columns = columns.collect();
        OnexBase::from_parts(base.config().clone(), columns, base.series().clone())
    }

    #[test]
    fn sync_covers_every_member_and_is_idempotent() {
        let ds = dataset(&[&walk(3, 40), &walk(7, 33)]);
        let builder = BaseBuilder::new(BaseConfig::new(4.0, 6, 10)).unwrap();
        let (built, _) = builder.build(&ds);
        let mut base = unsketched(&built, &ds);
        assert!(base == built && base.sketches().is_empty());
        for (_, g) in base.iter() {
            assert!(g.planes().is_none() && g.sketched().cardinality() == 0);
        }
        base.sync_sketches(&ds);
        let mut lone = 0;
        for (&len, groups) in base.raw_groups() {
            let ls = base.sketches().for_len(len).expect("length synced");
            for (gi, g) in groups.iter().enumerate() {
                let planes = ls.group(gi).expect("group synced");
                if g.cardinality() == 1 {
                    // A group of one keeps no sketch.
                    assert_eq!(planes.cardinality(), 0, "g{gi}@{len}");
                    assert_eq!(g.planes(), None);
                    lone += 1;
                } else {
                    assert_eq!(planes.cardinality(), g.cardinality(), "g{gi}@{len}");
                    assert_eq!(g.planes(), Some(planes));
                }
            }
            assert!(ls.group(groups.len()).is_none());
        }
        assert!(lone > 0 && lone < base.stats().groups);
        // From nothing it is the pass the build ran.
        assert!(base.sketches() == built.sketches());
        let before = base.clone();
        base.sync_sketches(&ds);
        assert!(base.sketches() == before.sketches(), "idempotent");
        assert_eq!(base.shared_blocks(&before), base.block_count());
    }

    #[test]
    fn sketch_bounds_never_exceed_dtw_against_members() {
        use onex_distance::{dtw_sq, Band, Envelope, QuerySketch};
        let ds = dataset(&[&walk(11, 48)]);
        let builder = BaseBuilder::new(BaseConfig::new(2.0, 8, 8)).unwrap();
        let (base, _) = builder.build(&ds);
        let query = walk(5, 8);
        let env = Envelope::build(&query, 2);
        let ls = base.sketches().for_len(8).expect("length 8 indexed");
        let qs = QuerySketch::new(&query, &env, ls.params());
        for (gi, g) in base.groups_for_len(8).iter().enumerate() {
            let planes = ls.group(gi).unwrap();
            for (slot, m) in g.members().iter().enumerate() {
                let xs = ds.resolve(m).unwrap();
                let lb = qs.bound_sq(&planes.record(slot));
                let d = dtw_sq(&query, xs, Band::SakoeChiba(2));
                assert!(
                    lb <= d + 1e-9 * d.abs().max(1.0),
                    "slot {slot} in g{gi}: lb={lb} > dtw={d}"
                );
            }
        }
    }

    #[test]
    fn params_freeze_and_new_members_append() {
        let ds1 = dataset(&[&walk(3, 30)]);
        let builder = BaseBuilder::new(BaseConfig::new(3.0, 5, 7)).unwrap();
        let (base1, _) = builder.build(&ds1);
        let frozen = base1.sketches().for_len(5).unwrap().params();

        let ds2 = dataset(&[&walk(3, 30), &walk(9, 25)]);
        let (base2, _) = builder.extend(&base1, &ds2).unwrap();
        let after = base2.sketches().for_len(5).unwrap();
        assert_eq!(after.params(), frozen, "params frozen across extension");
        for (gi, g) in base2.groups_for_len(5).iter().enumerate() {
            assert_eq!(after.group(gi).unwrap().cardinality(), g.cardinality());
        }
    }

    #[test]
    fn a_sync_through_a_clone_copies_the_blocks_of_the_groups_that_grew() {
        // No two windows of a steep ramp are within ST / 2: one group a
        // window, so the column spans several blocks.
        let ramp: Vec<f64> = (0..900).map(|i| i as f64 * 10.0).collect();
        let ds = dataset(&[&ramp]);
        let builder = BaseBuilder::new(BaseConfig::new(1.0, 4, 4)).unwrap();
        let (base, _) = builder.build(&ds);
        let published = base.groups_for_len(4).clone();
        assert!(published.block_count() >= 3);

        // One group admits a member; a clone of the column syncs to it.
        let admitting = published.len() / 2;
        let joiner = published.at(0).members().at(0);
        let mut next = published.clone();
        next.admit(admitting, joiner, &ramp[..4], 0.0, false);
        let len = next.len();
        sync_length(&Levels::new(&ds), &mut next, 0..len);

        let written = GroupColumn::block_of(admitting);
        for block in 0..next.block_count() {
            assert_eq!(
                next.shares_block(&published, block),
                block != written,
                "{block}"
            );
        }
        // The published column still holds a group of one there, which
        // keeps no sketch; the sync sketched both members of the pair.
        let cardinality = |column: &GroupColumn| column.at(admitting).sketched().cardinality();
        assert_eq!((cardinality(&published), cardinality(&next)), (0, 2));
        // Every other group reads the bytes it read before.
        for index in (0..len).filter(|&index| index != admitting) {
            let (was, now) = (published.at(index), next.at(index));
            assert!(now.sketched().shares_storage_with(was.sketched()));
        }
    }

    /// Deterministic stream (SplitMix64) for the property below.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }
    }

    /// A random walk of `len` points under `scale`, with a non-finite
    /// sample (NaN, ±∞) at a few places in about half of them.
    fn hostile_series(rng: &mut Rng, len: usize, scale: f64) -> Vec<f64> {
        let mut v = 0.0;
        let mut values: Vec<f64> = (0..len)
            .map(|_| {
                v += (rng.next() % 2001) as f64 / 1000.0 - 1.0;
                v * scale
            })
            .collect();
        if rng.next().is_multiple_of(2) {
            for _ in 0..rng.range(1, 3) {
                let at = rng.range(0, len - 1);
                values[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.range(0, 2)];
            }
        }
        values
    }

    /// A window of `width` points of one of `ds`'s series: a tenth of them
    /// at the series' start, a tenth at its end.
    fn any_window(rng: &mut Rng, ds: &Dataset, width: usize) -> SubseqRef {
        let series = rng.range(0, ds.len() - 1) as u32;
        let last = ds.series(series).unwrap().len() - width;
        let start = match rng.next() % 10 {
            0 => 0,
            1 => last,
            _ => rng.range(0, last),
        };
        SubseqRef::new(series, start as u32, width as u32)
    }

    /// Every group of `column` holds, slot for slot, the record
    /// [`encode_into`] writes for its member's window under the column's
    /// parameters — a group of one none — and every zone is the hull of
    /// those records (flags or-ed, the smallest of each floor, the largest
    /// of each ceiling) with the range of their series.
    fn assert_sketched_as_the_encoder_would(column: &GroupColumn, ds: &Dataset, what: &str) {
        let params = column.params().expect("synced");
        for (gi, group) in column.iter().enumerate() {
            let planes = group.sketched();
            let members = group.members();
            if members.len() == 1 {
                assert_eq!(planes.cardinality(), 0, "{what}: lone g{gi}");
                continue;
            }
            assert_eq!(planes.cardinality(), members.len(), "{what}: g{gi}");
            assert_eq!(planes.zones(), members.len().div_ceil(ZONE_SLOTS));
            let records: Vec<[u8; SKETCH_STRIDE]> = members
                .iter()
                .map(|m| {
                    let mut record = [0u8; SKETCH_STRIDE];
                    encode_into(&params, ds.resolve(m).unwrap(), &mut record);
                    record
                })
                .collect();
            for (slot, record) in records.iter().enumerate() {
                assert_eq!(&planes.record(slot), record, "{what}: g{gi} slot {slot}");
            }
            for (z, run) in records.chunks(ZONE_SLOTS).enumerate() {
                let mut hull = [0u8; SKETCH_STRIDE];
                hull[4..].fill(u8::MAX);
                hull[5] = 0;
                hull[7] = 0;
                hull[16..].fill(0);
                for record in run {
                    hull[0] |= record[0];
                    for byte in [4, 6].into_iter().chain(8..16) {
                        hull[byte] = hull[byte].min(record[byte]);
                    }
                    for byte in [5, 7].into_iter().chain(16..24) {
                        hull[byte] = hull[byte].max(record[byte]);
                    }
                }
                let slots = z * ZONE_SLOTS..z * ZONE_SLOTS + run.len();
                let series = slots.map(|slot| members.at(slot).series);
                let tags = series.clone().min().unwrap()..=series.max().unwrap();
                let zone = planes.zone(z);
                assert_eq!(zone.hull(), hull, "{what}: g{gi} zone {z}");
                assert_eq!(zone.tags(), tags, "{what}: g{gi} zone {z}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A sync — a batch one, then one after an append grew some of the
        /// groups — writes the planes and zones that the one-window
        /// encoder's records give, over groups of 2 to 300 members drawn
        /// from several series (windows at their ends among them) with
        /// non-finite samples, a group of one that grows, and appended
        /// values past the frozen range; a second length frozen later,
        /// under other parameters, is sketched from columns of its own.
        #[test]
        fn a_sync_writes_the_planes_and_zones_of_the_encoders_records(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let width = rng.range(4, 20);
            let series: Vec<Vec<f64>> = (0..rng.range(3, 6))
                .map(|_| {
                    let len = rng.range(width + 2, 160);
                    hostile_series(&mut rng, len, 1.0)
                })
                .collect();
            let mut ds = dataset(&series.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let mut column = GroupColumn::over(series_table(&ds));
            let sizes = [2, 3, 63, 64, 65, 129, 300];
            let groups = rng.range(1, 4);
            for gi in 0..=groups {
                // The last group is a group of one.
                let members = if gi == groups { 1 } else if rng.next().is_multiple_of(2) {
                    sizes[rng.range(0, sizes.len() - 1)]
                } else {
                    rng.range(2, 300)
                };
                assert!(column.push_seed(any_window(&mut rng, &ds, width)));
                for _ in 1..members {
                    let m = any_window(&mut rng, &ds, width);
                    column.admit(gi, m, ds.resolve(m).unwrap(), 0.0, false);
                }
            }
            let all = 0..column.len();
            sync_length(&Levels::new(&ds), &mut column, all);
            let (min, max) = value_range(&ds);
            prop_assert_eq!(column.params(), Some(SketchParams::fit(min, max)));
            assert_sketched_as_the_encoder_would(&column, &ds, "batch");

            // An append: a series past the frozen range; some groups —
            // the group of one among them — take members from it and from
            // the old series, and a length new to the base is synced too.
            let name = format!("s{}", ds.len());
            let len = rng.range(width + 2, 160);
            let wide = hostile_series(&mut rng, len, 6.0);
            ds.push(TimeSeries::new(name, wide)).unwrap();
            let published = column.clone();
            column.adopt_series(&series_table(&ds));
            let mut touched = vec![groups];
            touched.extend((0..groups).filter(|_| rng.next().is_multiple_of(2)));
            for &gi in &touched {
                for _ in 0..rng.range(1, 70) {
                    let m = any_window(&mut rng, &ds, width);
                    column.admit(gi, m, ds.resolve(m).unwrap(), 0.0, false);
                }
            }
            let mut fresh = GroupColumn::over(series_table(&ds));
            for _ in 0..rng.range(2, 90) {
                let m = any_window(&mut rng, &ds, width + 1);
                if fresh.is_empty() {
                    assert!(fresh.push_seed(m));
                } else {
                    fresh.admit(0, m, ds.resolve(m).unwrap(), 0.0, false);
                }
            }
            let levels = Levels::new(&ds);
            sync_length(&levels, &mut column, touched.iter().copied());
            sync_length(&levels, &mut fresh, 0..1);
            prop_assert_eq!(column.params(), published.params());
            assert_sketched_as_the_encoder_would(&column, &ds, "append");
            assert_sketched_as_the_encoder_would(&fresh, &ds, "new length");
            for gi in (0..groups).filter(|gi| !touched.contains(gi)) {
                let (was, now) = (published.at(gi), column.at(gi));
                prop_assert!(now.sketched().shares_storage_with(was.sketched()));
            }
        }
    }
}
