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
//! ends it with, and that step visits the groups of two and more only. It
//! quantises each series it meets a new slot of once, into a
//! [`LevelColumn`] under the length's parameters, and reads every window
//! of the series off the column: an append pays for the points of the
//! series it sketches, not for its 2 133 windows × 20 levels. The
//! records are [`encode_into`]'s, byte for byte. A sync keeps nothing:
//! the columns (six bytes a point) are gone when the step returns.

use std::collections::{BTreeMap, HashMap};

use onex_distance::sketch::{encode_into, LevelColumn};
use onex_distance::{PlanesRef, SketchParams};
use onex_tseries::Dataset;

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

/// Bring the sketches of one length's `column` up to date with its
/// groups, visiting only the groups at the `which` indices (the caller
/// knows no other group gained a member; repeated indices are harmless):
/// freeze the parameters if the length is new, sketch the members of
/// groups of two and more not yet covered. Existing bytes are never
/// rewritten — member lists only grow at the tail (admission order), so a
/// sync is incremental and idempotent; a group that gained members gets
/// new planes (its old slots plus the new ones, its first member's too
/// when it grew from one) and every other group's storage stays shared
/// with the column this one was cloned from.
pub(crate) fn sync_length(
    dataset: &Dataset,
    column: &mut GroupColumn,
    which: impl Iterator<Item = usize>,
) {
    let params = column.params().unwrap_or_else(|| {
        // The global value range is only needed when a new length shows
        // up; its parameters are frozen from here.
        let (min, max) = value_range(dataset);
        let params = SketchParams::fit(min, max);
        column.set_params(params);
        params
    });
    // One level column per series a new slot belongs to, built the first
    // time this call meets the series and gone when it returns.
    let mut levels: HashMap<u32, LevelColumn<'_>> = HashMap::new();
    for index in which {
        column.sketch_group(index, |member, record| {
            let (start, len) = (member.start as usize, member.len as usize);
            let series = dataset.series(member.series);
            let Some(series) = series.filter(|s| s.subsequence(start, len).is_some()) else {
                // An unresolvable reference cannot happen on a consistent
                // base; encode a non-pruning sketch so the planes stay
                // slot-aligned regardless.
                return encode_into(&params, &[], record);
            };
            let levels = levels
                .entry(member.series)
                .or_insert_with(|| LevelColumn::new(params, series.values()));
            levels.encode_window(start, len, record);
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
    use crate::{BaseBuilder, BaseConfig, OnexBase};
    use onex_tseries::TimeSeries;

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
        sync_length(&ds, &mut next, 0..len);

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
}
