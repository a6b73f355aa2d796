//! Quantised-PAA sketches over the base's members — the storage side of
//! the L0 prefilter tier.
//!
//! Every member of every similarity group gets a sketch
//! ([`onex_distance::sketch`]), held per group as one
//! [`SketchPlanes`] in member-slot order: plane-major bytes, 21 per
//! member, so the searcher tests a block of a group's members at a time
//! ([`onex_distance::QuerySketch::survivors`]) and rejects those whose
//! sketch lower bound already exceeds the pruning bound — before
//! resolving any f64 data. The layout is [`SketchPlanes`]' own business:
//! this module builds planes by handing it encoded records and never
//! indexes one.
//!
//! Sketches are *derived* data — rebuildable from the dataset and
//! excluded from base equality — but since segment format v2 they are
//! also *persisted* (as 24-byte records, see [`crate::persist`]), so a
//! loaded base prunes with L0 immediately instead of paying a rebuild.
//! Quantisation parameters are frozen per length the first time that
//! length is synced, so a sketch byte written once stays valid forever;
//! appended values that fall outside the frozen range simply encode as
//! non-pruning (invalid) sketches, keeping incremental extension sound
//! without requantising. Persisting the frozen parameters alongside the
//! records is what makes a save/load cycle byte-preserving.
//!
//! What a sync quantises is points, not windows. Every construction path
//! — batch and parallel build, incremental extension, an engine
//! re-attaching a base that came without sketches — sketches through
//! [`SketchIndex::sync`]'s one per-length step, and that step quantises
//! each series it meets a new slot of once, into a
//! [`LevelColumn`] under the length's parameters, and reads every window
//! of the series off the column: an append pays for the 256 points it
//! brought, a length, not for its 2 133 windows × 20 levels. The records
//! are [`encode_into`]'s, byte for byte. A sync keeps nothing: the
//! columns (six bytes a point) are gone when the step returns.

use std::collections::{BTreeMap, HashMap};

use onex_distance::sketch::{encode_into, LevelColumn};
use onex_distance::{SketchParams, SketchPlanes};
use onex_tseries::Dataset;

use crate::{BlockVec, SimilarityGroup};

/// Sketch storage for one subsequence length: frozen quantisation
/// parameters plus one set of sketch planes per group.
///
/// The 24-byte handles — the 21 plane bytes themselves for a group of
/// one, a pointer to a reference-counted block from two members up — sit
/// in the same [`BlockVec`] the group records do, so a clone copies block
/// pointers, not handles. Planes are never rewritten in place:
/// [`SketchIndex::sync`] gives a group that gained members new planes,
/// copying the block of handles that one sits in, while every other
/// block — and every other group's planes — stays shared with the
/// earlier epochs of the base that read from it.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthSketches {
    params: SketchParams,
    /// `groups[g]` sketches `group.cardinality()` members, slot `i`
    /// being `group.members()[i]`.
    groups: BlockVec<SketchPlanes>,
}

impl LengthSketches {
    /// Reassemble from persisted parts ([`crate::persist`] format v2).
    pub(crate) fn from_parts(
        params: SketchParams,
        groups: BlockVec<SketchPlanes>,
    ) -> LengthSketches {
        LengthSketches { params, groups }
    }

    /// Quantisation parameters every sketch of this length was encoded
    /// under (frozen at first sync).
    #[inline]
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// The sketch planes of group `index`, if synced.
    #[inline]
    pub fn group(&self, index: usize) -> Option<&SketchPlanes> {
        self.groups.get(index)
    }
}

/// All member sketches of a base, keyed by subsequence length.
///
/// Derived from the dataset + groups via [`SketchIndex::sync`]; cheap to
/// rebuild, append-only under incremental extension. Equality is
/// byte-exact over planes and parameters — the property persistence
/// round-trip tests pin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchIndex {
    per_length: BTreeMap<usize, LengthSketches>,
}

impl SketchIndex {
    /// Sketches for one subsequence length, if that length has been
    /// synced.
    #[inline]
    pub fn for_len(&self, len: usize) -> Option<&LengthSketches> {
        self.per_length.get(&len)
    }

    /// True when no length has been synced yet.
    pub fn is_empty(&self) -> bool {
        self.per_length.is_empty()
    }

    /// Bytes held over all lengths: the columns of handles, in whole
    /// blocks, plus the plane blocks of groups of two and more (see
    /// `OnexBase::footprint`).
    pub(crate) fn resident_bytes(&self) -> usize {
        let columns = self.per_length.values().map(|ls| &ls.groups);
        columns
            .map(|handles| {
                let planes = handles.iter().map(SketchPlanes::heap_bytes);
                handles.resident_bytes() + planes.sum::<usize>()
            })
            .sum()
    }

    /// Blocks of handles over all lengths (see `OnexBase::block_count`).
    pub(crate) fn block_count(&self) -> usize {
        let columns = self.per_length.values();
        columns.map(|ls| ls.groups.block_count()).sum()
    }

    /// Blocks of handles shared by pointer with `other`'s.
    pub(crate) fn shared_blocks(&self, other: &SketchIndex) -> usize {
        let shared = |(len, ls): (&usize, &LengthSketches)| {
            let theirs = other.per_length.get(len)?;
            Some(ls.groups.shared_blocks(&theirs.groups))
        };
        self.per_length.iter().filter_map(shared).sum()
    }

    /// Install persisted sketches for one length (format v2 load).
    pub(crate) fn insert(&mut self, len: usize, sketches: LengthSketches) {
        self.per_length.insert(len, sketches);
    }

    /// Bring the index up to date with `groups`: append sketch slots for
    /// members not yet covered, seed planes for new groups and parameters
    /// for new lengths. Existing bytes are never rewritten — member lists
    /// only grow at the tail (admission order), so sync is incremental
    /// and idempotent; a group that gained members gets new planes (its
    /// old slots plus the new ones) and every other group's stay shared
    /// with the index this one was cloned from.
    pub fn sync(&mut self, dataset: &Dataset, groups: &BTreeMap<usize, BlockVec<SimilarityGroup>>) {
        for (&len, group_list) in groups {
            self.sync_length(dataset, len, group_list, 0..group_list.len());
        }
    }

    /// [`Self::sync`] for one length, visiting only the groups at the
    /// `which` indices of `group_list` (the caller knows no other group
    /// gained a member). Repeated indices are harmless.
    pub(crate) fn sync_length(
        &mut self,
        dataset: &Dataset,
        len: usize,
        group_list: &BlockVec<SimilarityGroup>,
        which: impl Iterator<Item = usize>,
    ) {
        let ls = self.per_length.entry(len).or_insert_with(|| {
            // The global value range is only needed when a new
            // length shows up; its parameters are frozen from here.
            let (min, max) = value_range(dataset);
            LengthSketches {
                params: SketchParams::fit(min, max),
                groups: BlockVec::new(),
            }
        });
        while ls.groups.len() < group_list.len() {
            ls.groups.push(SketchPlanes::default());
        }
        // One level column per series a new slot belongs to, built the
        // first time this call meets the series and gone when it returns.
        let mut columns: HashMap<u32, LevelColumn<'_>> = HashMap::new();
        for gi in which {
            let group = &group_list[gi];
            // Read before writing: a group that gained nothing must not
            // cost its block a copy.
            let planes = &ls.groups[gi];
            if planes.cardinality() >= group.cardinality() {
                continue;
            }
            let grown = planes.grown(group.cardinality(), |slot, record| {
                let member = group.members()[slot];
                let (start, len) = (member.start as usize, member.len as usize);
                let series = dataset.series(member.series);
                let Some(series) = series.filter(|s| s.subsequence(start, len).is_some()) else {
                    // An unresolvable reference cannot happen on a
                    // consistent base; encode a non-pruning sketch so the
                    // planes stay slot-aligned regardless.
                    return encode_into(&ls.params, &[], record);
                };
                let column = columns
                    .entry(member.series)
                    .or_insert_with(|| LevelColumn::new(ls.params, series.values()));
                column.encode_window(start, len, record);
            });
            *ls.groups.get_mut(gi).expect("grown to cover every group") = grown;
        }
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
    use crate::{BaseBuilder, BaseConfig};
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

    #[test]
    fn sync_covers_every_member_and_is_idempotent() {
        let ds = dataset(&[&walk(3, 40), &walk(7, 33)]);
        let builder = BaseBuilder::new(BaseConfig::new(4.0, 6, 10)).unwrap();
        let (base, _) = builder.build(&ds);
        let mut idx = SketchIndex::default();
        idx.sync(&ds, base.raw_groups());
        for (&len, groups) in base.raw_groups() {
            let ls = idx.for_len(len).expect("length synced");
            for (gi, g) in groups.iter().enumerate() {
                let planes = ls.group(gi).expect("group synced");
                assert_eq!(planes.cardinality(), g.cardinality(), "g{gi}@{len}");
            }
        }
        let before = idx.clone();
        idx.sync(&ds, base.raw_groups());
        for &len in base.raw_groups().keys() {
            let (a, b) = (before.for_len(len).unwrap(), idx.for_len(len).unwrap());
            assert_eq!(a.groups, b.groups, "idempotent at {len}");
        }
    }

    #[test]
    fn sketch_bounds_never_exceed_dtw_against_members() {
        use onex_distance::{dtw_sq, Band, Envelope, QuerySketch};
        let ds = dataset(&[&walk(11, 48)]);
        let builder = BaseBuilder::new(BaseConfig::new(2.0, 8, 8)).unwrap();
        let (base, _) = builder.build(&ds);
        let mut idx = SketchIndex::default();
        idx.sync(&ds, base.raw_groups());
        let query = walk(5, 8);
        let env = Envelope::build(&query, 2);
        let ls = idx.for_len(8).expect("length 8 indexed");
        let qs = QuerySketch::new(&query, &env, ls.params());
        for (gi, g) in base.raw_groups()[&8].iter().enumerate() {
            let planes = ls.group(gi).unwrap();
            for (slot, &m) in g.members().iter().enumerate() {
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
        let mut idx = SketchIndex::default();
        idx.sync(&ds1, base1.raw_groups());
        let frozen = idx.for_len(5).unwrap().params();

        let ds2 = dataset(&[&walk(3, 30), &walk(9, 25)]);
        let (base2, _) = builder.extend(&base1, &ds2).unwrap();
        idx.sync(&ds2, base2.raw_groups());
        let after = idx.for_len(5).unwrap();
        assert_eq!(after.params(), frozen, "params frozen across extension");
        for (gi, g) in base2.raw_groups()[&5].iter().enumerate() {
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
        let mut groups = base.raw_groups().clone();
        assert!(groups[&4].block_count() >= 3);
        let mut published = SketchIndex::default();
        published.sync(&ds, &groups);

        // One group admits a member; a clone of the index syncs to it.
        let admitting = groups[&4].len() / 2;
        let column = groups.get_mut(&4).unwrap();
        let joiner = column[0].members()[0];
        let group = column.get_mut(admitting).unwrap();
        group.admit(joiner, &ramp[..4], 0.0, false);
        let mut next = published.clone();
        next.sync(&ds, &groups);

        let (was, now) = (
            &published.per_length[&4].groups,
            &next.per_length[&4].groups,
        );
        let written = BlockVec::<SketchPlanes>::block_of(admitting);
        for block in 0..now.block_count() {
            assert_eq!(now.shares_block(was, block), block != written, "{block}");
        }
        assert_eq!(next.shared_blocks(&published), now.block_count() - 1);
        // The published index still sketches one member there.
        assert_eq!(
            (was[admitting].cardinality(), now[admitting].cardinality()),
            (1, 2)
        );
    }
}
