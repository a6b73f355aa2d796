use std::collections::BTreeMap;
use std::sync::LazyLock;

use onex_distance::ed;
use onex_tseries::Dataset;

use crate::group::SeriesTable;
use crate::sketch::SketchIndex;
use crate::{BaseConfig, GroupColumn, GroupId, GroupView};

/// What [`OnexBase::groups_for_len`] hands out for a length that is not
/// indexed.
static NO_GROUPS: LazyLock<GroupColumn> = LazyLock::new(GroupColumn::new);

/// The finished ONEX base: similarity groups per subsequence length.
///
/// This is the compact structure the paper explores with DTW instead of
/// the raw data (§3.1–3.2). It is immutable after construction; the query
/// engine borrows it, and [`crate::persist`] round-trips it to disk.
///
/// Each length is one [`GroupColumn`]: blocks of 256 groups, 8 bytes
/// and a bit a group — the first member's series and start, the length
/// being the column's, and whether the group owns more; the few groups
/// that do (two members and more, or a drifted mean) have a pointer in
/// the block's dense vector, at the rank of their bit — each block behind
/// one reference count. A clone copies the block pointers —
/// a few hundred for a hundred thousand groups — and shares the blocks,
/// and everything behind them, with the original;
/// [`crate::BaseBuilder::extend`] builds the next base on such a clone
/// and copies only the blocks it writes: the tail block of a column it
/// seeds a group into, the block of a group that admits a member. That is
/// what lets an engine publish one epoch after another at the cost of the
/// appended windows, and drop a retired epoch at the cost of the blocks
/// its successor replaced. [`OnexBase::shared_blocks`] counts what two
/// bases still share and [`OnexBase::footprint`] adds the bytes up.
///
/// The columns also carry the L0 sketches ([`OnexBase::sketches`]) of
/// the members of groups of two and more — *derived* data, synced from
/// the dataset by every construction path and excluded from equality. A
/// base image stores them verbatim, so a decoded base prunes immediately.
/// A group of one keeps none: the search answers it from its
/// representative's DTW.
#[derive(Debug, Clone)]
pub struct OnexBase {
    config: BaseConfig,
    groups: BTreeMap<usize, GroupColumn>,
    /// The handles of the series the base covers, by id — its dataset's:
    /// what a base image fingerprints that dataset by.
    series: SeriesTable,
    /// Members over all groups, kept in step with `groups` so that an
    /// incremental extension can report totals without visiting every
    /// group it did not touch.
    members: usize,
}

/// Equality is over the constructed index only; the derived sketches
/// never participate (a freshly loaded base equals its synced twin).
impl PartialEq for OnexBase {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.groups == other.groups
            && self.series.len() == other.series.len()
    }
}

impl OnexBase {
    pub(crate) fn from_parts(
        config: BaseConfig,
        groups: BTreeMap<usize, GroupColumn>,
        series: SeriesTable,
    ) -> Self {
        let members = groups.values().map(members_of).sum();
        OnexBase {
            config,
            groups,
            series,
            members,
        }
    }

    /// The columns of `lengths` (ascending), for an incremental extension
    /// to admit into — an empty one for a length new to the base.
    pub(crate) fn columns_mut(&mut self, lengths: &[usize]) -> Vec<&mut GroupColumn> {
        for &len in lengths {
            self.groups.entry(len).or_default();
        }
        let columns = self.groups.iter_mut();
        let wanted = columns.filter(|(len, _)| lengths.binary_search(len).is_ok());
        wanted.map(|(_, column)| column).collect()
    }

    /// Record that the base now covers the series of `series`, having
    /// admitted `windows` more subsequences through [`Self::columns_mut`]
    /// (incremental extension's receipt).
    pub(crate) fn admitted(&mut self, series: SeriesTable, windows: usize) {
        self.series = series;
        self.members += windows;
    }

    /// The handles of the series the base covers, by id.
    pub(crate) fn series(&self) -> &SeriesTable {
        &self.series
    }

    /// Total groups across lengths.
    pub fn group_count(&self) -> usize {
        self.groups.values().map(GroupColumn::len).sum()
    }

    /// Total members across groups (= subsequences indexed).
    pub fn member_count(&self) -> usize {
        debug_assert_eq!(
            self.members,
            self.groups.values().map(members_of).sum::<usize>()
        );
        self.members
    }

    /// The raw per-length group map (sketch-sync tests).
    #[cfg(test)]
    pub(crate) fn raw_groups(&self) -> &BTreeMap<usize, GroupColumn> {
        &self.groups
    }

    /// Install one length column — groups and their sketches — into this
    /// base. The lazy cold-start path
    /// ([`crate::persist::BaseSegment::load_length`]) resolves columns
    /// one at a time through this hook; replacing an already-installed
    /// length is idempotent by construction (the segment is immutable,
    /// so a re-decode yields identical parts).
    pub(crate) fn install_length(&mut self, len: usize, groups: GroupColumn) {
        self.members += members_of(&groups);
        if let Some(replaced) = self.groups.insert(len, groups) {
            self.members -= members_of(&replaced);
        }
    }

    /// The L0 member sketches.
    pub fn sketches(&self) -> SketchIndex<'_> {
        SketchIndex::of(&self.groups)
    }

    /// Bring the L0 sketches up to date with the groups: what a batch
    /// build's workers end every length with. Incremental and idempotent.
    #[cfg(test)]
    pub(crate) fn sync_sketches(&mut self, dataset: &Dataset) {
        for column in self.groups.values_mut() {
            let all = 0..column.len();
            crate::sketch::sync_length(dataset, column, all);
        }
    }

    /// The configuration the base was built with.
    pub fn config(&self) -> &BaseConfig {
        &self.config
    }

    /// Number of series in the dataset the base was built over.
    pub fn source_series(&self) -> usize {
        self.series.len()
    }

    /// Indexed lengths, ascending.
    pub fn lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups.keys().copied()
    }

    /// Groups of one length (an empty column when the length is not
    /// indexed).
    pub fn groups_for_len(&self, len: usize) -> &GroupColumn {
        self.groups.get(&len).unwrap_or(&NO_GROUPS)
    }

    /// Group lookup by id.
    pub fn group(&self, id: GroupId) -> Option<GroupView<'_>> {
        self.groups
            .get(&(id.len as usize))
            .and_then(|v| v.get(id.index as usize))
    }

    /// Iterate `(GroupId, group)` over the whole base.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, GroupView<'_>)> {
        self.groups.iter().flat_map(|(&len, gs)| {
            gs.iter().enumerate().map(move |(i, g)| {
                (
                    GroupId {
                        len: len as u32,
                        index: i as u32,
                    },
                    g,
                )
            })
        })
    }

    /// The indexed lengths closest to `target`, nearest first, ties
    /// favouring the shorter length. The engine uses this to widen a query
    /// to neighbouring lengths.
    pub fn nearest_lengths(&self, target: usize, k: usize) -> Vec<usize> {
        let mut lens: Vec<usize> = self.groups.keys().copied().collect();
        lens.sort_by_key(|&l| (l.abs_diff(target), l));
        lens.truncate(k);
        lens
    }

    /// Aggregate statistics (experiment E7's table rows).
    pub fn stats(&self) -> BaseStats {
        let per_length: Vec<LengthStats> = self
            .groups
            .iter()
            .map(|(&len, gs)| LengthStats {
                len,
                groups: gs.len(),
                subsequences: gs.iter().map(|g| g.cardinality()).sum(),
                max_cardinality: gs.iter().map(|g| g.cardinality()).max().unwrap_or(0),
            })
            .collect();
        let groups = per_length.iter().map(|l| l.groups).sum();
        let members = per_length.iter().map(|l| l.subsequences).sum();
        BaseStats {
            groups,
            members,
            compaction: if groups == 0 {
                0.0
            } else {
                members as f64 / groups as f64
            },
            per_length,
        }
    }

    /// How many blocks the columns of every length are kept in — one
    /// column a length.
    pub fn block_count(&self) -> usize {
        self.groups.values().map(GroupColumn::block_count).sum()
    }

    /// How many of those blocks this base shares by pointer with `other`.
    /// Against the base it was extended from, the rest —
    /// `block_count() - shared_blocks(previous)` — is what the extension
    /// copied or added: the blocks it wrote to.
    pub fn shared_blocks(&self, other: &OnexBase) -> usize {
        let columns = self.groups.iter();
        columns
            .map(|(&len, groups)| groups.shared_blocks(other.groups_for_len(len)))
            .sum()
    }

    /// Bytes this base keeps resident, by owner — worked out from
    /// capacities, lengths and cardinalities (no allocator hook), so it
    /// leaves out allocator headers, the per-length map and the tables of
    /// series handles. The columns count whole blocks, an unfilled tail
    /// included. Blocks shared with another epoch of the base count in
    /// full; the series that in-place representatives read belong to the
    /// dataset and do not count.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = Footprint::default();
        for gs in self.groups.values() {
            footprint.group_records += gs.resident_bytes();
            for g in gs {
                let heap = g.heap_bytes();
                footprint.group_records += heap.record;
                footprint.owned_representatives += heap.representative;
                footprint.member_lists += heap.members;
                footprint.sketches += heap.planes;
            }
        }
        footprint
    }

    /// Audit the construction invariant against the source dataset: every
    /// member must lie within the admission radius of its group's
    /// representative. Exact under the `Seed` policy; under `Centroid` the
    /// representative drifted after admission, so violations measure the
    /// drift (paper practice accepts it; experiment E9 reports it).
    pub fn audit(&self, dataset: &Dataset) -> AuditReport {
        let mut report = AuditReport::default();
        for (&len, gs) in &self.groups {
            let admission = self.config.admission_radius(len);
            for g in gs {
                for m in g.members() {
                    let Ok(xs) = dataset.resolve(m) else {
                        report.unresolvable += 1;
                        continue;
                    };
                    let d = ed(xs, g.representative());
                    report.members_checked += 1;
                    if d > admission + 1e-9 {
                        report.violations += 1;
                        report.worst_excess = report.worst_excess.max(d / admission);
                    }
                }
            }
        }
        report
    }
}

fn members_of(groups: &GroupColumn) -> usize {
    groups.iter().map(|g| g.cardinality()).sum()
}

/// Result of [`OnexBase::footprint`]: resident bytes by owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footprint {
    /// The per-length columns in whole blocks — 8 bytes a group, its
    /// first member's series and start, and a bit of the block's bitmap —
    /// with each block's vector of pointers, plus the record behind every
    /// pointer.
    pub group_records: usize,
    /// Representatives a group owns (means that drifted); 0 for every
    /// one read in place.
    pub owned_representatives: usize,
    /// Member lists of groups of two and more, 8 bytes a member (a lone
    /// member is its slot's).
    pub member_lists: usize,
    /// The sketch planes of groups of two and more (a group of one keeps
    /// none).
    pub sketches: usize,
}

impl Footprint {
    /// All four owners together.
    pub fn total(&self) -> usize {
        self.group_records + self.owned_representatives + self.member_lists + self.sketches
    }
}

/// Aggregate base statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseStats {
    /// Total groups across lengths.
    pub groups: usize,
    /// Total members (= subsequences indexed).
    pub members: usize,
    /// Members per group; the paper's data-reduction factor.
    pub compaction: f64,
    /// Per-length breakdown, ascending length.
    pub per_length: Vec<LengthStats>,
}

/// Statistics of one indexed length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthStats {
    /// Subsequence length.
    pub len: usize,
    /// Groups at this length.
    pub groups: usize,
    /// Subsequences at this length.
    pub subsequences: usize,
    /// Largest group cardinality (drives overview colour intensity).
    pub max_cardinality: usize,
}

/// Result of [`OnexBase::audit`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AuditReport {
    /// Members whose invariant was checked.
    pub members_checked: usize,
    /// Members farther than the admission radius from their representative.
    pub violations: usize,
    /// Largest `distance / admission_radius` among violations (1.0 = none).
    pub worst_excess: f64,
    /// Members whose reference no longer resolves in the dataset (always 0
    /// unless the base is paired with the wrong dataset).
    pub unresolvable: usize,
}

impl AuditReport {
    /// Fraction of members violating the invariant.
    pub fn violation_rate(&self) -> f64 {
        if self.members_checked == 0 {
            0.0
        } else {
            self.violations as f64 / self.members_checked as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseBuilder, RepresentativePolicy};
    use onex_tseries::gen::{random_walk_dataset, SyntheticConfig};

    fn base(policy: RepresentativePolicy) -> (OnexBase, Dataset) {
        let ds = random_walk_dataset(SyntheticConfig {
            series: 6,
            len: 36,
            seed: 9,
        });
        let cfg = BaseConfig {
            policy,
            ..BaseConfig::new(1.2, 6, 18)
        };
        let (b, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        (b, ds)
    }

    #[test]
    fn stats_are_consistent() {
        let (b, ds) = base(RepresentativePolicy::Centroid);
        let stats = b.stats();
        assert_eq!(
            stats.members,
            crate::SubsequenceSpace::new(&ds, b.config()).total()
        );
        assert!(stats.groups > 0 && stats.groups <= stats.members);
        assert!(stats.compaction >= 1.0);
        let sum: usize = stats.per_length.iter().map(|l| l.subsequences).sum();
        assert_eq!(sum, stats.members);
        for l in &stats.per_length {
            assert!(l.max_cardinality >= 1);
            assert!(l.groups <= l.subsequences);
        }
    }

    #[test]
    fn seed_policy_audits_clean() {
        let (b, ds) = base(RepresentativePolicy::Seed);
        let audit = b.audit(&ds);
        assert_eq!(audit.violations, 0, "{audit:?}");
        assert!(audit.members_checked > 0);
        assert_eq!(audit.unresolvable, 0);
        assert_eq!(audit.violation_rate(), 0.0);
    }

    #[test]
    fn centroid_policy_drift_is_bounded() {
        let (b, ds) = base(RepresentativePolicy::Centroid);
        let audit = b.audit(&ds);
        // Drift can produce violations, but the excess stays modest —
        // the centroid moves within the admission ball.
        assert!(
            audit.violation_rate() < 0.5,
            "drift rate {}",
            audit.violation_rate()
        );
        if audit.violations > 0 {
            assert!(audit.worst_excess < 3.0, "excess {}", audit.worst_excess);
        }
    }

    #[test]
    fn nearest_lengths_orders_by_distance() {
        let (b, _) = base(RepresentativePolicy::Centroid);
        let lens = b.nearest_lengths(10, 3);
        assert_eq!(lens[0], 10);
        assert_eq!(lens[1], 9, "tie between 9 and 11 favours shorter");
        assert_eq!(lens[2], 11);
        // Asking for more lengths than exist returns them all.
        let all = b.nearest_lengths(10, 1000);
        assert_eq!(all.len(), b.lengths().count());
    }

    #[test]
    fn group_lookup_round_trips() {
        let (b, _) = base(RepresentativePolicy::Centroid);
        for (id, g) in b.iter() {
            assert_eq!(b.group(id).unwrap(), g);
            assert_eq!(g.len(), id.len as usize);
        }
        assert!(b
            .group(GroupId {
                len: 9999,
                index: 0
            })
            .is_none());
        let first_len = b.lengths().next().unwrap();
        assert!(b
            .group(GroupId {
                len: first_len as u32,
                index: 1_000_000,
            })
            .is_none());
    }

    #[test]
    fn audit_flags_wrong_dataset() {
        let (b, _) = base(RepresentativePolicy::Seed);
        let wrong = Dataset::new();
        let audit = b.audit(&wrong);
        assert!(audit.unresolvable > 0);
        assert_eq!(audit.members_checked, 0);
    }

    #[test]
    fn empty_base_stats() {
        let b = OnexBase::from_parts(
            BaseConfig::new(1.0, 2, 4),
            BTreeMap::new(),
            Default::default(),
        );
        let s = b.stats();
        assert_eq!(s.groups, 0);
        assert_eq!(s.compaction, 0.0);
        assert!(b.groups_for_len(3).is_empty());
    }
}
