use std::sync::Arc;

use onex_distance::{PlanesRef, SketchPlanes};
use onex_tseries::{Dataset, SubseqRef, TimeSeries};

use crate::blocks::Block;

/// Identifier of a group inside an [`crate::OnexBase`]: the subsequence
/// length plus the group's index within that length's group list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId {
    /// Subsequence length of every member.
    pub len: u32,
    /// Index within the per-length group vector.
    pub index: u32,
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}@{}", self.index, self.len)
    }
}

/// The shared handles of a dataset's series, by series id: what a column
/// reads its in-place representatives through. One table serves the base
/// and every column a build or an extension produces, and — holding the
/// handles every clone of the dataset holds — keeps the samples alive
/// after the dataset itself is gone.
pub(crate) type SeriesTable = Arc<[Arc<TimeSeries>]>;

/// The table of `dataset`'s handles.
pub(crate) fn series_table(dataset: &Dataset) -> SeriesTable {
    let ids = 0..dataset.len() as u32;
    ids.filter_map(|id| dataset.shared(id).cloned()).collect()
}

/// The window `r` of the series in `table`, if it resolves there.
pub(crate) fn window(table: &[Arc<TimeSeries>], r: SubseqRef) -> Option<&[f64]> {
    table
        .get(r.series as usize)?
        .subsequence(r.start as usize, r.len as usize)
}

/// What only some groups own, behind the one optional pointer of a
/// group's slot: a group of one whose representative is its member's
/// window and whose radius is 0 — every group of a base that does not
/// compact — has none of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupMore {
    /// Largest admission distance observed — a certified radius under the
    /// `Seed` policy, an estimate under `Centroid`.
    pub radius: f64,
    /// The group's own representative: a mean that drifted from the first
    /// member's window. `None` reads the window in place.
    pub representative: Option<Arc<[f64]>>,
    /// Every member in admission order, the first included — or nothing
    /// for a group of one, whose member is its slot's.
    pub members: Vec<SubseqRef>,
    /// The sketches of `members`, slot for slot, as far as they have been
    /// synced (a group of one keeps none).
    pub planes: SketchPlanes,
}

/// One ONEX similarity group, read where it lies: same-length
/// subsequences that passed the `ST/2` Euclidean admission test against
/// the representative.
///
/// A group is a slot of a [`crate::GroupColumn`] block — its first
/// member's reference and one optional pointer — and this is a `Copy`
/// view of that slot. A group of one owns no heap: its representative
/// *is* the first member's window, read in place from the dataset's
/// shared series through the column's table of handles, its member list
/// is the slot's reference, its radius 0, and it keeps no sketch (the
/// searcher answers it from its representative's DTW). Only behind the
/// pointer is anything a group's own: the members from two up with their
/// sketch planes, the radius, a representative that drifted
/// (`Centroid`).
///
/// Equality is over content — representative values (wherever they
/// live), members, radius — so a group that round-tripped through disk
/// equals the one that was saved; the derived sketch bytes do not take
/// part.
#[derive(Clone, Copy)]
pub struct GroupView<'a> {
    block: &'a Block,
    slot: usize,
    series: &'a [Arc<TimeSeries>],
}

impl PartialEq for GroupView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.representative() == other.representative()
            && self.members() == other.members()
            && self.radius() == other.radius()
    }
}

impl std::fmt::Debug for GroupView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupView")
            .field("representative", &self.representative())
            .field("members", &self.members())
            .field("radius", &self.radius())
            .finish()
    }
}

impl<'a> GroupView<'a> {
    /// Slot `slot` of `block`, in-place windows read through `series`.
    pub(crate) fn new(block: &'a Block, slot: usize, series: &'a [Arc<TimeSeries>]) -> Self {
        GroupView {
            block,
            slot,
            series,
        }
    }

    #[inline]
    fn first(&self) -> &'a SubseqRef {
        &self.block.first[self.slot]
    }

    #[inline]
    fn more(&self) -> Option<&'a GroupMore> {
        self.block.more[self.slot].as_deref()
    }

    /// The group's representative sequence (centroid or frozen seed).
    #[inline]
    pub fn representative(&self) -> &'a [f64] {
        if let Some(own) = self.own_representative() {
            return own;
        }
        window(self.series, *self.first()).expect("checked when the slot was written")
    }

    /// The representative the group owns — a mean that drifted off its
    /// first member's window — or `None` when it reads that window in
    /// place.
    #[inline]
    pub(crate) fn own_representative(&self) -> Option<&'a [f64]> {
        self.more()?.representative.as_deref()
    }

    /// Member references in admission order (the seed is first).
    #[inline]
    pub fn members(&self) -> &'a [SubseqRef] {
        match self.more() {
            Some(more) if !more.members.is_empty() => &more.members,
            _ => std::slice::from_ref(self.first()),
        }
    }

    /// Number of members (≥ 1 — groups are never empty).
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.members().len()
    }

    /// Subsequence length of this group.
    #[inline]
    pub fn len(&self) -> usize {
        self.first().len as usize
    }

    /// Groups are never empty; provided for clippy-idiomatic pairing with
    /// [`Self::len`], always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Largest admission distance observed — a certified radius under the
    /// `Seed` policy, an estimate under `Centroid`; 0 for a group of one.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.more().map_or(0.0, |more| more.radius)
    }

    /// True when the group is its first member alone, read in place: no
    /// other member, radius 0, no representative of its own — the
    /// representative's window *is* the member's, so the representative's
    /// DTW is the member's.
    #[inline]
    pub fn is_lone(&self) -> bool {
        self.more().is_none()
    }

    /// The member sketches synced so far, slot `i` sketching member `i`:
    /// none for a group of one, possibly fewer than [`Self::cardinality`]
    /// between an admission and the sync that follows it.
    pub fn sketched(&self) -> PlanesRef<'a> {
        self.more()
            .map_or(PlanesRef::EMPTY, |more| more.planes.view())
    }

    /// The L0 sketches of every member of a group of two or more — its
    /// own planes — or `None` while they do not cover every member, which
    /// tells the searcher to pass the group's members through. `None` for
    /// a group of one, which keeps no sketch.
    #[inline]
    pub fn planes(&self) -> Option<PlanesRef<'a>> {
        let sketched = self.sketched();
        (sketched.cardinality() >= self.cardinality()).then_some(sketched)
    }

    /// True when `self` and `other` are the same group by storage, not
    /// just by value: neither has admitted a member since one's column
    /// was cloned from the other's. For what a slot keeps inline that is
    /// the same first member read from the same series handle; for the
    /// rest, the same block behind the pointer.
    pub fn shares_storage_with(&self, other: GroupView<'_>) -> bool {
        let same_more = match (self.more(), other.more()) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (None, None) => true,
            _ => false,
        };
        same_more
            && self.first() == other.first()
            && std::ptr::eq(self.representative(), other.representative())
    }

    /// Heap bytes this group owns beyond its slot, by owner —
    /// reference-count headers included, all zero for a group of one read
    /// in place.
    pub(crate) fn heap_bytes(&self) -> GroupHeap {
        let Some(more) = self.more() else {
            return GroupHeap::default();
        };
        GroupHeap {
            record: ARC_HEADER + std::mem::size_of::<GroupMore>(),
            representative: more
                .representative
                .as_ref()
                .map_or(0, |values| ARC_HEADER + std::mem::size_of_val(&values[..])),
            members: more.members.capacity() * std::mem::size_of::<SubseqRef>(),
            planes: more.planes.heap_bytes(),
        }
    }
}

/// Result of [`GroupView::heap_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct GroupHeap {
    /// The block behind the slot's pointer itself.
    pub record: usize,
    /// An owned representative.
    pub representative: usize,
    /// The member list's buffer.
    pub members: usize,
    /// The group's own sketch planes.
    pub planes: usize,
}

/// The strong and weak counts in front of every `Arc` payload.
pub(crate) const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupColumn;

    fn r(start: u32) -> SubseqRef {
        SubseqRef::new(0, start, 3)
    }

    /// A column of one group with a representative of its own.
    fn owned(first: SubseqRef, values: &[f64]) -> GroupColumn {
        let mut column = GroupColumn::new();
        column.push_owned(first, values);
        column
    }

    #[test]
    fn seed_starts_with_one_member() {
        let column = owned(r(0), &[1.0, 2.0, 3.0]);
        let g = column.at(0);
        assert_eq!(g.cardinality(), 1);
        assert_eq!(g.len(), 3);
        assert_eq!(g.representative(), &[1.0, 2.0, 3.0]);
        assert_eq!(g.members(), &[r(0)]);
        assert_eq!(g.radius(), 0.0);
        assert!(!g.is_empty());
    }

    #[test]
    fn centroid_policy_tracks_running_mean() {
        let mut column = owned(SubseqRef::new(0, 0, 2), &[0.0, 0.0]);
        column.admit(0, SubseqRef::new(0, 1, 2), &[2.0, 4.0], 1.0, true);
        assert_eq!(column.at(0).representative(), &[1.0, 2.0]);
        column.admit(0, SubseqRef::new(0, 2, 2), &[4.0, 2.0], 1.5, true);
        let g = column.at(0);
        assert_eq!(g.representative(), &[2.0, 2.0]);
        assert_eq!(g.cardinality(), 3);
        assert_eq!(g.radius(), 1.5);
    }

    #[test]
    fn seed_policy_freezes_representative() {
        let mut column = owned(SubseqRef::new(0, 0, 2), &[0.0, 0.0]);
        column.admit(0, SubseqRef::new(0, 1, 2), &[2.0, 4.0], 1.0, false);
        assert_eq!(column.at(0).representative(), &[0.0, 0.0]);
        assert_eq!(column.at(0).radius(), 1.0);
    }

    #[test]
    fn admission_copies_on_write_and_leaves_the_clone_untouched() {
        let first = SubseqRef::new(0, 0, 2);
        let mut column = owned(first, &[0.0, 0.0]);
        let published = column.clone();
        assert!(column.at(0).shares_storage_with(published.at(0)));
        column.admit(0, SubseqRef::new(0, 1, 2), &[2.0, 4.0], 1.0, true);
        assert!(!column.at(0).shares_storage_with(published.at(0)));
        assert_eq!(published.at(0).members(), &[first]);
        assert_eq!(published.at(0).representative(), &[0.0, 0.0]);
        assert_eq!(column.at(0).representative(), &[1.0, 2.0]);
        // A frozen representative stays shared; only the members split.
        let mut seed = published.clone();
        seed.admit(0, SubseqRef::new(0, 2, 2), &[0.1, 0.1], 0.1, false);
        assert!(std::ptr::eq(
            seed.at(0).representative(),
            published.at(0).representative()
        ));
        assert!(!seed.at(0).shares_storage_with(published.at(0)));
    }

    fn series() -> Dataset {
        Dataset::from_series(vec![TimeSeries::new("s", vec![1.0, 2.0, 3.0, 4.0, 5.0])]).unwrap()
    }

    /// A column over `ds` seeded in place with the windows at `starts`.
    fn in_place(ds: &Dataset, starts: &[u32]) -> GroupColumn {
        let mut column = GroupColumn::over(series_table(ds));
        for &start in starts {
            assert!(column.push_seed(r(start)));
        }
        column
    }

    #[test]
    fn an_in_place_seed_reads_the_series_and_owns_no_heap() {
        let ds = series();
        let mut column = in_place(&ds, &[1]);
        let g = column.at(0);
        assert_eq!(g.representative(), &[2.0, 3.0, 4.0]);
        assert_eq!((g.len(), g.cardinality(), g.radius()), (3, 1, 0.0));
        assert_eq!(g.heap_bytes(), GroupHeap::default());
        assert!(std::ptr::eq(
            g.representative().as_ptr(),
            &ds.series(0).unwrap().values()[1]
        ));
        // By value it is the owned seed of the same window.
        assert_eq!(g, owned(r(1), &[2.0, 3.0, 4.0]).at(0));
        // A window that does not resolve seeds nothing (no panic later).
        assert!(!column.push_seed(r(3)));
        assert!(!column.push_seed(SubseqRef::new(7, 0, 3)));
        assert_eq!(column.len(), 1);
    }

    #[test]
    fn in_place_storage_is_shared_by_series_handle_and_offset() {
        let ds = series();
        let mut column = in_place(&ds, &[1]);
        let published = column.clone();
        assert!(column.at(0).shares_storage_with(published.at(0)));
        // The same window seeded through a clone of the dataset is the
        // same storage; another offset, or an equal copy of the series
        // under another handle, is not.
        let again = in_place(&ds.clone(), &[1]);
        assert!(again.at(0).shares_storage_with(published.at(0)));
        let shifted = in_place(&ds, &[0]);
        assert!(!shifted.at(0).shares_storage_with(published.at(0)));
        let twin = in_place(&series(), &[1]);
        assert!(twin.at(0) == published.at(0));
        assert!(!twin.at(0).shares_storage_with(published.at(0)));
        // A frozen admission splits the members and leaves the window
        // where it is.
        column.admit(0, r(2), &[2.1, 3.1, 4.1], 0.2, false);
        assert!(std::ptr::eq(
            column.at(0).representative(),
            published.at(0).representative()
        ));
        assert!(!column.at(0).shares_storage_with(published.at(0)));
        assert_eq!(published.at(0).members(), &[r(1)]);
    }

    #[test]
    fn an_in_place_seed_asked_to_drift_copies_first() {
        let ds = series();
        let mut column = in_place(&ds, &[0]);
        let published = column.clone();
        column.admit(0, r(2), &[3.0, 4.0, 5.0], 1.0, true);
        let g = column.at(0);
        assert_eq!(g.representative(), &[2.0, 3.0, 4.0]);
        assert!(
            g.heap_bytes().representative > 0,
            "the mean is the group's own now"
        );
        // Neither the published clone nor the series saw the update.
        assert_eq!(published.at(0).representative(), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.series(0).unwrap().values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(!g.shares_storage_with(published.at(0)));
    }

    #[test]
    fn a_group_outlives_its_dataset() {
        let ds = series();
        let column = in_place(&ds, &[2]);
        let g = column.at(0);
        drop(ds);
        assert_eq!(g.representative(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn an_admission_through_a_shared_column_copies_that_groups_block_and_storage_only() {
        let ds = Dataset::from_series(vec![TimeSeries::new("s", vec![0.5; 1000])]).unwrap();
        let mut published = in_place(&ds, &(0..900).collect::<Vec<u32>>());
        // A few groups of two, so that there are pointers to share.
        for index in [3, 300, 599, 601] {
            published.admit(index, r(991), &[0.5; 3], 0.0, false);
        }
        let mut next = published.clone();
        let admitting = 600;
        next.admit(admitting, r(990), &[0.5; 3], 0.0, false);
        let written = GroupColumn::block_of(admitting);
        for block in 0..next.block_count() {
            assert_eq!(next.shares_block(&published, block), block != written);
        }
        // The slots beside it came along by value and still read the
        // published groups' storage — every other group's pointer is the
        // published epoch's — and the published group saw nothing.
        for index in (0..900).filter(|&index| index != admitting) {
            assert!(
                next.at(index).shares_storage_with(published.at(index)),
                "{index}"
            );
        }
        assert!(!next
            .at(admitting)
            .shares_storage_with(published.at(admitting)));
        assert_eq!(published.at(admitting).members(), &[r(admitting as u32)]);
        assert_eq!(next.at(admitting).members(), &[r(admitting as u32), r(990)]);
    }

    #[test]
    fn a_slot_is_20_bytes_and_the_rest_sits_behind_one_pointer() {
        let slot = std::mem::size_of::<Block>() / crate::blocks::BLOCK;
        assert_eq!(slot, 12 + 8, "a reference and a pointer");
        assert!(std::mem::size_of::<GroupMore>() <= 64);
        assert!(std::mem::size_of::<GroupView<'_>>() <= 32);
    }

    #[test]
    fn group_id_display() {
        let id = GroupId { len: 12, index: 3 };
        assert_eq!(id.to_string(), "g3@12");
    }
}
