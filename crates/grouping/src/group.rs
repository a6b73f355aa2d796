use std::sync::Arc;

use onex_tseries::{Dataset, SubseqRef, TimeSeries};

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

/// One ONEX similarity group: same-length subsequences that passed the
/// `ST/2` Euclidean admission test against the representative.
///
/// A group of one owns no heap. Under the `Seed` policy the
/// representative *is* the first member's window, frozen, so the group
/// holds the dataset's shared series handle and reads the window in
/// place; a lone member sits inline. Only a drifting (`Centroid`)
/// representative, one decoded from a file without its dataset, and a
/// member list of two or more are reference-counted blocks of the
/// group's own.
///
/// A clone therefore copies 48 bytes and bumps at most two counters —
/// for a base that does not compact, the counters of its few dozen
/// series, not one block per group. A base clones records a block at a
/// time and only when it writes to one ([`crate::BlockVec`]): the next
/// epoch shares every other block of records, and what is behind the
/// copied ones, with the epochs before it. [`Self::admit`] copies on
/// write in turn: of the groups in a copied block only the one that
/// admits a member gets storage of its own
/// ([`Self::shares_storage_with`] tells which).
#[derive(Debug, Clone)]
pub struct SimilarityGroup {
    representative: Representative,
    members: Members,
    /// Largest admission distance observed — a certified radius under the
    /// `Seed` policy, an estimate under `Centroid`.
    max_insert_dist: f64,
}

/// Where a group's representative sequence lives.
#[derive(Debug, Clone)]
pub(crate) enum Representative {
    /// A frozen seed read in place: `len` samples of `series` from
    /// `start`, checked in bounds when constructed. The handle is the one
    /// every clone of the dataset holds, so the samples outlive the
    /// dataset the group was built over.
    InPlace {
        series: Arc<TimeSeries>,
        start: u32,
        len: u32,
    },
    /// The group's own copy: a running mean, or whatever a file stored.
    Owned(Arc<[f64]>),
}

impl Representative {
    /// The window `r` of `dataset`, in place — `None` when `r` does not
    /// resolve there.
    pub(crate) fn in_place(dataset: &Dataset, r: SubseqRef) -> Option<Self> {
        let series = dataset.shared(r.series)?;
        series.subsequence(r.start as usize, r.len as usize)?;
        Some(Representative::InPlace {
            series: Arc::clone(series),
            start: r.start,
            len: r.len,
        })
    }

    #[inline]
    pub(crate) fn values(&self) -> &[f64] {
        match self {
            Representative::InPlace { series, start, len } => {
                &series.values()[*start as usize..][..*len as usize]
            }
            Representative::Owned(values) => values,
        }
    }

    /// The values behind an owned handle, copied out of the series first
    /// when they were read in place.
    fn make_mut(&mut self) -> &mut [f64] {
        if let Representative::InPlace { .. } = self {
            *self = Representative::Owned(self.values().into());
        }
        match self {
            Representative::Owned(values) => Arc::make_mut(values),
            Representative::InPlace { .. } => unreachable!("replaced by an owned copy above"),
        }
    }

    /// Same storage, not just the same values: one owned block, or one
    /// window of one shared series.
    fn shares_storage_with(&self, other: &Representative) -> bool {
        match (self, other) {
            (Representative::Owned(a), Representative::Owned(b)) => Arc::ptr_eq(a, b),
            (
                Representative::InPlace { series, start, len },
                Representative::InPlace {
                    series: other_series,
                    start: other_start,
                    len: other_len,
                },
            ) => Arc::ptr_eq(series, other_series) && (start, len) == (other_start, other_len),
            _ => false,
        }
    }
}

/// A group's member references. A base that barely compacts is mostly
/// groups of one, and a lone member needs no list: it sits inline, with
/// nothing on the heap to allocate, count references on or chase.
#[derive(Debug, Clone)]
enum Members {
    One(SubseqRef),
    Many(Arc<Vec<SubseqRef>>),
}

impl Members {
    fn from_vec(members: Vec<SubseqRef>) -> Self {
        match members[..] {
            [only] => Members::One(only),
            _ => Members::Many(Arc::new(members)),
        }
    }

    fn as_slice(&self) -> &[SubseqRef] {
        match self {
            Members::One(only) => std::slice::from_ref(only),
            Members::Many(list) => list,
        }
    }

    fn push(&mut self, member: SubseqRef) {
        match self {
            Members::One(first) => *self = Members::Many(Arc::new(vec![*first, member])),
            Members::Many(list) => Arc::make_mut(list).push(member),
        }
    }

    /// Same storage, not just the same references (a lone member has no
    /// storage to tell apart).
    fn shares_storage_with(&self, other: &Members) -> bool {
        match (self, other) {
            (Members::One(a), Members::One(b)) => a == b,
            (Members::Many(a), Members::Many(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Equality covers the group's content — representative values (wherever
/// they live), members, radius — so a group that round-tripped through
/// disk equals the one that was saved, owned copy or in place.
impl PartialEq for SimilarityGroup {
    fn eq(&self, other: &Self) -> bool {
        self.representative() == other.representative()
            && self.members() == other.members()
            && self.max_insert_dist == other.max_insert_dist
    }
}

impl SimilarityGroup {
    /// Seed a new group from its first member, with a representative of
    /// its own (the `Centroid` policy's starting point).
    pub fn seed(first: SubseqRef, values: &[f64]) -> Self {
        SimilarityGroup {
            representative: Representative::Owned(values.into()),
            members: Members::One(first),
            max_insert_dist: 0.0,
        }
    }

    /// Seed a new group whose representative is `first`'s window read in
    /// place from `dataset`'s shared series (the `Seed` policy: nothing
    /// is copied, nothing allocated). `None` when `first` does not
    /// resolve in `dataset`.
    pub(crate) fn seed_in_place(first: SubseqRef, dataset: &Dataset) -> Option<Self> {
        Some(SimilarityGroup {
            representative: Representative::in_place(dataset, first)?,
            members: Members::One(first),
            max_insert_dist: 0.0,
        })
    }

    /// Admit a member that passed the admission test at distance `dist`.
    /// When `centroid` is true the representative is updated to remain the
    /// running mean of all members. Storage still shared with a clone
    /// (an earlier epoch) — or read in place from the series — is copied
    /// first, so neither the clone nor the dataset ever sees the
    /// admission.
    pub fn admit(&mut self, member: SubseqRef, values: &[f64], dist: f64, centroid: bool) {
        debug_assert_eq!(values.len(), self.len());
        self.members.push(member);
        self.max_insert_dist = self.max_insert_dist.max(dist);
        if centroid {
            let k = self.cardinality() as f64;
            for (r, &v) in self.representative.make_mut().iter_mut().zip(values) {
                *r += (v - *r) / k;
            }
        }
    }

    /// True when `self` and `other` are the same group by storage, not
    /// just by value: neither has admitted a member since one was cloned
    /// from the other. For the parts a group keeps inline that is the
    /// same window of the same series handle, and the same lone member.
    pub fn shares_storage_with(&self, other: &SimilarityGroup) -> bool {
        self.representative
            .shares_storage_with(&other.representative)
            && self.members.shares_storage_with(&other.members)
    }

    /// The group's representative sequence (centroid or frozen seed).
    #[inline]
    pub fn representative(&self) -> &[f64] {
        self.representative.values()
    }

    /// Member references in admission order (the seed is first).
    #[inline]
    pub fn members(&self) -> &[SubseqRef] {
        self.members.as_slice()
    }

    /// Number of members (≥ 1 — groups are never empty).
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.members().len()
    }

    /// Subsequence length of this group.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.representative {
            Representative::InPlace { len, .. } => *len as usize,
            Representative::Owned(values) => values.len(),
        }
    }

    /// Groups are never empty; provided for clippy-idiomatic pairing with
    /// [`Self::len`], always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Largest admission distance observed (see field docs for caveats).
    #[inline]
    pub fn radius(&self) -> f64 {
        self.max_insert_dist
    }

    /// Heap bytes this group owns beyond its record: its representative
    /// (0 when read in place) and its member list (0 for a lone member),
    /// reference-count headers included.
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        let representative = match &self.representative {
            Representative::InPlace { .. } => 0,
            Representative::Owned(values) => ARC_HEADER + std::mem::size_of_val(&values[..]),
        };
        let members = match &self.members {
            Members::One(_) => 0,
            Members::Many(list) => {
                ARC_HEADER
                    + std::mem::size_of::<Vec<SubseqRef>>()
                    + std::mem::size_of_val(&list[..])
            }
        };
        (representative, members)
    }

    /// Reconstruct a group from persisted parts (see [`crate::persist`]).
    pub(crate) fn from_parts(
        representative: Representative,
        members: Vec<SubseqRef>,
        max_insert_dist: f64,
    ) -> Self {
        SimilarityGroup {
            representative,
            members: Members::from_vec(members),
            max_insert_dist,
        }
    }
}

/// The strong and weak counts in front of every `Arc` payload.
const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u32) -> SubseqRef {
        SubseqRef::new(0, start, 3)
    }

    #[test]
    fn seed_starts_with_one_member() {
        let g = SimilarityGroup::seed(r(0), &[1.0, 2.0, 3.0]);
        assert_eq!(g.cardinality(), 1);
        assert_eq!(g.len(), 3);
        assert_eq!(g.representative(), &[1.0, 2.0, 3.0]);
        assert_eq!(g.radius(), 0.0);
        assert!(!g.is_empty());
    }

    #[test]
    fn centroid_policy_tracks_running_mean() {
        let mut g = SimilarityGroup::seed(r(0), &[0.0, 0.0]);
        g.admit(r(1), &[2.0, 4.0], 1.0, true);
        assert_eq!(g.representative(), &[1.0, 2.0]);
        g.admit(r(2), &[4.0, 2.0], 1.5, true);
        assert_eq!(g.representative(), &[2.0, 2.0]);
        assert_eq!(g.cardinality(), 3);
        assert_eq!(g.radius(), 1.5);
    }

    #[test]
    fn seed_policy_freezes_representative() {
        let mut g = SimilarityGroup::seed(r(0), &[0.0, 0.0]);
        g.admit(r(1), &[2.0, 4.0], 1.0, false);
        assert_eq!(g.representative(), &[0.0, 0.0]);
    }

    #[test]
    fn admission_copies_on_write_and_leaves_the_clone_untouched() {
        let mut g = SimilarityGroup::seed(r(0), &[0.0, 0.0]);
        let published = g.clone();
        assert!(g.shares_storage_with(&published));
        g.admit(r(1), &[2.0, 4.0], 1.0, true);
        assert!(!g.shares_storage_with(&published));
        assert_eq!(published.members(), &[r(0)]);
        assert_eq!(published.representative(), &[0.0, 0.0]);
        assert_eq!(g.representative(), &[1.0, 2.0]);
        // A frozen representative stays shared; only the members split.
        let mut seed = published.clone();
        seed.admit(r(2), &[0.1, 0.1], 0.1, false);
        assert!(seed
            .representative
            .shares_storage_with(&published.representative));
        assert!(!seed.shares_storage_with(&published));
    }

    fn series() -> Dataset {
        Dataset::from_series(vec![TimeSeries::new("s", vec![1.0, 2.0, 3.0, 4.0, 5.0])]).unwrap()
    }

    #[test]
    fn an_in_place_seed_reads_the_series_and_owns_no_heap() {
        let ds = series();
        let g = SimilarityGroup::seed_in_place(r(1), &ds).unwrap();
        assert_eq!(g.representative(), &[2.0, 3.0, 4.0]);
        assert_eq!((g.len(), g.cardinality(), g.radius()), (3, 1, 0.0));
        assert_eq!(g.heap_bytes(), (0, 0));
        assert!(std::ptr::eq(
            g.representative().as_ptr(),
            &ds.series(0).unwrap().values()[1]
        ));
        // By value it is the owned seed of the same window.
        assert_eq!(g, SimilarityGroup::seed(r(1), &[2.0, 3.0, 4.0]));
        // A window that does not resolve seeds nothing (no panic later).
        assert!(SimilarityGroup::seed_in_place(r(3), &ds).is_none());
        assert!(SimilarityGroup::seed_in_place(SubseqRef::new(7, 0, 3), &ds).is_none());
    }

    #[test]
    fn in_place_storage_is_shared_by_series_handle_and_offset() {
        let ds = series();
        let mut g = SimilarityGroup::seed_in_place(r(1), &ds).unwrap();
        let published = g.clone();
        assert!(g.shares_storage_with(&published));
        // The same window seeded through a clone of the dataset is the
        // same storage; another offset, or an equal copy of the series
        // under another handle, is not.
        let again = SimilarityGroup::seed_in_place(r(1), &ds.clone()).unwrap();
        assert!(again.shares_storage_with(&published));
        let shifted = SimilarityGroup::seed_in_place(r(0), &ds).unwrap();
        assert!(!shifted.shares_storage_with(&published));
        let twin = SimilarityGroup::seed_in_place(r(1), &series()).unwrap();
        assert!(twin == published && !twin.shares_storage_with(&published));
        // A frozen admission splits the members and leaves the window
        // where it is.
        g.admit(r(2), &[2.1, 3.1, 4.1], 0.2, false);
        assert!(g
            .representative
            .shares_storage_with(&published.representative));
        assert!(!g.shares_storage_with(&published));
        assert_eq!(published.members(), &[r(1)]);
    }

    #[test]
    fn an_in_place_seed_asked_to_drift_copies_first() {
        let ds = series();
        let mut g = SimilarityGroup::seed_in_place(r(0), &ds).unwrap();
        let published = g.clone();
        g.admit(r(2), &[3.0, 4.0, 5.0], 1.0, true);
        assert_eq!(g.representative(), &[2.0, 3.0, 4.0]);
        assert!(g.heap_bytes().0 > 0, "the mean is the group's own now");
        // Neither the published clone nor the series saw the update.
        assert_eq!(published.representative(), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.series(0).unwrap().values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(!g.shares_storage_with(&published));
    }

    #[test]
    fn a_group_outlives_its_dataset() {
        let ds = series();
        let g = SimilarityGroup::seed_in_place(r(2), &ds).unwrap();
        drop(ds);
        assert_eq!(g.representative(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn an_admission_through_a_shared_column_copies_that_groups_block_and_storage_only() {
        use crate::BlockVec;
        let ds = Dataset::from_series(vec![TimeSeries::new("s", vec![0.5; 1000])]).unwrap();
        let published: BlockVec<SimilarityGroup> = (0..900)
            .map(|start| SimilarityGroup::seed_in_place(r(start), &ds).unwrap())
            .collect();
        let mut next = published.clone();
        let admitting = 600;
        let group = next.get_mut(admitting).unwrap();
        group.admit(r(990), &[0.5; 3], 0.0, false);
        let written = BlockVec::<SimilarityGroup>::block_of(admitting);
        for block in 0..next.block_count() {
            assert_eq!(next.shares_block(&published, block), block != written);
        }
        // The records beside it came along by value and still read the
        // published groups' storage; the published group saw nothing.
        assert!(next[admitting - 1].shares_storage_with(&published[admitting - 1]));
        assert!(!next[admitting].shares_storage_with(&published[admitting]));
        assert_eq!(published[admitting].members(), &[r(admitting as u32)]);
        assert_eq!(next[admitting].members(), &[r(admitting as u32), r(990)]);
    }

    #[test]
    fn the_record_is_six_words() {
        assert!(std::mem::size_of::<SimilarityGroup>() <= 48);
    }

    #[test]
    fn group_id_display() {
        let id = GroupId { len: 12, index: 3 };
        assert_eq!(id.to_string(), "g3@12");
    }
}
