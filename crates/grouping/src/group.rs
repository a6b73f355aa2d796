use std::sync::Arc;

use onex_tseries::stats::Welford;
use onex_tseries::SubseqRef;

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
/// The representative and the member list are reference-counted, so a
/// clone is two pointer copies: every published epoch of a base shares
/// the storage of the groups it inherited, and [`Self::admit`] copies
/// on write — only a group that admits a member while shared gets
/// storage of its own ([`Self::shares_storage_with`] tells which).
#[derive(Debug, Clone)]
pub struct SimilarityGroup {
    representative: Arc<[f64]>,
    members: Members,
    /// Largest admission distance observed — a certified radius under the
    /// `Seed` policy, an estimate under `Centroid`.
    max_insert_dist: f64,
    /// Spread of admission distances (for overview colouring and
    /// threshold recommendation diagnostics).
    spread: Welford,
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

/// Equality covers the group's *semantic* content — representative,
/// members, radius — and deliberately excludes the diagnostic `spread`
/// statistics, which persistence drops ([`crate::persist`] documents
/// the reconstruction as lossy for that field). A group that
/// round-tripped through disk equals the one that was saved.
impl PartialEq for SimilarityGroup {
    fn eq(&self, other: &Self) -> bool {
        self.representative == other.representative
            && self.members() == other.members()
            && self.max_insert_dist == other.max_insert_dist
    }
}

impl SimilarityGroup {
    /// Seed a new group from its first member.
    pub fn seed(first: SubseqRef, values: &[f64]) -> Self {
        let mut spread = Welford::new();
        spread.push(0.0);
        SimilarityGroup {
            representative: values.into(),
            members: Members::One(first),
            max_insert_dist: 0.0,
            spread,
        }
    }

    /// Admit a member that passed the admission test at distance `dist`.
    /// When `centroid` is true the representative is updated to remain the
    /// running mean of all members. Storage still shared with a clone
    /// (an earlier epoch) is copied first, so the clone never sees the
    /// admission.
    pub fn admit(&mut self, member: SubseqRef, values: &[f64], dist: f64, centroid: bool) {
        debug_assert_eq!(values.len(), self.representative.len());
        self.members.push(member);
        self.max_insert_dist = self.max_insert_dist.max(dist);
        self.spread.push(dist);
        if centroid {
            let k = self.cardinality() as f64;
            for (r, &v) in Arc::make_mut(&mut self.representative)
                .iter_mut()
                .zip(values)
            {
                *r += (v - *r) / k;
            }
        }
    }

    /// True when `self` and `other` are the same group by storage, not
    /// just by value: neither has admitted a member since one was cloned
    /// from the other.
    pub fn shares_storage_with(&self, other: &SimilarityGroup) -> bool {
        Arc::ptr_eq(&self.representative, &other.representative)
            && self.members.shares_storage_with(&other.members)
    }

    /// The group's representative sequence (centroid or frozen seed).
    #[inline]
    pub fn representative(&self) -> &[f64] {
        &self.representative
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
        self.representative.len()
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

    /// Mean admission distance — how tight the group is.
    pub fn mean_insert_dist(&self) -> f64 {
        self.spread.mean()
    }

    /// Reconstruct a group from persisted parts (see [`crate::persist`]).
    pub(crate) fn from_parts(
        representative: Arc<[f64]>,
        members: Vec<SubseqRef>,
        max_insert_dist: f64,
    ) -> Self {
        let mut spread = Welford::new();
        // The full distance stream is not persisted; seed the spread with
        // the radius so mean/std are defined (documented lossy field).
        spread.push(max_insert_dist);
        SimilarityGroup {
            representative,
            members: Members::from_vec(members),
            max_insert_dist,
            spread,
        }
    }
}

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
        assert!(Arc::ptr_eq(&seed.representative, &published.representative));
        assert!(!seed.shares_storage_with(&published));
    }

    #[test]
    fn spread_statistics() {
        let mut g = SimilarityGroup::seed(r(0), &[0.0]);
        g.admit(r(1), &[1.0], 2.0, false);
        g.admit(r(2), &[1.0], 4.0, false);
        // Distances seen: 0 (seed), 2, 4.
        assert!((g.mean_insert_dist() - 2.0).abs() < 1e-12);
        assert_eq!(g.radius(), 4.0);
    }

    #[test]
    fn group_id_display() {
        let id = GroupId { len: 12, index: 3 };
        assert_eq!(id.to_string(), "g3@12");
    }
}
