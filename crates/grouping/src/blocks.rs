//! The one copy-on-write column a base keeps per subsequence length
//! ([`crate::OnexBase::groups_for_len`]): its groups, 256 to a block.
//!
//! A base that barely compacts is mostly groups of one, and a group of
//! one is two facts: which window it is, and that there is nothing more
//! to say. A block holds exactly that for its 256 groups, in one
//! allocation: each first member's 8-byte record — series and start; the
//! subsequence length is the column's, held once, and the representative
//! is that window read in place from the dataset's shared series through
//! the column's table of handles — and a 256-bit occupancy bitmap, one
//! bit a group, clear for a group of one. The few groups whose bit is set
//! own something — members from two up with their sketch planes, the
//! radius, a representative of the group's own — behind one pointer
//! each, kept in a dense vector in slot order: a group's pointer sits at
//! the rank of its bit, the set bits below it counted by popcount
//! (Jacobson's rank over a bit vector), so a group of one costs no
//! pointer. 8 bytes a group and ≈ 2 KB a block, plus 8 bytes a group that
//! owns something, and the frozen quantiser of the sketches in the
//! column's header. A group of one keeps no sketch: the searcher answers
//! it from its representative's DTW, which is its member's.
//!
//! A column is append-only and lives through many epochs of a base, each
//! a clone of the one before with a few thousand groups added to over a
//! hundred thousand. Every block sits behind one `Arc`: a clone copies one
//! pointer per block, a write copies the block it lands in and only while
//! another clone still reads it, dropping a clone frees the blocks nobody
//! else holds, and nothing is ever reallocated at twice its size. What an
//! append costs is therefore the blocks it writes to — the tail a group
//! is seeded into, the block of a group that admits a member — and a
//! copied block takes its neighbours' pointers along, not what is behind
//! them. A group that admits its second member gets its pointer inserted
//! at its rank in the (copied) block's vector.

use std::sync::Arc;

use onex_distance::{SketchParams, SketchPlanes};
use onex_tseries::SubseqRef;

use crate::group::{window, GroupMore, GroupView, Member, SeriesTable, ARC_HEADER};

/// Groups per block. Measured on the end-to-end harness: at 256 a block
/// is ≈ 2 KB, small enough that the blocks an append replaces fit
/// back into the holes the retired epoch leaves; larger blocks bought
/// nothing on the append and cost resident memory.
pub(crate) const BLOCK: usize = 256;

/// Bits a word of the occupancy bitmap holds.
const WORD: usize = u64::BITS as usize;

/// 256 groups side by side (see the [module docs](self)). A tail block
/// is a whole block whose last slots are not in use yet.
#[derive(Clone)]
pub(crate) struct Block {
    /// Each group's first member — under `Seed`, and for any group of
    /// one, its representative too.
    first: [Member; BLOCK],
    /// Bit `slot` is set when group `slot` owns a [`GroupMore`].
    owns: [u64; BLOCK / WORD],
    /// What the groups whose bit is set own, in slot order.
    more: Vec<Arc<GroupMore>>,
}

impl Block {
    fn new() -> Block {
        Block {
            first: [Member::default(); BLOCK],
            owns: [0; BLOCK / WORD],
            more: Vec::new(),
        }
    }

    /// Group `slot`'s first member.
    #[inline]
    pub fn first(&self, slot: usize) -> Member {
        self.first[slot]
    }

    /// Group `slot`'s first member, as a list of one.
    #[inline]
    pub fn firsts(&self, slot: usize) -> &[Member] {
        std::slice::from_ref(&self.first[slot])
    }

    /// True when group `slot` owns a [`GroupMore`].
    #[inline]
    pub fn owns(&self, slot: usize) -> bool {
        self.owns[slot / WORD] >> (slot % WORD) & 1 == 1
    }

    /// How many groups below `slot` own a [`GroupMore`]: where group
    /// `slot`'s sits in `more`.
    #[inline]
    fn rank(&self, slot: usize) -> usize {
        let below = self.owns[..slot / WORD]
            .iter()
            .map(|word| word.count_ones());
        let partial = self.owns[slot / WORD] & ((1u64 << (slot % WORD)) - 1);
        (below.sum::<u32>() + partial.count_ones()) as usize
    }

    /// What group `slot` owns, if anything.
    #[inline]
    pub fn more(&self, slot: usize) -> Option<&GroupMore> {
        self.owns(slot).then(|| &*self.more[self.rank(slot)])
    }

    /// The pointer to what group `slot` owns, given an empty record at
    /// its rank first when it owns nothing yet.
    fn more_mut(&mut self, slot: usize) -> &mut Arc<GroupMore> {
        let at = self.rank(slot);
        if !self.owns(slot) {
            self.owns[slot / WORD] |= 1 << (slot % WORD);
            self.more.insert(at, Arc::default());
        }
        &mut self.more[at]
    }

    /// Heap bytes of the pointer vector.
    fn pointer_bytes(&self) -> usize {
        self.more.capacity() * std::mem::size_of::<Arc<GroupMore>>()
    }
}

/// The similarity groups of one subsequence length, in fixed-size,
/// individually shared blocks (see the [module docs](self)).
///
/// Every block holds the same fixed number of groups, so two columns of
/// one length are blocked alike — which is what lets
/// [`Self::shared_blocks`] go block by block. Reads (`len`, `get`, `at`,
/// iteration, `==`) never copy and hand out [`GroupView`]s; the writers
/// (crate-internal: seeding, admission, the sketch sync) copy the one
/// block they write when, and only when, a clone shares it.
///
/// Equality is over the groups' content; the derived sketches and their
/// quantiser do not take part.
#[derive(Clone, Default)]
pub struct GroupColumn {
    blocks: Vec<Arc<Block>>,
    len: usize,
    /// The subsequence length of every member, set by the first group.
    width: u32,
    /// What in-place representatives are read through.
    series: SeriesTable,
    /// The quantiser every sketch of this column was encoded under,
    /// frozen the first time the column is synced.
    params: Option<SketchParams>,
}

impl PartialEq for GroupColumn {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for GroupColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl GroupColumn {
    /// An empty column with no series to read in place from; allocates
    /// nothing.
    pub fn new() -> Self {
        GroupColumn::default()
    }

    /// An empty column whose in-place representatives read `series`.
    pub(crate) fn over(series: SeriesTable) -> Self {
        GroupColumn {
            series,
            ..GroupColumn::default()
        }
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there is no group.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The group at `index`, if there is one.
    #[inline]
    pub fn get(&self, index: usize) -> Option<GroupView<'_>> {
        (index < self.len).then(|| self.at(index))
    }

    /// The group at `index`.
    ///
    /// # Panics
    /// Panics when `index` is not below [`Self::len`].
    #[inline]
    pub fn at(&self, index: usize) -> GroupView<'_> {
        assert!(index < self.len, "group {index} of {}", self.len);
        let block = &self.blocks[index / BLOCK];
        GroupView::new(block, index % BLOCK, self.width, &self.series)
    }

    /// The groups in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            column: self,
            next: 0,
        }
    }

    /// The quantiser the column's sketches were encoded under — `None`
    /// until the column is first synced.
    #[inline]
    pub fn params(&self) -> Option<SketchParams> {
        self.params
    }

    /// Number of blocks the groups are kept in.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block group `index` lives in — of this or any other column:
    /// blocks are cut at the same places everywhere.
    pub fn block_of(index: usize) -> usize {
        index / BLOCK
    }

    /// True when block `block` of `self` and of `other` are one block by
    /// storage, not just by value: neither column has written to it since
    /// one was cloned from the other.
    pub fn shares_block(&self, other: &Self, block: usize) -> bool {
        match (self.blocks.get(block), other.blocks.get(block)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// How many of this column's blocks it [shares](Self::shares_block)
    /// with `other`.
    pub fn shared_blocks(&self, other: &Self) -> usize {
        (0..self.blocks.len())
            .filter(|&block| self.shares_block(other, block))
            .count()
    }

    /// Bytes the column's blocks keep on the heap: every block whole (an
    /// unfilled tail is a whole block) with its reference counts and its
    /// vector of pointers, and the block list. Blocks shared with a clone
    /// count in full; what groups own behind their pointers is
    /// [`GroupView`]'s to count.
    pub(crate) fn resident_bytes(&self) -> usize {
        let pointers: usize = self.blocks.iter().map(|block| block.pointer_bytes()).sum();
        self.blocks.len() * (ARC_HEADER + std::mem::size_of::<Block>())
            + pointers
            + self.blocks.capacity() * std::mem::size_of::<Arc<Block>>()
    }

    /// Give back what a finished build or decode left over: the unused
    /// capacity of the block list, and of every pointer vector and member
    /// list no clone shares (admissions grow them by doubling).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.blocks.shrink_to_fit();
        for block in self.blocks.iter_mut().filter_map(Arc::get_mut) {
            block.more.shrink_to_fit();
            for more in block.more.iter_mut().filter_map(Arc::get_mut) {
                more.members.shrink_to_fit();
            }
        }
    }

    /// Read in-place representatives through `series` from now on: the
    /// table of a dataset that grew. The handles this column already
    /// reads through are kept — as `series` itself when it leads with
    /// them, which is what a clone of the same dataset gives.
    pub(crate) fn adopt_series(&mut self, series: &SeriesTable) {
        if series.len() <= self.series.len() {
            return;
        }
        let pairs = self.series.iter().zip(series.iter());
        self.series = if pairs
            .clone()
            .all(|(mine, theirs)| Arc::ptr_eq(mine, theirs))
        {
            Arc::clone(series)
        } else {
            let fresh = &series[self.series.len()..];
            self.series.iter().chain(fresh).cloned().collect()
        };
    }

    /// Write the next slot: of the tail block — copied first if a clone
    /// shares it — or of a new block when the tail is full. The first
    /// group sets the column's length.
    fn push_slot(&mut self, first: SubseqRef, more: Option<GroupMore>) {
        if self.len == 0 {
            self.width = first.len;
        }
        debug_assert_eq!(first.len, self.width, "one length a column");
        if self.len.is_multiple_of(BLOCK) {
            self.blocks.push(Arc::new(Block::new()));
        }
        let tail = self.blocks.last_mut().expect("a tail block exists");
        let (block, slot) = (Arc::make_mut(tail), self.len % BLOCK);
        block.first[slot] = Member::of(first);
        if let Some(more) = more {
            *block.more_mut(slot) = Arc::new(more);
        }
        self.len += 1;
    }

    /// Seed a group of one whose representative is `first`'s window read
    /// in place: nothing is copied, nothing allocated. `false` — and no
    /// group — when `first` does not resolve in the column's series.
    pub(crate) fn push_seed(&mut self, first: SubseqRef) -> bool {
        let resolves = window(&self.series, first).is_some();
        if resolves {
            self.push_slot(first, None);
        }
        resolves
    }

    /// Seed a group of one with a representative of its own (tests).
    #[cfg(test)]
    pub(crate) fn push_owned(&mut self, first: SubseqRef, values: &[f64]) {
        let more = GroupMore {
            representative: Some(values.into()),
            ..GroupMore::default()
        };
        self.push_slot(first, Some(more));
    }

    /// Append a group as a base image stores it (see [`crate::persist`]):
    /// its members' records at length `len` — the image's `MEMBERS`
    /// records, kept as they are — its radius, the mean it owns if it
    /// drifted — any other representative is the first member's window,
    /// read in place — and, for a group of two or more, its members'
    /// sketch records in order (none for a group of one). Every member
    /// is checked: `Err((i, member))` — and no group — names the first
    /// member that is no window of the column's series.
    pub(crate) fn push_decoded(
        &mut self,
        len: u32,
        members: Vec<Member>,
        radius: f64,
        representative: Option<Arc<[f64]>>,
        records: &[u8],
    ) -> Result<(), (usize, SubseqRef)> {
        let refs = members.iter().map(|m| m.at(len));
        if let Some(stray) = refs
            .enumerate()
            .find(|&(_, r)| window(&self.series, r).is_none())
        {
            return Err(stray);
        }
        let first = members[0].at(len);
        let many = members.len() > 1;
        let more = (many || representative.is_some() || radius.to_bits() != 0).then(|| GroupMore {
            radius,
            representative,
            planes: SketchPlanes::from_records(records),
            members: if many { members } else { Vec::new() },
        });
        self.push_slot(first, more);
        Ok(())
    }

    /// Admit into group `index` a member that passed the admission test
    /// at distance `dist`. When `centroid` is true the representative is
    /// updated to remain the running mean of all members — copied out of
    /// the series first if it was read in place. The group's block, and
    /// what the group owns, are copied first where a clone (an earlier
    /// epoch) still shares them, so neither the clone nor the dataset
    /// ever sees the admission.
    ///
    /// # Panics
    /// Panics when `index` is not below [`Self::len`].
    pub(crate) fn admit(
        &mut self,
        index: usize,
        member: SubseqRef,
        values: &[f64],
        dist: f64,
        centroid: bool,
    ) {
        assert!(index < self.len, "group {index} of {}", self.len);
        debug_assert_eq!(
            (member.len, values.len()),
            (self.width, self.width as usize)
        );
        let block = Arc::make_mut(&mut self.blocks[index / BLOCK]);
        let slot = index % BLOCK;
        let first = block.first(slot);
        let more = Arc::make_mut(block.more_mut(slot));
        if more.members.is_empty() {
            more.members.push(first);
        }
        more.members.push(Member::of(member));
        more.radius = more.radius.max(dist);
        if centroid {
            let k = more.members.len() as f64;
            let mean = more.representative.get_or_insert_with(|| {
                let read_in_place = window(&self.series, first.at(self.width));
                read_in_place
                    .expect("checked when the slot was written")
                    .into()
            });
            for (r, &v) in Arc::make_mut(mean).iter_mut().zip(values) {
                *r += (v - *r) / k;
            }
        }
    }

    /// Freeze the quantiser the column's sketches are encoded under.
    pub(crate) fn set_params(&mut self, params: SketchParams) {
        self.params = Some(params);
    }

    /// Bring group `index`'s sketches up to its members: `encode(member,
    /// record)` fills the (zeroed) record of each member not sketched
    /// yet. A group of two or more gets new planes of its own — the slots
    /// it had plus the new ones, the first member among them when the
    /// group grew from one — so the planes an earlier epoch reads are
    /// never rewritten. A group of one keeps no sketch, and a group that
    /// gained nothing is left alone: neither has its block copied.
    pub(crate) fn sketch_group(
        &mut self,
        index: usize,
        mut encode: impl FnMut(SubseqRef, &mut [u8]),
    ) {
        let group = self.at(index);
        let (done, members) = (group.sketched(), group.members());
        if members.len() == 1 || done.cardinality() >= members.len() {
            return;
        }
        let grown = done.grown(members.len(), |slot, record| {
            encode(members.at(slot), record)
        });
        let block = Arc::make_mut(&mut self.blocks[index / BLOCK]);
        let slot = index % BLOCK;
        debug_assert!(block.owns(slot), "two members and more");
        Arc::make_mut(block.more_mut(slot)).planes = grown;
    }
}

impl<'a> IntoIterator for &'a GroupColumn {
    type Item = GroupView<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`GroupColumn`]'s groups, block after block.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    column: &'a GroupColumn,
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = GroupView<'a>;

    #[inline]
    fn next(&mut self) -> Option<GroupView<'a>> {
        let group = self.column.get(self.next)?;
        self.next += 1;
        Some(group)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.column.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::series_table;
    use onex_distance::sketch::encode_into;
    use onex_distance::SKETCH_STRIDE;
    use onex_tseries::{Dataset, TimeSeries};
    use proptest::prelude::*;

    /// Lengths either side of every block edge.
    const EDGES: [usize; 7] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1];

    /// What a column should read as: per group its members' starts (the
    /// first one's window being the representative) and its radius.
    type Model = Vec<(Vec<u32>, f64)>;

    const WINDOW: u32 = 4;

    fn r(start: u32) -> SubseqRef {
        SubseqRef::new(0, start, WINDOW)
    }

    fn ramp() -> Dataset {
        let values = (0..4 * BLOCK + 8).map(|i| i as f64).collect();
        Dataset::from_series(vec![TimeSeries::new("ramp", values)]).unwrap()
    }

    /// `n` groups of one over the ramp, group `i` seeded by window `i`.
    fn counted(ds: &Dataset, n: usize) -> (GroupColumn, Model) {
        let mut column = GroupColumn::over(series_table(ds));
        (0..n as u32).for_each(|start| assert!(column.push_seed(r(start))));
        column.shrink_to_fit();
        (column, (0..n as u32).map(|s| (vec![s], 0.0)).collect())
    }

    fn agrees(column: &GroupColumn, model: &Model, ds: &Dataset) -> bool {
        column.len() == model.len()
            && column.iter().zip(model).all(|(g, (starts, radius))| {
                let members: Vec<SubseqRef> = starts.iter().map(|&s| r(s)).collect();
                g.members() == members
                    && g.radius() == *radius
                    && g.representative() == ds.resolve(members[0]).unwrap()
            })
    }

    /// Which blocks of `a` and `b` are not one block by storage.
    fn unshared(a: &GroupColumn, b: &GroupColumn) -> Vec<usize> {
        (0..a.block_count().max(b.block_count()))
            .filter(|&block| !a.shares_block(b, block))
            .collect()
    }

    #[test]
    fn reads_agree_with_a_vec_at_every_block_edge() {
        let ds = ramp();
        for n in EDGES {
            let (v, model) = counted(&ds, n);
            assert_eq!((v.len(), v.is_empty()), (n, n == 0));
            assert_eq!(v.block_count(), n.div_ceil(BLOCK));
            assert_eq!(v.iter().len(), n);
            assert!(agrees(&v, &model, &ds), "n = {n}");
            assert_eq!((&v).into_iter().count(), n);
            for i in 0..n {
                assert_eq!(v.get(i), Some(v.at(i)));
                assert_eq!(v.at(i).members(), &[r(i as u32)]);
            }
            assert_eq!(v.get(n), None);
            assert_eq!(format!("{v:?}").matches("GroupView").count(), n);
            // Seeded one at a time over another handle of the same
            // samples it is the same column by value.
            assert_eq!(counted(&ramp(), n).0, v);
        }
    }

    #[test]
    #[should_panic]
    fn indexing_past_the_end_panics() {
        let _ = counted(&ramp(), BLOCK).0.at(BLOCK);
    }

    #[test]
    fn a_push_into_a_clone_replaces_the_tail_block_and_no_other() {
        let ds = ramp();
        for n in EDGES {
            let (published, model) = counted(&ds, n);
            let mut next = published.clone();
            assert_eq!(next.shared_blocks(&published), published.block_count());
            assert!(next.push_seed(r(7)));
            // A full (or absent) tail stays shared beside a new block; a
            // partial one is copied. Either way: the last block only.
            assert_eq!(
                unshared(&next, &published),
                [next.block_count() - 1],
                "n = {n}"
            );
            assert_eq!(next.shared_blocks(&published), n / BLOCK);
            assert_eq!((published.len(), next.len()), (n, n + 1));
            assert_eq!(next.at(n).members(), &[r(7)]);
            assert!(agrees(&published, &model, &ds));
        }
    }

    #[test]
    fn a_write_through_a_clone_replaces_that_elements_block_and_no_other() {
        let ds = ramp();
        for n in EDGES {
            for i in [0, BLOCK - 1, BLOCK, n.saturating_sub(1)] {
                let (published, model) = counted(&ds, n);
                let mut next = published.clone();
                if i >= n {
                    assert!(next.get(i).is_none());
                    continue;
                }
                next.admit(i, r(900), &[0.0; WINDOW as usize], 2.5, false);
                assert_eq!(unshared(&next, &published), [GroupColumn::block_of(i)]);
                assert_eq!(next.at(i).members(), &[r(i as u32), r(900)]);
                assert_eq!(next.at(i).radius(), 2.5);
                assert!(agrees(&published, &model, &ds));
                assert_ne!(next, published);
            }
        }
    }

    #[test]
    fn an_unshared_block_is_written_in_place() {
        let ds = ramp();
        let (mut v, _) = counted(&ds, BLOCK + 3);
        let blocks = |v: &GroupColumn| -> Vec<*const Block> {
            v.blocks.iter().map(Arc::as_ptr).collect::<Vec<_>>()
        };
        let before = blocks(&v);
        v.admit(1, r(9), &[0.0; WINDOW as usize], 1.0, false);
        v.admit(BLOCK + 1, r(9), &[0.0; WINDOW as usize], 1.0, false);
        assert_eq!(before, blocks(&v));
        // A clone that came and went leaves the blocks this column's own.
        let clone = v.clone();
        drop(clone);
        v.admit(2, r(9), &[0.0; WINDOW as usize], 1.0, false);
        assert!(v.push_seed(r(11)));
        assert_eq!(before, blocks(&v));
    }

    #[test]
    fn a_slot_is_a_record_and_a_bit_and_an_unfilled_tail_counts_whole() {
        let ds = ramp();
        let mut v = GroupColumn::over(series_table(&ds));
        let whole = ARC_HEADER + std::mem::size_of::<Block>();
        assert_eq!(whole, 16 + 8 * BLOCK + BLOCK / 8 + 24);
        for i in 0..2 * BLOCK + 5 {
            assert!(v.push_seed(r(i as u32)));
            assert_eq!(v.block_count(), (i + 1).div_ceil(BLOCK), "at {i}");
        }
        v.shrink_to_fit();
        assert_eq!(v.resident_bytes(), 3 * (whole + 8));
        // Groups of one own nothing behind their slots, not even a pointer.
        assert!(v.iter().all(|g| g.heap_bytes() == Default::default()));
        // A group that admits takes one pointer in its block's vector.
        for index in [3, 1, BLOCK + 7] {
            v.admit(index, r(900), &[0.0; WINDOW as usize], 1.0, false);
        }
        v.shrink_to_fit();
        assert_eq!(v.resident_bytes(), 3 * (whole + 8) + 3 * 8);
    }

    #[test]
    fn a_column_takes_the_table_of_a_dataset_that_grew_and_keeps_the_handles_it_reads() {
        let ds = ramp();
        let (mut column, model) = counted(&ds, 3);
        let mut grown = ds.clone();
        grown
            .push(TimeSeries::new("second", vec![5.0; 16]))
            .unwrap();
        let table = series_table(&grown);
        column.adopt_series(&table);
        assert!(Arc::ptr_eq(&column.series, &table), "the table is shared");
        assert!(column.push_seed(SubseqRef::new(1, 2, WINDOW)));
        assert_eq!(column.at(3).representative(), &[5.0; WINDOW as usize]);
        // A table that does not lead with the handles this column reads
        // (another copy of the samples) lends only what is new.
        let mut other = ramp();
        other
            .push(TimeSeries::new("second", vec![6.0; 16]))
            .unwrap();
        other.push(TimeSeries::new("third", vec![7.0; 16])).unwrap();
        column.adopt_series(&series_table(&other));
        assert_eq!(column.series.len(), 3);
        assert!(Arc::ptr_eq(&column.series[0], ds.shared(0).unwrap()));
        assert!(Arc::ptr_eq(&column.series[1], grown.shared(1).unwrap()));
        assert!(Arc::ptr_eq(&column.series[2], other.shared(2).unwrap()));
        for (index, (starts, _)) in model.iter().enumerate() {
            let window = ds.resolve(r(starts[0])).unwrap();
            assert!(std::ptr::eq(column.at(index).representative(), window));
        }
        // A shorter table is no news.
        column.adopt_series(&series_table(&ds));
        assert_eq!(column.series.len(), 3);
    }

    /// The record `encode_into` writes for `member`'s window of the ramp.
    fn reference(ds: &Dataset, params: &SketchParams, member: SubseqRef) -> [u8; SKETCH_STRIDE] {
        let mut record = [0u8; SKETCH_STRIDE];
        encode_into(params, ds.resolve(member).unwrap(), &mut record);
        record
    }

    #[test]
    fn a_group_of_one_keeps_no_sketch_and_is_sketched_whole_once_it_admits() {
        let ds = ramp();
        let params = SketchParams::fit(0.0, 2000.0);
        let sync = |column: &mut GroupColumn, index: usize| {
            let mut asked = Vec::new();
            column.sketch_group(index, |member, record| {
                asked.push(member);
                encode_into(&params, ds.resolve(member).unwrap(), record);
            });
            asked
        };
        // Groups of one: a sync encodes nothing and copies no block.
        let (mut column, _) = counted(&ds, BLOCK + 2);
        let published = column.clone();
        for index in 0..column.len() {
            assert_eq!(sync(&mut column, index), []);
            let group = column.at(index);
            assert!(group.is_lone() && group.planes().is_none());
            assert_eq!(group.sketched().cardinality(), 0);
        }
        assert_eq!(column.shared_blocks(&published), 2);

        // Between the admission and the sync the group has no planes to
        // offer; after it, planes of its own: the first member's record
        // and the new one's, both asked for by the sync.
        column.admit(5, r(700), &[0.0; WINDOW as usize], 1.0, false);
        assert!(!column.at(5).is_lone() && column.at(5).planes().is_none());
        assert_eq!(sync(&mut column, 5), [r(5), r(700)]);
        let two = column.at(5).planes().expect("synced");
        let records = [two.record(0), two.record(1)];
        assert_eq!(two.cardinality(), 2);
        assert_eq!(records[0], reference(&ds, &params, r(5)));
        assert_eq!(records[1], reference(&ds, &params, r(700)));
        assert_eq!(unshared(&column, &published), [0]);
        // Synced again nothing is encoded; a third member is encoded
        // alone, the two records before it kept.
        assert_eq!(sync(&mut column, 5), []);
        column.admit(5, r(701), &[0.0; WINDOW as usize], 1.0, false);
        assert_eq!(sync(&mut column, 5), [r(701)]);
        let three = column.at(5).planes().expect("synced");
        assert_eq!([three.record(0), three.record(1)], records);
        // The published epoch still reads a group of one.
        assert!(published.at(5).is_lone() && published.at(5).planes().is_none());
        // Equality never looks at sketches.
        let (bare, _) = counted(&ds, BLOCK + 2);
        assert_eq!(bare, published);
    }

    /// A column equal to `model` by construction: seeds and admissions
    /// replayed into a fresh one.
    fn rebuilt(ds: &Dataset, model: &Model) -> GroupColumn {
        let mut column = GroupColumn::over(series_table(ds));
        for (index, (starts, radius)) in model.iter().enumerate() {
            assert!(column.push_seed(r(starts[0])));
            for &start in &starts[1..] {
                column.admit(index, r(start), &[0.0; WINDOW as usize], *radius, false);
            }
        }
        column
    }

    /// Sync group `index`'s sketches, as the builder's sketch pass does.
    fn sync(column: &mut GroupColumn, ds: &Dataset, index: usize) {
        let params = SketchParams::fit(0.0, 2000.0);
        column.sketch_group(index, |member, record| {
            encode_into(&params, ds.resolve(member).unwrap(), record)
        });
    }

    /// Every view of `column` against `model` and the members each group
    /// has sketched: members, radius, representative, `is_lone` and
    /// `sketched` — whatever the rank of the group's bit.
    fn views_agree(column: &GroupColumn, model: &Model, sketched: &[usize], ds: &Dataset) {
        assert_eq!(column.len(), model.len());
        for (index, (starts, radius)) in model.iter().enumerate() {
            let g = column.at(index);
            let members: Vec<SubseqRef> = starts.iter().map(|&s| r(s)).collect();
            assert_eq!(g.members(), members, "group {index}");
            assert_eq!(g.radius(), *radius, "group {index}");
            let window = ds.resolve(members[0]).unwrap();
            assert!(std::ptr::eq(g.representative(), window), "group {index}");
            assert_eq!(g.is_lone(), starts.len() == 1, "group {index}");
            assert_eq!(g.sketched().cardinality(), sketched[index], "group {index}");
            assert_eq!(g.planes().is_some(), sketched[index] == starts.len());
        }
    }

    proptest! {
        /// A block finds what a group owns by the rank of the group's bit:
        /// at every block edge, with the slots either side of a word edge,
        /// the last slot of a block and the tail among those that admit,
        /// every view reads what a `Vec` model says — and goes on doing
        /// so through a clone written copy-on-write, whose blocks and
        /// groups share storage exactly where no write landed.
        #[test]
        fn a_groups_record_is_found_at_the_rank_of_its_bit(
            picks in prop::collection::vec(any::<u16>(), 0..40),
            later in prop::collection::vec(any::<u16>(), 1..12),
        ) {
            let ds = ramp();
            for n in EDGES.into_iter().filter(|&n| n > 0) {
                let (mut column, mut model) = counted(&ds, n);
                let mut sketched = vec![0; n];
                let admit = |column: &mut GroupColumn, model: &mut Model, i: usize, j: usize| {
                    let (start, dist) = ((j * 37 % 1000) as u32, (j % 5) as f64);
                    column.admit(i, r(start), &[0.0; WINDOW as usize], dist, false);
                    model[i].0.push(start);
                    model[i].1 = model[i].1.max(dist);
                };
                let fixed = [0, 63, 64, BLOCK - 1, n - 1];
                let random = picks.iter().map(|&p| p as usize % n);
                for (j, i) in fixed.into_iter().filter(|&i| i < n).chain(random).enumerate() {
                    admit(&mut column, &mut model, i, j);
                    // Every other admission is synced at once; the rest
                    // leave their group between admission and sync.
                    if j % 2 == 0 {
                        sync(&mut column, &ds, i);
                        sketched[i] = model[i].0.len();
                    }
                }
                column.shrink_to_fit();
                views_agree(&column, &model, &sketched, &ds);

                let (published, was, was_sketched) = (column.clone(), model.clone(), sketched.clone());
                let written: Vec<usize> = later.iter().map(|&p| p as usize % n).collect();
                for (j, &i) in written.iter().enumerate() {
                    admit(&mut column, &mut model, i, 100 + j);
                    sync(&mut column, &ds, i);
                    sketched[i] = model[i].0.len();
                }
                views_agree(&column, &model, &sketched, &ds);
                views_agree(&published, &was, &was_sketched, &ds);
                for block in 0..column.block_count() {
                    let landed = written.iter().any(|&i| GroupColumn::block_of(i) == block);
                    prop_assert_eq!(column.shares_block(&published, block), !landed);
                }
                for index in 0..n {
                    let shares = column.at(index).shares_storage_with(published.at(index));
                    prop_assert_eq!(shares, !written.contains(&index), "group {}", index);
                }
            }
        }

        /// A seeded interleaving of seed / admit / `clone` / drop over a
        /// few columns, each checked against a `Vec` model after every
        /// step: a write through one clone never shows in another.
        #[test]
        fn interleaved_writes_to_clones_agree_with_vec_models(
            start in (0..EDGES.len()).prop_map(|edge| EDGES[edge]),
            ops in prop::collection::vec((0usize..4, any::<u64>()), 1..60),
        ) {
            let ds = ramp();
            let mut live = vec![counted(&ds, start)];
            for (op, x) in ops {
                let which = (x >> 32) as usize % live.len();
                match op {
                    0 => {
                        // A burst that crosses a block edge now and then.
                        let (v, m) = &mut live[which];
                        for j in 0..(x % 300) {
                            if m.len() >= 4 * BLOCK {
                                break;
                            }
                            let start = ((x ^ j) % (4 * BLOCK as u64)) as u32;
                            prop_assert!(v.push_seed(r(start)));
                            m.push((vec![start], 0.0));
                        }
                    }
                    1 => {
                        let (v, m) = &mut live[which];
                        if !m.is_empty() {
                            let i = x as usize % m.len();
                            let dist = (x % 7) as f64;
                            v.admit(i, r(x as u32 % 1000), &[0.0; WINDOW as usize], dist, false);
                            m[i].0.push(x as u32 % 1000);
                            m[i].1 = m[i].1.max(dist);
                        }
                    }
                    2 if live.len() < 4 => {
                        let copy = live[which].clone();
                        live.push(copy);
                    }
                    _ if live.len() > 1 => {
                        live.swap_remove(which);
                    }
                    _ => {}
                }
                for (v, m) in &live {
                    prop_assert!(agrees(v, m, &ds));
                }
                for (a, am) in &live {
                    for (b, bm) in &live {
                        prop_assert_eq!(a == b, am == bm);
                    }
                }
            }
            let (v, m) = &live[0];
            prop_assert_eq!(v, &rebuilt(&ds, m));
        }
    }
}
