//! The copy-on-write block vector both per-length columns of a base are
//! kept in: the group records ([`crate::OnexBase::groups_for_len`]) and
//! the sketch handles beside them ([`crate::LengthSketches`]).
//!
//! A column is append-only and lives through many epochs of a base, each
//! a clone of the one before with a few thousand records added to over a
//! hundred thousand. Kept in one `Vec`, every epoch copied the whole
//! column to add to it, grew the copy on its first push and dropped the
//! retired copy — work and allocator traffic in the size of the base, not
//! of the append. [`BlockVec`] keeps the elements in fixed-size blocks,
//! each behind one `Arc`: a clone copies one pointer per block, a write
//! copies the block it lands in and only while another clone still reads
//! it, dropping a clone frees the blocks nobody else holds, and nothing is
//! ever reallocated at twice its size.

use std::sync::Arc;

/// Elements per block. Measured on the end-to-end harness: at 256 a
/// 48-byte-record block is 12 KB, small enough that the blocks an append
/// replaces fit back into the holes the retired epoch leaves; larger
/// blocks bought nothing on the append and cost resident memory.
const BLOCK: usize = 256;

/// A vector in fixed-size, individually shared blocks (see the
/// [module docs](self)).
///
/// Every block but the last holds the same fixed number of elements and
/// the last is never empty, so two vectors of one length are blocked alike —
/// which is what lets equality and [`Self::shared_blocks`] go block by
/// block. Reads (`len`, `get`, indexing, iteration, `==`) never copy;
/// [`Self::push`] and [`Self::get_mut`] copy the one block they write
/// when, and only when, a clone shares it.
#[derive(Clone, PartialEq)]
pub struct BlockVec<T> {
    blocks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> BlockVec<T> {
    /// An empty vector; allocates nothing.
    pub const fn new() -> Self {
        BlockVec {
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there is no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`, if there is one.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.blocks.get(index / BLOCK)?.get(index % BLOCK)
    }

    /// The elements in order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            blocks: self.blocks.iter(),
            block: [].iter(),
            ahead: self.len,
        }
    }

    /// Give back what a finished build or decode left over: the tail
    /// block's unused capacity (when no clone shares it) and the block
    /// list's. A later [`Self::push`] takes a whole block's worth again.
    pub(crate) fn shrink_to_fit(&mut self) {
        if let Some(tail) = self.blocks.last_mut().and_then(Arc::get_mut) {
            tail.shrink_to_fit();
        }
        self.blocks.shrink_to_fit();
    }

    /// Number of blocks the elements are kept in.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block element `index` lives in — of this or any other
    /// `BlockVec`: blocks are cut at the same places everywhere.
    pub fn block_of(index: usize) -> usize {
        index / BLOCK
    }

    /// True when block `block` of `self` and of `other` are one block by
    /// storage, not just by value: neither vector has written to it since
    /// one was cloned from the other.
    pub fn shares_block(&self, other: &Self, block: usize) -> bool {
        match (self.blocks.get(block), other.blocks.get(block)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// How many of this vector's blocks it [shares](Self::shares_block)
    /// with `other`.
    pub fn shared_blocks(&self, other: &Self) -> usize {
        (0..self.blocks.len())
            .filter(|&block| self.shares_block(other, block))
            .count()
    }

    /// Bytes the vector keeps on the heap: every block at its capacity
    /// with its reference counts and vector header, and the block list.
    /// Blocks shared with a clone count in full.
    pub(crate) fn resident_bytes(&self) -> usize {
        let header = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Vec<T>>();
        let blocks = self.blocks.iter();
        blocks
            .map(|block| header + block.capacity() * std::mem::size_of::<T>())
            .sum::<usize>()
            + self.blocks.capacity() * std::mem::size_of::<Arc<Vec<T>>>()
    }
}

impl<T: Clone> BlockVec<T> {
    /// Append an element: into the tail block — copied first if a clone
    /// shares it — or into a new block when the tail is full.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(BLOCK) {
            self.blocks.push(Arc::new(Vec::with_capacity(BLOCK)));
        }
        let tail = self.blocks.last_mut().expect("a tail block exists");
        if Arc::get_mut(tail).is_none() {
            // A clone reads this tail: its replacement is a whole block
            // from the start, so the elements are copied once.
            let mut copy = Vec::with_capacity(BLOCK);
            copy.extend_from_slice(tail);
            *tail = Arc::new(copy);
        }
        let tail = Arc::get_mut(tail).expect("the tail block is this vector's own");
        // A tail shrunk to its length grows back to a whole block at
        // once, never by doubling.
        tail.reserve_exact(BLOCK - tail.len());
        tail.push(value);
        self.len += 1;
    }

    /// The element at `index` for writing, if there is one. The block it
    /// lives in is copied first when a clone shares it, so no clone ever
    /// sees the write.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        Arc::make_mut(&mut self.blocks[index / BLOCK]).get_mut(index % BLOCK)
    }
}

impl<T> Default for BlockVec<T> {
    fn default() -> Self {
        BlockVec::new()
    }
}

impl<T> std::ops::Index<usize> for BlockVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        &self.blocks[index / BLOCK][index % BLOCK]
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for BlockVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Clone> FromIterator<T> for BlockVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut collected = BlockVec::new();
        for value in iter {
            collected.push(value);
        }
        collected.shrink_to_fit();
        collected
    }
}

impl<T: Clone> From<Vec<T>> for BlockVec<T> {
    fn from(values: Vec<T>) -> Self {
        values.into_iter().collect()
    }
}

impl<'a, T> IntoIterator for &'a BlockVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`BlockVec`]'s elements, block after block.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    blocks: std::slice::Iter<'a, Arc<Vec<T>>>,
    /// What is left of the block being walked.
    block: std::slice::Iter<'a, T>,
    /// Elements in the blocks not yet begun.
    ahead: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            // Within a block this is a slice iterator and nothing more.
            if let Some(value) = self.block.next() {
                return Some(value);
            }
            self.block = self.blocks.next()?.iter();
            self.ahead -= self.block.len();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.block.len() + self.ahead;
        (left, Some(left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Lengths either side of every block edge.
    const EDGES: [usize; 7] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1];

    fn counted(n: usize) -> BlockVec<u64> {
        (0..n as u64).collect()
    }

    /// Which blocks of `a` and `b` are not one block by storage.
    fn unshared(a: &BlockVec<u64>, b: &BlockVec<u64>) -> Vec<usize> {
        (0..a.block_count().max(b.block_count()))
            .filter(|&block| !a.shares_block(b, block))
            .collect()
    }

    #[test]
    fn reads_agree_with_a_vec_at_every_block_edge() {
        for n in EDGES {
            let model: Vec<u64> = (0..n as u64).collect();
            let v = BlockVec::from(model.clone());
            assert_eq!((v.len(), v.is_empty()), (n, n == 0));
            assert_eq!(v.block_count(), n.div_ceil(BLOCK));
            assert_eq!(v.iter().len(), n);
            assert_eq!(v.iter().cloned().collect::<Vec<_>>(), model, "n = {n}");
            assert_eq!((&v).into_iter().count(), n);
            for (i, want) in model.iter().enumerate() {
                assert_eq!((v.get(i), &v[i]), (Some(want), want));
            }
            assert_eq!(v.get(n), None);
            assert_eq!(format!("{v:?}"), format!("{model:?}"));
            // Pushed one at a time it is the same vector.
            let mut pushed = BlockVec::new();
            model.iter().for_each(|&x| pushed.push(x));
            assert_eq!(pushed, v);
        }
    }

    #[test]
    #[should_panic]
    fn indexing_past_the_end_panics() {
        let _ = counted(BLOCK)[BLOCK];
    }

    #[test]
    fn a_push_into_a_clone_replaces_the_tail_block_and_no_other() {
        for n in EDGES {
            let published = counted(n);
            let mut next = published.clone();
            assert_eq!(next.shared_blocks(&published), published.block_count());
            next.push(7);
            // A full (or absent) tail stays shared beside a new block; a
            // partial one is copied. Either way: the last block only.
            assert_eq!(
                unshared(&next, &published),
                [next.block_count() - 1],
                "n = {n}"
            );
            assert_eq!(next.shared_blocks(&published), n / BLOCK);
            assert_eq!((published.len(), next.len()), (n, n + 1));
            assert_eq!(next[n], 7);
            assert_eq!(next.blocks.last().unwrap().capacity(), BLOCK);
            assert_eq!(published, counted(n));
        }
    }

    #[test]
    fn a_write_through_a_clone_replaces_that_elements_block_and_no_other() {
        for n in EDGES {
            for i in [0, BLOCK - 1, BLOCK, n.saturating_sub(1)] {
                let published = counted(n);
                let mut next = published.clone();
                let Some(slot) = next.get_mut(i) else {
                    assert!(i >= n);
                    assert!(unshared(&next, &published).is_empty());
                    continue;
                };
                *slot = u64::MAX;
                assert_eq!(unshared(&next, &published), [BlockVec::<u64>::block_of(i)]);
                assert_eq!((next[i], published[i]), (u64::MAX, i as u64));
                assert_ne!(next, published);
            }
        }
    }

    #[test]
    fn an_unshared_block_is_written_in_place() {
        let mut v = counted(BLOCK + 3);
        let before: Vec<*const u64> = v.blocks.iter().map(|b| b.as_ptr()).collect();
        *v.get_mut(1).unwrap() = 9;
        *v.get_mut(BLOCK + 1).unwrap() = 9;
        let after: Vec<*const u64> = v.blocks.iter().map(|b| b.as_ptr()).collect();
        assert_eq!(before, after);
        // A clone that came and went leaves the blocks this vector's own.
        let clone = v.clone();
        drop(clone);
        *v.get_mut(2).unwrap() = 9;
        assert_eq!(
            before,
            v.blocks.iter().map(|b| b.as_ptr()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn blocks_never_hold_more_than_a_block_and_a_finished_tail_is_exact() {
        let mut v = BlockVec::new();
        for i in 0..(2 * BLOCK + 5) as u64 {
            v.push(i);
            assert!(v.blocks.iter().all(|b| b.capacity() == BLOCK), "at {i}");
        }
        v.shrink_to_fit();
        assert_eq!(v.blocks.last().unwrap().capacity(), 5);
        let exact = v.resident_bytes();
        // The shrunk tail takes a whole block again, in one step.
        v.push(0);
        assert_eq!(v.blocks.last().unwrap().capacity(), BLOCK);
        assert!(v.resident_bytes() > exact);
        assert!(exact >= (2 * BLOCK + 5) * 8);
        // A tail a clone still reads is left alone.
        let clone = v.clone();
        v.shrink_to_fit();
        assert_eq!(clone.blocks.last().unwrap().capacity(), BLOCK);
    }

    proptest! {
        /// A seeded interleaving of `push` / `get_mut` / `clone` / drop
        /// over a few vectors, each checked against a `Vec` model after
        /// every step: a write through one clone never shows in another.
        #[test]
        fn interleaved_writes_to_clones_agree_with_vec_models(
            start in (0..EDGES.len()).prop_map(|edge| EDGES[edge]),
            ops in prop::collection::vec((0usize..4, any::<u64>()), 1..120),
        ) {
            let model: Vec<u64> = (0..start as u64).collect();
            let mut live = vec![(BlockVec::from(model.clone()), model)];
            for (op, x) in ops {
                let which = (x >> 32) as usize % live.len();
                match op {
                    0 => {
                        // A burst that crosses a block edge now and then.
                        for j in 0..(x % 300) {
                            live[which].0.push(x ^ j);
                            live[which].1.push(x ^ j);
                        }
                    }
                    1 => {
                        let (v, m) = &mut live[which];
                        let i = x as usize % (m.len() + 1);
                        match (v.get_mut(i), m.get_mut(i)) {
                            (Some(a), Some(b)) => {
                                *a = x;
                                *b = x;
                            }
                            (None, None) => {}
                            _ => prop_assert!(false, "get_mut({i}) disagrees at len {}", m.len()),
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
                    prop_assert_eq!(v.len(), m.len());
                    prop_assert!(v.iter().eq(m.iter()));
                }
                for (a, am) in &live {
                    for (b, bm) in &live {
                        prop_assert_eq!(a == b, am == bm);
                    }
                }
            }
        }
    }
}
