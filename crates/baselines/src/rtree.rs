//! A from-scratch R-tree (Guttman 1984) over `D`-dimensional rectangles.
//!
//! The ST-index stores sub-trail MBRs in a spatial access method; the
//! original paper used an R*-tree. This is a classic Guttman R-tree with
//! quadratic split — the variant whose behaviour is easiest to reason
//! about and test. Payloads are opaque `u64`s (the ST-index stores
//! sub-trail ids).
//!
//! The tree is deliberately minimal: insert and two query forms (box
//! intersection and point-within-radius via mindist). Deletion is not
//! needed by any caller in this workspace; the ST-index rebuilds instead,
//! mirroring how FRM treats its index as a derived structure.

use onex_api::OnexError;

/// Maximum entries per node before a split (Guttman's M).
const MAX_ENTRIES: usize = 8;
/// Minimum fill per node after a split (Guttman's m ≤ M/2).
const MIN_ENTRIES: usize = 3;

/// An axis-aligned rectangle in ℝ^D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    /// Lower corner.
    pub min: [f64; D],
    /// Upper corner.
    pub max: [f64; D],
}

impl<const D: usize> Rect<D> {
    /// Degenerate rectangle covering a single point.
    pub fn point(p: [f64; D]) -> Self {
        Rect { min: p, max: p }
    }

    /// The smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect<D>) -> Rect<D> {
        let mut r = *self;
        for d in 0..D {
            r.min[d] = r.min[d].min(other.min[d]);
            r.max[d] = r.max[d].max(other.max[d]);
        }
        r
    }

    /// Grow in place to cover `other`.
    pub fn expand(&mut self, other: &Rect<D>) {
        for d in 0..D {
            self.min[d] = self.min[d].min(other.min[d]);
            self.max[d] = self.max[d].max(other.max[d]);
        }
    }

    /// Whether the rectangles share any point (closed intervals).
    pub fn intersects(&self, other: &Rect<D>) -> bool {
        (0..D).all(|d| self.min[d] <= other.max[d] && other.min[d] <= self.max[d])
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect<D>) -> bool {
        (0..D).all(|d| self.min[d] <= other.min[d] && other.max[d] <= self.max[d])
    }

    /// Hyper-volume (product of extents).
    pub fn area(&self) -> f64 {
        (0..D).map(|d| self.max[d] - self.min[d]).product()
    }

    /// Increase in area if grown to cover `other`.
    pub fn enlargement(&self, other: &Rect<D>) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared distance from `p` to the nearest point of the rectangle
    /// (zero if `p` is inside) — the classic MINDIST of Roussopoulos.
    pub fn mindist_sq(&self, p: &[f64; D]) -> f64 {
        p.iter()
            .zip(self.min.iter().zip(&self.max))
            .map(|(&v, (&lo, &hi))| {
                let excess = if v < lo {
                    lo - v
                } else if v > hi {
                    v - hi
                } else {
                    0.0
                };
                excess * excess
            })
            .sum()
    }
}

#[derive(Debug, Clone)]
enum Node<const D: usize> {
    Leaf(Vec<(Rect<D>, u64)>),
    Inner(Vec<(Rect<D>, Box<Node<D>>)>),
}

impl<const D: usize> Node<D> {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Inner(v) => v.len(),
        }
    }

    fn mbr(&self) -> Option<Rect<D>> {
        match self {
            Node::Leaf(v) => v.iter().map(|(r, _)| *r).reduce(|a, b| a.union(&b)),
            Node::Inner(v) => v.iter().map(|(r, _)| *r).reduce(|a, b| a.union(&b)),
        }
    }
}

/// Guttman R-tree over `D`-dimensional rectangles with `u64` payloads.
///
/// ```
/// use onex_baselines::frm::{RTree, Rect};
///
/// let mut tree = RTree::<2>::new();
/// for i in 0..20u64 {
///     let x = i as f64;
///     tree.insert(Rect { min: [x, 0.0], max: [x + 0.5, 1.0] }, i);
/// }
/// // Box intersection:
/// let mut hits = tree.search_intersecting(&Rect { min: [3.2, 0.0], max: [5.1, 0.5] });
/// hits.sort_unstable();
/// assert_eq!(hits, vec![3, 4, 5]);
/// // Best-first nearest neighbour:
/// let (d_sq, id) = tree.nearest([7.2, 0.5], 1)[0];
/// assert_eq!(id, 7);
/// assert!(d_sq < 1e-12); // [7.2, 0.5] lies inside rect 7
/// ```
#[derive(Debug, Clone)]
pub struct RTree<const D: usize> {
    root: Node<D>,
    len: usize,
    height: usize,
}

impl<const D: usize> Default for RTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> RTree<D> {
    /// Empty tree.
    pub fn new() -> Self {
        RTree {
            root: Node::Leaf(Vec::new()),
            len: 0,
            height: 1,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Insert a rectangle with its payload.
    pub fn insert(&mut self, rect: Rect<D>, payload: u64) {
        self.len += 1;
        if let Some((r1, n1, r2, n2)) = Self::insert_rec(&mut self.root, rect, payload) {
            // Root split: grow the tree by one level.
            self.root = Node::Inner(vec![(r1, Box::new(n1)), (r2, Box::new(n2))]);
            self.height += 1;
        }
    }

    /// Recursive insert; returns the two halves if `node` split.
    fn insert_rec(
        node: &mut Node<D>,
        rect: Rect<D>,
        payload: u64,
    ) -> Option<(Rect<D>, Node<D>, Rect<D>, Node<D>)> {
        match node {
            Node::Leaf(entries) => {
                entries.push((rect, payload));
                if entries.len() > MAX_ENTRIES {
                    let (l, r) = quadratic_split(std::mem::take(entries));
                    let (lr, rr) = (leaf_mbr(&l), leaf_mbr(&r));
                    Some((lr, Node::Leaf(l), rr, Node::Leaf(r)))
                } else {
                    None
                }
            }
            Node::Inner(children) => {
                // ChooseLeaf: least enlargement, ties by smaller area.
                let mut best = 0;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, (r, _)) in children.iter().enumerate() {
                    let enl = r.enlargement(&rect);
                    let area = r.area();
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                let split = {
                    let (r, child) = &mut children[best];
                    r.expand(&rect);
                    Self::insert_rec(child, rect, payload)
                };
                if let Some((r1, n1, r2, n2)) = split {
                    children[best] = (r1, Box::new(n1));
                    children.push((r2, Box::new(n2)));
                    if children.len() > MAX_ENTRIES {
                        let (l, r) = quadratic_split(std::mem::take(children));
                        let (lr, rr) = (inner_mbr(&l), inner_mbr(&r));
                        return Some((lr, Node::Inner(l), rr, Node::Inner(r)));
                    }
                }
                None
            }
        }
    }

    /// Payloads of all entries whose rectangle intersects `query`.
    pub fn search_intersecting(&self, query: &Rect<D>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf(entries) => {
                    for (r, p) in entries {
                        if r.intersects(query) {
                            out.push(*p);
                        }
                    }
                }
                Node::Inner(children) => {
                    for (r, child) in children {
                        if r.intersects(query) {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        out
    }

    /// Payloads of all entries whose rectangle comes within Euclidean
    /// distance `radius` of point `p` (ball query via MINDIST pruning).
    pub fn search_within(&self, p: &[f64; D], radius: f64) -> Vec<u64> {
        let r_sq = radius * radius;
        let mut out = Vec::new();
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf(entries) => {
                    for (rect, payload) in entries {
                        if rect.mindist_sq(p) <= r_sq {
                            out.push(*payload);
                        }
                    }
                }
                Node::Inner(children) => {
                    for (rect, child) in children {
                        if rect.mindist_sq(p) <= r_sq {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        out
    }

    /// Structural invariants, for tests: uniform leaf depth, child MBRs
    /// contained in and exactly covered by parent rectangles, node sizes
    /// within bounds (root exempt from the minimum).
    pub fn check_invariants(&self) -> Result<(), OnexError> {
        fn walk<const D: usize>(
            node: &Node<D>,
            depth: usize,
            is_root: bool,
            leaf_depth: &mut Option<usize>,
        ) -> Result<(), OnexError> {
            let bad = |msg: String| Err(OnexError::InvalidData(msg));
            if !is_root && node.len() < MIN_ENTRIES {
                return bad(format!("underfull node: {} entries", node.len()));
            }
            if node.len() > MAX_ENTRIES {
                return bad(format!("overfull node: {} entries", node.len()));
            }
            match node {
                Node::Leaf(_) => match leaf_depth {
                    None => {
                        *leaf_depth = Some(depth);
                        Ok(())
                    }
                    Some(d) if *d == depth => Ok(()),
                    Some(d) => bad(format!("leaf depth {depth} != {d}")),
                },
                Node::Inner(children) => {
                    if children.is_empty() {
                        return bad("empty inner node".into());
                    }
                    for (r, child) in children {
                        let mbr = child.mbr().ok_or_else(|| {
                            OnexError::InvalidData("child with no entries".into())
                        })?;
                        if !r.contains_rect(&mbr) {
                            return bad(format!("parent rect {r:?} does not contain {mbr:?}"));
                        }
                        walk(child, depth + 1, false, leaf_depth)?;
                    }
                    Ok(())
                }
            }
        }
        let mut leaf_depth = None;
        walk(&self.root, 0, true, &mut leaf_depth)
    }
}

fn leaf_mbr<const D: usize>(entries: &[(Rect<D>, u64)]) -> Rect<D> {
    entries
        .iter()
        .map(|(r, _)| *r)
        .reduce(|a, b| a.union(&b))
        .expect("split halves are non-empty")
}

fn inner_mbr<const D: usize>(entries: &[(Rect<D>, Box<Node<D>>)]) -> Rect<D> {
    entries
        .iter()
        .map(|(r, _)| *r)
        .reduce(|a, b| a.union(&b))
        .expect("split halves are non-empty")
}

/// The two halves produced by a node split.
type SplitHalves<const D: usize, T> = (Vec<(Rect<D>, T)>, Vec<(Rect<D>, T)>);

/// Guttman's quadratic split: seed with the pair wasting the most area,
/// then assign remaining entries by strongest preference, honouring the
/// minimum fill.
fn quadratic_split<const D: usize, T>(mut entries: Vec<(Rect<D>, T)>) -> SplitHalves<D, T> {
    debug_assert!(entries.len() > MAX_ENTRIES);
    // PickSeeds: maximise dead area of the pair's union.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let d = entries[i].0.union(&entries[j].0).area()
                - entries[i].0.area()
                - entries[j].0.area();
            if d > worst {
                worst = d;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove the later index first so the earlier one stays valid.
    let e2 = entries.swap_remove(s2.max(s1));
    let e1 = entries.swap_remove(s2.min(s1));
    let mut r1 = e1.0;
    let mut r2 = e2.0;
    let mut g1 = vec![e1];
    let mut g2 = vec![e2];

    while let Some(pos) = pick_next(&entries, &r1, &r2) {
        let remaining = entries.len();
        // Min-fill guard: if one group must take everything left, do so.
        if g1.len() + remaining <= MIN_ENTRIES {
            for e in entries.drain(..) {
                r1.expand(&e.0);
                g1.push(e);
            }
            break;
        }
        if g2.len() + remaining <= MIN_ENTRIES {
            for e in entries.drain(..) {
                r2.expand(&e.0);
                g2.push(e);
            }
            break;
        }
        let e = entries.swap_remove(pos);
        let d1 = r1.enlargement(&e.0);
        let d2 = r2.enlargement(&e.0);
        let to_first = d1 < d2
            || (d1 == d2
                && (r1.area() < r2.area() || (r1.area() == r2.area() && g1.len() <= g2.len())));
        if to_first {
            r1.expand(&e.0);
            g1.push(e);
        } else {
            r2.expand(&e.0);
            g2.push(e);
        }
    }
    (g1, g2)
}

/// PickNext: entry with the greatest difference of enlargement
/// preference between the two groups.
fn pick_next<const D: usize, T>(
    entries: &[(Rect<D>, T)],
    r1: &Rect<D>,
    r2: &Rect<D>,
) -> Option<usize> {
    entries
        .iter()
        .enumerate()
        .map(|(i, (r, _))| (i, (r1.enlargement(r) - r2.enlargement(r)).abs()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect2(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect<2> {
        Rect {
            min: [x0, y0],
            max: [x1, y1],
        }
    }

    #[test]
    fn rect_geometry() {
        let a = rect2(0.0, 0.0, 2.0, 2.0);
        let b = rect2(1.0, 1.0, 3.0, 3.0);
        let c = rect2(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.union(&b), rect2(0.0, 0.0, 3.0, 3.0));
        assert!(a.union(&b).contains_rect(&a));
        assert_eq!(a.area(), 4.0);
        assert_eq!(a.enlargement(&b), 5.0);
        // mindist: point outside in both dims
        assert_eq!(c.mindist_sq(&[3.0, 5.5]), 4.0);
        // point inside
        assert_eq!(a.mindist_sq(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn touching_rects_intersect() {
        let a = rect2(0.0, 0.0, 1.0, 1.0);
        let b = rect2(1.0, 1.0, 2.0, 2.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn insert_and_search_small() {
        let mut t = RTree::<2>::new();
        for i in 0..5 {
            let x = i as f64;
            t.insert(rect2(x, x, x + 0.5, x + 0.5), i);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.height(), 1);
        let mut hits = t.search_intersecting(&rect2(0.0, 0.0, 1.2, 1.2));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn grows_and_keeps_invariants() {
        let mut t = RTree::<2>::new();
        for i in 0..200u64 {
            let x = (i % 20) as f64;
            let y = (i / 20) as f64;
            t.insert(rect2(x, y, x + 0.9, y + 0.9), i);
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 200);
        assert!(t.height() > 1);
    }

    #[test]
    fn search_matches_linear_scan() {
        let mut t = RTree::<2>::new();
        let mut all = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        };
        for i in 0..300u64 {
            let (x, y) = (next(), next());
            let (w, h) = (next() * 0.2, next() * 0.2);
            let r = rect2(x, y, x + w, y + h);
            t.insert(r, i);
            all.push((r, i));
        }
        let q = rect2(2.0, 2.0, 5.0, 5.0);
        let mut got = t.search_intersecting(&q);
        got.sort_unstable();
        let mut want: Vec<u64> = all
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|&(_, i)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);

        let p = [3.3, 7.1];
        let radius = 1.5;
        let mut got = t.search_within(&p, radius);
        got.sort_unstable();
        let mut want: Vec<u64> = all
            .iter()
            .filter(|(r, _)| r.mindist_sq(&p) <= radius * radius)
            .map(|&(_, i)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_tree_behaves() {
        let t = RTree::<3>::new();
        assert!(t.is_empty());
        assert!(t
            .search_intersecting(&Rect::point([0.0, 0.0, 0.0]))
            .is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_rects_are_all_found() {
        let mut t = RTree::<2>::new();
        let r = rect2(1.0, 1.0, 2.0, 2.0);
        for i in 0..30 {
            t.insert(r, i);
        }
        let hits = t.search_intersecting(&r);
        assert_eq!(hits.len(), 30);
        t.check_invariants().unwrap();
    }
}

// ---------------------------------------------------------------------
// Incremental nearest-neighbour traversal (Hjaltason & Samet) and STR
// bulk loading.
// ---------------------------------------------------------------------

use std::collections::BinaryHeap;

enum PqItem<'a, const D: usize> {
    Node(&'a Node<D>),
    Entry(u64),
}

/// Heap element ordered so the smallest mindist pops first (ties broken
/// by insertion order, so `PqItem` itself is never compared).
struct HeapItem<'a, const D: usize> {
    key: f64,
    seq: usize,
    item: PqItem<'a, D>,
}

impl<const D: usize> PartialEq for HeapItem<'_, D> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}

impl<const D: usize> Eq for HeapItem<'_, D> {}

impl<const D: usize> PartialOrd for HeapItem<'_, D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const D: usize> Ord for HeapItem<'_, D> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-mindist first.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Iterator yielding `(mindist², payload)` in non-decreasing mindist
/// order — the classic best-first traversal. Each entry surfaces exactly
/// once; the caller decides when the distances prove it can stop.
pub struct NearestIter<'a, const D: usize> {
    point: [f64; D],
    heap: BinaryHeap<HeapItem<'a, D>>,
    /// Tie-break counter so the heap never compares `PqItem`s.
    seq: usize,
}

impl<'a, const D: usize> Iterator for NearestIter<'a, D> {
    type Item = (f64, u64);

    fn next(&mut self) -> Option<(f64, u64)> {
        while let Some(HeapItem { key, item, .. }) = self.heap.pop() {
            match item {
                PqItem::Entry(payload) => return Some((key, payload)),
                PqItem::Node(node) => match node {
                    Node::Leaf(entries) => {
                        for (r, p) in entries {
                            self.seq += 1;
                            self.heap.push(HeapItem {
                                key: r.mindist_sq(&self.point),
                                seq: self.seq,
                                item: PqItem::Entry(*p),
                            });
                        }
                    }
                    Node::Inner(children) => {
                        for (r, child) in children {
                            self.seq += 1;
                            self.heap.push(HeapItem {
                                key: r.mindist_sq(&self.point),
                                seq: self.seq,
                                item: PqItem::Node(child),
                            });
                        }
                    }
                },
            }
        }
        None
    }
}

impl<const D: usize> RTree<D> {
    /// Best-first traversal from `p`: entries in non-decreasing
    /// `(mindist², payload)` order. O(log n) amortised per step on
    /// well-shaped trees; never visits a subtree whose MBR is farther
    /// than the entries already required.
    pub fn nearest_iter(&self, p: [f64; D]) -> NearestIter<'_, D> {
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            key: 0.0,
            seq: 0,
            item: PqItem::Node(&self.root),
        });
        NearestIter {
            point: p,
            heap,
            seq: 0,
        }
    }

    /// The `k` entries with smallest mindist to `p`.
    pub fn nearest(&self, p: [f64; D], k: usize) -> Vec<(f64, u64)> {
        self.nearest_iter(p).take(k).collect()
    }

    /// Bulk-load with Sort-Tile-Recursive packing: near-100% node fill
    /// and far better leaf locality than one-at-a-time insertion. The
    /// classic build path for a derived index like the ST-index.
    pub fn bulk_load(mut entries: Vec<(Rect<D>, u64)>) -> Self {
        let len = entries.len();
        if len == 0 {
            return RTree::new();
        }
        // Leaves: tile by centre coordinate, one dimension per pass.
        // Chunk sizes are balanced so no node falls below minimum fill.
        str_tile(&mut entries, 0, MAX_ENTRIES);
        let mut leaves: Vec<(Rect<D>, Node<D>)> = Vec::new();
        {
            let mut rest: &[(Rect<D>, u64)] = &entries;
            for size in balanced_chunks(rest.len(), MAX_ENTRIES) {
                let (chunk, tail) = rest.split_at(size);
                leaves.push((leaf_mbr(chunk), Node::Leaf(chunk.to_vec())));
                rest = tail;
            }
        }
        let mut height = 1;
        while leaves.len() > 1 {
            str_tile(&mut leaves, height % D, MAX_ENTRIES);
            let mut next = Vec::new();
            let mut rest: &[(Rect<D>, Node<D>)] = &leaves;
            for size in balanced_chunks(rest.len(), MAX_ENTRIES) {
                let (chunk, tail) = rest.split_at(size);
                let boxed: Vec<(Rect<D>, Box<Node<D>>)> = chunk
                    .iter()
                    .map(|(r, n)| (*r, Box::new(n.clone())))
                    .collect();
                next.push((inner_mbr(&boxed), Node::Inner(boxed)));
                rest = tail;
            }
            leaves = next;
            height += 1;
        }
        let (_, root) = leaves.pop().expect("non-empty by construction");
        RTree { root, len, height }
    }
}

/// Split `len` items into ceil(len/cap) chunks whose sizes differ by at
/// most one, so every chunk of a bulk load meets the minimum fill (for
/// `len > cap`, each chunk holds at least `⌊cap/2⌋ ≥ m` items).
fn balanced_chunks(len: usize, cap: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let k = len.div_ceil(cap);
    let base = len / k;
    let extra = len % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

/// One STR pass: sort by centre of `dim`, then recursively refine each
/// slab on the next dimension so sibling groups are spatially tight.
fn str_tile<const D: usize, T>(entries: &mut [(Rect<D>, T)], dim: usize, node_cap: usize) {
    if entries.len() <= node_cap || dim >= D {
        return;
    }
    let centre = |r: &Rect<D>| (r.min[dim] + r.max[dim]) / 2.0;
    entries.sort_by(|a, b| centre(&a.0).total_cmp(&centre(&b.0)));
    let leaves = entries.len().div_ceil(node_cap);
    // Slab count ≈ the D-th root spread over remaining dimensions.
    let slabs = (leaves as f64).powf(1.0 / (D - dim) as f64).ceil().max(1.0) as usize;
    let slab_size = entries.len().div_ceil(slabs).max(node_cap);
    for slab in entries.chunks_mut(slab_size) {
        str_tile(slab, dim + 1, node_cap);
    }
}

#[cfg(test)]
mod nn_tests {
    use super::*;

    fn grid_tree(n: usize) -> (RTree<2>, Vec<[f64; 2]>) {
        let mut t = RTree::new();
        let mut pts = Vec::new();
        for i in 0..n {
            let p = [(i % 17) as f64 * 1.3, (i / 17) as f64 * 0.9];
            t.insert(Rect::point(p), i as u64);
            pts.push(p);
        }
        (t, pts)
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let (t, pts) = grid_tree(150);
        let q = [7.1, 3.4];
        let got = t.nearest(q, 10);
        let mut want: Vec<(f64, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2);
                (d, i as u64)
            })
            .collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (g, w) in got.iter().zip(&want) {
            assert!((g.0 - w.0).abs() < 1e-12, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn nearest_iter_is_monotone_and_complete() {
        let (t, pts) = grid_tree(120);
        let dists: Vec<f64> = t.nearest_iter([3.0, 3.0]).map(|(d, _)| d).collect();
        assert_eq!(dists.len(), pts.len());
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "not monotone: {w:?}");
        }
    }

    #[test]
    fn bulk_load_equals_incremental_for_queries() {
        let entries: Vec<(Rect<2>, u64)> = (0..500u64)
            .map(|i| {
                let x = (i % 23) as f64 * 0.7;
                let y = (i / 23) as f64 * 1.1;
                (
                    Rect {
                        min: [x, y],
                        max: [x + 0.3, y + 0.3],
                    },
                    i,
                )
            })
            .collect();
        let bulk = RTree::bulk_load(entries.clone());
        let mut incr = RTree::new();
        for (r, p) in &entries {
            incr.insert(*r, *p);
        }
        bulk.check_invariants().unwrap();
        assert_eq!(bulk.len(), incr.len());
        let q = Rect {
            min: [2.0, 3.0],
            max: [9.0, 12.0],
        };
        let mut a = bulk.search_intersecting(&q);
        let mut b = incr.search_intersecting(&q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Bulk loading should not be taller than incremental insertion.
        assert!(bulk.height() <= incr.height());
    }

    #[test]
    fn bulk_load_handles_edge_sizes() {
        assert!(RTree::<2>::bulk_load(Vec::new()).is_empty());
        let one = RTree::<2>::bulk_load(vec![(Rect::point([1.0, 2.0]), 7)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.nearest([1.0, 2.0], 1), vec![(0.0, 7)]);
        // Exactly one over capacity.
        let entries: Vec<(Rect<2>, u64)> = (0..9u64)
            .map(|i| (Rect::point([i as f64, 0.0]), i))
            .collect();
        let t = RTree::bulk_load(entries);
        assert_eq!(t.len(), 9);
        t.check_invariants().unwrap();
    }
}
