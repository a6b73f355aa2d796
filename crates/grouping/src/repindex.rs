//! The nearest-representative lookup behind base construction.
//!
//! [`crate::BaseBuilder`] assigns every subsequence to the nearest
//! existing group whose representative lies within the admission radius
//! (`ST/2`). Scanning every representative costs O(groups) per
//! subsequence, O(n·groups) for a whole construction run, which makes
//! preprocessing the slowest path in the system precisely when the base
//! barely compacts (many groups). The paper treats preprocessing as an
//! interactive, one-click step ("loading a new dataset triggers the
//! preprocessing of this data at the server side"), so this latency is
//! user-facing.
//!
//! [`PaaGrid`] answers the scan's question from a handful of candidates
//! with **the scan's answer**. The contract is exact, not approximate:
//! the winner is the representative minimising `(d², group id)`
//! lexicographically among those with `d² ≤ radius²`, where `d²` is the
//! floating-point sum a linear scan computes
//! ([`onex_distance::ed::ed_early_abandon_sq`]). The lookup drills below
//! hold the grid to a linear scan lookup by lookup, and the property
//! tests in `tests/properties.rs` hold whole bases to a model of §3.1
//! that scans.
//!
//! # The grid
//!
//! On a base that barely compacts the answer is almost always "nothing
//! within the radius", and a lower bound proves that without computing a
//! distance. For equal-length vectors and any segmentation,
//! `ED²(x, r) ≥ Σₛ nₛ·(meanₛ(x) − meanₛ(r))²` (the PAA bound: per
//! segment, Cauchy–Schwarz). [`PaaGrid`] keeps four segment means per
//! representative and uses the bound twice:
//!
//! * **The interval rule.** Over the two halves the bound reads
//!   `h·Δ² ≤ ED²`, so a representative within `radius` of the query has
//!   each half-mean within `radius/√h` of the query's. Entries are filed
//!   in cells keyed by their two half-means; a lookup visits the cells
//!   covering `[c − radius/√h − ε, c + radius/√h + ε]` on each axis, with
//!   `radius` that call's own and `ε` the rounding both sides' means can
//!   carry. The cell of a half-mean is monotone in it, so every entry
//!   inside the interval sits in a visited cell — whatever the cell
//!   width. The width (the column's radius over `√h`, three or four
//!   cells per axis for the builder's calls) decides only how many
//!   entries come along for nothing; a call whose interval spans many
//!   rows of cells scans them all.
//! * **The four-term bound.** A visited entry is dropped when the bound
//!   over its four quarter-means, each `|Δₛ|` first shrunk by the
//!   rounding it can carry, exceeds the best `d²` so far (the radius
//!   until something is found). Survivors get the linear scan's own
//!   early-abandoning distance and acceptance rule.
//!
//! Rounding never costs exactness, only pruning. Means are summed in
//! `f64` (error within `n·ulp` of the vector's largest magnitude) and
//! stored as `f32` (one more relative `2⁻²³`). A representative within
//! the radius has every value within the radius of the query's, so the
//! query's largest magnitude plus the radius (the lookup's *reach*)
//! bounds both sides' errors, and one slack per lookup covers every entry
//! that could win; an entry it does not cover is too far away to. The
//! finished bound is shaved by the few `ulp`s a computed `d²` can fall
//! below the true one. Past the magnitudes an `f32` holds nothing is
//! claimed: the lookup scans every cell and no gap survives its slack (a
//! NaN difference never does).
//!
//! # The row layout
//!
//! A row of cells (one first half-mean coordinate) keeps its entries as
//! one run sorted by column coordinate — entries of one cell in the order
//! they were filed — with each segment's means in a plane of their own
//! (`f32`, four bytes an entry) beside the group ids, and a small table of
//! where each cell's run ends. The cells a lookup visits in one row are
//! then one slice of each plane, and an entry costs its 20 bytes plus a
//! share of its cell's 12.
//!
//! A slice is bounded 64 entries at a time in `f32`, a branch-free pass
//! the compiler vectorises, into a mask of survivors; each survivor is
//! then re-checked with the exact `f64` bound above, against the best
//! `d²` found so far, before any distance starts. The `f32` pass only ever
//! drops an entry the `f64` bound drops as well, so the lookup examines
//! exactly the entries the `f64` bound alone would, in the same order:
//!
//! * its slack is the `f64` slack widened by `2⁻¹⁵` of itself, by `2⁻²³`
//!   of the query's largest magnitude (what rounding the query's means to
//!   `f32` and taking `f32` differences can lose) and by two of `f32`'s
//!   smallest normal (what an `f32` that underflows can);
//! * its limit is the `f64` test's `bound²/shave` widened by `2⁻¹⁵` of
//!   itself and one smallest normal. A dozen `f32` operations put the
//!   `f32` sum at most `12·2⁻²⁴` above the `f64` one, far inside that;
//! * it runs only while the reach is at most `4·10¹⁸`: every square a
//!   bound that can prune is compared with fits an `f32` with room to
//!   spare, and a term that overflows to infinity stands for an `f64` one
//!   no smaller than `f32::MAX`, which the `f64` test drops too. Past
//!   that reach the lookup bounds every entry in `f64` alone.
//!
//! The degenerate regime is white noise: every window's half-means sit
//! within a cell or two of zero, all representatives land in the visited
//! cells, and an early-abandoned distance is as cheap as a bound check —
//! no index helps there and the grid costs about what the scan does
//! (experiment E12 records it).
//!
//! A batch build creates its indexes and drops them with the call. An
//! incremental extension instead runs against a [`ResidentIndex`] — the
//! per-length indexes of one base, seeded from its groups on first use
//! (one sort, not a pass of inserts) and then kept in step with every
//! admission — so that a writer which keeps it alive between extensions
//! pays per appended window, not per existing group.

use std::collections::BTreeMap;
use std::ops::Range;

use onex_distance::ed::ed_early_abandon_sq;

use crate::GroupColumn;

/// Work accounting for one construction run, mirroring the query-side
/// `onex_api::BackendStats` triple so construction effort reads the way
/// query effort does. `examined` and `pruned` are disjoint: a
/// representative is either dismissed by an index bound before any
/// distance computation (pruned) or actually compared against
/// (examined), never both — at every lookup they add up to the
/// representatives then alive, which is what a linear scan examines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexWork {
    /// Representatives whose distance to a subsequence was computed
    /// (including early-abandoned comparisons, which still start the sum).
    pub examined: usize,
    /// Representatives dismissed without starting a distance computation
    /// (cells outside the lookup's interval, entries under the PAA bound).
    pub pruned: usize,
    /// Euclidean-distance evaluations started.
    pub distance_calls: usize,
}

impl std::ops::AddAssign for IndexWork {
    fn add_assign(&mut self, rhs: IndexWork) {
        self.examined += rhs.examined;
        self.pruned += rhs.pruned;
        self.distance_calls += rhs.distance_calls;
    }
}

// ---------------------------------------------------------------------
// PAA grid — exact lower-bound index over representatives.
// ---------------------------------------------------------------------

/// PAA segments kept per representative; segment `s` of a length-`n`
/// vector is `[n·s/4, n·(s+1)/4)`, so lengths 2 and 3 carry empty ones.
const SEGMENTS: usize = 4;
/// Rows of cells a lookup walks one by one; an interval spanning more
/// (a radius or a rounding allowance far above the cell width) scans
/// every cell instead.
const ROW_CAP: i128 = 8;
/// Entries one `f32` pass bounds: a bit each in the survivor mask.
const BLOCK: usize = 64;
/// What a row costs in the map beside its runs: its key, its seven
/// vector headers and its share of a B-tree node (eleven rows to a full
/// leaf, about two thirds full).
const ROW_BYTES: usize = 280;
/// Relative error a mean can carry from being stored as `f32` (one unit
/// in the last place — twice round-to-nearest's worst case).
const F32_ULP: f64 = f32::EPSILON as f64;
/// Largest magnitude a lookup vouches for: every mean it could meet fits
/// an `f32` (and no sum of them leaves `f64`) with room to spare.
const STORABLE: f64 = f32::MAX as f64 / 2.0;
/// Largest reach the `f32` pass runs at: its square, 1.6·10³⁷, is under
/// a twentieth of `f32::MAX`.
const NARROW_REACH: f64 = 4.0e18;
/// How much the `f32` pass widens the `f64` slack and limit: `2⁻¹⁵`,
/// hundreds of times what a dozen `f32` roundings can add up to.
const NARROW_MARGIN: f64 = 1.0 + 1.0 / 32_768.0;

/// Grid coordinates: the two half-means in units of the cell width.
type Cell = (i64, i64);

/// What the grid needs of a vector: segment means, the half-means that
/// place it, and its largest magnitude (the scale of the sums' rounding).
struct Paa {
    means: [f64; SEGMENTS],
    halves: [f64; 2],
    peak: f64,
}

/// One row of cells: its entries in one run sorted by column coordinate
/// (in filing order within a cell), plane-major, and the run table that
/// says where each cell's entries end.
#[derive(Debug, Default)]
struct Row {
    /// Column coordinate of every cell that holds an entry, ascending.
    cols: Vec<i64>,
    /// Where the run of the cell at the same index ends; it starts where
    /// its predecessor's does.
    ends: Vec<u32>,
    /// Group id of every entry.
    gids: Vec<u32>,
    /// Segment `s`'s mean of every entry.
    means: [Vec<f32>; SEGMENTS],
}

impl Row {
    fn with_capacity(entries: usize) -> Self {
        Row {
            gids: Vec::with_capacity(entries),
            means: std::array::from_fn(|_| Vec::with_capacity(entries)),
            ..Row::default()
        }
    }

    fn len(&self) -> usize {
        self.gids.len()
    }

    /// Where the run of the `cells`-th cell starts.
    fn start_of(&self, cells: usize) -> usize {
        cells
            .checked_sub(1)
            .map_or(0, |last| self.ends[last] as usize)
    }

    /// The entries of every cell whose column lies in `lo..=hi`.
    fn span(&self, lo: i64, hi: i64) -> Range<usize> {
        let first = self.cols.partition_point(|&col| col < lo);
        let past = self.cols.partition_point(|&col| col <= hi);
        self.start_of(first)..self.start_of(past)
    }

    /// The cell at column `col` — its index in the run table and its
    /// entries — or where it would go.
    fn cell(&self, col: i64) -> Result<(usize, Range<usize>), usize> {
        let at = self.cols.binary_search(&col)?;
        Ok((at, self.start_of(at)..self.ends[at] as usize))
    }

    /// File an entry last in the cell at column `col`.
    fn push(&mut self, col: i64, gid: u32, means: [f32; SEGMENTS]) {
        let (at, pos) = match self.cell(col) {
            Ok((at, run)) => (at, run.end),
            Err(at) => {
                let start = self.start_of(at);
                self.cols.insert(at, col);
                self.ends.insert(at, start as u32);
                (at, start)
            }
        };
        if self.gids.len() == self.gids.capacity() {
            // An eighth more, not double: a seeded row is sized exactly
            // and a writer's appends grow it by a few entries at a time.
            let more = self.gids.len() / 8 + 4;
            self.gids.reserve_exact(more);
            self.means
                .iter_mut()
                .for_each(|plane| plane.reserve_exact(more));
        }
        self.gids.insert(pos, gid);
        for (plane, mean) in self.means.iter_mut().zip(means) {
            plane.insert(pos, mean);
        }
        self.ends[at..].iter_mut().for_each(|end| *end += 1);
    }

    /// Where `gid`'s entry sits in the cell at column `col`.
    fn find(&self, col: i64, gid: u32) -> (usize, Range<usize>, usize) {
        let (at, run) = self.cell(col).expect("a group's home cell exists");
        let slot = self.gids[run.clone()].iter().position(|&g| g == gid);
        let pos = run.start + slot.expect("an entry sits in its home cell");
        (at, run, pos)
    }

    /// Take `gid`'s entry out of the cell at column `col` as a vector's
    /// `swap_remove` would: the cell's last entry takes its slot.
    fn swap_remove(&mut self, col: i64, gid: u32) {
        let (at, run, pos) = self.find(col, gid);
        let last = run.end - 1;
        self.gids.swap(pos, last);
        self.gids.remove(last);
        for plane in &mut self.means {
            plane.swap(pos, last);
            plane.remove(last);
        }
        self.ends[at..].iter_mut().for_each(|end| *end -= 1);
        if run.len() == 1 {
            self.cols.remove(at);
            self.ends.remove(at);
        }
    }

    /// Heap bytes the row's vectors keep.
    fn bytes(&self) -> usize {
        let planes: usize = self.means.iter().map(Vec::capacity).sum();
        self.cols.capacity() * 8 + (self.ends.capacity() + self.gids.capacity() + planes) * 4
    }
}

/// An exact nearest-representative index for one length column: a grid
/// over the representatives' two half-means, each entry carrying four
/// segment means for the PAA lower bound, kept a row of cells to a run
/// (see the [module docs](self)).
///
/// An insert files one entry last in its cell, a centroid update moves
/// the entry to its new cell — there is one entry per group at all times
/// — and seeding from a base is one sort. Where each group's entry sits
/// is only ever asked by an update, so that directory is built by the
/// first one: under the `Seed` policy no representative moves and a
/// column never carries it.
#[derive(Debug)]
pub struct PaaGrid {
    /// Segment `s` covers `cuts[s]..cuts[s + 1]`.
    cuts: [usize; SEGMENTS + 1],
    /// Points per segment, the bound's weights.
    weights: [f64; SEGMENTS],
    /// √(points per half): a radius over this is the reach of a half-mean.
    half_roots: [f64; 2],
    /// Cell width per axis: the column's admission radius over `half_roots`.
    width: [f64; 2],
    /// Rounding allowance of a mean per unit of vector magnitude (the
    /// `f64` sums of both sides and the arithmetic done on them), which
    /// is also the relative amount a computed `d²` and a computed bound
    /// can be out against each other.
    ulps: f64,
    /// The rows that hold an entry, by first coordinate.
    rows: BTreeMap<i64, Row>,
    /// Entries filed, one per group.
    entries: usize,
    /// Per group: the cell its entry is filed in — built from `rows` by
    /// the first [`PaaGrid::update`] and kept in step from then on.
    home: Option<Vec<Cell>>,
}

impl PaaGrid {
    /// An empty index for representatives of length `len`, with cells
    /// sized for lookups at `radius` (its sign is ignored).
    pub fn new(len: usize, radius: f64) -> Self {
        let cuts: [usize; SEGMENTS + 1] = std::array::from_fn(|s| len * s / SEGMENTS);
        let weights: [f64; SEGMENTS] = std::array::from_fn(|s| (cuts[s + 1] - cuts[s]) as f64);
        let half_roots = [
            (weights[0] + weights[1]).sqrt(),
            (weights[2] + weights[3]).sqrt(),
        ];
        PaaGrid {
            cuts,
            weights,
            half_roots,
            width: half_roots.map(|root| radius.abs() / root),
            ulps: (len as f64 + 16.0) * f64::EPSILON,
            rows: BTreeMap::new(),
            entries: 0,
            home: None,
        }
    }

    /// The index a pass of inserts over every group of `groups`, in id
    /// order, would file — laid out by one sort, each row sized exactly.
    pub(crate) fn seeded(len: usize, radius: f64, groups: &GroupColumn) -> Self {
        let mut grid = PaaGrid::new(len, radius);
        let mut filed: Vec<(Cell, u32, [f32; SEGMENTS])> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let (cell, means) = grid.file(g.representative());
                (cell, gid(gi), means)
            })
            .collect();
        filed.sort_unstable_by_key(|&(cell, gid, _)| (cell, gid));
        for run in filed.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            let mut row = Row::with_capacity(run.len());
            for &((_, col), gid, means) in run {
                if row.cols.last() != Some(&col) {
                    row.cols.push(col);
                    row.ends.push(row.gids.len() as u32);
                }
                row.gids.push(gid);
                for (plane, mean) in row.means.iter_mut().zip(means) {
                    plane.push(mean);
                }
                *row.ends.last_mut().expect("pushed above") += 1;
            }
            row.cols.shrink_to_fit();
            row.ends.shrink_to_fit();
            grid.rows.insert(run[0].0 .0, row);
        }
        grid.entries = groups.len();
        grid
    }

    /// Where every group's entry sits, read off the rows.
    fn directory(&self) -> Vec<Cell> {
        let mut home = vec![(0, 0); self.entries];
        for (&row_at, row) in &self.rows {
            for (at, &col) in row.cols.iter().enumerate() {
                for &gid in &row.gids[row.start_of(at)..row.ends[at] as usize] {
                    home[gid as usize] = (row_at, col);
                }
            }
        }
        home
    }

    fn paa(&self, xs: &[f64]) -> Paa {
        debug_assert_eq!(xs.len(), self.cuts[SEGMENTS], "one length per column");
        let mut sums = [0.0f64; SEGMENTS];
        let mut peak = 0.0f64;
        for (s, sum) in sums.iter_mut().enumerate() {
            for &x in &xs[self.cuts[s]..self.cuts[s + 1]] {
                *sum += x;
                peak = peak.max(x.abs());
            }
        }
        let mean = |sum: f64, points: f64| if points > 0.0 { sum / points } else { 0.0 };
        Paa {
            means: std::array::from_fn(|s| mean(sums[s], self.weights[s])),
            halves: [
                mean(sums[0] + sums[1], self.weights[0] + self.weights[1]),
                mean(sums[2] + sums[3], self.weights[2] + self.weights[3]),
            ],
            peak,
        }
    }

    /// The cell coordinate of a half-mean: monotone in it (a correctly
    /// rounded division, `floor`, a saturating cast), which is all the
    /// interval rule needs of it.
    fn coordinate(&self, axis: usize, half_mean: f64) -> i64 {
        (half_mean / self.width[axis]).floor() as i64
    }

    /// The cell a representative is filed in, and its stored means.
    fn file(&self, representative: &[f64]) -> (Cell, [f32; SEGMENTS]) {
        let paa = self.paa(representative);
        let cell = (
            self.coordinate(0, paa.halves[0]),
            self.coordinate(1, paa.halves[1]),
        );
        (cell, paa.means.map(|m| m as f32))
    }

    /// The nearest representative within `radius_sq` of `xs` (squared
    /// Euclidean, as [`onex_distance::ed::ed_early_abandon_sq`] computes
    /// it), ties broken towards the lowest group id — `None` when no
    /// representative is within the radius. `groups` is the live column
    /// the representatives are read from.
    pub fn nearest_within(
        &self,
        xs: &[f64],
        radius_sq: f64,
        groups: &GroupColumn,
        work: &mut IndexWork,
    ) -> Option<(usize, f64)> {
        let query = self.paa(xs);
        let mut scan = self.scan(&query, xs, radius_sq, groups);
        let radius = radius_sq.sqrt();
        let span = |axis: usize| {
            let pad = radius / self.half_roots[axis] + scan.eps;
            (
                self.coordinate(axis, query.halves[axis] - pad),
                self.coordinate(axis, query.halves[axis] + pad),
            )
        };
        let ((row_lo, row_hi), (col_lo, col_hi)) = (span(0), span(1));
        if scan.eps.is_infinite() || i128::from(row_hi) - i128::from(row_lo) >= ROW_CAP {
            for row in self.rows.values() {
                scan.run(row, 0..row.len());
            }
        } else {
            for row in self.rows.range(row_lo..=row_hi).map(|(_, row)| row) {
                scan.run(row, row.span(col_lo, col_hi));
            }
        }
        work.examined += scan.examined;
        work.distance_calls += scan.examined;
        work.pruned += self.entries - scan.examined;
        scan.best
    }

    /// A lookup's walk for `xs` (whose means are `query`) at `radius_sq`
    /// over the representatives in `groups`, before it visits a row.
    fn scan<'a>(
        &self,
        query: &Paa,
        xs: &'a [f64],
        radius_sq: f64,
        groups: &'a GroupColumn,
    ) -> Scan<'a> {
        // A representative within the radius has every value within it of
        // the query's, so this magnitude bounds both sides' sums and the
        // stored means; past what those hold (or on a NaN) nothing is
        // claimed — every cell is scanned and no gap survives its slack.
        let reach = query.peak + radius_sq.sqrt();
        let eps = if reach <= STORABLE {
            self.ulps * reach + f64::from(f32::MIN_POSITIVE)
        } else {
            f64::INFINITY
        };
        let slack = eps + F32_ULP * reach;
        Scan {
            xs,
            groups,
            radius_sq,
            weights: self.weights,
            means: query.means,
            eps,
            slack,
            shave: 1.0 - self.ulps,
            narrow: (reach <= NARROW_REACH).then(|| Narrow::new(query, slack, &self.weights)),
            best: None,
            examined: 0,
        }
    }

    /// Register a newly seeded group: ids are issued densely from 0.
    pub fn insert(&mut self, group: usize, representative: &[f64]) {
        assert_eq!(group, self.entries, "group ids are issued densely");
        let ((row, col), means) = self.file(representative);
        self.rows
            .entry(row)
            .or_default()
            .push(col, gid(group), means);
        if let Some(home) = &mut self.home {
            home.push((row, col));
        }
        self.entries += 1;
    }

    /// Note that a group's representative moved (centroid drift): its
    /// entry moves to the cell it now belongs in.
    pub fn update(&mut self, group: usize, representative: &[f64]) {
        let (cell, means) = self.file(representative);
        if self.home.is_none() {
            self.home = Some(self.directory());
        }
        let home = self.home.as_mut().expect("built above");
        let (row_at, col) = std::mem::replace(&mut home[group], cell);
        let row = self
            .rows
            .get_mut(&row_at)
            .expect("a group's home row exists");
        if (row_at, col) == cell {
            let (_, _, pos) = row.find(col, gid(group));
            for (plane, mean) in row.means.iter_mut().zip(means) {
                plane[pos] = mean;
            }
            return;
        }
        row.swap_remove(col, gid(group));
        if row.len() == 0 {
            self.rows.remove(&row_at);
        }
        self.rows
            .entry(cell.0)
            .or_default()
            .push(cell.1, gid(group), means);
    }

    /// Heap bytes the index keeps, worked out from capacities (no
    /// allocator hook).
    pub fn resident_bytes(&self) -> usize {
        let rows: usize = self.rows.values().map(Row::bytes).sum();
        let home = self.home.as_ref().map_or(0, Vec::capacity);
        rows + self.rows.len() * ROW_BYTES + home * std::mem::size_of::<Cell>()
    }
}

/// A group id as the index stores it.
fn gid(group: usize) -> u32 {
    u32::try_from(group).expect("group ids fit the index's 32 bits")
}

/// One lookup's walk over the runs its interval covers: the query's side
/// of both bounds and the best candidate so far.
struct Scan<'a> {
    xs: &'a [f64],
    groups: &'a GroupColumn,
    radius_sq: f64,
    weights: [f64; SEGMENTS],
    means: [f64; SEGMENTS],
    /// The rounding a mean can carry (infinite past what the lookup
    /// vouches for).
    eps: f64,
    slack: f64,
    shave: f64,
    /// The `f32` pass, where the reach lets it run.
    narrow: Option<Narrow>,
    best: Option<(usize, f64)>,
    examined: usize,
}

impl Scan<'_> {
    fn bound_sq(&self) -> f64 {
        self.best.map_or(self.radius_sq, |(_, b)| b)
    }

    /// Bound the entries `run` of `row` a block at a time, and offer
    /// every survivor.
    fn run(&mut self, row: &Row, run: Range<usize>) {
        for start in run.clone().step_by(BLOCK) {
            let block = start..run.end.min(start + BLOCK);
            let Some(narrow) = &self.narrow else {
                block.for_each(|at| self.consider(row, at));
                continue;
            };
            let mut survivors = narrow.survivors(row, block.clone(), self.bound_sq() / self.shave);
            while survivors != 0 {
                self.consider(row, start + survivors.trailing_zeros() as usize);
                survivors &= survivors - 1;
            }
        }
    }

    /// The exact four-term bound against the best `d²` so far, then the
    /// linear scan's distance and acceptance rule, for the entry at `at`.
    fn consider(&mut self, row: &Row, at: usize) {
        let bound_sq = self.bound_sq();
        if self.drops(row, at, bound_sq) {
            return;
        }
        self.examined += 1;
        let gid = row.gids[at] as usize;
        let d_sq = ed_early_abandon_sq(self.xs, self.groups.at(gid).representative(), bound_sq);
        if d_sq.is_finite() {
            offer(&mut self.best, self.radius_sq, gid, d_sq);
        }
    }

    /// Whether the exact `f64` four-term bound of the entry at `at`
    /// exceeds `bound_sq`.
    fn drops(&self, row: &Row, at: usize, bound_sq: f64) -> bool {
        let mut lower = 0.0;
        for s in 0..SEGMENTS {
            let gap = (self.means[s] - f64::from(row.means[s][at])).abs() - self.slack;
            // `max` drops a NaN (∞ − ∞): no gap is claimed there.
            let gap = gap.max(0.0);
            lower += self.weights[s] * gap * gap;
        }
        lower * self.shave > bound_sq
    }
}

/// The query's side of the `f32` pass, its slack widened as the
/// [module docs](self) set out.
struct Narrow {
    means: [f32; SEGMENTS],
    weights: [f32; SEGMENTS],
    slack: f32,
}

impl Narrow {
    fn new(query: &Paa, slack: f64, weights: &[f64; SEGMENTS]) -> Self {
        let tiny = f64::from(f32::MIN_POSITIVE);
        let slack = slack * NARROW_MARGIN + F32_ULP * query.peak + 2.0 * tiny;
        Narrow {
            means: query.means.map(|m| m as f32),
            weights: weights.map(|w| w as f32),
            slack: slack as f32,
        }
    }

    /// Bit `i` set for the entry `block.start + i` of `row` unless its
    /// `f32` bound exceeds `limit` (the `f64` test's `bound²/shave`),
    /// widened. A NaN bound keeps its entry.
    fn survivors(&self, row: &Row, block: Range<usize>, limit: f64) -> u64 {
        let limit = (limit * NARROW_MARGIN + f64::from(f32::MIN_POSITIVE)) as f32;
        let mut lower = [0.0f32; BLOCK];
        let lower = &mut lower[..block.len()];
        for s in 0..SEGMENTS {
            let (q, w) = (self.means[s], self.weights[s]);
            for (l, &m) in lower.iter_mut().zip(&row.means[s][block.clone()]) {
                let gap = ((q - m).abs() - self.slack).max(0.0);
                *l += w * gap * gap;
            }
        }
        let kept = lower.iter().map(|&l| u64::from(l <= limit || l.is_nan()));
        kept.enumerate().fold(0, |mask, (i, bit)| mask | bit << i)
    }
}

/// Candidate acceptance with the linear scan's exact semantics: strictly
/// closer wins; at equal distance the lower group id wins (the linear
/// scan's first-hit-wins order).
fn offer(best: &mut Option<(usize, f64)>, radius_sq: f64, gid: usize, d_sq: f64) {
    let accepted = match best {
        None => d_sq <= radius_sq,
        Some((bg, b)) => d_sq < *b || (d_sq == *b && gid < *bg),
    };
    if accepted {
        *best = Some((gid, d_sq));
    }
}

// ---------------------------------------------------------------------
// Resident index — the per-length grids of one base, kept in step.
// ---------------------------------------------------------------------

/// The nearest-representative grids of one base, one per subsequence
/// length, as [`crate::BaseBuilder::extend_resident`] uses them.
///
/// Lifecycle: a column is **seeded** from the base's groups the first
/// time an extension needs it, **mutated** in step with every admission
/// of that and every later extension, and must be **discarded**
/// ([`Self::clear`]) as soon as the base it mirrors is not the one being
/// extended — another base was installed, or an extension that had
/// already admitted members was abandoned. The builder clears it itself
/// when an extension fails; whoever keeps the index between calls owns
/// the "same base" guarantee (the engine stamps it with the epoch).
#[derive(Default)]
pub struct ResidentIndex {
    columns: BTreeMap<usize, PaaGrid>,
    seeds: u64,
}

impl ResidentIndex {
    /// An empty index; columns are seeded on first use.
    pub fn new() -> Self {
        ResidentIndex::default()
    }

    /// Drop every column; the next extension re-seeds what it needs.
    pub fn clear(&mut self) {
        self.columns.clear();
    }

    /// Representatives covered, over all seeded columns.
    pub fn entries(&self) -> usize {
        self.columns.values().map(|grid| grid.entries).sum()
    }

    /// Columns seeded from a base's groups over this index's lifetime
    /// ([`Self::clear`] does not reset it). Extensions that find their
    /// columns resident add none, so a count that keeps growing means
    /// every extension is paying for a rebuild.
    pub fn seeds(&self) -> u64 {
        self.seeds
    }

    /// Heap bytes the seeded columns keep, worked out from capacities: 0
    /// until an extension seeds the first one.
    pub fn resident_bytes(&self) -> usize {
        self.columns.values().map(PaaGrid::resident_bytes).sum()
    }

    /// `"grid"` once a column is seeded, `"none"` before.
    pub fn kind(&self) -> &'static str {
        if self.columns.is_empty() {
            "none"
        } else {
            "grid"
        }
    }

    /// Take the column of length `len` out, for a worker to bring in step
    /// with that length's groups ([`Self::mirror`]) and give back
    /// ([`Self::put`]).
    pub(crate) fn take(&mut self, len: usize) -> Option<PaaGrid> {
        self.columns.remove(&len)
    }

    /// The grid for length `len` (admission radius `radius`) mirroring
    /// `groups`: `taken` when it holds an entry for exactly these groups,
    /// one freshly seeded from them otherwise — and whether it was
    /// seeded.
    pub(crate) fn mirror(
        taken: Option<PaaGrid>,
        len: usize,
        radius: f64,
        groups: &GroupColumn,
    ) -> (PaaGrid, bool) {
        match taken {
            Some(grid) if grid.entries == groups.len() => (grid, false),
            _ => (PaaGrid::seeded(len, radius, groups), true),
        }
    }

    /// Give back the column of length `len`, counting it as a seed when
    /// [`Self::mirror`] seeded it.
    pub(crate) fn put(&mut self, len: usize, grid: PaaGrid, seeded: bool) {
        self.seeds += u64::from(seeded);
        self.columns.insert(len, grid);
    }
}

impl std::fmt::Debug for ResidentIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentIndex")
            .field("kind", &self.kind())
            .field("columns", &self.columns.len())
            .field("entries", &self.entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_tseries::SubseqRef;

    fn first(values: &[f64]) -> SubseqRef {
        SubseqRef::new(0, 0, values.len() as u32)
    }

    /// A column of groups of one, each owning one of `representatives`.
    fn column<V: AsRef<[f64]>>(representatives: impl IntoIterator<Item = V>) -> GroupColumn {
        let mut groups = GroupColumn::new();
        for values in representatives {
            groups.push_owned(first(values.as_ref()), values.as_ref());
        }
        groups
    }

    /// Deterministic pseudo-random vector stream (SplitMix64).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
        fn vec(&mut self, len: usize, scale: f64) -> Vec<f64> {
            (0..len).map(|_| (self.next() - 0.5) * scale).collect()
        }
    }

    fn entries(grid: &PaaGrid) -> usize {
        grid.rows.values().map(Row::len).sum()
    }

    /// The grid for `len` in `resident`, brought in step with `groups` as
    /// an extension's worker does it.
    fn resident_column<'a>(
        resident: &'a mut ResidentIndex,
        len: usize,
        radius: f64,
        groups: &GroupColumn,
    ) -> &'a mut PaaGrid {
        let (grid, seeded) = ResidentIndex::mirror(resident.take(len), len, radius, groups);
        resident.put(len, grid, seeded);
        resident.columns.get_mut(&len).expect("just put back")
    }

    /// Every row's run table is in order and covers its run, no cell is
    /// empty, and every group has exactly one entry, filed in the cell
    /// its representative belongs in.
    fn assert_laid_out(grid: &PaaGrid, groups: &GroupColumn) {
        let mut seen = vec![false; groups.len()];
        for (&row_at, row) in &grid.rows {
            assert!(row.len() > 0, "row {row_at} is empty");
            assert!(row.cols.windows(2).all(|w| w[0] < w[1]), "row {row_at}");
            assert_eq!(row.cols.len(), row.ends.len(), "row {row_at}");
            assert_eq!(row.ends.last().map(|&end| end as usize), Some(row.len()));
            assert!(row.means.iter().all(|plane| plane.len() == row.len()));
            for (at, &col) in row.cols.iter().enumerate() {
                let run = row.start_of(at)..row.ends[at] as usize;
                assert!(!run.is_empty(), "cell ({row_at}, {col}) is empty");
                for pos in run {
                    let gi = row.gids[pos] as usize;
                    assert!(!std::mem::replace(&mut seen[gi], true), "group {gi} twice");
                    let (cell, means) = grid.file(groups.at(gi).representative());
                    assert_eq!(cell, (row_at, col), "group {gi}");
                    let stored: [f32; SEGMENTS] = std::array::from_fn(|s| row.means[s][pos]);
                    assert_eq!(
                        stored.map(f32::to_bits),
                        means.map(f32::to_bits),
                        "group {gi}"
                    );
                }
            }
        }
        assert!(seen.iter().all(|&filed| filed), "a group has no entry");
        assert_eq!(grid.entries, groups.len());
    }

    /// The oracle: every representative scanned with an early-abandoning
    /// ED whose bound tightens to the best candidate seen so far, the
    /// first of equals kept.
    fn linear_scan(xs: &[f64], radius_sq: f64, groups: &GroupColumn) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut bound_sq = radius_sq;
        for (gi, g) in groups.iter().enumerate() {
            let d_sq = ed_early_abandon_sq(xs, g.representative(), bound_sq);
            if d_sq.is_finite() && best.is_none_or(|(_, b)| d_sq < b) {
                best = Some((gi, d_sq));
                bound_sq = d_sq;
            }
        }
        best
    }

    /// Drive the grid and the linear scan through an identical randomized
    /// insert/update/query schedule — windows jittered about a pool of
    /// shapes, so that about half of them find a group — and demand
    /// identical answers, with every live representative accounted for at
    /// every lookup. Returns the groups and the grid kept in step with
    /// them.
    fn equivalence_drill(
        len: usize,
        scale: f64,
        radius: f64,
        seed: u64,
        centroid_rate: f64,
    ) -> (GroupColumn, PaaGrid) {
        equivalence_drill_from(len, scale, radius, seed, centroid_rate, 0)
    }

    /// [`equivalence_drill`] in which no representative moves before step
    /// `drift_from`.
    fn equivalence_drill_from(
        len: usize,
        scale: f64,
        radius: f64,
        seed: u64,
        centroid_rate: f64,
        drift_from: u32,
    ) -> (GroupColumn, PaaGrid) {
        let mut rng = Rng(seed);
        let mut groups = GroupColumn::new();
        let mut grid = PaaGrid::new(len, radius);
        let mut scanned = 0;
        let mut gw = IndexWork::default();
        let radius_sq = radius * radius;
        let mut updates = 0;
        let shapes: Vec<Vec<f64>> = (0..60).map(|_| rng.vec(len, scale)).collect();
        let jitter = 0.7 * radius * (12.0 / len as f64).sqrt();
        for step in 0..600 {
            let shape = &shapes[(rng.next() * shapes.len() as f64) as usize];
            let xs: Vec<f64> = shape
                .iter()
                .zip(rng.vec(len, jitter))
                .map(|(s, j)| s + j)
                .collect();
            let mut g1 = IndexWork::default();
            let a = linear_scan(&xs, radius_sq, &groups);
            let b = grid.nearest_within(&xs, radius_sq, &groups, &mut g1);
            assert_eq!(a, b, "step {step}: linear {a:?} vs grid {b:?}");
            assert_eq!(g1.examined + g1.pruned, groups.len(), "step {step}");
            assert_eq!(g1.distance_calls, g1.examined, "step {step}");
            scanned += groups.len();
            gw += g1;
            match a {
                Some((gi, d_sq)) => {
                    let centroid = rng.next() < centroid_rate && step >= drift_from;
                    let member = SubseqRef::new(1, step, len as u32);
                    groups.admit(gi, member, &xs, d_sq.sqrt(), centroid);
                    if centroid {
                        grid.update(gi, groups.at(gi).representative());
                        updates += 1;
                    }
                    assert_eq!(grid.home.is_some(), updates > 0, "step {step}");
                }
                None => {
                    groups.push_owned(first(&xs), &xs);
                    grid.insert(groups.len() - 1, &xs);
                }
            }
            assert_eq!(
                entries(&grid),
                groups.len(),
                "step {step}: one entry a group"
            );
        }
        assert!(groups.len() > 50, "drill must exercise many groups");
        assert_laid_out(&grid, &groups);
        assert!(centroid_rate == 0.0 || updates > 50, "{updates} updates");
        assert!(
            gw.examined * 2 < scanned,
            "grid must prune: examined {} vs linear {scanned}",
            gw.examined,
        );
        (groups, grid)
    }

    #[test]
    fn grid_matches_linear_with_frozen_representatives() {
        equivalence_drill(16, 8.0, 1.0, 7, 0.0);
    }

    #[test]
    fn grid_matches_linear_under_centroid_drift() {
        equivalence_drill(12, 4.0, 1.5, 99, 1.0);
    }

    #[test]
    fn grid_matches_linear_with_generous_radius() {
        // Generous radius: most lookups hit, reps drift constantly.
        equivalence_drill(8, 12.0, 4.0, 1234, 0.7);
    }

    #[test]
    fn grid_matches_linear_with_empty_segments() {
        equivalence_drill(2, 6.0, 0.5, 3, 0.5);
        equivalence_drill(3, 6.0, 0.8, 4, 0.5);
    }

    #[test]
    fn centroid_updates_leave_exactly_one_entry_per_group_where_it_now_belongs() {
        let (groups, grid) = equivalence_drill(8, 12.0, 4.0, 21, 1.0);
        let home = grid.home.as_ref().expect("updates built the directory");
        assert_eq!((home.len(), grid.entries), (groups.len(), groups.len()));
        assert_eq!(home, &grid.directory(), "kept in step with the rows");
        assert_laid_out(&grid, &groups);
        for (gi, g) in groups.iter().enumerate() {
            assert_eq!(grid.file(g.representative()).0, home[gi], "group {gi}");
        }
    }

    #[test]
    fn the_directory_is_built_by_the_first_update_however_late_it_comes() {
        // Frozen representatives never ask where an entry sits: no
        // directory, and a third of the bytes.
        let (groups, frozen) = equivalence_drill(16, 8.0, 1.0, 7, 0.0);
        assert!(frozen.home.is_none());
        assert_eq!(frozen.entries, groups.len());
        let rows: usize = frozen.rows.values().map(Row::bytes).sum();
        assert_eq!(
            frozen.resident_bytes(),
            rows + frozen.rows.len() * ROW_BYTES
        );
        // Three hundred inserts and frozen admissions, then drift: the
        // first update walks the rows once, and from there on the
        // directory is the one an index updated from the start keeps (the
        // drill checks every answer against the linear scan either way).
        let (groups, late) = equivalence_drill_from(8, 12.0, 4.0, 21, 1.0, 300);
        let home = late.home.as_ref().expect("built at step 300");
        assert_eq!(home, &late.directory());
        assert_eq!(home.len(), groups.len());
        assert_laid_out(&late, &groups);
        for (gi, g) in groups.iter().enumerate() {
            assert_eq!(late.file(g.representative()).0, home[gi], "group {gi}");
        }
        assert!(late.resident_bytes() >= late.entries * (20 + 16));
    }

    #[test]
    fn seeded_index_equals_incremental_inserts() {
        // An index kept in step through inserts and drifting centroids
        // answers as one seeded from the groups it ended up with does.
        let (groups, kept) = equivalence_drill(10, 6.0, 2.0, 5, 0.8);
        let mut resident = ResidentIndex::new();
        let seeded = resident_column(&mut resident, 10, 2.0, &groups);
        let mut rng = Rng(55);
        for _ in 0..100 {
            let q = rng.vec(10, 6.0);
            let mut w1 = IndexWork::default();
            let mut w2 = IndexWork::default();
            assert_eq!(
                seeded.nearest_within(&q, 4.0, &groups, &mut w1),
                kept.nearest_within(&q, 4.0, &groups, &mut w2)
            );
            assert_eq!(w1.examined + w1.pruned, groups.len());
            assert_eq!(w2.examined + w2.pruned, groups.len());
        }
    }

    #[test]
    fn a_seeded_grid_is_laid_out_as_inserts_in_id_order_lay_it_out() {
        let mut rng = Rng(12);
        let spread = column((0..500).map(|_| rng.vec(12, 9.0)));
        let (drifted, _) = equivalence_drill(10, 6.0, 2.0, 5, 0.8);
        for (groups, len, radius) in [(spread, 12, 1.0), (drifted, 10, 2.0)] {
            let seeded = PaaGrid::seeded(len, radius, &groups);
            let mut inserted = PaaGrid::new(len, radius);
            for (gi, g) in groups.iter().enumerate() {
                inserted.insert(gi, g.representative());
            }
            assert_laid_out(&seeded, &groups);
            assert!(seeded.rows.len() > 2);
            assert_eq!(
                seeded.rows.keys().collect::<Vec<_>>(),
                inserted.rows.keys().collect::<Vec<_>>()
            );
            for (row, other) in seeded.rows.values().zip(inserted.rows.values()) {
                assert_eq!(
                    (&row.cols, &row.ends, &row.gids),
                    (&other.cols, &other.ends, &other.gids)
                );
                for (plane, other) in row.means.iter().zip(&other.means) {
                    assert!(plane
                        .iter()
                        .map(|m| m.to_bits())
                        .eq(other.iter().map(|m| m.to_bits())));
                }
                // Sized exactly: nothing to spare until the first insert.
                assert_eq!(row.gids.capacity(), row.len());
            }
        }
    }

    #[test]
    fn the_f32_pass_never_drops_what_the_f64_bound_keeps() {
        // Entries around the query at every scale the pass runs at and
        // past it, bounded against radii from nothing to everything: an
        // entry the `f32` pass drops, the exact bound must drop too.
        let mut rng = Rng(41);
        let (mut narrowed, mut dropped, mut exact_drops) = (0, 0, 0);
        for (offset, scale) in [
            (0.0, 10.0),
            (100.0, 10.0),
            (0.0, 1e-30),
            (0.0, 1e-39),
            (1e6, 1.0),
            (-1e12, 1e-3),
            (1e15, 10.0),
            (3.9e18, 1e3),
            (4.1e18, 1e3),
            (1e30, 1e20),
        ] {
            let len = 9;
            let near = |rng: &mut Rng, spread: f64| -> Vec<f64> {
                rng.vec(len, spread).iter().map(|v| offset + v).collect()
            };
            let groups = column((0..300).map(|i| near(&mut rng, scale * (1 + i % 5) as f64)));
            let grid = PaaGrid::seeded(len, scale, &groups);
            for _ in 0..20 {
                let xs = near(&mut rng, scale);
                let query = grid.paa(&xs);
                for radius in [0.0, scale * 1e-3, scale * 0.5, scale, scale * 3.0] {
                    let scan = grid.scan(&query, &xs, radius * radius, &groups);
                    let Some(narrow) = &scan.narrow else {
                        continue;
                    };
                    narrowed += 1;
                    for bound_sq in [radius * radius, radius * radius / 4.0, 0.0] {
                        for row in grid.rows.values() {
                            for start in (0..row.len()).step_by(BLOCK) {
                                let block = start..row.len().min(start + BLOCK);
                                let kept =
                                    narrow.survivors(row, block.clone(), bound_sq / scan.shave);
                                for at in block {
                                    let exact = scan.drops(row, at, bound_sq);
                                    let narrow_drops = kept & (1 << (at - start)) == 0;
                                    if scale == 10.0 {
                                        exact_drops += usize::from(exact);
                                        dropped += usize::from(narrow_drops);
                                    }
                                    if narrow_drops {
                                        assert!(exact, "offset {offset}, scale {scale}, radius {radius}, bound {bound_sq}, entry {at}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(narrowed > 500, "{narrowed} lookups ran the f32 pass");
        // And at ordinary magnitudes the pass is worth running: it drops
        // nearly all the exact bound does. (Where the spread is far below
        // the offset, or its squares underflow an `f32`, it drops less and
        // the exact bound does the rest.)
        assert!(
            dropped * 1000 > exact_drops * 999,
            "f32 dropped {dropped} of {exact_drops}"
        );
    }

    #[test]
    fn a_lookup_at_another_radius_than_the_columns_is_still_exact() {
        // Cells are sized for the column's radius; the interval comes
        // from the call's, so any radius finds the same winner.
        let mut rng = Rng(8);
        let groups = column((0..300).map(|_| rng.vec(9, 10.0)));
        let mut grid = PaaGrid::new(9, 0.5);
        for (gi, g) in groups.iter().enumerate() {
            grid.insert(gi, g.representative());
        }
        for radius in [0.0, 0.1, 3.0, 12.0, 40.0, 1e9, f64::INFINITY] {
            for _ in 0..20 {
                let q = rng.vec(9, 10.0);
                let mut work = IndexWork::default();
                assert_eq!(
                    grid.nearest_within(&q, radius * radius, &groups, &mut work),
                    linear_scan(&q, radius * radius, &groups),
                    "radius {radius}"
                );
            }
        }
    }

    #[test]
    fn a_representative_on_the_rim_of_the_radius_is_found_at_any_offset() {
        // All of the distance along one half-mean axis and equal to the
        // radius, up to what the offset lets a value resolve: the entry
        // sits on the edge of the lookup's interval, and its sums round
        // apart from the query's by up to a cell or more.
        let (len, radius) = (8usize, 0.3f64);
        let reach = radius / (len as f64 / 2.0).sqrt();
        let mut rng = Rng(31);
        let mut found = 0;
        for offset in [0.0, 1e6, 1e9, 1e12, -1e12, 1e13, 1e14, 1e15, -1e15] {
            for _ in 0..400 {
                let rep: Vec<f64> = rng.vec(len, 100.0).iter().map(|v| v + offset).collect();
                let groups = column([&rep]);
                let mut grid = PaaGrid::new(len, radius);
                grid.insert(0, &rep);
                for (half, sign) in [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)] {
                    let mut query = rep.clone();
                    for x in &mut query[half * len / 2..(half + 1) * len / 2] {
                        *x += sign * reach;
                    }
                    let mut work = IndexWork::default();
                    let want = linear_scan(&query, radius * radius, &groups);
                    let got = grid.nearest_within(&query, radius * radius, &groups, &mut work);
                    assert_eq!(got, want, "offset {offset}, half {half}, sign {sign}");
                    found += usize::from(want.is_some());
                }
            }
        }
        assert!(found > 2000, "{found} rim cases were inside the radius");
    }

    #[test]
    fn ties_go_to_the_lowest_group_id() {
        let rep = vec![1.0, 2.0, 3.0, 4.0];
        let groups = column([&[9.0; 4][..], &rep, &rep]);
        let mut work = IndexWork::default();
        let mut grid = PaaGrid::new(4, 1.0);
        // Filed out of id order within the cell: the id decides, not the slot.
        for gi in [0, 1, 2] {
            grid.insert(gi, groups.at(gi).representative());
        }
        grid.update(1, groups.at(1).representative());
        let query = vec![1.0, 2.0, 3.0, 4.5];
        let got = grid.nearest_within(&query, 1.0, &groups, &mut work);
        let want = linear_scan(&query, 1.0, &groups);
        assert_eq!(got, want);
        assert_eq!(got.unwrap().0, 1, "equal distances resolve to lower id");
    }

    #[test]
    fn out_of_radius_returns_none() {
        let groups = column([[100.0; 6]]);
        let mut grid = PaaGrid::new(6, 1.0);
        let mut work = IndexWork::default();
        grid.insert(0, groups.at(0).representative());
        assert_eq!(
            grid.nearest_within(&[0.0; 6], 1.0, &groups, &mut work),
            None
        );
        assert_eq!(
            (work.examined, work.pruned, work.distance_calls),
            (0, 1, 0),
            "dismissed without a distance call"
        );
        assert_eq!(linear_scan(&[0.0; 6], 1.0, &groups), None);
    }

    #[test]
    fn empty_index_returns_none() {
        let mut work = IndexWork::default();
        assert_eq!(
            PaaGrid::new(2, 10.0).nearest_within(
                &[1.0, 2.0],
                100.0,
                &GroupColumn::new(),
                &mut work
            ),
            None
        );
        assert_eq!(linear_scan(&[1.0, 2.0], 100.0, &GroupColumn::new()), None);
    }

    #[test]
    fn values_past_what_a_stored_mean_holds_scan_every_cell_and_never_panic() {
        let huge = [1e300, -1e300, 1e300, -1e300, 1e300];
        let groups = column([huge, [f64::MAX; 5], [0.0; 5]]);
        let mut grid = PaaGrid::new(5, 1.0);
        for (gi, g) in groups.iter().enumerate() {
            grid.insert(gi, g.representative());
        }
        let flipped = huge.map(|v| -v);
        for query in [huge, flipped, [f64::MAX; 5], [-f64::MAX; 5], [0.0; 5]] {
            let mut work = IndexWork::default();
            assert_eq!(
                grid.nearest_within(&query, 1.0, &groups, &mut work),
                linear_scan(&query, 1.0, &groups),
                "{query:?}"
            );
        }
        // Either side of what an `f32` holds, neighbours a few ulps apart
        // and a radius to match: the lookups that find something straddle
        // the point where the stored means stop being trusted.
        let mut rng = Rng(77);
        let mut found = 0;
        for level in [1e30, 1e37, 1.6e38, 1.8e38, 3.3e38, 3.5e38, 1e39, 1e300] {
            let near = |rng: &mut Rng| -> Vec<f64> {
                rng.vec(7, 2e-14)
                    .iter()
                    .map(|j| level * (1.0 + j))
                    .collect()
            };
            let radius = level * 1.5e-14;
            let groups = column((0..40).map(|_| near(&mut rng)));
            let mut grid = PaaGrid::new(7, radius);
            for (gi, g) in groups.iter().enumerate() {
                grid.insert(gi, g.representative());
            }
            for _ in 0..40 {
                let query = near(&mut rng);
                let mut work = IndexWork::default();
                let want = linear_scan(&query, radius * radius, &groups);
                let got = grid.nearest_within(&query, radius * radius, &groups, &mut work);
                assert_eq!(got, want, "level {level}");
                found += usize::from(want.is_some());
            }
        }
        assert!(
            (50..300).contains(&found),
            "{found} of 320 lookups found a group"
        );
    }

    #[test]
    fn resident_columns_are_seeded_once_and_reseeded_when_they_stop_mirroring() {
        let mut rng = Rng(17);
        let mut groups = column((0..40).map(|_| rng.vec(8, 6.0)));
        let mut work = IndexWork::default();
        let mut resident = ResidentIndex::new();
        assert_eq!(
            (resident.kind(), resident.entries(), resident.seeds()),
            ("none", 0, 0)
        );
        let q = rng.vec(8, 6.0);
        let want = linear_scan(&q, 1e9, &groups);
        let index = resident_column(&mut resident, 8, 1.0, &groups);
        assert_eq!(index.nearest_within(&q, 1e9, &groups, &mut work), want);
        assert_eq!(
            (resident.kind(), resident.entries(), resident.seeds()),
            ("grid", 40, 1)
        );

        // The builder seeds a group and keeps the index in step: the next
        // extension finds the column resident.
        let before = groups.clone();
        groups.push_owned(first(&q), &q);
        resident_column(&mut resident, 8, 1.0, &before).insert(40, groups.at(40).representative());
        let index = resident_column(&mut resident, 8, 1.0, &groups);
        assert_eq!(
            index.nearest_within(&q, 1e-9, &groups, &mut work),
            Some((40, 0.0))
        );
        assert_eq!(resident.seeds(), 1, "a resident column is not rebuilt");

        // A column of another size is not the one this index mirrors.
        let fewer = column(groups.iter().take(7).map(|g| g.representative()));
        resident_column(&mut resident, 8, 1.0, &fewer);
        assert_eq!((resident.entries(), resident.seeds()), (7, 2));
        resident.clear();
        assert_eq!(
            (resident.kind(), resident.entries(), resident.seeds()),
            ("none", 0, 2)
        );
    }

    #[test]
    fn work_accounting_accumulates() {
        let mut a = IndexWork {
            examined: 1,
            pruned: 2,
            distance_calls: 3,
        };
        a += IndexWork {
            examined: 10,
            pruned: 20,
            distance_calls: 30,
        };
        assert_eq!(
            a,
            IndexWork {
                examined: 11,
                pruned: 22,
                distance_calls: 33
            }
        );
    }
}
