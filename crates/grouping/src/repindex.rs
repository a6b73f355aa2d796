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
//! representative, each as a 16-bit code, and uses the bound twice:
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
//!   over its four quarter-means, each `|Δₛ|` first shrunk by what its
//!   code leaves open and by the rounding it can carry, exceeds the best
//!   `d²` so far (the radius until something is found). Survivors get
//!   the linear scan's own early-abandoning distance and acceptance rule.
//!
//! # The codes
//!
//! A quarter mean is kept as its offset from its row's lower edge (the
//! row coordinate times the cell width) in *steps* of a 256th of the cell
//! width, rounded to the nearest step: an `i16` that reaches ±128 cell
//! widths either side of the edge. A code stands for the interval half a
//! step either side of it. An offset past ±32 767 steps saturates there
//! and stands for everything beyond it (it bounds its side only), and a
//! mean that is not a number gets a code that bounds nothing.
//!
//! The step is what the bound gives up: each term's gap shrinks by half
//! a step. At a 256th of a cell, construction starts under 1 % more
//! distances than with exact means (E12 records the count); a 64th cost
//! 2–3 %. Under the default length-normalised threshold the cell width
//! is `ST/√2`, so ±128 widths is ≈ ±90·ST about the first half-mean.
//! Only a window whose quarter means lie further than that from its
//! row's edge — a ramp far steeper than the threshold, say — loses a
//! term of its bound, and only on the side the code saturated towards.
//! That is the regime where the codes cost pruning; nowhere do they cost
//! exactness.
//!
//! Rounding never costs exactness, only pruning. Means are summed in
//! `f64` (error within `n·ulp` of the vector's largest magnitude), and a
//! code and the query's offset from the same edge are worked out in
//! `f64` as well. A representative within the radius has every value
//! within the radius of the query's, so the query's largest magnitude
//! plus the radius (the lookup's *reach*) bounds both sides' sums and
//! the row edges of every entry that could win, and one slack per
//! lookup covers every such entry: half a step widened by `2⁻²⁰` of
//! itself (thousands of times what encoding and decoding an offset of at
//! most 2¹⁵ steps can lose), plus the sums' rounding at that reach. An
//! entry it does not cover is too far away to win. The finished bound is
//! shaved by the few `ulp`s a computed `d²` can fall below the true one.
//! Past the magnitudes a lookup vouches for nothing is claimed: it scans
//! every cell and no gap survives its slack (a NaN difference never
//! does).
//!
//! # The row layout
//!
//! A row of cells (one first half-mean coordinate) keeps its entries as
//! one run sorted by column coordinate — entries of one cell in the order
//! they were filed — with each segment's codes in a plane of their own
//! (two bytes an entry) beside the group ids, and a table of where each
//! cell's run ends. The cells a lookup visits in one row are then one
//! span of each plane, and an entry costs its 12 bytes plus a share of
//! its cell's 12 and its row's.
//!
//! A row's cells are not searched for. Its run table holds every column
//! from its first to its last — cells that hold no entry sit between the
//! ones that do — so a column's cell is its offset from the first; a new
//! column rebuilds the table that way whenever it then holds at most
//! twice its occupied cells plus `TABLE_SLACK` (8), and is otherwise
//! filed alone, the table searched (a binary search: data spread far
//! wider than the radius) until a later column makes it fit again. On
//! random walks every run table is consecutive, seeded or filed insert by
//! insert: a row visit finds its span by subtraction. The rows that hold
//! an entry sit in a B-tree, which a lookup asks once for the few rows its
//! interval covers: a table of rows by offset would make each new row cost
//! a move of every row after it, which on data spread far wider than the
//! radius (a row an entry) is quadratic in the entries. An insert reuses
//! the means and cell its window's lookup just worked out
//! ([`PaaGrid::insert_probed`]).
//!
//! A span shorter than one kernel step
//! ([`onex_distance::kernels::GRID_STEP`], eight entries) is bounded in
//! place, entry by entry, with the exact `f64` test below — what a
//! lookup without the `f32` pass does everywhere. The pass only ever
//! keeps more than that test, so the lookup examines the same entries in
//! the same order either way; for a short span the dispatched call and
//! its one zero-padded or overlapping step cost more than the few exact
//! tests. On a column that compacts (a few dozen groups: a lookup visits
//! two or three rows of three entries or so) that is nearly every span;
//! the spans of a walk's rows (a few dozen entries) keep the pass.
//!
//! A longer span is bounded in one call of the dispatched kernel
//! [`onex_distance::kernels::grid_survivors`] (eight entries a step on
//! AVX2), in `f32` against the best `d²` found when the row's visit
//! starts — the radius until something is found — and each survivor is
//! then re-checked with the exact `f64` bound above, against the best
//! `d²` found so far, before any distance starts. Both work in steps: the
//! query's four offsets from the row's edge are worked out once per row,
//! clamped to the codes' range (which only ever shrinks a gap, and is
//! what makes a saturated code bound one side), and each term is the
//! offset's distance to the code less the slack. The `f32` pass only
//! ever drops an entry the `f64` bound drops as well (against a bound at
//! least as loose), so the lookup examines exactly the entries the `f64`
//! bound alone would, in the same order:
//!
//! * its slack is the `f64` slack widened by `2⁻¹⁵` of itself and by
//!   `2⁻⁷` of a step — more than twice what rounding an offset of at
//!   most 2¹⁵ steps to `f32` (`2⁻¹⁰`) and taking its difference with a
//!   code (`2⁻⁹`) can lose;
//! * its limit is the `f64` test's `bound²/shave` in squared steps,
//!   widened by `2⁻¹⁵` of itself and one of `f32`'s smallest normal. A
//!   dozen `f32` operations put the `f32` sum at most `12·2⁻²⁴` above the
//!   `f64` one, far inside that, and the offsets and codes are at most
//!   2¹⁵ steps, so no term leaves an `f32` at any scale of the data;
//! * it runs only while a squared unit of the data is a normal `f64` of
//!   squared steps — neither nothing nor infinite, so no limit turns
//!   into a NaN or loses its precision — and only on a column that never
//!   held a code that bounds nothing (which the pass, to stay
//!   branch-free, does not look for). A NaN term keeps its entry.
//!
//! The pass hands back each survivor's `f32` bound, and most survivors
//! skip the `f64` re-check: one whose bound is at or under the pass's
//! *sure* line passes it for certain, as long as the best `d²` is still
//! the one the pass ran against. A gap the pass computes is at most
//! `D` = the slack's widening plus `2⁻⁷` steps under the `f64` one (an
//! offset rounded to `f32` and two `f32` operations on values under 2¹⁶
//! lose at most `2⁻¹⁰ + 2·2⁻⁹`), so by Minkowski's inequality the root
//! of the `f64` bound is at most the root of the `f32` one (widened
//! `2⁻²⁰` for its sums) plus `D·√n`, `n` the summed weights. The line is
//! the root of the test's limit in steps, less `2⁻⁴⁰` of itself and less
//! `D·√n`, squared and lowered `2⁻¹⁸` (`Narrow::sure`). On the walks a
//! writer appends, the re-check then runs only for the few survivors
//! within a hair of the limit or met after a nearer representative
//! tightened it.
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
use std::ops::{Range, RangeInclusive};

use onex_distance::ed::ed_early_abandon_sq;
use onex_distance::kernels::{self, GridQuery, KernelLevel};

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
const SEGMENTS: usize = kernels::GRID_SEGMENTS;
/// Rows of cells a lookup walks one by one; an interval spanning more
/// (a radius or a rounding allowance far above the cell width) scans
/// every cell instead.
const ROW_CAP: i128 = 8;
/// Empty cells a row's run table may hold beyond one per occupied one
/// before a new column is filed alone (see [`filled_span`]).
const TABLE_SLACK: usize = 8;
/// What a row costs in the map beside its vectors: its key and its
/// struct, in B-tree leaves about two thirds full.
const ROW_BYTES: usize = (8 + std::mem::size_of::<Row>()) * 3 / 2;
/// Steps a cell width is cut into: a code's unit is a 256th of a cell.
const STEPS_PER_CELL: f64 = 256.0;
/// The largest code either way; an offset past it saturates here.
const SATURATED: i16 = i16::MAX;
/// The code of a mean that is not a number: it bounds nothing.
const UNBOUNDED: i16 = i16::MIN;
/// Half a step, widened by `2⁻²⁰` of itself: the most a code, decoded,
/// can be out from the mean it stands for, in steps.
const HALF_STEP: f64 = 0.5 * (1.0 + 1.0 / 1_048_576.0);
/// Largest magnitude a lookup vouches for: no sum of means it could meet
/// leaves `f64`, with room to spare.
const STORABLE: f64 = f32::MAX as f64 / 2.0;
/// How much the `f32` pass widens the `f64` slack and limit: `2⁻¹⁵`,
/// hundreds of times what a dozen `f32` roundings can add up to.
const NARROW_MARGIN: f64 = 1.0 + 1.0 / 32_768.0;
/// What the `f32` pass adds to the slack, in steps: more than twice what
/// rounding an offset to `f32` and subtracting a code from it can lose.
const NARROW_STEPS: f64 = 1.0 / 128.0;

/// What [`Narrow::sure`] allows, in steps, for the roundings between a
/// gap the `f32` pass computed and the `f64` test's: `2⁻⁷` (an offset
/// rounded to `f32` and two `f32` operations on values under 2¹⁶ lose at
/// most `2⁻¹⁰ + 2·2⁻⁹`).
const SURE_ROUNDING: f64 = 1.0 / 128.0;

/// Grid coordinates: the two half-means in units of the cell width.
type Cell = (i64, i64);

/// What the grid needs of a vector: segment means, the half-means that
/// place it, and its largest magnitude (the scale of the sums' rounding).
#[derive(Debug, Clone, Copy)]
struct Paa {
    means: [f64; SEGMENTS],
    halves: [f64; 2],
    peak: f64,
}

/// The coordinates a table of `lo..=hi` holds when it keeps them all:
/// `Some` while that is at most twice its `occupied` slots (those that
/// hold an entry) plus [`TABLE_SLACK`], `None` when the data spread them
/// too thinly for that.
fn filled_span(lo: i64, hi: i64, occupied: usize) -> Option<RangeInclusive<i64>> {
    let slots = i128::from(hi) - i128::from(lo) + 1;
    (slots <= (2 * occupied + TABLE_SLACK) as i128).then_some(lo..=hi)
}

/// One row of cells: its entries in one run sorted by column coordinate
/// (in filing order within a cell), plane-major, and the run table that
/// says where each cell's entries end.
#[derive(Debug, Default)]
struct Row {
    /// The row's coordinate.
    at: i64,
    /// Column coordinate of every cell of the run table, ascending;
    /// consecutive unless that costs more than [`filled_span`]
    /// allows. A cell may be empty.
    cols: Vec<i64>,
    /// Where the run of the cell at the same index ends; it starts where
    /// its predecessor's does.
    ends: Vec<u32>,
    /// Group id of every entry.
    gids: Vec<u32>,
    /// Segment `s`'s code of every entry.
    codes: [Vec<i16>; SEGMENTS],
}

impl Row {
    fn with_capacity(at: i64, entries: usize) -> Self {
        Row {
            at,
            gids: Vec::with_capacity(entries),
            codes: std::array::from_fn(|_| Vec::with_capacity(entries)),
            ..Row::default()
        }
    }

    fn len(&self) -> usize {
        self.gids.len()
    }

    /// Whether the run table holds every column from its first to its
    /// last.
    fn consecutive(&self) -> bool {
        match (self.cols.first(), self.cols.last()) {
            (Some(&first), Some(&last)) => {
                i128::from(last) - i128::from(first) + 1 == self.cols.len() as i128
            }
            _ => true,
        }
    }

    /// Cells whose column is below `col`, plus one when `inclusive` and a
    /// cell is at `col`: an offset from the first cell while the table is
    /// consecutive, a binary search otherwise.
    fn cells_before(&self, col: i64, inclusive: bool) -> usize {
        let Some(&first) = self.cols.first() else {
            return 0;
        };
        if self.consecutive() {
            let past = i128::from(col) - i128::from(first) + i128::from(inclusive);
            return past.clamp(0, self.cols.len() as i128) as usize;
        }
        self.cols
            .partition_point(|&c| c < col || (inclusive && c == col))
    }

    /// The cell at column `col`, if there is one.
    fn cell_of(&self, col: i64) -> Option<usize> {
        let at = self.cells_before(col, false);
        (self.cols.get(at) == Some(&col)).then_some(at)
    }

    /// Where the run of the `cells`-th cell starts.
    fn start_of(&self, cells: usize) -> usize {
        cells
            .checked_sub(1)
            .map_or(0, |last| self.ends[last] as usize)
    }

    /// The entries of every cell whose column lies in `lo..=hi`.
    fn span(&self, lo: i64, hi: i64) -> Range<usize> {
        self.start_of(self.cells_before(lo, false))..self.start_of(self.cells_before(hi, true))
    }

    /// The entries of the cell at index `at` of the run table.
    fn run(&self, at: usize) -> Range<usize> {
        self.start_of(at)..self.ends[at] as usize
    }

    /// The codes of the row's entries, one slice a plane.
    fn planes(&self) -> [&[i16]; SEGMENTS] {
        self.codes.each_ref().map(Vec::as_slice)
    }

    /// File an entry last in the cell at column `col`.
    fn push(&mut self, col: i64, gid: u32, codes: [i16; SEGMENTS]) {
        let at = match self.cell_of(col) {
            Some(at) => at,
            None => self.add_cell(col),
        };
        let pos = self.ends[at] as usize;
        if self.gids.len() == self.gids.capacity() {
            // An eighth more, not double: a seeded row is sized exactly
            // and a writer's appends grow it by a few entries at a time.
            let more = self.gids.len() / 8 + 4;
            self.gids.reserve_exact(more);
            self.codes
                .iter_mut()
                .for_each(|plane| plane.reserve_exact(more));
        }
        self.gids.insert(pos, gid);
        for (plane, code) in self.codes.iter_mut().zip(codes) {
            plane.insert(pos, code);
        }
        self.ends[at..].iter_mut().for_each(|end| *end += 1);
    }

    /// Make an empty cell at column `col`, which none holds, and return
    /// its index: the run table is rebuilt to hold every column from its
    /// first to its last where [`filled_span`] allows it, and takes the
    /// one cell otherwise.
    fn add_cell(&mut self, col: i64) -> usize {
        let occupied = (0..self.cols.len())
            .filter(|&at| !self.run(at).is_empty())
            .count();
        let (lo, hi) = match (self.cols.first(), self.cols.last()) {
            (Some(&first), Some(&last)) => (first.min(col), last.max(col)),
            _ => (col, col),
        };
        let Some(cols) = filled_span(lo, hi, occupied + 1) else {
            let at = self.cells_before(col, false);
            let start = self.start_of(at) as u32;
            self.cols.insert(at, col);
            self.ends.insert(at, start);
            return at;
        };
        // Each cell ends where the last of the old ones at or before its
        // column did.
        let mut old = 0;
        let ends = cols.clone().map(|c| {
            while self.cols.get(old).is_some_and(|&o| o <= c) {
                old += 1;
            }
            self.start_of(old) as u32
        });
        self.ends = ends.collect();
        self.cols = cols.collect();
        usize::try_from(col - lo).expect("col is in the table")
    }

    /// Where `gid`'s entry sits in the cell at column `col`: the cell's
    /// index and run, and the entry's position.
    fn find(&self, col: i64, gid: u32) -> (usize, Range<usize>, usize) {
        let at = self.cell_of(col).expect("a group's home cell exists");
        let run = self.run(at);
        let slot = self.gids[run.clone()].iter().position(|&g| g == gid);
        let pos = run.start + slot.expect("an entry sits in its home cell");
        (at, run, pos)
    }

    /// Take `gid`'s entry out of the cell at column `col` as a vector's
    /// `swap_remove` would: the cell's last entry takes its slot. A cell
    /// left empty stays while the run table is consecutive.
    fn swap_remove(&mut self, col: i64, gid: u32) {
        let (at, run, pos) = self.find(col, gid);
        let last = run.end - 1;
        self.gids.swap(pos, last);
        self.gids.remove(last);
        for plane in &mut self.codes {
            plane.swap(pos, last);
            plane.remove(last);
        }
        self.ends[at..].iter_mut().for_each(|end| *end -= 1);
        if run.len() == 1 && !self.consecutive() {
            self.cols.remove(at);
            self.ends.remove(at);
        }
    }

    /// Heap bytes the row's vectors keep.
    fn bytes(&self) -> usize {
        let planes: usize = self.codes.iter().map(Vec::capacity).sum();
        self.cols.capacity() * 8 + (self.ends.capacity() + self.gids.capacity()) * 4 + planes * 2
    }
}

/// What a lookup leaves for an insert of the same window: its means, so
/// that filing it needs no second pass over its values.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    query: Paa,
}

/// An exact nearest-representative index for one length column: a grid
/// over the representatives' two half-means, each entry carrying four
/// segment-mean codes for the PAA lower bound, kept a row of cells to a
/// run (see the [module docs](self)).
///
/// An insert files one entry last in its cell, a centroid update moves
/// the entry to its new cell (or re-codes it in place) — there is one
/// entry per group at all times — and seeding from a base is one sort.
/// Where each group's entry sits is only ever asked by an update, so
/// that directory is built by the first one: under the `Seed` policy no
/// representative moves and a column never carries it.
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
    /// A code's unit: the first axis's cell width over [`STEPS_PER_CELL`].
    step: f64,
    /// Steps per unit of the data.
    per_step: f64,
    /// Rounding allowance of a mean per unit of vector magnitude (the
    /// `f64` sums of both sides and the arithmetic done on them), which
    /// is also the relative amount a computed `d²` and a computed bound
    /// can be out against each other.
    ulps: f64,
    /// The rows that hold an entry, by coordinate.
    rows: BTreeMap<i64, Row>,
    /// Entries filed, one per group.
    entries: usize,
    /// Whether an entry was ever filed with an [`UNBOUNDED`] code: from
    /// then on lookups bound every entry in `f64` alone.
    unbounded: bool,
    /// Per group: the cell its entry is filed in — built from `rows` by
    /// the first [`PaaGrid::update`] and kept in step from then on.
    home: Option<Vec<Cell>>,
    /// The `f32` pass's survivors in the row a lookup is visiting, with
    /// their bounds, kept between lookups.
    survivors: Vec<(usize, f32)>,
    /// The kernel level the `f32` pass runs at: the process's.
    level: KernelLevel,
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
        let width = half_roots.map(|root| radius.abs() / root);
        let step = width[0] / STEPS_PER_CELL;
        PaaGrid {
            cuts,
            weights,
            half_roots,
            width,
            step,
            per_step: 1.0 / step,
            ulps: (len as f64 + 16.0) * f64::EPSILON,
            rows: BTreeMap::new(),
            entries: 0,
            unbounded: false,
            home: None,
            survivors: Vec::new(),
            level: kernels::level(),
        }
    }

    /// The index a pass of inserts over every group of `groups`, in id
    /// order, would file — laid out by one sort, each row sized exactly.
    pub(crate) fn seeded(len: usize, radius: f64, groups: &GroupColumn) -> Self {
        let mut grid = PaaGrid::new(len, radius);
        let mut filed: Vec<(Cell, u32, [i16; SEGMENTS])> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let (cell, codes) = grid.file_noting(g.representative());
                (cell, gid(gi), codes)
            })
            .collect();
        filed.sort_unstable_by_key(|&(cell, gid, _)| (cell, gid));
        for run in filed.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            let at = run[0].0 .0;
            let mut row = Row::with_capacity(at, run.len());
            let cols: Vec<i64> = run
                .chunk_by(|a, b| a.0 .1 == b.0 .1)
                .map(|cell| cell[0].0 .1)
                .collect();
            row.cols = consecutive_or_not(&cols);
            row.ends = Vec::with_capacity(row.cols.len());
            let mut entries = run.iter().peekable();
            for &col in &row.cols {
                while let Some(&(_, gid, codes)) = entries.next_if(|e| e.0 .1 == col) {
                    row.gids.push(gid);
                    for (plane, code) in row.codes.iter_mut().zip(codes) {
                        plane.push(code);
                    }
                }
                row.ends.push(row.gids.len() as u32);
            }
            grid.rows.insert(at, row);
        }
        grid.entries = groups.len();
        grid
    }

    /// Where every group's entry sits, read off the rows.
    fn directory(&self) -> Vec<Cell> {
        let mut home = vec![(0, 0); self.entries];
        for row in self.rows.values() {
            for (at, &col) in row.cols.iter().enumerate() {
                for &gid in &row.gids[row.run(at)] {
                    home[gid as usize] = (row.at, col);
                }
            }
        }
        home
    }

    fn paa(&self, xs: &[f64]) -> Paa {
        debug_assert_eq!(xs.len(), self.cuts[SEGMENTS], "one length per column");
        let mut sums = [0.0f64; SEGMENTS];
        // A largest magnitude a segment: four short chains of `max`, not
        // one long one (`max` is exact, so the order does not matter).
        let mut peaks = [0.0f64; SEGMENTS];
        for ((sum, peak), s) in sums.iter_mut().zip(&mut peaks).zip(0..SEGMENTS) {
            for &x in &xs[self.cuts[s]..self.cuts[s + 1]] {
                *sum += x;
                *peak = peak.max(x.abs());
            }
        }
        let peak = peaks.into_iter().fold(0.0f64, f64::max);
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
        floor_to_i64(half_mean / self.width[axis])
    }

    /// The lower edge of row `row_at`, which its entries' codes count
    /// from. Worked out the same way wherever it is asked.
    fn edge(&self, row_at: i64) -> f64 {
        row_at as f64 * self.width[0]
    }

    /// The codes of a vector's four segment means in row `row_at`: each
    /// its offset from the row's edge in steps, rounded, saturated past
    /// the codes' range, and [`UNBOUNDED`] where it is not a number.
    fn encode(&self, row_at: i64, paa: &Paa) -> [i16; SEGMENTS] {
        let edge = self.edge(row_at);
        let most = f64::from(SATURATED);
        paa.means.map(|mean| {
            let steps = (mean - edge) / self.step;
            if steps.is_nan() {
                return UNBOUNDED;
            }
            // Half away from zero, then truncated: the nearest step.
            (steps + 0.5f64.copysign(steps)).clamp(-most, most) as i16
        })
    }

    /// The cell a vector with means `paa` is filed in, and its codes
    /// there.
    fn place(&self, paa: &Paa) -> (Cell, [i16; SEGMENTS]) {
        let cell = (
            self.coordinate(0, paa.halves[0]),
            self.coordinate(1, paa.halves[1]),
        );
        (cell, self.encode(cell.0, paa))
    }

    /// The cell a representative is filed in, and its codes there.
    fn file(&self, representative: &[f64]) -> (Cell, [i16; SEGMENTS]) {
        self.place(&self.paa(representative))
    }

    /// [`Self::file`], noting a code that bounds nothing.
    fn file_noting(&mut self, representative: &[f64]) -> (Cell, [i16; SEGMENTS]) {
        let filed = self.file(representative);
        self.note(filed)
    }

    /// Note a code that bounds nothing among `filed`'s.
    fn note(&mut self, filed: (Cell, [i16; SEGMENTS])) -> (Cell, [i16; SEGMENTS]) {
        self.unbounded |= filed.1.contains(&UNBOUNDED);
        filed
    }

    /// The nearest representative within `radius_sq` of `xs` (squared
    /// Euclidean, as [`onex_distance::ed::ed_early_abandon_sq`] computes
    /// it), ties broken towards the lowest group id — `None` when no
    /// representative is within the radius. `groups` is the live column
    /// the representatives are read from.
    pub fn nearest_within(
        &mut self,
        xs: &[f64],
        radius_sq: f64,
        groups: &GroupColumn,
        work: &mut IndexWork,
    ) -> Option<(usize, f64)> {
        self.lookup(xs, radius_sq, groups, work).0
    }

    /// [`Self::nearest_within`], and the [`Probe`] that
    /// [`Self::insert_probed`] files `xs` by.
    pub fn lookup(
        &mut self,
        xs: &[f64],
        radius_sq: f64,
        groups: &GroupColumn,
        work: &mut IndexWork,
    ) -> (Option<(usize, f64)>, Probe) {
        let query = self.paa(xs);
        let mut scan = self.scan(&query, xs, radius_sq, groups);
        let mut survivors = std::mem::take(&mut self.survivors);
        for (row, run) in self.visits(&query, &scan) {
            scan.run(self.edge(row.at), row, run, &mut survivors);
        }
        survivors.clear();
        self.survivors = survivors;
        work.examined += scan.examined;
        work.distance_calls += scan.examined;
        work.pruned += self.entries - scan.examined;
        (scan.best, Probe { query })
    }

    /// The rows a lookup for `query` on `scan`'s walk visits, each with
    /// the span of its entries in the lookup's interval: the cells its
    /// interval covers, or every entry of every row where the interval
    /// spans more than [`ROW_CAP`] rows or the lookup vouches for
    /// nothing.
    fn visits<'g>(
        &'g self,
        query: &Paa,
        scan: &Scan<'_>,
    ) -> impl Iterator<Item = (&'g Row, Range<usize>)> + 'g {
        let radius = scan.radius_sq.sqrt();
        let span = |axis: usize| {
            let pad = radius / self.half_roots[axis] + scan.eps;
            (
                self.coordinate(axis, query.halves[axis] - pad),
                self.coordinate(axis, query.halves[axis] + pad),
            )
        };
        let ((row_lo, row_hi), (col_lo, col_hi)) = (span(0), span(1));
        let everything =
            scan.eps.is_infinite() || i128::from(row_hi) - i128::from(row_lo) >= ROW_CAP;
        let (rows, cols) = if everything {
            (i64::MIN..=i64::MAX, None)
        } else {
            (row_lo..=row_hi, Some((col_lo, col_hi)))
        };
        self.rows.range(rows).filter_map(move |(_, row)| {
            let run = cols.map_or(0..row.len(), |(lo, hi)| row.span(lo, hi));
            (!run.is_empty()).then_some((row, run))
        })
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
        // edges of the rows they are filed in; past what a lookup vouches
        // for (or on a NaN) nothing is claimed — every cell is scanned and
        // no gap survives its slack.
        let reach = query.peak + radius_sq.sqrt();
        let eps = if reach <= STORABLE {
            self.ulps * reach + f64::from(f32::MIN_POSITIVE)
        } else {
            f64::INFINITY
        };
        let slack = HALF_STEP + eps * self.per_step;
        let per_step_sq = self.per_step * self.per_step;
        Scan {
            xs,
            groups,
            radius_sq,
            weights: self.weights,
            means: query.means,
            step: self.step,
            per_step: self.per_step,
            eps,
            slack,
            shave: 1.0 - self.ulps,
            narrow: (per_step_sq.is_normal() && !self.unbounded)
                .then(|| Narrow::new(slack, per_step_sq, &self.weights)),
            level: self.level,
            best: None,
            examined: 0,
        }
    }

    /// Register a newly seeded group: ids are issued densely from 0.
    pub fn insert(&mut self, group: usize, representative: &[f64]) {
        let filed = self.file_noting(representative);
        self.file_entry(group, filed);
    }

    /// [`Self::insert`] of the window a [`Self::lookup`] gave `probe`
    /// for: its means are not worked out again.
    pub fn insert_probed(&mut self, group: usize, probe: &Probe) {
        let filed = self.note(self.place(&probe.query));
        self.file_entry(group, filed);
    }

    fn file_entry(&mut self, group: usize, ((row, col), codes): (Cell, [i16; SEGMENTS])) {
        assert_eq!(group, self.entries, "group ids are issued densely");
        self.row_mut(row).push(col, gid(group), codes);
        if let Some(home) = &mut self.home {
            home.push((row, col));
        }
        self.entries += 1;
    }

    /// Note that a group's representative moved (centroid drift): its
    /// entry moves to the cell it now belongs in, re-coded.
    pub fn update(&mut self, group: usize, representative: &[f64]) {
        let (cell, codes) = self.file_noting(representative);
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
            for (plane, code) in row.codes.iter_mut().zip(codes) {
                plane[pos] = code;
            }
            return;
        }
        row.swap_remove(col, gid(group));
        if row.len() == 0 {
            self.rows.remove(&row_at);
        }
        self.row_mut(cell.0).push(cell.1, gid(group), codes);
    }

    /// The row at coordinate `at`, made if there is none.
    fn row_mut(&mut self, at: i64) -> &mut Row {
        self.rows
            .entry(at)
            .or_insert_with(|| Row::with_capacity(at, 0))
    }

    /// Heap bytes the index keeps, worked out from capacities (no
    /// allocator hook).
    pub fn resident_bytes(&self) -> usize {
        let rows: usize = self.rows.values().map(Row::bytes).sum();
        let home = self.home.as_ref().map_or(0, Vec::capacity);
        rows + self.rows.len() * ROW_BYTES
            + home * std::mem::size_of::<Cell>()
            + self.survivors.capacity() * std::mem::size_of::<(usize, f32)>()
    }
}

/// `ats` (ascending, distinct, each holding an entry) with every
/// coordinate between them filled in where [`filled_span`] allows it,
/// `ats` itself otherwise.
fn consecutive_or_not(ats: &[i64]) -> Vec<i64> {
    match (ats.first(), ats.last()) {
        (Some(&first), Some(&last)) => {
            filled_span(first, last, ats.len()).map_or_else(|| ats.to_vec(), Iterator::collect)
        }
        _ => Vec::new(),
    }
}

/// `x.floor() as i64` — the largest integer at most `x`, saturating at
/// the ends of `i64`, 0 for a NaN — without a call to `floor`, which the
/// baseline x86-64 target has no instruction for: the truncation, less
/// one where it rounded a negative fraction up.
fn floor_to_i64(x: f64) -> i64 {
    let truncated = x as i64;
    if truncated as f64 > x {
        truncated.saturating_sub(1)
    } else {
        truncated
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
    /// The query's segment means.
    means: [f64; SEGMENTS],
    /// A code's unit, in units of the data.
    step: f64,
    /// Steps per unit of the data.
    per_step: f64,
    /// The rounding a mean can carry (infinite past what the lookup
    /// vouches for).
    eps: f64,
    /// What a code leaves open plus `eps`, in steps.
    slack: f64,
    shave: f64,
    /// The `f32` pass, where the step and the column let it run.
    narrow: Option<Narrow>,
    /// The kernel level the pass runs at.
    level: KernelLevel,
    best: Option<(usize, f64)>,
    examined: usize,
}

impl Scan<'_> {
    fn bound_sq(&self) -> f64 {
        self.best.map_or(self.radius_sq, |(_, b)| b)
    }

    /// The query's segment means as offsets from a row's lower edge
    /// `edge`, in steps, clamped to the codes' range.
    fn offsets(&self, edge: f64) -> [f64; SEGMENTS] {
        let most = f64::from(SATURATED);
        self.means
            .map(|mean| ((mean - edge) * self.per_step).clamp(-most, most))
    }

    /// Bound the entries `run` of `row` (lower edge `edge`) in one `f32`
    /// pass against the best `d²` so far, and offer every survivor;
    /// `survivors` is the pass's scratch. A run shorter than one kernel
    /// step, or a lookup without the pass, is bounded entry by entry in
    /// `f64` alone.
    fn run(&mut self, edge: f64, row: &Row, run: Range<usize>, survivors: &mut Vec<(usize, f32)>) {
        let offsets = self.offsets(edge);
        let narrow = self.narrow.filter(|_| run.len() >= kernels::GRID_STEP);
        let Some(narrow) = narrow else {
            run.for_each(|at| self.consider(&offsets, row, at));
            return;
        };
        let bound_sq = self.bound_sq();
        let query = narrow.query(&offsets, bound_sq / self.shave);
        let sure = narrow.sure(bound_sq, self.shave);
        survivors.clear();
        kernels::grid_survivors_at(self.level, &query, row.planes(), run, survivors);
        for &(at, lower) in survivors.iter() {
            // A survivor whose `f32` bound is at or under `sure` passes the
            // `f64` test against the bound the pass ran at (see the module
            // docs); once a nearer representative tightened it, it is
            // tested again.
            if lower <= sure && self.bound_sq() == bound_sq {
                self.examine(row, at, bound_sq);
            } else {
                self.consider(&offsets, row, at);
            }
        }
    }

    /// The exact four-term bound against the best `d²` so far, then the
    /// linear scan's distance and acceptance rule, for the entry at `at`.
    fn consider(&mut self, offsets: &[f64; SEGMENTS], row: &Row, at: usize) {
        let bound_sq = self.bound_sq();
        if !self.drops(offsets, row, at, bound_sq) {
            self.examine(row, at, bound_sq);
        }
    }

    /// The linear scan's distance and acceptance rule for the entry at
    /// `at`, whose bound does not exceed `bound_sq`, the best `d²` so far.
    fn examine(&mut self, row: &Row, at: usize, bound_sq: f64) {
        self.examined += 1;
        let gid = row.gids[at] as usize;
        let d_sq = ed_early_abandon_sq(self.xs, self.groups.at(gid).representative(), bound_sq);
        if d_sq.is_finite() {
            offer(&mut self.best, self.radius_sq, gid, d_sq);
        }
    }

    /// Whether the exact `f64` four-term bound of the entry at `at`
    /// exceeds `bound_sq`, the query's `offsets` from its row's edge
    /// given.
    fn drops(&self, offsets: &[f64; SEGMENTS], row: &Row, at: usize, bound_sq: f64) -> bool {
        self.lower(offsets, row, at) * self.shave > bound_sq
    }

    /// The `f64` four-term bound of the entry at `at`, before the shave.
    fn lower(&self, offsets: &[f64; SEGMENTS], row: &Row, at: usize) -> f64 {
        let mut lower = 0.0;
        for ((&offset, plane), weight) in offsets.iter().zip(&row.codes).zip(self.weights) {
            let code = plane[at];
            if code == UNBOUNDED {
                continue;
            }
            let gap = (offset - f64::from(code)).abs() - self.slack;
            // `max` drops a NaN (∞ − ∞): no gap is claimed there.
            let gap = gap.max(0.0) * self.step;
            lower += weight * gap * gap;
        }
        lower
    }
}

/// The lookup's side of the `f32` pass, in steps, its slack widened as
/// the [module docs](self) set out.
#[derive(Clone, Copy)]
struct Narrow {
    weights: [f32; SEGMENTS],
    slack: f32,
    /// Squared steps per squared unit of the data: what turns a limit
    /// into squared steps.
    per_step_sq: f64,
    /// How far, in steps, the `f32` pass's bound can sit below the `f64`
    /// one, as a root: the most a gap can shrink (the slack's widening
    /// plus `2⁻⁷` of rounding), times the root of the summed weights.
    shortfall: f64,
}

impl Narrow {
    fn new(slack: f64, per_step_sq: f64, weights: &[f64; SEGMENTS]) -> Self {
        let narrow_slack = (slack * NARROW_MARGIN + NARROW_STEPS) as f32;
        let gap = f64::from(narrow_slack) - slack + SURE_ROUNDING;
        Narrow {
            weights: weights.map(|w| w as f32),
            slack: narrow_slack,
            per_step_sq,
            shortfall: gap * weights.iter().sum::<f64>().sqrt(),
        }
    }

    /// The largest `f32` bound whose entry surely passes the `f64` test
    /// against `bound_sq` (shaved by `shave`): the test's limit in steps,
    /// as a root less the shortfall (with `2⁻⁴⁰` of it for the `f64`
    /// arithmetic), squared, less `2⁻¹⁸` for the roundings of both sums —
    /// `−∞` where nothing is sure, `∞` against an infinite bound.
    fn sure(&self, bound_sq: f64, shave: f64) -> f32 {
        let root = (bound_sq * self.per_step_sq / shave).sqrt() * (1.0 - 4096.0 * f64::EPSILON);
        let reach = root - self.shortfall;
        if reach > 0.0 {
            (reach * reach * (1.0 - 1.0 / 262_144.0)) as f32
        } else {
            f32::NEG_INFINITY
        }
    }

    /// The pass for a row the query is `offsets` from, keeping what the
    /// `f64` test against `limit` (its `bound²/shave`) keeps, widened. A
    /// NaN bound keeps its entry.
    fn query(&self, offsets: &[f64; SEGMENTS], limit: f64) -> GridQuery {
        let limit = limit * self.per_step_sq * NARROW_MARGIN + f64::from(f32::MIN_POSITIVE);
        GridQuery {
            offsets: offsets.map(|o| o as f32),
            weights: self.weights,
            slack: self.slack,
            limit: limit as f32,
        }
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

    /// Entries one `f32` pass of the tests bounds.
    const BLOCK: usize = 64;

    /// The entries of `run` in `row` that the `f32` pass keeps against
    /// `limit`, the query's `offsets` from the row's edge given.
    fn kept_by(
        narrow: &Narrow,
        offsets: &[f64; SEGMENTS],
        row: &Row,
        run: Range<usize>,
        limit: f64,
    ) -> Vec<usize> {
        let passed = passed_by(narrow, offsets, row, run, limit);
        passed.into_iter().map(|(at, _)| at).collect()
    }

    /// [`kept_by`], each entry with its `f32` bound.
    fn passed_by(
        narrow: &Narrow,
        offsets: &[f64; SEGMENTS],
        row: &Row,
        run: Range<usize>,
        limit: f64,
    ) -> Vec<(usize, f32)> {
        let mut out = Vec::new();
        let query = narrow.query(offsets, limit);
        kernels::grid_survivors(&query, row.planes(), run, &mut out);
        out
    }

    /// Every cell that holds an entry, in the grid's order: its
    /// coordinates, its group ids and their codes.
    fn occupied(grid: &PaaGrid) -> Vec<(Cell, Vec<u32>, Vec<[i16; SEGMENTS]>)> {
        let mut cells = Vec::new();
        for row in grid.rows.values() {
            for (at, &col) in row.cols.iter().enumerate() {
                let run = row.run(at);
                if !run.is_empty() {
                    let codes = run.clone().map(|pos| row.codes.each_ref().map(|p| p[pos]));
                    cells.push(((row.at, col), row.gids[run].to_vec(), codes.collect()));
                }
            }
        }
        cells
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

    /// The rows ascend, every row's run table is in order and covers its
    /// run, and every group has exactly one entry, filed in the cell its
    /// representative belongs in. Empty rows and cells may sit between
    /// occupied ones.
    fn assert_laid_out(grid: &PaaGrid, groups: &GroupColumn) {
        let mut seen = vec![false; groups.len()];
        assert!(grid.rows.iter().all(|(&at, row)| row.at == at));
        for row in grid.rows.values() {
            let row_at = row.at;
            assert!(row.len() > 0, "row {row_at} is empty");
            assert!(row.cols.windows(2).all(|w| w[0] < w[1]), "row {row_at}");
            assert_eq!(row.cols.len(), row.ends.len(), "row {row_at}");
            assert!(row.ends.windows(2).all(|w| w[0] <= w[1]), "row {row_at}");
            assert_eq!(row.ends.last().map_or(0, |&end| end as usize), row.len());
            assert!(row.codes.iter().all(|plane| plane.len() == row.len()));
            for (at, &col) in row.cols.iter().enumerate() {
                for pos in row.run(at) {
                    let gi = row.gids[pos] as usize;
                    assert!(!std::mem::replace(&mut seen[gi], true), "group {gi} twice");
                    let (cell, codes) = grid.file(groups.at(gi).representative());
                    assert_eq!(cell, (row_at, col), "group {gi}");
                    let stored: [i16; SEGMENTS] = std::array::from_fn(|s| row.codes[s][pos]);
                    assert_eq!(stored, codes, "group {gi}");
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
        let shape = |rng: &mut Rng| rng.vec(len, scale);
        let drill = drill(len, radius, seed, centroid_rate, drift_from, shape);
        (drill.groups, drill.grid)
    }

    /// What a drill leaves: the groups, the grid kept in step with them,
    /// the work of every lookup, and how many lookups a group won whose
    /// entry had a saturated code.
    struct Drill {
        groups: GroupColumn,
        grid: PaaGrid,
        work: IndexWork,
        saturated_wins: usize,
    }

    /// The drill over windows jittered about 60 shapes that `shape` draws.
    fn drill(
        len: usize,
        radius: f64,
        seed: u64,
        centroid_rate: f64,
        drift_from: u32,
        shape: impl Fn(&mut Rng) -> Vec<f64>,
    ) -> Drill {
        let mut rng = Rng(seed);
        let mut groups = GroupColumn::new();
        let mut grid = PaaGrid::new(len, radius);
        let mut scanned = 0;
        let mut gw = IndexWork::default();
        let radius_sq = radius * radius;
        let mut updates = 0;
        let mut saturated_wins = 0;
        let shapes: Vec<Vec<f64>> = (0..60).map(|_| shape(&mut rng)).collect();
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
                    let (_, codes) = grid.file(groups.at(gi).representative());
                    saturated_wins += usize::from(codes.iter().any(|&c| saturates(c)));
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
        Drill {
            groups,
            grid,
            work: gw,
            saturated_wins,
        }
    }

    /// Whether a code stands for everything past the codes' range.
    fn saturates(code: i16) -> bool {
        code == SATURATED || code == -SATURATED
    }

    /// Entries with a saturated code, and those among them saturated on
    /// both sides.
    fn saturated_entries(grid: &PaaGrid) -> (usize, usize) {
        let (mut any, mut both) = (0, 0);
        for row in grid.rows.values() {
            for at in 0..row.len() {
                let codes = row.codes.each_ref().map(|plane| plane[at]);
                any += usize::from(codes.iter().any(|&c| saturates(c)));
                both += usize::from(codes.contains(&SATURATED) && codes.contains(&-SATURATED));
            }
        }
        (any, both)
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
    fn grid_matches_linear_where_codes_saturate() {
        // Ramps up to far steeper than the radius, at ST 0.01 and at
        // offsets where a mean resolves coarsely: most windows' quarter
        // means lie further from their row's edge than a code reaches
        // (±128 cell widths), the steepest on both sides of it. Saturated
        // entries win lookups, and every lookup is still the linear
        // scan's.
        let len = 16;
        for (offset, st, slope, centroid_rate) in [
            (0.0, 0.01, 0.3, 0.0),
            (0.0, 0.01, 0.3, 0.6),
            (1e6, 0.01, 0.3, 0.3),
            (1e12, 1.0, 30.0, 0.3),
        ] {
            let radius = st / 2.0 * (len as f64).sqrt();
            let shape = |rng: &mut Rng| -> Vec<f64> {
                let steep = slope * 2.0 * rng.next();
                let noise = rng.vec(len, 20.0 * radius);
                let ramp = noise.iter().enumerate();
                ramp.map(|(i, v)| offset + steep * i as f64 + v).collect()
            };
            let drill = drill(len, radius, 11, centroid_rate, 0, shape);
            let (any, both) = saturated_entries(&drill.grid);
            let entries = drill.grid.entries;
            println!(
                "offset {offset}, ST {st}, slope {slope}: {any} of {entries} entries saturate \
                 ({both} on both sides), {} of 600 lookups won by one, {} distance calls",
                drill.saturated_wins, drill.work.distance_calls
            );
            assert!(
                any * 4 > entries && both * 10 > entries,
                "{any} / {both} of {entries}"
            );
            assert!(drill.saturated_wins > 20, "{} wins", drill.saturated_wins);
        }
    }

    /// Spans a lookup visits that are shorter than one kernel step, one
    /// step long, and longer.
    type Spans = [usize; 3];

    /// A lookup drill on a column that compacts: eight families of
    /// shapes, each family's members sharing their half-means (one cell,
    /// one row) and told apart inside the halves by far more than the
    /// radius, families of 1 to 12 members, and windows shifted off a
    /// member a constant a quarter (where the PAA bound is the distance)
    /// — a quarter of them onto the rim of the radius — some with noise on
    /// top. Rows hold a few to a dozen entries, so the spans a lookup
    /// bounds fall below, at and above one kernel step. Every lookup, at
    /// kernel level `level`, must be the linear scan's, winner and `d²`
    /// bits; admissions move a member's mean under `Centroid`
    /// (`centroid`). Returns the spans visited and the groups made.
    fn compacting_drill(level: KernelLevel, centroid: bool, seed: u64) -> (Spans, usize) {
        let (len, radius) = (16, 1.0f64);
        let radius_sq = radius * radius;
        let mut rng = Rng(seed);
        let mut shapes: Vec<Vec<f64>> = Vec::new();
        for (family, members) in [1, 3, 5, 7, 8, 8, 10, 12].into_iter().enumerate() {
            let halves = [family as f64 * 10.0, 0.5 * family as f64];
            for _ in 0..members {
                // Zero-mean in each half: the half-means are the family's.
                let mut values = rng.vec(len, 6.0);
                for (half, mean) in halves.iter().enumerate() {
                    let part = &mut values[half * len / 2..(half + 1) * len / 2];
                    let off = mean - part.iter().sum::<f64>() / part.len() as f64;
                    part.iter_mut().for_each(|v| *v += off);
                }
                shapes.push(values);
            }
        }
        let mut groups = GroupColumn::new();
        let mut grid = PaaGrid::new(len, radius);
        grid.level = level;
        let mut spans: Spans = [0; 3];
        // Every shape first, as it is: each seeds a group of its own.
        for step in 0..shapes.len() + 1500 {
            let shape = &shapes[step
                .checked_sub(shapes.len())
                .map_or(step, |_| (rng.next() * shapes.len() as f64) as usize)];
            let mut shifts: Vec<f64> = rng.vec(SEGMENTS, 0.4);
            if step < shapes.len() {
                shifts.fill(0.0);
            } else if step % 4 == 0 {
                // On the rim: the shifts scaled to a distance a hair
                // inside the radius.
                let norm = (shifts.iter().map(|d| d * d).sum::<f64>() * 4.0).sqrt();
                shifts
                    .iter_mut()
                    .for_each(|d| *d *= radius * (1.0 - 1e-6) / norm);
            }
            let noise = if step % 4 == 1 && step >= shapes.len() {
                0.02
            } else {
                0.0
            };
            let xs: Vec<f64> = (0..len)
                .map(|i| shape[i] + shifts[i / 4] + noise * (rng.next() - 0.5))
                .collect();
            let query = grid.paa(&xs);
            let scan = grid.scan(&query, &xs, radius_sq, &groups);
            for (_, run) in grid.visits(&query, &scan) {
                spans[(run.len().cmp(&kernels::GRID_STEP) as i8 + 1) as usize] += 1;
            }
            let mut work = IndexWork::default();
            let want = linear_scan(&xs, radius_sq, &groups);
            let got = grid.nearest_within(&xs, radius_sq, &groups, &mut work);
            let bits = |found: Option<(usize, f64)>| found.map(|(gi, d_sq)| (gi, d_sq.to_bits()));
            assert_eq!(bits(got), bits(want), "{level:?}, step {step}");
            assert_eq!(work.examined + work.pruned, groups.len(), "step {step}");
            match want {
                Some((gi, d_sq)) => {
                    let member = SubseqRef::new(1, step as u32, len as u32);
                    groups.admit(gi, member, &xs, d_sq.sqrt(), centroid);
                    if centroid {
                        grid.update(gi, groups.at(gi).representative());
                    }
                }
                None => {
                    groups.push_owned(first(&xs), &xs);
                    grid.insert(groups.len() - 1, &xs);
                }
            }
        }
        assert_laid_out(&grid, &groups);
        (spans, groups.len())
    }

    #[test]
    fn compacting_columns_look_up_what_a_linear_scan_finds_at_every_kernel_level() {
        for level in KernelLevel::available() {
            for (centroid, seed) in [(false, 3), (true, 4), (false, 5), (true, 6)] {
                let (spans, groups) = compacting_drill(level, centroid, seed);
                println!("{level:?}, centroid {centroid}: {groups} groups, spans {spans:?}");
                assert!(
                    groups < 200,
                    "{groups} groups: the column stopped compacting"
                );
                assert!(
                    spans.iter().all(|&visits| visits > 100),
                    "spans below, at and above one step: {spans:?}"
                );
            }
        }
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
        let tables = frozen.rows.len() * ROW_BYTES;
        let survivors = frozen.survivors.capacity() * std::mem::size_of::<(usize, f32)>();
        assert_eq!(frozen.resident_bytes(), rows + tables + survivors);
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
        assert!(late.resident_bytes() >= late.entries * (12 + 16));
    }

    #[test]
    fn seeded_index_equals_incremental_inserts() {
        // An index kept in step through inserts and drifting centroids
        // answers as one seeded from the groups it ended up with does.
        let (groups, mut kept) = equivalence_drill(10, 6.0, 2.0, 5, 0.8);
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
            assert_laid_out(&inserted, &groups);
            assert!(seeded.rows.len() > 2);
            assert_eq!(occupied(&seeded), occupied(&inserted));
            for row in seeded.rows.values() {
                // Sized exactly: nothing to spare until the first insert.
                assert_eq!(row.gids.capacity(), row.len());
            }
        }
    }

    #[test]
    fn the_f32_pass_never_drops_what_the_f64_bound_keeps() {
        // Entries around the query at every scale and past what a lookup
        // vouches for, and ramps whose quarter means lie far from their
        // row's edge — up to past the codes' range, on both sides of it —
        // bounded against radii from nothing to everything: an entry the
        // `f32` pass drops, the exact bound must drop too.
        let mut rng = Rng(41);
        let (mut narrowed, mut dropped, mut exact_drops) = (0, 0, 0);
        let mut saturated = (0, 0);
        for (offset, scale, slope) in [
            (0.0, 10.0, 0.0),
            (100.0, 10.0, 0.0),
            (0.0, 1e-30, 0.0),
            (0.0, 1e-39, 0.0),
            (1e6, 1.0, 0.0),
            (-1e12, 1e-3, 0.0),
            (1e15, 10.0, 0.0),
            (3.9e18, 1e3, 0.0),
            (4.1e18, 1e3, 0.0),
            (1e30, 1e20, 0.0),
            (0.0, 0.01, 4.0),
            (1e6, 0.01, 4.0),
            (1e12, 1.0, 400.0),
            (0.0, 0.05, 0.45),
            (-1e3, 0.05, -0.45),
        ] {
            let len = 9;
            let near = |rng: &mut Rng, spread: f64| -> Vec<f64> {
                let noise = rng.vec(len, spread);
                let ramp = noise.iter().enumerate();
                ramp.map(|(i, v)| offset + slope * i as f64 + v).collect()
            };
            let groups = column((0..300).map(|i| near(&mut rng, scale * (1 + i % 5) as f64)));
            let grid = PaaGrid::seeded(len, scale, &groups);
            if slope > 0.0 {
                let (any, both) = saturated_entries(&grid);
                saturated = (saturated.0 + any, saturated.1 + both);
            }
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
                            let offsets = scan.offsets(grid.edge(row.at));
                            for start in (0..row.len()).step_by(BLOCK) {
                                let block = start..row.len().min(start + BLOCK);
                                let limit = bound_sq / scan.shave;
                                let kept = kept_by(narrow, &offsets, row, block.clone(), limit);
                                for at in block.clone() {
                                    let exact = scan.drops(&offsets, row, at, bound_sq);
                                    let narrow_drops = !kept.contains(&at);
                                    if scale == 10.0 {
                                        exact_drops += usize::from(exact);
                                        dropped += usize::from(narrow_drops);
                                    }
                                    if narrow_drops {
                                        assert!(exact, "offset {offset}, scale {scale}, slope {slope}, radius {radius}, bound {bound_sq}, entry {at}");
                                    }
                                }
                                if bound_sq > 0.0 {
                                    continue;
                                }
                                // At the tightest bound the exact test
                                // keeps an entry at, the pass keeps it.
                                for at in block.clone() {
                                    let tight = scan.lower(&offsets, row, at) * scan.shave;
                                    let limit = tight / scan.shave;
                                    let kept = kept_by(narrow, &offsets, row, block.clone(), limit);
                                    assert!(!scan.drops(&offsets, row, at, tight));
                                    assert!(
                                        kept.contains(&at),
                                        "offset {offset}, scale {scale}, slope {slope}, entry {at} at its own bound {tight}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(narrowed > 500, "{narrowed} lookups ran the f32 pass");
        // The ramps filed entries whose codes saturate, on both sides.
        assert!(saturated.0 > 600 && saturated.1 > 300, "{saturated:?}");
        // And at ordinary magnitudes the pass is worth running: it drops
        // nearly all the exact bound does. (Where the spread is far below
        // the offset it drops less and the exact bound does the rest.)
        assert!(
            dropped * 1000 > exact_drops * 999,
            "f32 dropped {dropped} of {exact_drops}"
        );
    }

    #[test]
    fn an_entry_the_f32_pass_calls_sure_passes_the_f64_bound() {
        // The scales and ramps of the test above, against radii from
        // nothing to everything and against each entry's own exact bound,
        // a hair above and a hair below it: an entry whose `f32` bound is
        // at or under `sure`, the exact bound keeps — and at ordinary
        // magnitudes nearly every entry the exact bound keeps is sure.
        let mut rng = Rng(43);
        let (mut sure_kept, mut exact_kept) = (0, 0);
        for (offset, scale, slope) in [
            (0.0, 10.0, 0.0),
            (100.0, 10.0, 0.0),
            (0.0, 1e-30, 0.0),
            (1e6, 1.0, 0.0),
            (-1e12, 1e-3, 0.0),
            (3.9e18, 1e3, 0.0),
            (1e30, 1e20, 0.0),
            (0.0, 0.01, 4.0),
            (1e12, 1.0, 400.0),
            (0.0, 0.05, 0.45),
            (-1e3, 0.05, -0.45),
        ] {
            let len = 9;
            let near = |rng: &mut Rng, spread: f64| -> Vec<f64> {
                let noise = rng.vec(len, spread);
                let ramp = noise.iter().enumerate();
                ramp.map(|(i, v)| offset + slope * i as f64 + v).collect()
            };
            let groups = column((0..200).map(|i| near(&mut rng, scale * (1 + i % 5) as f64)));
            let grid = PaaGrid::seeded(len, scale, &groups);
            for _ in 0..12 {
                let xs = near(&mut rng, scale);
                let query = grid.paa(&xs);
                for radius in [0.0, scale * 1e-3, scale * 0.5, scale, scale * 3.0] {
                    let scan = grid.scan(&query, &xs, radius * radius, &groups);
                    let Some(narrow) = &scan.narrow else {
                        continue;
                    };
                    for row in grid.rows.values() {
                        let offsets = scan.offsets(grid.edge(row.at));
                        let own = |at| scan.lower(&offsets, row, at) * scan.shave;
                        let tight = (0..row.len()).flat_map(|at| {
                            let own = own(at);
                            [own, own * (1.0 + 1e-12), own * (1.0 - 1e-12)]
                        });
                        let bounds = [radius * radius, radius * radius / 4.0, 0.0, f64::INFINITY];
                        for bound_sq in bounds.into_iter().chain(tight) {
                            let limit = bound_sq / scan.shave;
                            let sure = narrow.sure(bound_sq, scan.shave);
                            for (at, lower) in passed_by(narrow, &offsets, row, 0..row.len(), limit)
                            {
                                let exact = !scan.drops(&offsets, row, at, bound_sq);
                                if lower <= sure {
                                    assert!(exact, "offset {offset}, scale {scale}, slope {slope}, bound {bound_sq}, entry {at}: f32 {lower} <= sure {sure}");
                                }
                                if scale == 10.0 && bound_sq == radius * radius {
                                    exact_kept += usize::from(exact);
                                    sure_kept += usize::from(lower <= sure);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            sure_kept * 100 > exact_kept * 99 && exact_kept > 1000,
            "sure for {sure_kept} of {exact_kept}"
        );
    }

    #[test]
    fn the_f32_pass_keeps_an_entry_a_hair_past_what_its_code_leaves_open() {
        // One segment's offset a hair past the slack from its code, 12 k
        // to 31 k steps from the row's edge, where an `f32` offset is
        // coarsest: the exact bound is tiny, and the pass must not round
        // it past its limit (its own slack's widening is what stops it).
        let (len, radius) = (8, 0.05);
        let mut rng = Rng(5);
        let mut checked = 0;
        for slope in [0.4, 0.45, 0.5, 0.55, 0.6, -0.5] {
            let rep: Vec<f64> = (0..len)
                .map(|i| slope * i as f64 + 0.01 * rng.next())
                .collect();
            let groups = column([&rep]);
            let grid = PaaGrid::seeded(len, radius, &groups);
            let ((row_at, _), codes) = grid.file(&rep);
            assert!(codes.iter().all(|&c| !saturates(c)), "{codes:?}");
            let row = &grid.rows[&row_at];
            let edge = grid.edge(row_at);
            let means = grid.paa(&rep).means;
            let slack = grid
                .scan(&grid.paa(&rep), &rep, radius * radius, &groups)
                .slack;
            for hair in [1e-6, 1e-5, 1e-4, 3e-4, 1e-3] {
                for (s, side) in [(2, 1.0), (3, 1.0), (2, -1.0), (3, -1.0)] {
                    let steps = f64::from(codes[s]) + side * (slack + hair);
                    let shift = edge + steps * grid.step - means[s];
                    let mut xs = rep.clone();
                    xs[grid.cuts[s]..grid.cuts[s + 1]]
                        .iter_mut()
                        .for_each(|x| *x += shift);
                    let query = grid.paa(&xs);
                    let scan = grid.scan(&query, &xs, radius * radius, &groups);
                    let offsets = scan.offsets(edge);
                    let tight = scan.lower(&offsets, row, 0) * scan.shave;
                    assert!(!scan.drops(&offsets, row, 0, tight));
                    let narrow = scan.narrow.expect("the pass runs here");
                    let limit = tight / scan.shave;
                    let kept = kept_by(&narrow, &offsets, row, 0..1, limit);
                    assert_eq!(kept, [0], "slope {slope}, segment {s}, hair {hair}");
                    checked += usize::from(tight > 0.0);
                }
            }
        }
        assert!(checked > 100, "{checked} entries had a bound above nothing");
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
    fn a_walks_cells_are_found_by_their_offset() {
        // Random walks fill a band of cells in each row: seeded or filed
        // one insert at a time, every row's run table holds each column
        // from its first to its last, so no row visit searches.
        let ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 24,
            len: 128,
            seed: 7,
        });
        let (len, radius) = (16, 2.0);
        let groups = column((0..ds.len()).flat_map(|sid| {
            let values = ds.series(sid as u32).expect("series").values().to_vec();
            (0..=values.len() - len)
                .step_by(3)
                .map(move |start| values[start..start + len].to_vec())
        }));
        let seeded = PaaGrid::seeded(len, radius, &groups);
        let mut inserted = PaaGrid::new(len, radius);
        for (gi, g) in groups.iter().enumerate() {
            inserted.insert(gi, g.representative());
        }
        for grid in [&seeded, &inserted] {
            assert_laid_out(grid, &groups);
            assert!(grid.rows.len() > 10, "{} rows", grid.rows.len());
            let searched = grid.rows.values().filter(|row| !row.consecutive());
            let searched: Vec<_> = searched.map(|row| (row.at, &row.cols)).collect();
            assert!(searched.is_empty(), "{searched:?}");
        }
        assert_eq!(occupied(&seeded), occupied(&inserted));
    }

    #[test]
    fn the_floor_without_a_call_is_the_floor() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.0 - f64::EPSILON,
            2.5e-300,
            -2.5e-300,
            4_503_599_627_370_495.5,
            -4_503_599_627_370_495.5,
            9.223_372_036_854_775e18,
            -9.223_372_036_854_775e18,
            9.3e18,
            -9.3e18,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = Rng(3);
        let random = (0..10_000).map(|i| (rng.next() - 0.5) * 10f64.powi(i % 40 - 10));
        for x in edges.into_iter().chain(random) {
            assert_eq!(floor_to_i64(x), x.floor() as i64, "{x}");
        }
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
