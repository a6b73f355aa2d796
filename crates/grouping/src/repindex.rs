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
//! query's largest magnitude plus the radius bounds both sides' errors,
//! and one slack per lookup covers every entry that could win; an entry
//! it does not cover is too far away to. The finished bound is shaved by
//! the few `ulp`s a computed `d²` can fall below the true one. Past the
//! magnitudes an `f32` holds nothing is claimed: the lookup scans every
//! cell and no gap survives its slack (a NaN difference never does).
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
//! and then kept in step with every admission — so that a writer which
//! keeps it alive between extensions pays per appended window, not per
//! existing group.

use std::collections::BTreeMap;

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
/// What a cell costs in the map beside its entries: its key, its vector
/// header and its share of a B-tree node (eleven cells to a full leaf,
/// about two thirds full, plus the inner nodes above them).
const CELL_BYTES: usize = 64;
/// Relative error a mean can carry from being stored as `f32` (one unit
/// in the last place — twice round-to-nearest's worst case).
const F32_ULP: f64 = f32::EPSILON as f64;
/// Largest magnitude a lookup vouches for: every mean it could meet fits
/// an `f32` (and no sum of them leaves `f64`) with room to spare.
const STORABLE: f64 = f32::MAX as f64 / 2.0;

/// One indexed representative: its group and its four segment means. It
/// holds no pointer — the values are read from the builder's group list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    gid: u32,
    means: [f32; SEGMENTS],
}

/// Grid coordinates: the two half-means in units of the cell width.
type Cell = (i64, i64);

/// What the grid needs of a vector: segment means, the half-means that
/// place it, and its largest magnitude (the scale of the sums' rounding).
struct Paa {
    means: [f64; SEGMENTS],
    halves: [f64; 2],
    peak: f64,
}

/// An exact nearest-representative index for one length column: a grid
/// over the representatives' two half-means, each entry carrying four
/// segment means for the PAA lower bound (see the [module docs](self)).
///
/// An insert is one push, a centroid update moves the entry to its new
/// cell — there is one entry per group at all times — and seeding from
/// a base is one pass of inserts. Where each group's entry sits is only
/// ever asked by an update, so that directory is built by the first one:
/// under the `Seed` policy no representative moves and a column never
/// carries it.
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
    cells: BTreeMap<Cell, Vec<Entry>>,
    /// Entries filed, one per group.
    entries: usize,
    /// Per group: the cell its entry is filed in and the slot there —
    /// built from `cells` by the first [`PaaGrid::update`] and
    /// kept in step from then on.
    home: Option<Vec<(Cell, u32)>>,
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
            cells: BTreeMap::new(),
            entries: 0,
            home: None,
        }
    }

    /// Where every group's entry sits, read off the cells.
    fn directory(&self) -> Vec<(Cell, u32)> {
        let mut home = vec![((0, 0), 0); self.entries];
        for (&cell, entries) in &self.cells {
            for (slot, entry) in entries.iter().enumerate() {
                home[entry.gid as usize] = (cell, slot as u32);
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

    fn file(&self, group: usize, representative: &[f64]) -> (Cell, Entry) {
        let paa = self.paa(representative);
        let cell = (
            self.coordinate(0, paa.halves[0]),
            self.coordinate(1, paa.halves[1]),
        );
        let entry = Entry {
            gid: u32::try_from(group).expect("group ids fit the index's 32 bits"),
            means: paa.means.map(|m| m as f32),
        };
        (cell, entry)
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
        let radius = radius_sq.sqrt();
        // A representative within the radius has every value within it of
        // the query's, so this magnitude bounds both sides' sums and the
        // stored means; past what those hold (or on a NaN) nothing is
        // claimed — every cell is scanned and no gap survives its slack.
        let reach = query.peak + radius;
        let vouched = reach <= STORABLE;
        let eps = if vouched {
            self.ulps * reach + f64::from(f32::MIN_POSITIVE)
        } else {
            f64::INFINITY
        };
        let slack = eps + F32_ULP * reach;
        let shave = 1.0 - self.ulps;
        let mut best: Option<(usize, f64)> = None;
        let mut examined = 0usize;
        let mut scan = |entries: &[Entry]| {
            for entry in entries {
                let bound_sq = best.map_or(radius_sq, |(_, b)| b);
                let mut lower = 0.0;
                for s in 0..SEGMENTS {
                    let gap = (query.means[s] - f64::from(entry.means[s])).abs() - slack;
                    // `max` drops a NaN (∞ − ∞): no gap is claimed there.
                    let gap = gap.max(0.0);
                    lower += self.weights[s] * gap * gap;
                }
                if lower * shave > bound_sq {
                    continue;
                }
                examined += 1;
                let gid = entry.gid as usize;
                let d_sq = ed_early_abandon_sq(xs, groups.at(gid).representative(), bound_sq);
                if d_sq.is_finite() {
                    offer(&mut best, radius_sq, gid, d_sq);
                }
            }
        };
        let span = |axis: usize| {
            let pad = radius / self.half_roots[axis] + eps;
            (
                self.coordinate(axis, query.halves[axis] - pad),
                self.coordinate(axis, query.halves[axis] + pad),
            )
        };
        let ((row_lo, row_hi), (col_lo, col_hi)) = (span(0), span(1));
        if !vouched || i128::from(row_hi) - i128::from(row_lo) >= ROW_CAP {
            self.cells.values().for_each(|entries| scan(entries));
        } else {
            for row in row_lo..=row_hi {
                self.cells
                    .range((row, col_lo)..=(row, col_hi))
                    .for_each(|(_, entries)| scan(entries));
            }
        }
        work.examined += examined;
        work.distance_calls += examined;
        work.pruned += self.entries - examined;
        best
    }

    /// Register a newly seeded group: ids are issued densely from 0.
    pub fn insert(&mut self, group: usize, representative: &[f64]) {
        assert_eq!(group, self.entries, "group ids are issued densely");
        let (cell, entry) = self.file(group, representative);
        let entries = self.cells.entry(cell).or_default();
        if let Some(home) = &mut self.home {
            home.push((cell, entries.len() as u32));
        }
        entries.push(entry);
        self.entries += 1;
    }

    /// Note that a group's representative moved (centroid drift): its
    /// entry moves to the cell it now belongs in.
    pub fn update(&mut self, group: usize, representative: &[f64]) {
        let (cell, entry) = self.file(group, representative);
        if self.home.is_none() {
            self.home = Some(self.directory());
        }
        let home = self.home.as_mut().expect("built above");
        let (old, slot) = home[group];
        let entries = self
            .cells
            .get_mut(&old)
            .expect("a group's home cell exists");
        if old == cell {
            entries[slot as usize] = entry;
            return;
        }
        entries.swap_remove(slot as usize);
        if let Some(moved) = entries.get(slot as usize) {
            home[moved.gid as usize].1 = slot;
        } else if entries.is_empty() {
            self.cells.remove(&old);
        }
        let entries = self.cells.entry(cell).or_default();
        home[group] = (cell, entries.len() as u32);
        entries.push(entry);
    }

    /// Heap bytes the index keeps, worked out from capacities (no
    /// allocator hook).
    pub fn resident_bytes(&self) -> usize {
        let filed = self.cells.values().map(Vec::capacity).sum::<usize>();
        let home = self.home.as_ref().map_or(0, Vec::capacity);
        filed * std::mem::size_of::<Entry>()
            + self.cells.len() * CELL_BYTES
            + home * std::mem::size_of::<(Cell, u32)>()
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

    /// The grid for length `len` (admission radius `radius`), mirroring
    /// `groups`: the resident column when it holds an entry for exactly
    /// these groups, one freshly seeded from them — a pass of inserts —
    /// otherwise.
    pub(crate) fn column(&mut self, len: usize, radius: f64, groups: &GroupColumn) -> &mut PaaGrid {
        let resident = self.columns.get(&len);
        if resident.is_none_or(|grid| grid.entries != groups.len()) {
            let mut grid = PaaGrid::new(len, radius);
            for (gi, g) in groups.iter().enumerate() {
                grid.insert(gi, g.representative());
            }
            self.seeds += 1;
            self.columns.insert(len, grid);
        }
        self.columns
            .get_mut(&len)
            .expect("the column was found or just seeded")
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
        grid.cells.values().map(Vec::len).sum()
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
        assert_eq!(home, &grid.directory(), "kept in step with the cells");
        assert!(grid.cells.values().all(|entries| !entries.is_empty()));
        for (gi, g) in groups.iter().enumerate() {
            let (cell, slot) = home[gi];
            assert_eq!(grid.cells[&cell][slot as usize].gid as usize, gi);
            assert_eq!(grid.file(gi, g.representative()).0, cell, "group {gi}");
        }
    }

    #[test]
    fn the_directory_is_built_by_the_first_update_however_late_it_comes() {
        // Frozen representatives never ask where an entry sits: no
        // directory, and a third of the bytes.
        let (groups, frozen) = equivalence_drill(16, 8.0, 1.0, 7, 0.0);
        assert!(frozen.home.is_none());
        assert_eq!(frozen.entries, groups.len());
        let filed: usize = frozen.cells.values().map(Vec::capacity).sum();
        assert_eq!(
            frozen.resident_bytes(),
            filed * std::mem::size_of::<Entry>() + frozen.cells.len() * CELL_BYTES
        );
        // Three hundred inserts and frozen admissions, then drift: the
        // first update walks the cells once, and from there on the
        // directory is the one an index updated from the start keeps (the
        // drill checks every answer against the linear scan either way).
        let (groups, late) = equivalence_drill_from(8, 12.0, 4.0, 21, 1.0, 300);
        let home = late.home.as_ref().expect("built at step 300");
        assert_eq!(home, &late.directory());
        assert_eq!(home.len(), groups.len());
        for (gi, g) in groups.iter().enumerate() {
            let (cell, slot) = home[gi];
            assert_eq!(late.cells[&cell][slot as usize].gid as usize, gi);
            assert_eq!(late.file(gi, g.representative()).0, cell, "group {gi}");
        }
        assert!(late.resident_bytes() >= late.entries * (20 + 24));
    }

    #[test]
    fn seeded_index_equals_incremental_inserts() {
        // An index kept in step through inserts and drifting centroids
        // answers as one seeded from the groups it ended up with does.
        let (groups, kept) = equivalence_drill(10, 6.0, 2.0, 5, 0.8);
        let mut resident = ResidentIndex::new();
        let seeded = resident.column(10, 2.0, &groups);
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
        let index = resident.column(8, 1.0, &groups);
        assert_eq!(index.nearest_within(&q, 1e9, &groups, &mut work), want);
        assert_eq!(
            (resident.kind(), resident.entries(), resident.seeds()),
            ("grid", 40, 1)
        );

        // The builder seeds a group and keeps the index in step: the next
        // extension finds the column resident.
        let before = groups.clone();
        groups.push_owned(first(&q), &q);
        resident
            .column(8, 1.0, &before)
            .insert(40, groups.at(40).representative());
        let index = resident.column(8, 1.0, &groups);
        assert_eq!(
            index.nearest_within(&q, 1e-9, &groups, &mut work),
            Some((40, 0.0))
        );
        assert_eq!(resident.seeds(), 1, "a resident column is not rebuilt");

        // A column of another size is not the one this index mirrors.
        let fewer = column(groups.iter().take(7).map(|g| g.representative()));
        resident.column(8, 1.0, &fewer);
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
