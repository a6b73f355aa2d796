//! Dynamic Time Warping.
//!
//! The expensive half of the ONEX marriage (paper §1, challenge 2): DTW
//! aligns sequences of different lengths and phases but costs O(n·m). ONEX
//! pays that cost only against the compact base, and even there abandons
//! early. Five entry points, cheapest machinery first:
//!
//! * [`dtw_sq`] / [`dtw`] — two-row DP, optional Sakoe–Chiba band.
//! * [`dtw_early_abandon_sq_with_cb`] — the same DP that gives up as soon
//!   as the best reachable cell already exceeds a known squared upper
//!   bound, folding in an optional cumulative lower-bound tail (the UCR
//!   Suite variant).
//! * [`dtw_early_abandon_sq_scratch`] — the same DP on a caller-kept
//!   [`DtwScratch`], for scans that run one DTW per candidate, re-reading
//!   an optional live bound after every row.
//! * [`crate::kernels::dtw_lanes`] — the same DP for four equal-length
//!   candidates at once, one per vector lane, bit for bit.
//! * [`dtw_with_path`] — full-matrix variant that recovers the warping
//!   path for visualisation.

use crate::kernels::AHEAD;
use crate::path::WarpingPath;

/// Warping window constraint.
///
/// ONEX explores with unconstrained DTW (its accuracy edge in experiment
/// E6 comes precisely from *not* constraining the warp), while the UCR
/// Suite baseline uses a Sakoe–Chiba band. Both live behind this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// No constraint: every alignment is admissible.
    Full,
    /// Sakoe–Chiba band of the given radius: cells with `|i − j| > r` are
    /// forbidden. For unequal lengths the radius is widened to at least
    /// `|n − m|` so an admissible path always exists.
    SakoeChiba(usize),
    /// The classic Itakura parallelogram with maximum slope 2: the path
    /// may locally run at most twice as fast (or half as fast) in one
    /// sequence as in the other, measured from both endpoints. Unlike the
    /// Sakoe–Chiba band it pinches at the endpoints and is widest in the
    /// middle. For very different lengths (length ratio at or above 2,
    /// where the discrete region pinches shut under the standard step
    /// pattern) no path exists and DTW is `∞`.
    Itakura,
}

impl Band {
    /// Effective radius for sequences of lengths `n` and `m` — the
    /// largest `|i − j|` any admissible cell may have. Envelope-based
    /// lower bounds must be built with at least this radius to stay sound.
    #[inline]
    pub fn radius(&self, n: usize, m: usize) -> usize {
        match *self {
            Band::Full => n.max(m),
            Band::SakoeChiba(r) => r.max(n.abs_diff(m)),
            // The parallelogram reaches |i−j| up to ~max(n,m)/3 for equal
            // lengths, more when lengths differ; the loose global bound is
            // always sound.
            Band::Itakura => n.max(m),
        }
    }

    /// A band of radius `⌈fraction · n⌉` for a query of length `n` — the
    /// conventional "5% warping window" parameterisation.
    pub fn from_fraction(n: usize, fraction: f64) -> Band {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "band fraction out of range"
        );
        Band::SakoeChiba((fraction * n as f64).ceil() as usize)
    }

    /// Admissible column range (1-based, inclusive) for DP row `i`
    /// (1-based) over sequences of lengths `n` (rows) and `m` (columns).
    /// An empty range (`lo > hi`) means the row is entirely forbidden.
    #[inline]
    pub fn row_range(&self, i: usize, n: usize, m: usize) -> (usize, usize) {
        match *self {
            Band::Full => (1, m),
            Band::SakoeChiba(_) => {
                let w = self.radius(n, m);
                (i.saturating_sub(w).max(1), (i + w).min(m))
            }
            Band::Itakura => {
                // Slope-2 constraints measured from (1,1) and (n,m):
                //   forward:  (i−1)/2 ≤ j−1 ≤ 2(i−1)
                //   backward: (n−i)/2 ≤ m−j ≤ 2(n−i)
                let fwd_lo = (i - 1).div_ceil(2) + 1;
                let fwd_hi = 2 * (i - 1) + 1;
                let back_lo = m.saturating_sub(2 * (n - i));
                let back_hi = m.saturating_sub((n - i).div_ceil(2));
                (fwd_lo.max(back_lo).max(1), fwd_hi.min(back_hi).min(m))
            }
        }
    }
}

/// Squared DTW distance between `x` (rows) and `y` (columns).
///
/// ```
/// use onex_distance::{dtw_sq, Band};
/// // A shifted impulse aligns perfectly under warping…
/// let a = [0.0, 0.0, 1.0, 0.0];
/// let b = [0.0, 1.0, 0.0, 0.0];
/// assert_eq!(dtw_sq(&a, &b, Band::Full), 0.0);
/// // …but not within a zero-radius band (which equals squared ED).
/// assert_eq!(dtw_sq(&a, &b, Band::SakoeChiba(0)), 2.0);
/// ```
///
/// # Panics
/// Panics when either input is empty; ONEX's minimum subsequence length
/// is 2, so an empty operand is a caller bug.
pub fn dtw_sq(x: &[f64], y: &[f64], band: Band) -> f64 {
    dtw_early_abandon_sq_with_cb(x, y, band, f64::INFINITY, None)
}

/// DTW distance `√(dtw_sq)`.
pub fn dtw(x: &[f64], y: &[f64], band: Band) -> f64 {
    dtw_sq(x, y, band).sqrt()
}

/// Early-abandoning DTW: the squared distance, or `f64::INFINITY` once
/// no alignment can beat `ub_sq`, with an optional cumulative bound `cb`.
///
/// `cb`, when provided, must satisfy `cb.len() == x.len() + 1`, `cb[n] = 0`
/// and `cb[i] ≥ cb[i+1]`, with `cb[i]` a lower bound on the squared cost
/// still to be paid by positions `i..n` of either sequence (the UCR Suite
/// derives it from LB_Keogh's per-position contributions, which are
/// candidate-indexed for the EQ variant and query-indexed for EC). After
/// finishing row `i`, the algorithm abandons when
/// `min(row) + cb[max(i, band reach)] > ub_sq` — the band-reach offset
/// keeps the test sound for both indexings while still firing much
/// earlier than the plain row minimum.
///
/// # Panics
/// Panics when either input is empty or `cb` has the wrong length.
pub fn dtw_early_abandon_sq_with_cb(
    x: &[f64],
    y: &[f64],
    band: Band,
    ub_sq: f64,
    cb: Option<&[f64]>,
) -> f64 {
    dtw_early_abandon_sq_scratch(x, y, band, ub_sq, cb, None, &mut DtwScratch::default())
}

/// The DP's working rows, reusable across calls: two rows over columns
/// `0..=m` (column 0 is the virtual "before y" edge) and the 4-wide rows
/// of the lane kernel ([`crate::kernels::dtw_lanes`]), plus a count of
/// the DP cells computed on them.
#[derive(Debug, Default)]
pub struct DtwScratch {
    rows: [Vec<f64>; 2],
    lanes: Vec<[f64; crate::kernels::DTW_LANES]>,
    cells: u64,
}

impl DtwScratch {
    /// DP cells computed on this scratch since it was made: one per
    /// column of each row's window per candidate, a lane step counting
    /// one cell for each candidate of its batch.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// Heap bytes the scratch keeps.
    pub fn bytes(&self) -> usize {
        let rows: usize = self.rows.iter().map(Vec::capacity).sum();
        rows * std::mem::size_of::<f64>()
            + self.lanes.capacity() * std::mem::size_of::<[f64; crate::kernels::DTW_LANES]>()
    }

    pub(crate) fn add_cells(&mut self, cells: u64) {
        self.cells += cells;
    }

    /// The lane kernel's rows for candidates of length `m`: the
    /// transposed candidates (`m` columns) and two DP rows (`m + 1`
    /// columns each), one [`crate::kernels::DTW_LANES`]-wide array a
    /// column.
    pub(crate) fn lane_rows(&mut self, m: usize) -> &mut [[f64; crate::kernels::DTW_LANES]] {
        let need = 3 * m + 2;
        if self.lanes.len() < need {
            self.lanes.resize(need, [0.0; crate::kernels::DTW_LANES]);
        }
        &mut self.lanes[..need]
    }
}

/// [`dtw_early_abandon_sq_with_cb`] on the caller's [`DtwScratch`], with
/// a **live** bound: a scan that runs one DTW per candidate keeps one
/// scratch and allocates only when a candidate is longer than any before
/// it, where every entry point above allocates its rows per call.
///
/// When `live` is provided, it is re-read after every DP row and the
/// effective squared abandonment threshold becomes `min(ub_sq, live())`.
/// This is how a query-global pruning bound (`onex_api::SharedBound`)
/// reaches into an in-flight DTW — a tighter k-th best discovered by a
/// concurrent worker (another shard, another candidate length) aborts
/// this computation mid-DP instead of after it. The live bound must be
/// *monotonically tightening* across calls (each read may be smaller
/// than, never larger than sound): abandoning against any value it
/// returns must remain correct for the caller. Returns `f64::INFINITY`
/// once no alignment can beat the tightest threshold observed, including
/// a final check of the completed distance.
///
/// ## EAPruned
///
/// The DP is EAPrunedDTW (Herrmann & Webb, "Early abandoning and pruning
/// for elastic distances including dynamic time warping", DAMI 2021): a
/// cell above the threshold can lie on no path that beats it, since
/// costs only add up along a path. So row `i` computes only the columns
/// from the first live one (within the threshold) of row `i − 2` —
/// no live cell ever lies left of the row above's first, and that row's
/// is known long before row `i − 1` ends, which lets row `i` start
/// without waiting for it — through row `i − 1`'s last live column plus
/// one, then two cells more whatever they hold, and on from there while
/// the cell to the left is still live (past row `i − 1`'s reach only the
/// left neighbour can be, so those cells are computed from it alone). One
/// cell at each border of that window is reset to `∞`; the rest of the
/// row is never touched.
///
/// Every cell whose full-DP value is finite and within the threshold is
/// inside the window and computed from the same predecessor by the same
/// operations, and every other cell of the window is above it (or not a
/// number). So for finite inputs the row minimum decides the abandon test
/// `row_min + tail > threshold` exactly as the full DP's does, and the
/// result is the full DP's, bit for bit.
///
/// # Panics
/// Panics when either input is empty or `cb` has the wrong length.
pub fn dtw_early_abandon_sq_scratch(
    x: &[f64],
    y: &[f64],
    band: Band,
    ub_sq: f64,
    cb: Option<&[f64]>,
    live: Option<&dyn Fn() -> f64>,
    scratch: &mut DtwScratch,
) -> f64 {
    let n = x.len();
    let m = y.len();
    assert!(n > 0 && m > 0, "DTW requires non-empty sequences");
    if let Some(cb) = cb {
        assert_eq!(cb.len(), n + 1, "cumulative bound must have n+1 entries");
    }

    for row in &mut scratch.rows {
        if row.len() <= m {
            row.resize(m + 1, 0.0);
        }
    }
    let [prev, curr] = &mut scratch.rows;
    let (mut prev, mut curr) = (&mut prev[..=m], &mut curr[..=m]);
    // The effective threshold only ever tightens: the static ub_sq folded
    // with every live reading observed so far (f64::min ignores NaN, so a
    // misbehaving live bound can loosen nothing). A NaN ub_sq abandons
    // nothing and yields to the first reading, as `∞` does.
    let mut bound_sq = if ub_sq.is_nan() { f64::INFINITY } else { ub_sq };
    // Row 0 is column 0 alone (the origin), its right border at 1. The
    // previous row's window is `[start, end)`, its live columns (not above
    // the threshold) `[first, stop)` — `stop ≤ first` when none is.
    prev[0] = 0.0;
    prev[1] = f64::INFINITY;
    let (mut start, mut end) = (0, 1);
    let (mut first, mut stop) = if 0.0 <= bound_sq { (0, 1) } else { (1, 0) };
    let mut cells = 0;
    let mut first_lag = 0;

    for i in 1..=n {
        let (lo, hi) = band.row_range(i, n, m);
        if lo > hi {
            scratch.cells += cells;
            return f64::INFINITY; // band excludes the whole row: infeasible
        }
        let xi = x[i - 1];
        // The window starts at the first live column of the row before the
        // previous one, which no later row's can precede — known long
        // before this row's predecessor ends, unlike its own — and never
        // before the previous window.
        let s = lo.max(first_lag).max(start);
        curr[s - 1] = f64::INFINITY;
        let mut row_min = f64::INFINITY;
        // This row's live columns, `[live_first, live_stop)`, tracked as
        // the cells are written.
        let (mut live_first, mut live_stop) = (usize::MAX, 0);
        // Up to one past the previous row's last live column, every
        // predecessor may be within the threshold.
        let reach = hi.min(stop).max(s - 1);
        let mut left = f64::INFINITY;
        let mut diag = prev[s - 1];
        let cols = curr[s..=reach].iter_mut().zip(&y[s - 1..reach]);
        for (j, ((cell, &yj), &up)) in (s..).zip(cols.zip(&prev[s..=reach])) {
            let d = xi - yj;
            // `left` stays out of the inner min, so the chain from cell
            // to cell is one min and one add.
            let v = d * d + min(left, min(up, diag));
            *cell = v;
            if v < row_min {
                row_min = v;
            }
            let within = v <= bound_sq;
            live_first = live_first.min(if within { j } else { usize::MAX });
            live_stop = if within { j + 1 } else { live_stop };
            left = v;
            diag = up;
        }
        // Past it only the left neighbour may be live: the first
        // `AHEAD` cells whatever they hold (computing one that turns out
        // dead costs less than a mispredicted exit), then on while it is.
        let mut j = reach + 1;
        let ahead = if j > s { hi.min(reach + AHEAD) } else { reach };
        while j <= hi && (j <= ahead || live_stop == j) {
            let d = xi - y[j - 1];
            let v = d * d + left;
            curr[j] = v;
            if v < row_min {
                row_min = v;
            }
            live_stop = if v <= bound_sq { j + 1 } else { live_stop };
            left = v;
            j += 1;
        }
        if j <= m {
            curr[j] = f64::INFINITY;
        }
        cells += (j - s) as u64;
        (start, end) = (s, j);
        first_lag = first;
        (first, stop) = if live_first == usize::MAX {
            (end, start)
        } else {
            (live_first, live_stop)
        };
        // Outstanding-contribution tail. A partial path through row `i`
        // has consumed query positions 0..i and possibly candidate
        // positions up to `hi` (the band's forward reach), so only
        // contributions at positions ≥ max(i, hi) are guaranteed still
        // unpaid — whichever sequence the contributions are indexed by.
        // This is the UCR Suite's `cb[i + r + 1]` offset generalised to
        // any band; using `cb[i]` alone over-counts candidate-indexed
        // (LB_Keogh EQ) contributions and falsely abandons.
        let tail = cb.map_or(0.0, |cb| cb[i.max(hi).min(n)]);
        if let Some(live) = live {
            bound_sq = bound_sq.min(live());
        }
        if row_min + tail > bound_sq {
            scratch.cells += cells;
            return f64::INFINITY;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    scratch.cells += cells;
    // Column m is in the last window, or beyond it and so above the
    // threshold.
    let out = if start <= m && m < end {
        prev[m]
    } else {
        f64::INFINITY
    };
    if out > bound_sq {
        f64::INFINITY
    } else {
        out
    }
}

/// `a < b ? a : b` — `f64::min` on values that are not NaN, in one
/// instruction on the DP's critical path.
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// DTW with warping-path recovery: returns `(distance, path)`.
///
/// Allocates the full `(n+1)·(m+1)` matrix, so use this for presentation
/// (the Results pane draws one path), not for scanning.
///
/// # Panics
/// Panics when either input is empty.
pub fn dtw_with_path(x: &[f64], y: &[f64], band: Band) -> (f64, WarpingPath) {
    let n = x.len();
    let m = y.len();
    assert!(n > 0 && m > 0, "DTW requires non-empty sequences");

    let cols = m + 1;
    let mut dp = vec![f64::INFINITY; (n + 1) * cols];
    dp[0] = 0.0;
    for i in 1..=n {
        let (lo, hi) = band.row_range(i, n, m);
        let xi = x[i - 1];
        for j in lo..=hi {
            let d = xi - y[j - 1];
            let up = dp[(i - 1) * cols + j];
            let left = dp[i * cols + j - 1];
            let diag = dp[(i - 1) * cols + j - 1];
            dp[i * cols + j] = d * d + up.min(left).min(diag);
        }
    }

    // Trace back from (n, m); prefer the diagonal on ties so paths stay as
    // short (and visually clean) as possible.
    let mut pairs = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        pairs.push((i as u32 - 1, j as u32 - 1));
        let diag = dp[(i - 1) * cols + j - 1];
        let up = dp[(i - 1) * cols + j];
        let left = dp[i * cols + j - 1];
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    debug_assert!(i == 0 && j == 0, "traceback must reach the origin");
    pairs.reverse();
    (dp[n * cols + m].sqrt(), WarpingPath::new(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed::ed;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn identical_sequences_are_zero() {
        let x = [1.0, 2.0, 3.0, 2.0];
        assert!(close(dtw(&x, &x, Band::Full), 0.0));
        assert!(close(dtw(&x, &x, Band::SakoeChiba(0)), 0.0));
    }

    #[test]
    fn known_small_case() {
        // x = [0, 1], y = [0, 0, 1]: warp matches both zeros to x[0].
        assert!(close(
            dtw_sq(&[0.0, 1.0], &[0.0, 0.0, 1.0], Band::Full),
            0.0
        ));
        // Shifted impulse aligns under warping but not under ED.
        let a = [0.0, 0.0, 1.0, 0.0];
        let b = [0.0, 1.0, 0.0, 0.0];
        assert!(close(dtw(&a, &b, Band::Full), 0.0));
        assert!(ed(&a, &b) > 1.0);
    }

    #[test]
    fn dtw_never_exceeds_ed_for_equal_lengths() {
        // The diagonal is always an admissible path, so DTW ≤ ED.
        let xs = [
            vec![1.0, 5.0, -2.0, 0.0, 3.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
            vec![2.0, 2.1, 2.2, 1.9, 2.0],
        ];
        let ys = [
            vec![0.0, 4.0, -1.0, 2.0, 2.0],
            vec![1.0, -1.0, 1.0, -1.0, 1.0],
            vec![2.0, 2.0, 2.0, 2.0, 2.0],
        ];
        for (x, y) in xs.iter().zip(&ys) {
            assert!(dtw(x, y, Band::Full) <= ed(x, y) + 1e-12);
        }
    }

    #[test]
    fn symmetry() {
        let x = [1.0, 3.0, 2.0, 5.0];
        let y = [2.0, 1.0, 4.0];
        assert!(close(dtw(&x, &y, Band::Full), dtw(&y, &x, Band::Full)));
        assert!(close(
            dtw(&x, &y, Band::SakoeChiba(2)),
            dtw(&y, &x, Band::SakoeChiba(2))
        ));
    }

    #[test]
    fn narrower_band_never_decreases_distance() {
        let x = [0.0, 1.0, 2.0, 1.0, 0.0, -1.0];
        let y = [1.0, 2.0, 1.0, 0.0, -1.0, 0.0];
        let full = dtw(&x, &y, Band::Full);
        let wide = dtw(&x, &y, Band::SakoeChiba(3));
        let narrow = dtw(&x, &y, Band::SakoeChiba(1));
        let none = dtw(&x, &y, Band::SakoeChiba(0));
        assert!(full <= wide + 1e-12);
        assert!(wide <= narrow + 1e-12);
        assert!(narrow <= none + 1e-12);
        // Radius 0 with equal lengths is exactly ED.
        assert!(close(none, ed(&x, &y)));
    }

    #[test]
    fn band_widens_for_unequal_lengths() {
        // SakoeChiba(0) would be infeasible for |x| ≠ |y|; radius() widens
        // it to the length difference so a path exists.
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 3.0];
        let d = dtw(&x, &y, Band::SakoeChiba(0));
        assert!(d.is_finite());
        assert_eq!(Band::SakoeChiba(0).radius(4, 2), 2);
        assert_eq!(Band::Full.radius(4, 2), 4);
    }

    #[test]
    fn from_fraction_rounds_up() {
        assert_eq!(Band::from_fraction(100, 0.05), Band::SakoeChiba(5));
        assert_eq!(Band::from_fraction(10, 0.01), Band::SakoeChiba(1));
        assert_eq!(Band::from_fraction(10, 0.0), Band::SakoeChiba(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_fraction_rejects_bad_input() {
        Band::from_fraction(10, 1.5);
    }

    /// The live-bound DP on a fresh scratch: unbanded, no static bound.
    fn live_sq(x: &[f64], y: &[f64], live: Option<&dyn Fn() -> f64>) -> f64 {
        let scratch = &mut DtwScratch::default();
        dtw_early_abandon_sq_scratch(x, y, Band::Full, f64::INFINITY, None, live, scratch)
    }

    #[test]
    fn early_abandon_agrees_with_exact_when_under_bound() {
        let x = [1.0, 2.0, 0.5, -1.0, 0.0];
        let y = [0.5, 2.5, 0.0, -1.5, 0.5];
        let exact = dtw(&x, &y, Band::Full);
        let ea =
            dtw_early_abandon_sq_with_cb(&x, &y, Band::Full, (exact + 0.1).powi(2), None).sqrt();
        assert!(close(ea, exact));
        // Bound exactly at the distance must not abandon ("exceeds" test).
        let at = dtw_early_abandon_sq_with_cb(&x, &y, Band::Full, exact * exact, None).sqrt();
        assert!(close(at, exact));
    }

    #[test]
    fn early_abandon_fires_on_hopeless_candidates() {
        let x = vec![0.0; 32];
        let y = vec![100.0; 32];
        assert_eq!(
            dtw_early_abandon_sq_with_cb(&x, &y, Band::Full, 1.0, None).sqrt(),
            f64::INFINITY
        );
    }

    #[test]
    fn cb_tail_tightens_abandonment() {
        // Under a band of radius 0 (diagonal only), row i can have
        // consumed exactly column i, so a cb that still owes more than
        // the bound at the next position abandons instantly even though
        // the row minimum alone would not.
        let x = [0.0, 0.0, 0.0];
        let y = [0.0, 0.0, 0.0];
        let cb = [10.0, 10.0, 10.0, 0.0];
        let out = dtw_early_abandon_sq_with_cb(&x, &y, Band::SakoeChiba(0), 1.0, Some(&cb));
        assert_eq!(out, f64::INFINITY);
        // Zero cb reduces to the plain computation.
        let zero = [0.0; 4];
        let out2 = dtw_early_abandon_sq_with_cb(&x, &y, Band::SakoeChiba(0), 1.0, Some(&zero));
        assert!(close(out2, 0.0));
    }

    #[test]
    fn cb_tail_is_ignored_under_full_band() {
        // With no band, a partial path may already have consumed every
        // candidate position, so no tail is sound — the cb must not be
        // applied (this was a real false-dismissal bug caught by the UCR
        // agreement proptest).
        let x = [0.0, 0.0, 0.0];
        let y = [0.0, 0.0, 0.0];
        let cb = [10.0, 10.0, 10.0, 0.0];
        let out = dtw_early_abandon_sq_with_cb(&x, &y, Band::Full, 1.0, Some(&cb));
        assert!(close(out, 0.0));
    }

    #[test]
    fn live_bound_aborts_mid_dp() {
        use std::cell::Cell;
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let y: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2 + 1.0).cos()).collect();
        let exact = dtw_sq(&x, &y, Band::Full);
        // A live bound that starts loose and collapses to ~0 after a few
        // rows — the DP must abandon even though the static ub_sq never
        // would have.
        let rows = Cell::new(0u32);
        let live = || {
            rows.set(rows.get() + 1);
            if rows.get() > 4 {
                1e-12
            } else {
                f64::INFINITY
            }
        };
        let out = live_sq(&x, &y, Some(&live));
        assert_eq!(out, f64::INFINITY, "tightened live bound must abandon");
        assert!(rows.get() < 64, "abandoned mid-DP, not at the end");
        // A live bound that stays above the true distance changes nothing.
        let loose = || exact + 1.0;
        let out2 = live_sq(&x, &y, Some(&loose));
        assert!(close(out2, exact));
        // No live bound: identical to the static entry point.
        let out3 = live_sq(&x, &y, None);
        assert!(close(out3, exact));
    }

    #[test]
    fn live_bound_tightening_is_one_way() {
        // A live bound that *loosens* over time must not loosen the
        // effective threshold: once 0.5 was observed, later readings of
        // ∞ keep the DP abandoning against 0.5.
        use std::cell::Cell;
        let x = vec![0.0; 8];
        let y = vec![1.0; 8]; // true squared distance: 8
        let calls = Cell::new(0u32);
        let flaky = || {
            calls.set(calls.get() + 1);
            if calls.get() == 1 {
                0.5
            } else {
                f64::INFINITY
            }
        };
        let out = live_sq(&x, &y, Some(&flaky));
        assert_eq!(out, f64::INFINITY);
        // NaN readings are ignored rather than poisoning the threshold.
        let nan = || f64::NAN;
        let out2 = live_sq(&x, &y, Some(&nan));
        assert!(close(out2, 8.0));
    }

    #[test]
    #[should_panic(expected = "n+1 entries")]
    fn cb_length_is_checked() {
        dtw_early_abandon_sq_with_cb(&[1.0, 2.0], &[1.0], Band::Full, 1.0, Some(&[0.0]));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_input_panics() {
        dtw(&[], &[1.0], Band::Full);
    }

    #[test]
    fn path_is_valid_and_cost_matches_distance() {
        let x = [0.0, 1.0, 3.0, 2.0, 0.0];
        let y = [0.0, 2.0, 3.0, 1.0];
        let (d, p) = dtw_with_path(&x, &y, Band::Full);
        assert!(p.is_valid(x.len(), y.len()), "{p:?}");
        assert!(close(p.cost(&x, &y), d), "path cost equals DTW distance");
        assert!(close(d, dtw(&x, &y, Band::Full)), "agrees with two-row DP");
    }

    #[test]
    fn path_respects_band() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let (d, p) = dtw_with_path(&x, &y, Band::SakoeChiba(1));
        assert!(close(d, 0.0));
        for &(i, j) in p.pairs() {
            assert!(i.abs_diff(j) <= 1, "pair ({i},{j}) outside band");
        }
    }

    #[test]
    fn banded_two_row_matches_banded_path_variant() {
        let x = [0.3, 1.2, -0.5, 2.0, 0.0, 1.0, 0.7];
        let y = [0.0, 1.0, 0.0, 2.2, -0.3, 0.9];
        for band in [Band::Full, Band::SakoeChiba(2), Band::SakoeChiba(1)] {
            let a = dtw(&x, &y, band);
            let (b, _) = dtw_with_path(&x, &y, band);
            assert!(close(a, b), "band {band:?}: {a} vs {b}");
        }
    }

    #[test]
    fn itakura_row_ranges_are_well_formed() {
        let band = Band::Itakura;
        for (n, m) in [(8usize, 8usize), (10, 7), (7, 10), (5, 9), (1, 1)] {
            let mut prev_lo = 0usize;
            for i in 1..=n {
                let (lo, hi) = band.row_range(i, n, m);
                if lo <= hi {
                    assert!(lo >= 1 && hi <= m, "({n},{m}) row {i}: [{lo},{hi}]");
                    assert!(lo >= prev_lo, "lower edge is monotone");
                    prev_lo = lo;
                }
            }
            // Endpoints are always pinned when feasible.
            if m < 2 * n && n < 2 * m {
                assert_eq!(band.row_range(1, n, m).0, 1);
                assert_eq!(band.row_range(n, n, m).1, m);
            }
        }
    }

    #[test]
    fn itakura_between_ed_and_full_dtw() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.5).sin() * 2.0).collect();
        let y: Vec<f64> = (0..20)
            .map(|i| (i as f64 * 0.5 + 0.7).sin() * 2.0)
            .collect();
        let full = dtw(&x, &y, Band::Full);
        let ita = dtw(&x, &y, Band::Itakura);
        let none = ed(&x, &y);
        assert!(full <= ita + 1e-12, "constraining cannot decrease distance");
        assert!(ita <= none + 1e-12, "parallelogram contains the diagonal");
        // Symmetric for equal lengths (the parallelogram is symmetric).
        assert!((dtw(&x, &y, Band::Itakura) - dtw(&y, &x, Band::Itakura)).abs() < 1e-12);
    }

    #[test]
    fn itakura_identity_and_infeasible_lengths() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0, 0.0];
        assert!(dtw(&x, &x, Band::Itakura) < 1e-12);
        // m > 2n − 1: no admissible path.
        let short = [1.0, 2.0];
        let long = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
        assert!(dtw(&short, &long, Band::Itakura).is_infinite());
        assert!(dtw(&long, &short, Band::Itakura).is_infinite());
        // At m = 2n − 1 the discrete parallelogram pinches shut under the
        // standard step pattern (rows become disconnected), so even the
        // nominal boundary is infeasible…
        let three = [0.0, 1.0, 2.0];
        let five = [0.0, 0.5, 1.0, 1.5, 2.0];
        assert!(dtw(&three, &five, Band::Itakura).is_infinite());
        // …while a ratio comfortably below 2 is feasible.
        let four = [0.0, 1.0, 2.0, 3.0];
        let six = [0.0, 0.6, 1.2, 1.8, 2.4, 3.0];
        assert!(dtw(&four, &six, Band::Itakura).is_finite());
    }

    #[test]
    fn itakura_path_respects_parallelogram() {
        let x: Vec<f64> = (0..16).map(|i| ((i * i) % 7) as f64).collect();
        let y: Vec<f64> = (0..16).map(|i| ((i * 3) % 5) as f64).collect();
        let (d, p) = dtw_with_path(&x, &y, Band::Itakura);
        assert!(d.is_finite());
        assert!(p.is_valid(x.len(), y.len()));
        for &(i, j) in p.pairs() {
            let (lo, hi) = Band::Itakura.row_range(i as usize + 1, x.len(), y.len());
            let col = j as usize + 1;
            assert!(
                col >= lo && col <= hi,
                "cell ({i},{j}) outside parallelogram"
            );
        }
        let two_row = dtw(&x, &y, Band::Itakura);
        assert!((d - two_row).abs() < 1e-12);
    }

    #[test]
    fn constant_shift_costs_scale_with_path() {
        // x constant 0, y constant 1, same length n: every matched pair
        // costs 1, best path is the diagonal: DTW = √n.
        for n in [1usize, 4, 16] {
            let x = vec![0.0; n];
            let y = vec![1.0; n];
            assert!(close(dtw(&x, &y, Band::Full), (n as f64).sqrt()));
        }
    }
}
