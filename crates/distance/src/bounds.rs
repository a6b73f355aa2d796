//! The ED↔DTW bridge (paper §3.2, DESIGN.md §2.2).
//!
//! ONEX's formal foundation is "a triangle inequality between ED and DTW"
//! connecting the offline (Euclidean) construction of the base with its
//! online (time-warped) exploration. This module states and implements the
//! two facts the engine relies on:
//!
//! **Fact 1 (diagonal).** For equal-length sequences,
//! `DTW(x, y) ≤ ED(x, y)` — the diagonal is an admissible warping path.
//!
//! **Fact 2 (group bound).** Let `q` be a query, and `r`, `s` two
//! sequences of equal length `m` (a representative and a member of its
//! group). For any band whose warping multiplicity is `W` (the maximum
//! number of times one index of `r`/`s` may repeat on an admissible path):
//!
//! ```text
//! |DTW(q, s) − DTW(q, r)| ≤ √W · ED(r, s)
//! ```
//!
//! *Proof sketch.* Take the optimal path `P` for `(q, r)` and reuse its
//! index pairs for `(q, s)`. By Minkowski's inequality over ℝ^{|P|},
//! `cost_P(q, s) ≤ cost_P(q, r) + √(Σ_{(i,j)∈P} (r_j − s_j)²)`, and each
//! `j` occurs at most `W` times on `P`, so the last term is at most
//! `√W · ED(r, s)`. Since `DTW(q, s)` minimises over paths,
//! `DTW(q, s) ≤ DTW(q, r) + √W · ED(r, s)`; swap `r` and `s` for the other
//! direction. ∎
//!
//! With group members within `ST/2` of their representative (the base
//! invariant), Fact 2 gives the engine both its **correctness envelope**
//! (the best match's DTW is within `√W·ST/2` of the best representative
//! DTW) and its **pruning rule** (a group whose representative is farther
//! than `best + √W·ST/2` cannot contain a better match).

use crate::dtw::Band;

/// Warping multiplicity `W`: the maximum number of times a single index of
/// the column sequence (length `m`) can appear on an admissible path with
/// `n` rows under `band`.
///
/// A cell `(i, j)` is admissible when `|i − j| ≤ r` (the effective band
/// radius), so index `j` meets at most `2r + 1` distinct rows — and never
/// more than `n`.
pub fn warp_multiplicity(n: usize, m: usize, band: Band) -> usize {
    let r = band.radius(n, m);
    n.min(2 * r + 1)
}

/// Upper bound on `DTW(q, s)` given `DTW(q, r)` and `ED(r, s)` (Fact 2).
pub fn dtw_upper_via_representative(dtw_qr: f64, ed_rs: f64, multiplicity: usize) -> f64 {
    dtw_qr + (multiplicity as f64).sqrt() * ed_rs
}

/// Lower bound on `DTW(q, s)` given `DTW(q, r)` and `ED(r, s)` (Fact 2,
/// clamped at zero).
pub fn dtw_lower_via_representative(dtw_qr: f64, ed_rs: f64, multiplicity: usize) -> f64 {
    (dtw_qr - (multiplicity as f64).sqrt() * ed_rs).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::{dtw, Band};
    use crate::ed::ed;

    #[test]
    fn multiplicity_formula() {
        assert_eq!(warp_multiplicity(10, 10, Band::Full), 10);
        assert_eq!(warp_multiplicity(10, 10, Band::SakoeChiba(2)), 5);
        assert_eq!(warp_multiplicity(10, 10, Band::SakoeChiba(0)), 1);
        // Unequal lengths widen the effective radius.
        assert_eq!(warp_multiplicity(10, 6, Band::SakoeChiba(0)), 9);
        assert_eq!(warp_multiplicity(3, 100, Band::Full), 3);
    }

    #[test]
    fn fact1_dtw_le_ed() {
        let x = [0.1, 0.9, -0.4, 1.3, 0.0, 0.2];
        let y = [0.0, 1.0, -0.2, 1.0, 0.3, 0.0];
        assert!(dtw(&x, &y, Band::Full) <= ed(&x, &y) + 1e-12);
    }

    #[test]
    fn fact2_group_bound_holds() {
        // q of a different length; r and s equal-length and close in ED.
        let q = [0.0, 0.5, 1.5, 1.0, 0.0, -0.5, 0.0, 0.4];
        let r = [0.1, 1.0, 1.2, 0.2, -0.4, 0.1];
        let s = [0.0, 1.1, 1.0, 0.3, -0.5, 0.2];
        for band in [Band::Full, Band::SakoeChiba(2), Band::SakoeChiba(1)] {
            let w = warp_multiplicity(q.len(), r.len(), band);
            let dqr = dtw(&q, &r, band);
            let dqs = dtw(&q, &s, band);
            let ers = ed(&r, &s);
            assert!(
                dqs <= dtw_upper_via_representative(dqr, ers, w) + 1e-9,
                "upper violated for {band:?}: {dqs} vs {dqr} + √{w}·{ers}"
            );
            assert!(
                dqs >= dtw_lower_via_representative(dqr, ers, w) - 1e-9,
                "lower violated for {band:?}"
            );
        }
    }

    #[test]
    fn lower_bound_clamps_at_zero() {
        assert_eq!(dtw_lower_via_representative(1.0, 100.0, 4), 0.0);
    }

    #[test]
    fn pruning_predicate() {
        // The engine prunes a group when this bound is not strictly below
        // its best-so-far. Representative at distance 10, members within
        // 1 (ED), W = 1: the group cannot beat a best-so-far of 5.
        assert!(dtw_lower_via_representative(10.0, 1.0, 1) >= 5.0);
        // But with W = 100 the slack √100·1 = 10 makes it possible.
        assert!(dtw_lower_via_representative(10.0, 1.0, 100) < 5.0);
        // Equality is "cannot be strictly better".
        assert!(dtw_lower_via_representative(6.0, 1.0, 1) >= 5.0);
    }
}
