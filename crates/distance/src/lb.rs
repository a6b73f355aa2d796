//! Lower bounds for DTW.
//!
//! A lower bound that is cheap to compute lets the query processor discard
//! a candidate without ever running the O(n·m) DP — the paper's "early
//! pruning of unpromising candidates" (§3.3). All bounds here return
//! **squared** values so they compose with the squared DP and the UCR
//! cascade without intermediate square roots.
//!
//! Soundness: for every function `f` here and every pair it accepts,
//! `f(x, y) ≤ dtw_sq(x, y, band)` for the band the bound was built for.
//! Property tests in `tests/` hammer on this.

use crate::envelope::Envelope;
use crate::kernels::{self, EnvAffine};

/// LB_Kim(FL): bound from the first and last points.
///
/// Any warping path must match `x[0]` with `y[0]` and `x[n−1]` with
/// `y[m−1]`, so those two squared differences always appear in the DTW
/// cost. The classic UCR refinement also folds in the second and
/// second-to-last pairs when that stays sound: the cheapest way a path can
/// cover `x[1]` is against `y[0]`, `y[1]` or `y[2]` (and symmetrically at
/// the end), so the minimum over those is also unavoidable — provided the
/// sequences are long enough that the corner pairs are distinct cells.
///
/// Works for unequal lengths. O(1).
///
/// # Panics
/// Panics on empty input.
pub fn lb_kim_fl_sq(x: &[f64], y: &[f64]) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "LB_Kim of empty sequence");
    let m = y.len();
    let (y1, ym2) = if m >= 4 { (y[1], y[m - 2]) } else { (0.0, 0.0) };
    lb_kim_fl_sq_corners(x, m, y[0], y1, ym2, y[m - 1], f64::INFINITY)
}

/// [`lb_kim_fl_sq`] given only the candidate side's four corner values —
/// the shared core both the ONEX cascade and the UCR Suite scan call, so
/// the UCR path can z-normalise just the corners instead of the whole
/// window. `y1`/`ym2` are only read when both lengths are ≥ 4 (pass
/// anything otherwise); abandons (returns `f64::INFINITY`) once the
/// partial bound exceeds `ub_sq`.
///
/// # Panics
/// Panics on an empty `x` or `m == 0`.
pub fn lb_kim_fl_sq_corners(
    x: &[f64],
    m: usize,
    y0: f64,
    y1: f64,
    ym2: f64,
    ym1: f64,
    ub_sq: f64,
) -> f64 {
    assert!(!x.is_empty() && m > 0, "LB_Kim of empty sequence");
    let n = x.len();
    let sq = |a: f64, b: f64| (a - b) * (a - b);
    let mut lb = sq(x[0], y0);
    if n > 1 && m > 1 {
        lb += sq(x[n - 1], ym1);
    }
    if lb > ub_sq {
        return f64::INFINITY;
    }
    // Second-point refinements need at least 4 points on each side so the
    // front and back corner regions cannot overlap on any path.
    if n >= 4 && m >= 4 {
        let front = sq(x[1], y0).min(sq(x[1], y1)).min(sq(x[0], y1));
        lb += front;
        if lb > ub_sq {
            return f64::INFINITY;
        }
        let back = sq(x[n - 2], ym1)
            .min(sq(x[n - 2], ym2))
            .min(sq(x[n - 1], ym2));
        lb += back;
        if lb > ub_sq {
            return f64::INFINITY;
        }
    }
    lb
}

/// LB_Keogh: squared distance from `x` to the envelope of the other
/// sequence, i.e. `Σ max(x_i − upper_i, lower_i − x_i, 0)²`.
///
/// Sound when `env` has one entry per position of `x` and was built with
/// at least the band radius used for DTW — [`Envelope::build`] for an
/// other sequence as long as `x`, [`Envelope::build_across`] for one of
/// any length: every position `i` of `x` is paired with at least one
/// value of the other sequence inside its band window, hence inside
/// `[lower[i], upper[i]]`, and distinct `i` are distinct DP cells, so
/// the sum never exceeds squared DTW under `Full`, `SakoeChiba` or
/// `Itakura`.
///
/// Abandons (returns `f64::INFINITY`) once the partial sum exceeds
/// `ub_sq`.
///
/// # Panics
/// Panics when `x.len() != env.len()`.
pub fn lb_keogh_sq(x: &[f64], env: &Envelope, ub_sq: f64) -> f64 {
    assert_eq!(
        x.len(),
        env.len(),
        "LB_Keogh requires one envelope entry per position of x"
    );
    kernels::env_excess_sq(x, &env.lower, &env.upper, EnvAffine::IDENTITY, ub_sq)
}

/// LB_Keogh with per-position contributions, for the UCR cascade.
///
/// Resizes `contrib` to `x.len()` (reusing its allocation across
/// candidates) and fills `contrib[i]` with position `i`'s squared
/// exceedance, returning the total. The caller turns `contrib` into the
/// suffix-sum cumulative bound fed to
/// [`crate::dtw::dtw_early_abandon_sq_with_cb`].
///
/// # Panics
/// Panics when `x.len() != env.len()`.
pub fn lb_keogh_with_contrib(x: &[f64], env: &Envelope, contrib: &mut Vec<f64>) -> f64 {
    assert_eq!(x.len(), env.len(), "LB_Keogh requires equal lengths");
    contrib.clear();
    contrib.resize(x.len(), 0.0);
    kernels::env_excess_contrib(
        x,
        &env.lower,
        &env.upper,
        EnvAffine::IDENTITY,
        f64::INFINITY,
        contrib,
    )
}

/// The UCR "EQ" bound: LB_Keogh of the *z-normalised* candidate window
/// against the query's envelope, without materialising the normalised
/// window. `scale` is `1/σ` (pass `0` for a flat window, collapsing the
/// candidate to zeros). Fills `contrib` like [`lb_keogh_with_contrib`]
/// and abandons past `ub_sq` (tail of `contrib` is then unspecified).
///
/// # Panics
/// Panics when the window, envelope, and `contrib` lengths disagree.
pub fn lb_keogh_znorm_sq(
    window: &[f64],
    mean: f64,
    scale: f64,
    env: &Envelope,
    ub_sq: f64,
    contrib: &mut [f64],
) -> f64 {
    assert_eq!(window.len(), env.len(), "LB_Keogh requires equal lengths");
    kernels::env_excess_contrib(
        window,
        &env.lower,
        &env.upper,
        EnvAffine::znorm_x(mean, scale),
        ub_sq,
        contrib,
    )
}

/// The UCR "EC" bound: LB_Keogh of the query against a *z-normalised
/// window of the candidate's envelope* (raw `lower`/`upper` slices over
/// the full-series envelope), without materialising the normalised
/// envelope. `scale` is `1/σ` (pass `0` for a flat window, collapsing
/// the envelope to zeros). Fills `contrib` like
/// [`lb_keogh_with_contrib`] and abandons past `ub_sq`.
///
/// # Panics
/// Panics when the query, envelope-window, and `contrib` lengths
/// disagree.
pub fn lb_keogh_env_znorm_sq(
    query: &[f64],
    lower: &[f64],
    upper: &[f64],
    mean: f64,
    scale: f64,
    ub_sq: f64,
    contrib: &mut [f64],
) -> f64 {
    kernels::env_excess_contrib(
        query,
        lower,
        upper,
        EnvAffine::znorm_env(mean, scale),
        ub_sq,
        contrib,
    )
}

/// Suffix-sum a contribution vector into the `n+1`-entry cumulative bound
/// expected by the DTW early-abandonment hook: `cb[i] = Σ_{k≥i} contrib[k]`,
/// `cb[n] = 0`.
pub fn cumulative_bound(contrib: &[f64]) -> Vec<f64> {
    let n = contrib.len();
    let mut cb = vec![0.0; n + 1];
    for i in (0..n).rev() {
        cb[i] = cb[i + 1] + contrib[i];
    }
    cb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::{dtw_sq, Band};

    #[test]
    fn kim_fl_is_a_lower_bound() {
        let cases = [
            (vec![1.0, 5.0, 2.0, 0.0, 3.0], vec![0.0, 4.0, 1.0, 2.0, 2.0]),
            (vec![1.0, 2.0], vec![3.0, 4.0, 5.0]),
            (vec![0.0], vec![7.0]),
            (
                vec![-1.0, 0.0, 1.0, 2.0, 3.0, 4.0],
                vec![4.0, 3.0, 2.0, 1.0],
            ),
        ];
        for (x, y) in &cases {
            let lb = lb_kim_fl_sq(x, y);
            let d = dtw_sq(x, y, Band::Full);
            assert!(lb <= d + 1e-12, "lb {lb} > dtw {d} for {x:?} vs {y:?}");
        }
    }

    #[test]
    fn kim_fl_exact_for_single_points() {
        assert_eq!(lb_kim_fl_sq(&[2.0], &[5.0]), 9.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn kim_fl_rejects_empty() {
        lb_kim_fl_sq(&[], &[1.0]);
    }

    #[test]
    fn keogh_is_a_lower_bound_for_banded_dtw() {
        let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).sin() * 2.0).collect();
        let y: Vec<f64> = (0..24)
            .map(|i| (i as f64 * 0.4 + 0.8).cos() * 2.0)
            .collect();
        for r in [0usize, 1, 3, 8, 24] {
            let env = Envelope::build(&y, r);
            let lb = lb_keogh_sq(&x, &env, f64::INFINITY);
            let d = dtw_sq(&x, &y, Band::SakoeChiba(r));
            assert!(lb <= d + 1e-9, "r={r}: lb {lb} > dtw {d}");
        }
    }

    #[test]
    fn keogh_zero_inside_envelope() {
        let y = [1.0, 2.0, 3.0, 2.0, 1.0];
        let env = Envelope::build(&y, 2);
        // y itself is inside its own envelope.
        assert_eq!(lb_keogh_sq(&y, &env, f64::INFINITY), 0.0);
    }

    #[test]
    fn keogh_early_abandons() {
        let y = [0.0; 16];
        let env = Envelope::build(&y, 1);
        let x = [10.0; 16];
        assert_eq!(lb_keogh_sq(&x, &env, 50.0), f64::INFINITY);
        // At the boundary it keeps going ("exceeds" semantics).
        let x1 = {
            let mut v = [0.0; 16];
            v[0] = 5.0;
            v
        };
        assert_eq!(lb_keogh_sq(&x1, &env, 25.0), 25.0);
    }

    #[test]
    fn contrib_sums_to_total_and_cb_is_suffix_sum() {
        let y = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0];
        let x = [2.0, 1.0, -2.0, -1.0, 0.5, 3.0];
        let env = Envelope::build(&y, 1);
        let mut contrib = Vec::new();
        let total = lb_keogh_with_contrib(&x, &env, &mut contrib);
        assert!((total - contrib.iter().sum::<f64>()).abs() < 1e-12);
        assert!((total - lb_keogh_sq(&x, &env, f64::INFINITY)).abs() < 1e-12);
        let cb = cumulative_bound(&contrib);
        assert_eq!(cb.len(), x.len() + 1);
        assert_eq!(cb[x.len()], 0.0);
        assert!((cb[0] - total).abs() < 1e-12);
        for i in 0..x.len() {
            assert!(cb[i] + 1e-15 >= cb[i + 1], "cb non-increasing");
            assert!((cb[i] - cb[i + 1] - contrib[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn znorm_variants_match_materialised_normalisation() {
        let window = [3.0, 5.0, 4.0, 6.0, 2.0, 4.5, 3.5, 5.5];
        let n = window.len();
        let mean = window.iter().sum::<f64>() / n as f64;
        let var = window.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let scale = 1.0 / var.sqrt();
        let q = [0.2, -0.4, 0.9, -1.1, 0.0, 0.6, -0.3, 0.1];
        let env_q = Envelope::build(&q, 1);

        // EQ: z-normalising the window by hand must give the same bound.
        let zw: Vec<f64> = window.iter().map(|v| (v - mean) * scale).collect();
        let mut want_c = Vec::new();
        let want = lb_keogh_with_contrib(&zw, &env_q, &mut want_c);
        let mut got_c = vec![0.0; n];
        let got = lb_keogh_znorm_sq(&window, mean, scale, &env_q, f64::INFINITY, &mut got_c);
        assert!((got - want).abs() < 1e-9 * want.max(1.0));
        for (a, b) in got_c.iter().zip(&want_c) {
            assert!((a - b).abs() < 1e-9, "contrib {a} vs {b}");
        }

        // EC: z-normalising the envelope window by hand, likewise.
        let env_w = Envelope::build(&window, 1);
        let zlo: Vec<f64> = env_w.lower.iter().map(|v| (v - mean) * scale).collect();
        let zhi: Vec<f64> = env_w.upper.iter().map(|v| (v - mean) * scale).collect();
        let want_ec = kernels::env_excess_sq(&q, &zlo, &zhi, EnvAffine::IDENTITY, f64::INFINITY);
        let got_ec = lb_keogh_env_znorm_sq(
            &q,
            &env_w.lower,
            &env_w.upper,
            mean,
            scale,
            f64::INFINITY,
            &mut got_c,
        );
        assert!((got_ec - want_ec).abs() < 1e-9 * want_ec.max(1.0));
    }

    #[test]
    fn kim_corners_match_full_and_abandon() {
        let x = [1.0, 5.0, 2.0, 0.0, 3.0];
        let y = [0.0, 4.0, 1.0, 2.0, 2.0];
        let full = lb_kim_fl_sq(&x, &y);
        let m = y.len();
        let via = lb_kim_fl_sq_corners(&x, m, y[0], y[1], y[m - 2], y[m - 1], f64::INFINITY);
        assert_eq!(full, via);
        assert_eq!(
            lb_kim_fl_sq_corners(&x, m, y[0], y[1], y[m - 2], y[m - 1], full * 0.5),
            f64::INFINITY
        );
        // A bound met exactly does not abandon.
        assert_eq!(
            lb_kim_fl_sq_corners(&x, m, y[0], y[1], y[m - 2], y[m - 1], full),
            full
        );
    }

    #[test]
    #[should_panic(expected = "one envelope entry per position")]
    fn keogh_length_mismatch_panics() {
        let env = Envelope::build(&[1.0, 2.0], 1);
        lb_keogh_sq(&[1.0], &env, f64::INFINITY);
    }
}
