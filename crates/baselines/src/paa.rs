//! Piecewise Aggregate Approximation (PAA) and coarse-resolution DTW.
//!
//! PAA replaces a series by per-segment means — the dimensionality
//! reduction behind iterative-deepening DTW ([`crate::iddtw`]) and a
//! close cousin of the DFT features used by the FRM baseline. A
//! length-n series at s segments costs O(n) to reduce and O(s²) to
//! compare under DTW, so coarse levels are orders of magnitude cheaper
//! than the raw computation.

use onex_distance::{dtw_sq, Band};

/// PAA of `xs` at `segments` segments: segment `i` covers the index
/// range `[i·n/s, (i+1)·n/s)` and is summarised by its mean.
///
/// With `segments == xs.len()` this is the identity; with `segments == 1`
/// it is the global mean. Boundaries use integer arithmetic, so when `s`
/// does not divide `n` segment sizes differ by at most one.
///
/// # Panics
///
/// Panics if `segments` is zero or exceeds `xs.len()`.
pub fn paa(xs: &[f64], segments: usize) -> Vec<f64> {
    let n = xs.len();
    assert!(segments >= 1, "need at least one segment");
    assert!(segments <= n, "more segments than points");
    let mut out = Vec::with_capacity(segments);
    for i in 0..segments {
        let lo = i * n / segments;
        let hi = (i + 1) * n / segments;
        let sum: f64 = xs[lo..hi].iter().sum();
        out.push(sum / (hi - lo) as f64);
    }
    out
}

/// Coarse DTW estimate at a PAA resolution: DTW over the PAA sequences
/// with each squared step cost weighted by the mean segment length, so
/// the result is on the same scale as [`onex_distance::dtw()`] on the raw series.
///
/// This is an **estimator**, not a bound: averaging can make two series
/// look closer or farther than they are (unlike the envelope-based
/// LB_Keogh in [`onex_distance::lb`]). Iterative-deepening DTW compensates with
/// a learned error distribution — see [`crate::iddtw`].
///
/// # Panics
///
/// Panics under the same conditions as [`paa`] on either input.
pub fn dtw_paa(x: &[f64], y: &[f64], segments: usize, band: Band) -> f64 {
    let px = paa(x, segments.min(x.len()));
    let py = paa(y, segments.min(y.len()));
    let weight = (x.len() as f64 / px.len() as f64 + y.len() as f64 / py.len() as f64) / 2.0;
    (dtw_sq(&px, &py, band) * weight).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_distance::dtw;

    #[test]
    fn identity_at_full_resolution() {
        let xs = [1.0, 5.0, 2.0, 8.0];
        assert_eq!(paa(&xs, 4), xs.to_vec());
    }

    #[test]
    fn single_segment_is_mean() {
        let xs = [2.0, 4.0, 6.0];
        assert_eq!(paa(&xs, 1), vec![4.0]);
    }

    #[test]
    fn preserves_mean_when_divisible() {
        let xs: Vec<f64> = (0..12).map(|i| (i as f64 * 0.9).sin()).collect();
        let p = paa(&xs, 4);
        let m1: f64 = xs.iter().sum::<f64>() / 12.0;
        let m2: f64 = p.iter().sum::<f64>() / 4.0;
        assert!((m1 - m2).abs() < 1e-12);
    }

    #[test]
    fn uneven_lengths_are_covered() {
        // 7 points in 3 segments: (0..2), (2..4), (4..7).
        let xs = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0];
        assert_eq!(paa(&xs, 3), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn constant_series_reduce_to_constant() {
        let xs = vec![7.0; 10];
        for s in 1..=10 {
            assert!(paa(&xs, s).iter().all(|&v| (v - 7.0).abs() < 1e-12));
        }
    }

    #[test]
    fn coarse_dtw_at_full_resolution_is_exact() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin()).collect();
        let y: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4 + 0.8).sin()).collect();
        let exact = dtw(&x, &y, Band::Full);
        let coarse = dtw_paa(&x, &y, 16, Band::Full);
        assert!((exact - coarse).abs() < 1e-9);
    }

    #[test]
    fn coarse_dtw_tracks_exact_on_smooth_data() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin() * 3.0).collect();
        let y: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.2 + 0.5).sin() * 3.0)
            .collect();
        let exact = dtw(&x, &y, Band::Full);
        let coarse = dtw_paa(&x, &y, 16, Band::Full);
        // Smooth series: the estimate lands within a small factor. It can
        // overshoot because PAA smoothing removes the fine-grained
        // warping freedom that lets exact DTW absorb the phase shift.
        assert!(
            coarse < exact * 3.0 && coarse > exact * 0.25,
            "coarse {coarse} vs exact {exact}"
        );
    }

    #[test]
    #[should_panic(expected = "more segments than points")]
    fn rejects_oversampling() {
        paa(&[1.0, 2.0], 3);
    }
}
