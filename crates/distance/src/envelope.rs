//! Warping envelopes (Lemire's streaming min/max).
//!
//! The paper's query processor "index\[es\] time series using bounding
//! envelopes" (§3.3). An envelope of radius `r` around a sequence `y`
//! brackets every value `y` can be warped onto within a Sakoe–Chiba band
//! of radius `r`; LB_Keogh then lower-bounds DTW by how far a query
//! escapes the envelope. Built in O(n) by [`crate::kernels::sliding_minmax`]
//! — monotonic deques (Lemire, *Faster retrieval with a two-pass
//! dynamic-time-warping lower bound*, 2009) on the scalar path, the van
//! Herk–Gil–Werman decomposition on the SIMD paths; all levels bit-exact.
//!
//! ## Across lengths
//!
//! ONEX warps a length-`n` query against candidates of a *different*
//! length `m`, so the envelope the cascade needs is indexed by the
//! candidate's positions, not the query's: [`Envelope::build_across`]
//! gives `lower[j] = min q[j−r ..= j+r]` (clamped to the query) for
//! `j < m`, with `r = band.radius(n, m) ≥ |n − m|` so no window is empty.
//! Soundness, for `Full`, `SakoeChiba` and `Itakura` at any length pair:
//! every candidate position `j` is paired with at least one query row
//! inside its band window, and distinct `j` are distinct DP cells, so
//! `Σ_j dist(c_j, [lower_j, upper_j])² ≤ DTW²`. At `m == n` this is
//! [`Envelope::build`] and the textbook LB_Keogh.

/// Lower/upper warping envelope of a sequence for a given band radius.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Band radius the envelope was built for.
    pub radius: usize,
    /// `lower[i] = min(y[i−r ..= i+r])` (clamped to the sequence), one
    /// entry per position of the sequence the envelope is compared with.
    pub lower: Vec<f64>,
    /// `upper[i] = max(y[i−r ..= i+r])` (clamped to the sequence).
    pub upper: Vec<f64>,
}

impl Envelope {
    /// Build the envelope of `y` for band radius `r` in O(n).
    ///
    /// ```
    /// use onex_distance::Envelope;
    /// let env = Envelope::build(&[1.0, 3.0, 2.0], 1);
    /// assert_eq!(env.upper, vec![3.0, 3.0, 3.0]);
    /// assert_eq!(env.lower, vec![1.0, 1.0, 2.0]);
    /// assert!(env.contains(&[1.0, 3.0, 2.0]));
    /// ```
    pub fn build(y: &[f64], radius: usize) -> Envelope {
        let (lower, upper) = crate::kernels::sliding_minmax(y, radius);
        Envelope {
            radius,
            lower,
            upper,
        }
    }

    /// Build the envelope of `query` indexed by the `m` positions of a
    /// candidate it is warped against (see the module docs): entry `j`
    /// brackets every query value candidate position `j` can be paired
    /// with under a band of radius `radius`. O(n + m): the first
    /// `min(n, m)` entries are [`Envelope::build`]'s, and for `j ≥ n` the
    /// window `j−r ..= j+r` already reaches the query's end, so the entry
    /// is a suffix extremum.
    ///
    /// ```
    /// use onex_distance::Envelope;
    /// let q = [1.0, 3.0, 2.0];
    /// let env = Envelope::build_across(&q, 5, 2);
    /// assert_eq!(env.len(), 5);
    /// assert_eq!(env.lower, vec![1.0, 1.0, 1.0, 2.0, 2.0]);
    /// assert_eq!(env.upper, vec![3.0, 3.0, 3.0, 3.0, 2.0]);
    /// assert_eq!(Envelope::build_across(&q, 3, 1), Envelope::build(&q, 1));
    /// ```
    ///
    /// # Panics
    /// Panics when `radius < |n − m|` or the query is empty while `m > 0`
    /// (some window would be empty — no band admits such a cell; use
    /// `Band::radius(n, m)`).
    pub fn build_across(query: &[f64], m: usize, radius: usize) -> Envelope {
        let n = query.len();
        assert!(
            radius >= n.abs_diff(m) && (n > 0 || m == 0),
            "envelope radius {radius} leaves empty windows for lengths {n} and {m}"
        );
        let (mut lower, mut upper) = crate::kernels::sliding_minmax(query, radius);
        lower.truncate(m);
        upper.truncate(m);
        if m > n {
            // suffix[i] = extremum of query[i..]; position j ≥ n sees
            // query[j−r ..], and j − r ≤ m − 1 − (m − n) = n − 1.
            let mut suffix = vec![(0.0, 0.0); n];
            let mut acc = (f64::INFINITY, f64::NEG_INFINITY);
            for (slot, &v) in suffix.iter_mut().zip(query).rev() {
                acc = (acc.0.min(v), acc.1.max(v));
                *slot = acc;
            }
            for j in n..m {
                let (lo, hi) = suffix[j.saturating_sub(radius)];
                lower.push(lo);
                upper.push(hi);
            }
        }
        Envelope {
            radius,
            lower,
            upper,
        }
    }

    /// Number of positions the envelope covers: the sequence's length
    /// for [`Envelope::build`], the candidate's for
    /// [`Envelope::build_across`].
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// True when built over an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// True when `lower[i] ≤ y[i] ≤ upper[i]` everywhere — the defining
    /// envelope property (used by tests and debug assertions).
    pub fn contains(&self, y: &[f64]) -> bool {
        y.len() == self.len()
            && y.iter()
                .zip(self.lower.iter().zip(&self.upper))
                .all(|(&v, (&lo, &hi))| lo <= v && v <= hi)
    }
}

/// Reference O(n·r) envelope used to validate the streaming one in tests.
#[cfg(test)]
fn envelope_naive(y: &[f64], radius: usize) -> Envelope {
    let n = y.len();
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(radius);
        let hi = (i + radius + 1).min(n);
        let window = &y[lo..hi];
        lower.push(window.iter().cloned().fold(f64::INFINITY, f64::min));
        upper.push(window.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }
    Envelope {
        radius,
        lower,
        upper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_on_varied_inputs() {
        let ys = [
            vec![1.0, 3.0, 2.0, 5.0, 4.0, 0.0, -1.0, 2.0],
            vec![0.0; 5],
            vec![1.0],
            vec![2.0, 1.0],
            (0..50).map(|i| ((i * 37 % 17) as f64).sin()).collect(),
        ];
        for y in &ys {
            for r in 0..=y.len() + 1 {
                let fast = Envelope::build(y, r);
                let slow = envelope_naive(y, r);
                assert_eq!(fast.lower, slow.lower, "lower r={r} y={y:?}");
                assert_eq!(fast.upper, slow.upper, "upper r={r} y={y:?}");
            }
        }
    }

    #[test]
    fn radius_zero_is_identity() {
        let y = [3.0, 1.0, 4.0, 1.0, 5.0];
        let e = Envelope::build(&y, 0);
        assert_eq!(e.lower, y.to_vec());
        assert_eq!(e.upper, y.to_vec());
    }

    #[test]
    fn huge_radius_is_global_extrema() {
        let y = [3.0, 1.0, 4.0, 1.0, 5.0];
        let e = Envelope::build(&y, 100);
        assert!(e.lower.iter().all(|&v| v == 1.0));
        assert!(e.upper.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn envelope_contains_its_sequence() {
        let y: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        for r in [0, 1, 3, 10] {
            assert!(Envelope::build(&y, r).contains(&y), "r={r}");
        }
        assert!(!Envelope::build(&y, 1).contains(&y[..10]));
    }

    #[test]
    fn monotone_in_radius() {
        let y: Vec<f64> = (0..30).map(|i| ((i * i) % 13) as f64).collect();
        let narrow = Envelope::build(&y, 1);
        let wide = Envelope::build(&y, 4);
        for i in 0..y.len() {
            assert!(wide.lower[i] <= narrow.lower[i]);
            assert!(wide.upper[i] >= narrow.upper[i]);
        }
    }

    #[test]
    fn empty_sequence() {
        let e = Envelope::build(&[], 3);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.contains(&[]));
    }
}
