//! Brute-force subsequence scans.
//!
//! Two roles: (a) the **ground truth** the accuracy experiment (E6)
//! measures everything against — an exact scan of the whole subsequence
//! space under unconstrained DTW; (b) the **raw-data baseline** of the
//! speed experiment (E5), i.e. what the paper means by applying DTW "over
//! the raw data" instead of the ONEX base.
//!
//! The scan honours the same options (band, filters) as the engine so the
//! two are comparable candidate-for-candidate.

use onex_api::{validate_query, BestK, OnexError};
use onex_distance::dtw::dtw_early_abandon_sq_with_cb;
use onex_tseries::{Dataset, SubseqRef};

use crate::search::{normalize, raw_bound_sq};
use crate::QueryOptions;

/// A scan hit: where, raw DTW distance, and the cross-length ranking value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanHit {
    /// Matching window.
    pub subseq: SubseqRef,
    /// DTW distance (root scale).
    pub distance: f64,
    /// Length-normalised distance (ranking value).
    pub normalized: f64,
}

/// Scan every subsequence of the given lengths (at the given stride) and
/// return the `k` best matches, best first.
///
/// `early_abandon = true` seeds each DTW with the current k-th best (the
/// honest "smart brute force" baseline); `false` runs every DP to
/// completion (the naive baseline the paper's challenge 1 describes).
///
/// # Errors
/// [`OnexError::InvalidQuery`] when `k == 0` or the query is empty or
/// non-finite; [`OnexError::InvalidConfig`] when `stride == 0`.
pub fn scan_k(
    dataset: &Dataset,
    query: &[f64],
    lengths: &[usize],
    stride: usize,
    opts: &QueryOptions,
    k: usize,
    early_abandon: bool,
) -> Result<Vec<ScanHit>, OnexError> {
    validate_query(query, k)?;
    if stride == 0 {
        return Err(OnexError::invalid_config("stride must be positive"));
    }
    let n = query.len();
    let mut best: BestK<(SubseqRef, u64)> = BestK::new(k);
    for &len in lengths {
        if len == 0 {
            continue;
        }
        for (sid, series) in dataset.iter() {
            let total = series.len();
            if total < len {
                continue;
            }
            let mut start = 0usize;
            while start + len <= total {
                let candidate = SubseqRef::new(sid, start as u32, len as u32);
                start += stride;
                if !opts.admits(candidate) {
                    continue;
                }
                let values = series
                    .subsequence(candidate.start as usize, len)
                    .expect("enumeration stays in bounds");
                // `∞` while fewer than k are kept.
                let bound_sq = if early_abandon {
                    raw_bound_sq(best.bound(), (n.max(len) as f64).sqrt(), 0.0)
                } else {
                    f64::INFINITY
                };
                let d_sq = dtw_early_abandon_sq_with_cb(query, values, opts.band, bound_sq, None);
                if d_sq.is_infinite() {
                    continue;
                }
                let distance = d_sq.sqrt();
                best.offer(normalize(distance, n, len), (candidate, distance.to_bits()));
            }
        }
    }
    let hits = best
        .into_sorted()
        .into_iter()
        .map(|(normalized, (subseq, distance))| ScanHit {
            subseq,
            distance: f64::from_bits(distance),
            normalized,
        });
    Ok(hits.collect())
}

/// The single best match (see [`scan_k`]).
///
/// # Errors
/// Same conditions as [`scan_k`].
pub fn scan_best(
    dataset: &Dataset,
    query: &[f64],
    lengths: &[usize],
    stride: usize,
    opts: &QueryOptions,
    early_abandon: bool,
) -> Result<Option<ScanHit>, OnexError> {
    Ok(
        scan_k(dataset, query, lengths, stride, opts, 1, early_abandon)?
            .into_iter()
            .next(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_tseries::TimeSeries;

    fn ds() -> Dataset {
        Dataset::from_series(vec![
            TimeSeries::new("a", vec![0.0, 1.0, 2.0, 1.0, 0.0, -1.0]),
            TimeSeries::new("b", vec![5.0, 5.0, 5.0, 5.0]),
        ])
        .unwrap()
    }

    #[test]
    fn finds_the_embedded_window() {
        let d = ds();
        let query = [1.0, 2.0, 1.0];
        let hit = scan_best(&d, &query, &[3], 1, &QueryOptions::default(), true)
            .unwrap()
            .unwrap();
        assert_eq!(hit.subseq, SubseqRef::new(0, 1, 3));
        assert!(hit.distance < 1e-9);
    }

    #[test]
    fn abandoning_and_plain_agree() {
        let d = ds();
        let query = [4.9, 5.2, 5.0];
        let a = scan_best(&d, &query, &[3, 4], 1, &QueryOptions::default(), true)
            .unwrap()
            .unwrap();
        let b = scan_best(&d, &query, &[3, 4], 1, &QueryOptions::default(), false)
            .unwrap()
            .unwrap();
        assert_eq!(a.subseq, b.subseq);
        assert!((a.distance - b.distance).abs() < 1e-12);
        assert_eq!(a.subseq.series, 1, "matches the flat series");
    }

    #[test]
    fn k_results_are_sorted_and_distinct() {
        let d = ds();
        let query = [0.0, 1.0, 2.0];
        let hits = scan_k(&d, &query, &[3], 1, &QueryOptions::default(), 4, true).unwrap();
        assert_eq!(hits.len(), 4);
        for w in hits.windows(2) {
            assert!(w[0].normalized <= w[1].normalized);
        }
        let set: std::collections::HashSet<_> = hits.iter().map(|h| h.subseq).collect();
        assert_eq!(set.len(), 4);
    }

    /// Windows at the same distance come back in window order, not scan
    /// order, and the k-th place goes to the smallest window however the
    /// scan met them: the rule of `BestK`, which the engine keeps its
    /// matches in too.
    #[test]
    fn tied_windows_sort_by_window_and_the_smallest_window_keeps_the_kth() {
        let d = Dataset::from_series(vec![TimeSeries::new("flat", vec![1.0; 6])]).unwrap();
        let query = [1.0; 3];
        let opts = QueryOptions::default();
        let windows = |k| -> Vec<(u32, u32)> {
            let hits = scan_k(&d, &query, &[4, 3], 1, &opts, k, true).unwrap();
            assert!(hits.iter().all(|h| h.normalized == 0.0));
            hits.iter()
                .map(|h| (h.subseq.start, h.subseq.len))
                .collect()
        };
        // Every window ties at 0; length 4 is scanned before length 3.
        assert_eq!(
            windows(7),
            [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 3)]
        );
        assert_eq!(windows(2), [(0, 3), (0, 4)]);
    }

    #[test]
    fn filters_apply() {
        let d = ds();
        let query = [5.0, 5.0, 5.0];
        let opts = QueryOptions::default().excluding_series(Some(1));
        let hit = scan_best(&d, &query, &[3], 1, &opts, true)
            .unwrap()
            .unwrap();
        assert_eq!(hit.subseq.series, 0, "series b excluded");
        let only = QueryOptions::default().within_series(1);
        let hit2 = scan_best(&d, &query, &[3], 1, &only, true)
            .unwrap()
            .unwrap();
        assert_eq!(hit2.subseq.series, 1);
    }

    #[test]
    fn stride_skips_offsets() {
        let d = ds();
        let query = [0.0, 1.0, 2.0];
        let hits = scan_k(&d, &query, &[3], 2, &QueryOptions::default(), 10, false).unwrap();
        assert!(hits.iter().all(|h| h.subseq.start % 2 == 0));
    }

    #[test]
    fn impossible_requests_return_empty() {
        let d = ds();
        assert!(
            scan_best(&d, &[1.0, 2.0], &[100], 1, &QueryOptions::default(), true)
                .unwrap()
                .is_none()
        );
        assert!(
            scan_best(&d, &[1.0], &[], 1, &QueryOptions::default(), true)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn malformed_requests_error_instead_of_panicking() {
        let d = ds();
        let opts = QueryOptions::default();
        assert!(matches!(
            scan_k(&d, &[], &[3], 1, &opts, 1, true),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            scan_k(&d, &[1.0], &[3], 1, &opts, 0, true),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            scan_k(&d, &[1.0], &[3], 0, &opts, 1, true),
            Err(OnexError::InvalidConfig(_))
        ));
    }
}
