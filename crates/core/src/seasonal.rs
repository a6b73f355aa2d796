//! Seasonal similarity: recurring patterns within one series.
//!
//! Paper §3.3: *"Seasonal similarity queries find repeated patterns within
//! a given time series"*, visualised in the Seasonal View (Fig 4) as
//! alternating coloured segments of one household's electricity use.
//!
//! The ONEX base already contains the answer: a similarity group whose
//! members come from the *same series* at *non-overlapping offsets* is,
//! by construction, a set of mutually similar (within ST) recurrences.
//! The query therefore filters groups instead of re-scanning the signal.

use onex_distance::ed;
use onex_grouping::{GroupId, OnexBase};
use onex_tseries::{Dataset, SubseqRef};

use crate::result::SeasonalPattern;

/// Options for a seasonal (recurring-pattern) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeasonalOptions {
    /// Shortest pattern length considered (defaults to the base minimum).
    pub min_len: Option<usize>,
    /// Longest pattern length considered (defaults to the base maximum).
    pub max_len: Option<usize>,
    /// Minimum number of non-overlapping occurrences for a group to count
    /// as a pattern (≥ 2).
    pub min_occurrences: usize,
    /// Keep at most this many patterns, best first.
    pub max_patterns: usize,
}

impl Default for SeasonalOptions {
    fn default() -> Self {
        SeasonalOptions {
            min_len: None,
            max_len: None,
            min_occurrences: 2,
            max_patterns: 16,
        }
    }
}

/// Extract seasonal patterns of `series_id` from the base.
pub(crate) fn seasonal_patterns(
    dataset: &Dataset,
    base: &OnexBase,
    series_id: u32,
    opts: &SeasonalOptions,
) -> Vec<SeasonalPattern> {
    let min_len = opts.min_len.unwrap_or(0);
    let max_len = opts.max_len.unwrap_or(usize::MAX);
    let min_occ = opts.min_occurrences.max(2);
    let mut patterns = Vec::new();

    for len in base.lengths() {
        if len < min_len || len > max_len {
            continue;
        }
        for (gi, g) in base.groups_for_len(len).iter().enumerate() {
            // Members of this series, ascending by start (admission order
            // within one series is already ascending, but do not rely on it).
            let mut mine: Vec<SubseqRef> = g
                .members()
                .iter()
                .filter(|m| m.series == series_id)
                .collect();
            if mine.len() < min_occ {
                continue;
            }
            mine.sort_by_key(|m| m.start);
            // Greedy maximum set of non-overlapping occurrences.
            let mut picked: Vec<SubseqRef> = Vec::new();
            for m in mine {
                if picked.last().is_none_or(|p| p.end() <= m.start) {
                    picked.push(m);
                }
            }
            if picked.len() < min_occ {
                continue;
            }
            let shape = g.representative().to_vec();
            let tightness = {
                let mut acc = 0.0;
                for &m in &picked {
                    let v = dataset.resolve(m).expect("members resolve");
                    acc += ed(v, &shape) / (len as f64).sqrt();
                }
                acc / picked.len() as f64
            };
            patterns.push(SeasonalPattern {
                len,
                occurrences: picked,
                group: GroupId {
                    len: len as u32,
                    index: gi as u32,
                },
                shape,
                tightness,
            });
        }
    }

    // More occurrences first; among equals, tighter first; stable tiebreak
    // on (len, group) keeps output deterministic.
    patterns.sort_by(|a, b| {
        b.count()
            .cmp(&a.count())
            .then_with(|| a.tightness.total_cmp(&b.tightness))
            .then_with(|| (a.len, a.group.index).cmp(&(b.len, b.group.index)))
    });
    patterns.truncate(opts.max_patterns);
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_grouping::{BaseBuilder, BaseConfig};
    use onex_tseries::gen::planted_motif_series;
    use onex_tseries::{Dataset, TimeSeries};

    fn planted() -> (Dataset, usize, Vec<usize>) {
        let (series, motif, positions) = planted_motif_series(400, 25, 4, 0.15, 77);
        let ds = Dataset::from_series(vec![TimeSeries::new("hh", series)]).unwrap();
        (ds, motif.len(), positions)
    }

    #[test]
    fn rediscovers_planted_motifs() {
        let (ds, motif_len, positions) = planted();
        let cfg = BaseConfig {
            stride: 1,
            ..BaseConfig::new(2.0, motif_len, motif_len)
        };
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        let patterns = seasonal_patterns(&ds, &base, 0, &SeasonalOptions::default());
        assert!(!patterns.is_empty(), "motifs must be found");
        // Low-amplitude background windows also form (large) groups, so the
        // motif is not necessarily ranked first; some returned pattern must
        // cover every planted position (within a few samples of jitter,
        // since neighbouring windows also match).
        let motif_pattern = patterns.iter().find(|pat| {
            positions.iter().all(|&p| {
                pat.occurrences
                    .iter()
                    .any(|o| (o.start as i64 - p as i64).abs() <= 3)
            })
        });
        assert!(
            motif_pattern.is_some(),
            "no pattern covers the planted positions {positions:?}: {patterns:?}"
        );
        assert!(motif_pattern.unwrap().count() >= positions.len());
    }

    #[test]
    fn occurrences_never_overlap() {
        let (ds, motif_len, _) = planted();
        let cfg = BaseConfig::new(2.5, motif_len, motif_len);
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        for p in seasonal_patterns(&ds, &base, 0, &SeasonalOptions::default()) {
            for w in p.occurrences.windows(2) {
                assert!(w[0].end() <= w[1].start, "overlap in {p:?}");
            }
        }
    }

    #[test]
    fn min_occurrences_filters() {
        let (ds, motif_len, _) = planted();
        let cfg = BaseConfig::new(2.0, motif_len, motif_len);
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        let strict = SeasonalOptions {
            min_occurrences: 4,
            ..SeasonalOptions::default()
        };
        for p in seasonal_patterns(&ds, &base, 0, &strict) {
            assert!(p.count() >= 4);
        }
        // min_occurrences below 2 is clamped to 2.
        let loose = SeasonalOptions {
            min_occurrences: 0,
            ..SeasonalOptions::default()
        };
        for p in seasonal_patterns(&ds, &base, 0, &loose) {
            assert!(p.count() >= 2);
        }
    }

    #[test]
    fn wrong_series_finds_nothing() {
        let (ds, motif_len, _) = planted();
        let cfg = BaseConfig::new(2.0, motif_len, motif_len);
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        assert!(seasonal_patterns(&ds, &base, 42, &SeasonalOptions::default()).is_empty());
    }

    #[test]
    fn length_window_restricts_results() {
        let (ds, motif_len, _) = planted();
        let cfg = BaseConfig::new(2.0, motif_len - 2, motif_len + 2);
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        let opts = SeasonalOptions {
            min_len: Some(motif_len),
            max_len: Some(motif_len),
            ..SeasonalOptions::default()
        };
        for p in seasonal_patterns(&ds, &base, 0, &opts) {
            assert_eq!(p.len, motif_len);
        }
    }
}
