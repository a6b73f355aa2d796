use onex_tseries::{Dataset, SubseqRef};

use crate::BaseConfig;

/// The subsequence space of a dataset for a given configuration: every
/// `(series, start, len)` window with `len` in the configured range and
/// `start` a multiple of the stride.
///
/// The paper's challenge 1 is exactly the size of this space ("Given the
/// huge number of such subsequences, performing similarity comparisons
/// among them is impractical"); the base exists to compact it.
#[derive(Debug, Clone)]
pub struct SubsequenceSpace {
    min_len: usize,
    max_len: usize,
    stride: usize,
    /// Series lengths snapshot (the space is valid for the dataset it was
    /// derived from).
    series_lens: Vec<usize>,
}

impl SubsequenceSpace {
    /// Derive the space of `dataset` under `config`.
    pub fn new(dataset: &Dataset, config: &BaseConfig) -> Self {
        SubsequenceSpace {
            min_len: config.min_len,
            max_len: config.max_len,
            stride: config.stride,
            series_lens: dataset.iter().map(|(_, s)| s.len()).collect(),
        }
    }

    /// Lengths that have at least one subsequence, ascending.
    pub fn lengths(&self) -> Vec<usize> {
        let longest = self.series_lens.iter().copied().max().unwrap_or(0);
        (self.min_len..=self.max_len.min(longest))
            .filter(|&l| self.count_for_len(l) > 0)
            .collect()
    }

    /// Number of subsequences of exactly `len`.
    pub fn count_for_len(&self, len: usize) -> usize {
        (0..self.series_lens.len())
            .map(|sid| self.count_for_series_len(sid, len))
            .sum()
    }

    /// Number of windows of `len` in series `sid` (0 when the length is
    /// out of range or the series is too short). With
    /// [`Self::refs_for_series_len`], the single owner of the
    /// window-enumeration formula every construction path shares.
    pub fn count_for_series_len(&self, sid: usize, len: usize) -> usize {
        if len < self.min_len || len > self.max_len {
            return 0;
        }
        match self.series_lens.get(sid) {
            Some(&n) if n >= len => (n - len) / self.stride + 1,
            _ => 0,
        }
    }

    /// The windows of `len` in series `sid`, start-ascending. Taken
    /// series by series this is the construction contract's order: a
    /// batch build and an incremental one admit a length's windows
    /// series-major then start-ascending, which is what makes them
    /// bit-identical.
    pub fn refs_for_series_len(
        &self,
        sid: usize,
        len: usize,
    ) -> impl Iterator<Item = SubseqRef> + '_ {
        let stride = self.stride;
        (0..self.count_for_series_len(sid, len))
            .map(move |k| SubseqRef::new(sid as u32, (k * stride) as u32, len as u32))
    }

    /// Total number of subsequences across all lengths — the cardinality
    /// the compaction ratio (experiment E7) is measured against.
    pub fn total(&self) -> usize {
        self.lengths().iter().map(|&l| self.count_for_len(l)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every window of `len`, series-major then start-ascending.
    fn refs_for_len(space: &SubsequenceSpace, len: usize) -> Vec<SubseqRef> {
        let series = 0..space.series_lens.len();
        series
            .flat_map(|sid| space.refs_for_series_len(sid, len))
            .collect()
    }
    use onex_tseries::TimeSeries;

    fn dataset() -> Dataset {
        Dataset::from_series(vec![
            TimeSeries::new("a", vec![0.0; 6]),
            TimeSeries::new("b", vec![0.0; 4]),
            TimeSeries::new("c", vec![0.0; 2]),
        ])
        .unwrap()
    }

    #[test]
    fn counts_match_enumeration() {
        let cfg = BaseConfig::new(1.0, 2, 5);
        let space = SubsequenceSpace::new(&dataset(), &cfg);
        for len in 2..=6 {
            let listed: Vec<_> = refs_for_len(&space, len);
            assert_eq!(listed.len(), space.count_for_len(len), "len={len}");
        }
        // len 2: a has 5, b has 3, c has 1 → 9.
        assert_eq!(space.count_for_len(2), 9);
        // len 5: only a, 2 windows.
        assert_eq!(space.count_for_len(5), 2);
        // len 6 is outside the configured range.
        assert_eq!(space.count_for_len(6), 0);
        assert_eq!(space.total(), 9 + 6 + 4 + 2);
        assert_eq!(space.lengths(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn stride_thins_the_space() {
        let cfg = BaseConfig {
            stride: 2,
            ..BaseConfig::new(1.0, 2, 3)
        };
        let space = SubsequenceSpace::new(&dataset(), &cfg);
        // len 2, stride 2: a → starts 0,2,4 (3), b → 0,2 (2), c → 0 (1).
        assert_eq!(space.count_for_len(2), 6);
        let refs: Vec<_> = refs_for_len(&space, 2);
        assert!(refs.iter().all(|r| r.start % 2 == 0));
    }

    #[test]
    fn enumeration_order_is_series_major() {
        let cfg = BaseConfig::new(1.0, 3, 3);
        let space = SubsequenceSpace::new(&dataset(), &cfg);
        let refs: Vec<_> = refs_for_len(&space, 3);
        let expected: Vec<SubseqRef> = vec![
            SubseqRef::new(0, 0, 3),
            SubseqRef::new(0, 1, 3),
            SubseqRef::new(0, 2, 3),
            SubseqRef::new(0, 3, 3),
            SubseqRef::new(1, 0, 3),
            SubseqRef::new(1, 1, 3),
        ];
        assert_eq!(refs, expected);
    }

    #[test]
    fn empty_dataset_is_empty_space() {
        let cfg = BaseConfig::new(1.0, 2, 8);
        let space = SubsequenceSpace::new(&Dataset::new(), &cfg);
        assert_eq!(space.total(), 0);
        assert!(space.lengths().is_empty());
    }

    #[test]
    fn max_len_clamps_to_longest_series() {
        let cfg = BaseConfig::new(1.0, 2, 100);
        let space = SubsequenceSpace::new(&dataset(), &cfg);
        assert_eq!(space.lengths().last(), Some(&6));
    }
}
