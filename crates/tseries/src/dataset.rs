use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::{Error, Result, TimeSeries};

/// A reference to one subsequence of one series inside a [`Dataset`].
///
/// The ONEX base is built over *all* subsequences of a collection — copying
/// them would square the memory footprint, so everything downstream
/// (grouping, query results) speaks in terms of these light references.
/// `u32` fields keep the struct at 12 bytes; collections with more than
/// 4 billion series or samples per series are out of scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubseqRef {
    /// Index of the series within the dataset.
    pub series: u32,
    /// Start offset of the window within the series.
    pub start: u32,
    /// Window length in samples.
    pub len: u32,
}

impl SubseqRef {
    /// Construct a reference (no bounds check; resolved against a dataset).
    pub fn new(series: u32, start: u32, len: u32) -> Self {
        SubseqRef { series, start, len }
    }

    /// End offset (exclusive) within the series.
    #[inline]
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    /// True when two windows of the *same series* overlap in time.
    /// Windows on different series never overlap.
    pub fn overlaps(&self, other: &SubseqRef) -> bool {
        self.series == other.series && self.start < other.end() && other.start < self.end()
    }
}

impl fmt::Display for SubseqRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}[{}..{}]", self.series, self.start, self.end())
    }
}

/// An ordered collection of named time series.
///
/// Series names must be unique; lookup by name is O(1). The dataset is
/// immutable once handed to the ONEX base builder (the builder borrows it),
/// which is why mutation is limited to `push`.
///
/// Series are reference-counted, so cloning a dataset copies one pointer
/// per series rather than the samples: the engine publishes a grown
/// collection per append and every epoch shares the series it inherited.
///
/// ```
/// use onex_tseries::{Dataset, SubseqRef, TimeSeries};
/// let mut ds = Dataset::new();
/// ds.push(TimeSeries::new("MA", vec![1.0, 2.0, 3.0, 4.0])).unwrap();
/// assert_eq!(ds.id_of("MA"), Some(0));
/// assert_eq!(ds.resolve(SubseqRef::new(0, 1, 2)).unwrap(), &[2.0, 3.0]);
/// assert_eq!(ds.subsequence_count(2, 3), 3 + 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    series: Vec<Arc<TimeSeries>>,
    by_name: HashMap<String, usize>,
}

impl Dataset {
    /// Empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Build a dataset from a vector of series.
    ///
    /// # Errors
    /// Fails with [`Error::InvalidArgument`] when two series share a name.
    pub fn from_series(series: Vec<TimeSeries>) -> Result<Self> {
        let mut ds = Dataset::new();
        for s in series {
            ds.push(s)?;
        }
        Ok(ds)
    }

    /// Append a series.
    ///
    /// # Errors
    /// Fails with [`Error::InvalidArgument`] when the name is already taken.
    pub fn push(&mut self, s: TimeSeries) -> Result<u32> {
        if self.by_name.contains_key(s.name()) {
            return Err(Error::InvalidArgument(format!(
                "duplicate series name {:?}",
                s.name()
            )));
        }
        let id = self.series.len();
        self.by_name.insert(s.name().to_owned(), id);
        self.series.push(Arc::new(s));
        Ok(id as u32)
    }

    /// Number of series.
    #[inline]
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when the dataset holds no series.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Series by positional id.
    #[inline]
    pub fn series(&self, id: u32) -> Option<&TimeSeries> {
        self.series.get(id as usize).map(|s| &**s)
    }

    /// The shared handle of a series: what every clone of this dataset
    /// holds, so a structure that must outlive the dataset (a similarity
    /// group reading its representative in place) can keep the samples
    /// alive without copying them.
    #[inline]
    pub fn shared(&self, id: u32) -> Option<&Arc<TimeSeries>> {
        self.series.get(id as usize)
    }

    /// Series by name.
    pub fn by_name(&self, name: &str) -> Option<&TimeSeries> {
        self.by_name.get(name).map(|&i| &*self.series[i])
    }

    /// Positional id of a named series.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).map(|&i| i as u32)
    }

    /// Iterate over `(id, series)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &TimeSeries)> {
        self.series
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, &**s))
    }

    /// Resolve a [`SubseqRef`] to its sample window.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for a bad series id,
    /// [`Error::OutOfBounds`] for a bad window.
    pub fn resolve(&self, r: SubseqRef) -> Result<&[f64]> {
        let s = self
            .series(r.series)
            .ok_or_else(|| Error::UnknownSeries(format!("#{}", r.series)))?;
        s.subsequence(r.start as usize, r.len as usize)
            .ok_or_else(|| Error::OutOfBounds {
                series: s.name().to_owned(),
                start: r.start as usize,
                len: r.len as usize,
                available: s.len(),
            })
    }

    /// Total number of samples across all series.
    pub fn total_samples(&self) -> usize {
        self.series.iter().map(|s| s.len()).sum()
    }

    /// Number of subsequences with length in `[min_len, max_len]`
    /// (inclusive) across all series. This is the size of the space the
    /// ONEX base compacts, reported by experiment E7.
    pub fn subsequence_count(&self, min_len: usize, max_len: usize) -> usize {
        self.series
            .iter()
            .map(|s| {
                let n = s.len();
                (min_len..=max_len.min(n)).map(|l| n - l + 1).sum::<usize>()
            })
            .sum()
    }

    /// Shortest and longest series lengths, or `None` when empty.
    pub fn length_range(&self) -> Option<(usize, usize)> {
        let mut it = self.series.iter().map(|s| s.len());
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), l| (lo.min(l), hi.max(l))))
    }

    /// One-line-per-series human summary used by the CLI example.
    pub fn summary(&self) -> DatasetSummary {
        DatasetSummary {
            series_count: self.len(),
            total_samples: self.total_samples(),
            length_range: self.length_range(),
        }
    }
}

/// Cheap aggregate facts about a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Number of series.
    pub series_count: usize,
    /// Sum of series lengths.
    pub total_samples: usize,
    /// (min, max) series length, `None` when the dataset is empty.
    pub length_range: Option<(usize, usize)>,
}

impl fmt::Display for DatasetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.length_range {
            Some((lo, hi)) => write!(
                f,
                "{} series, {} samples, lengths {}..={}",
                self.series_count, self.total_samples, lo, hi
            ),
            None => write!(f, "empty dataset"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::from_series(vec![
            TimeSeries::new("a", vec![1.0, 2.0, 3.0]),
            TimeSeries::new("b", vec![4.0, 5.0, 6.0, 7.0]),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let d = ds();
        assert_eq!(d.id_of("b"), Some(1));
        assert_eq!(d.by_name("a").unwrap().values(), &[1.0, 2.0, 3.0]);
        assert!(d.by_name("c").is_none());
        assert_eq!(d.series(1).unwrap().name(), "b");
        assert!(d.series(9).is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = ds();
        let err = d.push(TimeSeries::new("a", vec![0.0])).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn clones_share_series_storage() {
        let d = ds();
        let mut grown = d.clone();
        grown.push(TimeSeries::new("c", vec![8.0])).unwrap();
        assert!(std::ptr::eq(d.series(1).unwrap(), grown.series(1).unwrap()));
        // The shared handle keeps the samples alive past both datasets.
        let handle = Arc::clone(d.shared(1).unwrap());
        assert!(Arc::ptr_eq(&handle, grown.shared(1).unwrap()));
        assert!(d.shared(2).is_none());
        assert_eq!((d.len(), grown.len()), (2, 3), "the original is untouched");
        assert!(d.by_name("c").is_none());
        drop((d, grown));
        assert_eq!(handle.values(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn resolve_subsequences() {
        let d = ds();
        let r = SubseqRef::new(1, 1, 3);
        assert_eq!(d.resolve(r).unwrap(), &[5.0, 6.0, 7.0]);
        assert!(d.resolve(SubseqRef::new(1, 2, 3)).is_err());
        assert!(d.resolve(SubseqRef::new(7, 0, 1)).is_err());
    }

    #[test]
    fn subsequence_counting() {
        let d = ds();
        // series a (n=3): len2 -> 2, len3 -> 1; series b (n=4): len2 -> 3, len3 -> 2.
        assert_eq!(d.subsequence_count(2, 3), 2 + 1 + 3 + 2);
        // max_len clamped to series length.
        assert_eq!(d.subsequence_count(3, 10), 1 + 2 + 1); // a:len3, b:len3+len4
                                                           // empty range.
        assert_eq!(d.subsequence_count(5, 4), 0);
    }

    #[test]
    fn overlap_semantics() {
        let a = SubseqRef::new(0, 0, 5);
        let b = SubseqRef::new(0, 4, 5);
        let c = SubseqRef::new(0, 5, 5);
        let d = SubseqRef::new(1, 0, 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching windows do not overlap");
        assert!(!a.overlaps(&d), "different series never overlap");
    }

    #[test]
    fn summary_reports_ranges() {
        let d = ds();
        let s = d.summary();
        assert_eq!(s.series_count, 2);
        assert_eq!(s.total_samples, 7);
        assert_eq!(s.length_range, Some((3, 4)));
        assert!(s.to_string().contains("3..=4"));
        assert_eq!(Dataset::new().summary().to_string(), "empty dataset");
    }
}
