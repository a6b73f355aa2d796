use onex_distance::Band;
use onex_tseries::SubseqRef;

/// Which indexed lengths a similarity query searches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum LengthSelection {
    /// Only subsequences exactly as long as the query. The default: DTW
    /// already absorbs local misalignment, and the paper's base groups per
    /// length.
    #[default]
    Exact,
    /// The `k` indexed lengths nearest the query length — the engine's
    /// variable-length mode. Candidates are ranked by length-normalised
    /// distance so shorter matches do not win by having fewer terms.
    Nearest(usize),
    /// An explicit inclusive range of lengths.
    Range(usize, usize),
}

impl LengthSelection {
    /// The lengths of `available` a query of `query_len` points searches,
    /// in the order it searches them: nearest the query length first
    /// (so the bound tightens as early as possible), ties to the shorter
    /// length. The searcher asks this of its base.
    pub fn lengths(
        &self,
        query_len: usize,
        available: impl IntoIterator<Item = usize>,
    ) -> Vec<usize> {
        let mut lens: Vec<usize> = available
            .into_iter()
            .filter(|&l| match *self {
                LengthSelection::Exact => l == query_len,
                LengthSelection::Nearest(_) => true,
                LengthSelection::Range(lo, hi) => (lo..=hi).contains(&l),
            })
            .collect();
        lens.sort_by_key(|&l| (l.abs_diff(query_len), l));
        if let LengthSelection::Nearest(k) = *self {
            lens.truncate(k);
        }
        lens
    }
}

/// How many groups have their members scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanBreadth {
    /// Scan every group the ED↔DTW bridge cannot rule out — the result is
    /// provably the best indexed subsequence (under certified radii, i.e.
    /// the `Seed` policy). The library default.
    #[default]
    Exact,
    /// The paper's §3.2 behaviour: rank all representatives by DTW, then
    /// scan the members of only the `g` best groups ("the best match …
    /// is found in the group with the best match representative").
    /// Approximate, and much faster when groups are large — the
    /// compaction/accuracy trade-off of experiments E5/E6/E9.
    TopGroups(usize),
}

/// Options of a similarity query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// Warping constraint for the DTW computations. ONEX's default is
    /// unconstrained ([`Band::Full`]); the constrained setting exists for
    /// the accuracy comparison against UCR-style search (experiment E6).
    pub band: Band,
    /// Lengths to search.
    pub lengths: LengthSelection,
    /// Exact search vs the paper's best-group-only approximation.
    pub breadth: ScanBreadth,
    /// Reject members from their quantised L0 sketch before resolving any
    /// f64 data, at every candidate length that has sketches. The tiers
    /// behind it reject everything it would, so turning it off changes
    /// the work, never the answer (the L0-on/off ablation of E17).
    pub l0_prefilter: bool,
    /// Skip matches from this series entirely (compare MA against *other*
    /// states).
    pub exclude_series: Option<u32>,
    /// Only consider matches from this series (seasonal queries search
    /// within one series).
    pub only_series: Option<u32>,
    /// Skip matches overlapping any of these windows — typically the
    /// query's own position, or previously returned matches when building
    /// a non-overlapping result set.
    pub exclude_windows: Vec<SubseqRef>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            band: Band::Full,
            lengths: LengthSelection::Exact,
            breadth: ScanBreadth::Exact,
            l0_prefilter: true,
            exclude_series: None,
            only_series: None,
            exclude_windows: Vec::new(),
        }
    }
}

impl QueryOptions {
    /// Options with a given band, defaults elsewhere.
    pub fn with_band(band: Band) -> Self {
        QueryOptions {
            band,
            ..QueryOptions::default()
        }
    }

    /// Builder-style length selection.
    pub fn lengths(mut self, sel: LengthSelection) -> Self {
        self.lengths = sel;
        self
    }

    /// Builder-style: skip matches from one series.
    pub fn excluding_series(mut self, id: Option<u32>) -> Self {
        self.exclude_series = id;
        self
    }

    /// Builder-style: only consider matches from one series.
    pub fn within_series(mut self, id: u32) -> Self {
        self.only_series = Some(id);
        self
    }

    /// Builder-style: also skip matches overlapping `window`.
    pub fn excluding_window(mut self, window: SubseqRef) -> Self {
        self.exclude_windows.push(window);
        self
    }

    /// Builder-style: disable the L0 sketch prefilter (ablation).
    pub fn without_l0(mut self) -> Self {
        self.l0_prefilter = false;
        self
    }

    /// Builder-style: the paper's approximation — scan only the `g` groups
    /// with the nearest representatives.
    pub fn top_groups(mut self, g: usize) -> Self {
        self.breadth = ScanBreadth::TopGroups(g.max(1));
        self
    }

    /// True when a series/window filter is set, i.e. when
    /// [`Self::admits`] can say no.
    pub(crate) fn has_filters(&self) -> bool {
        self.exclude_series.is_some()
            || self.only_series.is_some()
            || !self.exclude_windows.is_empty()
    }

    /// True when every candidate of a series in `series` survives the
    /// series/window filters — a block whose members span no more can
    /// count them without asking [`Self::admits`] one by one.
    pub(crate) fn admits_every(&self, series: std::ops::RangeInclusive<u32>) -> bool {
        let hits = |s: u32| series.contains(&s);
        !self.exclude_series.is_some_and(hits)
            && self.only_series.is_none_or(|only| series == (only..=only))
            && !self.exclude_windows.iter().any(|w| hits(w.series))
    }

    /// True when `candidate` survives the series/window filters.
    pub(crate) fn admits(&self, candidate: SubseqRef) -> bool {
        if self.exclude_series == Some(candidate.series) {
            return false;
        }
        if let Some(only) = self.only_series {
            if candidate.series != only {
                return false;
            }
        }
        !self.exclude_windows.iter().any(|w| w.overlaps(&candidate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_optimisations() {
        let o = QueryOptions::default();
        assert!(o.l0_prefilter);
        assert_eq!(o.breadth, ScanBreadth::Exact);
        assert_eq!(o.band, Band::Full);
        assert_eq!(o.lengths, LengthSelection::Exact);
    }

    #[test]
    fn builder_composes() {
        let o = QueryOptions::with_band(Band::SakoeChiba(3))
            .lengths(LengthSelection::Nearest(5))
            .top_groups(2)
            .without_l0();
        assert_eq!(o.band, Band::SakoeChiba(3));
        assert_eq!(o.lengths, LengthSelection::Nearest(5));
        assert_eq!(o.breadth, ScanBreadth::TopGroups(2));
        assert!(!o.l0_prefilter);
    }

    #[test]
    fn length_selection_searches_nearest_first_ties_to_the_shorter() {
        let available = [6, 7, 8, 9, 10, 12];
        let lengths = |sel: LengthSelection, n: usize| sel.lengths(n, available);
        assert_eq!(lengths(LengthSelection::Exact, 11), Vec::<usize>::new());
        assert_eq!(lengths(LengthSelection::Exact, 8), vec![8]);
        assert_eq!(lengths(LengthSelection::Nearest(0), 8), Vec::<usize>::new());
        assert_eq!(
            lengths(LengthSelection::Nearest(100), 8),
            vec![8, 7, 9, 6, 10, 12]
        );
        assert_eq!(lengths(LengthSelection::Nearest(3), 11), vec![10, 12, 9]);
        assert_eq!(
            lengths(LengthSelection::Range(7, 12), 11),
            vec![10, 12, 9, 8, 7]
        );
        assert_eq!(
            lengths(LengthSelection::Range(9, 7), 8),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn filters_admit_and_reject() {
        let mut o = QueryOptions::default();
        let c = SubseqRef::new(2, 10, 5);
        assert!(o.admits(c));
        o.exclude_series = Some(2);
        assert!(!o.admits(c));
        o.exclude_series = None;
        o.only_series = Some(3);
        assert!(!o.admits(c));
        o.only_series = Some(2);
        assert!(o.admits(c));
        o.exclude_windows.push(SubseqRef::new(2, 12, 5));
        assert!(!o.admits(c), "overlapping window rejected");
        o.exclude_windows[0] = SubseqRef::new(2, 15, 5);
        assert!(o.admits(c), "touching window admitted");
        // A series range: every member admitted only when no filter can
        // reach into it.
        assert!(!o.admits_every(2..=2), "a window of series 2 is excluded");
        o.exclude_windows.clear();
        assert!(o.admits_every(2..=2) && !o.admits_every(2..=3), "only 2");
        o.only_series = None;
        o.exclude_series = Some(5);
        assert!(o.admits_every(0..=4) && !o.admits_every(3..=7));
        assert!(QueryOptions::default().admits_every(0..=u32::MAX));
    }
}
