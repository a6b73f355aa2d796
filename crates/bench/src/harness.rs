//! Timing and reporting utilities, including the backend-generic query
//! driver every multi-engine experiment shares.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use onex_api::{BackendMatch, BackendStats, SearchOutcome, SimilaritySearch};
use onex_core::Match;

/// A printable experiment table (one per paper table/figure panel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment/table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (each row should match `headers.len()`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.chars().count());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(c.len());
                let _ = write!(s, "{c:<w$} | ");
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", line(&sep, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// What one backend did across a query batch — the backend-generic
/// measurement the multi-engine experiments (E11) and the server share
/// one code path with.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Wall-clock time across all queries.
    pub total_time: Duration,
    /// Best match per query (`None` when the backend found nothing or
    /// rejected the query).
    pub results: Vec<Option<BackendMatch>>,
    /// Work counters accumulated across all queries.
    pub stats: BackendStats,
}

impl BackendRun {
    /// Fraction of candidates dismissed before a distance computation.
    pub fn prune_rate(&self) -> f64 {
        let total = self.stats.examined + self.stats.pruned;
        if total == 0 {
            return 0.0;
        }
        self.stats.pruned as f64 / total as f64
    }
}

/// Run every query through `backend.best_match` via the unified
/// [`SimilaritySearch`] trait, timing the batch and accumulating stats.
/// Queries a backend rejects (e.g. below FRM's window) count as misses
/// rather than aborting the run.
pub fn drive_backend(backend: &dyn SimilaritySearch, queries: &[Vec<f64>]) -> BackendRun {
    let mut results = Vec::with_capacity(queries.len());
    let mut stats = BackendStats::default();
    let start = Instant::now();
    for q in queries {
        match backend.best_match(q) {
            Ok(outcome) => {
                stats += outcome.stats;
                results.push(outcome.best().copied());
            }
            Err(_) => results.push(None),
        }
    }
    BackendRun {
        total_time: start.elapsed(),
        results,
        stats,
    }
}

/// Median wall-clock time of `runs` executions of `f` (after one warm-up).
pub fn median_time<F: FnMut()>(mut f: F, runs: usize) -> Duration {
    let runs = runs.max(1);
    f(); // warm-up
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Whether two backend answers are one top-k: the same windows in the
/// same order, distances within 1e-9.
pub fn same_top_k(a: &SearchOutcome, b: &SearchOutcome) -> bool {
    a.matches.len() == b.matches.len()
        && a.matches.iter().zip(&b.matches).all(|(x, y)| {
            (x.series, x.start, x.len) == (y.series, y.start, y.len)
                && (x.distance - y.distance).abs() < 1e-9
        })
}

/// [`same_top_k`] for the engine's own matches.
pub fn same_matches(a: &[Match], b: &[Match]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.subseq == y.subseq && (x.distance - y.distance).abs() < 1e-9)
}

/// Cores this process may run on — the workers a base construction
/// spreads its lengths over.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Microseconds a unit of `work` units took in `elapsed` (0 for none).
pub fn us_per(elapsed: Duration, work: usize) -> f64 {
    elapsed.as_secs_f64() * 1e6 / work.max(1) as f64
}

/// Pretty duration: µs under 1 ms, ms under 1 s, else seconds.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1_000_000.0)
    }
}

/// Ratio formatted as `N.NN×`.
pub fn fmt_speedup(baseline: Duration, candidate: Duration) -> String {
    if candidate.as_nanos() == 0 {
        return "∞×".into();
    }
    format!("{:.2}×", baseline.as_secs_f64() / candidate.as_secs_f64())
}

/// Where SVG artefacts go (created on demand).
pub fn artefact_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("repro");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Write an artefact file, returning its path for the report.
pub fn write_artefact(name: &str, content: &str) -> std::path::PathBuf {
    let path = artefact_dir().join(name);
    std::fs::write(&path, content).expect("artefact directory is writable");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| longer-name | 2"));
        assert!(s.contains("| a           | 1"));
        assert!(s.contains("-----------"));
    }

    #[test]
    fn median_time_is_positive() {
        let d = median_time(
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
            3,
        );
        assert!(d.as_nanos() > 0 || d.as_nanos() == 0); // smoke: no panic
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn speedup_formatting() {
        let s = fmt_speedup(Duration::from_millis(100), Duration::from_millis(25));
        assert_eq!(s, "4.00×");
        assert_eq!(fmt_speedup(Duration::from_millis(1), Duration::ZERO), "∞×");
    }
}
