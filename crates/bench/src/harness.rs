//! Timing and reporting utilities, including the backend-generic query
//! driver every multi-engine experiment shares, and the one row type E12
//! to E19 state their fields in: a [`Row`] renders both the printed
//! [`table`] and the JSON perf [`record`].

use std::fmt::{self, Write as _};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{BackendMatch, BackendStats, SearchOutcome, SimilaritySearch};
use onex_core::{Match, Onex};
use onex_grouping::BaseConfig;
use onex_net::{AcceptOptions, ShardServer};
use onex_tseries::Dataset;

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

/// One field of a [`Row`]: printed the same in the table and the record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer.
    Int(u64),
    /// A float printed with this many decimal places.
    Fixed(f64, usize),
    /// A number printed with `{}`: as many places as it needs.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// A label (written into the record as it is, unescaped).
    Str(&'static str),
    /// A list of integers, `[1, 2, 3]`.
    Ints(Vec<usize>),
    /// An array of rows (a record's `rows`, `kernels`, ...).
    Rows(Vec<Row>),
    /// A nested object (e15's `uncompacting`).
    Object(Row),
}

/// One experiment row: its fields, in record order, stated once.
pub type Row = Vec<(&'static str, Value)>;

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

/// Milliseconds, three places: every `_ms` field.
pub fn ms(d: Duration) -> Value {
    Value::Fixed(d.as_secs_f64() * 1e3, 3)
}

/// Microseconds, three places: every `_us` field.
pub fn us(d: Duration) -> Value {
    Value::Fixed(d.as_secs_f64() * 1e6, 3)
}

/// The record's text of a value; a label is bare, as a table cell shows it.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Fixed(v, places) => write!(f, "{v:.places$}"),
            Value::Num(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
            Value::Ints(v) => write!(f, "{v:?}"),
            Value::Rows(rows) => {
                f.write_str("[")?;
                for (i, row) in rows.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { "," })?;
                    write_object(f, row)?;
                }
                f.write_str("]")
            }
            Value::Object(row) => write_object(f, row),
        }
    }
}

fn write_object(f: &mut fmt::Formatter<'_>, row: &Row) -> fmt::Result {
    f.write_str("{")?;
    for (i, (key, value)) in row.iter().enumerate() {
        f.write_str(if i == 0 { "" } else { "," })?;
        match value {
            Value::Str(label) => write!(f, "\"{key}\":\"{label}\"")?,
            value => write!(f, "\"{key}\":{value}")?,
        }
    }
    f.write_str("}")
}

/// `rows` as a printed table: the keys head the columns, and each cell
/// reads as the record writes it.
pub fn table(title: impl Into<String>, rows: &[Row]) -> Table {
    let keys: Vec<&str> = rows
        .first()
        .map_or_else(Vec::new, |row| row.iter().map(|(key, _)| *key).collect());
    let mut t = Table::new(title, &keys);
    for row in rows {
        t.row(row.iter().map(|(_, value)| value.to_string()).collect());
    }
    t
}

/// The perf record `repro --format json` writes, one line of JSON:
/// `experiment`, the `lead` fields, `available_parallelism` (what every
/// wall-clock in it depends on), then `fields` — scalars, row arrays or
/// a nested object.
pub fn record(experiment: &'static str, lead: Row, fields: Row) -> String {
    let mut all = vec![("experiment", Value::Str(experiment))];
    all.extend(lead);
    all.push(("available_parallelism", threads().into()));
    all.extend(fields);
    format!("{}\n", Value::Object(all))
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
    median((0..runs).map(|_| {
        let t = Instant::now();
        f();
        t.elapsed()
    }))
}

/// Median wall-clock of one batch: `search` answering every query's `k`
/// best, three batches after a warm-up.
pub fn batch_time(search: &dyn SimilaritySearch, queries: &[Vec<f64>], k: usize) -> Duration {
    median_time(
        || {
            for q in queries {
                search.k_best(q, k).expect("valid query");
            }
        },
        3,
    )
}

/// The middle of `samples` (the upper one of an even count).
///
/// # Panics
/// On no samples, or on a pair that does not compare (a NaN).
pub fn median<T: Copy + PartialOrd>(samples: impl IntoIterator<Item = T>) -> T {
    let mut samples: Vec<T> = samples.into_iter().collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples compare"));
    samples[samples.len() / 2]
}

/// Whether two backend answers are one top-k: the same windows in the
/// same order, the same distance bits.
pub fn same_top_k(a: &SearchOutcome, b: &SearchOutcome) -> bool {
    a.matches.len() == b.matches.len()
        && a.matches.iter().zip(&b.matches).all(|(x, y)| {
            (x.series, x.start, x.len) == (y.series, y.start, y.len)
                && x.distance.to_bits() == y.distance.to_bits()
        })
}

/// [`same_top_k`] for the engine's own matches.
pub fn same_matches(a: &[Match], b: &[Match]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.subseq == y.subseq && x.distance.to_bits() == y.distance.to_bits())
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

/// Serve a base of `ds` built under `config` from a shard server on an
/// ephemeral loopback port, detached for the process lifetime; returns
/// its address.
pub fn spawn_shard(ds: Dataset, config: BaseConfig, accept: AcceptOptions) -> String {
    let (engine, _) = Onex::build(ds, config).expect("valid config");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("a bound port").to_string();
    let server = ShardServer::new(Arc::new(engine));
    std::thread::spawn(move || server.serve_with(listener, &accept));
    addr
}

/// A loopback address nobody listens on any more: a dead peer.
pub fn closed_port() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    listener.local_addr().expect("a bound port").to_string()
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
    fn each_value_kind_prints_as_the_record_writes_it() {
        let row: Row = vec![
            ("int", 42usize.into()),
            ("fixed", Value::Fixed(2.0 / 3.0, 4)),
            ("ms", ms(Duration::from_micros(1500))),
            ("us", us(Duration::from_nanos(2500))),
            ("num", Value::Num(0.5)),
            ("whole", Value::Num(1.0)),
            ("bool", true.into()),
            ("str", "walk".into()),
            ("ints", Value::Ints(vec![21, 18, 20])),
        ];
        let cells: Vec<String> = row.iter().map(|(_, v)| v.to_string()).collect();
        let want = ["42", "0.6667", "1.500", "2.500", "0.5", "1", "true", "walk"];
        assert_eq!(cells[..8], want);
        assert_eq!(cells[8], "[21, 18, 20]");
        let nested = vec![("rows", Value::Rows(vec![row.clone(), row.clone()]))];
        let json = record("demo", vec![("lead", "x".into())], nested);
        let object = "{\"int\":42,\"fixed\":0.6667,\"ms\":1.500,\"us\":2.500,\"num\":0.5,\
                      \"whole\":1,\"bool\":true,\"str\":\"walk\",\"ints\":[21, 18, 20]}";
        let parallelism = threads();
        assert_eq!(
            json,
            format!(
                "{{\"experiment\":\"demo\",\"lead\":\"x\",\
                 \"available_parallelism\":{parallelism},\"rows\":[{object},{object}]}}\n"
            )
        );
        let t = table("demo", &[row]);
        assert_eq!(t.headers[0], "int");
        assert_eq!(t.rows[0][7], "walk");
        assert_eq!(
            Value::Object(vec![("u", Value::Object(vec![("a", 1usize.into())]))]).to_string(),
            "{\"u\":{\"a\":1}}"
        );
    }

    #[test]
    fn the_median_is_the_upper_middle() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4, 1, 3, 2]), 3);
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
