//! E18 — cold start: a base image's lazy column resolve against decoding
//! every column before the first answer.
//!
//! The base is the expensive artefact — the demo's "one-click
//! preprocessing" — so a restarted server wants to *reuse* it, not
//! rebuild it. [`Onex::open_bytes`] validates an image's checksums and
//! answers the first query after resolving only the length columns that
//! query's plan touches; the question E18 answers is how long that keeps
//! a query waiting, and what the image costs:
//!
//! 1. **Time to first answer.** Each row measures bytes-in-memory →
//!    first `k_best` answer down two paths over the same image: the lazy
//!    one, and an eager one that resolves every column
//!    ([`Onex::resolve_all`]) before it asks — "the lazy path did not
//!    skip the work, it deferred it".
//! 2. **Agreement.** Both cold paths must return the warm engine's
//!    exact top-k (windows and distances) — a base image is a cache,
//!    never an approximation.
//! 3. **Footprint.** Image bytes, and bytes per indexed subsequence (the
//!    image stores no representative the dataset holds).
//!
//! [`check`] states what a run must show.
//!
//! [`Onex::open_bytes`]: onex_core::Onex::open_bytes
//! [`Onex::resolve_all`]: onex_core::Onex::resolve_all

use std::time::Duration;

use onex_core::{Onex, QueryOptions};
use onex_grouping::persist::save_v2;
use onex_grouping::BaseConfig;

use super::{broken, ExperimentOutput};
use crate::harness::{fmt_duration, median_time, ms, record, same_matches, table, Row, Value};
use crate::workloads;

/// Indexed length range: enough columns that resolving all of them
/// visibly outweighs resolving the one the query needs.
const LEN_LO: usize = 8;
const LEN_HI: usize = 24;
/// Matches requested per query.
const K: usize = 5;
/// Timing repetitions per path (medians reported).
const RUNS: usize = 5;

/// Group radius — loose enough to keep construction fast; cold-start
/// timing only cares about the base's size, not its quality.
fn config() -> BaseConfig {
    BaseConfig::new(1.0, LEN_LO, LEN_HI)
}

/// One (dataset size) cold-start measurement.
pub struct ColdStartRow {
    /// Series count of the workload.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// Length columns in the base.
    pub columns: usize,
    /// Subsequences the base indexes.
    pub subsequences: usize,
    /// Image size in bytes.
    pub image_bytes: usize,
    /// Median bytes → first `k_best` answer, every column resolved first.
    pub eager_first: Duration,
    /// Median bytes → first `k_best` answer through the lazy open.
    pub lazy_first: Duration,
    /// Length columns the lazy first answer actually resolved.
    pub lazy_resolved: usize,
    /// Both cold paths returned the warm engine's exact top-k.
    pub agreement: bool,
}

impl ColdStartRow {
    /// First-answer speedup of the lazy open over the eager one — the
    /// headline column.
    pub fn first_answer_speedup(&self) -> f64 {
        self.eager_first.as_secs_f64() / self.lazy_first.as_secs_f64().max(1e-12)
    }

    /// Image bytes per indexed subsequence.
    pub fn bytes_per_subsequence(&self) -> f64 {
        self.image_bytes as f64 / self.subsequences.max(1) as f64
    }

    /// The row's fields, in the order the table and the record show them.
    fn fields(&self) -> Row {
        vec![
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("columns", self.columns.into()),
            ("subsequences", self.subsequences.into()),
            ("image_bytes", self.image_bytes.into()),
            (
                "bytes_per_subsequence",
                Value::Fixed(self.bytes_per_subsequence(), 1),
            ),
            ("eager_first_ms", ms(self.eager_first)),
            ("lazy_first_ms", ms(self.lazy_first)),
            (
                "first_answer_speedup",
                Value::Fixed(self.first_answer_speedup(), 4),
            ),
            ("lazy_resolved", self.lazy_resolved.into()),
            ("agreement", self.agreement.into()),
        ]
    }
}

/// Run the sweep: random walks, one warm build per size, then both cold
/// paths re-timed from the same in-memory image.
pub fn measure(quick: bool) -> Vec<ColdStartRow> {
    let sizes: &[(usize, usize)] = if quick {
        &[(12, 256)]
    } else {
        &[(12, 256), (24, 512), (48, 768)]
    };
    let opts = QueryOptions::default();
    let mut rows = Vec::new();
    for &(series, len) in sizes {
        let ds = workloads::walk_collection(series, len);
        let name = ds.series(0).unwrap().name().to_owned();
        let query = workloads::perturbed_query(&ds, &name, 7, (LEN_LO + LEN_HI) / 2, 0.05);

        let (warm, _) = Onex::build(ds.clone(), config()).expect("valid config");
        let (warm_answer, _) = warm.k_best(&query, K, &opts).expect("valid query");
        let columns = warm.base().lengths().count();
        let subsequences = warm.base().member_count();
        let image = save_v2(&warm.base());

        // Both cold paths start from bytes already in memory, so the
        // comparison is decode strategy, not disk throughput.
        let mut eager_answer = Vec::new();
        let eager_first = median_time(
            || {
                let engine = Onex::open_bytes(image.clone(), ds.clone()).expect("own bytes");
                engine.resolve_all().expect("own bytes");
                eager_answer = engine.k_best(&query, K, &opts).expect("valid query").0;
            },
            RUNS,
        );
        let mut lazy_answer = Vec::new();
        let mut lazy_resolved = 0;
        let lazy_first = median_time(
            || {
                let engine = Onex::open_bytes(image.clone(), ds.clone()).expect("own bytes");
                lazy_answer = engine.k_best(&query, K, &opts).expect("valid query").0;
                let src = engine
                    .base_source()
                    .expect("cold engines track their source");
                lazy_resolved = src.resolved_lengths;
            },
            RUNS,
        );

        rows.push(ColdStartRow {
            series,
            len,
            columns,
            subsequences,
            image_bytes: image.len(),
            eager_first,
            lazy_first,
            lazy_resolved,
            agreement: same_matches(&eager_answer, &warm_answer)
                && same_matches(&lazy_answer, &warm_answer),
        });
    }
    rows
}

/// One measurement pass, read as the table, the perf record and the
/// invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    output(&measure(quick))
}

/// The sweep read three ways: the table, `BENCH_coldstart.json` and the
/// invariants.
fn output(rows: &[ColdStartRow]) -> ExperimentOutput {
    let fields: Vec<Row> = rows.iter().map(ColdStartRow::fields).collect();
    let caption = format!(
        "E18 — cold start from a base image: every column resolved first vs \
         the lazy open (random walks, lengths {LEN_LO}..={LEN_HI}, k={K}, medians \
         of {RUNS}; 'first answer' is bytes-in-memory → first k_best result)"
    );
    ExperimentOutput {
        tables: vec![table(caption, &fields)],
        record: Some((
            "BENCH_coldstart.json",
            record("e18_coldstart", vec![], vec![("rows", Value::Rows(fields))]),
        )),
        violations: check(rows),
    }
}

/// E18's invariants, stated once. On every row both cold paths return the
/// warm engine's exact top-k; the first answer (an `Exact` plan) resolves
/// one of several length columns; and answering from the lazy open is
/// strictly faster than resolving every column first.
pub fn check(rows: &[ColdStartRow]) -> Vec<String> {
    let mut out: Vec<String> = broken([(!rows.is_empty(), "no rows".into())]).collect();
    for r in rows {
        let at = format!("{}x{}", r.series, r.len);
        let (resolved, columns) = (r.lazy_resolved, r.columns);
        let one = columns > 1 && resolved == 1;
        let (lazy, eager) = (fmt_duration(r.lazy_first), fmt_duration(r.eager_first));
        out.extend(broken([
            (r.agreement, format!("{at}: a cold top-k diverged")),
            (
                one,
                format!("{at}: resolved {resolved} of {columns} columns"),
            ),
            (
                r.lazy_first < r.eager_first,
                format!("{at}: lazy {lazy}, eager {eager}"),
            ),
        ]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_first_answer_beats_eager_and_answers_agree() {
        let rows = measure(true);
        assert_eq!(rows.len(), 1, "quick mode is one size");
        assert_eq!(check(&rows), Vec::<String>::new());
    }

    fn rows() -> Vec<ColdStartRow> {
        vec![ColdStartRow {
            series: 12,
            len: 256,
            columns: 17,
            subsequences: 48_000,
            image_bytes: 2_688_000,
            eager_first: Duration::from_micros(5200),
            lazy_first: Duration::from_micros(400),
            lazy_resolved: 1,
            agreement: true,
        }]
    }

    #[test]
    fn check_names_a_broken_invariant() {
        assert_eq!(check(&rows()), Vec::<String>::new());
        let mut broken = rows();
        broken[0].lazy_resolved = 17;
        crate::experiments::assert_broken(&check(&broken), "resolved 17 of 17 columns");
        assert_eq!(check(&[]), ["no rows"]);
    }

    #[test]
    fn json_report_is_parseable_shape() {
        crate::experiments::assert_record_shape(
            output(&rows()),
            "BENCH_coldstart.json",
            include_str!("../../../../BENCH_coldstart.json"),
        );
    }
}
