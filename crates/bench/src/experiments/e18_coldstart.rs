//! E18 — cold start: a base image decoded whole beside its dataset.
//!
//! The base is the expensive artefact — the demo's "one-click
//! preprocessing" — so a restarted server wants to *reuse* it, not
//! rebuild it. [`Onex::open_bytes`] validates an image's checksums and
//! decodes every column before it answers anything, so the engine it
//! returns is the one the build made; the question E18 answers is how
//! long that keeps the first query waiting, and what the image costs:
//!
//! 1. **Time to first answer.** Each row measures bytes-in-memory →
//!    opened engine, and bytes-in-memory → first `k_best` answer.
//! 2. **Same base, same answers.** The opened engine's base is the warm
//!    one (`==`, sketches included), and it returns the warm engine's
//!    exact top-k (windows and distances) — a base image is a cache,
//!    never an approximation.
//! 3. **Footprint.** Image bytes, and bytes per indexed subsequence (the
//!    image stores no representative the dataset holds).
//!
//! [`check`] states what a run must show.
//!
//! [`Onex::open_bytes`]: onex_core::Onex::open_bytes

use std::time::Duration;

use onex_core::{Onex, QueryOptions};
use onex_grouping::persist::save_v2;
use onex_grouping::BaseConfig;

use super::{broken, ExperimentOutput};
use crate::harness::{median_time, ms, record, same_matches, table, Row, Value};
use crate::workloads;

/// Indexed length range: several columns, as a restarted server holds.
const LEN_LO: usize = 8;
const LEN_HI: usize = 24;
/// Matches requested per query.
const K: usize = 5;
/// Timing repetitions per measure (medians reported).
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
    /// Median bytes → opened engine: the image validated and decoded
    /// (each timed run also drops its engine).
    pub open: Duration,
    /// Median bytes → first `k_best` answer, the open included.
    pub first_answer: Duration,
    /// The opened engine's base is the warm one, sketches included.
    pub same_base: bool,
    /// The opened engine returned the warm engine's exact top-k.
    pub agreement: bool,
}

impl ColdStartRow {
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
            ("open_ms", ms(self.open)),
            ("first_answer_ms", ms(self.first_answer)),
            ("same_base", self.same_base.into()),
            ("agreement", self.agreement.into()),
        ]
    }
}

/// Run the sweep: random walks, one warm build per size, then the open
/// and the first answer re-timed from the same in-memory image.
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
        let image = save_v2(&warm.base());

        // Every run starts from bytes already in memory, so the timings
        // are the decode, not disk throughput.
        let open = || Onex::open_bytes(image.clone(), ds.clone()).expect("own bytes");
        let open_time = median_time(|| drop(open()), RUNS);
        let mut answer = Vec::new();
        let first_answer = median_time(
            || answer = open().k_best(&query, K, &opts).expect("valid query").0,
            RUNS,
        );
        let opened = open();

        rows.push(ColdStartRow {
            series,
            len,
            columns: warm.base().lengths().count(),
            subsequences: warm.base().member_count(),
            image_bytes: image.len(),
            open: open_time,
            first_answer,
            same_base: *opened.base() == *warm.base()
                && opened.base().sketches() == warm.base().sketches(),
            agreement: same_matches(&answer, &warm_answer),
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
        "E18 — cold start from a base image, decoded whole (random walks, \
         lengths {LEN_LO}..={LEN_HI}, k={K}, medians of {RUNS}; 'open' is \
         bytes-in-memory → opened engine, 'first answer' → first k_best result)"
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

/// E18's invariants, stated once. On every row the opened engine's base
/// is the warm one, and it returns the warm engine's exact top-k.
pub fn check(rows: &[ColdStartRow]) -> Vec<String> {
    let mut out: Vec<String> = broken([(!rows.is_empty(), "no rows".into())]).collect();
    for r in rows {
        let at = format!("{}x{}", r.series, r.len);
        out.extend(broken([
            (
                r.same_base,
                format!("{at}: the decoded base is not the warm one"),
            ),
            (r.agreement, format!("{at}: the cold top-k diverged")),
        ]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_opened_engine_is_the_warm_one() {
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
            open: Duration::from_micros(5000),
            first_answer: Duration::from_micros(5200),
            same_base: true,
            agreement: true,
        }]
    }

    #[test]
    fn check_names_a_broken_invariant() {
        assert_eq!(check(&rows()), Vec::<String>::new());
        let mut broken = rows();
        broken[0].same_base = false;
        crate::experiments::assert_broken(&check(&broken), "12x256: the decoded base");
        let mut broken = rows();
        broken[0].agreement = false;
        crate::experiments::assert_broken(&check(&broken), "12x256: the cold top-k diverged");
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
