//! E18 — cold start: the v2 segment format's lazy column resolve
//! against a v1 full decode.
//!
//! The base is the expensive artefact — the demo's "one-click
//! preprocessing" — so a restarted server wants to *reuse* it, not
//! rebuild it. Both persistence formats make that possible; the
//! question E18 answers is how long the restart keeps a query waiting:
//!
//! 1. **Time to first answer.** The v1 stream must decode every group
//!    of every length column (and re-derive the un-persisted L0
//!    sketches) before the engine exists; a v2 segment validates its
//!    checksums, then [`Onex::open_bytes`] answers the first query
//!    after resolving only the length columns that query's plan
//!    touches. Each row measures bytes-in-memory → first `k_best`
//!    answer down both paths. The v2 full materialisation
//!    ([`Onex::resolve_all`]) is timed too, as the fair "v2 did not
//!    skip the work, it deferred it" context column.
//! 2. **Agreement.** Both cold paths must return the warm engine's
//!    exact top-k (windows and distances) — a base file is a cache,
//!    never an approximation.
//! 3. **Footprint.** File sizes of both formats for the same base
//!    (v2 trades page-alignment padding for fixed strides and the
//!    persisted sketches).
//!
//! The CI guard reads the JSON `summary`: on the largest row the v2
//! first answer must beat the v1 full decode, and every row must
//! agree.
//!
//! [`Onex::open_bytes`]: onex_core::Onex::open_bytes
//! [`Onex::resolve_all`]: onex_core::Onex::resolve_all

use std::time::Duration;

use onex_core::{Match, Onex, QueryOptions};
use onex_grouping::persist::{self, save_v2};
use onex_grouping::BaseConfig;

use crate::harness::{fmt_duration, median_time, Table};
use crate::workloads;

/// Indexed length range: enough columns that decoding all of them
/// (v1) visibly outweighs resolving the one the query needs (v2).
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
    /// Length columns in the base (what v1 decodes eagerly and v2
    /// resolves lazily).
    pub columns: usize,
    /// v1 stream size in bytes.
    pub v1_bytes: usize,
    /// v2 segment size in bytes.
    pub v2_bytes: usize,
    /// Median bytes → first `k_best` answer through the v1 full decode.
    pub v1_first: Duration,
    /// Median bytes → first `k_best` answer through the v2 lazy open.
    pub v2_first: Duration,
    /// Median v2 open + full materialisation (`resolve_all`) — the
    /// deferred work, for context.
    pub v2_full: Duration,
    /// Length columns the v2 first answer actually resolved.
    pub v2_resolved: usize,
    /// Both cold paths returned the warm engine's exact top-k.
    pub agreement: bool,
}

impl ColdStartRow {
    /// First-answer speedup of the v2 lazy open over the v1 decode —
    /// the headline column.
    pub fn first_answer_speedup(&self) -> f64 {
        self.v1_first.as_secs_f64() / self.v2_first.as_secs_f64().max(1e-12)
    }
}

fn same_answers(a: &[Match], b: &[Match]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.subseq == y.subseq && (x.distance - y.distance).abs() < 1e-9)
}

/// Run the sweep: random walks, one warm build per size, then both
/// cold paths re-timed from the same in-memory file images.
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

        let v1_image = {
            let mut out = Vec::new();
            persist::save(&warm.base(), &mut out).expect("writing to memory");
            out
        };
        let v2_image = save_v2(&warm.base());

        // Both cold paths start from bytes already in memory, so the
        // comparison is decode strategy, not disk throughput.
        let mut v1_answer = Vec::new();
        let v1_first = median_time(
            || {
                let base = persist::load_bytes(v1_image.clone()).expect("own bytes");
                let engine = Onex::from_parts(ds.clone(), base).expect("own dataset");
                v1_answer = engine.k_best(&query, K, &opts).expect("valid query").0;
            },
            RUNS,
        );
        let mut v2_answer = Vec::new();
        let mut v2_resolved = 0;
        let v2_first = median_time(
            || {
                let engine = Onex::open_bytes(v2_image.clone(), ds.clone()).expect("own bytes");
                v2_answer = engine.k_best(&query, K, &opts).expect("valid query").0;
                let src = engine
                    .base_source()
                    .expect("cold engines track their source");
                v2_resolved = src.resolved_lengths;
            },
            RUNS,
        );
        let v2_full = median_time(
            || {
                let engine = Onex::open_bytes(v2_image.clone(), ds.clone()).expect("own bytes");
                engine.resolve_all().expect("own bytes");
            },
            RUNS,
        );

        rows.push(ColdStartRow {
            series,
            len,
            columns,
            v1_bytes: v1_image.len(),
            v2_bytes: v2_image.len(),
            v1_first,
            v2_first,
            v2_full,
            v2_resolved,
            agreement: same_answers(&v1_answer, &warm_answer)
                && same_answers(&v2_answer, &warm_answer),
        });
    }
    rows
}

/// Render the sweep as the experiment table.
pub fn table(rows: &[ColdStartRow]) -> Table {
    let mut t = Table::new(
        format!(
            "E18 — cold start from a base file: v1 full decode vs v2 lazy segment \
             open (random walks, lengths {LEN_LO}..={LEN_HI}, k={K}, medians of \
             {RUNS}; 'first answer' is bytes-in-memory → first k_best result)"
        ),
        &[
            "collection",
            "columns",
            "v1 size",
            "v2 size",
            "v1 first answer",
            "v2 first answer",
            "speedup",
            "v2 resolved",
            "v2 full resolve",
            "agreement",
        ],
    );
    for row in rows {
        t.row(vec![
            format!("{}x{}", row.series, row.len),
            row.columns.to_string(),
            format!("{} B", row.v1_bytes),
            format!("{} B", row.v2_bytes),
            fmt_duration(row.v1_first),
            fmt_duration(row.v2_first),
            format!("{:.1}×", row.first_answer_speedup()),
            format!("{}/{}", row.v2_resolved, row.columns),
            fmt_duration(row.v2_full),
            if row.agreement { "yes" } else { "NO" }.into(),
        ]);
    }
    t
}

/// The machine-readable perf record `repro --format json` writes to
/// `BENCH_coldstart.json`. CI's guard reads the `summary` object: the
/// v2 first answer must beat the v1 full decode on the largest row
/// (`v2_first_faster`) and every row must agree (`agreement`).
pub fn json_report(rows: &[ColdStartRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"experiment\":\"e18_coldstart\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"series\":{},\"len\":{},\"columns\":{},\
             \"v1_bytes\":{},\"v2_bytes\":{},\
             \"v1_first_ms\":{:.3},\"v2_first_ms\":{:.3},\
             \"first_answer_speedup\":{:.4},\
             \"v2_resolved\":{},\"v2_full_ms\":{:.3},\"agreement\":{}}}",
            r.series,
            r.len,
            r.columns,
            r.v1_bytes,
            r.v2_bytes,
            r.v1_first.as_secs_f64() * 1e3,
            r.v2_first.as_secs_f64() * 1e3,
            r.first_answer_speedup(),
            r.v2_resolved,
            r.v2_full.as_secs_f64() * 1e3,
            r.agreement,
        );
    }
    let last = rows.last().expect("at least one row");
    let agreement = rows.iter().all(|r| r.agreement);
    let _ = write!(
        out,
        "],\"summary\":{{\"v1_first_ms\":{:.3},\"v2_first_ms\":{:.3},\
         \"v2_first_faster\":{},\"agreement\":{}}}}}",
        last.v1_first.as_secs_f64() * 1e3,
        last.v2_first.as_secs_f64() * 1e3,
        last.v2_first < last.v1_first,
        agreement,
    );
    out.push('\n');
    out
}

/// Standard experiment entry point.
pub fn run(quick: bool) -> Vec<Table> {
    vec![table(&measure(quick))]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_first_answer_beats_v1_decode_and_answers_agree() {
        let rows = measure(true);
        assert_eq!(rows.len(), 1, "quick mode is one size");
        for row in &rows {
            assert!(
                row.agreement,
                "{}x{}: a cold path diverged from the warm engine",
                row.series, row.len
            );
            assert!(
                row.columns > 1,
                "the sweep must index several length columns for laziness to matter"
            );
            // The default query plan is Exact, so the first answer
            // resolves exactly one column out of the many persisted.
            assert_eq!(row.v2_resolved, 1, "{}x{}", row.series, row.len);
            // The acceptance claim: answering from a v2 segment open is
            // strictly faster than the v1 decode-everything path.
            assert!(
                row.v2_first < row.v1_first,
                "{}x{}: v2 first answer {:?} not faster than v1 {:?}",
                row.series,
                row.len,
                row.v2_first,
                row.v1_first
            );
        }
    }

    #[test]
    fn json_report_is_parseable_shape() {
        // Hand-built fixtures: the renderer's shape does not need a
        // second benchmark sweep to be exercised.
        let rows = vec![ColdStartRow {
            series: 12,
            len: 256,
            columns: 17,
            v1_bytes: 40_000,
            v2_bytes: 90_112,
            v1_first: Duration::from_micros(5200),
            v2_first: Duration::from_micros(400),
            v2_full: Duration::from_micros(4800),
            v2_resolved: 1,
            agreement: true,
        }];
        let json = json_report(&rows);
        assert!(json.starts_with("{\"experiment\":\"e18_coldstart\""));
        assert!(json.contains("\"first_answer_speedup\":13.0000"), "{json}");
        assert!(json.contains("\"v2_resolved\":1"), "{json}");
        assert!(
            json.contains(
                "\"summary\":{\"v1_first_ms\":5.200,\"v2_first_ms\":0.400,\
                 \"v2_first_faster\":true,\"agreement\":true}"
            ),
            "{json}"
        );
        assert!(json.trim_end().ends_with("}}"));
    }
}
