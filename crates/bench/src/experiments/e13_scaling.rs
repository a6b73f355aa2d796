//! E13 — scaling out: the sharded engine against the single engine,
//! shard count × dataset size.
//!
//! The ROADMAP's north star is serving heavy concurrent traffic; the
//! first scale-out step is `onex_core::scale::ShardedEngine`, which
//! partitions the collection, builds per-shard bases in parallel and
//! fans each query across the shards. E13 answers the two questions that
//! matter about it:
//!
//! 1. **Agreement** — the merged top-k must equal the single-engine
//!    top-k (windows and distances). Sharding is an execution strategy,
//!    never a semantic change; the `agreement` column must read `yes` on
//!    every row.
//! 2. **Speedup** — reported two ways. *Wall-clock* speedup is what this
//!    machine delivers and depends on its core count (on a single-core
//!    CI runner it hovers near 1×). *Critical-path* speedup is
//!    machine-independent: the single engine's **touched candidates**
//!    (examined + pruned + distance computations — every touch costs at
//!    least a lower-bound evaluation, so touches are the per-query cost
//!    proxy) divided by the slowest shard's touches. That ratio is the
//!    speedup the decomposition makes available once cores exist, and
//!    is what [`check`] holds (≥ 2× at 4 shards).

use std::time::Duration;

use onex_api::SimilaritySearch;
use onex_core::backends::OnexBackend;
use onex_core::scale::ShardedEngine;
use onex_core::Onex;
use onex_grouping::{BaseConfig, RepresentativePolicy};

use super::{broken, ExperimentOutput};
use crate::harness::{fmt_duration, fmt_speedup, median_time, same_top_k, threads, Table};
use crate::workloads;

/// Query/subsequence length for every E13 row (single length keeps the
/// comparison about fan-out, not length mix).
const SUBSEQ_LEN: usize = 16;
/// Matches requested per query.
const K: usize = 5;
/// Queries per batch.
const QUERIES: usize = 4;

/// Exact configuration (Seed policy): both the single engine and every
/// shard return the provably best indexed subsequences, so the merged
/// answers must agree bit for bit.
fn config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.5, SUBSEQ_LEN, SUBSEQ_LEN)
    }
}

/// One (dataset size, shard count) measurement.
pub struct ScalingRow {
    /// Series count of the workload.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// Shards the engine was split into (1 = the sharded wrapper around
    /// a single partition, the fan-out-overhead baseline).
    pub shards: usize,
    /// Subsequences indexed across all shards.
    pub subsequences: usize,
    /// Wall-clock of the parallel shard build.
    pub build: Duration,
    /// Sum of per-shard build times (what a sequential build would cost).
    pub build_serial: Duration,
    /// Median wall-clock of one query batch (`QUERIES` queries, k=`K`).
    pub query_batch: Duration,
    /// Single-engine wall-clock for the same batch (shared per size).
    pub single_batch: Duration,
    /// Single-engine touched candidates / slowest-shard touches,
    /// averaged over the batch: the machine-independent speedup the
    /// decomposition offers (a touch = one candidate examined, pruned or
    /// distance-evaluated; each costs at least a lower-bound check).
    pub critical_path_speedup: f64,
    /// Whether every merged top-k equalled the single-engine top-k
    /// (windows and distances).
    pub agreement: bool,
}

/// Run the sweep: random walks (the many-groups regime where query cost
/// scales with subsequence count — the workload sharding exists for),
/// shard counts 1/2/4 per size.
pub fn measure(quick: bool) -> Vec<ScalingRow> {
    let sizes: &[(usize, usize)] = if quick {
        &[(12, 96), (24, 160)]
    } else {
        &[(12, 96), (24, 160), (48, 256)]
    };
    let mut rows = Vec::new();
    for &(series, len) in sizes {
        let ds = workloads::walk_collection(series, len);
        let queries: Vec<Vec<f64>> = (0..QUERIES)
            .map(|i| {
                let sid = (i * 3 % series) as u32;
                let name = ds.series(sid).unwrap().name().to_owned();
                let start = (i * 17) % (len - SUBSEQ_LEN);
                // Perturbed queries keep distances distinct, so ordering
                // is unambiguous and agreement is well-defined.
                workloads::perturbed_query(&ds, &name, start, SUBSEQ_LEN, 0.05)
            })
            .collect();

        let (engine, _) = Onex::build(ds.clone(), config()).expect("valid config");
        let single = OnexBackend::new(std::sync::Arc::new(engine));
        let single_answers: Vec<_> = queries
            .iter()
            .map(|q| single.k_best(q, K).expect("valid query"))
            .collect();
        let single_batch = median_time(
            || {
                for q in &queries {
                    let _ = single.k_best(q, K).expect("valid query");
                }
            },
            3,
        );

        for shards in [1usize, 2, 4] {
            let (sharded, report) =
                ShardedEngine::build(&ds, config(), shards).expect("valid config");
            let mut agreement = true;
            let mut critical_sum = 0.0;
            for (q, reference) in queries.iter().zip(&single_answers) {
                let merged = sharded.k_best(q, K).expect("valid query");
                agreement &= same_top_k(&merged, reference);
                let touches =
                    |s: &onex_api::BackendStats| s.examined + s.pruned + s.distance_computations;
                let per_shard = sharded.shard_outcomes(q, K).expect("valid query");
                let slowest = per_shard
                    .iter()
                    .map(|o| touches(&o.stats))
                    .max()
                    .unwrap_or(1)
                    .max(1);
                critical_sum += touches(&reference.stats) as f64 / slowest as f64;
            }
            let query_batch = median_time(
                || {
                    for q in &queries {
                        let _ = sharded.k_best(q, K).expect("valid query");
                    }
                },
                3,
            );
            rows.push(ScalingRow {
                series,
                len,
                shards,
                subsequences: report.subsequences(),
                build: report.elapsed,
                build_serial: report.serial_equivalent(),
                query_batch,
                single_batch,
                critical_path_speedup: critical_sum / queries.len() as f64,
                agreement,
            });
        }
    }
    rows
}

/// Render the sweep as the experiment table.
pub fn table(rows: &[ScalingRow]) -> Table {
    let mut t = Table::new(
        format!(
            "E13 — sharded scale-out vs the single engine (random walks, \
             length {SUBSEQ_LEN}, Seed policy: exact answers, so agreement \
             is required; critical-path speedup is core-count independent)"
        ),
        &[
            "collection",
            "shards",
            "subseqs",
            "build",
            "build serial-equiv",
            "query batch",
            "wall speedup",
            "critical-path speedup",
            "agreement",
        ],
    );
    for row in rows {
        t.row(vec![
            format!("{}x{}", row.series, row.len),
            row.shards.to_string(),
            row.subsequences.to_string(),
            fmt_duration(row.build),
            fmt_duration(row.build_serial),
            fmt_duration(row.query_batch),
            fmt_speedup(row.single_batch, row.query_batch),
            format!("{:.2}×", row.critical_path_speedup),
            if row.agreement { "yes" } else { "NO" }.into(),
        ]);
    }
    t
}

/// The machine-readable perf record `repro --format json` writes to
/// `BENCH_scaling.json`: per-row wall and critical-path speedups plus
/// the agreement verdict, so the scale-out trajectory is comparable
/// across machines and revisions. The header records
/// `available_parallelism`: the wall speedups depend on it.
pub fn json_report(rows: &[ScalingRow]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"experiment\":\"e13_scaling\",\"available_parallelism\":{},\"rows\":[",
        threads()
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let wall = if r.query_batch.as_nanos() == 0 {
            0.0
        } else {
            r.single_batch.as_secs_f64() / r.query_batch.as_secs_f64()
        };
        let _ = write!(
            out,
            "{{\"series\":{},\"len\":{},\"shards\":{},\"subsequences\":{},\
             \"build_ms\":{:.3},\"build_serial_ms\":{:.3},\
             \"query_batch_ms\":{:.3},\"single_batch_ms\":{:.3},\
             \"wall_speedup\":{:.3},\"critical_path_speedup\":{:.3},\
             \"agreement\":{}}}",
            r.series,
            r.len,
            r.shards,
            r.subsequences,
            r.build.as_secs_f64() * 1e3,
            r.build_serial.as_secs_f64() * 1e3,
            r.query_batch.as_secs_f64() * 1e3,
            r.single_batch.as_secs_f64() * 1e3,
            wall,
            r.critical_path_speedup,
            r.agreement,
        );
    }
    out.push_str("]}\n");
    out
}

/// One measurement pass, read as the table, the perf record and the
/// invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    let rows = measure(quick);
    ExperimentOutput {
        tables: vec![table(&rows)],
        record: Some(("BENCH_scaling.json", json_report(&rows))),
        violations: check(&rows),
    }
}

/// E13's invariants, stated once: every merged top-k equals the single
/// engine's, with work counted; the largest 4-shard row's critical path
/// is at least 2× shorter; and every 1-shard row's stays within 0.5–1.5×
/// of the single engine's.
pub fn check(rows: &[ScalingRow]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        let at = format!("{}x{} @ {} shards", r.series, r.len, r.shards);
        let cp = r.critical_path_speedup;
        let one = r.shards != 1 || (0.5..=1.5).contains(&cp);
        out.extend(broken([
            (r.agreement, format!("{at}: top-k diverged")),
            (r.subsequences > 0 && cp > 0.0, format!("{at}: no work")),
            (one, format!("{at}: critical path {cp:.2}×, not 0.5–1.5×")),
        ]));
    }
    let four = rows.iter().filter(|r| r.shards == 4);
    let large = four.max_by_key(|r| r.subsequences).map(|r| {
        let (at, cp) = (format!("{}x{}", r.series, r.len), r.critical_path_speedup);
        (
            cp >= 2.0,
            format!("{at} @ 4 shards: critical path {cp:.2}×, under 2×"),
        )
    });
    out.extend(broken([large.unwrap_or((false, "no 4-shard row".into()))]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_broken;

    #[test]
    fn sharded_agrees_everywhere_and_halves_the_critical_path() {
        let rows = measure(true);
        assert_eq!(rows.len(), 6, "2 sizes × 3 shard counts");
        assert_eq!(check(&rows), Vec::<String>::new());
    }

    fn row(series: usize, len: usize, shards: usize, critical_path_speedup: f64) -> ScalingRow {
        ScalingRow {
            series,
            len,
            shards,
            subsequences: (len - SUBSEQ_LEN + 1) * series,
            build: Duration::from_micros(1272),
            build_serial: Duration::from_micros(1160),
            query_batch: Duration::from_micros(519),
            single_batch: Duration::from_micros(463),
            critical_path_speedup,
            agreement: true,
        }
    }

    fn fixture() -> Vec<ScalingRow> {
        vec![
            row(12, 96, 1, 1.0),
            row(12, 96, 4, 3.3),
            row(24, 160, 4, 3.9),
        ]
    }

    #[test]
    fn check_names_a_broken_invariant() {
        assert_eq!(check(&fixture()), Vec::<String>::new());
        let mut broken = fixture();
        broken[2].critical_path_speedup = 1.9;
        assert_broken(&check(&broken), "24x160 @ 4 shards: critical path 1.90×");
        assert_eq!(check(&[]), ["no 4-shard row"]);
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let rows = fixture();
        let json = json_report(&rows);
        assert!(json.starts_with("{\"experiment\":\"e13_scaling\",\"available_parallelism\":"));
        assert_eq!(json.matches("\"shards\":").count(), rows.len());
        assert!(json.contains("\"wall_speedup\":0.892,\"critical_path_speedup\":1.000,"));
        assert_eq!(json.matches("\"agreement\":true").count(), rows.len());
        assert!(json.trim_end().ends_with("]}"));
    }
}
