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
use crate::harness::{batch_time, ms, record, same_top_k, table, Row, Value};
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
        let queries = workloads::spread_queries(&ds, QUERIES, SUBSEQ_LEN, (3, 17));

        let (engine, _) = Onex::build(ds.clone(), config()).expect("valid config");
        let single = OnexBackend::new(std::sync::Arc::new(engine));
        let single_answers: Vec<_> = queries
            .iter()
            .map(|q| single.k_best(q, K).expect("valid query"))
            .collect();
        let single_batch = batch_time(&single, &queries, K);

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
            let query_batch = batch_time(&sharded, &queries, K);
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

impl ScalingRow {
    /// The row's fields, in the order the table and the record show them:
    /// the wall and critical-path speedups beside the agreement verdict,
    /// so the scale-out trajectory is comparable across machines and
    /// revisions.
    fn fields(&self) -> Row {
        let wall = if self.query_batch.as_nanos() == 0 {
            0.0
        } else {
            self.single_batch.as_secs_f64() / self.query_batch.as_secs_f64()
        };
        vec![
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("shards", self.shards.into()),
            ("subsequences", self.subsequences.into()),
            ("build_ms", ms(self.build)),
            ("build_serial_ms", ms(self.build_serial)),
            ("query_batch_ms", ms(self.query_batch)),
            ("single_batch_ms", ms(self.single_batch)),
            ("wall_speedup", Value::Fixed(wall, 3)),
            (
                "critical_path_speedup",
                Value::Fixed(self.critical_path_speedup, 3),
            ),
            ("agreement", self.agreement.into()),
        ]
    }
}

/// One measurement pass, read as the table, the perf record and the
/// invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    output(&measure(quick))
}

/// The sweep read three ways: the table, `BENCH_scaling.json` (its wall
/// speedups depend on `available_parallelism`) and the invariants.
fn output(rows: &[ScalingRow]) -> ExperimentOutput {
    let fields: Vec<Row> = rows.iter().map(ScalingRow::fields).collect();
    let caption = format!(
        "E13 — sharded scale-out vs the single engine (random walks, \
         length {SUBSEQ_LEN}, Seed policy: exact answers, so agreement \
         is required; critical-path speedup is core-count independent)"
    );
    ExperimentOutput {
        tables: vec![table(caption, &fields)],
        record: Some((
            "BENCH_scaling.json",
            record("e13_scaling", vec![], vec![("rows", Value::Rows(fields))]),
        )),
        violations: check(rows),
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
        crate::experiments::assert_record_shape(
            output(&fixture()),
            "BENCH_scaling.json",
            include_str!("../../../../BENCH_scaling.json"),
        );
    }
}
