//! E14 — query-global pruning: the shared k-th-best bound across shards
//! against independent per-shard bounds and the single engine.
//!
//! E13 established that sharding preserves answers and cuts the critical
//! path, but with *independent* per-shard `BestK` bounds every shard had
//! to fill its own k-heap from scratch — total touched candidates across
//! shards ran ~2× the single engine's. The shared [`SharedBound`]
//! threads one query-global k-th-best threshold through every shard's
//! LB-Keogh/early-abandon cascade (and live into in-flight DTWs), so a
//! bound discovered anywhere prunes everywhere. E14 answers the three
//! questions that matter about it:
//!
//! 1. **Total work** — reported at two granularities. *Touched
//!    candidates* (examined + pruned + distance computations) is the
//!    coarse per-candidate metric E13 established; [`check`] holds the
//!    shared-bound ratio ≤ 1.3× on every shared row and ≤ 1.2× on the
//!    largest. *DTW computations* is where the
//!    independent-bound overhead actually lives — every shard filling
//!    its own k-heap from scratch runs ~2.7–4.6× the single engine's
//!    DTWs on these workloads; the shared bound roughly halves that
//!    (each shard still pays for establishing its own candidates, so the
//!    DTW ratio floors above 1×).
//! 2. **Agreement** — the merged top-k must still equal the single
//!    engine's, windows and distances, on every row (perturbed queries
//!    keep distances distinct, so agreement is well-defined).
//! 3. **Pool reuse** — the fan-out runs on the engine's persistent
//!    worker pool: across the whole measured batch, `threads_spawned`
//!    must not move (checked per row).
//!
//! Wall-clock is reported for context but not asserted — with shards
//! interleaving on few cores it tracks total work only loosely.
//!
//! [`SharedBound`]: onex_api::SharedBound

use std::time::Duration;

use onex_api::{BackendStats, SimilaritySearch};
use onex_core::backends::OnexBackend;
use onex_core::scale::ShardedEngine;
use onex_core::Onex;
use onex_grouping::{BaseConfig, RepresentativePolicy};

use super::{broken, ExperimentOutput};
use crate::harness::{batch_time, ms, record, same_top_k, table, Row, Value};
use crate::workloads;

/// Query/subsequence length for every E14 row.
const SUBSEQ_LEN: usize = 16;
/// Matches requested per query.
const K: usize = 5;
/// Queries per batch.
const QUERIES: usize = 4;
/// Shards on every sharded row (the E13 acceptance configuration).
const SHARDS: usize = 4;

/// Exact configuration (Seed policy): answers are provably the best
/// indexed subsequences, so sharded/single agreement is required.
fn config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.5, SUBSEQ_LEN, SUBSEQ_LEN)
    }
}

/// One (dataset size, bound mode) measurement of the sharded engine
/// against the single-engine baseline.
pub struct PruningRow {
    /// Series count of the workload.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// `true`: one query-global bound across all shards (the new
    /// behaviour); `false`: independent per-shard bounds (the old one).
    pub shared: bool,
    /// Single-engine touched candidates across the batch.
    pub single_touched: usize,
    /// Sharded total touched candidates across the batch (all shards).
    pub sharded_touched: usize,
    /// Single-engine DTW computations across the batch.
    pub single_dtw: usize,
    /// Sharded total DTW computations across the batch (all shards).
    pub sharded_dtw: usize,
    /// Median single-engine wall-clock for the batch.
    pub single_batch: Duration,
    /// Median sharded wall-clock for the same batch.
    pub sharded_batch: Duration,
    /// Whether every merged top-k equalled the single-engine top-k
    /// (windows and distances).
    pub agreement: bool,
    /// Worker threads spawned by the sharded engine across the whole
    /// measurement — must equal the shard count (pool reuse, no
    /// per-query spawns).
    pub threads_spawned: usize,
}

impl PruningRow {
    /// Sharded total work relative to the single engine — the headline
    /// column (was ~2× with independent bounds; the shared bound must
    /// hold it near 1×).
    pub fn touched_ratio(&self) -> f64 {
        self.sharded_touched as f64 / (self.single_touched as f64).max(1.0)
    }

    /// Sharded total DTW computations relative to the single engine —
    /// the fine-grained view of the same overhead.
    pub fn dtw_ratio(&self) -> f64 {
        self.sharded_dtw as f64 / (self.single_dtw as f64).max(1.0)
    }

    /// The row's fields, in the order the table and the record show them.
    fn fields(&self) -> Row {
        vec![
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("shards", SHARDS.into()),
            ("shared_bound", self.shared.into()),
            ("single_touched", self.single_touched.into()),
            ("sharded_touched", self.sharded_touched.into()),
            ("touched_ratio", Value::Fixed(self.touched_ratio(), 4)),
            ("single_dtw", self.single_dtw.into()),
            ("sharded_dtw", self.sharded_dtw.into()),
            ("dtw_ratio", Value::Fixed(self.dtw_ratio(), 4)),
            ("single_batch_ms", ms(self.single_batch)),
            ("sharded_batch_ms", ms(self.sharded_batch)),
            ("agreement", self.agreement.into()),
            ("pool_threads_spawned", self.threads_spawned.into()),
        ]
    }
}

fn touches(s: &BackendStats) -> usize {
    s.examined + s.pruned + s.distance_computations
}

/// Run the sweep: random walks (the many-groups regime where query cost
/// scales with subsequence count), both bound modes per size, 4 shards.
pub fn measure(quick: bool) -> Vec<PruningRow> {
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
        let single_touched: usize = single_answers.iter().map(|o| touches(&o.stats)).sum();
        let single_dtw: usize = single_answers
            .iter()
            .map(|o| o.stats.distance_computations)
            .sum();
        let single_batch = batch_time(&single, &queries, K);

        for shared in [false, true] {
            let (sharded, _) = ShardedEngine::build(&ds, config(), SHARDS).expect("valid config");
            let sharded = sharded.sharing_bound(shared);
            let mut agreement = true;
            let mut sharded_touched = 0usize;
            let mut sharded_dtw = 0usize;
            for (q, reference) in queries.iter().zip(&single_answers) {
                let merged = sharded.k_best(q, K).expect("valid query");
                agreement &= same_top_k(&merged, reference);
                sharded_touched += touches(&merged.stats);
                sharded_dtw += merged.stats.distance_computations;
            }
            let sharded_batch = batch_time(&sharded, &queries, K);
            rows.push(PruningRow {
                series,
                len,
                shared,
                single_touched,
                sharded_touched,
                single_dtw,
                sharded_dtw,
                single_batch,
                sharded_batch,
                agreement,
                threads_spawned: sharded.pool_stats().threads_spawned,
            });
        }
    }
    rows
}

/// One measurement pass, read as the table, the perf record and the
/// invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    output(&measure(quick))
}

/// The sweep read three ways: the table, `BENCH_pruning.json` (its batch
/// wall-clocks depend on how many shards run at once:
/// `available_parallelism`) and the invariants.
fn output(rows: &[PruningRow]) -> ExperimentOutput {
    let fields: Vec<Row> = rows.iter().map(PruningRow::fields).collect();
    let caption = format!(
        "E14 — query-global pruning: shared vs independent shard bounds \
         (random walks, length {SUBSEQ_LEN}, {SHARDS} shards, k={K}, \
         Seed policy: agreement required; touched ratio is sharded \
         total touches / single-engine touches)"
    );
    ExperimentOutput {
        tables: vec![table(caption, &fields)],
        record: Some((
            "BENCH_pruning.json",
            record("e14_pruning", vec![], vec![("rows", Value::Rows(fields))]),
        )),
        violations: check(rows),
    }
}

/// E14's invariants, stated once:
///
/// * every merged top-k equals the single engine's, work is counted, and
///   the pool spawned one worker per shard, never more;
/// * every shared-bound row touches at most 1.3× the single engine's
///   candidates, the largest at most 1.2× (independent-bound rows are
///   the before-picture), and no more candidates or DTWs than the
///   independent row of its size;
/// * summed over the sweep, sharing strictly cuts DTWs. The per-row
///   saving depends on shard interleaving; for the sum to tie, every
///   shard of every query would have to finish before seeing a peer's
///   bound.
pub fn check(rows: &[PruningRow]) -> Vec<String> {
    let mut out = Vec::new();
    let (mut shared_dtw, mut independent_dtw) = (0, 0);
    for r in rows {
        let at = format!("{}x{} shared={}", r.series, r.len, r.shared);
        let (touched, dtw, ratio) = (r.sharded_touched, r.sharded_dtw, r.touched_ratio());
        let size = (r.series, r.len);
        let ind = rows.iter().find(|i| !i.shared && (i.series, i.len) == size);
        let (ind_touched, ind_dtw) = ind.map_or((0, 0), |i| (i.sharded_touched, i.sharded_dtw));
        let pool = r.threads_spawned == SHARDS;
        let counted = r.single_touched > 0 && touched > 0;
        let capped = !r.shared || ratio <= 1.3;
        let costs = r.shared && (touched > ind_touched || dtw > ind_dtw);
        let vs = format!("touched {touched}/{ind_touched}, DTWs {dtw}/{ind_dtw}");
        out.extend(broken([
            (r.agreement, format!("{at}: top-k diverged")),
            (pool, format!("{at}: {} pool threads", r.threads_spawned)),
            (counted, format!("{at}: no touched candidate counted")),
            (capped, format!("{at}: touched ratio {ratio:.3} > 1.3")),
            (!costs, format!("{at}: {vs} against independent")),
        ]));
        if r.shared {
            shared_dtw += dtw;
            independent_dtw += ind_dtw;
        }
    }
    let shared = rows.iter().filter(|r| r.shared);
    let large = shared.max_by_key(|r| r.series * r.len).map(|r| {
        let (at, ratio) = (format!("{}x{}", r.series, r.len), r.touched_ratio());
        (
            ratio <= 1.2,
            format!("{at}: largest touched ratio {ratio:.3} > 1.2"),
        )
    });
    let saved = format!("sharing saved no DTW: {shared_dtw} against {independent_dtw}");
    out.extend(broken([
        large.unwrap_or((false, "no shared-bound row".into())),
        (shared_dtw < independent_dtw, saved),
    ]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_bound_collapses_total_work_to_the_single_engine() {
        let rows = measure(true);
        assert_eq!(rows.len(), 4, "2 sizes × 2 bound modes");
        assert_eq!(check(&rows), Vec::<String>::new());
    }

    /// Hand-built rows: neither the renderer nor the check needs a
    /// second benchmark sweep to be exercised.
    fn fixture() -> Vec<PruningRow> {
        [false, true]
            .iter()
            .flat_map(|&shared| {
                [(12usize, 96usize), (24, 160)].map(|(series, len)| PruningRow {
                    series,
                    len,
                    shared,
                    single_touched: 1000,
                    sharded_touched: if shared { 1016 } else { 1090 },
                    single_dtw: 100,
                    sharded_dtw: if shared { 164 } else { 458 },
                    single_batch: Duration::from_micros(431),
                    sharded_batch: Duration::from_micros(610),
                    agreement: true,
                    threads_spawned: SHARDS,
                })
            })
            .collect()
    }

    #[test]
    fn check_names_a_broken_invariant() {
        assert_eq!(check(&fixture()), Vec::<String>::new());
        let mut broken = fixture();
        broken[2].sharded_touched = 1250;
        crate::experiments::assert_broken(&check(&broken), "12x96 shared=true: touched 1250");
        assert_eq!(
            check(&[]),
            ["no shared-bound row", "sharing saved no DTW: 0 against 0"]
        );
    }

    #[test]
    fn json_report_is_parseable_shape() {
        crate::experiments::assert_record_shape(
            output(&fixture()),
            "BENCH_pruning.json",
            include_str!("../../../../BENCH_pruning.json"),
        );
    }
}
