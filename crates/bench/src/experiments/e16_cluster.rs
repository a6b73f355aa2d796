//! E16 — distributed ONEX: the cross-process [`ClusterEngine`] over
//! loopback shard servers against the in-process sharded engine and the
//! single engine, with the bound-gossip ablation.
//!
//! E14 established that one query-global bound collapses the sharded
//! engine's total work towards the single engine's — but there the bound
//! travelled through a shared atomic. Across processes it travels by
//! **gossip**: the client seeds each shard with its current bound, shard
//! servers stream tighten notifications as their local search improves,
//! and the client pushes each shard's discoveries onward to the others
//! mid-query. E16 answers the distributed versions of E14's questions:
//!
//! 1. **Does gossip cut remote work?** Every row runs the same query
//!    batch through two clusters over the *same* shard servers — gossip
//!    on and gossip off — and compares total remote DTW computations.
//!    Gossip can only tighten (the bound is monotone), so per-round
//!    `gossip ≤ no-gossip` holds up to scheduling noise; the measured
//!    win depends on how much of a shard's search is still ahead of it
//!    when a peer's discovery lands (two loopback hops after it is made),
//!    so rows accumulate rounds until the strict aggregate win shows
//!    (bounded — see `MAX_ROUNDS`). Queries are length-64 so a shard has
//!    DTWs left to save by then even in release builds.
//! 2. **Agreement** — the cluster's merged top-k (gossip on and off)
//!    must equal the single engine's, windows and distances: gossiped
//!    bounds must never prune a true answer.
//! 3. **Failure behaviour** — a cluster pointed at a dead address must
//!    fail with a typed network error, fast (recorded once per sweep:
//!    `dead_peer_typed`, `dead_peer_ms`).
//!
//! [`check`] states what a run must show. Wall-clock for the single
//! engine, in-process shards, and both cluster modes is reported for
//! context but not checked — it depends on how many cores the four shard
//! searches of a query get (`available_parallelism` in the record's
//! header).
//!
//! [`ClusterEngine`]: onex_net::ClusterEngine

use std::sync::Arc;
use std::time::Duration;

use onex_api::{OnexError, SimilaritySearch};
use onex_core::backends::OnexBackend;
use onex_core::fanout::partition;
use onex_core::scale::ShardedEngine;
use onex_core::Onex;
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_net::{AcceptOptions, ClusterEngine, RemoteConfig};
use onex_tseries::Dataset;

use super::{broken, ExperimentOutput};
use crate::harness::{
    batch_time, closed_port, fmt_duration, ms, record, same_top_k, spawn_shard, table, Row, Value,
};
use crate::workloads;

/// Query/subsequence length — long enough that a shard still has DTWs
/// ahead of it when gossip arrives, in release builds too (the whole
/// point of the ablation).
const SUBSEQ_LEN: usize = 64;
/// Matches requested per query.
const K: usize = 5;
/// Queries per batch.
const QUERIES: usize = 3;
/// Shard servers per cluster row.
const SHARDS: usize = 4;
/// Upper bound on work-accumulation rounds per row: gossip's DTW saving
/// is timing-dependent (a round where every shard finishes before its
/// peers' first discovery arrives saves nothing), so rows accumulate
/// batches until the strict aggregate win shows, up to this many.
const MAX_ROUNDS: usize = 5;

/// Exact configuration (Seed policy): answers are provably the best
/// indexed subsequences, so cluster/single agreement is required.
fn config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.5, SUBSEQ_LEN, SUBSEQ_LEN)
    }
}

/// Round-robin partition (the identity [`ClusterEngine`] assumes)
/// served by one shard server per part — two workers each, because both
/// clusters of the ablation hold one persistent connection each.
fn spawn_fleet(ds: &Dataset, n: usize) -> Vec<String> {
    let accept = AcceptOptions {
        workers: 2,
        queue: 4,
        ..AcceptOptions::default()
    };
    partition(ds, n)
        .into_iter()
        .map(|part| spawn_shard(part, config(), accept.clone()))
        .collect()
}

/// One (dataset size) measurement of the cluster against the in-process
/// engines, with the gossip ablation folded in.
pub struct ClusterRow {
    /// Series count of the workload.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// Single-engine DTW computations across the accumulated rounds.
    pub single_dtw: usize,
    /// Cluster total remote DTW computations with gossip on.
    pub gossip_dtw: usize,
    /// Cluster total remote DTW computations with gossip off
    /// (independent per-shard bounds — the ablation).
    pub nogossip_dtw: usize,
    /// Batch rounds accumulated before the strict gossip win showed
    /// (== `MAX_ROUNDS` when it never did).
    pub rounds: usize,
    /// Median single-engine wall-clock for one batch.
    pub single_batch: Duration,
    /// Median in-process sharded wall-clock for one batch.
    pub sharded_batch: Duration,
    /// Median gossip-on cluster wall-clock for one batch.
    pub gossip_batch: Duration,
    /// Median gossip-off cluster wall-clock for one batch.
    pub nogossip_batch: Duration,
    /// Whether every cluster top-k (both modes) equalled the single
    /// engine's (windows and distances).
    pub agreement: bool,
    /// Tighten frames pushed to shard servers across the measurement.
    pub gossip_sent: usize,
    /// Tighten frames received from shard servers across the measurement.
    pub gossip_received: usize,
    /// Worker threads spawned by the gossip cluster across the whole
    /// measurement — must equal the shard count (pool reuse).
    pub threads_spawned: usize,
}

impl ClusterRow {
    /// Remote DTW with gossip relative to without — the headline column
    /// (< 1 means the gossiped bound pruned work the private bounds
    /// could not).
    pub fn gossip_dtw_ratio(&self) -> f64 {
        self.gossip_dtw as f64 / (self.nogossip_dtw as f64).max(1.0)
    }

    /// The row's fields, in the order the table and the record show them.
    fn fields(&self) -> Row {
        vec![
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("shards", SHARDS.into()),
            ("single_dtw", self.single_dtw.into()),
            ("gossip_dtw", self.gossip_dtw.into()),
            ("nogossip_dtw", self.nogossip_dtw.into()),
            ("gossip_dtw_ratio", Value::Fixed(self.gossip_dtw_ratio(), 4)),
            ("rounds", self.rounds.into()),
            ("single_batch_ms", ms(self.single_batch)),
            ("sharded_batch_ms", ms(self.sharded_batch)),
            ("cluster_batch_ms", ms(self.gossip_batch)),
            ("nogossip_batch_ms", ms(self.nogossip_batch)),
            ("gossip_sent", self.gossip_sent.into()),
            ("gossip_received", self.gossip_received.into()),
            ("agreement", self.agreement.into()),
            ("pool_threads_spawned", self.threads_spawned.into()),
        ]
    }
}

/// The once-per-sweep failure probe: a cluster pointed at a freshly
/// closed port must fail with a typed [`OnexError::Network`], fast.
pub struct DeadPeerProbe {
    /// The connect error was `OnexError::Network` (never a panic/hang).
    pub typed: bool,
    /// How long the failure took to surface.
    pub elapsed: Duration,
}

impl DeadPeerProbe {
    /// The probe's fields: its table, and the record's trailing fields.
    fn fields(&self) -> Row {
        vec![
            ("dead_peer_typed", self.typed.into()),
            ("dead_peer_ms", ms(self.elapsed)),
        ]
    }
}

/// Probe connect-failure behaviour against an address that just closed.
pub fn dead_peer_probe() -> DeadPeerProbe {
    let t0 = std::time::Instant::now();
    let result = ClusterEngine::connect(
        &[closed_port()],
        RemoteConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            connect_attempts: 1,
            reconnect_backoff: Duration::from_millis(10),
        },
    );
    DeadPeerProbe {
        typed: matches!(result, Err(OnexError::Network(_))),
        elapsed: t0.elapsed(),
    }
}

/// Run the sweep: random walks, one fleet of shard servers per size,
/// two clusters (gossip on/off) over the same fleet.
pub fn measure(quick: bool) -> Vec<ClusterRow> {
    let sizes: &[(usize, usize)] = if quick {
        &[(16, 384)]
    } else {
        &[(16, 384), (32, 768)]
    };
    let mut rows = Vec::new();
    for &(series, len) in sizes {
        let ds = workloads::walk_collection(series, len);
        let queries = workloads::spread_queries(&ds, QUERIES, SUBSEQ_LEN, (5, 53));

        let (engine, _) = Onex::build(ds.clone(), config()).expect("valid config");
        let single = OnexBackend::new(Arc::new(engine));
        let single_answers: Vec<_> = queries
            .iter()
            .map(|q| single.k_best(q, K).expect("valid query"))
            .collect();
        let (sharded, _) = ShardedEngine::build(&ds, config(), SHARDS).expect("valid config");

        let addrs = spawn_fleet(&ds, SHARDS);
        let gossip = ClusterEngine::connect(&addrs, RemoteConfig::default())
            .expect("loopback shards are reachable");
        let nogossip = ClusterEngine::connect(&addrs, RemoteConfig::default())
            .expect("loopback shards are reachable")
            .gossip(false);

        // Accumulate whole batches through both clusters until gossip's
        // strict DTW win shows (or MAX_ROUNDS) — a single round where
        // every shard finishes before any gossip lands is a legitimate tie.
        let mut agreement = true;
        let mut single_dtw = 0usize;
        let mut gossip_dtw = 0usize;
        let mut nogossip_dtw = 0usize;
        let mut rounds = 0usize;
        while rounds < MAX_ROUNDS {
            rounds += 1;
            for (q, reference) in queries.iter().zip(&single_answers) {
                single_dtw += reference.stats.distance_computations;
                let on = gossip.k_best(q, K).expect("valid query");
                let off = nogossip.k_best(q, K).expect("valid query");
                agreement &= same_top_k(&on, reference) && same_top_k(&off, reference);
                gossip_dtw += on.stats.distance_computations;
                nogossip_dtw += off.stats.distance_computations;
            }
            if gossip_dtw < nogossip_dtw {
                break;
            }
        }

        let single_batch = batch_time(&single, &queries, K);
        let sharded_batch = batch_time(&sharded, &queries, K);
        let gossip_batch = batch_time(&gossip, &queries, K);
        let nogossip_batch = batch_time(&nogossip, &queries, K);

        let (gossip_sent, gossip_received) = gossip.gossip_counters();
        rows.push(ClusterRow {
            series,
            len,
            single_dtw,
            gossip_dtw,
            nogossip_dtw,
            rounds,
            single_batch,
            sharded_batch,
            gossip_batch,
            nogossip_batch,
            agreement,
            gossip_sent,
            gossip_received,
            threads_spawned: gossip.pool_stats().threads_spawned,
        });
    }
    rows
}

/// One measurement pass — the sweep and the dead-peer probe — read as the
/// tables, the perf record and the invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    output(&measure(quick), &dead_peer_probe())
}

/// Both measurements read three ways: a table each, `BENCH_cluster.json`
/// (the rows, then the probe; its batch wall-clocks depend on how many of
/// a query's four shard searches run at once: `available_parallelism`)
/// and the invariants.
fn output(rows: &[ClusterRow], probe: &DeadPeerProbe) -> ExperimentOutput {
    let fields: Vec<Row> = rows.iter().map(ClusterRow::fields).collect();
    let caption = format!(
        "E16 — distributed ONEX: cluster over {SHARDS} loopback shard servers \
         (random walks, length {SUBSEQ_LEN}, k={K}, Seed policy: agreement \
         required; dtw ratio is gossip-on remote DTWs / gossip-off)"
    );
    let tables = vec![
        table(caption, &fields),
        table("E16 — a cluster pointed at a dead peer", &[probe.fields()]),
    ];
    let mut fields = vec![("rows", Value::Rows(fields))];
    fields.extend(probe.fields());
    ExperimentOutput {
        tables,
        record: Some(("BENCH_cluster.json", record("e16_cluster", vec![], fields))),
        violations: check(rows, probe),
    }
}

/// E16's invariants, stated once:
///
/// * every cluster top-k, gossip on and off, equals the single engine's;
///   every engine counted DTWs; the pool spawned one worker per remote;
/// * per row, gossip never costs remote DTWs (the bound only tightens),
///   and tighten frames crossed the wire: queries are sized to outlast a
///   loopback hop in release builds too;
/// * summed over the sweep, gossip strictly cuts remote DTWs (rows add
///   rounds until the win shows, so a tie means `MAX_ROUNDS` batches
///   never saved one);
/// * a cluster pointed at a dead peer fails typed within 5 s.
pub fn check(rows: &[ClusterRow], probe: &DeadPeerProbe) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        let at = format!("{}x{}", r.series, r.len);
        let (on, off) = (r.gossip_dtw, r.nogossip_dtw);
        let pool = r.threads_spawned == SHARDS;
        let counted = r.single_dtw > 0 && on > 0 && off > 0;
        let frames = r.gossip_sent + r.gossip_received > 0;
        out.extend(broken([
            (r.agreement, format!("{at}: top-k diverged")),
            (pool, format!("{at}: {} pool threads", r.threads_spawned)),
            (counted, format!("{at}: an engine counted no DTW")),
            (
                on <= off,
                format!("{at}: gossip {on} > no-gossip {off} DTWs"),
            ),
            (frames, format!("{at}: no tighten frame crossed the wire")),
        ]));
    }
    let on: usize = rows.iter().map(|r| r.gossip_dtw).sum();
    let off: usize = rows.iter().map(|r| r.nogossip_dtw).sum();
    let (typed, took) = (probe.typed, fmt_duration(probe.elapsed));
    let fast = probe.elapsed < Duration::from_secs(5);
    out.extend(broken([
        (!rows.is_empty(), "no cluster rows".into()),
        (on < off, format!("gossip saved no DTW: {on} against {off}")),
        (typed && fast, format!("dead peer: typed {typed}, {took}")),
    ]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_cuts_remote_dtw_and_answers_agree() {
        let rows = measure(true);
        assert_eq!(rows.len(), 1, "quick mode is one size");
        assert_eq!(check(&rows, &dead_peer_probe()), Vec::<String>::new());
    }

    #[test]
    fn dead_peer_fails_typed_and_fast() {
        assert_eq!(check(&rows(), &dead_peer_probe()), Vec::<String>::new());
    }

    fn rows() -> Vec<ClusterRow> {
        vec![ClusterRow {
            series: 16,
            len: 384,
            single_dtw: 900,
            gossip_dtw: 1100,
            nogossip_dtw: 2000,
            rounds: 1,
            single_batch: Duration::from_micros(800),
            sharded_batch: Duration::from_micros(400),
            gossip_batch: Duration::from_micros(900),
            nogossip_batch: Duration::from_micros(1300),
            agreement: true,
            gossip_sent: 9,
            gossip_received: 14,
            threads_spawned: SHARDS,
        }]
    }

    const PROBE: DeadPeerProbe = DeadPeerProbe {
        typed: true,
        elapsed: Duration::from_millis(12),
    };

    #[test]
    fn check_names_a_broken_invariant() {
        assert_eq!(check(&rows(), &PROBE), Vec::<String>::new());
        let mut broken = rows();
        broken[0].agreement = false;
        crate::experiments::assert_broken(&check(&broken, &PROBE), "16x384: top-k diverged");
        assert_eq!(
            check(&[], &PROBE),
            ["no cluster rows", "gossip saved no DTW: 0 against 0"]
        );
    }

    #[test]
    fn json_report_is_parseable_shape() {
        crate::experiments::assert_record_shape(
            output(&rows(), &PROBE),
            "BENCH_cluster.json",
            include_str!("../../../../BENCH_cluster.json"),
        );
    }
}
