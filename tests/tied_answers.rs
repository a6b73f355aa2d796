//! One answer order everywhere: on a collection full of exact distance
//! ties, every engine returns the first `k` windows under (normalised
//! distance, window) — the exhaustive oracle's answer, window for window
//! and bit for bit — whatever the shard count, and however the shards
//! race on the shared bound.
//!
//! The collection is six random walks of 96 points, each stored under
//! three neighbouring names (every window ties with its two twins), plus three
//! constant series (every window of one ties with all the others). The
//! base uses the `Seed` policy, ST 1 and lengths 12..=14. The queries are
//! 13-point windows cut from every series at four offsets, each asked for
//! k ∈ {1, 4, 7} with no exclusion: 252 queries, answered under `Exact`
//! and `Nearest(3)` length selection.

use std::net::TcpListener;
use std::sync::Arc;

use onex::engine::backends::ShardedEngine;
use onex::engine::fanout::partition;
use onex::engine::{exhaustive, LengthSelection, Onex, QueryOptions};
use onex::grouping::{BaseConfig, RepresentativePolicy};
use onex::net::{AcceptOptions, ClusterEngine, RemoteConfig, ShardServer};
use onex::tseries::gen::{random_walk_dataset, SyntheticConfig};
use onex::tseries::{Dataset, SubseqRef, TimeSeries};
use onex::SimilaritySearch;

const QLEN: usize = 13;
const OFFSETS: [usize; 4] = [0, 21, 50, 83];
const KS: [usize; 3] = [1, 4, 7];
/// Runs of the whole query set per in-process configuration: 20 in a
/// release build (CI runs the release test 20 times over), 3 in a debug
/// build, where one run of all eight configurations takes ≈ 6 s.
const LOCAL_RUNS: usize = if cfg!(debug_assertions) { 3 } else { 20 };
/// Runs of the whole query set over the loopback cluster.
const CLUSTER_RUNS: usize = 3;

fn tied_collection() -> Dataset {
    let walks = random_walk_dataset(SyntheticConfig {
        series: 6,
        len: 96,
        seed: 9,
    });
    // A walk's three names are neighbours, so round-robin placement
    // spreads them over every shard count tested.
    let mut series: Vec<TimeSeries> = walks
        .iter()
        .flat_map(|(_, s)| {
            (0..3).map(move |copy| {
                TimeSeries::new(format!("{}-{copy}", s.name()), s.values().to_vec())
            })
        })
        .collect();
    for (i, level) in [0.0, 1.5, -2.0].into_iter().enumerate() {
        series.push(TimeSeries::new(format!("flat-{i}"), vec![level; 96]));
    }
    Dataset::from_series(series).unwrap()
}

fn config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 12, 14)
    }
}

type Answer = Vec<(SubseqRef, u64)>;

/// Every query of the set with its `k` and the oracle's answer under
/// `selection`.
fn queries_and_truth(ds: &Dataset, selection: &LengthSelection) -> Vec<(Vec<f64>, usize, Answer)> {
    let opts = QueryOptions::default().lengths(selection.clone());
    let lengths = selection.lengths(QLEN, 12..=14);
    let mut out = Vec::new();
    for (_, series) in ds.iter() {
        for start in OFFSETS {
            let query = series.subsequence(start, QLEN).unwrap().to_vec();
            for k in KS {
                let truth = exhaustive::scan_k(ds, &query, &lengths, 1, &opts, k, true)
                    .unwrap()
                    .iter()
                    .map(|h| (h.subseq, h.distance.to_bits()))
                    .collect();
                out.push((query.clone(), k, truth));
            }
        }
    }
    assert_eq!(out.len(), 252);
    out
}

/// The queries of the set on which `engine` disagrees with the oracle.
fn disagreements(
    engine: &dyn SimilaritySearch,
    set: &[(Vec<f64>, usize, Answer)],
) -> Vec<(usize, Answer, Answer)> {
    set.iter()
        .enumerate()
        .filter_map(|(i, (query, k, truth))| {
            let got: Answer = engine
                .k_best(query, *k)
                .unwrap()
                .matches
                .iter()
                .map(|m| {
                    let subseq = SubseqRef::new(m.series, m.start as u32, m.len as u32);
                    (subseq, m.distance.to_bits())
                })
                .collect();
            (got != *truth).then(|| (i, got, truth.clone()))
        })
        .collect()
}

fn selections() -> [LengthSelection; 2] {
    [LengthSelection::Exact, LengthSelection::Nearest(3)]
}

#[test]
fn every_shard_count_returns_the_oracle_answer_on_tied_data() {
    let ds = tied_collection();
    for selection in selections() {
        let set = queries_and_truth(&ds, &selection);
        let opts = QueryOptions::default().lengths(selection.clone());
        for shards in [1, 2, 3, 5] {
            let (sharded, _) = ShardedEngine::build(&ds, config(), shards).unwrap();
            let sharded = sharded.with_options(opts.clone()).sharing_bound(true);
            for run in 0..LOCAL_RUNS {
                let wrong = disagreements(&sharded, &set);
                assert!(
                    wrong.is_empty(),
                    "{selection:?}, {shards} shards, run {run}: {} of 252 differ, first {:?}",
                    wrong.len(),
                    wrong[0]
                );
            }
        }
    }
}

/// One binary shard server over `ds` on an ephemeral loopback port,
/// detached for the process lifetime.
fn spawn_shard(ds: Dataset) -> String {
    let (engine, _) = Onex::build(ds, config()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = ShardServer::new(Arc::new(engine));
    std::thread::spawn(move || {
        let _ = server.serve_with(
            listener,
            &AcceptOptions {
                workers: 1,
                queue: 4,
                ..AcceptOptions::default()
            },
        );
    });
    addr
}

#[test]
fn a_gossiping_cluster_returns_the_oracle_answer_on_tied_data() {
    let ds = tied_collection();
    let addrs: Vec<String> = partition(&ds, 3).into_iter().map(spawn_shard).collect();
    for selection in selections() {
        let set = queries_and_truth(&ds, &selection);
        let cluster = ClusterEngine::connect(&addrs, RemoteConfig::default())
            .expect("loopback shards are reachable")
            .with_options(QueryOptions::default().lengths(selection.clone()))
            .gossip(true);
        for run in 0..CLUSTER_RUNS {
            let wrong = disagreements(&cluster, &set);
            assert!(
                wrong.is_empty(),
                "{selection:?}, cluster of 3, run {run}: {} of 252 differ, first {:?}",
                wrong.len(),
                wrong[0]
            );
        }
    }
}
