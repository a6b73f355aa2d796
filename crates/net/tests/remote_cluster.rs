//! End-to-end tests over real loopback sockets: a [`RemoteBackend`]
//! against a live [`ShardServer`], a [`ClusterEngine`] against several,
//! and — just as important — against *dead* and *lying* peers, where the
//! contract is a fast typed error instead of a hang.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{NetworkErrorKind, OnexError, SharedBound, SimilaritySearch};
use onex_core::fanout::partition;
use onex_core::{Onex, QueryOptions};
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_net::{
    write_hello, AcceptOptions, ClusterEngine, FrameReader, RemoteBackend, RemoteConfig,
    ShardServer,
};
use onex_tseries::{Dataset, TimeSeries};

const QLEN: usize = 16;

fn exact_config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.8, QLEN, QLEN)
    }
}

fn collection(series: usize, len: usize) -> Dataset {
    let all: Vec<TimeSeries> = (0..series)
        .map(|i| {
            let phase = i as f64 * 0.7;
            let values: Vec<f64> = (0..len)
                .map(|t| {
                    let x = t as f64;
                    (x * 0.23 + phase).sin() * 2.0 + (x * 0.051 + phase * 0.4).cos()
                })
                .collect();
            TimeSeries::new(format!("s{i}"), values)
        })
        .collect();
    Dataset::from_series(all).unwrap()
}

/// Fast-failing client settings for tests: one connect attempt, short
/// timeouts.
fn test_config() -> RemoteConfig {
    RemoteConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(20),
        connect_attempts: 1,
        reconnect_backoff: Duration::from_millis(10),
    }
}

/// Start one shard server over `ds` on an ephemeral loopback port;
/// returns its address. The server thread is detached for the process
/// lifetime — fine for tests.
fn spawn_shard(ds: Dataset, config: BaseConfig) -> String {
    let (engine, _) = Onex::build(ds, config).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = ShardServer::new(Arc::new(engine));
    std::thread::spawn(move || {
        let _ = server.serve_with(
            listener,
            &AcceptOptions {
                workers: 2,
                queue: 8,
                ..AcceptOptions::default()
            },
        );
    });
    addr
}

/// Partition `ds` round-robin (the identity [`ClusterEngine`] assumes)
/// and start one shard server per part.
fn spawn_cluster_shards(ds: &Dataset, config: &BaseConfig, n: usize) -> Vec<String> {
    partition(ds, n)
        .into_iter()
        .map(|part| spawn_shard(part, config.clone()))
        .collect()
}

#[test]
fn a_shard_answers_a_k_and_a_top_groups_count_past_its_candidates() {
    let ds = collection(4, 96);
    let (local, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let local = Arc::new(local);
    let addr = spawn_shard(ds.clone(), exact_config());
    let query: Vec<f64> = ds.series(1).unwrap().values()[10..10 + QLEN].to_vec();
    let everything = u32::MAX as usize;
    for opts in [
        QueryOptions::default(),
        QueryOptions::default().top_groups(everything),
    ] {
        let want = onex_core::backends::OnexBackend::new(Arc::clone(&local))
            .with_options(opts.clone())
            .k_best(&query, everything)
            .unwrap();
        let remote = RemoteBackend::new(&addr, test_config()).with_options(opts);
        let got = remote.k_best(&query, everything).unwrap();
        assert!(got.matches.len() > 100, "{} matches", got.matches.len());
        assert_eq!(got.matches, want.matches);
    }
}

#[test]
fn remote_backend_answers_match_the_hosted_engine() {
    let ds = collection(4, 96);
    let (local, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let addr = spawn_shard(ds.clone(), exact_config());
    let remote = RemoteBackend::new(&addr, test_config());

    let query: Vec<f64> = ds.series(1).unwrap().values()[10..10 + QLEN].to_vec();
    let want = {
        let backend = onex_core::backends::OnexBackend::new(Arc::new(local));
        backend.k_best(&query, 4).unwrap()
    };
    let got = remote.k_best(&query, 4).unwrap();
    assert_eq!(got.matches, want.matches);
    assert_eq!(got.stats, want.stats);

    // Introspection reports the hosted engine's identity.
    let info = remote.info().unwrap();
    assert_eq!(info.name, "onex");
    assert!(info.caps.exact);
    assert_eq!(info.series, 4);
    assert_eq!(remote.capabilities(), info.caps);
}

#[test]
fn remote_append_bumps_epoch_and_serves_the_new_series() {
    let ds = collection(3, 96);
    let addr = spawn_shard(ds.clone(), exact_config());
    let remote = RemoteBackend::new(&addr, test_config());

    let before = remote.info().unwrap();
    let fresh: Vec<f64> = (0..96).map(|t| ((t as f64) * 0.37).sin() * 3.0).collect();
    let (epoch, series) = remote.append("fresh", fresh.clone()).unwrap();
    assert!(epoch > before.epoch);
    assert_eq!(series, before.series + 1);

    // A verbatim window of the appended series is findable at distance 0.
    let query = fresh[20..20 + QLEN].to_vec();
    let best = remote.k_best(&query, 1).unwrap();
    assert_eq!(best.matches[0].series, 3);
    assert!(best.matches[0].distance < 1e-9);
}

#[test]
fn shipped_base_deploys_cold_and_answers_immediately() {
    let ds = collection(4, 96);
    // The shard starts with a deliberately coarse base…
    let coarse = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(3.0, QLEN, QLEN)
    };
    let addr = spawn_shard(ds.clone(), coarse);
    let remote = RemoteBackend::new(&addr, test_config());

    // …and is then provisioned with the real one, shipped as a v2 image.
    let (local, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let image = onex_grouping::persist::save_v2(&local.base());
    let before = remote.info().unwrap();
    let (epoch, lengths) = remote.ship_base(image).unwrap();
    assert!(epoch > before.epoch, "the swap publishes an epoch");
    assert_eq!(lengths, local.base().lengths().count() as u64);

    // The very next query answers from the shipped base (decoded whole
    // on the shard before it replied) and agrees with the local engine.
    let query: Vec<f64> = ds.series(1).unwrap().values()[10..10 + QLEN].to_vec();
    let want = onex_core::backends::OnexBackend::new(Arc::new(local))
        .k_best(&query, 3)
        .unwrap();
    let got = remote.k_best(&query, 3).unwrap();
    assert_eq!(got.matches, want.matches);

    // A mismatched image is rejected typed and the shard keeps serving…
    let (tiny, _) = Onex::build(collection(1, 64), exact_config()).unwrap();
    let err = remote
        .ship_base(onex_grouping::persist::save_v2(&tiny.base()))
        .unwrap_err();
    assert!(matches!(err, OnexError::DatasetMismatch(_)), "{err}");
    // …as are bytes that were never a base file at all.
    let err = remote.ship_base(vec![0u8; 64]).unwrap_err();
    assert!(matches!(err, OnexError::Storage(_)), "{err}");
    assert_eq!(err.http_status(), 422);
    let again = remote.k_best(&query, 3).unwrap();
    assert_eq!(again.matches, want.matches);
}

#[test]
fn cluster_deploys_a_base_to_one_shard() {
    let ds = collection(4, 96);
    let addrs = spawn_cluster_shards(&ds, &exact_config(), 2);
    let cluster = ClusterEngine::connect(&addrs, test_config()).unwrap();

    // Rebuild shard 1's partition under a tighter threshold and deploy
    // the image over the wire.
    let part = partition(&ds, 2).swap_remove(1);
    let tight = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.5, QLEN, QLEN)
    };
    let (eng, _) = Onex::build(part, tight).unwrap();
    let (_epoch, lengths) = cluster
        .deploy_base(1, onex_grouping::persist::save_v2(&eng.base()))
        .unwrap();
    assert_eq!(lengths, 1);

    // The cluster still answers correctly through the redeployed shard.
    let query: Vec<f64> = ds.series(1).unwrap().values()[10..10 + QLEN].to_vec();
    let best = cluster.k_best(&query, 1).unwrap();
    assert_eq!(best.matches[0].series, 1, "global id reconstructed");
    assert!(best.matches[0].distance < 1e-9);

    // An out-of-range shard index is a typed config error, no network.
    assert!(matches!(
        cluster.deploy_base(5, Vec::new()),
        Err(OnexError::InvalidConfig(_))
    ));
}

#[test]
fn a_whole_cluster_shape_base_ships_in_one_frame() {
    // The end-to-end harness's `cluster` collection: 48 random walks of
    // 256 points, lengths 16..=24 — 102 384 subsequences, nearly every one
    // a group of its own.
    let ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
        series: 48,
        len: 256,
        seed: 7,
    });
    let seed_policy = |min_len, max_len| BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, min_len, max_len)
    };
    let (warm, _) = Onex::build(ds.clone(), seed_policy(16, 24)).unwrap();
    let image = onex_grouping::persist::save_v2(&warm.base());

    // The shard starts out over the same collection with one length only,
    // and is then provisioned with the whole base in one frame.
    let addr = spawn_shard(ds.clone(), seed_policy(16, 16));
    let cluster = ClusterEngine::connect(&[addr], test_config()).unwrap();
    let (_epoch, lengths) = cluster.deploy_base(0, image).unwrap();
    assert_eq!(lengths, 9);

    let warm = onex_core::backends::OnexBackend::new(Arc::new(warm));
    for (sid, start, len) in [(3u32, 40usize, 16usize), (17, 100, 20), (40, 7, 24)] {
        let mut query: Vec<f64> = ds.series(sid).unwrap().values()[start..start + len].to_vec();
        for (i, v) in query.iter_mut().enumerate() {
            *v += 0.01 * ((i as f64) * 1.3).sin();
        }
        let want = warm.k_best(&query, 5).unwrap();
        let got = cluster.k_best(&query, 5).unwrap();
        assert_eq!(got.matches, want.matches, "length {len}");
    }
}

#[test]
fn dead_peer_fails_fast_with_a_typed_error() {
    // Bind a port, then drop the listener: connecting must be refused.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let remote = RemoteBackend::new(&addr, test_config());
    let start = Instant::now();
    let err = remote.k_best(&[1.0; QLEN], 1).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Unreachable),
        "{err}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "dead peer took {elapsed:?} — must fail fast, not hang"
    );
    assert_eq!(err.http_status(), 502);
}

#[test]
fn peer_closing_mid_exchange_is_a_typed_error_not_a_hang() {
    // A "server" that completes the hello and then hangs up.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let _ = write_hello(&mut stream);
            let mut reader = FrameReader::new();
            // Wait for the query frame so the client is mid-exchange,
            // then slam the door.
            let _ = reader.poll_frame(&mut stream);
        }
    });
    let remote = RemoteBackend::new(&addr, test_config());
    let start = Instant::now();
    let err = remote.k_best(&[1.0; QLEN], 1).unwrap_err();
    assert!(
        matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Closed),
        "{err}"
    );
    assert!(start.elapsed() < Duration::from_secs(5));
}

#[test]
fn non_onex_peer_is_a_version_mismatch() {
    // A "server" that speaks something else entirely.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            use std::io::Write;
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\n\r\n");
        }
    });
    let remote = RemoteBackend::new(&addr, test_config());
    let err = remote.k_best(&[1.0; QLEN], 1).unwrap_err();
    assert!(
        matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::VersionMismatch),
        "{err}"
    );
}

#[test]
fn garbage_on_the_shard_port_cannot_kill_the_server() {
    let ds = collection(3, 96);
    let addr = spawn_shard(ds.clone(), exact_config());

    // A client that connects and sends HTTP instead of a hello.
    {
        use std::io::Write;
        let mut s = TcpStream::connect(&addr).unwrap();
        let _ = s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    }
    // A client that handshakes, then sends a corrupt frame.
    {
        use std::io::Write;
        let mut s = TcpStream::connect(&addr).unwrap();
        write_hello(&mut s).unwrap();
        onex_net::read_hello(&mut s).unwrap();
        let _ = s.write_all(&[7, 0, 0, 0, 99, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    // The server still answers a well-behaved client afterwards.
    let remote = RemoteBackend::new(&addr, test_config());
    let query: Vec<f64> = ds.series(0).unwrap().values()[5..5 + QLEN].to_vec();
    let got = remote.k_best(&query, 2).unwrap();
    assert_eq!(got.matches[0].series, 0);
    assert!(got.matches[0].distance < 1e-9);
}

/// All-constant data ties every window at zero. A bound at zero keeps
/// the ties (the smallest windows win); a cancelled bound, sent as the
/// query's seed, prunes them all on the shard: no DTW starts there.
#[test]
fn a_cancelled_query_starts_no_dtw_on_a_remote_shard() {
    let flat: Vec<TimeSeries> = (0..8)
        .map(|i| TimeSeries::new(format!("flat{i}"), vec![1.0; 64]))
        .collect();
    let config = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.5, QLEN, QLEN)
    };
    let addr = spawn_shard(Dataset::from_series(flat).unwrap(), config);
    let remote = RemoteBackend::new(addr, test_config());
    let query = vec![1.0; QLEN];

    let zero = Arc::new(SharedBound::new());
    zero.tighten(0.0);
    let (kept, _) = remote.k_best_bounded(&query, 5, &zero).unwrap();
    let windows: Vec<_> = kept.matches.iter().map(|m| (m.series, m.start)).collect();
    assert_eq!(windows, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]);
    assert!(kept.matches.iter().all(|m| m.distance == 0.0));

    let cancelled = Arc::new(SharedBound::new());
    cancelled.cancel();
    let (none, _) = remote.k_best_bounded(&query, 5, &cancelled).unwrap();
    assert!(none.matches.is_empty(), "{none:?}");
    assert_eq!(none.stats.distance_computations, 0, "{:?}", none.stats);
}

#[test]
fn cluster_agrees_with_single_engine_and_gossips() {
    // Large enough that each shard still has work left when its peers'
    // first discoveries arrive, so tighten frames get a chance to matter.
    let ds = collection(9, 384);
    let (single, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let single = onex_core::backends::OnexBackend::new(Arc::new(single));
    let addrs = spawn_cluster_shards(&ds, &exact_config(), 3);
    let cluster = ClusterEngine::connect(&addrs, test_config()).unwrap();
    assert_eq!(cluster.shard_count(), 3);
    assert!(cluster.capabilities().exact);

    for (sid, start) in [(0u32, 8usize), (3, 140), (5, 270)] {
        let mut query: Vec<f64> = ds.series(sid).unwrap().values()[start..start + QLEN].to_vec();
        for (i, v) in query.iter_mut().enumerate() {
            *v += 0.003 * ((i as f64) * 2.1).sin();
        }
        let want = single.k_best(&query, 5).unwrap();
        let got = cluster.k_best(&query, 5).unwrap();
        let key = |o: &onex_api::SearchOutcome| {
            o.matches
                .iter()
                .map(|m| (m.series, m.start, m.len))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&got), key(&want));
        for (g, w) in got.matches.iter().zip(&want.matches) {
            assert!((g.distance - w.distance).abs() < 1e-12);
        }
    }

    // The connections actually carried tighten frames in at least one direction
    // across these multi-shard queries.
    let (sent, received) = cluster.gossip_counters();
    assert!(
        sent + received > 0,
        "no gossip crossed the wire (sent {sent}, received {received})"
    );
    // The persistent pool never spawned per-query threads.
    let pool = cluster.pool_stats();
    assert_eq!(pool.threads_spawned, 3);
    assert!(pool.jobs_executed >= 9);
}

#[test]
fn cluster_append_routes_round_robin_and_stays_searchable() {
    let ds = collection(4, 96);
    let addrs = spawn_cluster_shards(&ds, &exact_config(), 2);
    let cluster = ClusterEngine::connect(&addrs, test_config()).unwrap();

    let epoch_before = cluster.epoch();
    let fresh: Vec<f64> = (0..96).map(|t| ((t as f64) * 0.29).cos() * 2.5).collect();
    // 4 series exist, so the new one is global id 4 → shard 0, local 2.
    cluster.append_series("fresh", fresh.clone()).unwrap();
    assert!(cluster.epoch() > epoch_before);

    let query = fresh[12..12 + QLEN].to_vec();
    let best = cluster.k_best(&query, 1).unwrap();
    assert_eq!(best.matches[0].series, 4, "global id reconstructed");
    assert!(best.matches[0].distance < 1e-9);
}

#[test]
fn cluster_with_a_dead_member_fails_typed_at_connect() {
    let ds = collection(4, 96);
    let mut addrs = spawn_cluster_shards(&ds, &exact_config(), 2);
    addrs.push({
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    });
    let start = Instant::now();
    let err = ClusterEngine::connect(&addrs, test_config()).unwrap_err();
    assert!(
        matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Unreachable),
        "{err}"
    );
    assert!(start.elapsed() < Duration::from_secs(5));
}

#[test]
fn gossip_off_still_agrees_exactly() {
    let ds = collection(6, 96);
    let (single, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let single = onex_core::backends::OnexBackend::new(Arc::new(single));
    let addrs = spawn_cluster_shards(&ds, &exact_config(), 3);
    let cluster = ClusterEngine::connect(&addrs, test_config())
        .unwrap()
        .gossip(false);

    let query: Vec<f64> = ds.series(2).unwrap().values()[30..30 + QLEN].to_vec();
    let want = single.k_best(&query, 4).unwrap();
    let got = cluster.k_best(&query, 4).unwrap();
    assert_eq!(
        got.matches
            .iter()
            .map(|m| (m.series, m.start))
            .collect::<Vec<_>>(),
        want.matches
            .iter()
            .map(|m| (m.series, m.start))
            .collect::<Vec<_>>()
    );
    // With private bounds nothing is gossiped between shards mid-query;
    // the *seed* is still sent inside the query frame, so counters stay
    // at their pre-query values.
    let (sent, _received) = cluster.gossip_counters();
    assert_eq!(sent, 0, "gossip-off must not push tighten frames");
}
