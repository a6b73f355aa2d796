//! E19 — cluster fault tolerance: what a failure actually costs.
//!
//! E16 established the distributed tier's happy path (gossip cuts remote
//! work, answers agree with the single engine) and one failure datum: a
//! dead peer fails typed at connect. E19 measures the failure *paths*
//! introduced by the resilience layer, each against the invariant that a
//! fault costs bounded latency — never the 300 s stall the old
//! hard-coded reply wait allowed:
//!
//! 1. **Kill-a-shard availability** — a two-slot cluster under the
//!    `partial` degrade policy keeps answering when one shard dies
//!    mid-workload ([`onex_net::ChaosProxy`] is the kill switch); every
//!    degraded answer must equal a single-engine oracle over the
//!    surviving shard's series, and the dead-shard query latency is
//!    recorded as the availability cost.
//! 2. **Failover latency** — a slot whose *preferred* replica is dead
//!    answers from its backup; the per-query overhead over the healthy
//!    baseline is the failover cost.
//! 3. **Hedge win rate** — a slot whose preferred replica accepts
//!    queries and then stalls (the worst failure mode: no error to fail
//!    over on) is raced against its backup after the hedge threshold;
//!    the hedged latency must sit near the backup's, not the stall
//!    read-timeout the unhedged path pays.
//! 4. **Recovery** — after the killed shard restarts, the breaker
//!    re-closes via background probes and coverage returns to full; the
//!    restart→recovered wall time is recorded.
//!
//! All faults are injected deterministically (proxy kill switch, a
//! protocol-speaking stall server), so the experiment needs no process
//! management and no real packet loss. [`check`] states what a run must
//! show.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{DegradePolicy, OnexError, SearchOutcome, SimilaritySearch};
use onex_core::backends::OnexBackend;
use onex_core::fanout::partition;
use onex_core::Onex;
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_net::{
    AcceptOptions, BreakerConfig, BreakerState, ChaosProxy, ClusterConfig, ClusterEngine, Fault,
    RemoteConfig,
};
use onex_tseries::Dataset;

use super::{broken, ExperimentOutput};
use crate::harness::{self, closed_port, fmt_duration, median, ms, record, same_top_k, table, Row};
use crate::workloads;

/// Query/subsequence length. Shorter than E16's: resilience, not gossip
/// amortisation, is under test, and faster queries sharpen the latency
/// comparisons.
const SUBSEQ_LEN: usize = 32;
/// Matches requested per query.
const K: usize = 4;
/// The hedge threshold raced against the stalling replica.
const HEDGE_AFTER: Duration = Duration::from_millis(25);
/// Client read timeout for the hedge scenario — what the *unhedged*
/// path pays to discover a stalled replica.
const STALL_READ_TIMEOUT: Duration = Duration::from_millis(300);

/// Exact configuration (Seed policy), so degraded answers can be checked
/// against a surviving-shard oracle exactly.
fn config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.5, SUBSEQ_LEN, SUBSEQ_LEN)
    }
}

/// Fast-failing client settings: one connect attempt, short timeouts.
fn remote_config() -> RemoteConfig {
    RemoteConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(10),
        connect_attempts: 1,
        reconnect_backoff: Duration::from_millis(10),
    }
}

fn spawn_shard(ds: Dataset) -> String {
    // Several scenario clusters hold persistent connections to the same
    // shard concurrently, and each occupies one worker for its lifetime —
    // size the pool for all of them.
    let accept = AcceptOptions {
        workers: 8,
        queue: 8,
        ..AcceptOptions::default()
    };
    harness::spawn_shard(ds, config(), accept)
}

/// A peer that speaks the protocol far enough to pass connect (hello +
/// info) and then swallows queries without ever answering — the failure
/// mode failover cannot see (no error) and only hedging hides.
fn spawn_stall_server() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let mut stream = stream;
                let _ = onex_net::write_hello(&mut stream);
                if onex_net::read_hello(&mut stream).is_err() {
                    return;
                }
                let mut reader = onex_net::FrameReader::new();
                loop {
                    match reader.poll_frame(&mut stream) {
                        Ok(onex_net::Poll::Frame(kind, payload)) => {
                            match onex_net::Message::decode(kind, &payload) {
                                Ok(onex_net::Message::InfoRequest) => {
                                    let reply = onex_net::Message::Info {
                                        name: "stall".into(),
                                        caps: onex_api::Capabilities {
                                            metric: onex_api::Metric::RawDtw,
                                            exact: true,
                                            multi_length: false,
                                            streaming: false,
                                            one_match_per_series: false,
                                            cached: false,
                                        },
                                        series: 1,
                                        epoch: 0,
                                    };
                                    let (k, p) = reply.encode();
                                    if onex_net::write_frame(&mut stream, k, &p).is_err() {
                                        return;
                                    }
                                }
                                Ok(_) => {}
                                Err(_) => return,
                            }
                        }
                        Ok(onex_net::Poll::TimedOut) => {}
                        _ => return,
                    }
                }
            });
        }
    });
    addr
}

/// Everything one sweep measures.
pub struct ResilienceReport {
    /// Series count of the workload.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// Queries per scenario.
    pub reps: usize,
    /// Median healthy-cluster query latency (the baseline).
    pub healthy: Duration,
    /// Queries answered after the kill (out of `reps`) — availability.
    pub answered_after_kill: usize,
    /// How many of those were degraded (coverage < total).
    pub degraded_after_kill: usize,
    /// Every degraded answer equalled the surviving-shard oracle.
    pub degraded_agreement: bool,
    /// Median query latency with one shard dead — the availability cost
    /// (the figure that replaces the old 300 s stall).
    pub dead_shard_query: Duration,
    /// The killed shard's breaker tripped open.
    pub breaker_opened: bool,
    /// Restart → breaker re-closed and coverage back to full.
    pub recovery: Duration,
    /// The probe-driven recovery actually happened.
    pub recovered: bool,
    /// Median query latency when the slot's preferred replica is dead
    /// and its backup answers — the failover cost.
    pub failover: Duration,
    /// Every failover query answered with full coverage and agreed with
    /// the healthy cluster.
    pub failover_ok: bool,
    /// Hedges fired across the hedge scenario.
    pub hedges_fired: usize,
    /// Hedges the backup won.
    pub hedge_wins: usize,
    /// Median latency with hedging against a stalling preferred replica.
    pub hedged: Duration,
    /// Median latency of the same scenario without hedging (pays the
    /// stall read-timeout before failing over).
    pub unhedged: Duration,
    /// Hedged answers agreed with the healthy cluster.
    pub hedge_agreement: bool,
    /// Connect against a closed port was a typed network error.
    pub dead_peer_typed: bool,
    /// How long that connect failure took to surface.
    pub dead_peer_connect: Duration,
}

impl ResilienceReport {
    /// The report's fields, in the order the table and the record show
    /// them: each scenario's latencies beside its verdicts.
    fn fields(&self) -> Row {
        vec![
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("reps", self.reps.into()),
            ("healthy_ms", ms(self.healthy)),
            ("answered_after_kill", self.answered_after_kill.into()),
            ("degraded_after_kill", self.degraded_after_kill.into()),
            ("degraded_agreement", self.degraded_agreement.into()),
            ("dead_shard_query_ms", ms(self.dead_shard_query)),
            ("breaker_opened", self.breaker_opened.into()),
            ("recovered", self.recovered.into()),
            ("recovery_ms", ms(self.recovery)),
            ("failover_ok", self.failover_ok.into()),
            ("failover_ms", ms(self.failover)),
            ("hedges_fired", self.hedges_fired.into()),
            ("hedge_wins", self.hedge_wins.into()),
            ("hedge_agreement", self.hedge_agreement.into()),
            ("hedged_ms", ms(self.hedged)),
            ("unhedged_ms", ms(self.unhedged)),
            ("dead_peer_typed", self.dead_peer_typed.into()),
            ("dead_peer_connect_ms", ms(self.dead_peer_connect)),
        ]
    }
}

/// Run the sweep.
pub fn measure(quick: bool) -> ResilienceReport {
    let (series, len, reps) = if quick { (12, 256, 6) } else { (24, 512, 12) };
    let ds = workloads::walk_collection(series, len);
    let parts = partition(&ds, 2);
    let queries = workloads::spread_queries(&ds, reps, SUBSEQ_LEN, (5, 37));

    // ---- Scenario 1: kill a shard mid-workload, then recover. -------
    let shard0 = spawn_shard(parts[0].clone());
    let shard1 = spawn_shard(parts[1].clone());
    let proxy = ChaosProxy::spawn(shard1.clone(), Vec::new()).expect("loopback proxy");
    let cluster = ClusterEngine::connect_with(
        &[shard0.clone(), proxy.addr().to_string()],
        ClusterConfig {
            remote: remote_config(),
            degrade: DegradePolicy::Partial,
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_for: Duration::from_millis(200),
                ..BreakerConfig::default()
            },
            probe_interval: Some(Duration::from_millis(50)),
            ..ClusterConfig::default()
        },
    )
    .expect("loopback shards are reachable");

    // Healthy baseline (also the reference answers).
    let mut healthy_samples = Vec::with_capacity(reps);
    let reference: Vec<SearchOutcome> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let out = cluster.k_best(q, K).expect("healthy cluster answers");
            healthy_samples.push(t0.elapsed());
            out
        })
        .collect();
    let healthy = median(healthy_samples);

    // The surviving-shard oracle for degraded agreement (shard 0 hosts
    // partition 0; cluster global ids are `local * 2 + 0`).
    let oracle = {
        let (engine, _) = Onex::build(parts[0].clone(), config()).expect("valid config");
        OnexBackend::new(Arc::new(engine))
    };

    // Kill shard 1 and keep querying.
    proxy.set_fault(Some(Fault::Drop));
    let mut answered_after_kill = 0usize;
    let mut degraded_after_kill = 0usize;
    let mut degraded_agreement = true;
    let mut dead_samples = Vec::with_capacity(reps);
    for q in &queries {
        let t0 = Instant::now();
        let result = cluster.k_best(q, K);
        dead_samples.push(t0.elapsed());
        if let Ok(out) = result {
            answered_after_kill += 1;
            if out.degraded() {
                degraded_after_kill += 1;
                let want = oracle.k_best(q, K).expect("oracle answers");
                let ids_map = out
                    .matches
                    .iter()
                    .zip(&want.matches)
                    .all(|(g, w)| g.series == w.series * 2);
                let mapped = SearchOutcome {
                    matches: out
                        .matches
                        .iter()
                        .map(|m| onex_api::BackendMatch {
                            series: m.series / 2,
                            ..*m
                        })
                        .collect(),
                    ..out.clone()
                };
                degraded_agreement &= ids_map && same_top_k(&mapped, &want);
            }
        }
    }
    let dead_shard_query = median(dead_samples);
    let breaker_opened = cluster.health()[1].replicas[0].breaker.opens >= 1;

    // Restart: background probes must re-close the breaker and coverage
    // must return to full, unprompted by query traffic.
    proxy.set_fault(None);
    let t0 = Instant::now();
    let recovery_deadline = t0 + Duration::from_secs(20);
    let mut recovered = false;
    while Instant::now() < recovery_deadline {
        let closed = cluster.health()[1].replicas[0].breaker.state == BreakerState::Closed;
        if closed {
            if let Ok(out) = cluster.k_best(&queries[0], K) {
                if !out.degraded() {
                    recovered = true;
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let recovery = t0.elapsed();

    // ---- Scenario 2: failover past a dead preferred replica. --------
    let dead = closed_port();
    let failover_cluster = ClusterEngine::connect_with(
        &[format!("{dead}|{shard0}"), shard1.clone()],
        ClusterConfig {
            remote: remote_config(),
            // A huge threshold keeps the dead replica's breaker closed,
            // so every query pays the full dial-and-fail cost — the
            // honest (worst-case) failover latency.
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                ..BreakerConfig::default()
            },
            probe_interval: None,
            ..ClusterConfig::default()
        },
    )
    .expect("slot has a live replica");
    let mut failover_samples = Vec::with_capacity(reps);
    let mut failover_ok = true;
    for (q, want) in queries.iter().zip(&reference) {
        let t0 = Instant::now();
        let result = failover_cluster.k_best(q, K);
        failover_samples.push(t0.elapsed());
        failover_ok &= result.is_ok_and(|out| !out.degraded() && same_top_k(&out, want));
    }
    let failover = median(failover_samples);

    // ---- Scenario 3: hedge a stalling preferred replica. ------------
    let stall = spawn_stall_server();
    let shard0b = spawn_shard(parts[0].clone());
    let stall_slot = format!("{stall}|{shard0b}");
    let stall_config = |hedge: Option<Duration>| ClusterConfig {
        remote: RemoteConfig {
            read_timeout: STALL_READ_TIMEOUT,
            ..remote_config()
        },
        hedge_after: hedge,
        // The stall replica keeps "failing" (read timeouts); a huge
        // threshold keeps its breaker closed so every query exercises
        // the stall instead of skipping it.
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        },
        probe_interval: None,
        ..ClusterConfig::default()
    };
    let hedged_cluster = ClusterEngine::connect_with(
        &[stall_slot.clone(), shard1.clone()],
        stall_config(Some(HEDGE_AFTER)),
    )
    .expect("slot has a live replica");
    let mut hedged_samples = Vec::with_capacity(reps);
    let mut hedge_agreement = true;
    for (q, want) in queries.iter().zip(&reference) {
        let t0 = Instant::now();
        let result = hedged_cluster.k_best(q, K);
        hedged_samples.push(t0.elapsed());
        hedge_agreement &= result.is_ok_and(|out| same_top_k(&out, want));
        // Let the lane finish joining the stalled primary attempt so the
        // next query measures hedge latency, not queue wait.
        std::thread::sleep(STALL_READ_TIMEOUT + Duration::from_millis(50));
    }
    let hedged = median(hedged_samples);
    let (hedges_fired, hedge_wins) = hedged_cluster.hedge_counters();

    let unhedged_cluster =
        ClusterEngine::connect_with(&[stall_slot, shard1.clone()], stall_config(None))
            .expect("slot has a live replica");
    let mut unhedged_samples = Vec::with_capacity(reps);
    for q in &queries {
        let t0 = Instant::now();
        let _ = unhedged_cluster.k_best(q, K);
        unhedged_samples.push(t0.elapsed());
    }
    let unhedged = median(unhedged_samples);

    // ---- Scenario 4: dead peer at connect (E16's probe, kept). ------
    let t0 = Instant::now();
    let result = ClusterEngine::connect(&[closed_port()], remote_config());
    let dead_peer_typed = matches!(result, Err(OnexError::Network(_)));
    let dead_peer_connect = t0.elapsed();

    ResilienceReport {
        series,
        len,
        reps,
        healthy,
        answered_after_kill,
        degraded_after_kill,
        degraded_agreement,
        dead_shard_query,
        breaker_opened,
        recovery,
        recovered,
        failover,
        failover_ok,
        hedges_fired,
        hedge_wins,
        hedged,
        unhedged,
        hedge_agreement,
        dead_peer_typed,
        dead_peer_connect,
    }
}

/// One measurement pass, read as the table, the perf record and the
/// invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    output(&measure(quick))
}

/// The report read three ways: a table of its fields, one a line,
/// `BENCH_resilience.json` (the same fields after its header) and the
/// invariants.
fn output(report: &ResilienceReport) -> ExperimentOutput {
    let caption = format!(
        "E19 — cluster fault tolerance over loopback shards \
         (random walks {}x{}, length {SUBSEQ_LEN}, k={K}, {} queries per \
         scenario; kill switch: chaos proxy; stall peer: protocol server \
         that swallows queries, read timeout {STALL_READ_TIMEOUT:?})",
        report.series, report.len, report.reps
    );
    let lines: Vec<Row> = report
        .fields()
        .into_iter()
        .map(|(key, value)| vec![("key", key.into()), ("value", value)])
        .collect();
    ExperimentOutput {
        tables: vec![table(caption, &lines)],
        record: Some((
            "BENCH_resilience.json",
            record("e19_resilience", vec![], report.fields()),
        )),
        violations: check(report),
    }
}

/// E19's invariants, stated once: failover answered full and exact;
/// every query after the kill was answered, at least one degraded, each
/// equal to the surviving-shard oracle; the killed shard's breaker opened
/// and probe-recovered; a hedge won, with agreeing answers, and hedging
/// beat the unhedged stall; the dead peer failed typed; and no failure
/// path approaches the old 300 s stall — each lands under 30 s.
pub fn check(r: &ResilienceReport) -> Vec<String> {
    let available = r.answered_after_kill == r.reps;
    let mut out: Vec<String> = broken(
        [
            (r.reps > 0, "no query ran"),
            (r.failover_ok, "failover was not full and exact"),
            (r.degraded_agreement, "a degraded top-k diverged"),
            (available, "a query after the kill went unanswered"),
            (r.breaker_opened, "the breaker never opened"),
            (r.recovered, "the breaker never recovered"),
            (r.hedge_wins >= 1, "no hedge won"),
            (r.hedge_agreement, "hedged answers diverged"),
            (r.dead_peer_typed, "the dead peer failed untyped"),
            (r.degraded_after_kill >= 1, "the kill degraded nothing"),
            (r.hedged < r.unhedged, "hedging lost to the stall path"),
        ]
        .map(|(holds, what)| (holds, what.into())),
    )
    .collect();
    for (what, d) in [
        ("dead-shard query", r.dead_shard_query),
        ("failover", r.failover),
        ("recovery", r.recovery),
        ("hedged stall", r.hedged),
        ("unhedged stall", r.unhedged),
        ("dead-peer connect", r.dead_peer_connect),
    ] {
        let took = format!("{what} took {}", fmt_duration(d));
        out.extend(broken([(d < Duration::from_secs(30), took)]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_cost_bounded_latency_and_degraded_answers_stay_exact() {
        assert_eq!(check(&measure(true)), Vec::<String>::new());
    }

    fn report() -> ResilienceReport {
        ResilienceReport {
            series: 12,
            len: 256,
            reps: 6,
            healthy: Duration::from_micros(900),
            answered_after_kill: 6,
            degraded_after_kill: 6,
            degraded_agreement: true,
            dead_shard_query: Duration::from_millis(2),
            breaker_opened: true,
            recovery: Duration::from_millis(310),
            recovered: true,
            failover: Duration::from_millis(1),
            failover_ok: true,
            hedges_fired: 6,
            hedge_wins: 6,
            hedged: Duration::from_millis(30),
            unhedged: Duration::from_millis(310),
            hedge_agreement: true,
            dead_peer_typed: true,
            dead_peer_connect: Duration::from_millis(4),
        }
    }

    #[test]
    fn check_names_a_broken_invariant() {
        assert_eq!(check(&report()), Vec::<String>::new());
        let broken = ResilienceReport {
            breaker_opened: false,
            ..report()
        };
        crate::experiments::assert_broken(&check(&broken), "breaker never opened");
        let empty = ResilienceReport {
            reps: 0,
            answered_after_kill: 0,
            ..report()
        };
        assert_eq!(check(&empty), ["no query ran"]);
    }

    #[test]
    fn json_report_is_parseable_shape() {
        crate::experiments::assert_record_shape(
            output(&report()),
            "BENCH_resilience.json",
            include_str!("../../../../BENCH_resilience.json"),
        );
    }
}
