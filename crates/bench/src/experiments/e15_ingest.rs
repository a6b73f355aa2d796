//! E15 — live ingest: query latency and answer consistency while the
//! base is being extended concurrently.
//!
//! The engine's snapshot-versioned base (epoch per publish) promises
//! that appends never block readers and readers never observe a
//! half-extended base. E15 measures what that promise costs and checks
//! that it holds under load:
//!
//! 1. **Append latency** — the median time one [`Onex::append_series`]
//!    takes (build-aside extension plus atomic publish), per collection
//!    size.
//! 2. **Query latency under ingest** — the median `k_best` latency of
//!    reader threads running *during* the append burst, against the
//!    median on an idle engine. Lock-free snapshot reads should keep the
//!    ratio near the pure compute growth of the larger collection, not
//!    the serialised sum.
//! 3. **Agreement** — every answer a reader observed mid-ingest must
//!    bit-match the oracle answer of exactly one published epoch
//!    (computed by fresh batch builds per prefix — incremental extension
//!    is bit-identical to batch construction). A mixed-epoch answer
//!    fails the flag; CI guards `"agreement":true` on every row.
//!
//! Appended series are strictly-closer near-clones of the query, so
//! every epoch's top-k is distinct and an answer identifies exactly one
//! epoch.
//!
//! 4. **Append cost on an uncompacting base** — random walks barely
//!    group (≈ 11 k groups per length at 48 × 256), which is where an
//!    append used to cost as much as the whole build. One more row
//!    appends to such a base and reports the wall-clock per append, its
//!    ratio to the build, and the deterministic count behind both:
//!    distance calls per appended window. With the writer's resident
//!    index that count is a handful whatever the groups, and CI guards
//!    it below a tenth of the groups per length (a linear scan sits at
//!    1×). The first append seeds the index — one column per length —
//!    and is reported on its own beside the median. Each append's
//!    [`onex_grouping::BuildReport`] also says how many column blocks it
//!    copied of how many the base is in — one column a length — and CI
//!    holds a warm append under a quarter of them.
//!
//! An append spreads its lengths over the cores the process may run on:
//! every row records how many (`threads`) and what an appended window
//! cost in wall-clock (`us_per_window`). Under `taskset -c 0` the rows
//! are one worker's, and every deterministic count must come out the
//! same.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_core::{Onex, QueryOptions};
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_tseries::TimeSeries;

use crate::harness::{fmt_duration, median_time, threads, us_per, Table};
use crate::workloads;

/// Query/subsequence length for every E15 row.
const SUBSEQ_LEN: usize = 16;
/// Matches requested per query.
const K: usize = 3;
/// Series appended during the measured burst (epochs published).
const APPENDS: usize = 6;
/// Concurrent reader threads during the burst.
const READERS: usize = 2;

/// Exact configuration (Seed policy), so per-epoch oracles are
/// well-defined and agreement is a hard requirement.
fn config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.5, SUBSEQ_LEN, SUBSEQ_LEN)
    }
}

/// The uncompacting row's collection: the end-to-end benchmark's
/// `ingest` workload (random walks, lengths 16–24, `ST` 1.0).
pub const UNCOMPACTING: (usize, usize) = (48, 256);

fn uncompacting_config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 16, 24)
    }
}

/// Append cost against a base that barely compacts.
pub struct UncompactingRow {
    /// Series count of the starting collection.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// Wall-clock of the initial build.
    pub build: Duration,
    /// Groups per indexed length after the build.
    pub groups_per_length: f64,
    /// Latency of the first append, which seeds the resident index.
    pub first_append: Duration,
    /// Median latency of one append.
    pub append_each: Duration,
    /// Windows one appended series brings (the median over the appends).
    pub windows_per_append: usize,
    /// Cores each append spread its lengths over.
    pub threads: usize,
    /// Median over the appends of nearest-representative distance calls
    /// per appended window. Deterministic.
    pub distance_calls_per_window: f64,
    /// Length columns the writer's resident index seeded over the whole
    /// burst: one per length when only the first append seeds.
    pub seeds: u64,
    /// Per append, in order: column blocks it copied or added, and blocks
    /// the base it published is kept in. Deterministic.
    pub blocks: Vec<(usize, usize)>,
}

impl UncompactingRow {
    /// One append over one build, wall-clock.
    pub fn append_over_build(&self) -> f64 {
        self.append_each.as_secs_f64() / self.build.as_secs_f64().max(1e-12)
    }

    /// Wall-clock microseconds of the median append per window it brought.
    pub fn us_per_window(&self) -> f64 {
        us_per(self.append_each, self.windows_per_append)
    }

    /// The warm append (any but the first, which seeds the index) that
    /// copied the largest share of the base's blocks.
    pub fn worst_warm_blocks(&self) -> (usize, usize) {
        let warm = self.blocks.iter().skip(1).copied();
        warm.max_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)))
            .unwrap_or_default()
    }
}

/// Build a `series × len` random-walk base and append `APPENDS` more
/// walks of the same kind to it, one epoch each.
pub fn measure_uncompacting(series: usize, len: usize) -> UncompactingRow {
    let all = workloads::walk_collection(series + APPENDS, len);
    let mut walks: Vec<TimeSeries> = all.iter().map(|(_, s)| s.clone()).collect();
    let spares = walks.split_off(series);
    let ds = onex_tseries::Dataset::from_series(walks).expect("generated names are unique");
    let t = Instant::now();
    let (engine, built) = Onex::build(ds, uncompacting_config()).expect("valid config");
    let build = t.elapsed();
    let mut laps = Vec::with_capacity(APPENDS);
    let mut calls_per_window = Vec::with_capacity(APPENDS);
    let mut windows_per_append = Vec::with_capacity(APPENDS);
    let mut blocks = Vec::with_capacity(APPENDS);
    let mut subsequences = built.subsequences;
    for spare in spares {
        let t = Instant::now();
        let report = engine.append_series(spare).expect("fresh name");
        laps.push(t.elapsed());
        let windows = report.subsequences - subsequences;
        subsequences = report.subsequences;
        windows_per_append.push(windows);
        calls_per_window.push(report.work.distance_calls as f64 / windows.max(1) as f64);
        blocks.push((report.blocks_copied, report.blocks_total));
    }
    calls_per_window.sort_by(f64::total_cmp);
    windows_per_append.sort_unstable();
    UncompactingRow {
        series,
        len,
        build,
        groups_per_length: built.groups as f64 / built.lengths.max(1) as f64,
        first_append: laps[0],
        append_each: median(laps),
        windows_per_append: windows_per_append[windows_per_append.len() / 2],
        threads: threads(),
        distance_calls_per_window: calls_per_window[calls_per_window.len() / 2],
        seeds: engine.resident_index().seeds,
        blocks,
    }
}

/// One collection-size measurement of the ingest path.
pub struct IngestRow {
    /// Series count of the starting collection.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// Epochs published during the burst (== appends committed).
    pub epochs: u64,
    /// Median latency of one append (build-aside + publish).
    pub append_each: Duration,
    /// Windows one appended series brings.
    pub windows_per_append: usize,
    /// Cores each append spread its lengths over.
    pub threads: usize,
    /// Median `k_best` latency on the idle engine (before the burst).
    pub idle_query: Duration,
    /// Median `k_best` latency of readers during the append burst.
    pub live_query: Duration,
    /// Total reader answers collected during the burst.
    pub live_answers: usize,
    /// Whether every concurrent answer matched exactly one published
    /// epoch's oracle (never a mixture, never a stale impossibility).
    pub agreement: bool,
}

impl IngestRow {
    /// Live-over-idle query latency — the headline cost of reading
    /// while the writer publishes epochs alongside.
    pub fn live_ratio(&self) -> f64 {
        self.live_query.as_secs_f64() / self.idle_query.as_secs_f64().max(1e-12)
    }

    /// Wall-clock microseconds of the median append per window it brought.
    pub fn us_per_window(&self) -> f64 {
        us_per(self.append_each, self.windows_per_append)
    }
}

/// The appended series for epoch `i+1`: a strictly-closer near-clone of
/// the query, so each epoch's top-k differs from every other's.
fn ingest_series(q: &[f64], i: usize) -> TimeSeries {
    let eps = 0.04 / (1 << i) as f64;
    let values = q
        .iter()
        .enumerate()
        .map(|(j, v)| v + eps * ((j as f64) * 2.3).cos())
        .collect::<Vec<_>>();
    TimeSeries::new(format!("ingest-{i}"), values)
}

type Answer = Vec<(u32, u32, u32, f64)>;

fn answer_of(matches: &[onex_core::Match]) -> Answer {
    matches
        .iter()
        .map(|m| (m.subseq.series, m.subseq.start, m.subseq.len, m.distance))
        .collect()
}

fn matches_oracle(oracles: &[Answer], answer: &Answer) -> bool {
    oracles.iter().any(|o| {
        o.len() == answer.len()
            && o.iter()
                .zip(answer)
                .all(|(a, b)| (a.0, a.1, a.2) == (b.0, b.1, b.2) && (a.3 - b.3).abs() < 1e-9)
    })
}

fn median(mut xs: Vec<Duration>) -> Duration {
    if xs.is_empty() {
        return Duration::ZERO;
    }
    xs.sort();
    xs[xs.len() / 2]
}

/// Run the sweep: random walks, an append burst per size with readers
/// hammering `k_best` throughout.
pub fn measure(quick: bool) -> Vec<IngestRow> {
    let sizes: &[(usize, usize)] = if quick {
        &[(10, 64), (20, 96)]
    } else {
        &[(10, 64), (20, 96), (40, 160)]
    };
    let mut rows = Vec::new();
    for &(series, len) in sizes {
        let ds = workloads::walk_collection(series, len);
        let name = ds.series(0).unwrap().name().to_owned();
        let query = workloads::perturbed_query(&ds, &name, 10, SUBSEQ_LEN, 0.05);

        // Per-epoch oracles from fresh batch builds over each prefix.
        let mut oracles: Vec<Answer> = Vec::new();
        let mut prefix = ds.clone();
        for i in 0..=APPENDS {
            let (oracle, _) = Onex::build(prefix.clone(), config()).expect("valid config");
            let (matches, _) = oracle
                .k_best(&query, K, &QueryOptions::default())
                .expect("valid query");
            oracles.push(answer_of(&matches));
            if i < APPENDS {
                prefix.push(ingest_series(&query, i)).expect("fresh name");
            }
        }

        let (engine, _) = Onex::build(ds, config()).expect("valid config");
        let engine = Arc::new(engine);
        let idle_query = median_time(
            || {
                let _ = engine
                    .k_best(&query, K, &QueryOptions::default())
                    .expect("valid query");
            },
            5,
        );

        // The burst: one writer publishing APPENDS epochs, READERS
        // threads timing and checking every answer they see.
        let done = Arc::new(AtomicBool::new(false));
        let oracles = Arc::new(oracles);
        let query = Arc::new(query);
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let done = Arc::clone(&done);
                let oracles = Arc::clone(&oracles);
                let query = Arc::clone(&query);
                std::thread::spawn(move || {
                    let mut laps = Vec::new();
                    let mut all_pinned = true;
                    let mut rounds = 0usize;
                    while !done.load(Ordering::SeqCst) || rounds == 0 {
                        let t = Instant::now();
                        let (matches, _) = engine
                            .k_best(&query, K, &QueryOptions::default())
                            .expect("valid query");
                        laps.push(t.elapsed());
                        all_pinned &= matches_oracle(&oracles, &answer_of(&matches));
                        rounds += 1;
                    }
                    (laps, all_pinned)
                })
            })
            .collect();

        let mut append_laps = Vec::with_capacity(APPENDS);
        let before = engine.base().member_count();
        for i in 0..APPENDS {
            let t = Instant::now();
            engine
                .append_series(ingest_series(&query, i))
                .expect("fresh name");
            append_laps.push(t.elapsed());
        }
        let windows_per_append = (engine.base().member_count() - before) / APPENDS;
        done.store(true, Ordering::SeqCst);

        let mut live_laps = Vec::new();
        let mut agreement = true;
        for reader in readers {
            let (laps, all_pinned) = reader.join().expect("reader thread");
            live_laps.extend(laps);
            agreement &= all_pinned;
        }

        rows.push(IngestRow {
            series,
            len,
            epochs: engine.epoch(),
            append_each: median(append_laps),
            windows_per_append,
            threads: threads(),
            idle_query,
            live_answers: live_laps.len(),
            live_query: median(live_laps),
            agreement,
        });
    }
    rows
}

/// Render the uncompacting row as its own panel.
pub fn uncompacting_table(row: &UncompactingRow) -> Table {
    let mut t = Table::new(
        format!(
            "E15 — append cost on an uncompacting base ({APPENDS} appends to random walks, \
             lengths 16–24, Seed policy; distance calls per appended window are deterministic)"
        ),
        &[
            "collection",
            "groups/length",
            "build",
            "first append",
            "append each",
            "threads",
            "µs/window",
            "append/build",
            "calls/window",
            "index seeds",
            "blocks copied (worst warm)",
        ],
    );
    t.row(vec![
        format!("{}x{}", row.series, row.len),
        format!("{:.0}", row.groups_per_length),
        fmt_duration(row.build),
        fmt_duration(row.first_append),
        fmt_duration(row.append_each),
        row.threads.to_string(),
        format!("{:.2}", row.us_per_window()),
        format!("{:.4}×", row.append_over_build()),
        format!("{:.1}", row.distance_calls_per_window),
        row.seeds.to_string(),
        format!(
            "{} of {}",
            row.worst_warm_blocks().0,
            row.worst_warm_blocks().1
        ),
    ]);
    t
}

/// Render the sweep as the experiment table.
pub fn table(rows: &[IngestRow]) -> Table {
    let mut t = Table::new(
        format!(
            "E15 — live ingest: {APPENDS}-append burst with {READERS} concurrent readers \
             (random walks, length {SUBSEQ_LEN}, k={K}, Seed policy: every mid-ingest \
             answer must equal exactly one published epoch's oracle)"
        ),
        &[
            "collection",
            "epochs",
            "append each",
            "threads",
            "µs/window",
            "idle query",
            "live query",
            "live/idle",
            "answers",
            "agreement",
        ],
    );
    for row in rows {
        t.row(vec![
            format!("{}x{}", row.series, row.len),
            row.epochs.to_string(),
            fmt_duration(row.append_each),
            row.threads.to_string(),
            format!("{:.2}", row.us_per_window()),
            fmt_duration(row.idle_query),
            fmt_duration(row.live_query),
            format!("{:.2}×", row.live_ratio()),
            row.live_answers.to_string(),
            if row.agreement { "yes" } else { "NO" }.into(),
        ]);
    }
    t
}

/// The machine-readable perf record `repro --format json` writes to
/// `BENCH_ingest.json`. CI's regression guard requires `agreement` to be
/// `true` and `epochs` to equal the append count on every row; the
/// latencies are reported for trajectory, not guarded (they track the
/// runner's scheduler too loosely). On the uncompacting row it guards
/// the deterministic `append_distance_calls_per_window` below a tenth of
/// `groups_per_length`, and `warm_blocks_copied` — the most column blocks
/// a warm append copied — under a quarter of `warm_blocks_total`. The
/// header records `available_parallelism`: the live/idle ratios depend on
/// readers and writer having a core each.
pub fn json_report(rows: &[IngestRow], uncompacting: &UncompactingRow) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"experiment\":\"e15_ingest\",\"available_parallelism\":{},\"rows\":[",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"series\":{},\"len\":{},\"threads\":{},\"appends\":{},\"epochs\":{},\
             \"append_each_ms\":{:.3},\"us_per_window\":{:.3},\"idle_query_ms\":{:.3},\
             \"live_query_ms\":{:.3},\"live_ratio\":{:.4},\
             \"live_answers\":{},\"agreement\":{}}}",
            r.series,
            r.len,
            r.threads,
            APPENDS,
            r.epochs,
            r.append_each.as_secs_f64() * 1e3,
            r.us_per_window(),
            r.idle_query.as_secs_f64() * 1e3,
            r.live_query.as_secs_f64() * 1e3,
            r.live_ratio(),
            r.live_answers,
            r.agreement,
        );
    }
    let u = uncompacting;
    let _ = write!(
        out,
        "],\"uncompacting\":{{\"series\":{},\"len\":{},\"threads\":{},\
         \"groups_per_length\":{:.1},\
         \"build_ms\":{:.3},\"first_append_ms\":{:.3},\"append_each_ms\":{:.3},\
         \"us_per_window\":{:.3},\
         \"append_over_build_ratio\":{:.5},\
         \"append_distance_calls_per_window\":{:.2},\"index_seeds\":{},\
         \"blocks_copied\":{:?},\"blocks_total\":{:?},\
         \"warm_blocks_copied\":{},\"warm_blocks_total\":{}}}}}",
        u.series,
        u.len,
        u.threads,
        u.groups_per_length,
        u.build.as_secs_f64() * 1e3,
        u.first_append.as_secs_f64() * 1e3,
        u.append_each.as_secs_f64() * 1e3,
        u.us_per_window(),
        u.append_over_build(),
        u.distance_calls_per_window,
        u.seeds,
        u.blocks.iter().map(|b| b.0).collect::<Vec<_>>(),
        u.blocks.iter().map(|b| b.1).collect::<Vec<_>>(),
        u.worst_warm_blocks().0,
        u.worst_warm_blocks().1,
    );
    out.push('\n');
    out
}

/// Standard experiment entry point.
pub fn run(quick: bool) -> Vec<Table> {
    let (series, len) = UNCOMPACTING;
    vec![
        table(&measure(quick)),
        uncompacting_table(&measure_uncompacting(series, len)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_stay_pinned_to_published_epochs_through_the_burst() {
        let rows = measure(true);
        assert_eq!(rows.len(), 2, "two quick sizes");
        for row in &rows {
            assert_eq!(
                row.epochs, APPENDS as u64,
                "{}x{}: every append must publish exactly one epoch",
                row.series, row.len
            );
            assert!(
                row.agreement,
                "{}x{}: a reader observed a non-epoch answer",
                row.series, row.len
            );
            assert!(
                row.live_answers >= READERS,
                "each reader must complete at least one mid-burst query"
            );
            assert!(row.append_each > Duration::ZERO && row.idle_query > Duration::ZERO);
        }
    }

    #[test]
    fn appends_to_an_uncompacting_base_seed_the_index_once_and_count_repeatably() {
        let a = measure_uncompacting(6, 48);
        let b = measure_uncompacting(6, 48);
        assert_eq!(a.distance_calls_per_window, b.distance_calls_per_window);
        assert!(a.distance_calls_per_window > 0.0 && a.groups_per_length > 1.0);
        assert_eq!(
            a.seeds, 9,
            "one seeding per length 16..=24, by the first append only"
        );
        assert!(a.append_each > Duration::ZERO && a.build > Duration::ZERO);
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.blocks.len(), APPENDS);
        let (copied, total) = a.worst_warm_blocks();
        assert!(copied >= 9 && copied <= total, "{:?}", a.blocks);
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let rows = vec![
            IngestRow {
                series: 10,
                len: 64,
                epochs: APPENDS as u64,
                append_each: Duration::from_micros(820),
                windows_per_append: 1,
                threads: 2,
                idle_query: Duration::from_micros(95),
                live_query: Duration::from_micros(133),
                live_answers: 41,
                agreement: true,
            },
            IngestRow {
                series: 20,
                len: 96,
                epochs: APPENDS as u64,
                append_each: Duration::from_micros(1490),
                windows_per_append: 1,
                threads: 2,
                idle_query: Duration::from_micros(210),
                live_query: Duration::from_micros(294),
                live_answers: 57,
                agreement: true,
            },
        ];
        let uncompacting = UncompactingRow {
            series: 48,
            len: 256,
            build: Duration::from_millis(700),
            groups_per_length: 11_234.0,
            first_append: Duration::from_millis(40),
            append_each: Duration::from_millis(14),
            windows_per_append: 2_133,
            threads: 2,
            distance_calls_per_window: 212.5,
            seeds: 9,
            blocks: vec![(21, 420), (18, 421), (20, 422)],
        };
        let json = json_report(&rows, &uncompacting);
        assert!(json.starts_with("{\"experiment\":\"e15_ingest\",\"available_parallelism\":"));
        assert!(json.contains(
            "\"uncompacting\":{\"series\":48,\"len\":256,\"threads\":2,\"groups_per_length\":11234.0,"
        ));
        assert!(json.contains(
            "\"first_append_ms\":40.000,\"append_each_ms\":14.000,\"us_per_window\":6.564,"
        ));
        assert!(json.contains("\"series\":20,\"len\":96,\"threads\":2,\"appends\":6,"));
        assert!(json.contains("\"append_each_ms\":1.490,\"us_per_window\":1490.000,"));
        assert!(json.contains("\"append_over_build_ratio\":0.02000,"));
        assert!(json.contains("\"append_distance_calls_per_window\":212.50,\"index_seeds\":9,"));
        // The first append's 21 is not a warm one's.
        assert!(json.contains(
            "\"blocks_copied\":[21, 18, 20],\"blocks_total\":[420, 421, 422],\
             \"warm_blocks_copied\":20,\"warm_blocks_total\":422}"
        ));
        assert_eq!(json.matches("\"agreement\":true").count(), 2);
        assert_eq!(json.matches("\"epochs\":6").count(), 2);
        assert!(json.contains("\"live_ratio\":1.4000"));
        assert!(json.trim_end().ends_with("}}"));
    }
}
