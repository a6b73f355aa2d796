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
//!    fails the flag, and [`check`] requires it on every row.
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
//!    index that count is a handful whatever the groups, and [`check`]
//!    holds it below a tenth of the groups per length (a linear scan
//!    sits at 1×). The first append seeds the index — one column per
//!    length — and is reported on its own beside the median. Each
//!    append's [`onex_grouping::BuildReport`] also says how many column
//!    blocks it copied of how many the base is in — one column a length —
//!    and [`check`] holds a warm append under a quarter of them.
//!
//! An append spreads its lengths over the cores the process may run on:
//! every row records how many (`threads`) and what an appended window
//! cost in wall-clock (`us_per_window`; on the uncompacting row also
//! `admit_us_per_window`, the part of it the writer's workers spent
//! admitting, [`onex_grouping::BuildReport::admit`]). Under
//! `taskset -c 0` the rows are one worker's, and every deterministic
//! count must come out the same.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_core::{Match, Onex, QueryOptions};
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_tseries::TimeSeries;

use super::{broken, ExperimentOutput};
use crate::harness::{
    median, median_time, ms, record, same_matches, table, threads, us_per, Row, Value,
};
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

/// Heap bytes an entry of the writer's resident index may cost on the
/// uncompacting row: the bound `onex-grouping`'s footprint test holds the
/// allocator-counted index to (1.25 times the 17.0 it measured when the
/// bound was set; 17.4 with the run tables by offset).
pub const INDEX_BYTES_PER_ENTRY: f64 = 21.3;

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
    /// Median over the appends of the share of their time the writer's
    /// workers spent admitting windows ([`onex_grouping::BuildReport::admit`]).
    pub admit_each: Duration,
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
    /// Heap bytes the resident index keeps per entry after the burst
    /// (its own estimate, from capacities). Deterministic.
    pub index_bytes_per_entry: f64,
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

    /// Of those, the microseconds admitting a window took.
    pub fn admit_us_per_window(&self) -> f64 {
        us_per(self.admit_each, self.windows_per_append)
    }

    /// The warm append (any but the first, which seeds the index) that
    /// copied the largest share of the base's blocks.
    pub fn worst_warm_blocks(&self) -> (usize, usize) {
        let warm = self.blocks.iter().skip(1).copied();
        warm.max_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)))
            .unwrap_or_default()
    }

    /// The row's fields, in the order the table and the record show them.
    /// The `taskset -c 0` CI leg diffs `append_distance_calls_per_window`,
    /// `index_bytes_per_entry` and `warm_blocks_copied` against the
    /// default run.
    fn fields(&self) -> Row {
        let (warm_copied, warm_total) = self.worst_warm_blocks();
        vec![
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("threads", self.threads.into()),
            ("groups_per_length", Value::Fixed(self.groups_per_length, 1)),
            ("build_ms", ms(self.build)),
            ("first_append_ms", ms(self.first_append)),
            ("append_each_ms", ms(self.append_each)),
            ("us_per_window", Value::Fixed(self.us_per_window(), 3)),
            (
                "admit_us_per_window",
                Value::Fixed(self.admit_us_per_window(), 3),
            ),
            (
                "append_over_build_ratio",
                Value::Fixed(self.append_over_build(), 5),
            ),
            (
                "append_distance_calls_per_window",
                Value::Fixed(self.distance_calls_per_window, 2),
            ),
            ("index_seeds", Value::Int(self.seeds)),
            (
                "index_bytes_per_entry",
                Value::Fixed(self.index_bytes_per_entry, 2),
            ),
            (
                "blocks_copied",
                Value::Ints(self.blocks.iter().map(|b| b.0).collect()),
            ),
            (
                "blocks_total",
                Value::Ints(self.blocks.iter().map(|b| b.1).collect()),
            ),
            ("warm_blocks_copied", warm_copied.into()),
            ("warm_blocks_total", warm_total.into()),
        ]
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
    let mut admits = Vec::with_capacity(APPENDS);
    let mut calls_per_window = Vec::with_capacity(APPENDS);
    let mut windows_per_append = Vec::with_capacity(APPENDS);
    let mut blocks = Vec::with_capacity(APPENDS);
    let mut subsequences = built.subsequences;
    for spare in spares {
        let t = Instant::now();
        let report = engine.append_series(spare).expect("fresh name");
        laps.push(t.elapsed());
        admits.push(report.admit);
        let windows = report.subsequences - subsequences;
        subsequences = report.subsequences;
        windows_per_append.push(windows);
        calls_per_window.push(report.work.distance_calls as f64 / windows.max(1) as f64);
        blocks.push((report.blocks_copied, report.blocks_total));
    }
    let index = engine.resident_index();
    UncompactingRow {
        series,
        len,
        build,
        groups_per_length: built.groups as f64 / built.lengths.max(1) as f64,
        first_append: laps[0],
        append_each: median(laps),
        admit_each: median(admits),
        windows_per_append: median(windows_per_append),
        threads: threads(),
        distance_calls_per_window: median(calls_per_window),
        seeds: index.seeds,
        index_bytes_per_entry: index.bytes as f64 / index.entries.max(1) as f64,
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

    /// The row's fields, in the order the table and the record show them.
    fn fields(&self) -> Row {
        vec![
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("threads", self.threads.into()),
            ("appends", APPENDS.into()),
            ("epochs", Value::Int(self.epochs)),
            ("append_each_ms", ms(self.append_each)),
            ("us_per_window", Value::Fixed(self.us_per_window(), 3)),
            ("idle_query_ms", ms(self.idle_query)),
            ("live_query_ms", ms(self.live_query)),
            ("live_ratio", Value::Fixed(self.live_ratio(), 4)),
            ("live_answers", self.live_answers.into()),
            ("agreement", self.agreement.into()),
        ]
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
        let mut oracles: Vec<Vec<Match>> = Vec::new();
        let mut prefix = ds.clone();
        for i in 0..=APPENDS {
            let (oracle, _) = Onex::build(prefix.clone(), config()).expect("valid config");
            let (matches, _) = oracle
                .k_best(&query, K, &QueryOptions::default())
                .expect("valid query");
            oracles.push(matches);
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
                        all_pinned &= oracles.iter().any(|o| same_matches(o, &matches));
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

/// One measurement pass — the burst rows and the uncompacting row — read
/// as the tables, the perf record and the invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    let (series, len) = UNCOMPACTING;
    output(&measure(quick), &measure_uncompacting(series, len))
}

/// Both measurements read three ways: a table each, `BENCH_ingest.json`
/// (the burst rows, then the uncompacting row as one object; its
/// live/idle ratios depend on readers and writer having a core each:
/// `available_parallelism`) and the invariants. The latencies are
/// recorded for trajectory, not checked: they track the runner's
/// scheduler too loosely.
fn output(rows: &[IngestRow], uncompacting: &UncompactingRow) -> ExperimentOutput {
    let fields: Vec<Row> = rows.iter().map(IngestRow::fields).collect();
    let burst = format!(
        "E15 — live ingest: {APPENDS}-append burst with {READERS} concurrent readers \
         (random walks, length {SUBSEQ_LEN}, k={K}, Seed policy: every mid-ingest \
         answer must equal exactly one published epoch's oracle)"
    );
    let uncompacting_caption = format!(
        "E15 — append cost on an uncompacting base ({APPENDS} appends to random walks, \
         lengths 16–24, Seed policy; distance calls per appended window are deterministic)"
    );
    ExperimentOutput {
        tables: vec![
            table(burst, &fields),
            table(uncompacting_caption, &[uncompacting.fields()]),
        ],
        record: Some((
            "BENCH_ingest.json",
            record(
                "e15_ingest",
                // The level the grid's bound pass ran at: every count the
                // record holds is the same at each.
                vec![(
                    "kernel_level",
                    onex_distance::kernels::level().label().into(),
                )],
                vec![
                    ("rows", Value::Rows(fields)),
                    ("uncompacting", Value::Object(uncompacting.fields())),
                ],
            ),
        )),
        violations: check(rows, uncompacting),
    }
}

/// E15's invariants, stated once. All are counts, so one worker
/// (`taskset -c 0`) must meet them as the default run does:
///
/// * every append published one epoch, every answer a reader saw
///   mid-burst was one published epoch's oracle, and each reader
///   completed a query during the burst;
/// * the resident index answers an appended window of the uncompacting
///   row in fewer distance calls than a tenth of the groups per length
///   (a linear scan, or an index re-seeded by every append, sits near
///   1×), and only the first append seeded it, once per length 16..=24;
/// * the resident index keeps at most [`INDEX_BYTES_PER_ENTRY`] heap bytes
///   an entry;
/// * the warm append that copied the most column blocks copied at least
///   one and under a quarter of the base's (a column copied whole is 1).
pub fn check(rows: &[IngestRow], uncompacting: &UncompactingRow) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        let at = format!("{}x{}", r.series, r.len);
        let (epochs, answers) = (r.epochs, r.live_answers);
        let one_each = epochs == APPENDS as u64;
        let live = answers >= READERS;
        out.extend(broken([
            (
                one_each,
                format!("{at}: {epochs} epochs for {APPENDS} appends"),
            ),
            (
                r.agreement,
                format!("{at}: a reader saw a non-epoch answer"),
            ),
            (
                live,
                format!("{at}: {answers} answers from {READERS} readers"),
            ),
        ]));
    }
    let u = uncompacting;
    let (calls, groups, seeds) = (u.distance_calls_per_window, u.groups_per_length, u.seeds);
    let entry_bytes = u.index_bytes_per_entry;
    let (copied, total) = u.worst_warm_blocks();
    let indexed = calls < groups / 10.0;
    let calls = format!("{calls} distance calls a window, ≥ a tenth of {groups} groups");
    let blocks = copied >= 1 && 4 * copied < total;
    out.extend(broken([
        (!rows.is_empty(), "no ingest rows".into()),
        (indexed, calls),
        (seeds == 9, format!("{seeds} index seeds, not 9")),
        (
            entry_bytes <= INDEX_BYTES_PER_ENTRY,
            format!("{entry_bytes} index bytes an entry, over {INDEX_BYTES_PER_ENTRY}"),
        ),
        (
            blocks,
            format!("a warm append copied {copied} of {total} blocks"),
        ),
    ]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_broken;

    #[test]
    fn readers_stay_pinned_to_published_epochs_through_the_burst() {
        let rows = measure(true);
        assert_eq!(rows.len(), 2, "two quick sizes");
        let (series, len) = UNCOMPACTING;
        let uncompacting = measure_uncompacting(series, len);
        assert_eq!(check(&rows, &uncompacting), Vec::<String>::new());
        for row in &rows {
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

    fn rows() -> Vec<IngestRow> {
        [(10, 64, 820, 95, 133, 41), (20, 96, 1490, 210, 294, 57)]
            .map(|(series, len, append, idle, live, answers)| IngestRow {
                series,
                len,
                epochs: APPENDS as u64,
                append_each: Duration::from_micros(append),
                windows_per_append: 1,
                threads: 2,
                idle_query: Duration::from_micros(idle),
                live_query: Duration::from_micros(live),
                live_answers: answers,
                agreement: true,
            })
            .into()
    }

    fn uncompacting() -> UncompactingRow {
        UncompactingRow {
            series: 48,
            len: 256,
            build: Duration::from_millis(700),
            groups_per_length: 11_234.0,
            first_append: Duration::from_millis(40),
            append_each: Duration::from_millis(14),
            admit_each: Duration::from_millis(13),
            windows_per_append: 2_133,
            threads: 2,
            distance_calls_per_window: 212.5,
            seeds: 9,
            index_bytes_per_entry: 17.0,
            blocks: vec![(21, 420), (18, 421), (20, 422)],
        }
    }

    #[test]
    fn check_names_a_broken_invariant() {
        assert_eq!(check(&rows(), &uncompacting()), Vec::<String>::new());
        let mut broken = rows();
        broken[1].epochs = 5;
        assert_broken(
            &check(&broken, &uncompacting()),
            "20x96: 5 epochs for 6 appends",
        );
        let mut index = uncompacting();
        index.distance_calls_per_window = 1_200.0;
        assert_broken(&check(&rows(), &index), "1200 distance calls");
        let mut bytes = uncompacting();
        bytes.index_bytes_per_entry = 25.5;
        assert_broken(&check(&rows(), &bytes), "25.5 index bytes an entry");
        assert_eq!(check(&[], &uncompacting()), ["no ingest rows"]);
    }

    #[test]
    fn json_report_is_parseable_shape() {
        crate::experiments::assert_record_shape(
            output(&rows(), &uncompacting()),
            "BENCH_ingest.json",
            include_str!("../../../../BENCH_ingest.json"),
        );
    }
}
