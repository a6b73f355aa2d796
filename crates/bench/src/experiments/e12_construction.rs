//! E12 — base construction at scale: the exact nearest-representative
//! grid behind the admission rule, workload by workload.
//!
//! Construction is the demo's one-click preprocessing step, so its
//! latency is user-facing. A linear admission scan costs O(groups) per
//! subsequence — worst exactly when the base barely compacts (random
//! walks: groups ≈ subsequences). E12 builds three shapes of that regime
//! and one that compacts, reporting wall-clock, throughput and the
//! grid's work: distance calls started, and representatives examined or
//! pruned — together what the linear scan would have examined:
//!
//! * `walk` — random walks at one length, a size sweep;
//! * `harness` — what the end-to-end benchmark's `cluster` and `ingest`
//!   workloads build: random walks, lengths 16..=24, `ST` 1.0, `Seed`;
//! * `noise` — white noise, where every window's half-means nearly
//!   coincide, all representatives land in the cells a lookup visits and
//!   an early-abandoned distance costs what a bound check does: the
//!   regime in which no index helps, recorded so the cost of having one
//!   is known;
//! * `clustered` — what the benchmark's `explore` workload builds: eight
//!   shape families, lengths 30..=32, `ST` 1.0, `Seed` — a few dozen
//!   groups of hundreds of members, so admission is cheap and what is
//!   left of construction is the pass that sketches every member.
//!
//! Every row also reports that pass on its own — the sketch sync every
//! length's worker ends with, as the share of the build's wall-clock the
//! workers spent in it ([`onex_grouping::BuildReport::sketch`]) — so the
//! record says where construction time goes, not only how much there is.
//! The build spreads its lengths over the cores the process may run on;
//! every row records how many (`threads`) and the wall-clock a window
//! cost (`us_per_window`). The two rows whose sketch share [`check`]
//! holds, `harness` and `clustered`, build [`TIMED_BUILDS`] times: their
//! `elapsed` is the median build's wall-clock and their sketch pass the
//! median share of the builds times it, and every build must count
//! alike. (One quick `clustered` build takes ≈ 16 ms, and on a shared
//! 2-core box one build's share read anywhere from 0.15 to 0.58.)
//! [`check`] states what a run must show. That
//! the grid builds the linear scan's base is tier-1's to show (a model of
//! the admission rule in `onex-grouping`'s tests), not this experiment's.

use std::time::Duration;

use onex_grouping::{BaseBuilder, BaseConfig, BuildReport, RepresentativePolicy};
use onex_tseries::Dataset;

use super::{broken, ExperimentOutput, TIMED};
use crate::harness::{median, ms, record, table, threads, us_per, Row, Value};
use crate::workloads;

/// Subsequence length of the single-length rows (keeps the comparison
/// about lookup cost, not length mix).
const SUBSEQ_LEN: usize = 24;
/// Similarity threshold of the `walk` sweep: small enough that random
/// walks barely group — the many-groups regime the index exists for.
const ST: f64 = 0.5;
/// Builds of each row whose sketch share [`check`] holds; the row reads
/// their medians.
pub const TIMED_BUILDS: usize = 5;

/// The shapes whose sketch share [`check`] holds: the load harness's two.
fn timed(shape: &str) -> bool {
    matches!(shape, "harness" | "clustered")
}

/// One workload E12 builds.
struct Workload {
    shape: &'static str,
    generate: fn(usize, usize) -> Dataset,
    series: usize,
    len: usize,
    config: BaseConfig,
}

/// The sweep over the given collection sizes (`series × samples`).
fn workloads(
    walks: &[(usize, usize)],
    harness: (usize, usize),
    noise: (usize, usize),
    clustered: (usize, usize),
) -> Vec<Workload> {
    let single = |st| BaseConfig::new(st, SUBSEQ_LEN, SUBSEQ_LEN);
    let mut all: Vec<Workload> = walks
        .iter()
        .map(|&(series, len)| Workload {
            shape: "walk",
            generate: workloads::walk_collection,
            series,
            len,
            config: single(ST),
        })
        .collect();
    all.push(Workload {
        shape: "harness",
        generate: workloads::walk_collection,
        series: harness.0,
        len: harness.1,
        config: BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(1.0, 16, 24)
        },
    });
    all.extend([0.5, 1.0, 2.0].map(|st| Workload {
        shape: "noise",
        generate: workloads::noise_collection,
        series: noise.0,
        len: noise.1,
        config: single(st),
    }));
    all.push(Workload {
        shape: "clustered",
        generate: workloads::sine_collection,
        series: clustered.0,
        len: clustered.1,
        config: BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(1.0, 30, 32)
        },
    });
    all
}

/// One workload's build.
pub struct BuildRow {
    /// `walk`, `harness`, `noise` or `clustered` (see the module docs).
    pub shape: &'static str,
    /// Series count of the workload.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// Similarity threshold the base was built under.
    pub st: f64,
    /// Subsequences assigned.
    pub subsequences: usize,
    /// Groups created.
    pub groups: usize,
    /// Cores the build spread its lengths over.
    pub threads: usize,
    /// Builds measured: [`TIMED_BUILDS`] on `harness` and `clustered`, else 1.
    pub builds: usize,
    /// Whether every build counted the same subsequences, groups and
    /// grid work.
    pub agree: bool,
    /// Construction wall-clock, the median build's.
    pub elapsed: Duration,
    /// Of which the sketch pass over the finished groups: the builds'
    /// median share of their wall-clock, times `elapsed`.
    pub sketch: Duration,
    /// Construction throughput.
    pub per_sec: f64,
    /// Representatives distance-compared.
    pub examined: usize,
    /// Representatives dismissed by index bounds.
    pub pruned: usize,
    /// Euclidean evaluations started.
    pub distance_calls: usize,
}

/// Run the sweep. Quick mode still includes a ≥5k-subsequence row, where
/// a linear scan would examine thousands of representatives a window.
pub fn measure(quick: bool) -> Vec<BuildRow> {
    measure_each(&if quick {
        workloads(&[(12, 96), (40, 160)], (24, 128), (40, 160), (32, 256))
    } else {
        workloads(
            &[(12, 96), (40, 160), (80, 256)],
            (48, 256),
            (40, 160),
            (128, 512),
        )
    })
}

fn measure_each(sweep: &[Workload]) -> Vec<BuildRow> {
    sweep
        .iter()
        .map(|workload| {
            let ds = (workload.generate)(workload.series, workload.len);
            let builder = BaseBuilder::new(workload.config.clone()).expect("valid config");
            let builds = if timed(workload.shape) {
                TIMED_BUILDS
            } else {
                1
            };
            let reports: Vec<BuildReport> = (0..builds).map(|_| builder.build(&ds).1).collect();
            let report = &reports[0];
            let counts = |r: &BuildReport| (r.subsequences, r.groups, r.work);
            let elapsed = median(reports.iter().map(|r| r.elapsed.as_secs_f64()));
            let share = median(
                reports
                    .iter()
                    .map(|r| r.sketch.as_secs_f64() / r.elapsed.as_secs_f64()),
            );
            BuildRow {
                shape: workload.shape,
                series: workload.series,
                len: workload.len,
                st: workload.config.st,
                subsequences: report.subsequences,
                groups: report.groups,
                threads: threads(),
                builds,
                agree: reports.iter().all(|r| counts(r) == counts(report)),
                elapsed: Duration::from_secs_f64(elapsed),
                sketch: Duration::from_secs_f64(elapsed * share),
                per_sec: report.subsequences as f64 / elapsed,
                examined: report.work.examined,
                pruned: report.work.pruned,
                distance_calls: report.work.distance_calls,
            }
        })
        .collect()
}

impl BuildRow {
    /// The row's fields, in the order the table and the record show
    /// them: `sketch_ms` beside `elapsed_ms` (both wall-clock, medians
    /// over `builds`, their ratio held by [`check`]) and `threads` beside
    /// `us_per_window`.
    fn fields(&self) -> Row {
        vec![
            ("shape", self.shape.into()),
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("st", Value::Num(self.st)),
            ("subsequences", self.subsequences.into()),
            ("groups", self.groups.into()),
            ("threads", self.threads.into()),
            ("builds", self.builds.into()),
            ("elapsed_ms", ms(self.elapsed)),
            (
                "us_per_window",
                Value::Fixed(us_per(self.elapsed, self.subsequences), 3),
            ),
            ("sketch_ms", ms(self.sketch)),
            ("subsequences_per_sec", Value::Fixed(self.per_sec, 1)),
            ("distance_calls", self.distance_calls.into()),
            ("examined", self.examined.into()),
            ("pruned", self.pruned.into()),
        ]
    }
}

/// One measurement pass, read as the table, the perf record and the
/// invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    output(&measure(quick))
}

/// The sweep read three ways: the table, `BENCH_construction.json` —
/// subsequences/sec and the grid's work per workload, so future changes
/// have a trajectory to compare against — and the invariants.
fn output(rows: &[BuildRow]) -> ExperimentOutput {
    let fields: Vec<Row> = rows.iter().map(BuildRow::fields).collect();
    let caption = format!(
        "E12 — construction through the exact nearest-representative grid \
         (walk / noise: length {SUBSEQ_LEN}; harness: lengths 16–24, Seed — \
         the many-groups regime where construction is slowest; clustered: \
         lengths 30–32, Seed — a few huge groups, where the sketch pass is \
         most of what is left). examined + pruned is what a linear scan \
         examines"
    );
    ExperimentOutput {
        tables: vec![table(caption, &fields)],
        record: Some((
            "BENCH_construction.json",
            record(
                "e12_construction",
                // The level the grid's bound pass ran at: every count the
                // record holds is the same at each.
                vec![(
                    "kernel_level",
                    onex_distance::kernels::level().label().into(),
                )],
                vec![("rows", Value::Rows(fields))],
            ),
        )),
        violations: check(rows),
    }
}

/// E12's invariants, stated once:
///
/// * off white noise, the grid answers a window from under ten distance
///   calls; a linear scan, or an index whose bound or cells stopped
///   pruning, sits in the hundreds or thousands (on noise no index helps);
/// * on the load harness's two shapes, `harness` and `clustered`, every
///   one of the [`TIMED_BUILDS`] builds counts the same work, and the
///   median sketch share takes at most 0.4 of the build (quantising
///   every window afresh made it 0.48 and 0.70). A ratio of two timings
///   of one process, checked in an optimised build only.
pub fn check(rows: &[BuildRow]) -> Vec<String> {
    let walks: Vec<&BuildRow> = rows.iter().filter(|r| r.shape != "noise").collect();
    let harness = |r: &&BuildRow| timed(r.shape);
    let n = rows.iter().filter(harness).count();
    let mut out: Vec<String> = broken([
        (!walks.is_empty(), "no random-walk rows".into()),
        (n == 2, format!("{n} harness and clustered rows, not 2")),
    ])
    .collect();
    for r in walks {
        let (calls, windows) = (r.distance_calls, r.subsequences);
        let what = format!("{} {}x{}: {calls} distance calls", r.shape, r.series, r.len);
        let few = calls < 10 * windows;
        out.extend(broken([(
            few,
            format!("{what}, {windows} windows: ≥ 10 a window"),
        )]));
    }
    for r in rows.iter().filter(harness) {
        let what = format!("{}: {} builds", r.shape, r.builds);
        out.extend(broken([(
            r.agree,
            format!("{what} counted different work"),
        )]));
    }
    for r in rows.iter().filter(harness).filter(|_| TIMED) {
        let share = r.sketch.as_secs_f64() / r.elapsed.as_secs_f64();
        let what = format!("{}: median sketch pass {share:.2} of the build", r.shape);
        out.extend(broken([(share <= 0.4, format!("{what}, over 0.4 of it"))]));
    }
    out
}

#[cfg(test)]
use onex_grouping::OnexBase;
#[cfg(test)]
#[path = "../../../grouping/tests/model/mod.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_builder_beats_linear_and_stays_identical() {
        // The quick sweep's shapes at sizes a debug build scans in
        // seconds, the ≥ 5k-subsequence walk row kept.
        let sweep = workloads(&[(12, 96), (40, 160)], (8, 64), (12, 96), (8, 96));
        let rows = measure_each(&sweep);
        assert_eq!(rows.len(), 7, "2 walk + 1 harness + 3 noise + 1 clustered");
        for (workload, row) in sweep.iter().zip(&rows) {
            let what = format!("{} {}x{} ST {}", row.shape, row.series, row.len, row.st);
            // The grid builds the base the linear scan builds, and
            // accounts for every representative it did not compare.
            let ds = (workload.generate)(workload.series, workload.len);
            let model = model::build(&ds, &workload.config);
            let (base, _) = BaseBuilder::new(workload.config.clone())
                .unwrap()
                .build(&ds);
            model::assert_matches(&model, &base, &what);
            assert_eq!(row.groups, base.group_count(), "{what}");
            assert_eq!(row.examined + row.pruned, model.scanned, "{what}");
        }
        assert_eq!(check(&rows), Vec::<String>::new());
        assert!(
            rows.iter().any(|r| r.subsequences >= 5000),
            "a row past the crossover"
        );
    }

    fn row(shape: &'static str, distance_calls: usize) -> BuildRow {
        BuildRow {
            shape,
            series: 40,
            len: 160,
            st: 0.5,
            subsequences: 5480,
            groups: 5480,
            threads: 2,
            builds: 1,
            agree: true,
            elapsed: Duration::from_millis(100),
            sketch: Duration::from_millis(20),
            per_sec: 54_800.0,
            examined: distance_calls,
            pruned: 15_012_460 - distance_calls,
            distance_calls,
        }
    }

    #[test]
    fn check_names_a_broken_invariant() {
        let rows = || ["walk", "harness", "noise", "clustered"].map(|shape| row(shape, 1_445));
        assert_eq!(check(&rows()), Vec::<String>::new());
        let mut broken = rows();
        broken[1].distance_calls = 10 * broken[1].subsequences;
        crate::experiments::assert_broken(&check(&broken), "harness 40x160: 54800 distance calls");
        let mut split = rows();
        split[3].agree = false;
        crate::experiments::assert_broken(&check(&split), "clustered: 1 builds counted different");
        assert!(check(&[]).contains(&"no random-walk rows".to_string()));
    }

    #[test]
    fn json_report_is_parseable_shape() {
        crate::experiments::assert_record_shape(
            output(&[row("walk", 1_445), row("noise", 799_281)]),
            "BENCH_construction.json",
            include_str!("../../../../BENCH_construction.json"),
        );
    }
}
