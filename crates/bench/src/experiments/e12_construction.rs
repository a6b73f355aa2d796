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
//! cost (`us_per_window`). That the grid
//! builds the linear scan's base is tier-1's to show (a model of the
//! admission rule in `onex-grouping`'s tests), not this experiment's.

use std::time::Duration;

use onex_grouping::{BaseBuilder, BaseConfig, RepresentativePolicy};
use onex_tseries::Dataset;

use crate::harness::{fmt_duration, threads, us_per, Table};
use crate::workloads;

/// Subsequence length of the single-length rows (keeps the comparison
/// about lookup cost, not length mix).
const SUBSEQ_LEN: usize = 24;
/// Similarity threshold of the `walk` sweep: small enough that random
/// walks barely group — the many-groups regime the index exists for.
const ST: f64 = 0.5;

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
    /// Construction wall-clock.
    pub elapsed: Duration,
    /// Of which the sketch pass over the finished groups.
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
            let (_, report) = builder.build(&ds);
            BuildRow {
                shape: workload.shape,
                series: workload.series,
                len: workload.len,
                st: workload.config.st,
                subsequences: report.subsequences,
                groups: report.groups,
                threads: threads(),
                elapsed: report.elapsed,
                sketch: report.sketch,
                per_sec: report.subsequences_per_sec(),
                examined: report.work.examined,
                pruned: report.work.pruned,
                distance_calls: report.work.distance_calls,
            }
        })
        .collect()
}

/// Render the sweep as the experiment table.
pub fn table(rows: &[BuildRow]) -> Table {
    let mut t = Table::new(
        format!(
            "E12 — construction through the exact nearest-representative grid \
             (walk / noise: length {SUBSEQ_LEN}; harness: lengths 16–24, Seed — \
             the many-groups regime where construction is slowest; clustered: \
             lengths 30–32, Seed — a few huge groups, where the sketch pass is \
             most of what is left). examined + pruned is what a linear scan \
             examines"
        ),
        &[
            "shape",
            "collection",
            "ST",
            "subseqs",
            "groups",
            "threads",
            "build",
            "µs/window",
            "sketch pass",
            "subseq/s",
            "dist calls",
            "examined",
            "pruned",
        ],
    );
    for row in rows {
        t.row(vec![
            row.shape.into(),
            format!("{}x{}", row.series, row.len),
            row.st.to_string(),
            row.subsequences.to_string(),
            row.groups.to_string(),
            row.threads.to_string(),
            fmt_duration(row.elapsed),
            format!("{:.2}", us_per(row.elapsed, row.subsequences)),
            fmt_duration(row.sketch),
            format!("{:.0}", row.per_sec),
            row.distance_calls.to_string(),
            row.examined.to_string(),
            row.pruned.to_string(),
        ]);
    }
    t
}

/// The machine-readable perf record `repro --format json` writes to
/// `BENCH_construction.json` — subsequences/sec and the grid's work per
/// workload, so future changes have a trajectory to compare against.
/// Every row carries `sketch_ms` beside `elapsed_ms` — both wall-clock —
/// and CI holds their ratio on the `harness` and `clustered` rows; and
/// `threads` beside `us_per_window`.
pub fn json_report(rows: &[BuildRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"experiment\":\"e12_construction\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shape\":\"{}\",\"series\":{},\"len\":{},\"st\":{},\
             \"subsequences\":{},\"groups\":{},\"threads\":{},\"elapsed_ms\":{:.3},\
             \"us_per_window\":{:.3},\"sketch_ms\":{:.3},\
             \"subsequences_per_sec\":{:.1},\
             \"distance_calls\":{},\"examined\":{},\"pruned\":{}}}",
            r.shape,
            r.series,
            r.len,
            r.st,
            r.subsequences,
            r.groups,
            r.threads,
            r.elapsed.as_secs_f64() * 1e3,
            us_per(r.elapsed, r.subsequences),
            r.sketch.as_secs_f64() * 1e3,
            r.per_sec,
            r.distance_calls,
            r.examined,
            r.pruned,
        );
    }
    out.push_str("]}\n");
    out
}

/// Standard experiment entry point.
pub fn run(quick: bool) -> Vec<Table> {
    vec![table(&measure(quick))]
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
            // Where walks barely group the grid answers a window from a
            // handful of distance calls, whatever the size (wall-clock
            // follows — the table reports it — but is not asserted, to
            // keep CI stable). White noise is exempt: nothing helps there.
            if row.shape != "noise" {
                assert!(
                    row.distance_calls < 10 * row.subsequences,
                    "{what}: {} distance calls for {} subsequences",
                    row.distance_calls,
                    row.subsequences
                );
            }
        }
        assert!(
            rows.iter().any(|r| r.subsequences >= 5000),
            "a row past the crossover"
        );
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let row = |shape, distance_calls| BuildRow {
            shape,
            series: 40,
            len: 160,
            st: 0.5,
            subsequences: 5480,
            groups: 5480,
            threads: 2,
            elapsed: Duration::from_millis(100),
            sketch: Duration::from_millis(20),
            per_sec: 54_800.0,
            examined: distance_calls,
            pruned: 15_012_460 - distance_calls,
            distance_calls,
        };
        let json = json_report(&[row("walk", 1_445), row("noise", 799_281)]);
        assert!(json.starts_with("{\"experiment\":\"e12_construction\",\"rows\":[{"));
        assert!(json.contains(
            "{\"shape\":\"noise\",\"series\":40,\"len\":160,\"st\":0.5,\
             \"subsequences\":5480,\"groups\":5480,\"threads\":2,\"elapsed_ms\":100.000,\
             \"us_per_window\":18.248,\"sketch_ms\":20.000,\"subsequences_per_sec\":54800.0,\
             \"distance_calls\":799281,\
             \"examined\":799281,\"pruned\":14213179}"
        ));
        assert_eq!(json.matches("\"shape\":").count(), 2);
        assert_eq!(json.matches("\"sketch_ms\":").count(), 2, "every row");
        assert_eq!(json.matches("\"threads\":2,").count(), 2, "every row");
        assert!(json.trim_end().ends_with("]}"));
    }
}
