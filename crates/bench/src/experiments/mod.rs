//! One module per experiment in the DESIGN.md index. Each `run(quick)`
//! returns the tables the paper artefact corresponds to; `quick` shrinks
//! workload sizes for CI-speed runs.

pub mod e10_streaming;
pub mod e11_baseline_index;
pub mod e12_construction;
pub mod e13_scaling;
pub mod e14_pruning;
pub mod e15_ingest;
pub mod e16_cluster;
pub mod e17_kernels;
pub mod e18_coldstart;
pub mod e19_resilience;
pub mod e1_pipeline;
pub mod e2_similarity;
pub mod e3_linked_views;
pub mod e4_seasonal;
pub mod e5_speed;
pub mod e6_accuracy;
pub mod e7_compaction;
pub mod e8_threshold;
pub mod e9_ablation;

use crate::harness::Table;

/// Experiment ids accepted by the `repro` binary.
pub const ALL: [&str; 19] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19",
];

/// What one experiment run produced: the printable tables, plus an
/// optional machine-readable perf record (filename, contents) that
/// `repro --format json` writes next to the working directory so
/// successive runs leave a comparable performance trajectory. Both views
/// come from one measurement pass.
pub struct ExperimentOutput {
    /// Printable tables, one per panel.
    pub tables: Vec<Table>,
    /// Optional perf record: `(file name, JSON document)`.
    pub record: Option<(&'static str, String)>,
}

impl From<Vec<Table>> for ExperimentOutput {
    fn from(tables: Vec<Table>) -> Self {
        ExperimentOutput {
            tables,
            record: None,
        }
    }
}

/// Dispatch one experiment by id.
pub fn run(id: &str, quick: bool) -> Option<ExperimentOutput> {
    match id {
        "e1" => Some(e1_pipeline::run(quick).into()),
        "e2" => Some(e2_similarity::run(quick).into()),
        "e3" => Some(e3_linked_views::run(quick).into()),
        "e4" => Some(e4_seasonal::run(quick).into()),
        "e5" => Some(e5_speed::run(quick).into()),
        "e6" => Some(e6_accuracy::run(quick).into()),
        "e7" => Some(e7_compaction::run(quick).into()),
        "e8" => Some(e8_threshold::run(quick).into()),
        "e9" => Some(e9_ablation::run(quick).into()),
        "e10" => Some(e10_streaming::run(quick).into()),
        "e11" => Some(e11_baseline_index::run(quick).into()),
        "e12" => {
            let rows = e12_construction::measure(quick);
            Some(ExperimentOutput {
                tables: vec![e12_construction::table(&rows)],
                record: Some((
                    "BENCH_construction.json",
                    e12_construction::json_report(&rows),
                )),
            })
        }
        "e13" => {
            let rows = e13_scaling::measure(quick);
            Some(ExperimentOutput {
                tables: vec![e13_scaling::table(&rows)],
                record: Some(("BENCH_scaling.json", e13_scaling::json_report(&rows))),
            })
        }
        "e14" => {
            let rows = e14_pruning::measure(quick);
            Some(ExperimentOutput {
                tables: vec![e14_pruning::table(&rows)],
                record: Some(("BENCH_pruning.json", e14_pruning::json_report(&rows))),
            })
        }
        "e15" => {
            let rows = e15_ingest::measure(quick);
            let (series, len) = e15_ingest::UNCOMPACTING;
            let uncompacting = e15_ingest::measure_uncompacting(series, len);
            Some(ExperimentOutput {
                tables: vec![
                    e15_ingest::table(&rows),
                    e15_ingest::uncompacting_table(&uncompacting),
                ],
                record: Some((
                    "BENCH_ingest.json",
                    e15_ingest::json_report(&rows, &uncompacting),
                )),
            })
        }
        "e16" => {
            let rows = e16_cluster::measure(quick);
            let probe = e16_cluster::dead_peer_probe();
            Some(ExperimentOutput {
                tables: vec![e16_cluster::table(&rows, &probe)],
                record: Some((
                    "BENCH_cluster.json",
                    e16_cluster::json_report(&rows, &probe),
                )),
            })
        }
        "e17" => {
            let kernel_rows = e17_kernels::measure_kernels(quick);
            let cascade_rows = e17_kernels::measure_cascade(quick);
            Some(ExperimentOutput {
                tables: vec![
                    e17_kernels::kernels_table(&kernel_rows),
                    e17_kernels::cascade_table(&cascade_rows),
                ],
                record: Some((
                    "BENCH_kernels.json",
                    e17_kernels::json_report(&kernel_rows, &cascade_rows),
                )),
            })
        }
        "e18" => {
            let rows = e18_coldstart::measure(quick);
            Some(ExperimentOutput {
                tables: vec![e18_coldstart::table(&rows)],
                record: Some(("BENCH_coldstart.json", e18_coldstart::json_report(&rows))),
            })
        }
        "e19" => {
            let report = e19_resilience::measure(quick);
            Some(ExperimentOutput {
                tables: vec![e19_resilience::table(&report)],
                record: Some((
                    "BENCH_resilience.json",
                    e19_resilience::json_report(&report),
                )),
            })
        }
        _ => None,
    }
}
