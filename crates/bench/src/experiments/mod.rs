//! One module per experiment, `e1` to `e19` ([`ALL`]); [`run`] dispatches
//! by id, and `quick` shrinks workload sizes for CI-speed runs. E12 to
//! E19 measure typed rows once and read them three ways: a table, a JSON
//! perf record, and a `check` that is the one statement of the
//! experiment's invariants — [`run`] puts what it returns in
//! [`ExperimentOutput::violations`], and the experiment's unit tests call
//! the same function.

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
/// come from one measurement pass, and so do the invariants checked on
/// it.
pub struct ExperimentOutput {
    /// Printable tables, one per panel.
    pub tables: Vec<Table>,
    /// Optional perf record: `(file name, JSON document)`.
    pub record: Option<(&'static str, String)>,
    /// The invariants this run broke, one line each; empty when all of
    /// them held or the experiment states none.
    pub violations: Vec<String>,
}

impl From<Vec<Table>> for ExperimentOutput {
    fn from(tables: Vec<Table>) -> Self {
        ExperimentOutput {
            tables,
            record: None,
            violations: Vec::new(),
        }
    }
}

/// Whether wall-clock invariants are checked: only in an optimised
/// build, where the timings mean what they say. A debug build checks the
/// counts and the answers alone.
pub(crate) const TIMED: bool = !cfg!(debug_assertions);

/// How each `check` states its invariants: a list of `(holds, what)`,
/// of which the `what` of every one that does not hold comes out.
pub(crate) fn broken<const N: usize>(
    invariants: [(bool, String); N],
) -> impl Iterator<Item = String> {
    invariants
        .into_iter()
        .filter_map(|(holds, what)| (!holds).then_some(what))
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
        "e12" => Some(e12_construction::run(quick)),
        "e13" => Some(e13_scaling::run(quick)),
        "e14" => Some(e14_pruning::run(quick)),
        "e15" => Some(e15_ingest::run(quick)),
        "e16" => Some(e16_cluster::run(quick)),
        "e17" => Some(e17_kernels::run(quick)),
        "e18" => Some(e18_coldstart::run(quick)),
        "e19" => Some(e19_resilience::run(quick)),
        _ => None,
    }
}

/// Test helper: `violations` names exactly one broken invariant, and
/// that one says `needle`.
#[cfg(test)]
pub(crate) fn assert_broken(violations: &[String], needle: &str) {
    assert!(
        violations.len() == 1 && violations[0].contains(needle),
        "expected one violation saying {needle:?}, got {violations:?}"
    );
}
