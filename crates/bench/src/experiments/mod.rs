//! One module per experiment, `e1` to `e19` ([`ALL`]); [`run`] dispatches
//! by id, and `quick` shrinks workload sizes for CI-speed runs. E12 to
//! E19 measure typed rows once and read them three ways. Each row type
//! states its fields once, as a [`Row`](crate::harness::Row) of
//! `(key, value)` pairs, and that one list renders both the printed
//! [`table`](crate::harness::table), whose columns the keys head, and the
//! JSON perf [`record`](crate::harness::record). The third reading is a
//! `check`, the one statement of the experiment's invariants: [`run`]
//! puts what it returns in [`ExperimentOutput::violations`], and the
//! experiment's unit tests call the same function. One more test in each
//! pins its record's keys and decimal places to the committed
//! `BENCH_*.json`.

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

/// Test helper: the record `output` carries is the committed file
/// `name`'s shape — the same keys in the same order at every level, each
/// array's first row standing for its kind, and each number with the
/// same decimal places. Row counts may differ (with the kernel level,
/// say); the keys and their formats may not.
#[cfg(test)]
pub(crate) fn assert_record_shape(output: ExperimentOutput, name: &str, committed: &str) {
    let (file, record) = output.record.expect("a perf record");
    assert_eq!(file, name);
    assert_eq!(shape(&record), shape(committed), "{record}");
}

/// A JSON document reduced to what [`assert_record_shape`] compares:
/// an object keeps its keys, an array its first element; a number
/// becomes `#` and its decimal places, a string `s`, a bool `b`.
#[cfg(test)]
fn shape(json: &str) -> String {
    type Json<'a> = std::iter::Peekable<std::str::Chars<'a>>;
    fn skip(json: &mut Json<'_>, also: char) {
        while json.next_if(|&c| c.is_whitespace() || c == also).is_some() {}
    }
    fn value(json: &mut Json<'_>, out: &mut String) {
        skip(json, ' ');
        match json.next().expect("a complete document") {
            open @ ('{' | '[') => {
                let close = if open == '{' { '}' } else { ']' };
                out.push(open);
                for i in 0.. {
                    skip(json, ',');
                    if json.next_if_eq(&close).is_some() {
                        break;
                    }
                    let mut element = String::new();
                    if open == '{' {
                        let key: String = json.by_ref().skip(1).take_while(|&c| c != '"').collect();
                        skip(json, ':');
                        element = format!("{key}:");
                    }
                    value(json, &mut element);
                    if open == '{' || i == 0 {
                        out.push_str(&element);
                        out.push(',');
                    }
                }
                out.push(close);
            }
            '"' => {
                json.by_ref().take_while(|&c| c != '"').for_each(drop);
                out.push('s');
            }
            't' | 'f' => {
                while json.next_if(char::is_ascii_alphabetic).is_some() {}
                out.push('b');
            }
            first => {
                let mut number = first.to_string();
                while let Some(c) = json.next_if(|&c| c.is_ascii_digit() || ".-+eE".contains(c)) {
                    number.push(c);
                }
                let places = number.split_once('.').map_or(0, |(_, f)| f.len());
                out.push_str(&format!("#{places}"));
            }
        }
    }
    let mut out = String::new();
    value(&mut json.chars().peekable(), &mut out);
    out
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

#[cfg(test)]
mod tests {
    #[test]
    fn a_shape_keeps_keys_and_decimal_places() {
        let json = r#"{"a":"x","b":[{"c":1.50,"d":true},{"c":2}],"e":[1, 2],"f":{"g":-3.0}}"#;
        assert_eq!(
            super::shape(json),
            "{a:s,b:[{c:#2,d:b,},],e:[#0,],f:{g:#1,},}"
        );
    }
}
