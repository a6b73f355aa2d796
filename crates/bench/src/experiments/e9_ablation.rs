//! E9 — ablations of the design choices DESIGN.md calls out: the search
//! breadth and the L0 tier (the exact cascade's one off switch) against
//! the exhaustive scan, the representative policy, and the warping band.

use onex_core::{exhaustive, Onex, QueryOptions, QueryStats};
use onex_distance::Band;
use onex_grouping::{BaseConfig, RepresentativePolicy};

use crate::harness::{fmt_duration, median_time, Table};
use crate::workloads;

/// One row of the pruning ablation: its name and the search it times,
/// which returns the match distance and the work it counted.
type Variant<'a> = (&'a str, &'a dyn Fn() -> (f64, QueryStats));

/// Run all three ablations.
pub fn run(quick: bool) -> Vec<Table> {
    let (n, len) = if quick { (20, 64) } else { (40, 128) };
    let qlen = if quick { 16 } else { 32 };
    let runs = if quick { 3 } else { 7 };
    let ds = workloads::sine_collection(n, len);
    let query = workloads::perturbed_query(&ds, "fam0-0", 8, qlen, 0.1);

    // Ablation 1: search breadth and the L0 tier, on certified radii so
    // the exact rows are exact.
    let seed = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.35, qlen, qlen)
    };
    let (engine, _) = Onex::build(ds.clone(), seed).expect("valid config");
    let mut pruning = Table::new(
        "E9a — pruning ablation (same base, same query; Seed policy)",
        &[
            "configuration",
            "latency",
            "members examined",
            "LB-pruned",
            "DTW runs",
            "avoided work",
            "match dtw",
        ],
    );
    let groups = engine.base().groups_for_len(qlen).len();
    let search = |opts: QueryOptions| {
        let (engine, query) = (&engine, &query);
        move || {
            let (m, stats) = engine.best_match(query, &opts).unwrap();
            (m.expect("match exists").distance, stats)
        }
    };
    // No pruning at all is the oracle: one full DTW a window it scans.
    let windows = ds.subsequence_count(qlen, qlen);
    let scan = || {
        let hit = exhaustive::scan_best(&ds, &query, &[qlen], 1, &QueryOptions::default(), false);
        let stats = QueryStats {
            members_examined: windows,
            dtw_completed: windows,
            ..QueryStats::default()
        };
        (hit.unwrap().expect("match exists").distance, stats)
    };
    let variants: [Variant; 5] = [
        ("full pruning (exact)", &search(QueryOptions::default())),
        (
            "paper mode (top-1 group)",
            &search(QueryOptions::default().top_groups(1)),
        ),
        (
            "every group scanned (exact)",
            &search(QueryOptions::default().top_groups(groups)),
        ),
        (
            "no L0 sketches (exact)",
            &search(QueryOptions::default().without_l0()),
        ),
        ("no pruning at all (exhaustive scan)", &scan),
    ];
    for (name, run) in variants {
        let (distance, stats) = run();
        let lat = median_time(
            || {
                run();
            },
            runs,
        );
        pruning.row(vec![
            name.into(),
            fmt_duration(lat),
            stats.members_examined.to_string(),
            stats.members_lb_pruned.to_string(),
            stats.dtw_invocations().to_string(),
            format!("{:.0}%", stats.pruning_effectiveness() * 100.0),
            distance.to_string(),
        ]);
    }

    // Ablation 2: representative policy.
    let mut policy = Table::new(
        "E9b — representative policy (Centroid = paper, Seed = certified radii)",
        &[
            "policy",
            "groups",
            "compaction",
            "drift rate",
            "query latency",
        ],
    );
    for (name, pol) in [
        ("Centroid", RepresentativePolicy::Centroid),
        ("Seed", RepresentativePolicy::Seed),
    ] {
        let cfg = BaseConfig {
            policy: pol,
            ..BaseConfig::new(0.35, qlen, qlen)
        };
        let (e, report) = Onex::build(ds.clone(), cfg).expect("valid config");
        let audit = e.base().audit(&e.dataset());
        let lat = median_time(
            || {
                let _ = e.best_match(&query, &QueryOptions::default()).unwrap();
            },
            runs,
        );
        policy.row(vec![
            name.into(),
            report.groups.to_string(),
            format!("{:.1}×", report.compaction()),
            format!("{:.1}%", audit.violation_rate() * 100.0),
            fmt_duration(lat),
        ]);
    }

    // Ablation 3: warping band on the query side.
    let mut band = Table::new(
        "E9c — query warping band (narrower bands are faster, less warped)",
        &["band", "latency", "match dtw"],
    );
    for (name, b) in [
        ("full (ONEX default)", Band::Full),
        ("Itakura parallelogram", Band::Itakura),
        ("Sakoe–Chiba 20%", Band::from_fraction(qlen, 0.20)),
        ("Sakoe–Chiba 5%", Band::from_fraction(qlen, 0.05)),
        ("none (ED)", Band::SakoeChiba(0)),
    ] {
        let opts = QueryOptions::with_band(b);
        let (m, _) = engine.best_match(&query, &opts).unwrap();
        let lat = median_time(
            || {
                let _ = engine.best_match(&query, &opts).unwrap();
            },
            runs,
        );
        band.row(vec![
            name.into(),
            fmt_duration(lat),
            format!("{:.4}", m.expect("match exists").distance),
        ]);
    }

    vec![pruning, policy, band]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The module's one quick run, shared by every test below.
    fn quick() -> &'static [Table] {
        static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
        TABLES.get_or_init(|| run(true))
    }

    #[test]
    fn ablations_have_expected_shape() {
        let tables = quick();
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 5);
        assert_eq!(tables[1].rows.len(), 2);
        assert_eq!(tables[2].rows.len(), 5);
    }

    #[test]
    fn pruning_reduces_dtw_work() {
        let tables = quick();
        let dtw_full: usize = tables[0].rows[0][4].parse().unwrap();
        let dtw_none: usize = tables[0].rows[4][4].parse().unwrap();
        assert!(
            dtw_full <= dtw_none,
            "pruning may only reduce DTW runs: {dtw_full} vs {dtw_none}"
        );
    }

    /// The three exact rows find the oracle's match distance, bit for bit
    /// (`f64`'s `Display` round-trips).
    #[test]
    fn exact_rows_report_the_oracle_distance() {
        let rows = &quick()[0].rows;
        let dtw = |row: usize| rows[row][6].parse::<f64>().unwrap().to_bits();
        for exact in [0, 2, 3] {
            assert_eq!(dtw(exact), dtw(4), "{:?} vs {:?}", rows[exact], rows[4]);
        }
    }

    #[test]
    fn seed_policy_has_zero_drift() {
        let tables = quick();
        assert_eq!(tables[1].rows[1][3], "0.0%");
    }
}
