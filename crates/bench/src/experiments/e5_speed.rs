//! E5 — the headline speed claim: ONEX query latency vs the UCR Suite and
//! brute-force DTW scans, sweeping collection size.
//!
//! Paper (§1): *"ONEX has been shown to be several times faster than the
//! fastest known method [UCR Suite]"*. ONEX's advantage is structural: its
//! per-query work scales with the number of *groups*, the scans with the
//! number of *subsequences*. Construction cost is reported separately
//! (E7) — the demo amortises it across an interactive session.

use onex_baselines::ucrsuite::{ucr_dtw_search_dataset, DtwSearchConfig};
use onex_core::{exhaustive, Onex, QueryOptions};
use onex_grouping::BaseConfig;
use onex_tseries::Dataset;

use crate::harness::{fmt_duration, fmt_speedup, median_time, Table};
use crate::workloads;

struct Row {
    series: usize,
    onex_top1: std::time::Duration,
    onex: std::time::Duration,
    ucr: std::time::Duration,
    brute_ea: std::time::Duration,
    brute_naive: Option<std::time::Duration>,
}

fn measure(ds: &Dataset, qlen: usize, st: f64, runs: usize, naive: bool) -> Row {
    let cfg = BaseConfig::new(st, qlen, qlen);
    let (engine, _) = Onex::build(ds.clone(), cfg).expect("valid config");
    let query = {
        let s = ds.series(0).expect("non-empty dataset");
        let mid = (s.len() - qlen) / 2;
        workloads::perturbed_query(ds, s.name(), mid, qlen, 0.05)
    };
    let opts = QueryOptions::default();

    // The paper's engine (best-group-only) and the exact variant.
    let approx_opts = QueryOptions::default().top_groups(1);
    let onex_top1 = median_time(
        || {
            let _ = engine.best_match(&query, &approx_opts).unwrap();
        },
        runs,
    );
    let onex = median_time(
        || {
            let _ = engine.best_match(&query, &opts).unwrap();
        },
        runs,
    );
    let ucr_cfg = DtwSearchConfig::default();
    let ucr = median_time(
        || {
            let _ = ucr_dtw_search_dataset(ds, &query, &ucr_cfg);
        },
        runs,
    );
    let brute_ea = median_time(
        || {
            let _ = exhaustive::scan_best(ds, &query, &[qlen], 1, &opts, true);
        },
        runs,
    );
    let brute_naive = naive.then(|| {
        median_time(
            || {
                let _ = exhaustive::scan_best(ds, &query, &[qlen], 1, &opts, false);
            },
            runs.min(3),
        )
    });
    Row {
        series: ds.len(),
        onex_top1,
        onex,
        ucr,
        brute_ea,
        brute_naive,
    }
}

/// Run the sweep on a groupable (sine) and an adversarial (walk) collection.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[20, 50]
    } else {
        // ONEX's per-query cost is flat in the collection size (it scales
        // with groups); the scans are linear. The sweep must run far
        // enough to show the crossover and the paper's "several times
        // faster" régime.
        &[25, 50, 100, 200, 400]
    };
    let (len, qlen) = (128, 32);
    let runs = if quick { 3 } else { 7 };
    let mut tables = Vec::new();

    for (name, maker, st) in [
        (
            "sine collection (groupable, like periodic UCR-archive data)",
            workloads::sine_collection as fn(usize, usize) -> Dataset,
            0.35,
        ),
        (
            "random-walk collection (adversarial for grouping)",
            workloads::walk_collection as fn(usize, usize) -> Dataset,
            1.2,
        ),
    ] {
        let mut t = Table::new(
            format!("E5 — best-match query latency vs collection size: {name}"),
            &[
                "series×len",
                "ONEX (paper, top-1)",
                "ONEX (exact)",
                "UCR Suite",
                "scan+abandon",
                "naive scan",
                "top-1 vs UCR",
                "exact vs UCR",
            ],
        );
        for &n in sizes {
            let ds = maker(n, len);
            let row = measure(&ds, qlen, st, runs, !quick && n <= 50);
            t.row(vec![
                format!("{}×{len}", row.series),
                fmt_duration(row.onex_top1),
                fmt_duration(row.onex),
                fmt_duration(row.ucr),
                fmt_duration(row.brute_ea),
                row.brute_naive.map_or("-".into(), fmt_duration),
                fmt_speedup(row.ucr, row.onex_top1),
                fmt_speedup(row.ucr, row.onex),
            ]);
        }
        tables.push(t);
    }

    // Companion table: where the UCR cascade spends its candidates (the
    // accounting the original KDD-2012 paper reports). This explains the
    // baseline's speed — and why ONEX can still beat it: ONEX removes
    // candidates *before* any per-candidate work, at construction time.
    let n = if quick { 50 } else { 200 };
    let ds = workloads::sine_collection(n, len);
    let query = {
        let s = ds.series(0).expect("non-empty");
        workloads::perturbed_query(&ds, s.name(), (s.len() - qlen) / 2, qlen, 0.05)
    };
    let mut cascade = Table::new(
        format!("E5 (companion) — UCR Suite pruning cascade on {n}×{len} sine collection"),
        &["tier", "candidates killed", "share"],
    );
    if let Some((_, stats)) = ucr_dtw_search_dataset(&ds, &query, &DtwSearchConfig::default()) {
        let total = stats.candidates.max(1);
        let pct = |k: usize| format!("{:.1}%", 100.0 * k as f64 / total as f64);
        cascade.row(vec![
            "LB_KimFL".into(),
            stats.kim_pruned.to_string(),
            pct(stats.kim_pruned),
        ]);
        cascade.row(vec![
            "LB_Keogh (query env)".into(),
            stats.keogh_eq_pruned.to_string(),
            pct(stats.keogh_eq_pruned),
        ]);
        cascade.row(vec![
            "LB_Keogh (candidate env)".into(),
            stats.keogh_ec_pruned.to_string(),
            pct(stats.keogh_ec_pruned),
        ]);
        cascade.row(vec![
            "DTW abandoned mid-DP".into(),
            stats.dtw_abandoned.to_string(),
            pct(stats.dtw_abandoned),
        ]);
        let survived = stats.dtw_runs - stats.dtw_abandoned;
        cascade.row(vec![
            "DTW completed".into(),
            survived.to_string(),
            pct(survived),
        ]);
        cascade.row(vec![
            "total candidates".into(),
            stats.candidates.to_string(),
            "100%".into(),
        ]);
    }
    tables.push(cascade);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_tables_have_sweep_rows() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        for t in &tables[..2] {
            assert_eq!(t.rows.len(), 2);
            assert!(t.rows[0][6].ends_with('×'));
        }
        // Cascade accounting sums to the candidate total.
        let cascade = &tables[2];
        assert_eq!(cascade.rows.len(), 6);
        let killed: usize = cascade.rows[..3]
            .iter()
            .map(|r| r[1].parse::<usize>().unwrap())
            .sum();
        let dtw_total: usize = cascade.rows[3][1].parse::<usize>().unwrap()
            + cascade.rows[4][1].parse::<usize>().unwrap();
        let total: usize = cascade.rows[5][1].parse().unwrap();
        assert_eq!(killed + dtw_total, total);
    }
}
