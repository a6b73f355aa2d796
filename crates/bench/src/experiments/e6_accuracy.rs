//! E6 — the headline accuracy claim: *"while still delivering up to 19%
//! more accurate results"* (§1).
//!
//! ONEX keeps DTW **unconstrained** (it can afford to, because it only
//! runs DTW against the compact base), whereas fast scans constrain the
//! warping window to stay tractable. This experiment quantifies what the
//! constraint costs: for a set of queries, compare the match each method
//! returns against the exact unconstrained-DTW ground truth.
//!
//! Metrics per method: how often it returns a true best match (hit rate),
//! and the mean distance inflation of its answer (found / optimal; 1.00 is
//! perfect). The paper's "19% more accurate" corresponds to the inflation
//! gap between ONEX and the banded scans at narrow bands.

use onex_core::{exhaustive, Onex, QueryOptions};
use onex_distance::Band;
use onex_grouping::BaseConfig;
use onex_tseries::Dataset;

use crate::harness::{fmt_duration, median_time, Table};
use crate::workloads;

struct Outcome {
    hits: usize,
    inflation_sum: f64,
    queries: usize,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            hits: 0,
            inflation_sum: 0.0,
            queries: 0,
        }
    }
    fn record(&mut self, found: f64, optimal: f64) {
        self.queries += 1;
        if (found - optimal).abs() < 1e-9 {
            self.hits += 1;
        }
        if optimal > 1e-12 {
            self.inflation_sum += found / optimal;
        } else {
            self.inflation_sum += if found < 1e-9 { 1.0 } else { 2.0 };
        }
    }
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.queries.max(1) as f64
    }
    fn inflation(&self) -> f64 {
        self.inflation_sum / self.queries.max(1) as f64
    }
}

fn queries(ds: &Dataset, qlen: usize, count: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let sid = (k * 7) % ds.len();
        let s = ds.series(sid as u32).expect("series exists");
        let start = (k * 13) % (s.len() - 2 * qlen);
        // Time-warped queries: the regime where the paper's accuracy edge
        // (unconstrained DTW) shows. Warp strength varies per query.
        let strength = 0.3 + 0.4 * ((k % 4) as f64) / 3.0;
        out.push(workloads::warped_query(
            ds,
            s.name(),
            start,
            qlen,
            strength,
            0.05,
        ));
    }
    out
}

/// Run the accuracy comparison.
pub fn run(quick: bool) -> Vec<Table> {
    let (n, len, qlen) = if quick { (16, 64, 16) } else { (40, 96, 24) };
    let nq = if quick { 8 } else { 24 };
    let runs = if quick { 3 } else { 7 };
    let ds = workloads::sine_collection(n, len);
    let (engine, _) =
        Onex::build(ds.clone(), BaseConfig::new(0.35, qlen, qlen)).expect("valid config");
    let qs = queries(&ds, qlen, nq);

    // Band fractions of the query length mirror the UCR convention.
    let fractions = [0.05, 0.10, 0.20];
    let mut onex_out = Outcome::new();
    let mut onex_top1_out = Outcome::new();
    let mut banded_out: Vec<Outcome> = fractions.iter().map(|_| Outcome::new()).collect();

    let full_opts = QueryOptions::default();
    let top1_opts = QueryOptions::default().top_groups(1);
    for q in &qs {
        let truth = exhaustive::scan_best(&ds, q, &[qlen], 1, &full_opts, true)
            .expect("valid scan")
            .expect("ground truth exists");
        // ONEX: unconstrained DTW over the base (exact and paper modes).
        let (m, _) = engine.best_match(q, &full_opts).unwrap();
        onex_out.record(m.expect("match exists").distance, truth.distance);
        let (m1, _) = engine.best_match(q, &top1_opts).unwrap();
        onex_top1_out.record(m1.expect("match exists").distance, truth.distance);
        // Banded scans: constrained DTW over the raw data. Distances of
        // the returned window are re-measured under *unconstrained* DTW —
        // accuracy is about which window you end up showing the analyst.
        for (fi, &frac) in fractions.iter().enumerate() {
            let band = Band::from_fraction(qlen, frac);
            let banded = QueryOptions::with_band(band);
            let hit = exhaustive::scan_best(&ds, q, &[qlen], 1, &banded, true)
                .expect("valid scan")
                .expect("banded scan finds something");
            let window = ds.resolve(hit.subseq).expect("window resolves");
            let true_dist = onex_distance::dtw(q, window, Band::Full);
            banded_out[fi].record(true_dist, truth.distance);
        }
    }

    let mut t = Table::new(
        format!(
            "E6 — match accuracy vs exact unconstrained DTW ({nq} queries, \
             {n}×{len} collection, query length {qlen})"
        ),
        &[
            "method",
            "true-best hit rate",
            "mean distance inflation",
            "latency / query",
        ],
    );
    // What each method costs an answer: the median over `runs` passes of
    // the whole query set, per query.
    let per_query = |answer: &dyn Fn(&[f64])| {
        let pass = median_time(
            || {
                for q in &qs {
                    answer(q);
                }
            },
            runs,
        );
        fmt_duration(pass / qs.len().max(1) as u32)
    };
    t.row(vec![
        "ONEX (unconstrained, over base)".into(),
        format!("{:.0}%", onex_out.hit_rate() * 100.0),
        format!("{:.4}", onex_out.inflation()),
        per_query(&|q| {
            engine.best_match(q, &full_opts).unwrap();
        }),
    ]);
    t.row(vec![
        "ONEX (paper mode, best group only)".into(),
        format!("{:.0}%", onex_top1_out.hit_rate() * 100.0),
        format!("{:.4}", onex_top1_out.inflation()),
        per_query(&|q| {
            engine.best_match(q, &top1_opts).unwrap();
        }),
    ]);
    for (fi, &frac) in fractions.iter().enumerate() {
        let banded = QueryOptions::with_band(Band::from_fraction(qlen, frac));
        t.row(vec![
            format!("banded scan (Sakoe–Chiba {:.0}%)", frac * 100.0),
            format!("{:.0}%", banded_out[fi].hit_rate() * 100.0),
            format!("{:.4}", banded_out[fi].inflation()),
            per_query(&|q| {
                exhaustive::scan_best(&ds, q, &[qlen], 1, &banded, true).unwrap();
            }),
        ]);
    }
    let worst_banded = banded_out
        .iter()
        .map(Outcome::inflation)
        .fold(f64::NEG_INFINITY, f64::max);
    t.row(vec![
        "accuracy gap (paper: up to 19%)".into(),
        "-".into(),
        format!(
            "{:+.1}% vs narrowest band",
            (worst_banded - onex_out.inflation()) * 100.0
        ),
        "-".into(),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onex_at_least_as_accurate_as_banded() {
        let tables = run(true);
        let rows = &tables[0].rows;
        let onex_inflation: f64 = rows[0][2].parse().unwrap();
        let onex_top1_inflation: f64 = rows[1][2].parse().unwrap();
        let narrow_band_inflation: f64 = rows[2][2].parse().unwrap();
        assert!(
            onex_inflation <= narrow_band_inflation + 1e-9,
            "onex {onex_inflation} vs banded {narrow_band_inflation}"
        );
        assert!(
            onex_inflation >= 1.0 - 1e-9,
            "inflation is ≥ 1 by construction"
        );
        assert!(
            onex_top1_inflation >= onex_inflation - 1e-9,
            "exact mode is at least as accurate as paper mode"
        );
    }
}
