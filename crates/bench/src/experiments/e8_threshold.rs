//! E8 — data-driven threshold recommendation (§3.3): growth-rate
//! percentages need thresholds orders of magnitude smaller than
//! unemployment head-counts; ONEX recommends both from the data.

use onex_core::threshold::{calibrate_for_compaction, recommend};
use onex_grouping::BaseConfig;

use crate::harness::Table;
use crate::workloads;

/// Run the recommendation on both MATTERS scales plus a calibration demo.
pub fn run(quick: bool) -> Vec<Table> {
    let len = 8;
    let pairs = if quick { 1_000 } else { 10_000 };
    let growth = workloads::growth_rates();
    let unemp = workloads::unemployment();
    let r_growth = recommend(&growth, len, pairs, 7).expect("growth data is rich enough");
    let r_unemp = recommend(&unemp, len, pairs, 7).expect("unemployment data is rich enough");

    let mut ladder = Table::new(
        format!(
            "E8 — recommended similarity thresholds at length {len} \
             ({} and {} pairs sampled)",
            r_growth.pairs_sampled, r_unemp.pairs_sampled
        ),
        &["quantile", "GrowthRate (pct pts)", "Unemployment (persons)"],
    );
    for ((q, tg), (_, tu)) in r_growth.ladder.iter().zip(&r_unemp.ladder) {
        ladder.row(vec![
            format!("{:.0}%", q * 100.0),
            format!("{tg:.3}"),
            format!("{tu:.0}"),
        ]);
    }
    ladder.row(vec![
        "suggested (5%)".into(),
        format!("{:.3}", r_growth.suggested),
        format!("{:.0}", r_unemp.suggested),
    ]);
    ladder.row(vec![
        "scale ratio".into(),
        "1".into(),
        format!("{:.0}×", r_unemp.suggested / r_growth.suggested),
    ]);

    // Calibration: pick ST to hit a target compaction on growth rates.
    let template = BaseConfig::new(1.0, 6, 8);
    let target = 6.0;
    let probes = if quick { 10 } else { 20 };
    let cal = calibrate_for_compaction(&growth, &template, target, 0.2, probes)
        .expect("calibration runs");
    let mut calib = Table::new(
        "E8 — calibrating ST for a target compaction (GrowthRate)",
        &[
            "target compaction",
            "found ST",
            "achieved compaction",
            "builds",
        ],
    );
    calib.row(vec![
        format!("{target:.1}×"),
        format!("{:.4}", cal.st),
        format!("{:.1}×", cal.compaction),
        cal.probes.to_string(),
    ]);
    vec![ladder, calib]
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
    fn scales_differ_by_orders_of_magnitude() {
        let tables = quick();
        let last = tables[0].rows.last().unwrap();
        let ratio: f64 = last[2].trim_end_matches('×').parse().unwrap();
        assert!(ratio > 100.0, "unemployment thresholds ≫ growth: {ratio}");
    }

    #[test]
    fn calibration_reports_positive_st() {
        let tables = quick();
        let st: f64 = tables[1].rows[0][1].parse().unwrap();
        assert!(st > 0.0);
    }
}
