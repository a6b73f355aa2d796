//! E3 — Fig 3, the linked perspectives: the same matched pair (the paper
//! shows MA vs AR tech employment) in a Radial Chart and a Connected
//! Scatter Plot.

use std::hint::black_box;

use onex_core::{Onex, QueryOptions};
use onex_grouping::BaseConfig;
use onex_viz::{ConnectedScatter, RadialChart};

use crate::harness::{fmt_duration, median_time, write_artefact, Table};
use crate::workloads;

/// Regenerate Fig 3a/3b for the MA tech-employment best match.
pub fn run(quick: bool) -> Vec<Table> {
    let runs = if quick { 3 } else { 9 };
    let ds = workloads::tech_employment();
    // Tech employment is in thousands of jobs — the threshold scales with
    // the indicator (the paper's point in §3.3); ~8 jobs-per-sample RMS.
    let (engine, _) = Onex::build(ds, BaseConfig::new(16.0, 8, 12)).expect("valid config");

    let query = workloads::perturbed_query(&engine.dataset(), "MA-TechEmployment", 10, 12, 0.5);
    let opts =
        QueryOptions::default().excluding_series(engine.dataset().id_of("MA-TechEmployment"));
    let (m, _) = engine.best_match(&query, &opts).unwrap();
    let m = m.expect("a match exists");
    let matched = engine
        .dataset()
        .resolve(m.subseq)
        .expect("match resolves")
        .to_vec();

    let radial = RadialChart::new(360, format!("MA vs {} — tech employment", m.series_name))
        .add_series("MA (query)", &query)
        .add_series(&m.series_name, &matched);
    let radial_path = write_artefact("e3_radial.svg", &radial.render());
    let radial_time = median_time(|| drop(black_box(radial.render())), runs);

    let scatter = ConnectedScatter::new(
        360,
        format!("MA vs {} — connected scatter", m.series_name),
        &query,
        &matched,
    )
    .with_path(&m.path);
    let deviation = scatter.diagonal_deviation();
    let scatter_path = write_artefact("e3_scatter.svg", &scatter.render());
    let scatter_time = median_time(|| drop(black_box(scatter.render())), runs);

    let mut t = Table::new(
        "E3 (Fig 3) — linked perspectives on the MA tech-employment match",
        &["view", "observation", "artefact", "render"],
    );
    t.row(vec![
        "radial chart (3a)".into(),
        format!("match: {} at dtw {:.3}", m.series_name, m.distance),
        radial_path.display().to_string(),
        fmt_duration(radial_time),
    ]);
    t.row(vec![
        "connected scatter (3b)".into(),
        format!("mean |deviation from 45° diagonal| = {deviation:.3} (thousand jobs)"),
        scatter_path.display().to_string(),
        fmt_duration(scatter_time),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_both_views() {
        let tables = run(true);
        assert_eq!(tables[0].rows.len(), 2);
        assert!(tables[0].rows[0][2].ends_with(".svg"));
        assert!(tables[0].rows[1][1].contains("diagonal"));
    }
}
