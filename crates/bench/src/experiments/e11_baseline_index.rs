//! E11 — the indexing-school baselines: FRM \[4\] and EBSM \[1\] against
//! ONEX and brute force, driven through the unified `SimilaritySearch`
//! trait — one measurement code path, N backends.
//!
//! The paper's introduction sorts prior systems into schools: exact
//! Euclidean indexing (FRM \[4\]), approximate preprocessing-heavy DTW
//! embedding (EBSM \[1\]), exact-but-slow monitoring \[7\], and fast scans
//! \[6\]. E11 compares these schools with ONEX on the same collection,
//! reporting both *work* (filter rates) and *answer quality* (distance of
//! the returned match vs the unconstrained-DTW ground truth).
//!
//! Expected shape: FRM filters hardest but answers the wrong question
//! under warping (raw ED — its "best" can sit far from the DTW optimum);
//! EBSM approaches the DTW optimum as its candidate budget grows but
//! pays an enormous preprocessing bill and has no guarantee; ONEX's
//! grouping filter holds recall with guaranteed semantics. This is the
//! quantitative version of the paper's Challenge 2/3 discussion.

use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::SimilaritySearch;
use onex_baselines::embedding::{EbsmConfig, EbsmIndex};
use onex_baselines::frm::{StConfig, StIndex};
use onex_baselines::spring::spring_best_match;
use onex_baselines::{plain_series, EbsmBackend, FrmBackend, SpringBackend, UcrSuiteBackend};
use onex_core::backends::OnexBackend;
use onex_core::{Onex, QueryOptions};
use onex_grouping::BaseConfig;

use crate::harness::{drive_backend, fmt_duration, Table};
use crate::workloads;

struct Quality {
    /// Mean ratio of (returned match's true DTW) / (optimal DTW).
    mean_ratio: f64,
    /// Fraction of queries answered within 1% of the optimum.
    recall: f64,
}

/// True unconstrained subsequence-DTW optimum across the collection.
fn dtw_ground_truth(series: &[Vec<f64>], query: &[f64]) -> f64 {
    series
        .iter()
        .filter_map(|s| spring_best_match(s, query))
        .map(|m| m.dist)
        .fold(f64::INFINITY, f64::min)
}

fn quality(results: &[(f64, f64)]) -> Quality {
    let mut ratios = Vec::with_capacity(results.len());
    let mut hits = 0usize;
    for &(got, opt) in results {
        if opt <= 1e-12 {
            // Zero-distance optimum: count exact recovery only.
            if got <= 1e-9 {
                hits += 1;
                ratios.push(1.0);
            } else {
                ratios.push(f64::INFINITY);
            }
            continue;
        }
        let r = got / opt;
        if r <= 1.01 {
            hits += 1;
        }
        ratios.push(r);
    }
    let finite: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
    Quality {
        mean_ratio: if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        },
        recall: hits as f64 / results.len().max(1) as f64,
    }
}

/// One engine entry of the generic comparison: how it was built, what
/// it cost to build, and a note for the table.
struct Entry {
    backend: Box<dyn SimilaritySearch>,
    build: Duration,
    notes: String,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Run the comparison at one collection size: every backend behind the
/// same `SimilaritySearch` trait object, one measurement loop.
fn compare(series_count: usize, len: usize, qlen: usize, queries: usize) -> Table {
    let ds = workloads::diverse_sines(series_count, len);
    let series = plain_series(&ds);
    let st = 2.0;

    // --- build every engine behind the unified trait -------------------
    let (engine, onex_build) = timed(|| {
        let (engine, _) =
            Onex::build(ds.clone(), BaseConfig::new(st, qlen, qlen)).expect("valid config");
        Arc::new(engine)
    });
    let mut entries = vec![
        Entry {
            backend: Box::new(
                OnexBackend::new(engine.clone())
                    .with_options(QueryOptions::default().top_groups(1)),
            ),
            build: onex_build,
            notes: "paper mode: scan best group only".into(),
        },
        Entry {
            backend: Box::new(OnexBackend::new(engine.clone())),
            build: onex_build,
            notes: "grouping filter, ED/DTW bridge".into(),
        },
    ];
    let (frm, frm_build) = timed(|| {
        FrmBackend::<4>::from_index(StIndex::<4>::build(
            series.clone(),
            StConfig {
                window: qlen,
                subtrail_max: 32,
                cost_scale: 1.0,
            },
        ))
    });
    entries.push(Entry {
        backend: Box::new(frm),
        build: frm_build,
        notes: "ED-exact".into(),
    });
    let (ebsm, ebsm_build) = timed(|| {
        EbsmBackend::from_series(
            series.clone(),
            EbsmConfig {
                references: 8,
                ref_len: qlen,
                candidates: 24,
                refine_factor: 2,
                seed: 42,
            },
        )
        .expect("valid EBSM config")
    });
    entries.push(Entry {
        backend: Box::new(ebsm),
        build: ebsm_build,
        notes: "24 candidates refined".into(),
    });
    let (spring, spring_build) = timed(|| SpringBackend::from_series(series.clone()));
    entries.push(Entry {
        backend: Box::new(spring),
        build: spring_build,
        notes: "exact subsequence DTW (ground truth)".into(),
    });
    let (ucr, ucr_build) = timed(|| UcrSuiteBackend::from_series(series.clone()));
    entries.push(Entry {
        backend: Box::new(ucr),
        build: ucr_build,
        notes: "z-normalised; distances not comparable".into(),
    });

    // --- queries + ground truth -----------------------------------------
    let qs: Vec<Vec<f64>> = (0..queries)
        .map(|qi| {
            let src = (qi * 7) % series_count;
            let name = ds.series(src as u32).expect("in range").name().to_string();
            let start = (qi * 13) % (len - qlen);
            workloads::perturbed_query(&ds, &name, start, qlen, 0.08)
        })
        .collect();
    let truths: Vec<f64> = qs.iter().map(|q| dtw_ground_truth(&series, q)).collect();

    // --- one generic measurement loop over all entries ------------------
    let mut t = Table::new(
        format!(
            "E11 index baselines on {series_count}x{len} diverse sines, {queries} queries of length {qlen} (quality vs unconstrained-DTW optimum, all engines behind SimilaritySearch)"
        ),
        &[
            "engine",
            "semantics",
            "build",
            "total query",
            "mean dist ratio",
            "recall@1%",
            "pruned",
            "notes",
        ],
    );
    for (i, entry) in entries.iter().enumerate() {
        let run = drive_backend(entry.backend.as_ref(), &qs);
        // Re-measure every returned window under the ground-truth metric
        // (unconstrained DTW), whatever the backend's native semantics.
        let results: Vec<(f64, f64)> = run
            .results
            .iter()
            .enumerate()
            .filter_map(|(qi, m)| {
                m.map(|m| {
                    let sv = &series[m.series as usize];
                    let window = &sv[m.start..m.start + m.len];
                    let d = onex_distance::dtw(window, &qs[qi], onex_distance::Band::Full);
                    (d, truths[qi])
                })
            })
            .collect();
        let q = quality(&results);
        let caps = entry.backend.capabilities();
        let name = if i == 0 {
            "ONEX (top-1 group)".to_string()
        } else if i == 1 {
            "ONEX (exact)".to_string()
        } else {
            entry.backend.name().to_string()
        };
        t.row(vec![
            name,
            caps.metric.label().into(),
            fmt_duration(entry.build),
            fmt_duration(run.total_time),
            format!("{:.3}", q.mean_ratio),
            format!("{:.0}%", q.recall * 100.0),
            format!("{:.0}%", run.prune_rate() * 100.0),
            entry.notes.clone(),
        ]);
    }
    t
}

/// EBSM's accuracy/refinement dial, isolated.
fn ebsm_dial(series_count: usize, len: usize, qlen: usize, queries: usize) -> Table {
    let ds = workloads::diverse_sines(series_count, len);
    let series = plain_series(&ds);
    let mut t = Table::new(
        "E11b EBSM accuracy vs candidate budget (the parameter dial ONEX's guaranteed filter avoids)",
        &["candidates refined", "recall@1%", "mean dist ratio"],
    );
    for n in [1usize, 4, 16, 64] {
        let idx = EbsmIndex::build(
            series.clone(),
            EbsmConfig {
                references: 8,
                ref_len: qlen,
                candidates: n,
                refine_factor: 2,
                seed: 42,
            },
        );
        let mut res = Vec::new();
        for qi in 0..queries {
            let src = (qi * 5) % series_count;
            let name = ds.series(src as u32).expect("in range").name().to_string();
            let start = (qi * 11) % (len - qlen);
            let query = workloads::perturbed_query(&ds, &name, start, qlen, 0.08);
            let opt = dtw_ground_truth(&series, &query);
            if let Some((hit, _)) = idx.best_match(&query) {
                res.push((hit.dist, opt));
            }
        }
        let q = quality(&res);
        t.row(vec![
            n.to_string(),
            format!("{:.0}%", q.recall * 100.0),
            format!("{:.3}", q.mean_ratio),
        ]);
    }
    t
}

/// IDDTW's quantile dial (reference [3]): coarse-level abandonment rate
/// vs exactness, on 1-NN searches over fixed-length windows.
fn iddtw_dial(series_count: usize, len: usize, qlen: usize, queries: usize) -> Table {
    use onex_baselines::iddtw::IddtwModel;
    use onex_distance::{dtw, Band};

    let ds = workloads::diverse_sines(series_count, len);
    let series = plain_series(&ds);
    // Candidate pool: strided windows across the collection.
    let windows: Vec<Vec<f64>> = series
        .iter()
        .flat_map(|s| {
            (0..s.len().saturating_sub(qlen))
                .step_by(qlen / 2)
                .map(|i| s[i..i + qlen].to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    // Train on a sample of (query, window) pairs from the same pool.
    let train: Vec<(Vec<f64>, Vec<f64>)> = (0..64)
        .map(|i| {
            (
                windows[(i * 7) % windows.len()].clone(),
                windows[(i * 13 + 5) % windows.len()].clone(),
            )
        })
        .collect();

    let mut t = Table::new(
        format!(
            "E11c IDDTW [3] quantile dial: 1-NN over {} windows, {} queries (abandonment vs exactness)",
            windows.len(),
            queries
        ),
        &["quantile", "full DTWs / query", "abandoned coarse", "recall vs brute"],
    );
    for quantile in [0.5, 0.8, 0.95, 1.0] {
        let model = IddtwModel::train(&train, &[4, 12], quantile, Band::Full);
        let mut fulls = 0usize;
        let mut abandoned = 0usize;
        let mut hits = 0usize;
        for qi in 0..queries {
            let name = ds
                .series(((qi * 3) % series_count) as u32)
                .expect("in range")
                .name()
                .to_string();
            let start = (qi * 17) % (len - qlen);
            let query = workloads::perturbed_query(&ds, &name, start, qlen, 0.1);
            let (_, gd, stats) = model
                .nearest(&query, windows.iter().map(|v| v.as_slice()))
                .expect("non-empty pool");
            fulls += stats.full_computations;
            abandoned += stats.abandoned_per_level.iter().sum::<usize>();
            let brute = windows
                .iter()
                .map(|w| dtw(&query, w, Band::Full))
                .fold(f64::INFINITY, f64::min);
            if gd <= brute * 1.01 + 1e-12 {
                hits += 1;
            }
        }
        t.row(vec![
            format!("{quantile:.2}"),
            format!("{:.1}", fulls as f64 / queries as f64),
            format!("{:.1}", abandoned as f64 / queries as f64),
            format!("{:.0}%", hits as f64 / queries as f64 * 100.0),
        ]);
    }
    t
}

/// Run all three panels.
pub fn run(quick: bool) -> Vec<Table> {
    if quick {
        vec![
            compare(12, 96, 24, 4),
            ebsm_dial(8, 96, 24, 3),
            iddtw_dial(8, 96, 24, 4),
        ]
    } else {
        vec![
            compare(60, 160, 32, 12),
            ebsm_dial(30, 160, 32, 8),
            iddtw_dial(24, 160, 32, 10),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_panels() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 6);
        assert_eq!(tables[1].rows.len(), 4);
        assert_eq!(tables[2].rows.len(), 4);
    }
}
