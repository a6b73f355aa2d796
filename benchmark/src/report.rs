//! `run` without `--workload`: every workload, timed and traced, each in a
//! child process so memory and warmed state never carry over; and `compare`,
//! which applies each end-to-end metric's bound to two such reports.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use crate::spec::{Scale, NAMES};
use crate::stats::{median, quartiles, spread};

pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    pub scale: Scale,
    /// Result sets to produce; medians and quartiles are printed over them.
    pub repeat: usize,
    /// Skip the timed runs.
    pub traced_only: bool,
    pub out: Option<String>,
}

fn tool(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers depend on besides the code: recorded with every report.
fn header() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::from(cores)),
        (
            "server_workers",
            Json::from(onex_server::ServeOptions::default().workers),
        ),
        (
            "kernel_level",
            Json::from(onex_distance::kernels::level().label()),
        ),
        ("rustc", Json::from(tool("rustc", &["--version"]).as_str())),
        (
            "commit",
            Json::from(tool("git", &["rev-parse", "--short", "HEAD"]).as_str()),
        ),
        ("clients", Json::from(crate::spec::CLIENTS)),
    ])
}

/// One workload, one mode, in a child process; its result line parsed.
fn child(plan: &Plan, workload: &str, trace: bool) -> Result<Json, String> {
    let mode = ["--trace", if trace { "1" } else { "0" }];
    crate::child_json(workload, plan.seed, plan.seconds, plan.scale, &mode)
}

/// `{attempted, failed, metrics: {name: value}}` of one workload in one round,
/// timed and traced runs merged.
fn merge(parts: &[Json]) -> Json {
    let total = |key: &str| -> f64 {
        parts
            .iter()
            .filter_map(|p| p.get(key).and_then(Json::num))
            .sum()
    };
    let metrics: Vec<(String, Json)> = parts
        .iter()
        .flat_map(|p| p.get("metrics").map_or(&[][..], Json::members))
        .filter_map(|(name, m)| Some((name.clone(), Json::Num(m.get("value")?.num()?))))
        .collect();
    Json::obj([
        ("attempted", Json::Num(total("attempted"))),
        ("failed", Json::Num(total("failed"))),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn values(rounds: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    rounds
        .iter()
        .filter_map(|r| r.get(workload)?.get("metrics")?.get(metric)?.num())
        .collect()
}

/// Four significant digits or so, however large the value.
fn short(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}

fn print_table(title: &str, table: &[Metric], rounds: &[Json]) {
    println!("\n{title}");
    print!("{:<32}{:>6}", "metric", "unit");
    for name in NAMES {
        print!("{name:>32}");
    }
    println!();
    for m in table {
        print!("{:<32}{:>6}", m.name, m.unit);
        for name in NAMES {
            let v = values(rounds, name, m.name);
            let cell = match (v.is_empty(), quartiles(&v)) {
                (true, _) => "-".to_owned(),
                (false, None) => short(v[0]),
                (false, Some((q1, q3))) => {
                    format!("{} [{}..{}]", short(median(&v)), short(q1), short(q3))
                }
            };
            print!("{cell:>32}");
        }
        println!();
    }
}

pub fn run_all(plan: &Plan) -> Result<(), String> {
    let head = header();
    println!("onex-benchmark {}", head.render());
    println!(
        "seed {} | {} s timed per workload | {} round(s) | closed loop, {} keep-alive connections",
        plan.seed,
        plan.seconds,
        plan.repeat,
        crate::spec::CLIENTS
    );
    for name in NAMES {
        let w = crate::spec::workload(name, plan.scale).expect("listed workloads exist");
        println!("  {name}: {}", w.why);
    }
    let mut rounds = Vec::with_capacity(plan.repeat);
    for round in 0..plan.repeat {
        let mut entries = Vec::new();
        for name in NAMES {
            let mut parts = Vec::new();
            if !plan.traced_only {
                parts.push(child(plan, name, false)?);
            }
            parts.push(child(plan, name, true)?);
            let merged = merge(&parts);
            eprintln!(
                "round {round} {name}: attempted {} failed {}",
                merged.get("attempted").and_then(Json::num).unwrap_or(0.0),
                merged.get("failed").and_then(Json::num).unwrap_or(0.0)
            );
            entries.push((name, merged));
        }
        rounds.push(Json::obj(entries));
    }
    if !plan.traced_only {
        print_table(
            "end-to-end (tracing off; median [q1..q3] over rounds)",
            END_TO_END,
            &rounds,
        );
    }
    print_table("per-layer (traced run)", PER_LAYER, &rounds);
    let failed: f64 = rounds
        .iter()
        .flat_map(|r| NAMES.iter().filter_map(|n| r.get(n)?.get("failed")?.num()))
        .sum();
    println!("\nfailed operations: {failed}");
    if let Some(path) = &plan.out {
        let doc = Json::obj([
            ("header", head),
            ("seed", Json::Num(plan.seed as f64)),
            ("seconds", Json::Num(plan.seconds as f64)),
            ("rounds", Json::Arr(rounds)),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written to {path}");
    }
    if failed > 0.0 {
        return Err(format!("{failed} operations failed"));
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The runs of one commit disagree by more than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

/// `a` is the parent's runs, `b` the change's.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let beats = |x: f64, y: f64| match m.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (ma, mb) = (median(a), median(b));
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let noise = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let every_run_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if every_run_better {
        Verdict::Better
    } else if noise > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("rounds")
        .and_then(Json::arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{path}: no rounds"))
}

fn fail_ratio(rounds: &[Json]) -> f64 {
    let total = |key: &str| -> f64 {
        rounds
            .iter()
            .flat_map(|r| NAMES.iter().filter_map(|n| r.get(n)?.get(key)?.num()))
            .sum()
    };
    total("failed") / total("attempted").max(1.0)
}

/// One row per (metric, workload); `Ok(true)` when nothing is worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<26}{:<10}{:>14}{:>14}{:>9}  verdict",
        "metric", "workload", "a (median)", "b (median)", "change"
    );
    let mut acceptable = true;
    for m in END_TO_END {
        for name in NAMES {
            let (va, vb) = (values(&a, name, m.name), values(&b, name, m.name));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<26}{:<10}{:>14}{:>14}{:>9}  missing",
                    m.name, name, "-", "-", "-"
                );
                acceptable = false;
                continue;
            }
            let v = verdict(m, &va, &vb);
            acceptable &= v != Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<26}{:<10}{:>14.4}{:>14.4}{:>+8.1}%  {}",
                m.name,
                name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    let (fa, fb) = (fail_ratio(&a), fail_ratio(&b));
    println!("fail_ratio: a {fa} b {fb}");
    Ok(acceptable && fb <= fa)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a bound of a tenth, whatever the real tables say.
    fn metric(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let p50 = &metric(Better::Lower);
        let parent = [10.0, 10.1, 9.9];
        assert_eq!(verdict(p50, &parent, &[10.5, 10.4, 10.6]), Verdict::Within);
        assert_eq!(verdict(p50, &parent, &[11.5, 11.4, 11.6]), Verdict::Worse);
        assert_eq!(verdict(p50, &parent, &[8.0, 8.1, 7.9]), Verdict::Better);
        // Parent runs that disagree by more than the bound resolve nothing...
        let noisy = [10.0, 13.0, 8.0];
        assert_eq!(
            verdict(p50, &noisy, &[10.5, 10.4, 10.6]),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(verdict(p50, &noisy, &[5.0, 5.1, 4.9]), Verdict::Better);

        let rate = &metric(Better::Higher);
        assert_eq!(
            verdict(rate, &[100.0, 101.0], &[80.0, 81.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(rate, &[100.0, 101.0], &[120.0, 121.0]),
            Verdict::Better
        );
        assert_eq!(verdict(rate, &[100.0], &[97.0]), Verdict::Within);
        assert_eq!(
            verdict(rate, &[100.0, 101.0], &[100.5, 102.0]),
            Verdict::Within
        );
    }

    #[test]
    fn merge_keeps_values_and_sums_counts() {
        let timed = Json::parse(
            r#"{"correct":true,"attempted":10,"failed":1,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#,
        )
        .unwrap();
        let traced = Json::parse(
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"client.samples":{"value":4,"unit":"count"}}}"#,
        )
        .unwrap();
        let round = Json::obj([("explore", merge(&[timed, traced]))]);
        assert_eq!(
            values(std::slice::from_ref(&round), "explore", "setup_s"),
            vec![1.5]
        );
        assert_eq!(
            values(std::slice::from_ref(&round), "explore", "client.samples"),
            vec![4.0]
        );
        assert_eq!(fail_ratio(&[round]), 1.0 / 15.0);
    }
}
