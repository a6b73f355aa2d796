//! End-to-end load harness for ONEX: the real HTTP server and real shard
//! servers on loopback, four workloads, end-to-end numbers with tracing off
//! and per-layer numbers from a traced run. See `benchmark/README.md`.

mod check;
mod client;
mod json;
mod metrics;
mod micro;
mod report;
mod rig;
mod spec;
mod stats;
mod timed;
mod trace;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use spec::Scale;

const USAGE: &str = "usage:
  onex-benchmark run [--seed N] [--seconds N] [--repeat N] [--traced] [--out FILE] [--scale full|toy]
      every workload, timed and traced, each in its own process; prints every metric
  onex-benchmark run --workload NAME --seed N --seconds N --trace 0|1 [--trace-out FILE] [--scale full|toy]
      one workload in this process; the last line of output is its result as JSON
  onex-benchmark compare A.json B.json
      apply each end-to-end metric's bound to two reports written with --out";

/// Run `run --workload ...` in a child process of this program and parse the
/// last line it prints. Each workload and each set-up gets a process of its
/// own, so neither memory nor warmed state carries over.
fn child_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    scale: Scale,
    mode: &[&str],
) -> Result<json::Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(mode);
    if scale == Scale::Toy {
        cmd.args(["--scale", "toy"]);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload} {mode:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{workload} {mode:?} failed: {line}"));
    }
    json::Json::parse(line).map_err(|e| format!("{workload} {mode:?}: {e} in {line:?}"))
}

struct Args(Vec<String>);

impl Args {
    /// Remove `--name value` and return the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) if i + 1 < self.0.len() => {
                let value = self.0.remove(i + 1);
                self.0.remove(i);
                Ok(Some(value))
            }
            Some(_) => Err(format!("{name} needs a value")),
        }
    }

    fn number(&mut self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} {v:?} is not a whole number")),
        }
    }

    /// Remove `--name` and say whether it was there.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", 10)?.max(1);
    let scale = match args.value("--scale")?.as_deref() {
        None | Some("full") => Scale::Full,
        Some("toy") => Scale::Toy,
        Some(other) => return Err(format!("unknown scale {other:?}")),
    };
    let workload = args.value("--workload")?;
    let trace = args.number("--trace", 0)? != 0;
    let trace_out = args.value("--trace-out")?;
    let setup_only = args.flag("--setup-only");
    let plan = report::Plan {
        seed,
        seconds,
        scale,
        repeat: args.number("--repeat", 1)?.max(1) as usize,
        traced_only: args.flag("--traced"),
        out: args.value("--out")?,
    };
    if let Some(extra) = args.0.first() {
        return Err(format!("unexpected argument {extra:?}\n{USAGE}"));
    }

    let Some(name) = workload else {
        report::run_all(&plan)?;
        return Ok(ExitCode::SUCCESS);
    };
    let w = spec::workload(&name, scale)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", spec::NAMES))?;
    if setup_only {
        println!("{}", timed::setup_only(&w, seed, seconds)?);
        return Ok(ExitCode::SUCCESS);
    }
    let (outcome, table) = if trace {
        let path = trace_out.map_or_else(
            || PathBuf::from(format!("target/benchmark/trace-{name}.jsonl")),
            PathBuf::from,
        );
        (traced::run(&w, seed, &path)?, PER_LAYER)
    } else {
        (timed::run(&w, seed, seconds, scale)?, END_TO_END)
    };
    for note in &outcome.notes {
        eprintln!("[{name}] {note}");
    }
    if !outcome.correct {
        // A wrong answer voids the run: no numbers.
        let void = Outcome {
            metrics: Vec::new(),
            ..outcome
        };
        println!("{}", void.result_line(&[])?);
        return Ok(ExitCode::FAILURE);
    }
    println!("{}", outcome.result_line(table)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let result = match command.as_str() {
        "run" => run(Args(argv)),
        "compare" => match argv.as_slice() {
            [a, b] => report::compare(a, b).map(|ok| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err(USAGE.to_owned()),
        },
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("onex-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
