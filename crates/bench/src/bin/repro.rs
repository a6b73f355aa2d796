//! `repro` — regenerate every experiment table and figure artefact.
//!
//! ```text
//! repro                        # run everything, full sizes
//! repro --quick                # run everything, CI sizes
//! repro e5 e6                  # run selected experiments
//! repro --format json e12      # also write machine-readable perf records
//! repro --inspect-base f.onex  # print a base image's section directory
//! repro list                   # list experiment ids
//! ```
//!
//! Tables print to stdout; SVG artefacts land in `target/repro/`. With
//! `--format json`, E12 to E19 also write their perf records into the
//! working directory (`e12` → `BENCH_construction.json`, `e13` →
//! `BENCH_scaling.json`, `e14` → `BENCH_pruning.json`, `e15` →
//! `BENCH_ingest.json`, `e16` → `BENCH_cluster.json`, `e17` →
//! `BENCH_kernels.json`, `e18` → `BENCH_coldstart.json`, `e19` →
//! `BENCH_resilience.json`): one line of JSON holding the rows the tables
//! print, so successive runs leave a comparable performance trajectory.
//!
//! E12 to E19 check their invariants on every run, whatever the format.
//! A broken one prints as `eN: <what broke>` on stderr; the run still
//! finishes every selected experiment and writes its records, then exits
//! 1.

use onex_bench::experiments;

/// `--inspect-base`: open a base image file, print its section
/// directory, and independently re-verify every section checksum
/// against the raw bytes. Exits non-zero when the file does not open
/// or any checksum disagrees — usable as a CI integrity gate.
fn inspect_base(path: &str) -> Result<(), String> {
    use onex_grouping::persist::{section_name, BaseSegment};

    // `open` already validates structure and checksums; a corrupt file
    // never reaches the directory print.
    let segment = BaseSegment::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let bytes = segment.as_bytes();
    println!("{path}: ONEXSEG2, {} bytes", bytes.len());
    println!(
        "base: {} source series, {} length column(s), {} group(s)",
        segment.source_series(),
        segment.lengths().count(),
        segment.total_groups(),
    );
    println!(
        "{:<12} {:>10} {:>10}  {:<18} verify",
        "section", "offset", "bytes", "checksum"
    );
    let mut bad = 0usize;
    for s in segment.directory() {
        // Independent pass over the raw payload — the binary proves the
        // checksums hold rather than trusting the open path did.
        let payload = bytes
            .get(s.offset as usize..(s.offset + s.len) as usize)
            .ok_or_else(|| format!("section {} extends past the file", section_name(s.id)))?;
        let ok = onex_storage::fnv1a64(payload) == s.checksum;
        bad += usize::from(!ok);
        println!(
            "{:<12} {:>10} {:>10}  {:<18} {}",
            section_name(s.id),
            s.offset,
            s.len,
            format!("{:016x}", s.checksum),
            if ok { "ok" } else { "MISMATCH" },
        );
    }
    if bad > 0 {
        return Err(format!("{bad} section checksum(s) disagree"));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut format = "table".to_string();
    let mut inspect: Option<String> = None;
    let mut ids: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "-q" => quick = true,
            "--inspect-base" => {
                i += 1;
                match args.get(i) {
                    Some(v) => inspect = Some(v.clone()),
                    None => {
                        eprintln!("--inspect-base needs a file path");
                        std::process::exit(2);
                    }
                }
            }
            "--format" => {
                i += 1;
                match args.get(i) {
                    Some(v) => format = v.clone(),
                    None => {
                        eprintln!("--format needs a value (table or json)");
                        std::process::exit(2);
                    }
                }
            }
            a if a.starts_with("--format=") => {
                format = a["--format=".len()..].to_string();
            }
            // Unknown flags are hard errors: a typo must not silently
            // drop the JSON perf record and still exit 0.
            a if a.starts_with('-') => {
                eprintln!(
                    "unknown flag {a:?}; known: --quick/-q, --format <table|json>, \
                     --inspect-base <file>"
                );
                std::process::exit(2);
            }
            a => ids.push(a),
        }
        i += 1;
    }
    let json = match format.as_str() {
        "json" => true,
        "table" => false,
        other => {
            eprintln!("unknown format {other:?}; one of table, json");
            std::process::exit(2);
        }
    };

    if let Some(path) = inspect {
        if let Err(e) = inspect_base(&path) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }

    if ids.first() == Some(&"list") {
        println!("available experiments:");
        for id in experiments::ALL {
            println!("  {id}");
        }
        return;
    }

    let selected: Vec<&str> = if ids.is_empty() || ids.contains(&"all") {
        experiments::ALL.to_vec()
    } else {
        ids
    };

    println!(
        "# ONEX reproduction run ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let mut failed = false;
    let mut broken = 0usize;
    for id in selected {
        match experiments::run(id, quick) {
            Some(output) => {
                for violation in &output.violations {
                    eprintln!("{id}: {violation}");
                }
                broken += output.violations.len();
                for table in output.tables {
                    println!("{}", table.render());
                }
                // Tables and record render one list of rows, so the perf
                // file holds what the tables print.
                if json {
                    if let Some((path, record)) = output.record {
                        match std::fs::write(path, record) {
                            Ok(()) => println!("# wrote {path}"),
                            Err(e) => {
                                eprintln!("cannot write {path}: {e}");
                                failed = true;
                            }
                        }
                    }
                }
            }
            None => {
                eprintln!("unknown experiment {id:?}; try `repro list`");
                failed = true;
            }
        }
    }
    println!(
        "# done in {:.1}s — artefacts in target/repro/",
        t0.elapsed().as_secs_f64()
    );
    if failed {
        std::process::exit(2);
    }
    if broken > 0 {
        eprintln!("{broken} invariant(s) broken");
        std::process::exit(1);
    }
}
