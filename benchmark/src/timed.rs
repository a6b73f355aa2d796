//! The untraced run of one workload: set up, load for `--seconds`, then check
//! answers and take the measurements that need a quiet system.

use std::time::{Duration, Instant};

use onex_tseries::Dataset;

use crate::check::{oracle, same_ranks, served};
use crate::client::{closed_loop, open_loop, Client, Sample};
use crate::json::Json;
use crate::metrics::{Outcome, Tally};
use crate::rig::{append_target, Rig};
use crate::spec::{
    schedule, Scale, Window, Workload, CLIENTS, GATE_REQUESTS, INGEST_GATE_SAMPLES, SETUP_REPEATS,
    TAIL_APPENDS,
};
use crate::stats::{median, percentile};

/// A workload stood up and warmed: what `setup_s` times.
pub struct Ready {
    pub rig: Rig,
    pub windows: Vec<Window>,
    pub targets: Vec<String>,
    /// Closed-loop clients of the timed phase.
    pub readers: usize,
    /// Schedule entries each of them used up warming.
    pub warmed: usize,
    pub seconds: f64,
}

pub fn set_up(w: &Workload, seed: u64, spare: usize, shards: usize) -> Result<Ready, String> {
    let clock = Instant::now();
    let rig = Rig::start(w, seed, spare, shards)?;
    let windows = schedule(w, seed);
    let targets: Vec<String> = windows.iter().map(|x| x.target(w, &rig.dataset)).collect();
    // The writer takes one of the connections on `ingest`.
    let readers = if w.append_every.is_some() {
        CLIENTS - 1
    } else {
        CLIENTS
    };
    let warmed = rig.warm_up(&targets, readers)?;
    Ok(Ready {
        rig,
        windows,
        targets,
        readers,
        warmed,
        seconds: clock.elapsed().as_secs_f64(),
    })
}

fn spares_needed(w: &Workload, seconds: u64) -> usize {
    match w.append_every {
        Some(every) => ((seconds as f64 / every.as_secs_f64()) as usize).max(1),
        None => TAIL_APPENDS,
    }
}

/// `run --setup-only`: one set-up in a process of its own, so repeated
/// set-ups neither share warmed state nor pile up in one address space.
pub fn setup_only(w: &Workload, seed: u64, seconds: u64) -> Result<String, String> {
    let ready = set_up(w, seed, spares_needed(w, seconds), w.shards)?;
    Ok(Json::obj([("setup_s", Json::Num(ready.seconds))]).render())
}

fn probe_setup(w: &Workload, seed: u64, seconds: u64, scale: Scale) -> Result<f64, String> {
    crate::child_json(w.name, seed, seconds, scale, &["--setup-only"])?
        .get("setup_s")
        .and_then(Json::num)
        .ok_or_else(|| "the set-up probe printed no setup_s".to_owned())
}

/// The appends that were acknowledged; the others are counted as failed.
fn acknowledged<'a>(appends: &'a [Sample], tally: &mut Tally) -> Vec<&'a Sample> {
    tally.attempted += appends.len();
    appends
        .iter()
        .filter(|s| match &s.outcome {
            Ok(_) => true,
            Err(e) => {
                tally.fail(format!("append {}: {e}", s.index));
                false
            }
        })
        .collect()
}

/// What the timed phase sent and got back.
struct Load {
    start: Instant,
    reads: Vec<Sample>,
    /// The open-loop writer's appends (empty on workloads without one).
    writes: Vec<Sample>,
}

/// Closed-loop readers until the deadline, beside the open-loop writer if the
/// workload has one.
fn load(w: &Workload, ready: &Ready, seconds: u64, append_targets: &[String]) -> Load {
    let (http, targets, readers) = (ready.rig.http, &ready.targets, ready.readers);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let (reads, writes) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..readers)
            .map(|c| {
                let first = c + readers * ready.warmed;
                let stop = move |_| Instant::now() >= deadline;
                scope.spawn(move || closed_loop(http, targets, first, readers, stop))
            })
            .collect();
        let writer = w
            .append_every
            .map(|every| scope.spawn(move || open_loop(http, append_targets, start, every)));
        let reads = clients
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect();
        let writes = writer.map(|h| h.join().expect("writer panicked"));
        (reads, writes.unwrap_or_default())
    });
    Load {
        start,
        reads,
        writes,
    }
}

/// Reads taken while appends were landing: each must equal the oracle of one
/// epoch that could have been current between its send and its receive.
/// Epoch `e` holds the first `e` spares and was published somewhere between
/// append `e` being sent and acknowledged (`acked[e - 1]`).
fn check_reads_against_epochs(
    w: &Workload,
    ready: &Ready,
    reads: &[Sample],
    acked: &[&Sample],
    epoch: &dyn Fn(usize) -> Dataset,
    tally: &mut Tally,
) -> Result<(), String> {
    let picks = INGEST_GATE_SAMPLES.min(reads.len());
    for p in 0..picks {
        let s = &reads[p * reads.len() / picks];
        let window = &ready.windows[s.index];
        let Some(got) = s
            .outcome
            .as_ref()
            .ok()
            .and_then(|b| served(b, window.len).ok())
        else {
            continue; // already counted as failed
        };
        let could_have_seen = |e: usize| {
            let published_by_receive = e == 0 || acked[e - 1].sent <= s.received;
            let still_current_at_send = e == acked.len() || acked[e].received >= s.sent;
            published_by_receive && still_current_at_send
        };
        let mut matched = false;
        for e in (0..=acked.len()).filter(|&e| could_have_seen(e)) {
            matched |= same_ranks(&got.ranks, &oracle(&epoch(e), w, window, true)?);
        }
        if !matched {
            let target = &ready.targets[s.index];
            tally
                .wrong
                .push(format!("{target} matches no epoch it overlapped"));
        }
    }
    Ok(())
}

/// `GATE_REQUESTS` requests over a fresh connection, each against the oracle
/// over `now`, the collection as it stands.
fn check_answers(
    w: &Workload,
    ready: &Ready,
    now: &Dataset,
    tally: &mut Tally,
) -> Result<(), String> {
    let (rig, windows) = (&ready.rig, &ready.windows);
    let mut client = Client::new(rig.http);
    let mut ask = |target: &str, len: usize, tally: &mut Tally| {
        tally.attempted += 1;
        let answer = client.fetch(target).and_then(|b| served(&b, len));
        if let Err(e) = &answer {
            tally.fail(format!("gate {target}: {e}"));
        }
        answer.ok()
    };
    for i in 0..GATE_REQUESTS {
        let window = &windows[i * windows.len() / GATE_REQUESTS];
        let target = window.target(w, &rig.dataset);
        let Some(got) = ask(&target, window.len, tally) else {
            continue;
        };
        let want = oracle(now, w, window, w.excludes_own_series())?;
        tally.expect_same(&target, &got.ranks, &want);
        if !w.excludes_own_series() {
            // The cached and cluster routes must agree with the plain engine
            // searching the whole collection.
            let plain = format!(
                "{}&include_self=true",
                window.target_on("onex", &rig.dataset)
            );
            if let Some(onex) = ask(&plain, window.len, tally) {
                tally.expect_same(&format!("{target} vs {plain}"), &got.ranks, &onex.ranks);
            }
        }
    }
    Ok(())
}

pub fn run(w: &Workload, seed: u64, seconds: u64, scale: Scale) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        setups.push(probe_setup(w, seed, seconds, scale)?);
    }
    let ready = set_up(w, seed, spares_needed(w, seconds), w.shards)?;
    setups.push(ready.seconds);
    let rig = &ready.rig;
    let mut tally = Tally::default();

    let append_targets: Vec<String> = rig.spares.iter().map(append_target).collect();
    let Load {
        start,
        reads,
        writes,
    } = load(w, &ready, seconds, &append_targets);
    // What the serving process needed up to the end of the load; the checks
    // below allocate for the harness, not for the system.
    let rss_mb = peak_rss_mb()?;

    let mut latencies = Vec::with_capacity(reads.len());
    let mut last_read = start;
    for s in &reads {
        tally.attempted += 1;
        let vetted = s
            .outcome
            .as_ref()
            .map_err(String::clone)
            .and_then(|body| served(body, ready.windows[s.index].len));
        match vetted {
            Ok(_) => {
                latencies.push(s.latency_ms());
                last_read = last_read.max(s.received);
            }
            Err(e) => tally.fail(format!("match {}: {e}", ready.targets[s.index])),
        }
    }
    if latencies.is_empty() {
        return Err(format!("no request succeeded: {:?}", tally.failures));
    }
    let read_seconds = (last_read - start).as_secs_f64();

    let acked = acknowledged(&writes, &mut tally);
    let mut append_ms: Vec<f64> = acked.iter().map(|s| s.latency_ms()).collect();

    // ---- correctness, untimed ----------------------------------------------
    // Appends are acknowledged in order, so epoch `e` of the collection is the
    // loaded series plus the first `e` spares.
    let epoch = |e: usize| -> Dataset {
        let mut ds = rig.dataset.clone();
        for s in &rig.spares[..e] {
            ds.push(s.clone()).expect("spare names are fresh");
        }
        ds
    };
    if acked.len() != writes.len() {
        tally
            .wrong
            .push("an append failed, so the epochs are unknown".into());
    } else if !writes.is_empty() {
        check_reads_against_epochs(w, &ready, &reads, &acked, &epoch, &mut tally)?;
    }
    check_answers(w, &ready, &epoch(acked.len()), &mut tally)?;

    // ---- appends on workloads without a writer -----------------------------
    if w.append_every.is_none() {
        let tail = closed_loop(rig.http, &append_targets, 0, 1, |n| {
            n >= append_targets.len()
        });
        append_ms.extend(
            acknowledged(&tail, &mut tally)
                .iter()
                .map(|s| s.latency_ms()),
        );
    }
    if append_ms.is_empty() {
        return Err(format!("no append succeeded: {:?}", tally.failures));
    }

    let metrics = vec![
        ("setup_s", median(&setups)),
        ("req_p50_ms", percentile(&latencies, 50.0)),
        ("req_p95_ms", percentile(&latencies, 95.0)),
        ("req_per_s", latencies.len() as f64 / read_seconds),
        ("append_p50_ms", percentile(&append_ms, 50.0)),
        ("rss_mb", rss_mb),
    ];
    let mut notes = vec![format!(
        "{} timed match samples over {read_seconds:.3} s on {} connections, {} appends, set-ups {setups:?}",
        latencies.len(),
        ready.readers,
        append_ms.len()
    )];
    notes.extend(rig.stages.iter().map(|(name, start, end)| {
        format!(
            "set-up stage {name}: {:.3} s",
            (*end - *start).as_secs_f64()
        )
    }));
    Ok(tally.into_outcome(metrics, notes))
}

/// `VmHWM`: the most resident memory this process ever held.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
