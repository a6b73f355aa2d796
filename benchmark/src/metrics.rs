//! Every metric the harness reports, by name, with its unit and direction.
//! `BENCHMARK.json` at the repository root lists the same tables; a test
//! keeps the two in step.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression (0 for per-layer metrics,
    /// which gate nothing).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn low(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn high(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees; measured with tracing off. The bounds are
/// about three times the spread seen between ten seeds on a quiet 2-core
/// machine: the server's answers leave in steps of 4 ms (Nagle meeting
/// delayed ACK), so a percentile moves by a whole step or not at all, and
/// `req_per_s`, which follows the mean, is the finer gate.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("req_p50_ms", "ms", Better::Lower, 0.25),
    e2e("req_p95_ms", "ms", Better::Lower, 0.25),
    e2e("req_per_s", "1/s", Better::Higher, 0.20),
    e2e("append_p50_ms", "ms", Better::Lower, 0.25),
    e2e("rss_mb", "MB", Better::Lower, 0.10),
];

/// What single layers do; from the traced run. The prefix is the layer.
pub const PER_LAYER: &[Metric] = &[
    high("client.samples", "count"),
    low("client.req_p99_ms", "ms"),
    low("client.req_max_ms", "ms"),
    low("client.append_late_p95_ms", "ms"),
    low("client.trace_overhead_ratio", "ratio"),
    low("server.http_floor_p50_ms", "ms"),
    low("server.handle_p50_ms", "ms"),
    low("server.socket_self_p50_ms", "ms"),
    low("server.handle_self_p50_ms", "ms"),
    low("server.parse_us", "us"),
    low("server.write_us", "us"),
    low("server.resp_bytes", "bytes"),
    low("core.kbest_p50_ms", "ms"),
    low("core.kbest_p95_ms", "ms"),
    low("core.examined_per_q", "count"),
    high("core.pruned_per_q", "count"),
    low("core.dtw_per_q", "count"),
    high("core.l0_rejects_per_q", "count"),
    high("core.kim_rejects_per_q", "count"),
    high("core.keogh_rejects_per_q", "count"),
    high("core.dtw_abandoned_per_q", "count"),
    high("core.dtw_useful_ratio", "ratio"),
    low("core.sharded_kbest_p50_ms", "ms"),
    low("core.sharded_over_engine_ratio", "ratio"),
    high("core.cache_hit_ratio", "ratio"),
    low("core.cached_hit_us", "us"),
    low("core.append_p50_ms", "ms"),
    low("core.open_ms", "ms"),
    low("core.first_kbest_cold_ms", "ms"),
    low("core.restart_first_answer_ms", "ms"),
    low("distance.ed_ns_per_elem", "ns"),
    low("distance.keogh_ns_per_elem", "ns"),
    low("distance.envelope_ns_per_elem", "ns"),
    low("distance.dtw_ns_per_cell", "ns"),
    low("distance.l0_bound_ns", "ns"),
    low("grouping.build_ms", "ms"),
    high("grouping.build_subseq_per_s", "1/s"),
    low("grouping.build_distance_calls", "count"),
    high("grouping.subsequences", "count"),
    low("grouping.groups", "count"),
    high("grouping.compaction", "ratio"),
    low("grouping.extend_ms", "ms"),
    low("grouping.save_v2_ms", "ms"),
    low("grouping.image_bytes_per_subseq", "bytes"),
    low("storage.open_ms", "ms"),
    low("storage.image_mb", "MB"),
    low("net.remote_kbest_p50_ms", "ms"),
    low("net.wire_self_p50_ms", "ms"),
    low("net.cluster_kbest_p50_ms", "ms"),
    low("net.cluster_over_engine_ratio", "ratio"),
    low("net.tighten_sent_per_q", "count"),
    low("net.tighten_recv_per_q", "count"),
    low("net.codec_us", "us"),
    low("net.degraded_answers", "count"),
    low("net.connect_ms", "ms"),
    low("api.bestk_offer_ns", "ns"),
    low("api.bound_tighten_ns", "ns"),
    low("tseries.gen_ms", "ms"),
];

/// Counts every operation sent to the system, every one that went wrong, and
/// every answer that was wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Every answer that disagreed with the oracle or with another layer.
    pub wrong: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Record a disagreement unless the two rank lists are the same.
    pub fn expect_same(&mut self, what: &str, got: &[f64], want: &[f64]) {
        if !crate::check::same_ranks(got, want) {
            self.wrong
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    pub fn into_outcome(
        self,
        metrics: Vec<(&'static str, f64)>,
        mut notes: Vec<String>,
    ) -> Outcome {
        notes.extend(self.failures);
        notes.extend(self.wrong.iter().map(|w| format!("WRONG {w}")));
        Outcome {
            correct: self.wrong.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes,
        }
    }
}

/// What one run of one workload found.
pub struct Outcome {
    /// Every answer checked against the oracle was right.
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64)>,
    /// What happened, for the log on standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line result: exactly the metrics of `table`, in its order.
    pub fn result_line(&self, table: &[Metric]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for m in table {
            let value = self
                .metrics
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not a number", m.name));
            }
            let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::from(m.unit))]);
            metrics.push((m.name, entry));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_the_promised_sizes_and_unique_names() {
        assert_eq!(END_TO_END.len(), 6);
        assert_eq!(PER_LAYER.len(), 58);
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 64);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the outside world reads; it must list exactly
    /// what this program prints.
    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::arr).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                let text = |k: &str| match entry.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{k} of {}: {other:?}", m.name),
                };
                assert_eq!(text("name"), m.name);
                assert_eq!(text("unit"), m.unit, "{}", m.name);
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(text("better"), better, "{}", m.name);
                if key == "end_to_end" {
                    assert_eq!(entry.get("bound").and_then(Json::num), Some(m.bound));
                }
            }
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::arr)
            .unwrap()
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("workload name {other:?}"),
            })
            .collect();
        assert_eq!(workloads, crate::spec::NAMES);
    }

    #[test]
    fn one_wrong_answer_voids_the_run() {
        let mut tally = Tally::default();
        tally.expect_same("tie", &[0.5, 1.0], &[0.5, 1.0 + 1e-12]);
        assert!(tally.wrong.is_empty());
        tally.expect_same("/api/match?x", &[0.5, 1.0], &[0.5, 1.1]);
        tally.fail("status 502".into());
        let outcome = tally.into_outcome(vec![], vec![]);
        assert!(!outcome.correct);
        assert_eq!(outcome.failed, 1);
        assert!(outcome
            .notes
            .iter()
            .any(|n| n.starts_with("WRONG /api/match?x")));
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_metrics() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 1.5)],
            notes: vec![],
        };
        let table = &END_TO_END[..1];
        assert_eq!(
            o.result_line(table).unwrap(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#
        );
        assert!(o.result_line(&END_TO_END[..2]).is_err());
        o.metrics[0].1 = f64::NAN;
        assert!(o.result_line(table).is_err());
    }
}
