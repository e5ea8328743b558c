//! The result line: correctness tally plus named metrics with units.

use nncps::scenarios::json::Json;

/// End-to-end metrics, printed on every `--trace 0` run (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("verdicts_per_s", "1/s"),
    ("verdict_s_p50", "s"),
    ("verdict_s_tail", "s"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed on every `--trace 1` run (name, unit).  A
/// layer that a workload does not exercise reads 0 there; the table in
/// `README.md` says which workload measures which layer.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("sim.busy_s", "s"),
    ("sim.self_share", "frac"),
    ("sim.calls", "count"),
    ("sim.rk4_steps", "count"),
    ("lp.busy_s", "s"),
    ("lp.self_share", "frac"),
    ("lp.solves", "count"),
    ("lp.rows_max", "count"),
    ("lp.rows_sum", "count"),
    ("lp.tableau_mb_computed", "MB"),
    ("compile.busy_s", "s"),
    ("compile.self_share", "frac"),
    ("compile.calls", "count"),
    ("smt.busy_s", "s"),
    ("smt.self_share", "frac"),
    ("smt.checks", "count"),
    ("smt.boxes", "count"),
    ("smt.pruned_ratio", "frac"),
    ("smt.instructions", "count"),
    ("smt.counterexamples", "count"),
    ("level.busy_s", "s"),
    ("level.self_share", "frac"),
    ("level.iterations", "count"),
    ("level.boxes", "count"),
    ("build.busy_s", "s"),
    ("cache.formula_hits", "count"),
    ("cache.formula_lookups", "count"),
    ("cache.formula_hit_ratio", "frac"),
    ("cache.trace_hits", "count"),
    ("cache.trace_lookups", "count"),
    ("cache.trace_hit_ratio", "frac"),
    ("cache.candidate_hits", "count"),
    ("cache.candidate_lookups", "count"),
    ("cache.candidate_hit_ratio", "frac"),
    ("pool.member_s_p50", "s"),
    ("pool.member_s_tail", "s"),
    ("pool.busy_frac", "frac"),
    ("store.entries_written", "count"),
    ("store.bytes_written", "bytes"),
    ("store.replay_hit_ratio", "frac"),
    ("store.replay_s", "s"),
    ("serve.first_event_s", "s"),
    ("serve.report_tail_s", "s"),
    ("serve.event_bytes", "bytes"),
    ("mem.peak_rss_mb", "MB"),
    ("trace.overhead_frac", "frac"),
    ("trace.unaccounted_frac", "frac"),
];

/// Named metric values in the order they were pushed.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.push((name, value, unit));
    }

    /// The metrics in the canonical order of `names`, with 0 for a layer
    /// this run did not exercise.  Panics on a name outside `names` or a
    /// unit that disagrees with it, which would be a bug in this benchmark.
    pub fn canonical(&self, names: &[(&'static str, &'static str)]) -> Json {
        for (name, _, unit) in &self.values {
            assert!(
                names.contains(&(*name, *unit)),
                "metric {name} [{unit}] is not declared"
            );
        }
        Json::object(names.iter().map(|&(name, unit)| {
            let value = self
                .values
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |(_, v, _)| *v);
            (
                name.to_string(),
                Json::object([
                    ("value".to_string(), Json::Number(value)),
                    ("unit".to_string(), Json::from(unit)),
                ]),
            )
        }))
    }
}

/// Attempted and failed member verifications, with the failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one attempted member; any problem marks it failed.
    pub fn attempt(&mut self, problems: impl IntoIterator<Item = String>) {
        self.attempted += 1;
        let problems: Vec<String> = problems.into_iter().collect();
        if !problems.is_empty() {
            self.failures.push(problems.join("; "));
        }
    }

    /// Records a failure found after the attempts were counted (a wrong
    /// member verdict in a served request, a family count pin).
    pub fn fail(&mut self, problem: String) {
        self.failures.push(problem);
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, metrics: Json) -> String {
        Json::object([
            ("correct".to_string(), Json::Bool(self.failures.is_empty())),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failures.len())),
            ("metrics".to_string(), metrics),
        ])
        .to_line()
    }
}
