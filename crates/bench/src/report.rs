//! `BENCH_sched.json` — the prediction-driven-scheduling benchmark report,
//! and the latency summary the wire probe prints.
//!
//! `pddl-schedbench` (src/bin/schedbench.rs) renders one [`SchedReport`].
//! It is deterministic, not wall-clock: the same seed reproduces the file
//! byte for byte. The JSON is rendered by hand — fixed field order, fixed
//! float precision — so the shape can be pinned mechanically: the golden
//! schema test (`crates/bench/tests/bench_schema.rs`) compares
//! [`schema_paths`] of a rendered report against
//! `tests/fixtures/bench_sched_schema.json`.
//!
//! Units are encoded in the field names: `*_us` are microseconds, `*_secs`
//! seconds, `*_pct` percent. Telemetry entries carry the exact
//! `pddl-telemetry` counter/gauge names so a report can be cross-checked
//! against a live `{"op":"stats"}` snapshot.
//!
//! Performance is measured in one place, `benchmark/` (`BENCHMARK.json`);
//! [`summarize`] serves `pddl-loadgen`, the loopback wire probe that covers
//! the one path `benchmark/` does not open.

use pddl_telemetry::JsonValue;

/// Exact latency percentiles over one phase's completed requests, in
/// microseconds. Percentiles are computed from the full sorted sample
/// (nearest-rank), not a sketch — the probe keeps every latency.
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest completed request.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: u64,
}

/// Nearest-rank percentile (`p` in `[0, 1]`) over an ascending-sorted slice.
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Summarizes a latency sample (sorts in place).
pub fn summarize(latencies_us: &mut [u64]) -> LatencySummary {
    latencies_us.sort_unstable();
    if latencies_us.is_empty() {
        return LatencySummary::default();
    }
    let sum: u128 = latencies_us.iter().map(|&v| v as u128).sum();
    LatencySummary {
        p50_us: percentile(latencies_us, 0.50),
        p95_us: percentile(latencies_us, 0.95),
        p99_us: percentile(latencies_us, 0.99),
        max_us: *latencies_us.last().unwrap(),
        mean_us: (sum / latencies_us.len() as u128) as u64,
    }
}

fn fnum(v: f64) -> String {
    // Fixed precision keeps renders byte-stable across runs of the same
    // measurements and diffs small across trajectory points.
    format!("{v:.3}")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One policy's aggregate outcome on the burst scenario — the
/// missed-deadline/utilization comparison the sched benchmark is
/// committed to demonstrate.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Policy name (`fifo`, `sjf_predicted`, `deadline_aware`,
    /// `autoscale_predicted`).
    pub policy: String,
    /// Jobs submitted (== completed: the scenario runs to drain).
    pub submitted: u64,
    pub completed: u64,
    /// Jobs carrying a deadline SLO.
    pub deadlines_total: u64,
    pub deadlines_missed: u64,
    /// `100 × deadlines_missed / deadlines_total`.
    pub missed_pct: f64,
    /// Busy server-seconds / available capacity-seconds.
    pub utilization: f64,
    /// Mean queue wait, seconds.
    pub mean_wait_secs: f64,
    /// 99th-percentile queue wait, seconds.
    pub p99_wait_secs: f64,
    /// Deepest the waiting queue ever got.
    pub peak_queue: u64,
}

/// One point of the committed frozen-vs-online accuracy curve (mean
/// relative prediction error per launch-time bucket).
#[derive(Clone, Copy, Debug)]
pub struct AccuracyPoint {
    /// Bucket end, seconds of simulation time.
    pub t_end_secs: f64,
    /// Mean `|pred/actual − 1|` of the continually-refit predictor.
    pub online_err: f64,
    /// Same for the frozen fit-once baseline.
    pub frozen_err: f64,
    /// Jobs launched in the bucket.
    pub jobs: u64,
}

/// The mid-run cost-shift scenario: one engine run whose runtime model
/// shifts by `factor` at `at_fraction` of the arrival horizon, with the
/// online predictor refitting through the shift while a frozen clone of
/// the same bootstrap fit degrades.
#[derive(Clone, Debug)]
pub struct ShiftScenario {
    /// Policy the shift run used.
    pub policy: String,
    /// Runtime multiplier applied at the shift point.
    pub factor: f64,
    /// Shift position within the arrival horizon (0..1).
    pub at_fraction: f64,
    /// Page–Hinkley fires during the run (expected: exactly 1).
    pub drift_events: u64,
    /// Window refits performed by the online model.
    pub refits: u64,
    /// Observations folded into the online model.
    pub updates: u64,
    /// Mean relative error before the shift, online predictor.
    pub pre_shift_online: f64,
    pub pre_shift_frozen: f64,
    /// Mean relative error after the shift (recovery transient excluded).
    pub post_shift_online: f64,
    pub post_shift_frozen: f64,
    /// `post_shift_online / pre_shift_online` — pinned ≤ 1.5.
    pub recovery_ratio: f64,
    /// `post_shift_frozen / post_shift_online` — pinned ≥ 3.
    pub frozen_vs_online: f64,
    /// The full accuracy-over-time curve.
    pub curve: Vec<AccuracyPoint>,
}

/// The prediction-driven-scheduling benchmark report — rendered to
/// `BENCH_sched.json` by `pddl-schedbench`. Every number here is
/// **bit-deterministic** for the committed seed: re-running the binary
/// must reproduce the file exactly.
#[derive(Clone, Debug)]
pub struct SchedReport {
    /// Jobs per scenario run.
    pub jobs: usize,
    /// Server-pool size.
    pub servers: usize,
    /// The seed every scenario derives from.
    pub seed: u64,
    /// Burst-scenario policy comparison, fixed policy order.
    pub burst: Vec<PolicyRow>,
    /// The cost-shift scenario.
    pub shift: ShiftScenario,
    /// Final values of the scheduling/refit telemetry series, keyed by
    /// their exact registry names.
    pub telemetry: Vec<(String, u64)>,
}

impl SchedReport {
    /// Renders pretty-printed JSON with a fixed field order; the shape is
    /// pinned by the golden schema test.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"sched\",\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str("  \"config\": {\n");
        out.push_str(&format!("    \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("    \"servers\": {},\n", self.servers));
        out.push_str(&format!("    \"seed\": {}\n", self.seed));
        out.push_str("  },\n");
        out.push_str("  \"burst\": [\n");
        for (i, p) in self.burst.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"policy\": \"{}\",\n", escape(&p.policy)));
            out.push_str(&format!("      \"submitted\": {},\n", p.submitted));
            out.push_str(&format!("      \"completed\": {},\n", p.completed));
            out.push_str(&format!("      \"deadlines_total\": {},\n", p.deadlines_total));
            out.push_str(&format!(
                "      \"deadlines_missed\": {},\n",
                p.deadlines_missed
            ));
            out.push_str(&format!("      \"missed_pct\": {},\n", fnum(p.missed_pct)));
            out.push_str(&format!("      \"utilization\": {},\n", fnum(p.utilization)));
            out.push_str(&format!(
                "      \"mean_wait_secs\": {},\n",
                fnum(p.mean_wait_secs)
            ));
            out.push_str(&format!(
                "      \"p99_wait_secs\": {},\n",
                fnum(p.p99_wait_secs)
            ));
            out.push_str(&format!("      \"peak_queue\": {}\n", p.peak_queue));
            out.push_str(if i + 1 == self.burst.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"shift\": {\n");
        let s = &self.shift;
        out.push_str(&format!("    \"policy\": \"{}\",\n", escape(&s.policy)));
        out.push_str(&format!("    \"factor\": {},\n", fnum(s.factor)));
        out.push_str(&format!("    \"at_fraction\": {},\n", fnum(s.at_fraction)));
        out.push_str(&format!("    \"drift_events\": {},\n", s.drift_events));
        out.push_str(&format!("    \"refits\": {},\n", s.refits));
        out.push_str(&format!("    \"updates\": {},\n", s.updates));
        out.push_str(&format!(
            "    \"pre_shift_online\": {},\n",
            fnum(s.pre_shift_online)
        ));
        out.push_str(&format!(
            "    \"pre_shift_frozen\": {},\n",
            fnum(s.pre_shift_frozen)
        ));
        out.push_str(&format!(
            "    \"post_shift_online\": {},\n",
            fnum(s.post_shift_online)
        ));
        out.push_str(&format!(
            "    \"post_shift_frozen\": {},\n",
            fnum(s.post_shift_frozen)
        ));
        out.push_str(&format!(
            "    \"recovery_ratio\": {},\n",
            fnum(s.recovery_ratio)
        ));
        out.push_str(&format!(
            "    \"frozen_vs_online\": {},\n",
            fnum(s.frozen_vs_online)
        ));
        out.push_str("    \"curve\": [\n");
        for (i, c) in s.curve.iter().enumerate() {
            out.push_str("      {\n");
            out.push_str(&format!("        \"t_end_secs\": {},\n", fnum(c.t_end_secs)));
            out.push_str(&format!("        \"online_err\": {},\n", fnum(c.online_err)));
            out.push_str(&format!("        \"frozen_err\": {},\n", fnum(c.frozen_err)));
            out.push_str(&format!("        \"jobs\": {}\n", c.jobs));
            out.push_str(if i + 1 == s.curve.len() { "      }\n" } else { "      },\n" });
        }
        out.push_str("    ]\n");
        out.push_str("  },\n");
        out.push_str("  \"telemetry\": {\n");
        for (i, (name, value)) in self.telemetry.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {}", escape(name), value));
            out.push_str(if i + 1 == self.telemetry.len() { "\n" } else { ",\n" });
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Flattens a JSON document into its sorted set of key paths — the
/// *schema* of the document, independent of values. Array elements
/// contribute `[]`-suffixed paths (all elements are visited, so a phase
/// missing a field is caught). `telemetry` keys are data, not schema, so
/// they are summarized as a single `telemetry.*` path with a count-free
/// wildcard.
pub fn schema_paths(doc: &JsonValue) -> Vec<String> {
    let mut paths = Vec::new();
    walk(doc, "", &mut paths);
    paths.sort();
    paths.dedup();
    paths
}

fn walk(v: &JsonValue, prefix: &str, out: &mut Vec<String>) {
    match v {
        JsonValue::Object(fields) => {
            for (k, child) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                // Telemetry keys are metric names (data, varies by run);
                // the schema pins only that the object exists.
                if path == "telemetry" {
                    out.push("telemetry.*".to_string());
                    continue;
                }
                walk(child, &path, out);
            }
        }
        JsonValue::Array(items) => {
            let path = format!("{prefix}[]");
            if items.is_empty() {
                out.push(path.clone());
            }
            for item in items {
                walk(item, &path, out);
            }
        }
        _ => out.push(prefix.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sched() -> SchedReport {
        let row = |policy: &str, missed: u64| PolicyRow {
            policy: policy.into(),
            submitted: 12_000,
            completed: 12_000,
            deadlines_total: 8_400,
            deadlines_missed: missed,
            missed_pct: 100.0 * missed as f64 / 8_400.0,
            utilization: 0.61,
            mean_wait_secs: 14.2,
            p99_wait_secs: 240.0,
            peak_queue: 310,
        };
        SchedReport {
            jobs: 12_000,
            servers: 32,
            seed: 91,
            burst: vec![row("fifo", 910), row("deadline_aware", 260)],
            shift: ShiftScenario {
                policy: "fifo".into(),
                factor: 2.5,
                at_fraction: 0.5,
                drift_events: 1,
                refits: 1,
                updates: 20_000,
                pre_shift_online: 0.041,
                pre_shift_frozen: 0.042,
                post_shift_online: 0.047,
                post_shift_frozen: 1.47,
                recovery_ratio: 1.15,
                frozen_vs_online: 31.3,
                curve: vec![
                    AccuracyPoint { t_end_secs: 100.0, online_err: 0.04, frozen_err: 0.04, jobs: 800 },
                    AccuracyPoint { t_end_secs: 200.0, online_err: 0.05, frozen_err: 1.5, jobs: 820 },
                ],
            },
            telemetry: vec![
                ("sched.jobs_launched".into(), 60_000),
                ("refit.drift_events".into(), 1),
            ],
        }
    }

    #[test]
    fn sched_render_parses_back() {
        let doc = JsonValue::parse(&sample_sched().render()).expect("valid JSON");
        assert_eq!(doc.get("benchmark").and_then(|v| v.as_str()), Some("sched"));
        let burst = doc.get("burst").and_then(|v| v.as_array()).expect("burst");
        assert_eq!(burst.len(), 2);
        assert_eq!(burst[0].get("policy").and_then(|v| v.as_str()), Some("fifo"));
        let shift = doc.get("shift").expect("shift block");
        assert_eq!(shift.get("drift_events").and_then(|v| v.as_u64()), Some(1));
        let curve = shift.get("curve").and_then(|v| v.as_array()).expect("curve");
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[1].get("jobs").and_then(|v| v.as_u64()), Some(820));
        // Schema paths must be value-independent for the golden pin.
        let a = schema_paths(&doc);
        let mut other = sample_sched();
        other.shift.refits = 9;
        other.burst[1].peak_queue = 1;
        let b = schema_paths(&JsonValue::parse(&other.render()).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn summarize_orders_and_averages() {
        let mut xs = vec![30, 10, 20];
        let s = summarize(&mut xs);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.max_us, 30);
        assert_eq!(s.mean_us, 20);
    }

    #[test]
    fn schema_paths_are_stable_and_value_independent() {
        let a = schema_paths(&JsonValue::parse(&sample_sched().render()).unwrap());
        let mut other = sample_sched();
        other.burst[0].completed = 1; // values must not change the schema
        other.telemetry.push(("refit.refits".into(), 0));
        let b = schema_paths(&JsonValue::parse(&other.render()).unwrap());
        assert_eq!(a, b, "schema must not depend on values or telemetry keys");
        assert!(a.contains(&"burst[].p99_wait_secs".to_string()));
        assert!(a.contains(&"config.servers".to_string()));
        assert!(a.contains(&"telemetry.*".to_string()));
    }
}
