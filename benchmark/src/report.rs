//! The metric tables (the same names `BENCHMARK.json` lists) and the run
//! report: one `name unit value` line per metric, then the result object
//! as the last line of standard output.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("latency_p50_us", "us"),
    def("throughput_rps", "req/s"),
    def("peak_rss_mb", "MB"),
    def("train_s", "s"),
    def("mean_rel_err", "ratio"),
    def("err_ratio_vs_ernest", "x"),
];

/// Single layers, measured from outside in the traced run. A metric of a
/// layer the workload never enters reads 0.
pub const PER_LAYER: &[Def] = &[
    def("zoo.build_model_us", "us"),
    def("graph.fingerprint_us", "us"),
    def("graph.validate_clone_us", "us"),
    def("ghn.schedule_us", "us"),
    def("ghn.schedule_share", "share"),
    def("ghn.embed_us", "us"),
    def("ghn.embed_us_per_node", "us"),
    def("ghn.train_s", "s"),
    def("ghn.train_steps_per_s", "1/s"),
    def("tensor.gemm_calls_per_embed", "count"),
    def("tensor.gemm_flops_per_embed", "flop"),
    def("tensor.gemm_gflops", "gflop/s"),
    def("autodiff.train_step_ms", "ms"),
    def("embeddings.hit_us", "us"),
    def("embeddings.nearest_us", "us"),
    def("embeddings.miss_overhead_us", "us"),
    def("embeddings.evictions", "count"),
    def("embeddings.hit_rate", "share"),
    def("embeddings.ghn_embeds", "count"),
    def("inference.predict_us", "us"),
    def("inference.fit_s", "s"),
    def("observe.record_us", "us"),
    def("observe.calibrate_us", "us"),
    def("regress.online_update_us", "us"),
    def("observe.drift_events", "count"),
    def("serve.handoff_us", "us"),
    def("serve.queue_wait_p50_us", "us"),
    def("serve.queue_wait_p99_us", "us"),
    def("serve.worker_busy_share", "share"),
    def("serve.shed", "count"),
    def("serve.expired", "count"),
    def("serve.queue_depth_peak", "count"),
    def("par.predict_many_speedup", "x"),
    def("par.train_parallel_efficiency", "share"),
    def("ddlsim.trace_records_per_s", "1/s"),
    def("ernest.fit_ms", "ms"),
    def("ernest.mean_rel_err", "ratio"),
    def("latency_p99_us", "us"),
    def("predict.wall_us", "us"),
    def("predict.stage_sum_us", "us"),
    def("predict.unattributed_share", "share"),
    def("telemetry.trace_overhead_ratio", "x"),
    def("client.generator_lateness_p99_us", "us"),
    def("client.latency_p50_us", "us"),
    def("client.latency_p99_us", "us"),
    def("client.latency_p50_us.hit", "us"),
    def("client.latency_p99_us.hit", "us"),
    def("client.latency_p50_us.miss", "us"),
    def("client.latency_p99_us.miss", "us"),
    def("client.samples", "count"),
    def("slo_miss_share", "share"),
    def("failed_share", "share"),
];

/// One run's results.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// Operations sent to the program: predictions and observe jobs.
    pub attempted: u64,
    /// Shed, expired, errored, or answered differently from the oracle.
    pub failed: u64,
    /// Correctness failures other than a failed operation, one line each.
    pub violations: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// A value with the number of samples it summarises.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, Some(samples)));
    }

    pub fn violation(&mut self, what: String) {
        eprintln!("correctness: {what}");
        self.violations.push(what);
    }

    /// Were the program's outputs right? A shed or expired request is a
    /// failed operation, not a wrong output.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Prints the metrics of `defs` and the result line. An end-to-end
    /// metric must have been measured; a per-layer metric the run never
    /// set reads 0. Returns the process exit code.
    pub fn print(mut self, defs: &[Def], required: bool) -> i32 {
        let mut json = String::new();
        for d in defs {
            let (value, samples) = match self.values.get(d.name) {
                Some(&v) => v,
                None if required => panic!("end-to-end metric {} was not measured", d.name),
                None => (0.0, None),
            };
            if !value.is_finite() {
                self.violation(format!("metric {} is {value}", d.name));
            }
            match samples {
                Some(n) => println!("{} {} {} n={n}", d.name, d.unit, value),
                None => println!("{} {} {}", d.name, d.unit, value),
            }
            if !json.is_empty() {
                json.push_str(", ");
            }
            let shown = if value.is_finite() { value } else { 0.0 };
            json.push_str(&format!(
                "\"{}\": {{\"value\": {shown}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        for name in self.values.keys() {
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == *name),
                "metric {name} is in no table"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        i32::from(!self.correct())
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// `nproc`, CPU model and the tensor kernel the process dispatched to.
pub fn machine_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Touch the dispatcher so the gauge is set before it is read.
    let _ = pddl_tensor::Matrix::zeros(1, 1).matmul(&pddl_tensor::Matrix::zeros(1, 1));
    let kernel = pddl_telemetry::snapshot()
        .gauges
        .into_iter()
        .find(|(name, v)| name.starts_with("tensor.kernel.") && *v == 1)
        .map_or("tensor.kernel.unknown".to_string(), |(name, _)| name);
    let threads = std::env::var("PDDL_THREADS").unwrap_or_else(|_| "unset".into());
    format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel} pddl_threads={threads}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_telemetry::JsonValue;

    /// `BENCHMARK.json` and the tables above name the same metrics with
    /// the same units, and the file keeps to the contract's shape.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = JsonValue::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = v
                .get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    assert!(["lower", "higher"].contains(&s("better").as_str()));
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        for m in v.get("end_to_end").and_then(JsonValue::as_array).unwrap() {
            let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
