//! The metric registry, the per-run collector and the result line.

use std::collections::BTreeMap;

use flowcon_metrics::export::{to_jsonl, JsonValue};

use crate::stats::median;

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
/// Host time unless prefixed `sim_`; `sim_s` is simulated seconds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_jct_mean_s", "sim_s"),
    ("sim_jct_p99_s", "sim_s"),
    ("sim_makespan_s", "sim_s"),
];

/// Per-layer metrics (`--trace 1`), as named in `BENCHMARK.json`.  Every
/// workload reports every one; a layer or stage a workload does not have
/// reads 0 (see the README's table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("workload.allocs_per_job", "allocs/job"),
    ("cluster.build_s", "s"),
    ("cluster.place_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.run_cpu_s", "s"),
    ("cluster.run_allocs_per_job", "allocs/job"),
    ("cluster.executor.call_us_p50", "us"),
    ("cluster.executor.call_us_p99", "us"),
    ("cluster.executor.shards", "count"),
    ("cluster.executor.cpu_util", "ratio"),
    ("cluster.executor.sequential_run_s", "s"),
    ("cluster.executor.sharded_run_s", "s"),
    ("cluster.executor.sharding_speedup", "ratio"),
    ("cluster.sched.barriers", "count"),
    ("cluster.sched.places", "count"),
    ("cluster.sched.preempts", "count"),
    ("cluster.sched.migrates", "count"),
    ("cluster.sched.queue_depth_mean", "jobs"),
    ("cluster.sched.decide_s", "s"),
    ("cluster.sched.barrier_s", "s"),
    ("cluster.sched.barrier_us_p50", "us"),
    ("cluster.sched.barrier_us_p99", "us"),
    ("flowcon.algorithm_runs", "count"),
    ("flowcon.reconfigure_s", "s"),
    ("flowcon.reconfigure_ns_per_run", "ns"),
    ("sim.events", "count"),
    ("sim.cpu_ns_per_event", "ns"),
    ("sim.waterfill_calls", "count"),
    ("metrics.fold_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("jobs_failed_frac", "frac"),
];

/// Samples of every metric a run measured, plus the job accounting of its
/// output checks.
#[derive(Debug, Default)]
pub struct Bench {
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// Add one sample of a registered metric (reported as the median of
    /// its samples).
    pub fn record(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unregistered metric {name}"
        );
        self.samples.entry(name).or_default().push(value);
    }

    /// Record 0 for layers or stages this workload does not have.
    pub fn absent(&mut self, names: &[&'static str]) {
        for &name in names {
            self.record(name, 0.0);
        }
    }

    /// Account `jobs` submitted jobs whose output checks gave `verdict`.
    /// A failed check fails every job of the run, loudly.
    pub fn settle(&mut self, jobs: u64, verdict: Result<(), String>) {
        self.attempted += jobs;
        if let Err(why) = verdict {
            eprintln!("OUTPUT CHECK FAILED: {why}");
            self.failed += jobs;
        }
    }

    pub fn passed(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object with the medians of the mode's
    /// metrics.  Errs if a metric was not measured or is not finite —
    /// a benchmark defect, never a number to print.
    pub fn result_line(mut self, traced: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no job was attempted".into());
        }
        let table = if traced {
            self.record(
                "jobs_failed_frac",
                self.failed as f64 / self.attempted as f64,
            );
            PER_LAYER
        } else {
            END_TO_END
        };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = self
                .samples
                .get(name)
                .and_then(|xs| median(xs))
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((
                name.to_string(),
                JsonValue::Obj(vec![
                    ("value".into(), JsonValue::Num(value)),
                    ("unit".into(), JsonValue::Str(unit.into())),
                ]),
            ));
        }
        let record = [
            ("correct", JsonValue::Bool(self.passed())),
            ("attempted", JsonValue::Int(self.attempted)),
            ("failed", JsonValue::Int(self.failed)),
            ("metrics", JsonValue::Obj(metrics)),
        ];
        Ok(to_jsonl([&record[..]]).trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of the objects in one top-level array of
    /// `BENCHMARK.json` (a flat scan: the file holds no nested arrays).
    fn names_in(doc: &str, key: &str) -> Vec<String> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed = |table: &[(&'static str, &'static str)]| {
            table.iter().map(|&(n, _)| n).collect::<Vec<_>>()
        };
        assert_eq!(names_in(&doc, "end_to_end"), listed(END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), listed(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "{name} has unit {unit} in the code");
        }
    }

    fn filled(traced: bool) -> Bench {
        let mut b = Bench::default();
        let table = if traced { PER_LAYER } else { END_TO_END };
        for &(name, _) in table.iter().filter(|(n, _)| *n != "jobs_failed_frac") {
            b.record(name, 1.0);
            b.record(name, 3.0);
        }
        b
    }

    #[test]
    fn result_line_reports_medians_and_failures() {
        let mut b = filled(false);
        b.settle(10, Ok(()));
        b.settle(5, Err("lost a job".into()));
        let line = b.result_line(false).expect("complete");
        assert!(line.starts_with("{\"correct\":false,\"attempted\":15,\"failed\":5,"));
        assert!(line.contains("\"jobs_per_s\":{\"value\":2,\"unit\":\"1/s\"}"));
        assert!(!line.contains("cluster.run_s"));

        let mut t = filled(true);
        t.settle(4, Ok(()));
        let line = t.result_line(true).expect("complete");
        assert!(line.contains("\"jobs_failed_frac\":{\"value\":0,\"unit\":\"frac\"}"));
        assert!(!line.contains("setup_s"));
    }

    #[test]
    fn a_missing_metric_is_an_error_not_a_number() {
        let mut b = Bench::default();
        b.settle(1, Ok(()));
        b.record("setup_s", 1.0);
        let err = b.result_line(false).expect_err("incomplete");
        assert!(err.contains("jobs_per_s"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn unregistered_names_are_rejected() {
        Bench::default().record("latency_ms", 1.0);
    }
}
