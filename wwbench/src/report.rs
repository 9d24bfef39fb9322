//! Command-line arguments, the run's result line, and its scratch root.

use crate::stats;
use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3_600.0) {
                        return Err(format!("--seconds {s} is out of range"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The end-to-end metrics, by name and unit, as `BENCHMARK.json` lists
/// them: every run with `--trace 0` reports each of them, measured.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("ingest_tps", "1/s"),
    ("stored_bytes_per_tuple", "B"),
    ("cpu_ms_per_ktuple", "ms"),
    ("query_p50_ms", "ms"),
    ("query_qps", "1/s"),
    ("visible_lag_p99_ms", "ms"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them: every run with
/// `--trace 1` reports each of them. A layer a workload does not drive
/// reads 0 there (see `Report::complete`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dispatcher.insert_ns_per_tuple", "ns"),
    ("dispatcher.tuples_per_batch", "count"),
    ("net.ingest_batch_rpc_p50_us", "us"),
    ("net.ingest_batch_rpc_p99_us", "us"),
    ("net.meta_rpcs_per_ktuple", "count"),
    ("net.encode_ns_per_tuple", "ns"),
    ("indexing.pump_ns_per_tuple", "ns"),
    ("indexing.flush_ms_p50", "ms"),
    ("indexing.flush_ms_max", "ms"),
    ("indexing.flushes", "count"),
    ("indexing.backlog_peak_tuples", "count"),
    ("agg.summary_bytes_per_chunk", "B"),
    ("storage.fsyncs_per_chunk", "count"),
    ("net.chunk_subquery_rpc_p50_us", "us"),
    ("net.chunk_subquery_rpc_p99_us", "us"),
    ("net.encode_us_per_query", "us"),
    ("net.bytes_per_query", "B"),
    ("storage.leaf_hit_ratio", "ratio"),
    ("storage.template_hit_ratio", "ratio"),
    ("storage.decode_hit_ratio", "ratio"),
    ("storage.leaf_prune_ratio", "ratio"),
    ("storage.dfs_bytes_per_query", "B"),
    ("storage.io_wait_ms", "ms"),
    ("storage.rows_examined_per_returned", "ratio"),
    ("storage.singleflight_shared", "count"),
    ("coordinator.decompose_us_p50", "us"),
    ("coordinator.subqueries_per_query", "count"),
    ("dispatch.plan_us_p50", "us"),
    ("query_server.subquery_us_p50", "us"),
    ("query_server.subquery_us_p99", "us"),
    ("dispatch.worker_queue_peak", "count"),
    ("net.ingest_ack_p50_ms", "ms"),
    ("net.ingest_ack_p99_ms", "ms"),
    ("coordinator.probe_query_p50_ms", "ms"),
    ("coordinator.range_query_p50_ms", "ms"),
    ("node.cpu_ms_per_ktuple.meta", "ms"),
    ("node.cpu_ms_per_ktuple.indexing", "ms"),
    ("node.cpu_ms_per_ktuple.query", "ms"),
    ("node.cpu_ms_per_ktuple.dispatcher", "ms"),
    ("node.ctx_switches_per_ktuple.indexing", "count"),
    ("node.ctx_switches_per_ktuple.dispatcher", "count"),
    ("node.rss_peak_mb.meta", "MB"),
    ("node.rss_peak_mb.indexing", "MB"),
    ("node.rss_peak_mb.query", "MB"),
    ("node.rss_peak_mb.dispatcher", "MB"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.cpu_ms_per_ktuple", "ms"),
    ("visible_lag_p50_ms", "ms"),
    ("fresh_query_p50_ms", "ms"),
    ("fresh_query_p99_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("ops_failed_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count or percentile actually used, for the readable lines.
    pub detail: String,
}

/// The outcome of one run: operations attempted and failed (a wrong
/// answer counts as a failed operation) and the metrics to print.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run's answers are wrong, one line per problem found.
    pub errors: Vec<String>,
    /// Measured but not in the manifest's list for the run's mode: printed
    /// as readable lines, left out of the result line.
    extra: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metric_with(name, unit, value, String::new());
    }

    pub fn metric_with(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        detail: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            detail,
        });
    }

    /// Reports the median and the p99 of latencies in milliseconds.
    pub fn latency(&mut self, p50: &str, p99: &str, lat_ms: &[f64]) {
        self.median_ms(p50, lat_ms);
        self.p99_ms(p99, lat_ms, String::new());
    }

    /// Reports the median of latencies in milliseconds, with the count.
    pub fn median_ms(&mut self, name: &str, lat_ms: &[f64]) {
        match stats::tail(lat_ms, 50.0) {
            Some(m) => self.metric_with(name, "ms", m.value, format!("p50 of {} samples", m.n)),
            None => self.fail(format!("{} samples cannot support {name}", lat_ms.len())),
        }
    }

    /// Reports the p99 of all of a run's latencies in milliseconds, by the
    /// percentile rule (`stats::tail`), with the percentile actually used,
    /// the sample count and `note`.
    pub fn p99_ms(&mut self, name: &str, lat_ms: &[f64], note: String) {
        match stats::tail(lat_ms, 99.0) {
            Some(t) => self.metric_with(
                name,
                "ms",
                t.value,
                format!("p{} of {} samples{note}", t.pct, t.n),
            ),
            None => self.fail(format!("{} samples cannot support {name}", lat_ms.len())),
        }
    }

    /// Counts one checked operation, failing it with `error` if given.
    pub fn check(&mut self, ok: bool, error: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(error());
        }
    }

    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        // Keep the first few reasons; the count says how many there were.
        if self.errors.len() < 10 {
            self.errors.push(error);
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Makes the report carry exactly the manifest's metrics for its mode,
    /// in the manifest's order. An end-to-end metric the workload did not
    /// measure, or one in the wrong unit, is an error: the run then prints
    /// no result. A per-layer metric of a layer the workload does not drive
    /// reads 0, and its readable line says so.
    pub fn complete(&mut self, workload: &str, trace: bool) -> Result<(), String> {
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        let mut kept = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) if self.metrics[i].unit == unit => kept.push(self.metrics.remove(i)),
                Some(i) => {
                    return Err(format!(
                        "{name} measured in {}, the manifest says {unit}",
                        self.metrics[i].unit
                    ))
                }
                None if trace => kept.push(Metric {
                    name: name.into(),
                    unit,
                    value: 0.0,
                    detail: format!("layer not driven by {workload}"),
                }),
                None => return Err(format!("{workload} did not measure {name}")),
            }
        }
        // Whatever else was measured is printed after them, readable only.
        self.extra = std::mem::replace(&mut self.metrics, kept);
        Ok(())
    }

    /// Prints one readable line per metric, then the result as a single
    /// JSON object on the last line.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "{:<42} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.detail
            );
        }
        println!(
            "ops_failed_ratio {} ({} of {} operations failed or answered wrongly)",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
        for e in &self.errors {
            println!("error: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite float in JSON syntax with every digit Rust's shortest
/// round-trip form gives; non-finite values (never expected) become null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Directory every workload writes under: `.bench_tmp/` in the working
/// directory (the checkout root), one subdirectory per process. Dropping
/// the root deletes it, and `.bench_tmp/` too once it is empty.
pub struct TempRoot {
    path: PathBuf,
}

impl TempRoot {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = std::env::current_dir()?
            .join(".bench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Fails harmlessly while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload query_historic --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "query_historic");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds").is_err());
        assert!(args("--workload x --seconds 0").is_err());
    }

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn manifest(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json beside the benchmark");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| {
                let f: Vec<&str> = l.split('"').collect();
                (f[3].to_string(), f[7].to_string())
            })
            .collect()
    }

    #[test]
    fn tables_match_the_manifest() {
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(manifest("end_to_end"), own(END_TO_END));
        assert_eq!(manifest("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn completion_follows_the_manifest() {
        let mut r = Report::default();
        for &(name, unit) in END_TO_END.iter().rev() {
            r.metric(name, unit, 1.0);
        }
        r.metric("fresh_query_p50_ms", "ms", 2.0);
        r.complete("w", false).unwrap();
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert_eq!(r.extra.len(), 1);

        // A missing end-to-end metric fails the run; a unit mismatch too.
        let mut r = Report::default();
        r.metric("setup_s", "s", 1.0);
        assert!(r.complete("w", false).is_err());
        let mut r = Report::default();
        r.metric("indexing.flushes", "ms", 1.0);
        assert!(r.complete("w", true).is_err());

        // A per-layer metric of an idle layer reads 0.
        let mut r = Report::default();
        r.metric("indexing.flushes", "count", 10.0);
        r.complete("w", true).unwrap();
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        let value = |n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("indexing.flushes"), 10.0);
        assert_eq!(value("storage.leaf_hit_ratio"), 0.0);
    }

    #[test]
    fn wrong_answers_fail_the_run() {
        let mut r = Report::default();
        r.check(true, String::new);
        assert!(r.correct());
        r.check(false, || "count 3 != 4".into());
        assert!(!r.correct());
        assert_eq!(r.failed_ratio(), 0.5);
        assert_eq!(json_number(0.1), "0.1");
        assert_eq!(json_number(3.0), "3.0");
    }
}
