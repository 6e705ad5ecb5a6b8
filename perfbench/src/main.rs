//! The repository benchmark: runs one named workload against the simulator
//! crates, checks its outputs, and prints every metric by name and unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (README.md in this directory has the glossary). The last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the lines before it are `meta`, `digest` and `info` records.

mod engine;
mod figures;
mod replay;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 3] = ["xlat-remote", "xlat-local", "figure-all-unit"];

/// End-to-end metrics (`--trace 0`): every workload reports all of them.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("ns_per_event", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): every workload reports all of them.
const PER_LAYER: [(&str, &str); 51] = [
    ("workloads.generate_ms", "ms"),
    ("sim.construct_ms", "ms"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("xlat.tlb.lookup_ns", "ns"),
    ("xlat.tlb.hit_ratio", "ratio"),
    ("xlat.cuckoo.contains_ns", "ns"),
    ("xlat.walker.submit_finish_ns", "ns"),
    ("xlat.redirection.lookup_ns", "ns"),
    ("xlat.redirection.hit_ratio", "ratio"),
    ("xlat.page_table.translate_ns", "ns"),
    ("noc.mesh.send_ns", "ns"),
    ("mem.mshr.register_ns", "ns"),
    ("mem.cache.lookup_ns", "ns"),
    ("mem.cache.hit_ratio", "ratio"),
    ("mem.hbm.access_ns", "ns"),
    ("sim.event_queue.push_drain_ns", "ns"),
    ("xlat.local_translations", "count"),
    ("xlat.remote_requests", "count"),
    ("xlat.remote_coalesced", "count"),
    ("iommu.walks", "count"),
    ("iommu.coalesced", "count"),
    ("iommu.redirect_misses", "count"),
    ("hdpat.ptes_pushed", "count"),
    ("hdpat.prefetch_used_ratio", "ratio"),
    ("noc.packets", "count"),
    ("noc.hop_bytes", "bytes"),
    ("sim.cycles", "cycles"),
    ("serve.parse_us", "us"),
    ("serve.result_line_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("serve.disk_get_us", "us"),
    ("serve.disk_insert_us", "us"),
    ("serve.latency.simulated_p50_ms", "ms"),
    ("serve.latency.disk_p50_ms", "ms"),
    ("serve.latency.memory_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p95_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p95_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.disk_hit_ratio", "ratio"),
    ("serve.gen_late_max_ms", "ms"),
    ("sweep.simulations", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.hit_ratio", "ratio"),
    ("sweep.events_per_s", "1/s"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run collected: attempt/failure counts, the digest of
/// its simulated outputs, and every metric it measured.
#[derive(Debug, Default)]
pub struct Sink {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
    digests: BTreeMap<&'static str, stats::Digest>,
}

impl Sink {
    /// Counts one attempted operation (point, figure or request).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failure and says why on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {why}");
    }

    /// Records a metric value; a later record of the same name replaces it.
    /// A malformed name counts as a failure.
    pub fn set(&mut self, name: &str, value: f64) {
        if !stats::is_valid_metric_name(name) {
            self.fail(&format!("malformed metric name {name:?}"));
        }
        self.values.insert(name.to_string(), value);
    }

    /// Folds one simulated output into the digest of one phase.
    pub fn digest(&mut self, phase: &'static str, text: &str) {
        self.digests.entry(phase).or_default().record(text);
    }

    /// Prints an informational stdout line (not a metric).
    pub fn info(&self, text: &str) {
        println!("info {text}");
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().replace(' ', "_"))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "meta workload={} seed={} seconds={} trace={} nproc={} commit={} rustc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wsg_sim::pool::default_jobs(),
        if std::path::Path::new(".git").exists() {
            command_output("git", &["rev-parse", "HEAD"])
        } else {
            "none".into()
        },
        command_output(
            &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
            &["--version"]
        ),
    );
    let mut sink = Sink::default();
    match args.workload.as_str() {
        "xlat-remote" => engine::xlat(&mut sink, &args, engine::Family::Remote),
        "xlat-local" => engine::xlat(&mut sink, &args, engine::Family::Local),
        "figure-all-unit" => figures::figure_all(&mut sink, &args),
        _ => unreachable!("workload validated by parse_args"),
    }
    sink.set("peak_rss_mb", stats::peak_rss_mb());
    for (phase, d) in &sink.digests {
        println!("digest {}.{phase} {}", args.workload, d.hex());
    }
    if args.trace {
        // The end-to-end figures of the traced run, for the tracing overhead.
        for (name, _) in END_TO_END {
            if let Some(v) = sink.values.get(name) {
                sink.info(&format!("traced.{name} {v}"));
            }
        }
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        let value = match sink.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                sink.fail(&format!("metric {name} is not a finite number"));
                0.0
            }
            None => {
                sink.fail(&format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        sink.failed == 0,
        sink.attempted,
        sink.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json and the tables above must name the same metrics.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::is_valid_metric_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
