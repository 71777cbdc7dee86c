//! Fixed-work benchmark of the SIRTM simulator.
//!
//! The binary (`bin/main.rs`) times closed-loop ops of one workload and
//! prints the end-to-end metrics, or (`--trace 1`) runs the traced
//! recomposition and prints the per-layer metrics. See `README.md` in
//! this directory for the workloads, the metrics and what each layer
//! metric should move.

pub mod layers;
pub mod stats;
pub mod traced;
pub mod workload;

use sirtm_scenario::json::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Where the benchmark writes results, traces and scratch journals,
/// relative to the directory it runs in.
pub const OUT_DIR: &str = ".perfbench-out";

/// Facts that must match for two result files to be comparable.
pub fn provenance(seed: u64, workload: &str, ops: usize) -> Json {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("git_commit", Json::Str(git)),
        (
            "rustc",
            Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("seed", Json::Str(seed.to_string())),
        ("workload", Json::Str(workload.to_string())),
        ("ops", Json::Num(ops as f64)),
        (
            "default_engine_kind",
            Json::Str(format!("{:?}", sirtm_core::default_engine_kind())),
        ),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
