//! Shared helpers for the SIRTM criterion benches.
//!
//! These targets time what the fixed-work benchmark (`perfbench/`, the
//! repo's one speed record) does not cover: `micro` times the
//! substrates in isolation (CI runs it as a quick smoke), `colony` and
//! `thermal` the colony and thermal models, `table1`, `table2` and
//! `fig4` the workloads that regenerate the published tables/figure
//! (scaled down for wall-clock sanity — the `repro` binary produces the
//! full-size numbers), and `ablation` probes the simulator's own design
//! choices. End-to-end and per-layer speed of the scenario, sweep,
//! shard and dispatch stack is measured by perfbench's workloads.

use sirtm_core::models::ModelKind;
use sirtm_experiments::harness::{run_one, ExperimentConfig, RunResult, RunSpec};

/// A bench-sized experiment configuration: same dynamics, shorter horizon.
pub fn bench_config(duration_ms: f64, fault_at_ms: f64) -> ExperimentConfig {
    ExperimentConfig {
        duration_ms,
        fault_at_ms,
        window_ms: 5.0,
        runs: 1,
        ..ExperimentConfig::default()
    }
}

/// Runs one bench-sized experiment.
pub fn bench_run(model: ModelKind, faults: usize, seed: u64, cfg: &ExperimentConfig) -> RunResult {
    run_one(
        &RunSpec {
            model,
            faults,
            seed,
        },
        cfg,
    )
}

/// The sink throughput of a result (black-box anchor for benches).
pub fn sink_rate(result: &RunResult) -> f64 {
    result.final_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_runnable() {
        let cfg = bench_config(50.0, 25.0);
        let r = bench_run(ModelKind::NoIntelligence, 2, 1, &cfg);
        assert_eq!(r.trace.samples.len(), 10);
        assert!(sink_rate(&r) >= 0.0);
    }
}
