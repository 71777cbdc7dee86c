//! The traced run: per-layer counts and host times for one workload,
//! plus the engine and sim-telemetry A/B diagnostics.
//!
//! The run's time budget is split into three phases. Phase A
//! interleaves untraced ops with traced recompositions of the same
//! inputs (layer times, layer counts and the tracing overhead). Phase B
//! drives the layers below the platform standalone. Phase C interleaves
//! the firmware engines on `fault-storm-fw` inputs and sim telemetry
//! off/on on `steady-state` inputs.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sirtm_core::EngineKind;
use sirtm_scenario::{build_platform, run_spec, ShardTransport};

use crate::stats::{quantile, Quartiles};
use crate::traced::{self, Recomposed, Timed, Tracer, TransportStats};
use crate::workload::{self, Input, Workload};
use crate::{ms, Metric};

/// Every per-layer metric: name, unit, and whether higher is better.
pub const LAYER_METRICS: [(&str, &str, bool); 53] = [
    ("centurion.cycles_stepped", "count", false),
    ("centurion.cycles_fast_forwarded", "count", true),
    ("centurion.ff_ratio", "ratio", true),
    ("centurion.aim_scans", "count", false),
    ("centurion.scans_per_cycle", "ratio", false),
    ("centurion.gossip_rounds", "count", false),
    ("centurion.bounces", "count", false),
    ("centurion.send_failures", "count", false),
    ("centurion.bounce_drops", "count", false),
    ("noc.messages_injected", "count", false),
    ("noc.messages_delivered", "count", false),
    ("noc.flit_hops", "count", false),
    ("noc.dropped", "count", false),
    ("noc.mean_latency_cycles", "cycles", false),
    ("picoblaze.instret", "count", false),
    ("picoblaze.instret_per_scan", "ratio", false),
    ("scenario.shard.runs_executed", "count", false),
    ("scenario.shard.runs_resumed", "count", true),
    ("scenario.shard.useful_ratio", "ratio", true),
    ("scenario.shard.journal_bytes", "bytes", false),
    ("scenario.dispatch.attempts", "count", false),
    ("scenario.dispatch.reassignments", "count", false),
    ("scenario.run.build_platform_ms", "ms", false),
    ("scenario.run.timeline_compile_ms", "ms", false),
    ("scenario.run.timeline_poll_ms", "ms", false),
    ("scenario.run.recorder_sample_ms", "ms", false),
    ("centurion.run_ms", "ms", false),
    ("centurion.ns_per_stepped_cycle", "ns", false),
    ("core.scan_ns", "ns", false),
    ("picoblaze.scan_ns.reference", "ns", false),
    ("picoblaze.scan_ns.interpreter", "ns", false),
    ("picoblaze.scan_ns.tiered", "ns", false),
    ("picoblaze.ns_per_instr.reference", "ns", false),
    ("picoblaze.ns_per_instr.interpreter", "ns", false),
    ("picoblaze.ns_per_instr.tiered", "ns", false),
    ("noc.ns_per_flit_hop", "ns", false),
    ("noc.ns_per_router_cycle", "ns", false),
    ("centurion.gossip_round_us", "us", false),
    ("scenario.dispatch.transport_ms", "ms", false),
    ("scenario.dispatch.self_ms", "ms", false),
    ("trace.overhead_pct", "%", false),
    ("picoblaze.engine_op_ms.reference", "ms", false),
    ("picoblaze.engine_op_ms.reference.p25", "ms", false),
    ("picoblaze.engine_op_ms.reference.p75", "ms", false),
    ("picoblaze.engine_op_ms.interpreter", "ms", false),
    ("picoblaze.engine_op_ms.interpreter.p25", "ms", false),
    ("picoblaze.engine_op_ms.interpreter.p75", "ms", false),
    ("picoblaze.engine_op_ms.tiered", "ms", false),
    ("picoblaze.engine_op_ms.tiered.p25", "ms", false),
    ("picoblaze.engine_op_ms.tiered.p75", "ms", false),
    ("centurion.sim_telemetry_overhead_pct", "%", false),
    ("centurion.sim_telemetry_overhead_pct.p25", "%", false),
    ("centurion.sim_telemetry_overhead_pct.p75", "%", false),
];

/// What a traced run reports.
#[derive(Debug)]
pub struct TracedReport {
    /// Every per-layer metric, in [`LAYER_METRICS`] order.
    pub metrics: Vec<Metric>,
    /// Ops run (untraced, traced and A/B runs).
    pub attempted: usize,
    /// Ops whose outputs disagreed with their reference.
    pub failed: usize,
    /// Why each failed op failed.
    pub failures: Vec<String>,
}

/// Layer counts summed over scenario runs.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    stepped: u64,
    fast_forwarded: u64,
    aim_scans: u64,
    gossip_rounds: u64,
    bounces: u64,
    send_failures: u64,
    bounce_drops: u64,
    injected: u64,
    delivered: u64,
    flit_hops: u64,
    dropped: u64,
    latency_sum: u64,
    instret: u64,
}

impl Counts {
    fn add(&mut self, r: &Recomposed) {
        self.stepped += r.sim.cycles_stepped;
        self.fast_forwarded += r.sim.cycles_fast_forwarded;
        self.aim_scans += r.sim.aim_scans;
        self.gossip_rounds += r.sim.gossip_rounds;
        self.bounces += r.stats.bounces;
        self.send_failures += r.stats.send_failures;
        self.bounce_drops += r.stats.bounce_drops;
        self.injected += r.mesh.injected;
        self.delivered += r.mesh.delivered;
        self.flit_hops += r.mesh.flit_hops;
        self.dropped += r.mesh.dropped;
        self.latency_sum += r.mesh.latency_sum;
        self.instret += r.fw_census.map_or(0, |c| c.retired());
    }
}

/// Dispatch-side counts of one dispatch op.
#[derive(Debug, Default, Clone, Copy)]
struct DispatchCounts {
    executed: usize,
    resumed: usize,
    artefact_runs: usize,
    journal_bytes: u64,
    attempts: usize,
    reassignments: usize,
}

/// A phase deadline that always lets at least `min` iterations run.
struct Budget {
    deadline: Instant,
    min: usize,
    done: usize,
}

impl Budget {
    fn new(seconds: f64, min: usize) -> Self {
        Self {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min,
            done: 0,
        }
    }

    fn next(&mut self) -> bool {
        let go = self.done < self.min || Instant::now() < self.deadline;
        self.done += 1;
        go
    }
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Per-run medians of the recomposition spans, in ms, plus the
/// per-window `run_ms` and the ns per stepped cycle.
fn span_metrics(tracer: &Tracer, runs: &[(u64, usize, u64)]) -> [f64; 6] {
    let per_run = |name: &str| -> Vec<f64> {
        let by_op = tracer.self_ns_by_op(name);
        runs.iter()
            .map(|(op, _, _)| by_op.get(op).copied().unwrap_or(0) as f64 / 1e6)
            .collect()
    };
    let run_ms_ns = tracer.self_ns_by_op("centurion.run_ms");
    let per_window: Vec<f64> = runs
        .iter()
        .map(|(op, windows, _)| {
            run_ms_ns.get(op).copied().unwrap_or(0) as f64 / 1e6 / *windows as f64
        })
        .collect();
    let per_cycle: Vec<f64> = runs
        .iter()
        .map(|(op, _, stepped)| {
            run_ms_ns.get(op).copied().unwrap_or(0) as f64 / (*stepped).max(1) as f64
        })
        .collect();
    [
        median(&per_run("scenario.run.build_platform")),
        median(&per_run("scenario.run.timeline_compile")),
        median(&per_run("scenario.run.timeline_poll")),
        median(&per_run("scenario.run.recorder_sample")),
        median(&per_window),
        median(&per_cycle),
    ]
}

/// Runs the traced run of `workload` for about `seconds` and returns
/// every per-layer metric. Spans stay in `tracer`; `work_dir` holds the
/// dispatch journals while an op runs.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    tracer: &mut Tracer,
) -> TracedReport {
    let inputs = workload::inputs(workload, seed);
    let mut failures = Vec::new();
    let mut attempted = 0usize;
    // (op id, windows, cycles stepped) of every traced scenario run.
    let mut runs: Vec<(u64, usize, u64)> = Vec::new();
    // Layer counts summed over the distinct inputs seen, each once.
    let mut seen = BTreeSet::new();
    let mut total = Counts::default();
    let mut dispatch_counts: BTreeMap<usize, DispatchCounts> = BTreeMap::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut transport_ms = Vec::new();
    let mut self_ms = Vec::new();

    // Phase A: untraced op and traced recomposition, alternating which
    // goes first.
    let mut phase = Budget::new(seconds * 0.45, 2);
    let mut k = 0usize;
    while phase.next() {
        let i = k % inputs.len();
        let traced_first = k % 2 == 1;
        k += 1;
        match &inputs[i] {
            Input::Run { spec, seed } => {
                let mut reference = None;
                let mut recomposed = None;
                for side in [traced_first, !traced_first] {
                    let start = Instant::now();
                    if side {
                        let op = tracer.next_op();
                        let r = traced::recomposed_run(tracer, spec, *seed);
                        traced_ms.push(ms(start.elapsed()));
                        runs.push((op, r.windows, r.sim.cycles_stepped));
                        recomposed = Some(r);
                    } else {
                        reference = Some(run_spec(spec, *seed));
                        untraced_ms.push(ms(start.elapsed()));
                    }
                    attempted += 1;
                }
                let (reference, r) = (reference.expect("ran"), recomposed.expect("ran"));
                if reference.trace != r.trace || reference.sim != r.sim {
                    failures.push(format!("input {i}: recomposed run differs from run_spec"));
                }
                if seen.insert(i) {
                    total.add(&r);
                }
            }
            Input::Dispatch(sweep) => {
                let mut digests = [0u64; 2];
                for side in [traced_first, !traced_first] {
                    let dir = work_dir.join(format!("traced-{k}-{side}"));
                    let start = Instant::now();
                    let digest = if side {
                        tracer.next_op();
                        let op = tracer.begin("scenario.dispatch.dispatch");
                        let stats = Rc::new(RefCell::new(TransportStats::default()));
                        let mut workers: Vec<Box<dyn ShardTransport>> =
                            workload::mock_workers(&dir)
                                .into_iter()
                                .map(|m| {
                                    Box::new(Timed::new(m, Rc::clone(&stats)))
                                        as Box<dyn ShardTransport>
                                })
                                .collect();
                        let outcome = workload::run_dispatch(sweep, &mut workers);
                        tracer.end(op);
                        let total = start.elapsed();
                        traced_ms.push(ms(total));
                        let stats = stats.borrow().clone();
                        transport_ms.push(ms(stats.time));
                        self_ms.push(ms(total.saturating_sub(stats.time)));
                        outcome.map(|o| {
                            dispatch_counts.entry(i).or_insert(DispatchCounts {
                                executed: stats.executed,
                                resumed: stats.resumed,
                                artefact_runs: o.result.cells.iter().map(|c| c.runs.len()).sum(),
                                journal_bytes: traced::journal_bytes(&dir),
                                attempts: o.report.shards.iter().map(|s| s.attempts.len()).sum(),
                                reassignments: o.report.reassignments(),
                            });
                            workload::artefact_digest(&o.result.to_json().render_pretty())
                        })
                    } else {
                        let out = workload::run_op(&inputs[i], &dir).map(|o| o.digest);
                        untraced_ms.push(ms(start.elapsed()));
                        out
                    };
                    let _ = std::fs::remove_dir_all(&dir);
                    attempted += 1;
                    match digest {
                        Ok(d) => digests[usize::from(side)] = d,
                        Err(e) => failures.push(format!("input {i}: dispatch failed: {e}")),
                    }
                }
                if digests[0] != digests[1] {
                    failures.push(format!("input {i}: traced dispatch artefact differs"));
                }
                if seen.insert(i) {
                    // The sweep's runs, recomposed one by one: the
                    // scenario.run and centurion layers of this workload.
                    for (n, plan) in sweep.expand().iter().enumerate() {
                        let op = tracer.next_op();
                        let r = traced::recomposed_run(tracer, &plan.spec, plan.seed);
                        if n == 0 {
                            let reference = run_spec(&plan.spec, plan.seed);
                            if reference.trace != r.trace || reference.sim != r.sim {
                                failures.push(format!(
                                    "input {i}: recomposed sweep run differs from run_spec"
                                ));
                            }
                        }
                        runs.push((op, r.windows, r.sim.cycles_stepped));
                        total.add(&r);
                    }
                }
            }
        }
    }

    // Per-op means of the counts over the distinct inputs seen.
    let n = seen.len().max(1) as f64;
    let per_op = |v: u64| v as f64 / n;
    let cycles = total.stepped + total.fast_forwarded;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let nd = dispatch_counts.len().max(1) as f64;
    let dsum = |f: fn(&DispatchCounts) -> f64| {
        dispatch_counts.values().map(f).fold(0.0, |a, b| a + b) / nd
    };
    let executed = dsum(|d| d.executed as f64);
    let artefact_runs = dsum(|d| d.artefact_runs as f64);

    // Phase B: the layers below the platform, standalone.
    let spec = match workload.preset_spec() {
        Some(spec) => spec,
        None => workload::dispatch_sweep(0).base,
    };
    let n_tasks = spec.graph().len();
    let core_scan = traced::core_scan_ns(n_tasks);
    let fw: Vec<(f64, f64)> = EngineKind::ALL
        .iter()
        .map(|&e| traced::firmware_scan_ns(n_tasks, e))
        .collect();
    let (hop_ns, router_ns) = traced::mesh_costs(&spec, ratio(total.injected, cycles));
    let gossip_us = traced::gossip_round_us(
        &Workload::SteadyState
            .preset_spec()
            .expect("steady-state is a preset"),
    );

    // Phase C: firmware engines interleaved on fault-storm-fw inputs.
    let fw_inputs = workload::inputs(Workload::FaultStormFw, seed);
    let mut engine_ms: [Vec<f64>; 3] = Default::default();
    let mut phase = Budget::new(seconds * 0.25, 2);
    let mut round = 0usize;
    while phase.next() {
        let Input::Run { spec, seed } = &fw_inputs[round % fw_inputs.len()] else {
            unreachable!("fault-storm-fw inputs are runs");
        };
        let mut outputs = Vec::new();
        for j in 0..3 {
            let e = (round + j) % 3;
            let start = Instant::now();
            let platform = traced::build_platform_on(spec, *seed, EngineKind::ALL[e]);
            let r = traced::drive(&mut Tracer::disabled(), spec, *seed, platform);
            engine_ms[e].push(ms(start.elapsed()));
            attempted += 1;
            outputs.push((r.trace, r.sim));
        }
        if outputs.windows(2).any(|w| w[0] != w[1]) {
            failures.push(format!("engine A/B round {round}: engines disagree"));
        }
        round += 1;
    }

    // Phase C: sim telemetry off against on, on steady-state inputs.
    let ss_inputs = workload::inputs(Workload::SteadyState, seed);
    let mut overhead_pct = Vec::new();
    let mut phase = Budget::new(seconds * 0.2, 2);
    let mut pair = 0usize;
    while phase.next() {
        let Input::Run { spec, seed } = &ss_inputs[pair % ss_inputs.len()] else {
            unreachable!("steady-state inputs are runs");
        };
        let mut t = [0.0f64; 2];
        let mut traces = Vec::new();
        for j in 0..2 {
            let on = (pair + j) % 2 == 1;
            let start = Instant::now();
            let mut platform = build_platform(spec, *seed);
            platform.set_sim_telemetry(on);
            let r = traced::drive(&mut Tracer::disabled(), spec, *seed, platform);
            t[usize::from(on)] = ms(start.elapsed());
            attempted += 1;
            traces.push(r.trace);
        }
        if traces[0] != traces[1] {
            failures.push(format!("telemetry A/B pair {pair}: traces differ"));
        }
        overhead_pct.push((t[1] / t[0] - 1.0) * 100.0);
        pair += 1;
    }

    let [build, compile, poll, sample, run_ms, ns_per_cycle] = span_metrics(tracer, &runs);
    let engine_q: Vec<Quartiles> = engine_ms
        .iter()
        .map(|s| Quartiles::of(s).expect("at least two rounds"))
        .collect();
    let telemetry_q = Quartiles::of(&overhead_pct).expect("at least two pairs");
    let untraced = median(&untraced_ms);
    let values: [f64; 53] = [
        per_op(total.stepped),
        per_op(total.fast_forwarded),
        ratio(total.fast_forwarded, cycles),
        per_op(total.aim_scans),
        ratio(total.aim_scans, total.stepped),
        per_op(total.gossip_rounds),
        per_op(total.bounces),
        per_op(total.send_failures),
        per_op(total.bounce_drops),
        per_op(total.injected),
        per_op(total.delivered),
        per_op(total.flit_hops),
        per_op(total.dropped),
        if total.delivered == 0 {
            0.0
        } else {
            total.latency_sum as f64 / total.delivered as f64
        },
        per_op(total.instret),
        ratio(total.instret, total.aim_scans),
        executed,
        dsum(|d| d.resumed as f64),
        if executed == 0.0 {
            0.0
        } else {
            artefact_runs / executed
        },
        dsum(|d| d.journal_bytes as f64),
        dsum(|d| d.attempts as f64),
        dsum(|d| d.reassignments as f64),
        build,
        compile,
        poll,
        sample,
        run_ms,
        ns_per_cycle,
        core_scan,
        fw[0].0,
        fw[1].0,
        fw[2].0,
        fw[0].1,
        fw[1].1,
        fw[2].1,
        hop_ns,
        router_ns,
        gossip_us,
        median(&transport_ms),
        median(&self_ms),
        if untraced == 0.0 {
            0.0
        } else {
            (median(&traced_ms) / untraced - 1.0) * 100.0
        },
        engine_q[0].p50,
        engine_q[0].p25,
        engine_q[0].p75,
        engine_q[1].p50,
        engine_q[1].p25,
        engine_q[1].p75,
        engine_q[2].p50,
        engine_q[2].p25,
        engine_q[2].p75,
        telemetry_q.p50,
        telemetry_q.p25,
        telemetry_q.p75,
    ];
    let metrics = LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| Metric::new(name, unit, v))
        .collect();
    TracedReport {
        metrics,
        attempted,
        failed: failures.len(),
        failures,
    }
}
