//! The benchmark's workloads: input generation from the workload seed,
//! one operation per input, and the output digests the check compares.
//!
//! Inputs are a pure function of `(workload, seed)`; the library only
//! ever sees the generated specs. Every op of one input does exactly the
//! same simulated work, so a faster build does the same work in less
//! time rather than more work in the same time.

use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_rng::{Rng, SplitMix64};
use sirtm_scenario::json::{self, Json};
use sirtm_scenario::telemetry::SimCounters;
use sirtm_scenario::{
    dispatch, presets, run_spec, run_sweep_observed, DispatchOptions, DispatchOutcome, Mock,
    MockBehaviour, RunOutcome, RunPlan, ScenarioSpec, SeedScheme, ShardTransport, SweepObserver,
    SweepOptions, SweepSpec,
};

/// The seed the pinned digests and counter totals belong to.
pub const DEFAULT_SEED: u64 = 1;
/// Distinct run inputs per preset workload. Ops cycle through them, so
/// a run's median averages over this many initial topologies.
pub const PRESET_INPUTS: usize = 8;
/// Distinct sweeps per dispatch run (each already 64 runs wide).
pub const DISPATCH_INPUTS: usize = 4;
/// Replicates in one dispatched sweep.
pub const DISPATCH_REPLICATES: usize = 64;
/// Shards one dispatched sweep is split into.
pub const DISPATCH_SHARDS: usize = 4;
/// New runs the scripted victim worker completes before it crashes, so
/// its shard resumes from the journal on the other worker.
pub const DIE_AFTER: usize = 5;

/// The pinned digests and counter totals for [`DEFAULT_SEED`].
const PINS: &str = include_str!("../pins.json");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `steady-state` preset as-is: 8x16 behavioural FFW, no events.
    SteadyState,
    /// The `fault-storm` preset on PicoBlaze firmware (`ffw-fw`).
    FaultStormFw,
    /// 64 `light-4x4` replicates dispatched over two in-process mock
    /// workers, one of which crashes once.
    Light4x4Dispatch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyState,
        Workload::FaultStormFw,
        Workload::Light4x4Dispatch,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyState => "steady-state",
            Workload::FaultStormFw => "fault-storm-fw",
            Workload::Light4x4Dispatch => "light-4x4-dispatch",
        }
    }

    /// Looks a workload up by its command-line name.
    ///
    /// # Errors
    ///
    /// Names the known workloads when `name` is not one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (known: {})", known.join(", "))
            })
    }

    /// The scenario one preset op runs, or `None` for the dispatch
    /// workload.
    pub fn preset_spec(self) -> Option<ScenarioSpec> {
        match self {
            Workload::SteadyState => presets::preset("steady-state"),
            Workload::FaultStormFw => presets::preset("fault-storm").map(|mut spec| {
                spec.name = "fault-storm-fw".to_string();
                spec.model = ModelKind::ForagingForWorkFirmware(FfwConfig::default());
                spec
            }),
            Workload::Light4x4Dispatch => None,
        }
    }
}

/// One op's input.
#[derive(Debug, Clone)]
pub enum Input {
    /// One `run_spec` call.
    Run {
        /// The scenario.
        spec: ScenarioSpec,
        /// The run seed.
        seed: u64,
    },
    /// One whole `dispatch` of a sweep.
    Dispatch(SweepSpec),
}

impl Input {
    /// Scenario runs one op of this input completes.
    pub fn runs(&self) -> usize {
        match self {
            Input::Run { .. } => 1,
            Input::Dispatch(sweep) => sweep.run_count(),
        }
    }
}

/// SplitMix64 of the workload seed and an input index: decorrelated
/// per-input seeds from one command-line seed.
fn derive(seed: u64, index: usize) -> u64 {
    SplitMix64::new(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The light-4x4 sweep one dispatch op runs.
pub fn dispatch_sweep(root: u64) -> SweepSpec {
    SweepSpec {
        name: "light-4x4-dispatch".to_string(),
        base: presets::preset("light-4x4").expect("light-4x4 is a shipped preset"),
        axes: Vec::new(),
        replicates: DISPATCH_REPLICATES,
        seeds: SeedScheme::Derived { root },
    }
}

/// The inputs of `workload` for `seed`, validated. A pure function of
/// its arguments.
pub fn inputs(workload: Workload, seed: u64) -> Vec<Input> {
    let inputs: Vec<Input> = match workload.preset_spec() {
        Some(spec) => (0..PRESET_INPUTS)
            .map(|i| Input::Run {
                spec: spec.clone(),
                seed: derive(seed, i),
            })
            .collect(),
        None => (0..DISPATCH_INPUTS)
            .map(|i| Input::Dispatch(dispatch_sweep(derive(seed, i))))
            .collect(),
    };
    for input in &inputs {
        match input {
            Input::Run { spec, .. } => spec.validate(),
            Input::Dispatch(sweep) => sweep.base.validate(),
        }
    }
    inputs
}

/// FNV-1a 64 over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the hash.
    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash so far.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one preset op: its `RunSummary` (floats by bit pattern)
/// and its `SimCounters`.
pub fn run_digest(outcome: &RunOutcome) -> u64 {
    let s = outcome.summary();
    let mut h = Fnv::default();
    h.u64(s.seed)
        .u64(s.settle_ms.to_bits())
        .u64(s.pre_rate.to_bits())
        .u64(s.recovery_ms.map_or(u64::MAX, f64::to_bits))
        .u64(s.final_rate.to_bits());
    for (_, v) in outcome.sim.fields() {
        h.u64(v);
    }
    h.finish()
}

/// Digest of a merged sweep artefact's bytes.
pub fn artefact_digest(artefact: &str) -> u64 {
    Fnv::default().bytes(artefact.as_bytes()).finish()
}

/// The per-workload digest: the input digests folded in input order.
pub fn outputs_digest(input_digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &d in input_digests {
        h.u64(d);
    }
    h.finish()
}

/// Two in-process mock workers; the first crashes after [`DIE_AFTER`]
/// new runs on its first shard, so that shard resumes from its journal.
pub fn mock_workers(dir: &Path) -> [Mock; 2] {
    [
        Mock::new("w0", &dir.join("w0")).script([MockBehaviour::DieAfter(DIE_AFTER)]),
        Mock::new("w1", &dir.join("w1")),
    ]
}

/// Dispatches `sweep` as [`DISPATCH_SHARDS`] shards over `workers`,
/// spinning instead of sleeping between polls (the mocks finish inside
/// `spawn`).
///
/// # Errors
///
/// Returns the dispatcher's error.
pub fn run_dispatch(
    sweep: &SweepSpec,
    workers: &mut [Box<dyn ShardTransport>],
) -> Result<DispatchOutcome, String> {
    let opts = DispatchOptions {
        poll_interval: Duration::ZERO,
        ..DispatchOptions::default()
    };
    dispatch(sweep, DISPATCH_SHARDS, workers, &opts)
}

/// What one op produced, reduced to what the check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    /// The op's digest.
    pub digest: u64,
    /// The run's counters (preset ops only; a dispatch does not expose
    /// per-run counters).
    pub sim: Option<SimCounters>,
    /// Simulated end-of-run throughput in sinks per simulated ms: the
    /// run's `final_rate`, or the mean over a dispatched sweep's runs.
    pub throughput: f64,
}

/// Runs one op of `input`. `dir` is a fresh directory the dispatch
/// workers keep their journals in; preset ops ignore it.
///
/// # Errors
///
/// Returns the dispatcher's error.
pub fn run_op(input: &Input, dir: &Path) -> Result<OpOutput, String> {
    match input {
        Input::Run { spec, seed } => {
            let outcome = run_spec(spec, *seed);
            Ok(OpOutput {
                digest: run_digest(&outcome),
                sim: Some(outcome.sim),
                throughput: outcome.summary().final_rate,
            })
        }
        Input::Dispatch(sweep) => {
            let mut workers: Vec<Box<dyn ShardTransport>> = mock_workers(dir)
                .into_iter()
                .map(|m| Box::new(m) as Box<dyn ShardTransport>)
                .collect();
            let outcome = run_dispatch(sweep, &mut workers)?;
            let rates: Vec<f64> = outcome
                .result
                .cells
                .iter()
                .flat_map(|c| c.runs.iter().map(|r| r.final_rate))
                .collect();
            Ok(OpOutput {
                digest: artefact_digest(&outcome.result.to_json().render_pretty()),
                sim: None,
                throughput: rates.iter().sum::<f64>() / rates.len().max(1) as f64,
            })
        }
    }
}

/// Sums every run's counters over a sweep.
#[derive(Default)]
struct SimSum(Mutex<SimCounters>);

impl SweepObserver for SimSum {
    fn run_finished(&self, _plan: &RunPlan, outcome: &RunOutcome) {
        if let Ok(mut total) = self.0.lock() {
            total.absorb(&outcome.sim);
        }
    }
}

/// The single-process reference for a dispatch input: the `run_sweep`
/// artefact bytes and the sweep's summed counters.
pub fn sweep_reference(sweep: &SweepSpec) -> (String, SimCounters) {
    let sum = SimSum::default();
    let result = run_sweep_observed(sweep, SweepOptions { threads: 1 }, &sum);
    let total = sum.0.into_inner().expect("observer never panics");
    (result.to_json().render_pretty(), total)
}

/// The pinned values of one workload at [`DEFAULT_SEED`].
#[derive(Debug, Clone, PartialEq)]
pub struct Pins {
    /// Per-input digests, in input order.
    pub inputs: Vec<u64>,
    /// The folded per-workload digest.
    pub outputs_digest: u64,
    /// `SimCounters` summed over the inputs.
    pub sim_totals: SimCounters,
}

impl Pins {
    /// The pins as JSON (digests as hex strings).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "inputs",
                Json::Arr(self.inputs.iter().map(|d| Json::Str(hex(*d))).collect()),
            ),
            ("outputs_digest", Json::Str(hex(self.outputs_digest))),
            ("sim_totals", sim_json(&self.sim_totals)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let digest = |v: &Json| -> Result<u64, String> {
            let s = v.as_str().ok_or("digest is not a string")?;
            u64::from_str_radix(s, 16).map_err(|e| format!("bad digest `{s}`: {e}"))
        };
        let inputs = v
            .get("inputs")
            .and_then(Json::as_arr)
            .ok_or("missing `inputs`")?
            .iter()
            .map(digest)
            .collect::<Result<Vec<_>, _>>()?;
        let outputs_digest = digest(v.get("outputs_digest").ok_or("missing `outputs_digest`")?)?;
        let totals = v.get("sim_totals").ok_or("missing `sim_totals`")?;
        let mut sim_totals = SimCounters::default();
        for (name, slot) in sim_fields_mut(&mut sim_totals) {
            let n = totals
                .get(name)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing sim total `{name}`"))?;
            *slot = n as u64;
        }
        Ok(Self {
            inputs,
            outputs_digest,
            sim_totals,
        })
    }
}

/// The pinned values of `workload`, parsed from the embedded pin file.
///
/// # Errors
///
/// Describes a malformed pin file or a missing workload entry.
pub fn pinned(workload: Workload) -> Result<Pins, String> {
    let doc = json::parse(PINS).map_err(|e| format!("pins.json: {e}"))?;
    let entry = doc
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .ok_or_else(|| format!("pins.json has no entry for `{}`", workload.name()))?;
    Pins::from_json(entry).map_err(|e| format!("pins.json `{}`: {e}", workload.name()))
}

/// Recomputes the pins of `workload` at `seed`, with no timing: every
/// input once, and for dispatch inputs the single-process reference
/// sweep for the counter totals.
///
/// # Errors
///
/// Returns an op's error, or a mismatch between a dispatched artefact
/// and its `run_sweep` reference.
pub fn compute_pins(workload: Workload, seed: u64, dir: &Path) -> Result<Pins, String> {
    let mut digests = Vec::new();
    let mut sim_totals = SimCounters::default();
    for (i, input) in inputs(workload, seed).iter().enumerate() {
        let op_dir = dir.join(format!("pin-{i}"));
        let out = run_op(input, &op_dir);
        let _ = std::fs::remove_dir_all(&op_dir);
        let out = out?;
        match (input, out.sim) {
            (_, Some(sim)) => sim_totals.absorb(&sim),
            (Input::Dispatch(sweep), None) => {
                let (artefact, sim) = sweep_reference(sweep);
                if artefact_digest(&artefact) != out.digest {
                    return Err(format!(
                        "{}: dispatched artefact of input {i} differs from run_sweep",
                        workload.name()
                    ));
                }
                sim_totals.absorb(&sim);
            }
            (Input::Run { .. }, None) => unreachable!("preset ops report counters"),
        }
        digests.push(out.digest);
    }
    Ok(Pins {
        outputs_digest: outputs_digest(&digests),
        inputs: digests,
        sim_totals,
    })
}

/// A digest as 16 hex digits.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// `SimCounters` as a JSON object in canonical field order.
pub fn sim_json(sim: &SimCounters) -> Json {
    Json::Obj(
        sim.fields()
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
            .collect(),
    )
}

/// Mutable access to every `SimCounters` field, named as in
/// [`SimCounters::fields`].
fn sim_fields_mut(sim: &mut SimCounters) -> [(&'static str, &mut u64); 8] {
    [
        ("cycles_stepped", &mut sim.cycles_stepped),
        ("cycles_fast_forwarded", &mut sim.cycles_fast_forwarded),
        ("messages_injected", &mut sim.messages_injected),
        ("messages_delivered", &mut sim.messages_delivered),
        ("flit_hops", &mut sim.flit_hops),
        ("gossip_rounds", &mut sim.gossip_rounds),
        ("aim_scans", &mut sim.aim_scans),
        ("thermal_solves", &mut sim.thermal_solves),
    ]
}
