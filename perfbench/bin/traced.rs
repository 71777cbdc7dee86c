//! The traced run: spans around calls into each layer's public
//! functions, recorded from the benchmark's own code.
//!
//! The program carries no tracing of its own, so every span here sits
//! at a public seam: `run_spec`'s stepping is rebuilt from
//! `build_platform`, `Timeline::{compile, poll}`, `Platform::run_ms` and
//! `Recorder::{sample, into_trace}`; dispatch is timed through a
//! wrapper around each mock `ShardTransport`; and the layers below the
//! platform are driven standalone (`RtmModel::scan` with `MockAimIo`,
//! `FirmwareModel::with_engine_kind`, a bare `Mesh`, and
//! `gossip_round_into`).

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sirtm_centurion::directory::gossip_round_into;
use sirtm_centurion::{Directory, Platform, PlatformStats};
use sirtm_core::models::{FfwConfig, ModelKind, RtmModel};
use sirtm_core::{EngineKind, FirmwareModel, MockAimIo, TierCensus};
use sirtm_noc::{Coord, Direction, Mesh, MeshStats, NodeId, PacketKind};
use sirtm_rng::{Rng, Xoshiro256StarStar};
use sirtm_scenario::json::Json;
use sirtm_scenario::recorder::{Recorder, RunTrace};
use sirtm_scenario::run::initial_mapping;
use sirtm_scenario::telemetry::SimCounters;
use sirtm_scenario::{
    build_platform, PollStatus, ScenarioSpec, ShardJob, ShardResult, ShardTransport, Timeline,
};
use sirtm_taskgraph::{GridDims, Mapping};

/// One recorded span. Spans of one op share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `centurion.run_ms`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. A disabled tracer records nothing and adds
/// only a branch per call, so one code path serves traced and untraced
/// recompositions.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Starts a new op: later spans carry its id. Returns the id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes the span `id` opened by [`Tracer::begin`].
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        self.spans[id].end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the part its direct
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Summed self time (ns) of the spans named `name`, per op id.
    pub fn self_ns_by_op(&self, name: &str) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name {
                *out.entry(s.op).or_insert(0) += self_ns;
            }
        }
        out
    }

    /// Writes the spans as JSON lines after a `header` line.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_jsonl(&self, path: &Path, header: &Json) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", header.render())?;
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(i as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("op", Json::Num(s.op as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// What a recomposed run produced: the parts `run_spec` compares on,
/// plus the layer counters `run_spec` does not return.
#[derive(Debug, Clone)]
pub struct Recomposed {
    /// The windowed trace.
    pub trace: RunTrace,
    /// The sim-plane counters, thermal solves included as in `run_spec`.
    pub sim: SimCounters,
    /// Platform counters (bounces, send failures, ...).
    pub stats: PlatformStats,
    /// Mesh counters (drops, latency).
    pub mesh: MeshStats,
    /// Firmware tier census, when the models run on a tiered engine.
    pub fw_census: Option<TierCensus>,
    /// Recording windows driven.
    pub windows: usize,
}

/// `run_spec`'s stepping rebuilt from its public parts on `platform`,
/// with a span around each call. `spec` must be the spec `platform`
/// was built from.
pub fn drive(t: &mut Tracer, spec: &ScenarioSpec, seed: u64, mut platform: Platform) -> Recomposed {
    let mut timeline = t.span("scenario.run.timeline_compile", || {
        Timeline::compile(spec, seed)
    });
    let mut recorder = Recorder::new(spec.window_ms, spec.sink());
    let windows = spec.total_windows();
    for _ in 0..windows {
        t.span("scenario.run.timeline_poll", || {
            timeline.poll(&mut platform)
        });
        t.span("centurion.run_ms", || platform.run_ms(spec.window_ms));
        t.span("scenario.run.recorder_sample", || {
            recorder.sample(&platform)
        });
    }
    let mut sim = platform.sim_counters();
    sim.thermal_solves += timeline.thermal_solves();
    let trace = t.span("scenario.run.into_trace", || recorder.into_trace());
    Recomposed {
        trace,
        sim,
        stats: platform.stats().clone(),
        mesh: platform.mesh_stats(),
        fw_census: platform.firmware_tier_census(),
        windows,
    }
}

/// One whole recomposed run of `spec` under `seed`, as one op span.
pub fn recomposed_run(t: &mut Tracer, spec: &ScenarioSpec, seed: u64) -> Recomposed {
    let op = t.begin("op");
    spec.validate();
    let platform = t.span("scenario.run.build_platform", || build_platform(spec, seed));
    let out = drive(t, spec, seed, platform);
    t.end(op);
    out
}

/// `build_platform` with every node's firmware on `engine`: the same
/// mapping and clock phases, so the run is decision-identical to the
/// default engine's.
///
/// # Panics
///
/// Panics if `spec` does not run FFW firmware.
pub fn build_platform_on(spec: &ScenarioSpec, seed: u64, engine: EngineKind) -> Platform {
    let ModelKind::ForagingForWorkFirmware(cfg) = &spec.model else {
        panic!("engine A/B needs an ffw-fw spec");
    };
    let graph = spec.graph();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mapping = initial_mapping(spec, &graph, &mut rng);
    let n_tasks = graph.len();
    let models: Vec<Box<dyn RtmModel>> = (0..spec.grid().len())
        .map(|_| {
            Box::new(FirmwareModel::foraging_for_work(n_tasks, cfg).with_engine_kind(engine))
                as Box<dyn RtmModel>
        })
        .collect();
    let mut platform = Platform::with_models(
        graph,
        &mapping,
        models,
        spec.model.is_adaptive(),
        spec.platform.clone(),
    );
    platform.randomize_phases(&mut rng);
    platform
}

/// Per-call timing and shard counts gathered by [`Timed`] transports.
#[derive(Debug, Default, Clone)]
pub struct TransportStats {
    /// Time spent inside transport calls.
    pub time: Duration,
    /// Runs the workers executed.
    pub executed: usize,
    /// Runs the workers skipped because their journal already held them.
    pub resumed: usize,
}

/// A [`ShardTransport`] wrapper that times every call into the inner
/// transport and reads the mock's per-spawn resume counts.
#[derive(Debug)]
pub struct Timed {
    inner: sirtm_scenario::Mock,
    stats: Rc<RefCell<TransportStats>>,
}

impl Timed {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: sirtm_scenario::Mock, stats: Rc<RefCell<TransportStats>>) -> Self {
        Self { inner, stats }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut sirtm_scenario::Mock) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.stats.borrow_mut().time += start.elapsed();
        out
    }
}

/// Parses the mock's `ran shard K/N: resumed R, executed E` event line.
fn resume_counts(event: &str) -> Option<(usize, usize)> {
    let rest = event.strip_prefix("ran shard ")?;
    let (_, counts) = rest.split_once(": resumed ")?;
    let (resumed, executed) = counts.split_once(", executed ")?;
    Some((resumed.parse().ok()?, executed.parse().ok()?))
}

impl ShardTransport for Timed {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn spawn(&mut self, job: &ShardJob) -> Result<(), String> {
        let before = self.inner.events.len();
        let out = self.timed(|m| m.spawn(job));
        let counts = self.inner.events[before..]
            .iter()
            .find_map(|e| resume_counts(e));
        if let Some((resumed, executed)) = counts {
            let mut stats = self.stats.borrow_mut();
            stats.resumed += resumed;
            stats.executed += executed;
        }
        out
    }

    fn poll(&mut self) -> PollStatus {
        self.timed(|m| m.poll())
    }

    fn heartbeat(&mut self) -> usize {
        self.timed(|m| m.heartbeat())
    }

    fn fetch(&mut self, job: &ShardJob) -> Result<ShardResult, String> {
        self.timed(|m| m.fetch(job))
    }

    fn fetch_checkpoint(&mut self, job: &ShardJob) -> Option<String> {
        self.timed(|m| m.fetch_checkpoint(job))
    }

    fn seed_checkpoint(&mut self, job: &ShardJob, journal: &str) -> Result<(), String> {
        self.timed(|m| m.seed_checkpoint(job, journal))
    }

    fn kill(&mut self) {
        self.timed(|m| m.kill());
    }
}

/// Total bytes of the checkpoint journals under `dir`.
pub fn journal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                journal_bytes(&path)
            } else if path.extension().is_some_and(|x| x == "ckpt") {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// A deterministic AIM stimulus pattern: routed and internal impulses,
/// periodic feeding and an occasional aged head-of-line packet.
fn stimulate(io: &mut MockAimIo, i: u64) {
    let n = io.routed.len();
    for (t, r) in io.routed.iter_mut().enumerate() {
        *r = ((i + t as u64) % 3) as u32;
    }
    io.internal[(i as usize) % n] = 1;
    io.feed = if i.is_multiple_of(4) { 60 } else { 0 };
    io.oldest = i
        .is_multiple_of(5)
        .then_some((sirtm_taskgraph::TaskId::new(1), 400));
    io.tick();
}

/// Median ns per scan of `model` over `batches` batches of `scans`.
fn time_scans(model: &mut dyn RtmModel, n_tasks: usize, scans: u64, batches: usize) -> f64 {
    let mut io = MockAimIo::new(n_tasks);
    let mut i = 0u64;
    let mut per_scan = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..scans {
            i += 1;
            stimulate(&mut io, i);
            model.scan(std::hint::black_box(&mut io));
        }
        per_scan.push(start.elapsed().as_nanos() as f64 / scans as f64);
    }
    crate::stats::quantile(&per_scan, 0.5).expect("at least one batch")
}

/// ns per scan of the behavioural FFW model.
pub fn core_scan_ns(n_tasks: usize) -> f64 {
    let mut model = ModelKind::ForagingForWork(FfwConfig::default()).build(n_tasks);
    time_scans(model.as_mut(), n_tasks, 20_000, 5)
}

/// ns per scan and ns per retired instruction of FFW firmware on
/// `engine`.
pub fn firmware_scan_ns(n_tasks: usize, engine: EngineKind) -> (f64, f64) {
    let mut model =
        FirmwareModel::foraging_for_work(n_tasks, &FfwConfig::default()).with_engine_kind(engine);
    let scans = 5_000;
    let batches = 5;
    let ns_per_scan = time_scans(&mut model, n_tasks, scans, batches);
    let instr_per_scan = model.instructions_retired() as f64 / (scans as f64 * batches as f64);
    (ns_per_scan, ns_per_scan / instr_per_scan)
}

/// The four mesh neighbours (N, E, S, W) of every node of `dims`.
fn neighbours(dims: GridDims) -> Vec<[Option<usize>; 4]> {
    (0..dims.len())
        .map(|i| {
            let (x, y) = dims.xy(i);
            let coord = Coord::new(x, y);
            let mut nb = [None; 4];
            for d in Direction::ALL {
                nb[d.index()] = coord.neighbour(d, dims).map(|c| c.node(dims).index());
            }
            nb
        })
        .collect()
}

/// µs per gossip round over `spec`'s grid with the heuristic mapping,
/// at the directories' fixpoint.
pub fn gossip_round_us(spec: &ScenarioSpec) -> f64 {
    let graph = spec.graph();
    let dims = spec.grid();
    let n_tasks = graph.len();
    let mapping = Mapping::heuristic(&graph, dims);
    let locals: Vec<_> = (0..dims.len()).map(|i| mapping.task_of(i)).collect();
    let nb = neighbours(dims);
    let dist_max = spec.platform.dir_dist_max;
    let mut prev = vec![Directory::new(n_tasks); dims.len()];
    let mut next = prev.clone();
    let round = |prev: &mut Vec<Directory>, next: &mut Vec<Directory>| {
        gossip_round_into(prev, &locals, &nb, n_tasks, dist_max, next);
        std::mem::swap(prev, next);
    };
    for _ in 0..dist_max {
        round(&mut prev, &mut next);
    }
    let rounds = 2_000;
    let mut per_round = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..rounds {
            round(&mut prev, &mut next);
        }
        per_round.push(start.elapsed().as_nanos() as f64 / 1e3 / rounds as f64);
    }
    crate::stats::quantile(&per_round, 0.5).expect("five batches")
}

/// A bare mesh on `spec`'s grid and router settings, fed uniformly
/// random unicasts of the workload's edge payloads at `rate` messages
/// per cycle. Returns (ns per flit-hop, ns per router-cycle).
pub fn mesh_costs(spec: &ScenarioSpec, rate: f64) -> (f64, f64) {
    let graph = spec.graph();
    let dims = spec.grid();
    let mut router = spec.platform.router.clone();
    router.n_tasks = graph.len();
    let mut mesh = Mesh::new(dims, router);
    let edges: Vec<_> = graph
        .edges()
        .iter()
        .map(|e| (e.to, e.payload_flits))
        .collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let n = dims.len() as u32;
    // Keep the backlog bounded so every batch sees the same regime.
    let max_in_flight = 4 * u64::from(n);
    let mut due = 0.0;
    let mut sent = 0usize;
    let cycles = 20_000u64;
    let mut hop_ns = Vec::new();
    let mut cycle_ns = Vec::new();
    for _ in 0..5 {
        let hops_before = mesh.stats().flit_hops;
        let start = Instant::now();
        for _ in 0..cycles {
            due += rate;
            while due >= 1.0 {
                due -= 1.0;
                if mesh.stats().in_flight() < max_in_flight {
                    let (task, payload) = edges[sent % edges.len()];
                    sent += 1;
                    let src = NodeId::new(rng.range_u32(0..n) as u16);
                    let dst = NodeId::new(rng.range_u32(0..n) as u16);
                    mesh.inject(src, dst, task, PacketKind::Data, payload);
                }
            }
            mesh.step();
            for k in 0..mesh.fresh_delivered().len() {
                let node = NodeId::new(mesh.fresh_delivered()[k]);
                while mesh.pop_delivered(node).is_some() {}
            }
        }
        let ns = start.elapsed().as_nanos() as f64;
        let hops = (mesh.stats().flit_hops - hops_before).max(1);
        hop_ns.push(ns / hops as f64);
        cycle_ns.push(ns / (cycles as f64 * f64::from(n)));
    }
    (
        crate::stats::quantile(&hop_ns, 0.5).expect("five batches"),
        crate::stats::quantile(&cycle_ns, 0.5).expect("five batches"),
    )
}
