//! The benchmark command.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --check     # recompute the pinned digests and totals, no timing
//! perfbench --pin       # print freshly computed pins (the pins.json body)
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- ARGS`.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_perfbench::layers::traced_run;
use sirtm_perfbench::stats::{quantile, Quartiles};
use sirtm_perfbench::traced::Tracer;
use sirtm_perfbench::workload::{self, hex, Input, OpOutput, Workload, DEFAULT_SEED};
use sirtm_perfbench::{metrics_json, ms, peak_rss_mb, provenance, Metric, OUT_DIR};
use sirtm_scenario::json::Json;
use sirtm_scenario::run_spec;
use sirtm_scenario::telemetry::SimCounters;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        check: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value()?)?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|e| format!("bad --seed `{v}`: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            "--check" => args.check = true,
            "--pin" => args.pin = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_none() && !args.check && !args.pin {
        return Err("--workload is required (or --check / --pin)".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    let code = if args.check || args.pin {
        check(args.pin, &work_dir)
    } else {
        let workload = args.workload.expect("checked in parse_args");
        if args.trace {
            traced(workload, &args, &work_dir)
        } else {
            end_to_end(workload, &args, &work_dir, process_start)
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    code
}

/// `--check` / `--pin`: recompute every workload's pins at the default
/// seed with no timing.
fn check(print_pins: bool, work_dir: &Path) -> ExitCode {
    let mut drifted = Vec::new();
    let mut doc = Vec::new();
    for w in Workload::ALL {
        let fresh = match workload::compute_pins(w, DEFAULT_SEED, work_dir) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("FAIL {}: {e}", w.name());
                drifted.push(w.name());
                continue;
            }
        };
        if print_pins {
            doc.push((w.name().to_string(), fresh.to_json()));
            continue;
        }
        match workload::pinned(w) {
            Ok(pins) if pins == fresh => println!(
                "ok {}: outputs_digest {}",
                w.name(),
                hex(fresh.outputs_digest)
            ),
            Ok(pins) => {
                println!(
                    "DRIFT {}: outputs_digest {} (pinned {})",
                    w.name(),
                    hex(fresh.outputs_digest),
                    hex(pins.outputs_digest)
                );
                for ((name, now), (_, then)) in fresh
                    .sim_totals
                    .fields()
                    .iter()
                    .zip(pins.sim_totals.fields())
                {
                    if *now != then {
                        println!("  sim total {name}: {now} (pinned {then})");
                    }
                }
                drifted.push(w.name());
            }
            Err(e) => {
                println!("DRIFT {}: {e}", w.name());
                drifted.push(w.name());
            }
        }
    }
    if print_pins {
        let pins = Json::obj(vec![
            ("seed", Json::Num(DEFAULT_SEED as f64)),
            ("workloads", Json::Obj(doc)),
        ]);
        print!("{}", pins.render_pretty());
    }
    if drifted.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("drift in: {}", drifted.join(", "));
        ExitCode::FAILURE
    }
}

/// Runs one op with panics caught; `dir` is removed afterwards.
fn guarded_op(input: &Input, dir: &Path) -> Result<OpOutput, String> {
    let out = catch_unwind(AssertUnwindSafe(|| workload::run_op(input, dir)))
        .unwrap_or_else(|_| Err("op panicked".to_string()));
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Checks that hold for every preset run whatever its seed: the clock
/// covered the whole duration, and no message was delivered twice.
fn run_invariants(input: &Input, sim: &SimCounters) -> Result<(), String> {
    let Input::Run { spec, .. } = input else {
        return Ok(());
    };
    let cycles = spec.platform.ms_to_cycles(spec.duration_ms);
    if sim.cycles_stepped + sim.cycles_fast_forwarded != cycles {
        return Err(format!(
            "stepped {} + fast-forwarded {} != {cycles} cycles",
            sim.cycles_stepped, sim.cycles_fast_forwarded
        ));
    }
    if sim.messages_delivered > sim.messages_injected {
        return Err("more messages delivered than injected".to_string());
    }
    Ok(())
}

/// An independent reference digest for input `i` on any seed: every
/// dispatched artefact must equal `run_sweep`'s, and on input 0 firmware
/// FFW must decide exactly as the behavioural FFW model it mirrors.
fn reference_digest(workload: Workload, i: usize, input: &Input) -> Option<u64> {
    match (workload, input) {
        (_, Input::Dispatch(sweep)) => Some(workload::artefact_digest(
            &workload::sweep_reference(sweep).0,
        )),
        (Workload::FaultStormFw, Input::Run { spec, seed }) if i == 0 => {
            let mut behavioural = spec.clone();
            behavioural.model = ModelKind::ForagingForWork(FfwConfig::default());
            Some(workload::run_digest(&run_spec(&behavioural, *seed)))
        }
        _ => None,
    }
}

fn write_result(name: &str, doc: &Json) {
    let path = PathBuf::from(OUT_DIR).join("results").join(name);
    let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&path, doc.render_pretty()));
    match written {
        Ok(()) => println!("result file: {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// One set-up, timed from `start`: input generation, validation and one
/// warm-up op of input 0.
fn set_up(
    workload: Workload,
    seed: u64,
    start: Instant,
    dir: &Path,
) -> (Vec<Input>, f64, Result<OpOutput, String>) {
    let inputs = workload::inputs(workload, seed);
    let warm = guarded_op(&inputs[0], dir);
    (inputs, start.elapsed().as_secs_f64(), warm)
}

/// The end-to-end run: set-up, then closed-loop ops for `--seconds`
/// with the further set-ups spread across them, then the output check.
fn end_to_end(
    workload: Workload,
    args: &Args,
    work_dir: &Path,
    process_start: Instant,
) -> ExitCode {
    // The first set-up starts at process start.
    let (inputs, first_setup_s, warm) = set_up(
        workload,
        args.seed,
        process_start,
        &work_dir.join("setup-0"),
    );
    let mut setup_s = vec![first_setup_s];
    let mut warm_ups = vec![warm];
    let mut problems: Vec<String> = Vec::new();
    let pins = if args.seed == DEFAULT_SEED {
        match workload::pinned(workload) {
            Ok(p) => Some(p),
            Err(e) => {
                problems.push(e);
                None
            }
        }
    } else {
        None
    };

    // Timed phase: one client, next op when the previous one finishes.
    // Set-up `r` runs once `r / SETUP_REPS` of the phase has passed, so
    // the set-ups sample the host across the whole run; their time is
    // not op time.
    let mut first: BTreeMap<usize, OpOutput> = BTreeMap::new();
    let mut op_ms = Vec::new();
    let mut op_input = Vec::new();
    let mut op_ok = Vec::new();
    let mut setup_time = Duration::ZERO;
    let phase = Duration::from_secs_f64(args.seconds);
    let phase_start = Instant::now();
    let deadline = phase_start + phase;
    loop {
        let r = setup_s.len();
        let now = Instant::now();
        let setup_due =
            now >= deadline || now - phase_start >= phase * r as u32 / SETUP_REPS as u32;
        if r < SETUP_REPS && setup_due {
            let dir = work_dir.join(format!("setup-{r}"));
            let (_, secs, warm) = set_up(workload, args.seed, now, &dir);
            setup_s.push(secs);
            warm_ups.push(warm);
            setup_time += now.elapsed();
            continue;
        }
        if now >= deadline {
            break;
        }
        let k = op_ms.len();
        let i = k % inputs.len();
        let dir = work_dir.join(format!("op-{k}"));
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| workload::run_op(&inputs[i], &dir)))
            .unwrap_or_else(|_| Err("op panicked".to_string()));
        op_ms.push(ms(start.elapsed()));
        let _ = std::fs::remove_dir_all(&dir);
        let ok = match out {
            Ok(out) => {
                let agrees = first.entry(i).or_insert_with(|| out.clone()) == &out;
                let pinned = pins
                    .as_ref()
                    .is_none_or(|p| p.inputs.get(i) == Some(&out.digest));
                let sane = out
                    .sim
                    .as_ref()
                    .is_none_or(|sim| run_invariants(&inputs[i], sim).is_ok());
                agrees && pinned && sane
            }
            Err(e) => {
                eprintln!("perfbench: op {k} (input {i}) failed: {e}");
                false
            }
        };
        op_input.push(i);
        op_ok.push(ok);
    }
    let timed_s = (phase_start.elapsed() - setup_time).as_secs_f64();

    // Every warm-up op must agree with the timed ops of input 0.
    for warm in warm_ups {
        match warm {
            Ok(out) => {
                if first.entry(0).or_insert_with(|| out.clone()) != &out {
                    problems.push("a warm-up op of input 0 disagrees".to_string());
                }
            }
            Err(e) => problems.push(format!("warm-up op failed: {e}")),
        }
    }

    // Output check, untimed: inputs the timed phase never reached still
    // enter the digest, and every input meets its independent reference.
    let mut digests = Vec::new();
    let mut throughputs = Vec::new();
    let mut sim_total = SimCounters::default();
    for (i, input) in inputs.iter().enumerate() {
        let out = match first.get(&i) {
            Some(out) => Ok(out.clone()),
            None => guarded_op(input, &work_dir.join(format!("late-{i}"))),
        };
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                problems.push(format!("input {i}: {e}"));
                continue;
            }
        };
        if let Some(sim) = &out.sim {
            sim_total.absorb(sim);
            if let Err(e) = run_invariants(input, sim) {
                problems.push(format!("input {i}: {e}"));
            }
        }
        if let Some(reference) = reference_digest(workload, i, input) {
            if reference != out.digest {
                problems.push(format!("input {i}: output differs from its reference"));
                for (ok, _) in op_ok.iter_mut().zip(&op_input).filter(|(_, &j)| j == i) {
                    *ok = false;
                }
            }
        }
        digests.push(out.digest);
        throughputs.push(out.throughput);
    }
    let digest = workload::outputs_digest(&digests);
    let runs: usize = op_input
        .iter()
        .zip(&op_ok)
        .filter(|(_, &ok)| ok)
        .map(|(&i, _)| inputs[i].runs())
        .sum();
    let mut pin_note = "not pinned at this seed".to_string();
    if let Some(p) = &pins {
        let sim_ok = workload.preset_spec().is_none() || p.sim_totals == sim_total;
        if p.outputs_digest == digest && sim_ok {
            pin_note = "matches the pin".to_string();
        } else {
            pin_note = format!("DIFFERS from the pin {}", hex(p.outputs_digest));
            problems.push(format!(
                "outputs_digest differs from the pin {}",
                hex(p.outputs_digest)
            ));
        }
    }

    let attempted = op_ms.len();
    let failed = op_ok.iter().filter(|ok| !**ok).count();
    let q = Quartiles::of(&op_ms).unwrap_or(Quartiles {
        p25: 0.0,
        p50: 0.0,
        p75: 0.0,
    });
    let failed_frac = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    // The gated metrics (BENCHMARK.json's `end_to_end`) first, then the
    // host timings, which this host's noise keeps from being gated (see
    // README.md).
    let throughput = throughputs.iter().sum::<f64>() / throughputs.len().max(1) as f64;
    let metrics = vec![
        Metric::new("setup_s", "s", quantile(&setup_s, 0.5).expect("set-up ran")),
        Metric::new("sim_throughput", "sinks/ms", throughput),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    let p10 = quantile(&op_ms, 0.1).unwrap_or(0.0);
    let reported = vec![
        Metric::new("runs_per_s", "1/s", runs as f64 / timed_s),
        Metric::new("op_ms_p10", "ms", p10),
        Metric::new("op_ms_p50", "ms", q.p50),
        Metric::new("op_ms_p75", "ms", q.p75),
        Metric::new("failed_ops_frac", "ratio", failed_frac),
    ];
    let correct = failed == 0 && problems.is_empty() && attempted > 0;

    println!(
        "workload {} seed {} ops {attempted} runs {runs} timed {timed_s:.3} s",
        workload.name(),
        args.seed
    );
    for m in metrics.iter().chain(&reported) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let beyond = op_ms.iter().filter(|&&t| t > q.p75).count();
    let below = op_ms.iter().filter(|&&t| t < p10).count();
    println!(
        "  ({attempted} ops: {below} below op_ms_p10, {beyond} beyond op_ms_p75; {failed} failed; \
         op time quartile spread {:.3} of the median)",
        q.relative_iqr()
    );
    println!("outputs_digest = {} ({pin_note})", hex(digest));
    for p in &problems {
        println!("problem: {p}");
    }

    let prov = provenance(args.seed, workload.name(), attempted);
    write_result(
        &format!("{}-seed{}-e2e.json", workload.name(), args.seed),
        &Json::obj(vec![
            ("provenance", prov),
            ("outputs_digest", Json::Str(hex(digest))),
            ("sim_totals", workload::sim_json(&sim_total)),
            (
                "op_ms",
                Json::Arr(op_ms.iter().map(|&t| Json::Num(t)).collect()),
            ),
            (
                "setup_s",
                Json::Arr(setup_s.iter().map(|&t| Json::Num(t)).collect()),
            ),
            ("metrics", metrics_json(&metrics)),
            ("reported", metrics_json(&reported)),
        ]),
    );
    println!(
        "{}",
        result_line(correct, attempted, failed, &metrics).render()
    );
    ExitCode::SUCCESS
}

/// The traced run: per-layer metrics for one workload.
fn traced(workload: Workload, args: &Args, work_dir: &Path) -> ExitCode {
    let mut tracer = Tracer::new();
    let report = traced_run(workload, args.seed, args.seconds, work_dir, &mut tracer);
    println!(
        "workload {} seed {} traced ops {}",
        workload.name(),
        args.seed,
        report.attempted
    );
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("problem: {f}");
    }
    let prov = provenance(args.seed, workload.name(), report.attempted);
    let trace_path = PathBuf::from(OUT_DIR).join("traces").join(format!(
        "{}-seed{}.jsonl",
        workload.name(),
        args.seed
    ));
    match tracer.write_jsonl(&trace_path, &prov) {
        Ok(()) => println!(
            "trace file: {} ({} spans)",
            trace_path.display(),
            tracer.spans().len()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", trace_path.display()),
    }
    write_result(
        &format!("{}-seed{}-traced.json", workload.name(), args.seed),
        &Json::obj(vec![
            ("provenance", prov),
            ("metrics", metrics_json(&report.metrics)),
        ]),
    );
    let line = result_line(
        report.failed == 0,
        report.attempted,
        report.failed,
        &report.metrics,
    );
    println!("{}", line.render());
    ExitCode::SUCCESS
}
