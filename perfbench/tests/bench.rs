//! The benchmark's own tests: its arithmetic, the traced recomposition,
//! the mock dispatch path and the stability of its digests.

use std::cell::RefCell;
use std::rc::Rc;

use sirtm_perfbench::layers::LAYER_METRICS;
use sirtm_perfbench::stats::{quantile, Quartiles};
use sirtm_perfbench::traced::{self, Timed, Tracer, TransportStats};
use sirtm_perfbench::workload::{self, hex, Input, Workload, DEFAULT_SEED};
use sirtm_scenario::json::{self, Json};
use sirtm_scenario::{run_spec, ShardTransport};

#[test]
fn quantiles_match_python_statistics_quantiles() {
    // Expected values from Python's `statistics.quantiles(data, n=4)`.
    let cases: [(&[f64], [f64; 3]); 5] = [
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
            [27.5, 55.0, 82.5],
        ),
        (&[1.5, 2.5, 2.5, 9.0, 0.5, 7.25, 3.0], [1.5, 2.5, 7.25]),
    ];
    for (data, [q1, q2, q3]) in cases {
        let q = Quartiles::of(data).expect("non-empty");
        assert_eq!((q.p25, q.p50, q.p75), (q1, q2, q3), "{data:?}");
    }
    assert_eq!(quantile(&[], 0.5), None);
    assert_eq!(quantile(&[4.0], 0.75), Some(4.0));
}

#[test]
fn relative_iqr_is_the_quartile_distance_over_the_median() {
    let q = Quartiles::of(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0])
        .expect("non-empty");
    assert_eq!(q.relative_iqr(), 55.0 / 55.0);
    let flat = Quartiles::of(&[0.0, 0.0, 0.0]).expect("non-empty");
    assert_eq!(flat.relative_iqr(), 0.0);
}

#[test]
fn traced_recomposition_equals_run_spec_on_each_preset_workload() {
    for w in [Workload::SteadyState, Workload::FaultStormFw] {
        let Input::Run { spec, seed } = &workload::inputs(w, DEFAULT_SEED)[0] else {
            panic!("{} inputs are runs", w.name());
        };
        let mut tracer = Tracer::new();
        tracer.next_op();
        let recomposed = traced::recomposed_run(&mut tracer, spec, *seed);
        let reference = run_spec(spec, *seed);
        assert_eq!(recomposed.trace, reference.trace, "{}", w.name());
        assert_eq!(recomposed.sim, reference.sim, "{}", w.name());
        assert_eq!(recomposed.fw_census, reference.fw_census, "{}", w.name());
        let polls = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "centurion.run_ms")
            .count();
        assert_eq!(polls, spec.total_windows(), "one run_ms span per window");
        assert!(tracer
            .spans()
            .iter()
            .all(|s| s.op == 1 && s.end_ns >= s.start_ns));
    }
}

#[test]
fn every_engine_recomposes_the_default_engine_run() {
    let Input::Run { spec, seed } = &workload::inputs(Workload::FaultStormFw, DEFAULT_SEED)[1]
    else {
        panic!("fault-storm-fw inputs are runs");
    };
    let reference = run_spec(spec, *seed);
    for engine in sirtm_core::EngineKind::ALL {
        let platform = traced::build_platform_on(spec, *seed, engine);
        let r = traced::drive(&mut Tracer::disabled(), spec, *seed, platform);
        assert_eq!(r.trace, reference.trace, "{engine:?}");
        assert_eq!(r.sim, reference.sim, "{engine:?}");
    }
}

#[test]
fn mock_dispatch_with_a_resumed_shard_is_byte_equal_to_run_sweep() {
    let Input::Dispatch(sweep) = &workload::inputs(Workload::Light4x4Dispatch, DEFAULT_SEED)[0]
    else {
        panic!("dispatch inputs are sweeps");
    };
    let dir = std::env::temp_dir().join(format!("perfbench-dispatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stats = Rc::new(RefCell::new(TransportStats::default()));
    let mut workers: Vec<Box<dyn ShardTransport>> = workload::mock_workers(&dir)
        .into_iter()
        .map(|m| Box::new(Timed::new(m, Rc::clone(&stats))) as Box<dyn ShardTransport>)
        .collect();
    let outcome = workload::run_dispatch(sweep, &mut workers).expect("dispatch completes");
    let journal = traced::journal_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let stats = stats.borrow();
    assert_eq!(
        outcome.result.to_json().render_pretty(),
        workload::sweep_reference(sweep).0,
        "the dispatched artefact must equal run_sweep's byte for byte"
    );
    assert_eq!(
        outcome.report.reassignments(),
        1,
        "the scripted crash is reassigned"
    );
    assert_eq!(
        stats.resumed,
        workload::DIE_AFTER,
        "the reassigned shard resumes the runs its journal holds"
    );
    assert_eq!(stats.executed, sweep.run_count(), "no run executes twice");
    assert!(journal > 0, "journals are on disk");
    assert!(stats.time > std::time::Duration::ZERO);
}

#[test]
fn pins_parse_for_every_workload() {
    for w in Workload::ALL {
        let pins = workload::pinned(w).expect("pins.json entry");
        assert_eq!(pins.inputs.len(), workload::inputs(w, DEFAULT_SEED).len());
        assert_eq!(pins.outputs_digest, workload::outputs_digest(&pins.inputs));
    }
}

#[test]
fn pinned_dispatch_digest_is_recomputed_exactly() {
    let dir = std::env::temp_dir().join(format!("perfbench-pins-{}", std::process::id()));
    let fresh = workload::compute_pins(Workload::Light4x4Dispatch, DEFAULT_SEED, &dir)
        .expect("pins compute");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        fresh,
        workload::pinned(Workload::Light4x4Dispatch).expect("pinned")
    );
}

/// Runs the benchmark binary once and returns its `outputs_digest`.
fn digest_of_one_invocation(cwd: &std::path::Path) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sirtm-perfbench"))
        .args(["--workload", "light-4x4-dispatch", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .current_dir(cwd)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("outputs_digest = "))
        .and_then(|l| l.split_whitespace().next())
        .expect("an outputs_digest line")
        .to_string()
}

#[test]
fn digest_is_identical_across_two_invocations() {
    let cwd = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("digest-cwd");
    std::fs::create_dir_all(&cwd).expect("cwd");
    let first = digest_of_one_invocation(&cwd);
    let second = digest_of_one_invocation(&cwd);
    assert_eq!(first, second);
    let pinned = workload::pinned(Workload::Light4x4Dispatch).expect("pinned");
    assert_eq!(first, hex(pinned.outputs_digest));
}

#[test]
fn result_line_carries_every_end_to_end_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("valid JSON");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    let listed: Vec<(String, String)> = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    let cwd = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2e-cwd");
    std::fs::create_dir_all(&cwd).expect("cwd");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sirtm-perfbench"))
        .args(["--workload", "steady-state", "--seed", "3"])
        .args(["--seconds", "1", "--trace", "0"])
        .current_dir(&cwd)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result:?}");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_num).expect("value");
            assert!(value > 0.0, "{name} = {value}");
            (name.clone(), field(m, "unit"))
        })
        .collect();
    assert_eq!(printed, listed);
}

#[test]
fn benchmark_json_lists_every_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("valid JSON");
    let listed: Vec<(String, String, String)> = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect();
    let expected: Vec<(String, String, String)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, higher)| {
            let better = if higher { "higher" } else { "lower" };
            (name.to_string(), unit.to_string(), better.to_string())
        })
        .collect();
    assert_eq!(listed, expected);
}
