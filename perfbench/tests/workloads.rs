//! A tiny run (one round) of every workload in both modes: it must be
//! correct, fail nothing, and print exactly the metrics `BENCHMARK.json`
//! declares for its mode.

use hmm_telemetry::jsonin::{self, Json};
use perfbench::report::Host;
use perfbench::{run, Ctx};
use std::path::PathBuf;

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = jsonin::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn tiny(workload: &str, trace: bool) {
    let work =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{}", u8::from(trace)));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let ctx = Ctx { seed: 7, seconds: 0.0, trace, work: work.clone(), host: Host::probe() };
    let rep = run(workload, &ctx).unwrap();
    let _ = std::fs::remove_dir_all(&work);
    assert!(rep.correct(), "{workload}: {:?}", rep.errors);
    assert!(rep.attempted() > 0);
    assert_eq!(rep.failed(), 0, "{workload}: {:?}", rep.kinds);
    let mut names: Vec<&str> = rep.metrics.iter().map(|m| m.0.as_str()).collect();
    names.sort_unstable();
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    want.sort_unstable();
    assert_eq!(names, want, "{workload}: printed metrics differ from the declared ones");
    for (name, value, _) in &rep.metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    if !trace {
        for (name, value, _) in &rep.metrics {
            assert!(*value > 0.0, "{workload}: end-to-end {name} = {value}");
        }
    }
    // The result line is JSON with exactly the four keys.
    let line = jsonin::parse(&rep.result_line()).unwrap();
    let Json::Obj(fields) = line else { panic!("result is not an object") };
    let keys: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn sim_paper() {
    tiny("sim-paper", false);
}

#[test]
fn sim_paper_traced() {
    tiny("sim-paper", true);
}

#[test]
fn sim_finepage() {
    tiny("sim-finepage", false);
}

#[test]
fn sim_finepage_traced() {
    tiny("sim-finepage", true);
}

#[test]
fn serve_mixed() {
    tiny("serve-mixed", false);
}

#[test]
fn serve_mixed_traced() {
    tiny("serve-mixed", true);
}

#[test]
fn grid_sweep() {
    tiny("grid-sweep", false);
}

#[test]
fn grid_sweep_traced() {
    tiny("grid-sweep", true);
}

#[test]
fn unknown_workload_is_refused() {
    let ctx = Ctx {
        seed: 1,
        seconds: 0.0,
        trace: false,
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        host: Host::probe(),
    };
    assert!(run("no-such-workload", &ctx).is_err());
}
