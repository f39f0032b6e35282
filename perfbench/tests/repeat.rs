//! The counters the benchmark calls exact must repeat exactly: two runs
//! with the same seed give identical values. They are counts and the
//! simulated clock, not speed-ups, so any difference is a bug in the
//! benchmark or a nondeterminism in the program.

use std::process::Command;

use serde_json::Value;

/// Run the benchmark once and return its result line's metrics.
fn metrics(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "perfbench {workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(line).expect("result line is JSON");
    assert_eq!(result["correct"], Value::Bool(true), "{workload}: {line}");
    result["metrics"].clone()
}

fn assert_repeats(workload: &str, trace: u8, names: &[&str]) {
    let (first, second) = (metrics(workload, trace), metrics(workload, trace));
    for name in names {
        let (a, b) = (&first[*name]["value"], &second[*name]["value"]);
        assert!(*a != Value::Null, "{workload}: no metric {name}");
        assert_eq!(
            a, b,
            "{workload}: {name} differs between runs with one seed"
        );
    }
}

const TRACED_COUNTERS: [&str; 5] = [
    "core.speculation_iters",
    "gd.iterations_per_job",
    "dataflow.checkpoints_per_job",
    "core.plan_cache_hit_ratio",
    "ml4all.plancache_json_bytes",
];

#[test]
fn exact_counters_repeat_for_a_seed() {
    for workload in ["cold-train", "cached-serve", "durable-mixed"] {
        assert_repeats(workload, 0, &["sim_s_per_job"]);
        assert_repeats(workload, 1, &TRACED_COUNTERS);
    }
}

#[test]
fn bad_arguments_exit_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on bad arguments");
}
