//! **Figure 1 (introduction)** — there is no all-times-winner GD
//! algorithm: training time of BGD vs SGD vs MGD on adult (ε = 0.01),
//! covtype (ε = 0.01), and rcv1 (ε = 1e-4).
//!
//! Substitution note (recorded in CHANGES.md; the rows in
//! `results/fig01.json` are for the substituted task): the paper runs SVM
//! on adult and covtype here; we run each dataset's Table 2 task (logistic
//! regression). On our synthetic analogs hinge-loss SGD stops at the first
//! out-of-margin sample (exactly the 4–8-iteration behaviour the paper's
//! own Table 4 shows on svm1–svm3), which collapses the comparison; the
//! smooth logistic gradient preserves the figure's actual point — that
//! the winning algorithm varies across datasets.

use ml4all_bench::harness::fmt_s;
use ml4all_bench::runs::{best_plan_for_variant, paper_variants};
use ml4all_bench::{build_dataset, print_table, BenchConfig, ExperimentRecord};
use ml4all_dataflow::ClusterSpec;
use ml4all_datasets::registry;
use ml4all_gd::{GradientKind, TrainParams};

fn main() {
    let cfg = BenchConfig::from_env();
    let cluster = ClusterSpec::paper_testbed();

    // (dataset, gradient, tolerance) — tolerances as in the figure.
    let cases = [
        (registry::adult(), GradientKind::LogisticRegression, 0.01),
        (registry::covtype(), GradientKind::LogisticRegression, 0.01),
        (registry::rcv1(), GradientKind::LogisticRegression, 1e-4),
    ];
    // Convergence here takes tens of thousands of iterations at the
    // tighter tolerances (the paper's Figure 6 shows up to ~126k); give
    // the runs headroom beyond the usual 1 000 cap.
    let iteration_headroom: u64 = if cfg.quick { 3_000 } else { 50_000 };

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (spec, gradient, tolerance) in cases {
        let data = build_dataset(&spec, &cfg, &cluster);
        let mut params = TrainParams::paper_defaults(gradient);
        params.tolerance = tolerance;
        params.max_iter = iteration_headroom;
        params.seed = cfg.seed;
        params.record_error_seq = false;

        let mut row = vec![spec.name.clone(), format!("{tolerance}")];
        let mut cells = serde_json::Map::new();
        cells.insert("dataset".into(), spec.name.clone().into());
        let mut best: Option<(&str, f64)> = None;
        for variant in paper_variants() {
            let label = variant.name();
            match best_plan_for_variant(variant, &data, &params, &cfg, &cluster) {
                Ok((plan, result)) => {
                    row.push(format!(
                        "{}{} ({}, {} it)",
                        fmt_s(result.sim_time_s),
                        if result.converged() { "" } else { "*" },
                        plan.name(),
                        result.iterations
                    ));
                    cells.insert(
                        label.to_lowercase(),
                        serde_json::json!({
                            "time_s": result.sim_time_s,
                            "iterations": result.iterations,
                            "plan": plan.name(),
                            "converged": result.converged(),
                        }),
                    );
                    // Only algorithms that actually reached the tolerance
                    // compete; a capped run did not solve the task
                    // (rows marked `*`).
                    if result.converged() && best.is_none_or(|(_, t)| result.sim_time_s < t) {
                        best = Some((label, result.sim_time_s));
                    }
                }
                Err(e) => {
                    row.push(format!("fail: {e}"));
                    cells.insert(
                        label.to_lowercase(),
                        serde_json::json!({"error": e.to_string()}),
                    );
                }
            }
        }
        row.push(best.map(|(l, _)| l.to_string()).unwrap_or_default());
        cells.insert(
            "winner".into(),
            best.map(|(l, _)| l).unwrap_or_default().into(),
        );
        rows.push(row);
        json.push(serde_json::Value::Object(cells));
    }

    print_table(
        "Figure 1: training time to convergence per GD algorithm (best plan per algorithm)",
        &["dataset", "eps", "BGD", "MGD(1k)", "SGD", "winner"],
        &rows,
    );
    let winners: std::collections::HashSet<&str> = json
        .iter()
        .filter_map(|v| v.get("winner").and_then(|w| w.as_str()))
        .collect();
    println!(
        "\ndistinct winners across datasets: {} — {}",
        winners.len(),
        if winners.len() > 1 {
            "no single GD algorithm wins everywhere (the paper's motivation)"
        } else {
            "NOTE: a single winner here; the paper saw several"
        }
    );

    ExperimentRecord::new(
        "fig01",
        "Figure 1: BGD vs SGD vs MGD, no all-times winner",
        serde_json::Value::Array(json),
    )
    .write();
}
