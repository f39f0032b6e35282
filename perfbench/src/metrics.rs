//! The untraced run's end-to-end metrics, and the report every run
//! prints and records.

use std::path::Path;

use serde_json::{json, Map, Value};

use crate::check;
use crate::rig::{BenchResult, Dataset, Rig};
use crate::stats::{self, median, quantile};
use crate::workload::{self, Measured, Workload, SIM_PREFIX};
use crate::Args;

/// Which clock a metric reads.
#[derive(Clone, Copy)]
pub enum Clock {
    /// Real elapsed time on this host.
    Wall,
    /// The paper's cost-model clock (`sim_time_s`); exact for a seed.
    Simulated,
    /// Not a time: a count, size, ratio or memory figure.
    None,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Self::Wall => "wall",
            Self::Simulated => "simulated",
            Self::None => "none",
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            clock,
        }
    }
}

/// What one run reports.
pub struct Report {
    pub workload: Workload,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Messages of the failed operations (the first few).
    pub failures: Vec<String>,
    /// Run-specific detail for the record (sample counts, residuals,
    /// trace file).
    pub detail: Map,
}

/// Failure messages kept in a record.
const FAILURES_KEPT: usize = 20;

impl Report {
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            detail: Map::new(),
        }
    }

    /// Count one operation, failed when `error` is set.
    pub fn count(&mut self, error: Option<&String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.failures.len() < FAILURES_KEPT {
                self.failures.push(e.clone());
            }
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) {
        self.metrics.push(Metric::new(name, value, unit, clock));
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            metrics.insert(m.name.clone(), json!({"value": m.value, "unit": m.unit}));
        }
        let line = json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("result serializes")
    }

    /// The full record: provenance, every metric with its clock, and
    /// the run's detail.
    pub fn record(&self, args: &Args, setup_s: &[f64]) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            metrics.insert(
                m.name.clone(),
                json!({"value": m.value, "unit": m.unit, "clock": m.clock.name()}),
            );
        }
        let record = json!({
            "workload": self.workload.name(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": stats::host_fingerprint(),
            "setup_runs_s": setup_s.to_vec(),
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
            "failures": self.failures.clone(),
            "metrics": Value::Object(metrics),
            "detail": Value::Object(self.detail.clone()),
        });
        serde_json::to_string_pretty(&record).expect("record serializes")
    }

    /// One human-readable line per metric, for the log.
    pub fn summary(&self, args: &Args, record: &Path) -> String {
        let mut out = format!(
            "perfbench {} seed {} ({}): {} attempted, {} failed; record {}",
            self.workload.name(),
            args.seed,
            if args.trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            record.display()
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "\n  {:<32} {:>14.4} {:<8} [{}]",
                m.name,
                m.value,
                m.unit,
                m.clock.name()
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("\n  FAILED: {f}"));
        }
        out
    }
}

/// Run the workload untraced and report its end-to-end metrics.
/// `durable-mixed` runs [`workload::DURABLE_EPOCHS_PER_SECOND`] epochs
/// per second of `--seconds`, each on a fresh rig from `fresh` over the
/// same datasets.
pub fn untraced(
    rig: &mut Rig,
    args: &Args,
    setup_s: &[f64],
    mut fresh: impl FnMut(u64, &[Dataset], &[f64]) -> BenchResult<Rig>,
) -> BenchResult<Report> {
    let mut report = Report::new(rig.workload);
    let epochs = match rig.workload {
        Workload::DurableMixed => workload::DURABLE_EPOCHS_PER_SECOND * args.seconds,
        Workload::ColdTrain | Workload::CachedServe => 1,
    };
    let mut measured_epochs = Vec::new();
    let mut speculation = Vec::new();
    for epoch in 0..epochs {
        if epoch > 0 {
            let next = fresh(epoch, &rig.datasets, &rig.build_ms)?;
            *rig = next;
        }
        let mut measured = workload::run(rig, args.seed, args.seconds, epoch);
        speculation.extend(check_outputs(rig, args.seed, &mut measured)?);
        for why in &rig.setup_mismatches {
            report.count(Some(why));
        }
        measured_epochs.push(measured);
    }
    let measured = Measured::pooled(measured_epochs);
    for op in measured.train.iter().chain(&measured.probe_train) {
        report.count(op.error.as_ref());
    }
    for op in &measured.predict {
        report.count(op.error.as_ref());
    }
    let train_ms: Vec<f64> = ok_values(measured.train.iter().map(|op| (op.ms, &op.error)));
    let predict_us: Vec<f64> = ok_values(measured.predict.iter().map(|op| (op.us, &op.error)));
    let late_ms: Vec<f64> = measured.predict.iter().map(|op| op.late_ms).collect();
    let sim: Vec<f64> = measured
        .train
        .iter()
        .filter(|op| op.index < SIM_PREFIX)
        .zip(&speculation)
        .map(|(op, spec)| op.sim_time_s + spec)
        .collect();

    // Host stalls come in bursts; medians over slices of the run keep a
    // burst that hits a few slices from moving the whole run's figure.
    // A `durable-mixed` epoch is one slice: its jobs grow slower along it.
    let slice_s = match rig.workload {
        Workload::CachedServe => Some(1.0),
        Workload::ColdTrain => Some(2.0),
        Workload::DurableMixed => None,
    };
    let train_slices = slice_s.map_or_else(Vec::new, |s| time_slices(&measured, s));
    let rates: Vec<f64> = match slice_s {
        Some(s) => train_slices.iter().map(|x| x.len() as f64 / s).collect(),
        None => measured.epoch_rates.clone(),
    };
    let train_tail = |q: f64| match rig.workload {
        // Thousands of jobs per slice: a tail per slice is well sampled.
        Workload::CachedServe => median(
            &train_slices
                .iter()
                .map(|s| quantile(s, q))
                .collect::<Vec<_>>(),
        ),
        // Tens of jobs per slice: take the tail over the whole run.
        Workload::ColdTrain | Workload::DurableMixed => quantile(&train_ms, q),
    };

    report.push("setup_s", median(setup_s), "s", Clock::Wall);
    report.push("peak_rss_mb", stats::peak_rss_mb(), "MiB", Clock::None);
    report.push("train_per_s", median(&rates), "jobs/s", Clock::Wall);
    report.push("train_p50_ms", median(&train_ms), "ms", Clock::Wall);
    report.push("train_p95_ms", train_tail(0.95), "ms", Clock::Wall);
    report.push("predict_p50_us", median(&predict_us), "us", Clock::Wall);
    report.push(
        "sim_s_per_job",
        stats::mean(&sim),
        "sim_s",
        Clock::Simulated,
    );

    // Recorded but not gated: on a 2-vCPU shared host these tails are
    // set by host scheduling and vary too much between runs to gate on.
    let d = &mut report.detail;
    d.insert("train_p99_ms".into(), json!(train_tail(0.99)));
    d.insert("predict_p95_us".into(), json!(quantile(&predict_us, 0.95)));
    d.insert("predict_p99_us".into(), json!(quantile(&predict_us, 0.99)));
    d.insert("train_samples".into(), json!(train_ms.len()));
    d.insert("train_window_s".into(), json!(measured.train_window_s));
    d.insert(
        "durable_epoch_jobs".into(),
        json!(workload::DURABLE_EPOCH_JOBS),
    );
    d.insert("train_slice_s".into(), json!(slice_s));
    d.insert("train_rate_slices".into(), json!(rates.len()));
    d.insert("predict_samples".into(), json!(predict_us.len()));
    d.insert("predict_rate_per_s".into(), json!(workload::PREDICT_RATE));
    d.insert(
        "generator_late_max_ms".into(),
        json!(quantile(&late_ms, 1.0)),
    );
    d.insert(
        "generator_late_p99_ms".into(),
        json!(quantile(&late_ms, 0.99)),
    );
    d.insert("busy_refusals".into(), json!(measured.busy));
    d.insert("sim_prefix_jobs".into(), json!(sim.len()));
    Ok(report)
}

/// Latencies of the successful train jobs, grouped by the whole
/// `slice_s` slice of the train phase they completed in (a partial last
/// slice is dropped, unless it is the only one).
fn time_slices(measured: &Measured, slice_s: f64) -> Vec<Vec<f64>> {
    let full = ((measured.train_window_s / slice_s).floor() as usize).max(1);
    let mut slices = vec![Vec::new(); full];
    for op in measured.train.iter().filter(|op| op.error.is_none()) {
        if let Some(slice) = slices.get_mut((op.done_s / slice_s) as usize) {
            slice.push(op.ms);
        }
    }
    slices
}

/// The values of the operations that did not fail.
fn ok_values<'a>(ops: impl Iterator<Item = (f64, &'a Option<String>)>) -> Vec<f64> {
    ops.filter(|(_, e)| e.is_none()).map(|(v, _)| v).collect()
}

/// Check the kept train replies against the shadow engine (a mismatch
/// fails that operation) and return the speculation overhead of the
/// jobs in the [`SIM_PREFIX`], in job order.
///
/// `durable-mixed` replays every writer job on the shadow in order, since
/// each job's calibration observation moves the next decision; the other
/// workloads train only the checked sample in process and read the
/// prefix's speculation overhead from the served engine's plan cache
/// through `explain`.
fn check_outputs(rig: &mut Rig, seed: u64, measured: &mut Measured) -> BenchResult<Vec<f64>> {
    let mut speculation = Vec::new();
    for op in measured
        .train
        .iter_mut()
        .chain(measured.probe_train.iter_mut())
    {
        let wire = workload::train_job(&rig.datasets, rig.workload, seed, op.index);
        let durable = rig.workload == Workload::DurableMixed;
        let trained = if durable || op.reply.is_some() {
            Some(rig.shadow_train(&wire)?)
        } else {
            None
        };
        if let (Some(reply), Some(trained), None) = (&op.reply, &trained, &op.error) {
            if let Err(why) = check::same_training(reply, trained, &rig.shadow) {
                op.error = Some(why);
            }
        }
        if op.index < SIM_PREFIX {
            speculation.push(match (&trained, durable) {
                (Some(trained), true) => trained.summary.speculation_s,
                _ => {
                    rig.clients[0]
                        .explain(&wire, false)
                        .map_err(|e| format!("explain: {e}"))?
                        .speculation_sim_s
                }
            });
        }
    }
    Ok(speculation)
}
