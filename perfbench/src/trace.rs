//! The traced run: per-layer metrics taken from outside the program.
//!
//! The run replays a fixed, seeded sample of the workload's train
//! operations one at a time. Each operation gets a root span `op`; under
//! it, spans time
//!
//! - `serve.client` — the request over the wire (submit + join),
//! - `ml4all.submit_join` — the same request submitted and joined on the
//!   in-process shadow engine, whose state tracks the served engine's,
//! - re-executions of the request's parts through each crate's public
//!   functions: `core.speculate` (`estimate_iterations` for BGD, SGD and
//!   MGD), `core.price` (`choose_plan` at fixed iterations),
//!   `gd.execute` (`execute_plan` of the chosen plan), `dataflow.sample`
//!   (one batch of the chosen sampler), `serve.codec` (encode and decode
//!   the request and reply frames), `dataflow.checkpoint_write` and
//!   `ml4all.persist_plancache` (the writes the durable path makes).
//!
//! Nothing inside the program is instrumented: a layer's time is the
//! duration of the benchmark's own call into it. Differences of the
//! same request's spans give the layers that have no function of their
//! own: `serve.rtt_us` is `serve.client` minus `ml4all.submit_join`, and
//! `ml4all.overhead_ms` is `ml4all.submit_join` minus the speculation,
//! pricing and execution the request actually ran. The share of
//! `serve.client` that the directly timed layers on the request's path
//! do not cover is reported as `bench.unattributed_share`, not folded
//! into any layer.
//!
//! A layer that the request's path skips (speculation on a plan-cache
//! hit, say) is still timed on the first [`OFF_PATH_SAMPLES`] operations,
//! so every metric is reported on every workload; it is left out of the
//! attribution. Spans stay in memory and are written at the end as
//! Chrome trace-event JSON (`chrome://tracing`).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ml4all::TrainRequest;
use ml4all_calibrate::{profile_path, Calibrator, CalibratorConfig};
use ml4all_core::chooser::{backend_for, choose_plan, IterationsSource, OptimizerConfig};
use ml4all_core::estimator::{estimate_iterations, SpeculationConfig};
use ml4all_dataflow::{
    atomic_write, write_checkpoint, Checkpoint, ClusterSpec, CostBreakdown, ExecState,
    PartitionedDataset, Runtime, SamplerState, SamplingMethod, SimEnv, UsageMeter,
    RNG_STREAM_VERSION,
};
use ml4all_gd::{execute_plan, GdPlan, GdVariant, Gradient, GradientKind, TransformPolicy};
use ml4all_serve::protocol::{encode_frame, Decoded, FrameDecoder, Payload, Request, Response};
use ml4all_serve::{Client, WireTrain, WireTrained, DEFAULT_MAX_FRAME};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};

use crate::check;
use crate::metrics::{Clock, Report};
use crate::rig::{self, shadow_request, BenchResult, Rig};
use crate::stats::{self, mean, median, quantile};
use crate::workload::{self, Workload};
use crate::Args;

/// Operations on which layers off the request's path are still timed.
const OFF_PATH_SAMPLES: usize = 12;

/// Idle dispatch probes per run.
const DISPATCH_PROBES: usize = 200;

/// One timed interval.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// An in-memory span log.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed();
        (span.end - span.start).as_secs_f64()
    }

    /// Run `f` under a span; returns its result and duration in seconds.
    fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, op, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span.
    fn chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "ph": "X",
                    "ts": s.start.as_secs_f64() * 1e6,
                    "dur": (s.end - s.start).as_secs_f64() * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": json!({"op": s.op, "parent": s.parent}),
                })
            })
            .collect();
        serde_json::to_string(&json!({"traceEvents": events})).expect("trace serializes")
    }
}

/// What one traced train operation measured. Times are in seconds;
/// `None` means the layer was not timed on this operation.
#[derive(Default)]
struct OpTimes {
    client: f64,
    submit_join: f64,
    speculate: Option<f64>,
    speculation_iters: u64,
    price: Option<f64>,
    execute: f64,
    iterations: u64,
    sample: f64,
    codec: f64,
    checkpoint_write: f64,
    persist_plancache: Option<f64>,
    /// Whether speculation and pricing were on the request's path (the
    /// shadow's decision missed the plan cache), and the request
    /// speculates.
    cold_decision: bool,
    speculates: bool,
    /// Checkpoints the shadow wrote for this job.
    checkpoints: u64,
    /// `wchar` bytes written while the request was on the wire.
    write_bytes: u64,
    /// Dispatch delay of a closure spawned while the job ran.
    dispatch_loaded: f64,
    error: Option<String>,
}

/// Traced replay of `rig`'s workload.
pub fn run(rig: &mut Rig, args: &Args, out_dir: &Path) -> BenchResult<Report> {
    let ops = traced_ops(rig.workload, args.seconds);
    let mut tracer = Tracer::new();
    let before_stats = rig.clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    let before_server = rig.clients[0]
        .server_stats()
        .map_err(|e| format!("server stats: {e}"))?;

    // The open-loop reader runs beside the replay, as it runs beside
    // the writer in the untraced run.
    let mut times = Vec::new();
    let mut busy = 0u64;
    let predicts = {
        let Rig {
            workload,
            datasets,
            shadow,
            clients,
            predict_refs,
            scratch,
            ..
        } = &mut *rig;
        let view = RigView {
            workload: *workload,
            datasets,
            shadow,
            scratch,
        };
        let (writer, reader) = match clients.as_mut_slice() {
            [writer, reader, ..] => (writer, reader),
            _ => unreachable!("a rig has two connections"),
        };
        let refs = &*predict_refs;
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reads =
                scope.spawn(|| workload::predicts(reader, refs, &|_| done.load(Ordering::SeqCst)));
            let replayed = (0..ops).try_for_each(|i| {
                times.push(trace_op(
                    &view,
                    writer,
                    &mut tracer,
                    args.seed,
                    i,
                    &mut busy,
                )?);
                Ok::<(), String>(())
            });
            done.store(true, Ordering::SeqCst);
            let reads = reads.join().expect("reader thread");
            replayed.map(|()| reads)
        })?
    };
    let after_stats = rig.clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    let after_server = rig.clients[0]
        .server_stats()
        .map_err(|e| format!("server stats: {e}"))?;

    let probes = Probes::measure(rig, &mut tracer, ops)?;

    let mut report = Report::new(rig.workload);
    for why in &rig.setup_mismatches {
        report.count(Some(why));
    }
    for t in &times {
        report.count(t.error.as_ref());
    }
    for p in &predicts {
        report.count(p.error.as_ref());
    }

    let n = times.len() as f64;
    let per_op = |f: &dyn Fn(&OpTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let timed =
        |f: &dyn Fn(&OpTimes) -> Option<f64>| times.iter().filter_map(f).collect::<Vec<f64>>();
    let hits = after_stats.plan_cache_hits - before_stats.plan_cache_hits;
    let misses = after_stats.plan_cache_misses - before_stats.plan_cache_misses;
    let wakeups = after_server.wakeups - before_server.wakeups;
    let bytes = (after_server.bytes_in + after_server.bytes_out)
        - (before_server.bytes_in + before_server.bytes_out);
    let checkpoints = after_stats.checkpoints_written - before_stats.checkpoints_written;
    let late_ms: Vec<f64> = predicts.iter().map(|p| p.late_ms).collect();
    let plancache_bytes =
        std::fs::metadata(rig.scratch.join("served-state/plancache.json")).map_or(0, |m| m.len());
    let durable = rig.workload == Workload::DurableMixed;

    // Attribution: the directly timed layers on each request's path.
    let attributed = |t: &OpTimes| {
        let mut sum = t.codec + t.execute + probes.dispatch_idle;
        if t.cold_decision {
            sum += t.price.unwrap_or(0.0);
            if t.speculates {
                sum += t.speculate.unwrap_or(0.0);
            }
            if durable {
                sum += t.persist_plancache.unwrap_or(0.0);
            }
        }
        if durable {
            sum += t.checkpoints as f64 * t.checkpoint_write + probes.calibrate_save;
        }
        sum
    };
    let client_total: f64 = times.iter().map(|t| t.client).sum();
    let unattributed: f64 = times.iter().map(|t| t.client - attributed(t)).sum();
    let engine_on_path = |t: &OpTimes| {
        let mut sum = t.execute;
        if t.cold_decision {
            sum += t.price.unwrap_or(0.0);
            if t.speculates {
                sum += t.speculate.unwrap_or(0.0);
            }
        }
        sum
    };

    let us = 1e6;
    let ms = 1e3;
    report.push(
        "serve.rtt_us",
        median(&per_op(&|t| t.client - t.submit_join)) * us,
        "us",
        Clock::Wall,
    );
    report.push(
        "serve.codec_us",
        median(&per_op(&|t| t.codec)) * us,
        "us",
        Clock::Wall,
    );
    report.push(
        "serve.wakeups_per_op",
        wakeups as f64 / n,
        "count",
        Clock::None,
    );
    report.push("serve.bytes_per_op", bytes as f64 / n, "bytes", Clock::None);
    report.push(
        "serve.busy_ratio",
        busy as f64 / (n + busy as f64),
        "ratio",
        Clock::None,
    );
    report.push(
        "ml4all.submit_join_us",
        median(&per_op(&|t| t.submit_join)) * us,
        "us",
        Clock::Wall,
    );
    report.push(
        "ml4all.overhead_ms",
        median(&per_op(&|t| t.submit_join - engine_on_path(t))) * ms,
        "ms",
        Clock::Wall,
    );
    report.push(
        "ml4all.write_bytes_per_job",
        mean(&per_op(&|t| t.write_bytes as f64)),
        "bytes",
        Clock::None,
    );
    report.push(
        "ml4all.plancache_json_bytes",
        plancache_bytes as f64,
        "bytes",
        Clock::None,
    );
    report.push(
        "ml4all.persist_plancache_ms",
        median(&timed(&|t| t.persist_plancache)) * ms,
        "ms",
        Clock::Wall,
    );
    report.push(
        "core.speculate_ms",
        median(&timed(&|t| t.speculate)) * ms,
        "ms",
        Clock::Wall,
    );
    report.push(
        "core.speculation_iters",
        mean(&timed(&|t| t.speculate.map(|_| t.speculation_iters as f64))),
        "count",
        Clock::None,
    );
    report.push(
        "core.price_us",
        median(&timed(&|t| t.price)) * us,
        "us",
        Clock::Wall,
    );
    report.push(
        "core.plan_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        Clock::None,
    );
    report.push(
        "calibrate.save_ms",
        probes.calibrate_save * ms,
        "ms",
        Clock::Wall,
    );
    report.push(
        "gd.execute_ms",
        median(&per_op(&|t| t.execute)) * ms,
        "ms",
        Clock::Wall,
    );
    report.push(
        "gd.iterations_per_job",
        mean(&per_op(&|t| t.iterations as f64)),
        "count",
        Clock::None,
    );
    for (family, us_per_iter) in &probes.us_per_iter {
        report.push(
            format!("gd.us_per_iter.{family}"),
            *us_per_iter,
            "us",
            Clock::Wall,
        );
    }
    report.push(
        "linalg.ns_per_nnz.dense",
        probes.ns_per_nnz_dense,
        "ns",
        Clock::Wall,
    );
    report.push(
        "linalg.ns_per_nnz.sparse",
        probes.ns_per_nnz_sparse,
        "ns",
        Clock::Wall,
    );
    report.push(
        "dataflow.sample_us",
        median(&per_op(&|t| t.sample)) * us,
        "us",
        Clock::Wall,
    );
    report.push(
        "dataflow.checkpoint_write_ms",
        median(&per_op(&|t| t.checkpoint_write)) * ms,
        "ms",
        Clock::Wall,
    );
    report.push(
        "dataflow.checkpoints_per_job",
        checkpoints as f64 / n,
        "count",
        Clock::None,
    );
    report.push("datasets.build_ms", mean(&rig.build_ms), "ms", Clock::Wall);
    report.push(
        "runtime.dispatch_us",
        probes.dispatch_idle * us,
        "us",
        Clock::Wall,
    );
    report.push(
        "runtime.dispatch_loaded_us",
        median(&per_op(&|t| t.dispatch_loaded)) * us,
        "us",
        Clock::Wall,
    );
    report.push(
        "bench.generator_late_max_ms",
        quantile(&late_ms, 1.0),
        "ms",
        Clock::Wall,
    );
    report.push(
        "bench.generator_late_p99_ms",
        quantile(&late_ms, 0.99),
        "ms",
        Clock::Wall,
    );
    report.push(
        "bench.unattributed_share",
        unattributed / client_total,
        "ratio",
        Clock::Wall,
    );

    let trace_path = out_dir.join(format!(
        "{}-seed{}.trace.json",
        rig.workload.name(),
        args.seed
    ));
    std::fs::write(&trace_path, tracer.chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let predict_us: Vec<f64> = predicts.iter().map(|p| p.us).collect();
    let d = &mut report.detail;
    d.insert("traced_ops".into(), json!(ops));
    d.insert("trace_file".into(), json!(trace_path.display().to_string()));
    d.insert(
        "traced_train_p50_ms".into(),
        json!(median(&per_op(&|t| t.client)) * ms),
    );
    d.insert("traced_predict_p50_us".into(), json!(median(&predict_us)));
    d.insert("predict_samples".into(), json!(predict_us.len()));
    d.insert(
        "residual".into(),
        json!({
            "client_s": client_total,
            "unattributed_s": unattributed,
            "attributed_layers": "serve.codec + runtime.dispatch + gd.execute, plus core.price (and core.speculate when the request speculates) on a plan-cache miss; durable-mixed adds ml4all.persist_plancache on a miss, checkpoints x dataflow.checkpoint_write, and calibrate.save",
        }),
    );
    Ok(report)
}

/// Train operations the traced run replays: a fixed count per second
/// of `--seconds` (one epoch of `durable-mixed`), so counts repeat
/// exactly for a seed.
fn traced_ops(workload: Workload, seconds: u64) -> u64 {
    match workload {
        Workload::ColdTrain => 3 * seconds,
        Workload::CachedServe => 200 * seconds,
        Workload::DurableMixed => workload::DURABLE_EPOCH_JOBS,
    }
}

/// The parts of a rig a traced operation reads (the clients are
/// borrowed separately by the caller).
struct RigView<'a> {
    workload: Workload,
    datasets: &'a [crate::rig::Dataset],
    shadow: &'a ml4all::Engine,
    scratch: &'a Path,
}

/// The optimizer configuration the engine derives for `request`: its
/// default speculation settings when the request speculates, the shared
/// runtime, and the shadow's calibration snapshot.
fn engine_config(request: &TrainRequest, shadow: &ml4all::Engine) -> BenchResult<OptimizerConfig> {
    let mut config = request.config().map_err(|e| format!("config: {e}"))?;
    if matches!(config.iterations, IterationsSource::Speculate(_)) {
        config = config.with_speculation(SpeculationConfig::default());
    }
    config = config.with_runtime(Runtime::global());
    if let Some(snapshot) = shadow.calibration() {
        config = config.with_calibration(snapshot);
    }
    Ok(config)
}

/// Replay train operation `i` with its layer spans.
fn trace_op(
    rig: &RigView<'_>,
    client: &mut Client,
    tracer: &mut Tracer,
    seed: u64,
    i: u64,
    busy: &mut u64,
) -> BenchResult<OpTimes> {
    let cluster = ClusterSpec::paper_testbed();
    let wire = workload::train_job(rig.datasets, rig.workload, seed, i);
    let data = &workload::job_dataset(rig.datasets, rig.workload, i).data;
    let request = shadow_request(&wire)?;
    let mut t = OpTimes::default();
    let root = tracer.open("op", i, None);

    // The request over the wire; a closure spawned on the shared runtime
    // while the job is in flight measures dispatch under load.
    let written = stats::wchar();
    let (reply, client_s) = tracer.time("serve.client", i, root, || wire_op(client, &wire, busy));
    t.client = client_s;
    t.write_bytes = stats::wchar() - written;
    let (reply, loaded) = match reply {
        Ok(ok) => ok,
        Err(e) => {
            t.error = Some(e);
            tracer.close(root);
            return Ok(t);
        }
    };
    t.dispatch_loaded = loaded;

    // The same request in process on the shadow.
    let misses = rig.shadow.plan_cache().misses();
    let checkpoints = rig.shadow.checkpoints_written();
    let (trained, sj) = tracer.time("ml4all.submit_join", i, root, || {
        rig.shadow.submit(request.clone()).join()
    });
    t.submit_join = sj;
    let trained = trained.map_err(|e| format!("in-process job {i}: {e}"))?;
    t.cold_decision = rig.shadow.plan_cache().misses() > misses;
    t.checkpoints = rig.shadow.checkpoints_written() - checkpoints;
    t.iterations = trained.summary.iterations;
    if let Err(why) = check::same_training(&reply, &trained, rig.shadow) {
        t.error = Some(why);
    }

    let config = engine_config(&request, rig.shadow)?;
    t.speculates = matches!(config.iterations, IterationsSource::Speculate(_));
    let on_path = t.cold_decision;
    let sample_all = (i as usize) < OFF_PATH_SAMPLES;

    if (on_path && t.speculates) || sample_all {
        let spec_config = SpeculationConfig::default();
        let params = config.train_params();
        let variants = [
            GdVariant::Batch,
            GdVariant::Stochastic,
            GdVariant::MiniBatch {
                batch: config.batch_size,
            },
        ];
        let (estimates, s) = tracer.time("core.speculate", i, root, || {
            config.runtime.map_indexed(&variants, |_, v| {
                estimate_iterations(data, *v, &params, config.tolerance, &spec_config, &cluster)
            })
        });
        t.speculate = Some(s);
        for e in estimates {
            t.speculation_iters += e
                .map_err(|e| format!("speculation: {e}"))?
                .speculation_iterations;
        }
    }

    let fixed = config
        .clone()
        .with_fixed_iterations(trained.summary.iterations.max(1));
    let (priced, s) = tracer.time("core.price", i, root, || {
        choose_plan(data, &fixed, &cluster)
    });
    let priced = priced.map_err(|e| format!("price: {e}"))?;
    if on_path || sample_all {
        t.price = Some(s);
    }

    // Execute the plan the engine chose, on the backend its mapping
    // routes to, with the request's own parameters.
    let plan = trained.summary.plan;
    let mapping = priced
        .choices
        .iter()
        .find(|c| c.plan == plan)
        .map(|c| c.mapping.clone())
        .ok_or_else(|| format!("plan {plan} missing from the priced table"))?;
    let params = config.train_params();
    let mut env = SimEnv::with_runtime(cluster.clone(), Runtime::global())
        .with_backend(backend_for(&mapping, &cluster));
    let (executed, s) = tracer.time("gd.execute", i, root, || {
        execute_plan(&plan, data, &params, &mut env)
    });
    t.execute = s;
    let executed = executed.map_err(|e| format!("execute: {e}"))?;
    if executed.iterations != trained.summary.iterations && t.error.is_none() {
        t.error = Some(format!(
            "job {i}: re-executed {plan} ran {} iterations, the engine {}",
            executed.iterations, trained.summary.iterations
        ));
    }

    t.sample = sample_batch(tracer, i, root, data, &plan, config.batch_size, seed);
    t.codec = codec(tracer, i, root, &wire, &reply)?;

    let ckpt = Checkpoint {
        key_hash: i,
        plan: plan.to_string(),
        rng_stream_version: RNG_STREAM_VERSION,
        state: ExecState {
            iteration: executed.iterations,
            weights: executed.weights.as_slice().to_vec(),
            prev_weights: executed.weights.as_slice().to_vec(),
            final_delta: executed.final_delta,
            error_seq: Vec::new(),
            rng_state: [1, 2, 3, 4],
            sampler: None,
            cost: CostBreakdown::default(),
            usage: UsageMeter::default(),
        },
    };
    let ckpt_path = rig.scratch.join("probe.ckpt");
    let (written, s) = tracer.time("dataflow.checkpoint_write", i, root, || {
        write_checkpoint(&ckpt_path, &ckpt)
    });
    written.map_err(|e| format!("checkpoint write: {e}"))?;
    t.checkpoint_write = s;

    if (on_path && rig.workload == Workload::DurableMixed) || sample_all {
        let path = rig.scratch.join("probe-plancache.json");
        let (persisted, s) = tracer.time("ml4all.persist_plancache", i, root, || {
            let json = serde_json::to_string_pretty(&rig.shadow.plan_cache().export())
                .map_err(|e| e.to_string())?;
            atomic_write(&path, json.as_bytes()).map_err(|e| e.to_string())
        });
        persisted.map_err(|e| format!("persist plan cache: {e}"))?;
        t.persist_plancache = Some(s);
    }
    tracer.close(root);
    Ok(t)
}

/// Submit and join on the wire, spawning a dispatch probe on the shared
/// runtime while the job is in flight. Returns the reply and the probe's
/// dispatch delay in seconds.
fn wire_op(
    client: &mut Client,
    wire: &WireTrain,
    busy: &mut u64,
) -> Result<(WireTrained, f64), String> {
    let job = rig::submit(client, wire, busy).map_err(|e| e.to_string())?;
    let probe = dispatch_probe(&Runtime::global());
    let reply = rig::join_completed(client, job).map_err(|e| e.to_string())?;
    Ok((reply, probe()))
}

/// Spawn a closure on `runtime` that reports when it starts; the
/// returned function waits for it and gives the spawn→start delay in
/// seconds.
fn dispatch_probe(runtime: &Arc<Runtime>) -> impl FnOnce() -> f64 {
    let (tx, rx) = mpsc::channel();
    let spawned = Instant::now();
    runtime.spawn(move || {
        let _ = tx.send(Instant::now());
    });
    move || {
        rx.recv()
            .map_or(f64::NAN, |started| (started - spawned).as_secs_f64())
    }
}

/// Time the chosen plan's sampler drawing one batch (BGD, which does
/// not sample, times the MGD batch of random-partition sampling).
fn sample_batch(
    tracer: &mut Tracer,
    i: u64,
    root: usize,
    data: &PartitionedDataset,
    plan: &GdPlan,
    batch: usize,
    seed: u64,
) -> f64 {
    let method = plan.sampling.unwrap_or(SamplingMethod::RandomPartition);
    let m = match plan.variant {
        GdVariant::Batch => batch,
        variant => variant.sample_size(data.physical_n() as u64) as usize,
    };
    let mut sampler = SamplerState::new(method);
    let mut env = SimEnv::new(ClusterSpec::paper_testbed());
    let mut rng = StdRng::seed_from_u64(seed ^ i);
    let (drawn, s) = tracer.time("dataflow.sample", i, root, || {
        sampler.draw(data, m, &mut env, &mut rng)
    });
    std::hint::black_box(drawn.map(|d| d.len()).unwrap_or(0));
    s
}

/// Time encoding the request and reply frames and decoding them back
/// (frame split plus JSON parse), as the two ends of the wire do.
fn codec(
    tracer: &mut Tracer,
    i: u64,
    root: usize,
    wire: &WireTrain,
    reply: &WireTrained,
) -> BenchResult<f64> {
    let request = Request::Submit {
        train: wire.clone(),
    };
    let response = Response::Ok(Payload::Joined(reply.clone()));
    let (decoded, s) = tracer.time("serve.codec", i, root, || -> Result<(), String> {
        let request_frame = encode_frame(&request).map_err(|e| e.to_string())?;
        let response_frame = encode_frame(&response).map_err(|e| e.to_string())?;
        let payload = |frame: &[u8]| -> Result<Vec<u8>, String> {
            let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let mut rest = frame;
            loop {
                let (used, item) = decoder.advance(rest);
                rest = &rest[used..];
                match item {
                    Some(Decoded::Frame(payload)) => return Ok(payload),
                    Some(Decoded::Oversized { len }) => return Err(format!("oversized {len}")),
                    None if rest.is_empty() => return Err("truncated frame".into()),
                    None => {}
                }
            }
        };
        serde_json::from_slice::<Request>(&payload(&request_frame)?).map_err(|e| e.to_string())?;
        serde_json::from_slice::<Response>(&payload(&response_frame)?)
            .map_err(|e| e.to_string())?;
        Ok(())
    });
    decoded.map_err(|e| format!("codec: {e}"))?;
    Ok(s)
}

/// Once-per-run layer probes.
struct Probes {
    dispatch_idle: f64,
    calibrate_save: f64,
    us_per_iter: Vec<(&'static str, f64)>,
    ns_per_nnz_dense: f64,
    ns_per_nnz_sparse: f64,
}

impl Probes {
    fn measure(rig: &Rig, tracer: &mut Tracer, op: u64) -> BenchResult<Self> {
        let root = tracer.open("probes", op, None);
        let runtime = Runtime::global();
        let mut dispatch = Vec::new();
        for _ in 0..DISPATCH_PROBES {
            let probe = dispatch_probe(&runtime);
            dispatch.push(probe());
        }

        // The run's final calibration profile (a fresh one when the
        // workload runs without calibration), saved as the engine saves it.
        let config = CalibratorConfig::default();
        let calibrator = Calibrator::load(&profile_path(&rig.scratch.join("served-state")), config)
            .map_err(|e| format!("load calibration: {e}"))?
            .unwrap_or_else(|| Calibrator::new(config));
        let save_path = rig.scratch.join("probe-calibration.json");
        let mut saves = Vec::new();
        for _ in 0..5 {
            let (saved, s) =
                tracer.time("calibrate.save", op, root, || calibrator.save(&save_path));
            saved.map_err(|e| format!("calibration save: {e}"))?;
            saves.push(s);
        }

        let us_per_iter = gd_families(rig, tracer, op, root)?;
        let ns_dense = kernel_ns_per_nnz(tracer, op, root, "linalg.dense", &rig.datasets[2].data);
        let ns_sparse = kernel_ns_per_nnz(tracer, op, root, "linalg.sparse", &rig.datasets[0].data);
        tracer.close(root);
        Ok(Self {
            dispatch_idle: median(&dispatch),
            calibrate_save: median(&saves),
            us_per_iter,
            ns_per_nnz_dense: ns_dense,
            ns_per_nnz_sparse: ns_sparse,
        })
    }
}

/// Microseconds per iteration of each GD family's plan (eager
/// transformation, random-partition sampling) at a fixed iteration
/// count, averaged over the three datasets.
fn gd_families(
    rig: &Rig,
    tracer: &mut Tracer,
    op: u64,
    root: usize,
) -> BenchResult<Vec<(&'static str, f64)>> {
    let families = [
        ("bgd", GdPlan::bgd(), 20),
        (
            "sgd",
            GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::RandomPartition)
                .map_err(|e| e.to_string())?,
            2000,
        ),
        (
            "mgd",
            GdPlan::mgd(
                1000,
                TransformPolicy::Eager,
                SamplingMethod::RandomPartition,
            )
            .map_err(|e| e.to_string())?,
            100,
        ),
    ];
    let cluster = ClusterSpec::paper_testbed();
    let mut out = Vec::new();
    for (family, plan, iterations) in families {
        let mut per_iter = Vec::new();
        for ds in &rig.datasets {
            let mut params =
                ml4all_gd::TrainParams::paper_defaults(GradientKind::LogisticRegression);
            params.max_iter = iterations;
            params.tolerance = 0.0;
            params.record_error_seq = false;
            let mut env = SimEnv::with_runtime(cluster.clone(), Runtime::global());
            let (result, s) = tracer.time("gd.family", op, root, || {
                execute_plan(&plan, &ds.data, &params, &mut env)
            });
            let result = result.map_err(|e| format!("{family} on {}: {e}", ds.spec))?;
            per_iter.push(s / result.iterations.max(1) as f64 * 1e6);
        }
        out.push((family, mean(&per_iter)));
    }
    Ok(out)
}

/// Nanoseconds per stored feature value of the logistic gradient
/// kernel (four-row batched scoring plus the update) over every row of
/// `data`, repeated for at least 20 ms.
fn kernel_ns_per_nnz(
    tracer: &mut Tracer,
    op: u64,
    root: usize,
    name: &'static str,
    data: &PartitionedDataset,
) -> f64 {
    let views: Vec<_> = data.iter_views().collect();
    let nnz: usize = views.iter().map(|v| v.features.nnz()).sum();
    let dims = data.descriptor().dims;
    let w = vec![0.01; dims];
    let mut acc = vec![0.0; dims];
    let kernel = GradientKind::LogisticRegression;
    let mut passes = 0u64;
    let (_, s) = tracer.time(name, op, root, || {
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(20) {
            for chunk in views.chunks_exact(4) {
                kernel.accumulate_view4(&w, [chunk[0], chunk[1], chunk[2], chunk[3]], &mut acc);
            }
            passes += 1;
        }
    });
    std::hint::black_box(&acc);
    let counted = (views.len() / 4 * 4) as f64 / views.len().max(1) as f64;
    s / (passes as f64 * nnz as f64 * counted) * 1e9
}
