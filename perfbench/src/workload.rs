//! The three workloads: their requests, and the untraced loops that
//! send them through `ml4all_serve::Client` and time what a client sees.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ml4all_dataflow::derive_seed;
use ml4all_serve::{Client, WireTrain, WireTrained};

use crate::check;
use crate::rig::{submit_join, Dataset, PredictRef, Rig};

/// The tenant every connection authenticates as.
pub const TENANT: &str = "bench";

/// Jobs at the front of each workload's sequence whose simulated cost
/// `sim_s_per_job` averages: a fixed prefix, so the figure is exact for
/// a seed however many jobs the run completes.
pub const SIM_PREFIX: u64 = 150;

/// Writer jobs in one `durable-mixed` epoch. Per-job cost grows with the
/// history in the state dir, so every epoch starts a fresh server over an
/// empty state dir and runs this fixed count of the job sequence. Small
/// epochs also keep the bytes a run writes per second (and so its
/// exposure to the host's disk) modest.
pub const DURABLE_EPOCH_JOBS: u64 = 50;

/// `durable-mixed` epochs per second of `--seconds`: a fixed count, so a
/// run's job sequence and retained memory do not depend on its speed.
pub const DURABLE_EPOCHS_PER_SECOND: u64 = 2;

/// Open-loop predict rate of the reader (requests per second).
pub const PREDICT_RATE: f64 = 200.0;

/// Predicts per second of `--seconds` in the read probe that follows
/// the closed loop of `cold-train` and `cached-serve` (at
/// [`PREDICT_RATE`], the probe lasts `--seconds`).
const PROBE_PREDICTS_PER_SECOND: u64 = 200;

/// One in this many train replies is checked against the shadow engine
/// (`cold-train`; `cached-serve` keeps fewer, `durable-mixed` all).
const COLD_CHECK_EVERY: u64 = 32;
const CACHED_CHECK_EVERY: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdTrain,
    CachedServe,
    DurableMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold-train" => Some(Self::ColdTrain),
            "cached-serve" => Some(Self::CachedServe),
            "durable-mixed" => Some(Self::DurableMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ColdTrain => "cold-train",
            Self::CachedServe => "cached-serve",
            Self::DurableMixed => "durable-mixed",
        }
    }
}

/// A 32-bit request seed, distinct per (stream, index).
fn request_seed(seed: u64, stream: u64, index: u64) -> u64 {
    derive_seed(derive_seed(seed, stream), index) & 0xffff_ffff
}

/// Set-up model `m{k}` on dataset `k`: the models predicts score with.
pub fn setup_model(datasets: &[Dataset], seed: u64, k: usize) -> WireTrain {
    let mut wire = WireTrain::new("logistic", datasets[k].source());
    wire.max_iter = Some(50);
    wire.seed = Some(request_seed(seed, 1, k as u64));
    wire.name = Some(format!("m{k}"));
    wire
}

/// The dataset train job `i` of `workload` reads: the sequence cycles
/// adult → covtype → svm1; `cached-serve` always reads adult.
pub fn job_dataset(datasets: &[Dataset], workload: Workload, i: u64) -> &Dataset {
    match workload {
        Workload::CachedServe => &datasets[0],
        _ => &datasets[(i % datasets.len() as u64) as usize],
    }
}

/// Train job `i` of `workload`'s sequence. Every `cached-serve` job is
/// the same small request (as in `loadgen`).
pub fn train_job(datasets: &[Dataset], workload: Workload, seed: u64, i: u64) -> WireTrain {
    let ds = job_dataset(datasets, workload, i);
    match workload {
        Workload::ColdTrain => {
            let mut wire = WireTrain::new("logistic", ds.source());
            wire.epsilon = Some(0.01);
            wire.seed = Some(request_seed(seed, 3, i));
            wire.name = Some(format!("j{i}"));
            wire
        }
        Workload::CachedServe => {
            let mut wire = WireTrain::new("logistic", ds.source());
            wire.max_iter = Some(5);
            wire.seed = Some(request_seed(seed, 2, 0));
            wire.name = Some("cached".into());
            wire
        }
        Workload::DurableMixed => {
            let mut wire = WireTrain::new("logistic", ds.source());
            wire.max_iter = Some(200);
            wire.checkpoint_every = Some(20);
            wire.seed = Some(request_seed(seed, 4, i));
            wire.name = Some(format!("w{i}"));
            wire
        }
    }
}

/// Whether train reply `i` is kept for the output check.
fn checked(workload: Workload, seed: u64, i: u64) -> bool {
    match workload {
        Workload::ColdTrain => derive_seed(seed ^ 0xc4ec, i).is_multiple_of(COLD_CHECK_EVERY),
        Workload::CachedServe => derive_seed(seed ^ 0xc4ec, i).is_multiple_of(CACHED_CHECK_EVERY),
        Workload::DurableMixed => true,
    }
}

/// One completed (or failed) train operation.
pub struct TrainOp {
    pub index: u64,
    /// Completion time, in seconds since the train phase started.
    pub done_s: f64,
    /// Client-observed submit→join latency.
    pub ms: f64,
    /// Simulated training seconds of the reply (0 on failure).
    pub sim_time_s: f64,
    /// The reply, kept when it is to be checked against the shadow.
    pub reply: Option<WireTrained>,
    pub error: Option<String>,
}

/// One predict operation of an open loop.
pub struct PredictOp {
    /// Latency from the request's due time to the reply.
    pub us: f64,
    /// How late the generator sent it relative to its schedule.
    pub late_ms: f64,
    pub error: Option<String>,
}

/// What an untraced run measured.
#[derive(Default)]
pub struct Measured {
    pub train: Vec<TrainOp>,
    /// Wall time of the train phase (first submit to last join).
    pub train_window_s: f64,
    pub predict: Vec<PredictOp>,
    /// Train jobs sent beside the read probe of `cold-train` and
    /// `cached-serve`: checked, but not in the train metrics.
    pub probe_train: Vec<TrainOp>,
    pub busy: u64,
    /// Successful jobs per second of each pooled epoch.
    pub epoch_rates: Vec<f64>,
}

impl Measured {
    /// Several epochs' operations as one run.
    pub fn pooled(epochs: Vec<Measured>) -> Self {
        let mut out = Measured::default();
        for epoch in epochs {
            let ok = epoch.train.iter().filter(|op| op.error.is_none()).count();
            out.epoch_rates.push(ok as f64 / epoch.train_window_s);
            out.train_window_s += epoch.train_window_s;
            out.busy += epoch.busy;
            out.predict.extend(epoch.predict);
            out.probe_train.extend(epoch.probe_train);
            out.train.extend(epoch.train);
        }
        out
    }
}

/// Run `workload`'s traffic: for about `seconds`, or for epoch `epoch`
/// of `durable-mixed`. The predicts are the same everywhere: an open-loop
/// reader beside one closed-loop writer. `durable-mixed` reads while its
/// writer runs the epoch; `cold-train` and `cached-serve` follow their
/// two-connection closed loop with a read probe, during which one
/// connection keeps sending the workload's train jobs (checked, but not
/// in the train metrics) and the other reads.
pub fn run(rig: &mut Rig, seed: u64, seconds: u64, epoch: u64) -> Measured {
    match rig.workload {
        Workload::ColdTrain | Workload::CachedServe => {
            let mut measured = closed_loop(rig, seed, Duration::from_secs(seconds));
            let first = measured.train.len() as u64;
            let probe = writer_with_reader(
                rig,
                seed,
                first,
                Stop::Reads(PROBE_PREDICTS_PER_SECOND * seconds),
            );
            measured.predict = probe.predict;
            measured.probe_train = probe.train;
            measured.busy += probe.busy;
            measured
        }
        Workload::DurableMixed => writer_with_reader(
            rig,
            seed,
            epoch * DURABLE_EPOCH_JOBS,
            Stop::Jobs(DURABLE_EPOCH_JOBS),
        ),
    }
}

/// One train operation with its timing; keeps the reply when `keep`.
fn train_op(
    client: &mut Client,
    wire: &WireTrain,
    index: u64,
    dims: usize,
    keep: bool,
    busy: &mut u64,
    phase: Instant,
) -> TrainOp {
    let started = Instant::now();
    let outcome = submit_join(client, wire, busy);
    let done = Instant::now();
    let ms = (done - started).as_secs_f64() * 1e3;
    let done_s = (done - phase).as_secs_f64();
    let outcome = outcome
        .map_err(|e| e.to_string())
        .and_then(|reply| check::well_formed(&reply, dims).map(|()| reply));
    match outcome {
        Ok(reply) => TrainOp {
            index,
            done_s,
            ms,
            sim_time_s: reply.sim_time_s.unwrap_or(0.0),
            reply: keep.then_some(reply),
            error: None,
        },
        Err(e) => TrainOp {
            index,
            done_s,
            ms,
            sim_time_s: 0.0,
            reply: None,
            error: Some(e),
        },
    }
}

/// `CONNECTIONS` closed-loop clients share one job sequence until the
/// window has passed and at least [`SIM_PREFIX`] jobs were taken. Every
/// job taken is finished, so jobs `0..n` all complete.
fn closed_loop(rig: &mut Rig, seed: u64, window: Duration) -> Measured {
    let next = AtomicU64::new(0);
    let ops = Mutex::new(Vec::new());
    let busy = AtomicU64::new(0);
    let workload = rig.workload;
    let datasets = &rig.datasets;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in rig.clients.iter_mut() {
            let (next, ops, busy) = (&next, &ops, &busy);
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut refused = 0;
                loop {
                    if started.elapsed() >= window && next.load(Ordering::SeqCst) >= SIM_PREFIX {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let wire = train_job(datasets, workload, seed, i);
                    let dims = job_dataset(datasets, workload, i).dims();
                    let keep = checked(workload, seed, i);
                    mine.push(train_op(
                        client,
                        &wire,
                        i,
                        dims,
                        keep,
                        &mut refused,
                        started,
                    ));
                }
                busy.fetch_add(refused, Ordering::Relaxed);
                ops.lock().expect("op log").append(&mut mine);
            });
        }
    });
    let train_window_s = started.elapsed().as_secs_f64();
    let mut train = ops.into_inner().expect("op log");
    train.sort_by_key(|op| op.index);
    Measured {
        train,
        train_window_s,
        busy: busy.into_inner(),
        ..Measured::default()
    }
}

/// When a writer-and-reader phase ends.
enum Stop {
    /// After the writer's jobs `first..first + n`; the reader reads until
    /// then.
    Jobs(u64),
    /// After the reader's `n` predicts; the writer finishes its job in
    /// flight.
    Reads(u64),
}

/// One closed-loop writer (connection 0, jobs `first..` of the sequence)
/// beside one open-loop reader (connection 1) at [`PREDICT_RATE`].
fn writer_with_reader(rig: &mut Rig, seed: u64, first: u64, stop: Stop) -> Measured {
    let done = AtomicBool::new(false);
    let (writer, reader) = match rig.clients.as_mut_slice() {
        [writer, reader, ..] => (writer, reader),
        _ => unreachable!("a rig has two connections"),
    };
    let workload = rig.workload;
    let datasets = &rig.datasets;
    let refs = &rig.predict_refs;
    let mut measured = Measured::default();
    std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            let ops = predicts(reader, refs, &|k| match stop {
                Stop::Jobs(_) => done.load(Ordering::SeqCst),
                Stop::Reads(n) => k >= n,
            });
            done.store(true, Ordering::SeqCst);
            ops
        });
        let started = Instant::now();
        let mut i = first;
        loop {
            let finished = match stop {
                Stop::Jobs(n) => i >= first + n,
                Stop::Reads(_) => done.load(Ordering::SeqCst),
            };
            if finished {
                break;
            }
            let wire = train_job(datasets, workload, seed, i);
            let dims = job_dataset(datasets, workload, i).dims();
            let keep = checked(workload, seed, i);
            measured.train.push(train_op(
                writer,
                &wire,
                i,
                dims,
                keep,
                &mut measured.busy,
                started,
            ));
            i += 1;
        }
        measured.train_window_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        measured.predict = reads.join().expect("reader thread");
    });
    measured
}

/// Send predicts at [`PREDICT_RATE`] on a fixed schedule until
/// `stop(k)` for the next request `k`, cycling through the set-up
/// models. Each latency is timed from the request's due time, so a
/// stall also charges the requests queued behind it.
pub fn predicts(
    client: &mut Client,
    refs: &[PredictRef],
    stop: &(dyn Fn(u64) -> bool + Sync),
) -> Vec<PredictOp> {
    let started = Instant::now();
    let mut ops = Vec::new();
    let mut k = 0u64;
    while !stop(k) {
        let due = started + Duration::from_secs_f64(k as f64 / PREDICT_RATE);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let target = &refs[(k % refs.len() as u64) as usize];
        let outcome = client.predict(&target.model, &target.source);
        let done = Instant::now();
        let error = match outcome {
            Err(e) => Some(e.to_string()),
            Ok(p) if p.n != target.n || p.mse.to_bits() != target.mse.to_bits() => Some(format!(
                "predict {} scored n={} mse={} (in process: n={} mse={})",
                target.model, p.n, p.mse, target.n, target.mse
            )),
            Ok(_) => None,
        };
        ops.push(PredictOp {
            us: done.saturating_duration_since(due).as_secs_f64() * 1e6,
            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            error,
        });
        k += 1;
    }
    ops
}
