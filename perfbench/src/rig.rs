//! Set-up: generated datasets, the served engine, its in-process
//! shadow, the server and the client connections.
//!
//! Every workload runs against the real [`Server`] over an [`Engine`],
//! inside this process. A *shadow* engine with the same configuration
//! and the same datasets sits beside it; the benchmark replays requests
//! on it in process to check the served outputs and, in the traced run,
//! to split a request's time between the wire and the engine.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ml4all::{DataSource, Engine, ModelRef, PredictRequest, TrainRequest, Trained};
use ml4all_dataflow::{derive_seed, ClusterSpec, PartitionedDataset};
use ml4all_datasets::registry;
use ml4all_serve::{Client, ClientError, ServeConfig, Server, WireSource, WireTrain, WireTrained};

use crate::workload::{Workload, TENANT};

/// Physical rows per generated dataset: the engine's own cap for
/// registry analogs.
pub const ROWS: usize = 4000;

/// Client connections (and client threads) every workload uses.
pub const CONNECTIONS: usize = 2;

/// One dataset the benchmark generated and registered.
#[derive(Clone)]
pub struct Dataset {
    /// Registry spec it was generated from (`adult`, `covtype`, `svm1`).
    pub spec: &'static str,
    /// Name it is registered under on both engines.
    pub name: String,
    /// The generated data.
    pub data: PartitionedDataset,
}

impl Dataset {
    /// The wire source naming this dataset.
    pub fn source(&self) -> WireSource {
        WireSource::Named(self.name.clone())
    }

    /// Feature dimensions (the width of a model trained on it).
    pub fn dims(&self) -> usize {
        self.data.descriptor().dims
    }
}

/// What a predict reply must say for one (model, dataset) pair: the
/// in-process `Engine::predict` answer.
pub struct PredictRef {
    /// Tenant-visible model name.
    pub model: String,
    /// The dataset it scores.
    pub source: WireSource,
    /// Points scored.
    pub n: u64,
    /// Mean squared error, compared bit for bit.
    pub mse: f64,
}

/// Everything one run measures against.
pub struct Rig {
    pub workload: Workload,
    pub datasets: Vec<Dataset>,
    /// In-process reference engine with the same configuration.
    pub shadow: Engine,
    pub server: Server,
    pub clients: Vec<Client>,
    /// Models trained in set-up and the predict answers they must give.
    pub predict_refs: Vec<PredictRef>,
    /// `DatasetSpec::build` time per dataset, in ms.
    pub build_ms: Vec<f64>,
    /// Scratch directory of this rig (state dirs, probe files); removed
    /// on drop.
    pub scratch: PathBuf,
    /// Set-up failures of outputs checked during set-up.
    pub setup_mismatches: Vec<String>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// A typed set-up or run failure.
pub type BenchResult<T> = Result<T, String>;

/// The served engine's configuration for `workload`. `durable-mixed` is
/// the equivalent of `ml4all serve --state-dir D --calibrate`; the others
/// are the default `ml4all serve` configuration. Without a `state_dir`,
/// a `durable-mixed` engine keeps calibration but persists nothing.
fn configured_engine(workload: Workload, state_dir: Option<&Path>) -> Engine {
    let engine = Engine::new();
    match (workload, state_dir) {
        (Workload::DurableMixed, Some(dir)) => engine.with_calibration().with_state_dir(dir),
        (Workload::DurableMixed, None) => engine.with_calibration(),
        (Workload::ColdTrain | Workload::CachedServe, _) => engine,
    }
}

impl Rig {
    /// Build a rig: generate and register the datasets, start both
    /// engines and the server, connect the clients, and train the
    /// set-up models. `scratch` must not exist yet.
    ///
    /// The shadow persists to a state dir of its own only when `traced`:
    /// the traced run compares its timing with the served engine's, while
    /// the untraced run needs only its outputs, which persistence does
    /// not change.
    pub fn new(workload: Workload, seed: u64, scratch: PathBuf, traced: bool) -> BenchResult<Self> {
        let cluster = ClusterSpec::paper_testbed();
        let mut datasets = Vec::new();
        let mut build_ms = Vec::new();
        for (k, spec) in ["adult", "covtype", "svm1"].into_iter().enumerate() {
            let started = Instant::now();
            let data = registry::by_name(spec)
                .ok_or_else(|| format!("no registry spec `{spec}`"))?
                .build(ROWS, derive_seed(seed, k as u64), &cluster)
                .map_err(|e| format!("build {spec}: {e}"))?;
            build_ms.push(started.elapsed().as_secs_f64() * 1e3);
            datasets.push(Dataset {
                spec,
                name: format!("gen-{spec}"),
                data,
            });
        }
        Self::with_datasets(workload, seed, scratch, traced, datasets, build_ms)
    }

    /// A rig over already generated datasets (a later `durable-mixed`
    /// epoch reuses the first rig's).
    pub fn with_datasets(
        workload: Workload,
        seed: u64,
        scratch: PathBuf,
        traced: bool,
        datasets: Vec<Dataset>,
        build_ms: Vec<f64>,
    ) -> BenchResult<Self> {
        std::fs::create_dir_all(&scratch).map_err(|e| format!("create scratch dir: {e}"))?;
        let engine = configured_engine(workload, Some(&scratch.join("served-state")));
        let shadow_dir = scratch.join("shadow-state");
        let shadow = configured_engine(workload, traced.then_some(shadow_dir.as_path()));
        for ds in &datasets {
            engine.register_dataset(ds.name.clone(), ds.data.clone());
            shadow.register_dataset(ds.name.clone(), ds.data.clone());
        }
        let server = Server::start(engine, ServeConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        let mut clients = Vec::new();
        for _ in 0..CONNECTIONS {
            let mut client =
                Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            client.hello(TENANT).map_err(|e| format!("hello: {e}"))?;
            clients.push(client);
        }
        let mut rig = Rig {
            workload,
            datasets,
            shadow,
            server,
            clients,
            predict_refs: Vec::new(),
            build_ms,
            scratch,
            setup_mismatches: Vec::new(),
        };
        rig.train_setup_models(seed)?;
        Ok(rig)
    }

    /// Train one model per dataset for the predict traffic, on the
    /// server and on the shadow in the same order (calibration state must
    /// match), then record the in-process predict answers. `cached-serve`
    /// also makes its one cold decision here, so that every measured
    /// request is a plan-cache hit.
    fn train_setup_models(&mut self, seed: u64) -> BenchResult<()> {
        let mut requests: Vec<WireTrain> = (0..self.datasets.len())
            .map(|k| crate::workload::setup_model(&self.datasets, seed, k))
            .collect();
        if self.workload == Workload::CachedServe {
            requests.push(crate::workload::train_job(
                &self.datasets,
                Workload::CachedServe,
                seed,
                0,
            ));
        }
        for wire in &requests {
            let reply = submit_join(&mut self.clients[0], wire, &mut 0)
                .map_err(|e| format!("set-up job: {e}"))?;
            let trained = self.shadow_train(wire)?;
            if let Err(why) = crate::check::same_training(&reply, &trained, &self.shadow) {
                self.setup_mismatches.push(why);
            }
        }
        for k in 0..self.datasets.len() {
            let model = format!("m{k}");
            let predictions = self
                .shadow
                .predict(PredictRequest::new(
                    DataSource::Named {
                        name: self.datasets[k].name.clone(),
                        columns: None,
                    },
                    ModelRef::Named(format!("{TENANT}:{model}")),
                ))
                .map_err(|e| format!("in-process predict: {e}"))?;
            self.predict_refs.push(PredictRef {
                model,
                source: self.datasets[k].source(),
                n: predictions.predictions.len() as u64,
                mse: predictions.mse,
            });
        }
        Ok(())
    }

    /// Train `wire` synchronously on the shadow, bound under the name the
    /// server gives it.
    pub fn shadow_train(&self, wire: &WireTrain) -> BenchResult<Trained> {
        self.shadow
            .train(shadow_request(wire)?)
            .map_err(|e| format!("in-process train: {e}"))
    }
}

/// `wire` lowered exactly as the server lowers it, including the
/// tenant-prefixed result name.
pub fn shadow_request(wire: &WireTrain) -> BenchResult<TrainRequest> {
    let request = wire
        .to_request()
        .map_err(|e| format!("invalid request: {e}"))?;
    let visible = wire.name.clone().unwrap_or_default();
    Ok(request.named(format!("{TENANT}:{visible}")))
}

/// Submit and join one job (see [`submit`] and [`join_completed`]).
pub fn submit_join(
    client: &mut Client,
    wire: &WireTrain,
    busy: &mut u64,
) -> Result<WireTrained, ClientError> {
    let job = submit(client, wire, busy)?;
    join_completed(client, job)
}

/// Submit one job, retrying `busy` refusals after the server's hint;
/// `busy` counts the refusals.
pub fn submit(client: &mut Client, wire: &WireTrain, busy: &mut u64) -> Result<u64, ClientError> {
    loop {
        match client.submit(wire) {
            Ok(job) => return Ok(job),
            Err(ClientError::Server(e)) if e.code == ml4all_serve::code::BUSY => {
                *busy += 1;
                std::thread::sleep(Duration::from_millis(e.retry_after_ms.unwrap_or(25)));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Join a job; one that does not complete is an error.
pub fn join_completed(client: &mut Client, job: u64) -> Result<WireTrained, ClientError> {
    let outcome = client.join(job)?;
    if outcome.status != "completed" {
        return Err(ClientError::Protocol(format!(
            "job {job} ended {} ({})",
            outcome.status,
            outcome.error.as_deref().unwrap_or("no error text")
        )));
    }
    Ok(outcome)
}
