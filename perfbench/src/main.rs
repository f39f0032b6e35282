//! `perfbench`: the end-to-end and per-layer benchmark of the ml4all
//! serving stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-train --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The benchmark starts the real `Server` over an `Engine` in this
//! process, builds the `adult`, `covtype` and `svm1` datasets from their
//! registry specs with the workload seed, registers them, and sends the
//! workload's traffic through `ml4all_serve::Client` from two client
//! threads on two connections. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it replays a seeded sample of the workload's
//! operations, times the benchmark's own calls into each crate around
//! them, and prints the per-layer metrics (see `trace.rs`). Outputs are
//! checked against an in-process shadow engine either way.
//!
//! `BENCHMARK.json` gates `cold-train` and `cached-serve`. `durable-mixed`
//! runs the same way on demand; its fsync-bound figures drift with the
//! host's disk too much to gate on (see `rationale.json`).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A fuller record —
//! host fingerprint, seed, the clock behind each metric, per-workload
//! failure messages, and in traced runs the span file — goes to
//! `.perfbench/` under the working directory.

mod check;
mod metrics;
mod rig;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rig::{BenchResult, Rig};
use workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload cold-train|cached-serve|durable-mixed --seed N --seconds S --trace 0|1";

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Where records, traces and scratch state go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench";

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set up [`SETUP_REPEATS`] times (keeping the last rig), run the
/// workload, write the record, and return the result line.
fn run(args: &Args, process_start: Instant) -> BenchResult<String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let mut setup_s = Vec::new();
    let mut rig: Option<Rig> = None;
    for repeat in 0..SETUP_REPEATS {
        // The first set-up counts from process start.
        drop(rig.take());
        let started = if repeat == 0 {
            process_start
        } else {
            Instant::now()
        };
        let scratch = out_dir.join(format!("rig-{}-{repeat}", std::process::id()));
        rig = Some(Rig::new(args.workload, args.seed, scratch, args.trace)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");

    let report = if args.trace {
        trace::run(&mut rig, args, &out_dir)?
    } else {
        let fresh = |epoch: u64, datasets: &[rig::Dataset], build_ms: &[f64]| {
            let scratch = out_dir.join(format!("rig-{}-epoch{epoch}", std::process::id()));
            let (datasets, build_ms) = (datasets.to_vec(), build_ms.to_vec());
            Rig::with_datasets(args.workload, args.seed, scratch, false, datasets, build_ms)
        };
        metrics::untraced(&mut rig, args, &setup_s, fresh)?
    };
    let record_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let record = report.record(args, &setup_s);
    std::fs::write(&record_path, format!("{record}\n"))
        .map_err(|e| format!("write {}: {e}", record_path.display()))?;
    println!("{}", report.summary(args, &record_path));
    Ok(report.result_line())
}
