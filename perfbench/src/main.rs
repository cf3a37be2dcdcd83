//! `perfbench`: the ot-ged benchmark. See README.md for the workloads,
//! the metrics and how to run it; `run.sh` builds and starts it.
//!
//! ```text
//! perfbench --workload aids|linux --seed N
//!           --seconds S --trace 0|1 --served PATH --run-dir DIR
//! ```
//!
//! A workload is a dataset. Every run has two parts on that dataset's
//! graphs, each given half of `--seconds`: `serve_read` (`ged-served`
//! over its socket) and then `pair_batch` (the paper's pair solvers in
//! process), so every workload reports every metric.
//!
//! Prints the host fingerprint, one `name value unit` line per metric,
//! and as its last line the JSON result. Exits 1 when a correctness
//! check fails or the run cannot complete, 2 on bad arguments.

mod host;
mod pairs;
mod script;
mod serve;
mod stats;
mod wire;

use ged_graph::DatasetKind;
use std::path::PathBuf;
use std::process::ExitCode;

/// A workload: the dataset its graphs come from, and the nominal rates
/// that size each part's fixed work to its share of `--seconds` on a
/// 2-core host.
pub struct Workload {
    name: &'static str,
    kind: DatasetKind,
    /// `τ` of every `range_exact` request.
    tau: f64,
    /// `serve_read` requests per second of its closed loop.
    requests_per_second: usize,
    /// 2-thread pairs per second of GEDGW, GEDIOT and GEDHOT.
    pairs_per_second: [f64; 3],
}

/// The workloads: the paper's two datasets whose pairs exact A* labels.
/// LINUX graphs are unlabelled, so the label bound prunes nothing and a
/// range query verifies far more candidates: its `τ` is 2, not 3, which
/// keeps a `range_exact` request within about 20 ms.
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "aids",
        kind: DatasetKind::Aids,
        tau: 3.0,
        requests_per_second: 350,
        pairs_per_second: [40_000.0, 10_000.0, 8_000.0],
    },
    Workload {
        name: "linux",
        kind: DatasetKind::Linux,
        tau: 1.0,
        requests_per_second: 220,
        pairs_per_second: [36_000.0, 20_000.0, 12_500.0],
    },
];

/// The command line.
pub struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    served: PathBuf,
    run_dir: PathBuf,
}

impl Args {
    /// Seconds of work each of the two parts is sized for.
    fn part_seconds(&self) -> f64 {
        self.seconds as f64 / 2.0
    }
}

const USAGE: &str = "usage: perfbench --workload aids|linux \
--seed N --seconds S --trace 0|1 --served PATH --run-dir DIR";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut served, mut run_dir) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => trace = Some(number(&value)? != 0),
            "--served" => served = Some(PathBuf::from(value)),
            "--run-dir" => run_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    Ok(Args {
        workload: WORKLOADS
            .iter()
            .find(|w| w.name == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
        served: served.ok_or_else(|| missing("--served"))?,
        run_dir: run_dir.ok_or_else(|| missing("--run-dir"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host: {} workload={} seed={} seconds={} trace={}",
        host::fingerprint(),
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = stats::Report::new();
    let outcome = serve::run(&args, &mut report).and_then(|serve_setup_s| {
        let pairs_setup_s = pairs::run(&args, &mut report)?;
        if !args.trace {
            report.add("setup_s", serve_setup_s + pairs_setup_s, "s");
        }
        Ok(())
    });
    match outcome {
        Ok(()) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
