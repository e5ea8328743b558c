//! End-to-end benchmark of the barrier-certificate pipeline.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload registry_cold|table1_wide|family_serve \
//!     --seed N --seconds S --trace 0|1 [--workload-seed N] [--quick]
//! ```
//!
//! Run from the repository root (it reads `SCENARIOS_expected.json` and
//! keeps scratch state under `.bench_work/`).  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  `README.md` beside this crate describes the
//! workloads, the metrics and what each layer metric should move.

mod cold;
mod reenact;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Tally, END_TO_END, PER_LAYER};

/// The seed `SCENARIOS_expected.json` was recorded at (the default
/// `VerificationConfig::seed`).
pub const PINNED_SEED: u64 = 2018;

const USAGE: &str = "usage: nncps_e2ebench --workload registry_cold|table1_wide|family_serve \
                     --seed N --seconds S --trace 0|1 [--workload-seed N] [--quick]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RegistryCold,
    Table1Wide,
    FamilyServe,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "registry_cold" => Some(Workload::RegistryCold),
            "table1_wide" => Some(Workload::Table1Wide),
            "family_serve" => Some(Workload::FamilyServe),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RegistryCold => "registry_cold",
            Workload::Table1Wide => "table1_wide",
            Workload::FamilyServe => "family_serve",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// The run seed.  Every workload is a pinned corpus, so it
    /// does not change the inputs (see `README.md`, "Seeds").
    pub seed: u64,
    /// Measured seconds per run (passes continue until this has elapsed).
    pub seconds: f64,
    pub trace: bool,
    /// `VerificationConfig::seed` of the cold workloads' members.
    pub workload_seed: u64,
    /// A tiny slice of each workload, for the benchmark's own tests.
    pub quick: bool,
    /// Scratch directory for disk stores and the span dump.
    pub work_dir: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workload_seed = PINNED_SEED;
    let mut quick = false;
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value `{value}`")),
                })
            }
            "--workload-seed" => workload_seed = number()?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workload_seed,
        quick,
        work_dir: PathBuf::from(".bench_work"),
    })
}

/// How many set-ups run after each pass; `setup_s` is the median of all.
pub fn setup_reps(args: &Args) -> usize {
    if args.quick {
        1
    } else {
        10
    }
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let (mut metrics, tracer) = match args.workload {
            Workload::FamilyServe => serve::run_traced(args, &mut tally)?,
            _ => cold::run_traced(args, &mut tally)?,
        };
        let dump = args
            .work_dir
            .join(format!("spans-{}.jsonl", args.workload.name()));
        std::fs::write(&dump, tracer.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            dump.display()
        );
        metrics.push("mem.peak_rss_mb", stats::peak_rss_mb()?, "MB");
        metrics.canonical(&PER_LAYER)
    } else {
        let metrics = match args.workload {
            Workload::FamilyServe => serve::run(args, &mut tally)?,
            _ => cold::run(args, &mut tally)?,
        };
        metrics.canonical(&END_TO_END)
    };
    for failure in &tally.failures {
        eprintln!("FAILED {failure}");
    }
    println!(
        "failed_frac = {} of {} attempted",
        tally.failures.len(),
        tally.attempted
    );
    Ok(tally.result_line(metrics))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
