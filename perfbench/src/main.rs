//! `perfbench`: the repository benchmark. It runs one named workload
//! against the shipped release binaries and prints its metrics, the last
//! line of standard output being one JSON object.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload journal --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` (the timed run) launches the workload's commands as child
//! processes and reports the end-to-end metrics; `--trace 1` (the traced
//! run) drives the same workloads through the library with a span around
//! every call into a layer, reports the per-layer metrics and writes one
//! Perfetto trace. See `perfbench/README.md`.

mod reference;
mod spans;
mod stats;
mod sys;
mod timed;
mod traced;
mod workload;

use chopin_harness::cli::Args;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use workload::{Order, Workload};

const USAGE: &str = "usage: perfbench --workload figures|journal|isolated|fleet \
                     [--seed N (default 0: suite order)] [--seconds S (default 20)] \
                     [--trace 0|1 (default 0)]";

/// A metric as printed: name, value, unit.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A named metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run reports.
pub struct Report {
    /// Whether every output matched and no process was left behind.
    pub correct: bool,
    /// Output units checked.
    pub attempted: u64,
    /// Output units that were missing or wrong.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Further figures for the printed table only.
    pub notes: Vec<Metric>,
}

impl Report {
    fn table(&self, workload: Workload) -> String {
        let mut out = format!("perfbench: workload {}\n", workload.name());
        for m in self.metrics.iter().chain(&self.notes) {
            let _ = writeln!(out, "  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = write!(
            out,
            "  correct {} ({} of {} output units failed)",
            self.correct, self.failed, self.attempted
        );
        out
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn options() -> Result<Options, String> {
    let args = Args::from_env();
    let workload = args.value("workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seconds: f64 = args.get_or("seconds", 20.0).map_err(|e| e.to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match args.value("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Options {
        workload,
        seed: args.get_or("seed", 0u64).map_err(|e| e.to_string())?,
        seconds,
        trace,
    })
}

/// Build the shipped binaries from the checkout's sources. Cargo's
/// progress goes to stderr so stdout stays the report.
fn build_binaries(root: &Path) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "chopin-harness",
            "--bins",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(std::io::stderr())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("building the harness binaries failed ({status})"))
    }
}

/// The checkout root: the working directory, which must hold the
/// repository's sources.
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if root.join("crates/harness/Cargo.toml").is_file() && root.join("Cargo.toml").is_file() {
        Ok(root)
    } else {
        Err(format!(
            "{} holds no chopin sources; run from the repository root",
            root.display()
        ))
    }
}

fn timed_report(opts: &Options, root: &Path, work: &Path) -> Result<Report, String> {
    build_binaries(root)?;
    let order = Order::from_seed(opts.seed);
    let reference = reference::Reference::build(opts.workload, &order)?;
    let paths = timed::Paths {
        bin_dir: timed::release_dir(root),
        work: work.to_path_buf(),
    };
    let run = timed::run(&paths, opts.workload, &order, &reference, opts.seconds)?;
    if let Some(detail) = &run.verdict.detail {
        eprintln!("perfbench: output check: {detail}");
    }
    if run.leftovers {
        eprintln!("perfbench: a process outlived its command and was killed");
    }
    let metrics = vec![
        Metric::new("wall_s", run.median(|r| r.wall_s), "s"),
        Metric::new("cpu_s", run.median(|r| r.cpu_s), "s"),
        Metric::new(
            "cells_per_s",
            run.median(|r| r.cells as f64 / r.wall_s),
            "1/s",
        ),
        Metric::new("setup_s", run.median(|r| r.setup_s), "s"),
        Metric::new("peak_rss_mb", run.median(|r| r.peak_rss_mb), "MB"),
        Metric::new("resume_s", run.resume_s(), "s"),
    ];
    let walls: Vec<String> = run
        .reps
        .iter()
        .map(|r| format!("{:.3}", r.wall_s))
        .collect();
    eprintln!("perfbench: wall_s per repetition: {}", walls.join(" "));
    let frac = run.verdict.failed as f64 / run.verdict.checked.max(1) as f64;
    Ok(Report {
        correct: run.verdict.failed == 0 && run.verdict.detail.is_none() && !run.leftovers,
        attempted: run.verdict.checked,
        failed: run.verdict.failed,
        metrics,
        notes: vec![
            Metric::new("cells_failed_frac", frac, "1"),
            Metric::new("timed_reps", run.reps.len() as f64, "count"),
        ],
    })
}

fn main() {
    // Must run first: the process and fleet paths of the traced run
    // re-exec this binary as a sandboxed cell worker or a fleet worker.
    chopin_harness::worker_entry();
    let argv: Vec<std::ffi::OsString> = std::env::args_os().skip(1).collect();
    if argv.first().is_some_and(|a| a == timed::SPAWN_FLAG) {
        std::process::exit(timed::launch(&argv[1..]));
    }
    let opts = match options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = checkout_root().and_then(|root| {
        sys::become_subreaper().map_err(|e| format!("becoming subreaper: {e}"))?;
        let work = root.join(".perfbench").join(format!(
            "{}-{}",
            opts.workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let report = if opts.trace {
            traced::report(
                opts.workload,
                opts.seed,
                opts.seconds,
                &root.join(".perfbench"),
                &work,
            )
        } else {
            timed_report(&opts, &root, &work)
        };
        let _ = std::fs::remove_dir_all(&work);
        report
    });
    match outcome {
        Ok(report) => {
            println!("{}", report.table(opts.workload));
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
