//! `retcon-perfbench` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! retcon-perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//! ```
//!
//! Runs one workload (`paper_matrix`, `contended32`, `serve_sweeps`),
//! checks every output it produced, and prints one JSON
//! object as the last line of standard output: whether the checks held,
//! how many operations were attempted and failed, and the metrics. With
//! `--trace 0` those are the end-to-end metrics of an untraced run; with
//! `--trace 1` they are the per-layer metrics of a separate traced pass.
//! Human-readable summaries go to standard error.
//!
//! `retcon-perfbench daemon --spill DIR` is the `retcon-serve` daemon the
//! `serve_sweeps` workload starts as a child process.

mod layers;
mod matrix;
mod oracle;
mod serve;
mod sims;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its name, unit and value.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulations, lab runs or sweeps).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that did not hold; empty when every check held.
    pub problems: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a check: `what` describes the failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Counts one operation and its result; an error is a failed
    /// operation and its message goes to standard error.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: Result<T, E>) -> Option<T> {
        self.ops(1, result)
    }

    /// Counts `n` operations that succeed or fail together.
    pub fn ops<T, E: std::fmt::Display>(&mut self, n: u64, result: Result<T, E>) -> Option<T> {
        self.attempted += n;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += n;
                eprintln!("operation failed: {e}");
                None
            }
        }
    }

    /// Sets the end-to-end metrics, in `BENCHMARK.json` order. `sweeps_ms`
    /// are the round trips the sweep percentiles are taken over: the
    /// daemon's sweeps for `serve_sweeps`, and for the simulator
    /// workloads their rounds, each one sweep over the workload's
    /// simulations. `peak_rss_mb` is an error when it could not be read.
    pub fn end_to_end(
        &mut self,
        wall_s: f64,
        minstr_per_s: f64,
        sweeps_ms: &[f64],
        setup_s: f64,
        peak_rss_mb: Result<f64, String>,
    ) {
        let mut sorted = sweeps_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let summary = stats::summarize(&sorted);
        eprintln!(
            "{} sweeps: median {:.4} ms, tail by the reporting rule {:?}",
            summary.n, summary.median, summary.tail
        );
        let peak = match peak_rss_mb {
            Ok(mb) => mb,
            Err(e) => {
                self.check(false, || e);
                return;
            }
        };
        self.metrics = vec![
            Metric::new("wall_s", "s", wall_s),
            Metric::new("sim_minstr_per_s", "Minstr/s", minstr_per_s),
            Metric::new("sweep_p50_ms", "ms", summary.median),
            Metric::new("sweep_p90_ms", "ms", stats::percentile(&sorted, 90.0)),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MB", peak),
        ];
    }

    /// The result line.
    fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper_matrix", "contended32", "serve_sweeps"];

/// Parsed command-line arguments of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for the files a run writes (daemon spill directories).
    pub scratch: PathBuf,
}

const USAGE: &str = "usage: retcon-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --scratch DIR\n       retcon-perfbench daemon --spill DIR";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn run(args: &Args) -> Outcome {
    match (args.workload.as_str(), args.trace) {
        ("paper_matrix", false) => matrix::run(args),
        ("paper_matrix", true) => matrix::traced(args),
        ("contended32", false) => sims::contended32(args),
        ("contended32", true) => sims::contended32_traced(args),
        ("serve_sweeps", false) => serve::run(args),
        ("serve_sweeps", true) => serve::traced(args),
        (other, _) => unreachable!("workload `{other}` was validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return serve::daemon_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} (host threads available: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = run(&args);
    for p in outcome.problems.iter().take(20) {
        eprintln!("CHECK FAILED: {p}");
    }
    if outcome.problems.len() > 20 {
        eprintln!("... and {} more failed checks", outcome.problems.len() - 20);
    }
    match outcome.to_json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
