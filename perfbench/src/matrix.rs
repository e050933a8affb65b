//! `paper_matrix`: every dataset of `retcon-lab all` (12 datasets, 329
//! runs, 154 distinct simulations, seed 42) on one worker, each record
//! emitted as JSON and CSV exactly as `all` writes them.
//!
//! The matrix's seed is the lab's own (`retcon_lab::SEED`); `--seed`
//! does not change it, because the workload is what users run to
//! regenerate the paper.

use crate::layers::{
    key_machine, lab_layer, per_layer, print_layers, shard_layer, LabOutput, SimLayer,
};
use crate::stats::{median, peak_rss_mb, summarize};
use crate::{serve, Args, Outcome};
use retcon_lab::checks::{full_checks, run_checks};
use retcon_lab::{csv, Dataset, ExperimentRecord, ReportCache, RunKey};
use retcon_sim::SimReport;
use retcon_workloads::{System, Workload};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Untimed repetitions of the set-up measurement before the passes.
const SETUP_WARMUP: usize = 1;

/// The distinct simulations of the matrix, in first-use order.
fn distinct_keys() -> Vec<RunKey> {
    let mut seen = HashSet::new();
    Dataset::ALL
        .iter()
        .flat_map(|d| d.jobs())
        .map(|j| j.key())
        .filter(|k| seen.insert(k.clone()))
        .collect()
}

/// One dataset's record and its two emitted forms.
struct Emitted {
    record: ExperimentRecord,
    json: String,
    csv: String,
}

/// One pass over the matrix: fresh cache, every dataset collected and
/// emitted. Returns the emitted datasets and the pass's time, which
/// leaves out the calls of `between`, made after each dataset.
fn pass(
    out: &mut Outcome,
    job_counts: &[u64],
    mut between: impl FnMut(),
) -> (Vec<Emitted>, Duration) {
    let cache = ReportCache::new();
    let mut emitted = Vec::with_capacity(Dataset::ALL.len());
    let mut wall = Duration::ZERO;
    for (&dataset, &runs) in Dataset::ALL.iter().zip(job_counts) {
        let t = Instant::now();
        let record = out.ops(runs, dataset.collect_cached(1, &cache));
        let forms = record.map(|record| {
            let json = record.to_json_string();
            (csv::to_csv(&record), record, json)
        });
        wall += t.elapsed();
        match forms {
            Some((Ok(csv), record, json)) => emitted.push(Emitted { record, json, csv }),
            Some((Err(e), _, _)) => out.check(false, || {
                format!("{}: CSV emission failed: {e}", dataset.name())
            }),
            None => {}
        }
        between();
    }
    (emitted, wall)
}

/// Spec build plus machine construction for every distinct simulation of
/// the matrix: the share of the matrix that is not simulation.
fn setup(keys: &[RunKey]) -> f64 {
    let t = Instant::now();
    for key in keys {
        let spec = key.workload.build(key.cores, key.seed);
        black_box(key_machine(&spec, key));
    }
    t.elapsed().as_secs_f64()
}

/// Runs the end-to-end `paper_matrix` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let keys = distinct_keys();
    for _ in 0..SETUP_WARMUP {
        setup(&keys);
    }
    // One set-up after each dataset, so that the set-up samples spread
    // over the whole run and their median is not one moment's load on
    // the host.
    let mut setups = Vec::new();
    let job_counts: Vec<u64> = Dataset::ALL.iter().map(|d| d.jobs().len() as u64).collect();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Vec<Emitted>> = None;
    loop {
        let t = Instant::now();
        let (emitted, wall) = pass(&mut out, &job_counts, || setups.push(setup(&keys)));
        let elapsed = t.elapsed();
        walls.push(wall.as_secs_f64());
        match &first {
            None => first = Some(emitted),
            Some(first) => {
                let same = first.len() == emitted.len()
                    && first
                        .iter()
                        .zip(&emitted)
                        .all(|(a, b)| a.json == b.json && a.csv == b.csv);
                out.check(same, || "a later pass emitted different bytes".to_string());
            }
        }
        if start.elapsed() + elapsed > Duration::from_secs_f64(args.seconds) {
            break;
        }
    }
    let emitted = first.unwrap_or_default();
    check_matrix(&mut out, &emitted);
    let instructions: u64 = distinct_reports(&emitted)
        .values()
        .map(SimReport::total_instructions)
        .sum();
    let wall = summarize(&walls);
    eprintln!(
        "paper_matrix: {} passes, wall median {:.3}s",
        wall.n, wall.median
    );
    let passes_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.end_to_end(
        wall.median,
        instructions as f64 / wall.median / 1e6,
        &passes_ms,
        median(&setups),
        peak_rss_mb("self"),
    );
    out
}

/// Every distinct simulation's report, keyed by its run key.
fn distinct_reports(emitted: &[Emitted]) -> HashMap<RunKey, SimReport> {
    let mut reports = HashMap::new();
    for e in emitted {
        let Some(dataset) = Dataset::parse(&e.record.name) else {
            continue;
        };
        for (job, run) in dataset.jobs().iter().zip(&e.record.runs) {
            reports.insert(job.key(), run.report.clone());
        }
    }
    reports
}

/// The output checks of `paper_matrix`:
/// * every paper-shape claim of `checks::full_checks` holds;
/// * every run commits exactly as many transactions as the 1-core
///   sequential run of its workload and seed;
/// * the JSON re-reads to the same record and the CSV re-emits to the
///   same bytes.
fn check_matrix(out: &mut Outcome, emitted: &[Emitted]) {
    out.check(emitted.len() == Dataset::ALL.len(), || {
        format!(
            "{} of {} datasets emitted",
            emitted.len(),
            Dataset::ALL.len()
        )
    });
    let records: BTreeMap<String, ExperimentRecord> = emitted
        .iter()
        .map(|e| (e.record.name.clone(), e.record.clone()))
        .collect();
    let outcomes = run_checks(&full_checks(), &records);
    let passed = outcomes.iter().filter(|o| o.passed).count();
    eprintln!(
        "paper_matrix: {passed} of {} paper-shape claims hold",
        outcomes.len()
    );
    for o in outcomes.iter().filter(|o| !o.passed) {
        out.check(false, || {
            format!("claim `{}` [{}]: {}", o.name, o.dataset, o.detail)
        });
    }
    let mut sequential: HashMap<(String, u64), Option<u64>> = HashMap::new();
    for e in emitted {
        for run in &e.record.runs {
            let want = *sequential
                .entry((run.workload.clone(), run.seed))
                .or_insert_with(|| {
                    let w = Workload::parse(&run.workload)?;
                    retcon_workloads::run(w, System::Eager, 1, run.seed)
                        .ok()
                        .map(|r| r.protocol.commits)
                });
            out.check(want == Some(run.report.protocol.commits), || {
                format!(
                    "{} {}/{} at {} cores: {} commits, the 1-core run commits {want:?}",
                    e.record.name, run.workload, run.system, run.cores, run.report.protocol.commits
                )
            });
        }
        let reread = ExperimentRecord::from_json_str(&e.json);
        out.check(reread.as_ref() == Ok(&e.record), || {
            format!(
                "{}: the JSON does not re-read to the same record",
                e.record.name
            )
        });
        let reemitted = csv::from_csv(&e.csv).and_then(|r| csv::to_csv(&r));
        out.check(reemitted.as_deref() == Ok(e.csv.as_str()), || {
            format!(
                "{}: the CSV does not re-emit to the same bytes",
                e.record.name
            )
        });
    }
}

/// Runs the traced `paper_matrix` pass: the lab path with its spans, then
/// every distinct simulation default / traced / fast-forward off.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (lab, outputs) = lab_layer(&mut out, &Dataset::ALL);
    let mut lab_reports: HashMap<RunKey, SimReport> = HashMap::new();
    for LabOutput { dataset, record } in &outputs {
        for (job, run) in dataset.jobs().iter().zip(&record.runs) {
            lab_reports.insert(job.key(), run.report.clone());
        }
    }
    let mut sim = SimLayer::default();
    for key in distinct_keys() {
        let label = format!(
            "{}/{}@{}",
            key.workload.label(),
            key.system.label(),
            key.cores
        );
        let spec = sim.build(|| key.workload.build(key.cores, key.seed));
        let report = sim.serial(&mut out, &label, || key_machine(&spec, &key), 1);
        if let Some(report) = report {
            out.check(lab_reports.get(&key) == Some(&report), || {
                format!("{label}: the machine's report differs from the lab's")
            });
        }
    }
    let shard = shard_layer(&mut out);
    let serve = serve::probe(args, &mut out);
    out.metrics = per_layer(&sim, &shard, &lab, &serve);
    print_layers(&out.metrics);
    out
}
