//! `contended32`, driven straight through `retcon-workloads` and
//! `retcon-sim`: unoptimized `python` at 32 cores under RetCon,
//! RetCon-ideal and eager, built with the lab's seed. Stall-retry storms
//! dominate, so fast-forward and the stall path do the work. `--seed`
//! does not change the inputs: host time varies with the refcount tapes,
//! and that variance would hide the code's own.
//!
//! Each round builds the spec and machines (set-up), then times the runs
//! on fresh machines; the last round ends once `--seconds` has passed.

use crate::layers::{lab_layer, per_layer, print_layers, shard_layer, SimLayer};
use crate::oracle::check_python;
use crate::stats::{median, peak_rss_mb, summarize};
use crate::{serve, Args, Outcome};
use retcon_lab::{Dataset, SEED};
use retcon_sim::{Machine, SimConfig};
use retcon_workloads::{machine_for, System, Workload};
use std::time::{Duration, Instant};

/// Core count of `contended32`.
const CONTENDED_CORES: usize = 32;

/// The systems `contended32` runs, in run order.
const CONTENDED_SYSTEMS: [System; 3] = [System::Retcon, System::RetconIdeal, System::Eager];

/// Traced-pass repetitions per shape.
const TRACED_REPS: usize = 3;

fn python() -> Workload {
    Workload::parse("python").expect("`python` is a Table 2 workload")
}

fn contended_machine(spec: &retcon_workloads::WorkloadSpec, system: System) -> Machine {
    machine_for(
        spec,
        system.protocol(CONTENDED_CORES),
        SimConfig::with_cores(CONTENDED_CORES),
    )
}

/// Timings of the rounds.
#[derive(Default)]
struct Rounds {
    setups: Vec<f64>,
    walls: Vec<f64>,
    rates: Vec<f64>,
}

impl Rounds {
    /// Records a round; returns whether another one fits in `seconds`.
    fn record(
        &mut self,
        start: Instant,
        seconds: f64,
        setup: Duration,
        wall: Duration,
        instructions: u64,
    ) -> bool {
        self.setups.push(setup.as_secs_f64());
        self.walls.push(wall.as_secs_f64());
        self.rates
            .push(instructions as f64 / wall.as_secs_f64() / 1e6);
        start.elapsed() + wall <= Duration::from_secs_f64(seconds)
    }

    fn metrics(&self, name: &str, out: &mut Outcome) {
        let wall = summarize(&self.walls);
        eprintln!(
            "{name}: {} rounds, wall median {:.4}s, set-up median {:.4}s",
            wall.n,
            wall.median,
            median(&self.setups)
        );
        let rounds_ms: Vec<f64> = self.walls.iter().map(|w| w * 1e3).collect();
        eprintln!("{name}: round times (ms) {rounds_ms:.1?}");
        out.end_to_end(
            wall.median,
            median(&self.rates),
            &rounds_ms,
            median(&self.setups),
            peak_rss_mb("self"),
        );
    }
}

/// Runs the end-to-end `contended32` workload.
pub fn contended32(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut rounds = Rounds::default();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let spec = python().build(CONTENDED_CORES, SEED);
        let mut machines: Vec<Machine> = CONTENDED_SYSTEMS
            .iter()
            .map(|&s| contended_machine(&spec, s))
            .collect();
        let setup = t.elapsed();
        let t = Instant::now();
        let results: Vec<_> = machines.iter_mut().map(Machine::run).collect();
        let wall = t.elapsed();
        let mut instructions = 0;
        for (machine, result) in machines.iter().zip(results) {
            if let Some(report) = out.op(result) {
                instructions += report.total_instructions();
                for p in check_python(&spec, &report, |a| machine.mem().read_word(a)) {
                    out.check(false, || format!("{}: {p}", report.protocol_name));
                }
            }
        }
        if !rounds.record(start, args.seconds, setup, wall, instructions) {
            break;
        }
    }
    rounds.metrics("contended32", &mut out);
    out
}

/// Runs the traced `contended32` pass.
pub fn contended32_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut sim = SimLayer::default();
    let spec = sim.build(|| python().build(CONTENDED_CORES, SEED));
    for system in CONTENDED_SYSTEMS {
        let label = format!("python/{}@{CONTENDED_CORES}", system.label());
        sim.serial(
            &mut out,
            &label,
            || contended_machine(&spec, system),
            TRACED_REPS,
        );
    }
    // The layers `contended32` does not exercise, on their reference
    // shapes: the shard layer, the lab path on `fig2`, one serve round.
    let shard = shard_layer(&mut out);
    let (lab, _) = lab_layer(&mut out, &[Dataset::Fig2]);
    let serve = serve::probe(args, &mut out);
    out.metrics = per_layer(&sim, &shard, &lab, &serve);
    print_layers(&out.metrics);
    out
}
