//! Per-layer measurement for the traced pass.
//!
//! The benchmark times its own spans around calls into each layer and
//! reads the counts those calls already return (`SimReport`, the
//! `RingTracer` event stream, the lab's phase accumulators, the daemon's
//! `stats` verb). Nothing here runs inside the end-to-end runs.

use crate::oracle::check_xl_groups;
use crate::stats::{median, ms};
use crate::{Metric, Outcome};
use retcon_lab::{csv, Dataset, ExperimentRecord, ReportCache, RunKey};
use retcon_obs::phase::{self, Phase};
use retcon_obs::{EventKind, RingTracer};
use retcon_sim::{AnyProtocol, Machine, RetconTm, SimConfig, SimReport};
use retcon_workloads::{
    machine_for, machine_for_sized, run_spec_sized, run_spec_traced_sized, System, Workload,
    WorkloadSpec,
};
use std::time::{Duration, Instant};

/// Event-ring capacity of a traced run.
pub const TRACE_CAPACITY: usize = retcon_obs::ring::DEFAULT_CAPACITY;

/// The simulator layers (`retcon-workloads` build, `retcon-sim` run with
/// `retcon-mem`, `retcon-htm` and `retcon` inside), summed over the
/// shapes a workload simulates.
#[derive(Debug, Default)]
pub struct SimLayer {
    /// `Workload::build` time.
    pub build: Duration,
    /// Untraced default runs (per shape, the median over repetitions).
    pub run: Duration,
    /// Traced runs of the same shapes.
    pub traced: Duration,
    /// Default runs of the shapes that also ran with fast-forward off.
    pub ff_on: Duration,
    /// The same shapes with `Machine::set_fast_forward(false)`.
    pub ff_off: Duration,
    /// Simulated instructions (`SimReport::total_instructions`).
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions, all causes.
    pub aborts: u64,
    /// Stalled accesses.
    pub stalls: u64,
    /// RETCON constraint violations.
    pub violations: u64,
    /// `storm_ff` events: stall-retry storms charged analytically.
    pub storms: u64,
    /// Events recorded by the traced runs.
    pub events: u64,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

fn median_duration(samples: &[Duration]) -> Duration {
    let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    Duration::from_secs_f64(median(&secs))
}

impl SimLayer {
    /// Runs `build` inside a `workloads.build` span.
    pub fn build(&mut self, build: impl FnOnce() -> WorkloadSpec) -> WorkloadSpec {
        let (spec, took) = time(build);
        self.build += took;
        spec
    }

    fn count(&mut self, report: &SimReport) {
        self.instructions += report.total_instructions();
        self.cycles += report.cycles;
        self.commits += report.protocol.commits;
        self.aborts += report.protocol.aborts();
        self.stalls += report.protocol.stalls;
        self.violations += report.retcon.as_ref().map_or(0, |r| r.violations);
    }

    fn count_trace(&mut self, out: &mut Outcome, label: &str, tracer: &RingTracer) {
        out.check(tracer.dropped() == 0, || {
            format!(
                "{label}: the trace ring dropped {} events",
                tracer.dropped()
            )
        });
        self.events += tracer.len() as u64 + tracer.dropped();
        self.storms += tracer.count(EventKind::StormFf);
    }

    /// Measures one serial shape: `reps` interleaved triples of a default
    /// run, a traced run and a fast-forward-off run, each on a fresh
    /// machine from `make` (construction is outside the spans). Checks
    /// that tracing and fast-forward leave the report unchanged, and
    /// returns the default report.
    pub fn serial<const N: usize>(
        &mut self,
        out: &mut Outcome,
        label: &str,
        make: impl Fn() -> Machine<N>,
        reps: usize,
    ) -> Option<SimReport> {
        let (mut on, mut traced, mut off) = (Vec::new(), Vec::new(), Vec::new());
        let mut first: Option<SimReport> = None;
        for _ in 0..reps {
            let mut m = make();
            let (r, took) = time(|| m.run());
            let report = out.op(r)?;
            on.push(took);
            let mut m = make();
            m.set_tracer(RingTracer::with_capacity(TRACE_CAPACITY));
            let (r, took) = time(|| m.run());
            let traced_report = out.op(r)?;
            traced.push(took);
            let tracer = m.take_tracer().expect("tracer attached above");
            let mut m = make();
            m.set_fast_forward(false);
            let (r, took) = time(|| m.run());
            let off_report = out.op(r)?;
            off.push(took);
            out.check(traced_report == report, || {
                format!("{label}: the traced report differs from the untraced one")
            });
            out.check(off_report == report, || {
                format!("{label}: the fast-forward-off report differs from the default one")
            });
            if first.is_none() {
                self.count_trace(out, label, &tracer);
                first = Some(report);
            }
        }
        let on = median_duration(&on);
        self.run += on;
        self.ff_on += on;
        self.traced += median_duration(&traced);
        self.ff_off += median_duration(&off);
        let report = first?;
        self.count(&report);
        Some(report)
    }
}

/// `retcon-sim::shard` on the 1024-core RetCon `scaling_xl` shape: serial
/// against 2-shard host time, and the merge decisions of a traced sharded
/// run.
#[derive(Debug, Default)]
pub struct ShardLayer {
    /// Serial run time (median).
    pub serial: Duration,
    /// 2-shard run time (median).
    pub sharded: Duration,
    /// Overlap fallbacks recorded by the traced sharded run.
    pub fallbacks: u64,
}

/// Cores of the 1024-core shapes.
pub const XL_CORES: usize = 1024;

/// Host threads of a sharded run.
pub const SHARDS: usize = 2;

/// Measures [`ShardLayer`] on the 1024-core RetCon `scaling_xl` shape
/// (three interleaved serial / 2-shard pairs). Every serial run's group
/// counters must reach their published totals, and every 2-shard report
/// must equal the serial one.
pub fn shard_layer(out: &mut Outcome) -> ShardLayer {
    let spec = Workload::ScalingXl.build(XL_CORES, 0);
    let (mut serial, mut sharded) = (Vec::new(), Vec::new());
    let mut layer = ShardLayer::default();
    for _ in 0..3 {
        let mut m = xl_machine(&spec, System::Retcon);
        let (r, took) = time(|| m.run());
        let Some(serial_report) = out.op(r) else {
            return layer;
        };
        serial.push(took);
        for p in check_xl_groups(XL_CORES, |a| m.mem().read_word(a)) {
            out.check(false, || format!("shard layer, serial run: {p}"));
        }
        let (r, took) = time(|| run_spec_sized(&spec, System::Retcon, XL_CORES, SHARDS));
        let Some(sharded_report) = out.op(r) else {
            return layer;
        };
        sharded.push(took);
        out.check(sharded_report == serial_report, || {
            "shard layer: the 2-shard report differs from the serial one".to_string()
        });
    }
    let r = run_spec_traced_sized(&spec, System::Retcon, XL_CORES, SHARDS, TRACE_CAPACITY);
    if let Some((_, tracer)) = out.op(r) {
        let merges: Vec<u64> = tracer
            .events()
            .filter(|e| e.kind == EventKind::ShardMerge as u8)
            .map(|e| e.arg)
            .collect();
        out.check(merges == vec![0; SHARDS], || {
            format!("shard layer: merge decisions {merges:?}, expected {SHARDS} clean merges")
        });
        layer.fallbacks = merges.iter().filter(|&&a| a == 1).count() as u64;
    }
    layer.serial = median_duration(&serial);
    layer.sharded = median_duration(&sharded);
    layer
}

/// The serial 1024-core machine for `spec` under `system`.
pub fn xl_machine(spec: &WorkloadSpec, system: System) -> Machine<16> {
    machine_for_sized::<16>(
        spec,
        system.protocol_sized::<16>(XL_CORES),
        SimConfig::with_cores(XL_CORES),
    )
}

/// The machine a lab key of at most 64 cores simulates on, with the
/// protocol `retcon_lab::engine::simulate` picks for it.
pub fn key_machine(spec: &WorkloadSpec, key: &RunKey) -> Machine {
    let protocol: AnyProtocol = match key.cfg {
        Some(cfg) => RetconTm::new(key.cores, cfg).into(),
        None => key.system.protocol(key.cores),
    };
    machine_for(spec, protocol, key.sim_config())
}

/// The `retcon-lab` runner and record path.
#[derive(Debug, Default)]
pub struct LabLayer {
    /// Simulation time the runner charged (the `cost_micros` it hands
    /// its cache, read from the `simulate` phase accumulator).
    pub sim: Duration,
    /// `Dataset::collect_cached` wall-clock.
    pub collect: Duration,
    /// `ExperimentRecord::to_json_string` plus `csv::to_csv`.
    pub serialize: Duration,
    /// Cache lookups (one per job).
    pub lookups: u64,
    /// Lookups served from the cache.
    pub hits: u64,
}

/// One dataset's output from [`lab_layer`].
#[derive(Debug)]
pub struct LabOutput {
    /// The dataset.
    pub dataset: Dataset,
    /// Its record.
    pub record: ExperimentRecord,
}

/// Collects `datasets` on one worker through one shared `ReportCache`,
/// exactly as `retcon-lab all` does, inside lab spans.
///
/// `Dataset::collect_cached` takes the concrete `ReportCache`, so a
/// counting cache wrapper cannot be passed in; the runner's charged
/// simulation micros are read from the `simulate` phase accumulator it
/// feeds with the same value, and hits are lookups minus cache growth.
pub fn lab_layer(out: &mut Outcome, datasets: &[Dataset]) -> (LabLayer, Vec<LabOutput>) {
    let cache = ReportCache::new();
    let mut layer = LabLayer::default();
    let mut outputs = Vec::new();
    for &dataset in datasets {
        let lookups = dataset.jobs().len() as u64;
        let cached_before = cache.len() as u64;
        let before = phase::snapshot();
        let (r, took) = time(|| dataset.collect_cached(1, &cache));
        let delta = phase::delta(&before, &phase::snapshot());
        let Some(record) = out.ops(lookups, r) else {
            continue;
        };
        layer.collect += took;
        layer.sim += Duration::from_micros(delta[Phase::Simulate as usize].micros);
        layer.lookups += lookups;
        layer.hits += lookups - (cache.len() as u64 - cached_before);
        let (serialized, took) = time(|| (record.to_json_string(), csv::to_csv(&record)));
        layer.serialize += took;
        if let Err(e) = serialized.1 {
            out.check(false, || {
                format!("{}: CSV emission failed: {e}", dataset.name())
            });
        }
        outputs.push(LabOutput { dataset, record });
    }
    (layer, outputs)
}

/// Counters of the daemon's `ResultStore`, from its `stats` verb.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounts {
    /// Lookups served from memory (`store_hits`).
    pub hits: u64,
    /// Lookups that found nothing (`store_misses`).
    pub misses: u64,
    /// Keys the daemon simulated (`executed`).
    pub executed: u64,
    /// Resident entries evicted (`evictions`).
    pub evictions: u64,
    /// Bytes in the spill directory (`spill_bytes`).
    pub spill_bytes: u64,
}

/// The `retcon-serve` daemon and its store.
#[derive(Debug, Default)]
pub struct ServeLayer {
    /// Bind plus warm-start scan, measured inside the daemon (median).
    pub ready_ms: f64,
    /// Median round trip of the sweeps answered wholly from the store.
    pub hit_sweep_ms: f64,
    /// The daemon's hit path for one all-hit sweep, timed in this
    /// process: `ResultStore::lookup_hash`, `record_for` and
    /// `record_line` for each of its runs (median).
    pub hit_path_us: f64,
    /// Median round trip of the sweeps that executed simulations.
    pub miss_sweep_ms: f64,
    /// Store counters at the end of one round.
    pub store: StoreCounts,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(
    sim: &SimLayer,
    shard: &ShardLayer,
    lab: &LabLayer,
    serve: &ServeLayer,
) -> Vec<Metric> {
    let run_ms = ms(sim.run);
    let attempts = sim.commits + sim.aborts;
    vec![
        Metric::new("workloads.build_ms", "ms", ms(sim.build)),
        Metric::new("sim.run_ms", "ms", run_ms),
        Metric::new(
            "sim.ns_per_instr",
            "ns",
            run_ms * 1e6 / sim.instructions.max(1) as f64,
        ),
        Metric::new("sim.instructions", "count", sim.instructions as f64),
        Metric::new("sim.cycles", "cycles", sim.cycles as f64),
        Metric::new("htm.commits", "count", sim.commits as f64),
        Metric::new("htm.aborts", "count", sim.aborts as f64),
        Metric::new("htm.stalls", "count", sim.stalls as f64),
        Metric::new("retcon.violations", "count", sim.violations as f64),
        Metric::new(
            "htm.commit_ratio",
            "ratio",
            sim.commits as f64 / attempts.max(1) as f64,
        ),
        Metric::new("ff.storms", "count", sim.storms as f64),
        Metric::new("ff.saved_ms", "ms", ms(sim.ff_off) - ms(sim.ff_on)),
        Metric::new(
            "shard.speedup",
            "x",
            shard.serial.as_secs_f64() / shard.sharded.as_secs_f64().max(1e-9),
        ),
        Metric::new("shard.fallbacks", "count", shard.fallbacks as f64),
        Metric::new(
            "obs.trace_overhead_pct",
            "%",
            (ms(sim.traced) - run_ms) / run_ms.max(1e-9) * 100.0,
        ),
        Metric::new("obs.events", "count", sim.events as f64),
        Metric::new("lab.sim_ms", "ms", ms(lab.sim)),
        Metric::new("lab.overhead_ms", "ms", ms(lab.collect) - ms(lab.sim)),
        Metric::new("lab.serialize_ms", "ms", ms(lab.serialize)),
        Metric::new("lab.cache_lookups", "count", lab.lookups as f64),
        Metric::new("lab.cache_hits", "count", lab.hits as f64),
        Metric::new("serve.ready_ms", "ms", serve.ready_ms),
        Metric::new("serve.hit_sweep_ms", "ms", serve.hit_sweep_ms),
        Metric::new("serve.hit_path_us", "us", serve.hit_path_us),
        Metric::new("serve.miss_sweep_ms", "ms", serve.miss_sweep_ms),
        Metric::new("store.hits", "count", serve.store.hits as f64),
        Metric::new("store.misses", "count", serve.store.misses as f64),
        Metric::new("store.executed", "count", serve.store.executed as f64),
        Metric::new("store.evictions", "count", serve.store.evictions as f64),
        Metric::new("store.spill_bytes", "bytes", serve.store.spill_bytes as f64),
    ]
}

/// Prints a per-layer table to standard error.
pub fn print_layers(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<24} {:>16.4} {}", m.name, m.value, m.unit);
    }
}
