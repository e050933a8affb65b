//! `serve_sweeps`: a live `retcon-serve` daemon (2 workers, a spill
//! directory in the run's scratch directory) driven over loopback by one
//! closed-loop client.
//!
//! A round starts a fresh daemon as a child process, sends the seeded
//! sequence of [`ROUND_SWEEPS`] small sweeps one after another (each
//! waits for the previous `done` line), reads the `stats` verb and shuts
//! the daemon down. In every block of four sweeps one asks for new keys
//! (a new workload seed: every run executes, is inserted and spilled)
//! and three repeat earlier sweeps (every run is a store hit).
//!
//! Set-up time is measured on daemons restarted inside this process
//! (`Server::bind` and `Server::run` on a thread of its own) over a
//! spill directory holding the sequence's records, so that it times the
//! daemon's warm start and not the operating system's process start.
//! A batch of restarts follows every round, so that they never disturb
//! the sweeps' connection.

use crate::layers::{
    key_machine, lab_layer, per_layer, print_layers, shard_layer, ServeLayer, SimLayer, StoreCounts,
};
use crate::stats::{median, ms};
use crate::{Args, Outcome};
use retcon_lab::engine::{record_for, simulate, ResultStore};
use retcon_lab::{Dataset, RunKey};
use retcon_serve::proto::{done_line, record_line, DoneSummary, Request, Response, SweepRequest};
use retcon_serve::{Server, ServerConfig};
use retcon_sim::SimReport;
use retcon_workloads::{SplitMix64, System, Workload};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Sweeps per round.
pub const ROUND_SWEEPS: usize = 160;

/// One sweep in this many asks for new keys.
const FRESH_EVERY: usize = 4;

/// Daemon worker threads.
const WORKERS: usize = 2;

/// Rounds of the traced pass.
const TRACED_ROUNDS: usize = 3;

/// Untimed daemon restarts before the timed ones: the first few of a
/// process run several times slower while its pages and the allocator
/// warm up.
const SETUP_WARMUP: usize = 5;

/// Timed daemon restarts after each round.
const RESTARTS_PER_ROUND: usize = 25;

/// Passes of the traced pass's hit-path timing over the all-hit sweeps.
const HIT_PATH_REPS: usize = 20;

/// One sweep of the sequence, with the store outcome the sequence
/// predicts for each of its runs (a key's first sighting misses).
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The request.
    pub req: SweepRequest,
    /// Its runs, in canonical order.
    pub keys: Vec<RunKey>,
    /// Whether each run is predicted to be served from the store.
    pub cached: Vec<bool>,
}

impl Sweep {
    /// Runs predicted to be store hits.
    pub fn hits(&self) -> u64 {
        self.cached.iter().filter(|&&c| c).count() as u64
    }

    /// Whether the sweep is predicted to execute simulations.
    pub fn executes(&self) -> bool {
        self.cached.contains(&false)
    }

    /// The `done` line the daemon must answer with.
    fn expected_done(&self) -> String {
        let hits = self.hits();
        done_line(&DoneSummary {
            id: self.req.id,
            runs: self.keys.len() as u64,
            hits,
            joined: 0,
            misses: self.keys.len() as u64 - hits,
            errors: 0,
        })
    }
}

/// The seeded sweep sequence of one round.
///
/// A fresh sweep runs `genome` under eager and RetCon at 2 and 4 cores
/// with one workload seed not used before (4 runs, all misses); a repeat
/// resends the matrix of an earlier fresh sweep, picked uniformly (4
/// runs, all hits). The fresh sweep's position within each block of
/// [`FRESH_EVERY`] is drawn from the seed; the first sweep is fresh.
pub fn sequence(seed: u64) -> Vec<Sweep> {
    let genome = Workload::parse("genome").expect("`genome` is a Table 2 workload");
    let mut rng = SplitMix64::new(seed ^ 0x7377_6565_7073); // "sweeps"
    let mut fresh: Vec<SweepRequest> = Vec::new();
    let mut seeds = HashSet::new();
    let mut seen = HashSet::new();
    let mut sweeps = Vec::with_capacity(ROUND_SWEEPS);
    for block in 0..ROUND_SWEEPS / FRESH_EVERY {
        let fresh_at = if block == 0 {
            0
        } else {
            rng.below(FRESH_EVERY as u64) as usize
        };
        for pos in 0..FRESH_EVERY {
            let id = (sweeps.len() + 1) as u64;
            let req = if pos == fresh_at {
                let key_seed = loop {
                    let s = rng.next_u64() >> 40;
                    if seeds.insert(s) {
                        break s;
                    }
                };
                let req = SweepRequest {
                    id,
                    workloads: vec![genome],
                    systems: vec![System::Eager, System::Retcon],
                    cores: vec![2, 4],
                    seeds: vec![key_seed],
                };
                fresh.push(req.clone());
                req
            } else {
                let pick = rng.below(fresh.len() as u64) as usize;
                SweepRequest {
                    id,
                    ..fresh[pick].clone()
                }
            };
            let keys = req.explode();
            let cached = keys.iter().map(|k| !seen.insert(k.clone())).collect();
            sweeps.push(Sweep { req, keys, cached });
        }
    }
    sweeps
}

/// `retcon-perfbench daemon --spill DIR`: binds a `retcon-serve` daemon
/// on an ephemeral loopback port with [`WORKERS`] workers, prints
/// `ready ADDR MICROS` (the bind plus warm-start time) and serves until
/// a `shutdown` request drains it.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let spill = match args {
        [flag, dir] if flag == "--spill" => PathBuf::from(dir),
        _ => {
            eprintln!("usage: retcon-perfbench daemon --spill DIR");
            return ExitCode::FAILURE;
        }
    };
    retcon_obs::logger::set_level(retcon_obs::logger::Level::Warn);
    let t = Instant::now();
    let server = match Server::bind(config(spill)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("daemon: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ready = t.elapsed();
    println!("ready {} {}", server.local_addr(), ready.as_micros());
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The daemon's configuration: [`WORKERS`] workers on an ephemeral
/// loopback port, spilling into `spill`.
fn config(spill: PathBuf) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        spill: Some(spill),
        ..ServerConfig::default()
    }
}

/// A daemon child process; killed and reaped on drop unless stopped.
struct Daemon {
    child: Option<Child>,
    addr: String,
    ready_us: u64,
}

impl Daemon {
    fn start(spill: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--spill")
            .arg(spill)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            ready_us: 0,
        };
        let stdout = daemon
            .child
            .as_mut()
            .and_then(|c| c.stdout.take())
            .ok_or("daemon stdout not captured")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's ready line: {e}"))?;
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next().map(str::parse)) {
            (Some("ready"), Some(addr), Some(Ok(us))) => {
                daemon.addr = addr.to_string();
                daemon.ready_us = us;
                Ok(daemon)
            }
            _ => Err(format!(
                "unexpected daemon ready line `{}`",
                line.trim_end()
            )),
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Waits for the drained daemon to exit.
    fn wait(mut self) -> Result<(), String> {
        let mut child = self
            .child
            .take()
            .expect("daemon child present until waited");
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection speaking the daemon's line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("configuring the socket: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed by the daemon".to_string()),
            Ok(_) => {
                line.truncate(line.trim_end_matches('\n').len());
                Ok(line)
            }
            Err(e) => Err(format!("recv failed: {e}")),
        }
    }

    fn request(&mut self, req: &Request) -> Result<Response, String> {
        self.send(&req.to_line())?;
        Response::parse_line(&self.recv()?)
    }
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    /// Bind plus warm-start scan, as the daemon measured it.
    ready_ms: f64,
    /// The whole sweep sequence, client side.
    wall: Duration,
    /// Round trip of each sweep answered, in milliseconds.
    latencies: Vec<f64>,
    /// The lines each answered sweep received.
    lines: Vec<Vec<String>>,
    /// The `stats` verb after the sequence.
    stats: Vec<(String, u64)>,
    /// The daemon's peak resident memory, in MiB.
    rss_mb: f64,
}

/// Runs one round against a fresh daemon spilling into `dir`. Sweeps
/// after a transport failure are not answered; the caller counts them.
fn round(dir: &Path, sweeps: &[Sweep], requests: &[String]) -> Result<Round, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let mut r = Round::default();
    let daemon = Daemon::start(dir)?;
    let mut conn = Conn::connect(&daemon.addr)?;
    r.ready_ms = daemon.ready_us as f64 / 1e3;
    let t = Instant::now();
    for (sweep, line) in sweeps.iter().zip(requests) {
        let sent = Instant::now();
        conn.send(line)?;
        let mut lines = Vec::with_capacity(sweep.keys.len() + 1);
        loop {
            let l = conn.recv()?;
            let last = l.starts_with("{\"type\":\"done\"")
                || (l.starts_with("{\"type\":\"error\"")
                    && matches!(
                        Response::parse_line(&l),
                        Ok(Response::Error { index: None, .. })
                    ));
            lines.push(l);
            if last {
                break;
            }
        }
        r.latencies.push(ms(sent.elapsed()));
        r.lines.push(lines);
    }
    r.wall = t.elapsed();
    match conn.request(&Request::Stats)? {
        Response::Stats(fields) => r.stats = fields,
        other => return Err(format!("unexpected stats reply {other:?}")),
    }
    r.rss_mb = crate::stats::peak_rss_mb(&daemon.pid())?;
    stop(dir, daemon, conn)?;
    Ok(r)
}

/// Asks the daemon on `conn` to drain and checks that it agreed.
fn shutdown(conn: &mut Conn) -> Result<(), String> {
    match conn.request(&Request::Shutdown)? {
        Response::Ok(_) => Ok(()),
        other => Err(format!("unexpected shutdown reply {other:?}")),
    }
}

/// Drains and reaps the daemon, then removes its spill directory.
fn stop(dir: &Path, daemon: Daemon, mut conn: Conn) -> Result<(), String> {
    shutdown(&mut conn)?;
    drop(conn);
    daemon.wait()?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

/// Starts a daemon over the spill directory `dir` inside this process,
/// waits for the first reply on an accepted connection, then drains it.
/// Returns the time from `Server::bind` until that reply, and the reply's
/// counters.
fn start_in_process(dir: &Path) -> Result<(Duration, Vec<(String, u64)>), String> {
    let t = Instant::now();
    let server = Server::bind(config(dir.to_path_buf())).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut conn = Conn::connect(&addr)?;
    let first = conn.request(&Request::Stats)?;
    let setup = t.elapsed();
    shutdown(&mut conn)?;
    drop(conn);
    daemon
        .join()
        .map_err(|_| "the daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))?;
    match first {
        Response::Stats(fields) => Ok((setup, fields)),
        other => Err(format!("unexpected first reply {other:?}")),
    }
}

/// Daemon set-up times: in-process restarts over a spill directory
/// holding every record of the sequence, the warm start a restarted
/// daemon makes. A run spreads them over its whole length (a batch
/// after every round), so that their median is not one moment's load on
/// the host. Every restart must recover each record and
/// quarantine none.
struct Restarts {
    dir: PathBuf,
    records: u64,
    times: Vec<f64>,
    problems: Vec<String>,
}

impl Restarts {
    /// Spills `reports` into a directory of their own and makes
    /// [`SETUP_WARMUP`] untimed restarts.
    fn new(args: &Args, reports: &[(RunKey, SimReport)]) -> Restarts {
        let dir = args
            .scratch
            .join(format!("serve-warm-{}", std::process::id()));
        let mut restarts = Restarts {
            records: reports.len() as u64,
            times: Vec::new(),
            problems: Vec::new(),
            dir,
        };
        retcon_obs::logger::set_level(retcon_obs::logger::Level::Warn);
        let _ = std::fs::remove_dir_all(&restarts.dir);
        if let Err(e) = std::fs::create_dir_all(&restarts.dir) {
            let dir = restarts.dir.display();
            restarts.problems.push(format!("creating {dir}: {e}"));
            return restarts;
        }
        let store = ResultStore::new(ServerConfig::default().capacity_bytes)
            .with_spill(restarts.dir.clone());
        for (key, report) in reports {
            store.insert_hash(key.content_hash(), report, 0);
        }
        let failures = store.stats().spill_write_failures;
        if failures != 0 {
            restarts
                .problems
                .push(format!("{failures} spill writes failed"));
        }
        for _ in 0..SETUP_WARMUP {
            restarts.once();
        }
        restarts.times.clear();
        restarts
    }

    /// One timed restart.
    fn once(&mut self) {
        match start_in_process(&self.dir) {
            Ok((setup, stats)) => {
                let stat = |name: &str| stats.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
                if stat("recovered_on_boot") != Some(self.records) || stat("quarantined") != Some(0)
                {
                    self.problems.push(format!(
                        "warm start recovered {:?} and quarantined {:?}, expected {} and 0",
                        stat("recovered_on_boot"),
                        stat("quarantined"),
                        self.records
                    ));
                }
                self.times.push(setup.as_secs_f64());
            }
            Err(e) => self.problems.push(format!("daemon start failed: {e}")),
        }
    }

    /// Removes the directory and hands the problems to `out`; returns the
    /// timed restarts, in seconds.
    fn finish(mut self, out: &mut Outcome) -> Vec<f64> {
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            let dir = self.dir.display();
            self.problems.push(format!("removing {dir}: {e}"));
        }
        for p in self.problems {
            out.check(false, || p);
        }
        self.times
    }
}

fn spill_dir(args: &Args) -> PathBuf {
    args.scratch
        .join(format!("serve-spill-{}", std::process::id()))
}

/// The record payload of every distinct key of `sweeps`, computed in
/// this process with `engine::record_for(key, engine::simulate(key))`,
/// and the reports of those runs.
fn oracle(
    out: &mut Outcome,
    sweeps: &[Sweep],
) -> (HashMap<RunKey, String>, Vec<(RunKey, SimReport)>) {
    let mut payloads = HashMap::new();
    let mut reports = Vec::new();
    for key in sweeps.iter().flat_map(|s| &s.keys) {
        if payloads.contains_key(key) {
            continue;
        }
        match simulate(key) {
            Ok(report) => {
                let payload = record_for(key, report.clone()).to_json().to_string();
                payloads.insert(key.clone(), payload);
                reports.push((key.clone(), report));
            }
            Err(e) => out.check(false, || {
                format!("oracle simulation of {key:?} failed: {e}")
            }),
        }
    }
    (payloads, reports)
}

/// Checks one round: every record line byte-identical to the oracle's
/// (with the predicted cache flag), every `done` line carrying the
/// predicted hit/miss counts, no error lines, and the daemon's `stats`
/// agreeing with the sequence.
fn check_round(out: &mut Outcome, sweeps: &[Sweep], payloads: &HashMap<RunKey, String>, r: &Round) {
    for (sweep, lines) in sweeps.iter().zip(&r.lines) {
        let id = sweep.req.id;
        if let Some(error) = lines.iter().find(|l| l.starts_with("{\"type\":\"error\"")) {
            out.failed += 1;
            eprintln!("sweep {id} failed: {error}");
            continue;
        }
        let answered = lines.last().map(String::as_str);
        let done = sweep.expected_done();
        if answered != Some(done.as_str()) {
            out.check(false, || {
                format!("sweep {id}: ended with {answered:?}, expected {done}")
            });
            continue;
        }
        let mut served: Vec<&str> = lines[..lines.len() - 1]
            .iter()
            .map(String::as_str)
            .collect();
        let mut expected: Vec<String> = sweep
            .keys
            .iter()
            .zip(&sweep.cached)
            .enumerate()
            .filter_map(|(i, (key, &cached))| {
                payloads
                    .get(key)
                    .map(|p| record_line(id, i as u64, cached, p))
            })
            .collect();
        served.sort_unstable();
        expected.sort_unstable();
        out.check(served == expected, || {
            format!("sweep {id}: served record lines differ from the oracle's")
        });
    }
    let stat = |name: &str| r.stats.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
    let distinct: HashSet<&RunKey> = sweeps.iter().flat_map(|s| &s.keys).collect();
    out.check(stat("executed") == Some(distinct.len() as u64), || {
        format!(
            "executed {:?}, expected {}",
            stat("executed"),
            distinct.len()
        )
    });
    for name in [
        "worker_panics",
        "spill_write_failures",
        "quarantined",
        "joined",
    ] {
        out.check(stat(name) == Some(0), || {
            format!("stats {name} = {:?}", stat(name))
        });
    }
}

/// Store counters from a `stats` reply.
fn store_counts(stats: &[(String, u64)]) -> StoreCounts {
    let stat = |name: &str| stats.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v);
    StoreCounts {
        hits: stat("store_hits"),
        misses: stat("store_misses"),
        executed: stat("executed"),
        evictions: stat("evictions"),
        spill_bytes: stat("spill_bytes"),
    }
}

/// Runs rounds until `more` says stop, checking each and calling
/// `between` after each; returns the rounds that completed.
fn rounds(
    args: &Args,
    out: &mut Outcome,
    sweeps: &[Sweep],
    payloads: &HashMap<RunKey, String>,
    mut more: impl FnMut(usize, Duration) -> bool,
    between: &mut dyn FnMut(),
) -> Vec<Round> {
    let requests: Vec<String> = sweeps
        .iter()
        .map(|s| Request::Sweep(s.req.clone()).to_line())
        .collect();
    let dir = spill_dir(args);
    let mut done = Vec::new();
    loop {
        let t = Instant::now();
        out.attempted += sweeps.len() as u64;
        match round(&dir, sweeps, &requests) {
            Ok(r) => {
                check_round(out, sweeps, payloads, &r);
                done.push(r);
            }
            Err(e) => {
                out.failed += sweeps.len() as u64;
                out.check(false, || format!("serve round failed: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }
        }
        between();
        if !more(done.len(), t.elapsed()) {
            break;
        }
    }
    done
}

/// Runs the end-to-end `serve_sweeps` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let sweeps = sequence(args.seed);
    let (payloads, reports) = oracle(&mut out, &sweeps);
    let instructions: u64 = reports.iter().map(|(_, r)| r.total_instructions()).sum();
    let mut restarts = Restarts::new(args, &reports);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let done = rounds(
        args,
        &mut out,
        &sweeps,
        &payloads,
        |_, last| start.elapsed() + last <= budget,
        &mut || {
            for _ in 0..RESTARTS_PER_ROUND {
                restarts.once();
            }
        },
    );
    let setup_times = restarts.finish(&mut out);
    if done.is_empty() || setup_times.is_empty() {
        return out;
    }
    let latencies: Vec<f64> = done
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let setup_ms: Vec<f64> = setup_times.iter().map(|s| s * 1e3).collect();
    eprintln!("serve_sweeps: daemon set-up times (ms) {setup_ms:.2?}");
    let walls: Vec<f64> = done.iter().map(|r| r.wall.as_secs_f64()).collect();
    let rates: Vec<f64> = walls
        .iter()
        .map(|w| instructions as f64 / w / 1e6)
        .collect();
    eprintln!("serve_sweeps: {} rounds", done.len());
    out.end_to_end(
        median(&walls),
        median(&rates),
        &latencies,
        median(&setup_times),
        Ok(done.iter().map(|r| r.rss_mb).fold(0.0, f64::max)),
    );
    out
}

/// Measures the serve layers over `n` rounds of the sequence for
/// `args.seed`, checking every round.
fn serve_layer(args: &Args, out: &mut Outcome, sweeps: &[Sweep], n: usize) -> ServeLayer {
    let (payloads, reports) = oracle(out, sweeps);
    let hit_path_us = hit_path(out, sweeps, &payloads, &reports);
    let done = rounds(
        args,
        out,
        sweeps,
        &payloads,
        |completed, _| completed < n,
        &mut || {},
    );
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for r in &done {
        for (sweep, &lat) in sweeps.iter().zip(&r.latencies) {
            if sweep.executes() {
                miss.push(lat);
            } else {
                hit.push(lat);
            }
        }
    }
    let ready: Vec<f64> = done.iter().map(|r| r.ready_ms).collect();
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    ServeLayer {
        ready_ms: or_zero(&ready),
        hit_sweep_ms: or_zero(&hit),
        hit_path_us,
        miss_sweep_ms: or_zero(&miss),
        store: done
            .first()
            .map(|r| store_counts(&r.stats))
            .unwrap_or_default(),
    }
}

/// Times the daemon's hit path in this process: a `ResultStore` holding
/// every key of the sequence answers each all-hit sweep's runs the way
/// the daemon's classification fast path does (`lookup_hash`,
/// `record_for`, `record_line`), [`HIT_PATH_REPS`] times over. Every line
/// must equal the oracle's. Returns the median per sweep, in
/// microseconds.
fn hit_path(
    out: &mut Outcome,
    sweeps: &[Sweep],
    payloads: &HashMap<RunKey, String>,
    reports: &[(RunKey, SimReport)],
) -> f64 {
    let store = ResultStore::new(ServerConfig::default().capacity_bytes);
    for (key, report) in reports {
        store.insert_hash(key.content_hash(), report, 0);
    }
    let mut times = Vec::new();
    for _ in 0..HIT_PATH_REPS {
        for sweep in sweeps.iter().filter(|s| !s.executes()) {
            let id = sweep.req.id;
            let t = Instant::now();
            let lines: Vec<Option<String>> = sweep
                .keys
                .iter()
                .enumerate()
                .map(|(i, key)| {
                    let report = store.lookup_hash(key.content_hash())?;
                    let run_json = record_for(key, report).to_json().to_string();
                    Some(record_line(id, i as u64, true, &run_json))
                })
                .collect();
            times.push(t.elapsed().as_secs_f64() * 1e6);
            for (i, (key, line)) in sweep.keys.iter().zip(&lines).enumerate() {
                let expected = payloads
                    .get(key)
                    .map(|p| record_line(id, i as u64, true, p));
                out.check(line.is_some() && *line == expected, || {
                    format!(
                        "hit path, sweep {id} run {i}: the store's line differs from the oracle's"
                    )
                });
            }
        }
    }
    if times.is_empty() {
        0.0
    } else {
        median(&times)
    }
}

/// One round of the serve layers, for the traced passes of the other
/// workloads.
pub fn probe(args: &Args, out: &mut Outcome) -> ServeLayer {
    serve_layer(args, out, &sequence(args.seed), 1)
}

/// Runs the traced `serve_sweeps` pass: the serve layers over
/// [`TRACED_ROUNDS`] rounds, and the simulations the rounds execute.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let sweeps = sequence(args.seed);
    let serve = serve_layer(args, &mut out, &sweeps, TRACED_ROUNDS);
    let mut sim = SimLayer::default();
    let mut seen = HashSet::new();
    for key in sweeps.iter().flat_map(|s| &s.keys) {
        if !seen.insert(key) {
            continue;
        }
        let label = format!(
            "{}/{}@{}#{}",
            key.workload.label(),
            key.system.label(),
            key.cores,
            key.seed
        );
        let spec = sim.build(|| key.workload.build(key.cores, key.seed));
        sim.serial(&mut out, &label, || key_machine(&spec, key), 1);
    }
    let shard = shard_layer(&mut out);
    let (lab, _) = lab_layer(&mut out, &[Dataset::Fig2]);
    out.metrics = per_layer(&sim, &shard, &lab, &serve);
    print_layers(&out.metrics);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sequence_is_seeded_and_three_in_four_sweeps_hit() {
        let a = sequence(7);
        assert_eq!(a.len(), ROUND_SWEEPS);
        let b = sequence(7);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.req == y.req && x.cached == y.cached));
        assert!(a.iter().zip(sequence(8)).any(|(x, y)| x.req != y.req));
        for block in a.chunks(FRESH_EVERY) {
            let executing: Vec<&Sweep> = block.iter().filter(|s| s.executes()).collect();
            assert_eq!(executing.len(), 1);
            assert_eq!(executing[0].hits(), 0, "a fresh sweep misses on every run");
        }
        assert!(a[0].executes());
    }

    #[test]
    fn a_wrong_record_or_count_fails_the_round_check() {
        let sweeps: Vec<Sweep> = sequence(1).into_iter().take(2).collect();
        let payloads: HashMap<RunKey, String> = sweeps
            .iter()
            .flat_map(|s| &s.keys)
            .map(|k| (k.clone(), format!("{{\"seed\":{}}}", k.seed)))
            .collect();
        let lines_of = |s: &Sweep| {
            let mut lines: Vec<String> = s
                .keys
                .iter()
                .zip(&s.cached)
                .enumerate()
                .map(|(i, (k, &c))| record_line(s.req.id, i as u64, c, &payloads[k]))
                .rev()
                .collect();
            lines.push(s.expected_done());
            lines
        };
        let good = Round {
            lines: sweeps.iter().map(lines_of).collect(),
            stats: vec![
                ("executed".to_string(), 4),
                ("worker_panics".to_string(), 0),
                ("spill_write_failures".to_string(), 0),
                ("quarantined".to_string(), 0),
                ("joined".to_string(), 0),
            ],
            ..Round::default()
        };
        let mut out = Outcome::default();
        check_round(&mut out, &sweeps, &payloads, &good);
        assert_eq!(out.problems, Vec::<String>::new());

        let mut wrong_record = Round {
            lines: good.lines.clone(),
            stats: good.stats.clone(),
            ..Round::default()
        };
        wrong_record.lines[1][0] = wrong_record.lines[1][0].replace("\"seed\"", "\"seeds\"");
        let mut out = Outcome::default();
        check_round(&mut out, &sweeps, &payloads, &wrong_record);
        assert_eq!(out.problems.len(), 1);

        let mut wrong_count = Round {
            lines: good.lines.clone(),
            stats: good.stats.clone(),
            ..Round::default()
        };
        wrong_count.stats[0].1 = 5;
        let mut out = Outcome::default();
        check_round(&mut out, &sweeps, &payloads, &wrong_count);
        assert_eq!(out.problems.len(), 1);
    }
}
