//! satwatch benchmark harness.
//!
//! ```text
//! perfbench --satwatch BIN --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload's `satwatch` invocations as child
//! processes in a closed loop (one invocation at a time, the next
//! after the previous exits) for `S` seconds, each iteration on its own
//! input derived from the seed, checks every output against an
//! in-process reference, and reports the end-to-end metrics.
//! `--trace 1` times iterations on one input for half of `S`, then
//! drives that input through the crates in-process with a span around
//! every call, and reports the per-layer metrics.
//!
//! The last stdout line is the result: `{"correct", "attempted",
//! "failed", "metrics"}`. The line before it records provenance and
//! sample statistics. `bash perfbench/run.sh` builds and runs this.

mod child;
mod layers;
mod metrics;
mod trace;
mod workload;

use satwatch_monitor::ShardedProbe;
use satwatch_scenario::DayRunner;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Reference, Workload};

struct Opts {
    satwatch: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut satwatch, mut work, mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None, None, None);
    while let Some(key) = args.next() {
        let val = args.next().ok_or(format!("{key} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{key} {v}: {e}"));
        match key.as_str() {
            "--satwatch" => satwatch = Some(PathBuf::from(val)),
            "--work" => work = Some(PathBuf::from(val)),
            "--workload" => workload = Some(workload::find(&val).ok_or(format!("unknown workload {val:?}"))?),
            "--seed" => seed = Some(num(&val)?),
            "--seconds" => seconds = Some(num(&val)?),
            "--trace" => trace = Some(num(&val)? != 0),
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    Ok(Opts {
        satwatch: satwatch.ok_or("--satwatch is required")?,
        work: work.ok_or("--work is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Set-up repetitions before each iteration. A set-up takes tens of µs
/// and its time shifts with the host's state over seconds, so samples
/// are spread over the whole run; `setup_s` is their median.
const SETUP_REPS: u64 = 15;
/// Iterations a run makes even when `--seconds` has already passed.
const MIN_ITERATIONS: u64 = 3;
/// Least end-to-end iterations on the traced input, which give the wall
/// time `cli.unattributed_ms` is taken from. They run for half of
/// `--seconds`; the traced run takes a few seconds more.
const TRACE_ITERATIONS: u64 = 5;

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spawner") {
        return match child::serve(std::io::stdin().lock(), std::io::stdout().lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench spawner: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // children run in their own directories: every path they get is absolute
    o.satwatch = match std::fs::canonicalize(&o.satwatch) {
        Ok(p) if p.is_file() => p,
        _ => {
            eprintln!("perfbench: no satwatch binary at {}", o.satwatch.display());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&o.work).and_then(|_| std::fs::canonicalize(&o.work)).map(|p| o.work = p) {
        eprintln!("perfbench: {}: {e}", o.work.display());
        return ExitCode::from(2);
    }
    let w = o.workload;
    let run_dir = o.work.join(format!("{}-{}-{}", w.name, o.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let mut spawner = match std::env::current_exe().and_then(|exe| child::Spawner::start(&exe)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot start the spawner: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = metrics::provenance(&w, o.seed, o.seconds, o.trace);
    let result = if o.trace { traced(&o, &mut spawner, &run_dir) } else { end_to_end(&o, &mut spawner, &run_dir) };
    if let Err(e) = spawner.stop() {
        eprintln!("perfbench: spawner: {e}");
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    for e in result.errors.iter().take(20) {
        eprintln!("perfbench: FAILED {e}");
    }
    println!("{{\"provenance\": {provenance}, \"samples\": {}}}", result.samples);
    println!("{}", result.json());
    ExitCode::SUCCESS
}

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<metrics::Metric>,
    /// JSON object of per-metric sample statistics.
    pub samples: String,
}

impl Outcome {
    fn json(&self) -> String {
        metrics::result_json(self.failed == 0 && self.errors.is_empty(), self.attempted, self.failed, &self.metrics)
    }
}

/// In-process set-up times (`DayRunner::new` + `ShardedProbe::new`)
/// of `SETUP_REPS` configurations of the input `input_seed`.
fn setup_samples(w: &Workload, input_seed: u64) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let cfg = w.config(input_seed);
            let t0 = Instant::now();
            let runner = DayRunner::new(cfg);
            let probe = ShardedProbe::new(runner.probe_config(), cfg.probe_shards);
            let s = t0.elapsed().as_secs_f64();
            drop(probe.finish());
            s
        })
        .collect()
}

/// Run iterations until `budget` has passed (at least `min` of them);
/// `input(i)` picks the input of iteration `i`. Returns the iterations
/// with their reference packet counts, and the set-up samples taken
/// before each iteration.
fn closed_loop(
    o: &Opts,
    spawner: &mut child::Spawner,
    dir: &Path,
    budget: Duration,
    min: u64,
    input: impl Fn(u64) -> u64,
    references: &mut dyn FnMut(u64) -> Reference,
) -> (Vec<(workload::Iteration, u64)>, Vec<f64>) {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut setup = Vec::new();
    for i in 0.. {
        if i >= min && t0.elapsed() >= budget {
            break;
        }
        let seed = input(i);
        let reference = references(seed);
        setup.extend(setup_samples(&o.workload, seed));
        let it_dir = dir.join(format!("it-{i}"));
        let _ = std::fs::create_dir_all(&it_dir);
        let mut spawn = |args: &[String], d: &Path, out: &Path, err: &Path| {
            spawner.run(&o.satwatch, args, d, out, err, workload::CHILD_TIMEOUT)
        };
        let it = workload::run_iteration(&o.workload, &mut spawn, &it_dir, seed, &reference);
        let _ = std::fs::remove_dir_all(&it_dir);
        out.push((it, reference.packets));
    }
    (out, setup)
}

fn end_to_end(o: &Opts, spawner: &mut child::Spawner, dir: &Path) -> Outcome {
    let w = &o.workload;
    let mut refs = |s| Reference::compute(w.kind, w.config(s));
    let budget = Duration::from_secs(o.seconds);
    let (its, setup) =
        closed_loop(o, spawner, dir, budget, MIN_ITERATIONS, |i| Workload::input_seed(o.seed, i), &mut refs);
    metrics::end_to_end(&its, &setup)
}

fn traced(o: &Opts, spawner: &mut child::Spawner, dir: &Path) -> Outcome {
    let w = &o.workload;
    let seed = Workload::input_seed(o.seed, 0);
    let cfg = w.config(seed);
    let reference = Reference::compute_all(cfg);
    let mut refs = |_| reference.clone();
    let (its, _) =
        closed_loop(o, spawner, dir, Duration::from_secs(o.seconds) / 2, TRACE_ITERATIONS, |_| seed, &mut refs);
    let traced = layers::traced_run(w, cfg, dir, &reference);
    let trace_file = o.work.join(format!("trace-{}-seed{}.json", w.name, o.seed));
    match std::fs::write(&trace_file, traced.tracer.to_json()) {
        Ok(()) => eprintln!("perfbench: spans written to {}", trace_file.display()),
        Err(e) => eprintln!("perfbench: {}: {e}", trace_file.display()),
    }
    metrics::traced(&its, &traced)
}
