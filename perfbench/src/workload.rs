//! The CLI workloads: their configurations, the in-process reference
//! each invocation is checked against, and one closed-loop iteration of
//! real `satwatch` child processes.

use crate::child::Usage;
use satwatch_analytics::FlowFrame;
use satwatch_monitor::record::{read_flows, write_flows};
use satwatch_scenario::digest::fnv1a;
use satwatch_scenario::{experiments, run, Dataset, ScenarioConfig};
use std::path::Path;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `simulate --out T`, then `replay --logs T`.
    Logs,
    /// `campaign --out T --abort-after-day 1`, then `campaign --resume T`.
    Campaign,
    /// `report --threads 2 --shards 2`, stdout only.
    ParallelReport,
}

/// One workload: which CLI path it drives and at what size.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub customers: u32,
    pub days: u64,
    pub threads: usize,
    pub shards: usize,
}

/// Sizes are chosen so one iteration takes about a second on a 2-core
/// host, so a 35 s run holds 15-30 iterations, each on a distinct input.
/// Input size varies with the seed (about ±15 % in packets at these
/// sizes, mostly from the customer mix), so the run's median needs many
/// inputs; for that reason the campaign runs 3 days, not 4, over more
/// customers.
pub const WORKLOADS: [Workload; 3] = [
    Workload { name: "logs", kind: Kind::Logs, customers: 40, days: 1, threads: 1, shards: 1 },
    Workload { name: "campaign", kind: Kind::Campaign, customers: 30, days: 3, threads: 1, shards: 1 },
    Workload { name: "parallel-report", kind: Kind::ParallelReport, customers: 60, days: 1, threads: 2, shards: 2 },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The scenario seed of the `i`-th input of a run with `seed`.
    pub fn input_seed(seed: u64, i: u64) -> u64 {
        seed.wrapping_mul(1_000_003).wrapping_add(i)
    }

    /// The configuration the CLI builds from this workload's flags.
    pub fn config(&self, input_seed: u64) -> ScenarioConfig {
        ScenarioConfig::tiny()
            .with_customers(self.customers)
            .with_days(self.days)
            .with_seed(input_seed)
            .with_threads(self.threads)
            .with_probe_shards(self.shards)
    }

    /// The `satwatch` argument lists of one iteration, in order.
    pub fn invocations(&self, input_seed: u64, out: &Path) -> Vec<Vec<String>> {
        let out = out.display().to_string();
        let scenario = |cmd: &str| {
            let mut v = vec![cmd.to_string()];
            for (k, val) in [
                ("customers", self.customers.to_string()),
                ("days", self.days.to_string()),
                ("seed", input_seed.to_string()),
            ] {
                v.push(format!("--{k}"));
                v.push(val);
            }
            v
        };
        let with = |mut v: Vec<String>, extra: &[&str]| {
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        match self.kind {
            Kind::Logs => {
                vec![with(scenario("simulate"), &["--out", &out]), vec!["replay".into(), "--logs".into(), out]]
            }
            Kind::Campaign => vec![
                with(
                    scenario("campaign"),
                    &["--out", &out, "--abort-after-day", &abort_after_day(self.days).to_string()],
                ),
                vec!["campaign".into(), "--resume".into(), out],
            ],
            Kind::ParallelReport => vec![with(
                scenario("report"),
                &["--threads", &self.threads.to_string(), "--shards", &self.shards.to_string()],
            )],
        }
    }
}

/// The day after which a campaign's first invocation stops: day 1, or
/// day 0 for a 1-day campaign.
pub fn abort_after_day(days: u64) -> u64 {
    1.min(days.saturating_sub(1))
}

/// What a correct run of one input must produce, computed in-process
/// at 1 thread / 1 shard (the oracle every parallel path must match).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    pub packets: u64,
    pub flows: usize,
    pub dns: usize,
    /// FNV-1a of `flows.tsv`.
    pub flows_tsv: u64,
    /// FNV-1a of `replay` stdout.
    pub replay_stdout: u64,
    /// `dataset_digest` of the batch run.
    pub dataset_digest: u64,
    /// FNV-1a of `PaperReports::render_all` (the campaign report digest).
    pub report_digest: u64,
    /// FNV-1a of `report --figure all` stdout: every report printed
    /// with `println!`, so the same text plus one newline.
    pub report_stdout: u64,
}

impl Reference {
    /// The reference for an input of `kind`; fields the workload's
    /// checks do not read are left at 0.
    pub fn compute(kind: Kind, cfg: ScenarioConfig) -> Reference {
        let ds = run(cfg.with_threads(1).with_probe_shards(1));
        let mut r = Reference { packets: ds.packets, flows: ds.flows.len(), dns: ds.dns.len(), ..Reference::default() };
        match kind {
            Kind::Logs => {
                let mut tsv = Vec::new();
                write_flows(&mut tsv, &ds.flows).expect("write to Vec cannot fail");
                let replay = replay_dataset(read_flows(&tsv[..]).expect("flow log round-trips"), &ds);
                r.flows_tsv = fnv1a(&tsv);
                r.replay_stdout = fnv1a(records_report(&replay).as_bytes());
            }
            Kind::Campaign | Kind::ParallelReport => {
                let frame = FlowFrame::from_records(&ds.flows, &ds.enrichment);
                let report = experiments::paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, 10, 1).render_all();
                r.dataset_digest = satwatch_scenario::dataset_digest(&ds);
                r.report_digest = fnv1a(report.as_bytes());
                r.report_stdout = fnv1a(format!("{report}\n").as_bytes());
            }
        }
        r
    }

    /// Every field, for the traced run, which checks all layers.
    pub fn compute_all(cfg: ScenarioConfig) -> Reference {
        let logs = Reference::compute(Kind::Logs, cfg);
        Reference {
            flows_tsv: logs.flows_tsv,
            replay_stdout: logs.replay_stdout,
            ..Reference::compute(Kind::ParallelReport, cfg)
        }
    }
}

/// The dataset `replay` rebuilds from the logs: flows read back from
/// `flows.tsv`, DNS response times at the 3 decimals `dns.tsv` keeps,
/// the capture length recovered from the last flow's day, and no beam
/// table (`enrichment.tsv` does not carry it).
pub fn replay_dataset(flows: Vec<satwatch_monitor::FlowRecord>, live: &Dataset) -> Dataset {
    let dns = live
        .dns
        .iter()
        .map(|d| {
            let mut d = d.clone();
            d.response_ms = d.response_ms.map(|v| format!("{v:.3}").parse().expect("formatted float parses"));
            d
        })
        .collect();
    let mut enrichment = live.enrichment.clone();
    enrichment.beams.clear();
    enrichment.days = flows.iter().map(|f| f.first.day()).max().unwrap_or(0) + 1;
    Dataset { flows, dns, enrichment, packets: 0 }
}

/// The record-path figures `replay` prints, exactly as it prints them.
pub fn records_report(ds: &Dataset) -> String {
    [
        experiments::table1(ds).render(),
        experiments::fig2(ds).render(),
        experiments::fig9(ds).render(),
        experiments::fig10(ds).render(),
        experiments::fig11(ds).render(),
    ]
    .iter()
    .map(|r| format!("{r}\n"))
    .collect()
}

/// One closed-loop iteration: every invocation of the workload on one
/// input, measured from outside and checked.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Bytes the children wrote to files and stdout.
    pub output_bytes: u64,
    pub attempted: u32,
    pub failed: u32,
    pub errors: Vec<String>,
}

/// A child's outputs, as the checks see them.
pub struct Outputs<'a> {
    pub usage: &'a Usage,
    pub stdout: &'a [u8],
    pub stderr: &'a str,
    /// The iteration's output directory.
    pub out: &'a Path,
}

pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs `args` in a directory with stdout and stderr sent to files:
/// `(args, dir, stdout, stderr)`. The harness passes its spawner.
pub type Spawn<'a> = dyn FnMut(&[String], &Path, &Path, &Path) -> std::io::Result<Usage> + 'a;

/// Run one iteration of `w` on `input_seed` in the empty directory
/// `dir`, starting each invocation with `spawn`.
pub fn run_iteration(
    w: &Workload,
    spawn: &mut Spawn<'_>,
    dir: &Path,
    input_seed: u64,
    reference: &Reference,
) -> Iteration {
    let mut it = Iteration::default();
    let out = dir.join("out");
    for (step, args) in w.invocations(input_seed, &out).into_iter().enumerate() {
        it.attempted += 1;
        let (stdout_path, stderr_path) = (dir.join(format!("stdout-{step}")), dir.join(format!("stderr-{step}")));
        let usage = match spawn(&args, dir, &stdout_path, &stderr_path) {
            Ok(u) => u,
            Err(e) => {
                it.failed += 1;
                it.errors.push(format!("{}: spawn failed: {e}", args[0]));
                return it;
            }
        };
        it.wall_s += usage.wall_s;
        it.cpu_s += usage.cpu_s;
        it.peak_rss_mb = it.peak_rss_mb.max(usage.max_rss_mb);
        let stdout = std::fs::read(&stdout_path).unwrap_or_default();
        let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        it.output_bytes += stdout.len() as u64;
        let o = Outputs { usage: &usage, stdout: &stdout, stderr: &stderr, out: &out };
        if let Err(e) = check(w, step, &o, reference) {
            it.failed += 1;
            it.errors.push(format!("{} (step {step}): {e}", args.join(" ")));
            // later steps read this step's output
            return it;
        }
    }
    it.output_bytes += dir_bytes(&out);
    it
}

/// Check one invocation's outputs against the reference. A nonzero
/// exit, a timeout and any mismatch are all failures.
pub fn check(w: &Workload, step: usize, o: &Outputs<'_>, r: &Reference) -> Result<(), String> {
    if o.usage.timed_out {
        return Err(format!("timed out after {CHILD_TIMEOUT:?}"));
    }
    if !o.usage.ok() {
        return Err(format!("exit status {:?}; stderr: {}", o.usage.code, o.stderr.trim()));
    }
    let want = |what: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got:#x}, want {want:#x}"))
        }
    };
    let counts = || -> Result<(), String> {
        let got = parse_done(o.stderr).ok_or("no `done in …: N packets, M flows, K DNS` line on stderr")?;
        if got != (r.packets, r.flows as u64, r.dns as u64) {
            return Err(format!("packets/flows/dns {got:?}, want {:?}", (r.packets, r.flows, r.dns)));
        }
        Ok(())
    };
    match (w.kind, step) {
        (Kind::Logs, 0) => {
            counts()?;
            let tsv = std::fs::read(o.out.join("flows.tsv")).map_err(|e| format!("flows.tsv: {e}"))?;
            want("flows.tsv digest", fnv1a(&tsv), r.flows_tsv)?;
            let dns = std::fs::read_to_string(o.out.join("dns.tsv")).map_err(|e| format!("dns.tsv: {e}"))?;
            want("dns.tsv rows", dns.lines().count().saturating_sub(1) as u64, r.dns as u64)
        }
        (Kind::Logs, _) => {
            let line = format!("replaying {} flows / {} DNS transactions", r.flows, r.dns);
            if !o.stderr.contains(&line) {
                return Err(format!("stderr lacks {line:?}"));
            }
            want("replay stdout digest", fnv1a(o.stdout), r.replay_stdout)
        }
        (Kind::Campaign, 0) => {
            // an aborted campaign prints only how many days it sealed
            let want_out = format!("campaign_days: {}\n", abort_after_day(w.days) + 1);
            if o.stdout != want_out.as_bytes() {
                return Err(format!("stdout {:?}, want {want_out:?}", String::from_utf8_lossy(o.stdout)));
            }
            Ok(())
        }
        (Kind::Campaign, _) => {
            let field = |k: &str| {
                let v = stdout_field(o.stdout, k).ok_or(format!("no {k} line"))?;
                u64::from_str_radix(&v, 16).map_err(|e| format!("{k}: {e}"))
            };
            want("campaign_dataset_digest", field("campaign_dataset_digest")?, r.dataset_digest)?;
            want("campaign_report_digest", field("campaign_report_digest")?, r.report_digest)
        }
        (Kind::ParallelReport, _) => {
            counts()?;
            // stdout must equal the 1-thread render byte for byte
            want("report stdout digest", fnv1a(o.stdout), r.report_stdout)
        }
    }
}

/// `(packets, flows, dns)` from the CLI's `done in …` stderr line.
pub fn parse_done(stderr: &str) -> Option<(u64, u64, u64)> {
    let line = stderr.lines().find(|l| l.starts_with("done in "))?;
    let (_, rest) = line.split_once(": ")?;
    let mut nums = rest.split(", ").map(|part| part.split(' ').next().and_then(|n| n.parse::<u64>().ok()));
    Some((nums.next()??, nums.next()??, nums.next()??))
}

/// The value of a `key: value` line on stdout.
fn stdout_field(stdout: &[u8], key: &str) -> Option<String> {
    let text = std::str::from_utf8(stdout).ok()?;
    text.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(": ").map(str::to_string))
}

/// Total size of the regular files under `dir` (0 if it is missing).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child;

    /// Run the parallel-report iteration against a fake `satwatch`:
    /// a shell script printing `stdout`, the reference's counts on
    /// stderr, and exiting with `code`.
    fn fake_report(stdout: &str, code: i32) -> Iteration {
        let w = find("parallel-report").unwrap();
        let r = Reference { packets: 10, flows: 2, dns: 1, report_stdout: fnv1a(b"report\n"), ..Reference::default() };
        let dir = std::env::temp_dir().join(format!(
            "perfbench-fake-{}-{code}-{:x}",
            std::process::id(),
            fnv1a(stdout.as_bytes())
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let script =
            format!("printf '{stdout}'; echo 'done in 1ms: 10 packets, 2 flows, 1 DNS transactions' >&2; exit {code}");
        let mut spawn = |args: &[String], d: &Path, out: &Path, err: &Path| {
            let mut cmd = std::process::Command::new("sh");
            cmd.arg("-c").arg(&script).arg("satwatch").args(args);
            child::run(&mut cmd, d, out, err, CHILD_TIMEOUT)
        };
        let it = run_iteration(&w, &mut spawn, &dir, 1, &r);
        std::fs::remove_dir_all(&dir).unwrap();
        it
    }

    #[test]
    fn correct_output_passes() {
        let it = fake_report("report\\n", 0);
        assert_eq!((it.attempted, it.failed), (1, 0), "{:?}", it.errors);
    }

    #[test]
    fn corrupted_output_is_a_failure() {
        let it = fake_report("rePort\\n", 0);
        assert_eq!((it.attempted, it.failed), (1, 1));
        assert!(it.errors[0].contains("report stdout digest"), "{:?}", it.errors);
    }

    #[test]
    fn nonzero_exit_is_a_failure() {
        let it = fake_report("report\\n", 3);
        assert_eq!((it.attempted, it.failed), (1, 1));
        assert!(it.errors[0].contains("exit status Some(3)"), "{:?}", it.errors);
    }

    #[test]
    fn done_line_parses() {
        let err = "simulating …\ndone in 163.0ms: 327279 packets, 28800 flows, 6656 DNS transactions\nwrote x";
        assert_eq!(parse_done(err), Some((327279, 28800, 6656)));
        assert_eq!(parse_done("nothing"), None);
    }
}
