//! Metric definitions, sample statistics and the JSON the harness
//! prints.

use crate::layers::Traced;
use crate::workload::{Iteration, Workload};
use crate::Outcome;
use std::fmt::Write as _;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] =
    [("wall_s", "s"), ("packets_per_s", "1/s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("traffic.intent_gen_ms", "ms"),
    ("traffic.intents", "count"),
    ("scenario.setup_ms", "ms"),
    ("scenario.run_day_ms", "ms"),
    ("scenario.packets", "count"),
    ("scenario.flows", "count"),
    ("scenario.synth_merge_ms", "ms"),
    ("scenario.run_day_serial_ms", "ms"),
    ("scenario.parallel_speedup", "x"),
    ("monitor.observe_ms", "ms"),
    ("monitor.ns_per_packet", "ns"),
    ("monitor.pkts_per_span", "count"),
    ("monitor.observe_serial_ms", "ms"),
    ("monitor.shard_speedup", "x"),
    ("monitor.finish_ms", "ms"),
    ("monitor.export_state_ms", "ms"),
    ("monitor.live_flows_peak", "count"),
    ("monitor.write_flows_ms", "ms"),
    ("monitor.read_flows_ms", "ms"),
    ("analytics.records_report_ms", "ms"),
    ("analytics.frame_build_ms", "ms"),
    ("analytics.rows", "count"),
    ("analytics.report_ms", "ms"),
    ("analytics.report_serial_ms", "ms"),
    ("analytics.render_ms", "ms"),
    ("analytics.segment_encode_ms", "ms"),
    ("analytics.segment_decode_ms", "ms"),
    ("analytics.segment_bytes", "bytes"),
    ("analytics.fold_ms", "ms"),
    ("campaign.run_ms", "ms"),
    ("campaign.resume_ms", "ms"),
    ("campaign.disk_bytes", "bytes"),
    ("campaign.overhead_ms", "ms"),
    ("cli.unattributed_ms", "ms"),
    ("cli.unattributed_share", "ratio"),
    ("cli.output_bytes", "bytes"),
];

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let q = quartiles(v);
    q.1
}

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method).
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (d[0], d[0], d[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                // unclamped delta: Python extrapolates at the ends too
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                d[j - 1] + (d[j] - d[j - 1]) * delta
            };
            (q(1), q(2), q(3))
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table.iter().find(|(n, _)| *n == name).expect("metric is declared");
    Metric { name, unit, value }
}

/// `{"name": {"n": .., "q1": .., "median": .., "q3": ..}, ...}`
fn samples_json(series: &[(&str, Vec<f64>)]) -> String {
    let mut s = String::from("{");
    for (i, (name, v)) in series.iter().enumerate() {
        let (q1, med, q3) = quartiles(v);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"n\": {}, \"q1\": {q1}, \"median\": {med}, \"q3\": {q3}}}", v.len());
    }
    s.push('}');
    s
}

/// Iterations that passed every check; all of them if none did (the
/// run then reports `correct: false` anyway).
fn passed(its: &[(Iteration, u64)]) -> Vec<&(Iteration, u64)> {
    let ok: Vec<_> = its.iter().filter(|(it, _)| it.failed == 0).collect();
    if ok.is_empty() {
        its.iter().collect()
    } else {
        ok
    }
}

/// The end-to-end metrics of a closed-loop run: per iteration, wall
/// and CPU summed over its invocations, peak RSS the largest of them,
/// packets per second the reference packet count over the wall; each
/// reported as the median over iterations.
pub fn end_to_end(its: &[(Iteration, u64)], setup: &[f64]) -> Outcome {
    let ok = passed(its);
    let col = |f: &dyn Fn(&(Iteration, u64)) -> f64| ok.iter().map(|x| f(x)).collect::<Vec<f64>>();
    let series = vec![
        ("wall_s", col(&|(it, _)| it.wall_s)),
        ("packets_per_s", col(&|(it, p)| ratio(*p as f64, it.wall_s))),
        ("cpu_s", col(&|(it, _)| it.cpu_s)),
        ("peak_rss_mb", col(&|(it, _)| it.peak_rss_mb)),
        ("setup_s", setup.to_vec()),
    ];
    let metrics = series.iter().map(|(n, v)| metric(&END_TO_END, n, median(v))).collect();
    let (attempted, failed, errors) = tally(its);
    Outcome { attempted, failed, errors, metrics, samples: samples_json(&series) }
}

fn tally(its: &[(Iteration, u64)]) -> (u64, u64, Vec<String>) {
    let attempted = its.iter().map(|(it, _)| it.attempted as u64).sum();
    let failed = its.iter().map(|(it, _)| it.failed as u64).sum();
    let errors = its.iter().flat_map(|(it, _)| it.errors.iter().cloned()).collect();
    (attempted, failed, errors)
}

/// The per-layer metrics of a traced run, given the end-to-end
/// iterations on the same input.
pub fn traced(its: &[(Iteration, u64)], t: &Traced) -> Outcome {
    let ok = passed(its);
    let wall_ms = median(&ok.iter().map(|(it, _)| it.wall_s * 1e3).collect::<Vec<_>>());
    let output_bytes = median(&ok.iter().map(|(it, _)| it.output_bytes as f64).collect::<Vec<_>>());
    let values = layer_values(t, wall_ms, output_bytes);
    let metrics = values.iter().map(|&(n, v)| metric(&PER_LAYER, n, v)).collect();
    let (mut attempted, mut failed, mut errors) = tally(its);
    attempted += t.checks as u64;
    failed += t.errors.len() as u64;
    errors.extend(t.errors.iter().cloned());
    // the split of the path: self time per span name, and the residual
    let tr = &t.tracer;
    let mut split: Vec<(&str, f64)> = Vec::new();
    if let Some(root) = tr.root("path") {
        let st = tr.self_times();
        for (i, s) in tr.spans.iter().enumerate() {
            if tr.is_under(i, root) {
                match split.iter_mut().find(|(n, _)| *n == s.name) {
                    Some((_, v)) => *v += st[i].as_secs_f64() * 1e3,
                    None => split.push((s.name, st[i].as_secs_f64() * 1e3)),
                }
            }
        }
    }
    let path_ms = tr.root("path").map_or(0.0, |r| tr.tree_self_ms(r));
    let mut samples = format!("{{\"wall_ms\": {wall_ms}, \"n\": {}, \"path_self_ms\": {{", ok.len());
    for (i, (n, v)) in split.iter().enumerate() {
        let _ = write!(samples, "{}\"{n}\": {v}", if i == 0 { "" } else { ", " });
    }
    let _ = write!(samples, "}}, \"path_total_ms\": {path_ms}, \"cli.unattributed_ms\": {}}}", wall_ms - path_ms);
    Outcome { attempted, failed, errors, metrics, samples }
}

/// Every per-layer value, derived from the spans and counts.
pub fn layer_values(t: &Traced, wall_ms: f64, output_bytes: f64) -> Vec<(&'static str, f64)> {
    let tr = &t.tracer;
    let c = &t.counts;
    let ms = |n: &str| tr.self_ms(n);
    let path_ms = tr.root("path").map_or(0.0, |r| tr.tree_self_ms(r));
    let unattributed = wall_ms - path_ms;
    vec![
        ("traffic.intent_gen_ms", ms("traffic.intent_gen")),
        ("traffic.intents", c.intents as f64),
        ("scenario.setup_ms", ms("scenario.setup")),
        ("scenario.run_day_ms", ms("scenario.run_day")),
        ("scenario.packets", c.packets as f64),
        ("scenario.flows", c.flows as f64),
        ("scenario.synth_merge_ms", ms("scenario.run_day") - ms("monitor.observe")),
        ("scenario.run_day_serial_ms", ms("scenario.run_day_serial")),
        ("scenario.parallel_speedup", ratio(ms("scenario.run_day_serial"), ms("scenario.run_day"))),
        ("monitor.observe_ms", ms("monitor.observe")),
        ("monitor.ns_per_packet", ratio(ms("monitor.observe") * 1e6, c.packets as f64)),
        ("monitor.pkts_per_span", ratio(c.packets as f64, c.replay_spans as f64)),
        ("monitor.observe_serial_ms", ms("monitor.observe_serial")),
        ("monitor.shard_speedup", ratio(ms("monitor.observe_serial"), ms("monitor.observe"))),
        ("monitor.finish_ms", ms("monitor.finish")),
        ("monitor.export_state_ms", ms("monitor.export_state")),
        ("monitor.live_flows_peak", c.live_flows_peak as f64),
        ("monitor.write_flows_ms", ms("monitor.write_flows")),
        ("monitor.read_flows_ms", ms("monitor.read_flows")),
        ("analytics.records_report_ms", ms("analytics.records_report")),
        ("analytics.frame_build_ms", ms("analytics.frame_build")),
        ("analytics.rows", c.rows as f64),
        ("analytics.report_ms", ms("analytics.report")),
        ("analytics.report_serial_ms", ms("analytics.report_serial")),
        ("analytics.render_ms", ms("analytics.render")),
        ("analytics.segment_encode_ms", ms("analytics.segment_encode")),
        ("analytics.segment_decode_ms", ms("analytics.segment_decode")),
        ("analytics.segment_bytes", c.segment_bytes as f64),
        ("analytics.fold_ms", ms("analytics.fold")),
        ("campaign.run_ms", ms("campaign.run")),
        ("campaign.resume_ms", ms("campaign.resume")),
        ("campaign.disk_bytes", c.campaign_disk_bytes as f64),
        (
            "campaign.overhead_ms",
            ms("campaign.run") + ms("campaign.resume") - ms("scenario.run_day") - ms("monitor.finish"),
        ),
        ("cli.unattributed_ms", unattributed),
        ("cli.unattributed_share", ratio(unattributed, wall_ms)),
        ("cli.output_bytes", output_bytes),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values cannot be written).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    let mut s =
        format!("{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{", attempted.max(1));
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    s.push_str("}}");
    s
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        // never look for a repository above the working directory
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain, source revision and workload parameters.
pub fn provenance(w: &Workload, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"workload\": {{\"name\": {}, \"customers\": {}, \"days\": {}, \"threads\": {}, \"shards\": {}}}}}",
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(w.name),
        w.customers,
        w.days,
        w.threads,
        w.shards,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of the entries in one array of BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let body = &text[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\"").skip(1).map(|s| s.split('"').nth(1).unwrap().to_string()).collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn every_declared_metric_is_emitted() {
        let e2e = end_to_end(&[(Iteration { wall_s: 1.0, ..Default::default() }, 10)], &[0.1]);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, declared("end_to_end"));
        let layer = traced(&[(Iteration { wall_s: 1.0, ..Default::default() }, 10)], &Traced::default());
        let names: Vec<&str> = layer.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, declared("per_layer"));
        let workloads: Vec<String> = crate::workload::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, declared("workloads"));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[Metric { name: "wall_s", unit: "s", value: 1.25 }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let bad = result_json(true, 3, 0, &[Metric { name: "wall_s", unit: "s", value: f64::NAN }]);
        assert!(bad.starts_with("{\"correct\": false"));
    }
}
