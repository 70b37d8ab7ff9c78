//! The traced run: one input driven in-process through the crates'
//! public functions, with a span around every call.
//!
//! Spans form two root trees:
//! * `path` mirrors what the workload's CLI invocations do, call for
//!   call. Its self times plus `cli.unattributed_ms` (process start,
//!   TSV and file I/O the CLI does inline) add up to the end-to-end
//!   wall time of the same input.
//! * `sweep` measures every layer the path does not reach, on the same
//!   input, so each workload reports every per-layer metric: layers the
//!   workload bypasses still show what they would cost at its size.

use crate::trace::Tracer;
use crate::workload::{abort_after_day, dir_bytes, records_report, replay_dataset, Kind, Reference, Workload};
use satwatch_analytics::{decode_segment, encode_segment, FlowFrame, ReportCtx, ReportFold};
use satwatch_campaign::{Campaign, RunOptions};
use satwatch_monitor::record::{read_flows, write_flows};
use satwatch_monitor::{DnsRecord, FlowRecord, ShardedProbe};
use satwatch_netstack::{Packet, PacketColumns, TcpFlags, TcpOption, Transport};
use satwatch_scenario::digest::{fnv1a, write_dns_line};
use satwatch_scenario::experiments::{paper_reports_columnar, FIG6_SERVICES};
use satwatch_scenario::{run_with_tap, Dataset, DayRunner, ScenarioConfig};
use satwatch_simcore::{SeedTree, SimTime};
use satwatch_traffic::{build_population, catalog::standard_catalog, generate_day, Country};
use std::path::Path;

/// Counts and sizes taken beside the spans.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub intents: u64,
    pub packets: u64,
    pub flows: u64,
    pub replay_spans: u64,
    pub live_flows_peak: u64,
    pub rows: u64,
    pub segment_bytes: u64,
    pub campaign_disk_bytes: u64,
}

/// A traced run's spans, counts and failed checks.
#[derive(Default)]
pub struct Traced {
    pub tracer: Tracer,
    pub counts: Counts,
    pub checks: u32,
    pub errors: Vec<String>,
}

type CampaignResult = (Result<satwatch_campaign::CampaignOutcome, String>, u64);

impl Traced {
    fn check(&mut self, what: &str, ok: bool) {
        self.checks += 1;
        if !ok {
            self.errors.push(format!("traced run: {what} differs from the reference"));
        }
    }

    fn check_campaign(&mut self, (outcome, disk_bytes): CampaignResult, r: &Reference) {
        self.counts.campaign_disk_bytes = disk_bytes;
        match outcome {
            Ok(o) => self.check(
                "campaign digests",
                o.dataset_digest == Some(r.dataset_digest) && o.report_digest == Some(r.report_digest),
            ),
            Err(e) => {
                self.checks += 1;
                self.errors.push(format!("traced run: campaign failed: {e}"));
            }
        }
    }
}

/// What the `path` tree produced besides the live dataset (which the
/// campaign path does not expose), for the checks and the sweep.
enum PathOut {
    Logs { tsv: Vec<u8>, text: String },
    Report { frame: Box<FlowFrame>, text: String },
    Campaign(CampaignResult),
}

/// FNV-1a of the flow log and DNS log bytes (the dataset digest).
fn records_digest(flows: &[FlowRecord], dns: &[DnsRecord]) -> u64 {
    let mut buf = Vec::new();
    write_flows(&mut buf, flows).expect("write to Vec cannot fail");
    for d in dns {
        write_dns_line(&mut buf, d).expect("write to Vec cannot fail");
    }
    fnv1a(&buf)
}

/// `DayRunner::new` + `ShardedProbe::new`, every day, `finish`: the
/// batch run the CLI's `simulate` and `report` make.
fn live_run(tr: &mut Tracer, cfg: ScenarioConfig) -> Dataset {
    let (mut runner, mut probe) = tr.span("scenario.setup", |_| {
        let runner = DayRunner::new(cfg);
        let probe = ShardedProbe::new(runner.probe_config(), cfg.probe_shards);
        (runner, probe)
    });
    for day in 0..cfg.days {
        tr.span("scenario.run_day", |_| runner.run_day(&mut probe, day));
    }
    let packets = probe.packets;
    let (flows, dns) = tr.span("monitor.finish", |_| probe.finish());
    Dataset { flows, dns, enrichment: runner.enrichment(), packets }
}

/// The span-port stream rebuilt as one [`PacketColumns`] run plus the
/// row ranges of its same-flow stretches, as the live driver hands
/// them to the probe. Zero-filled payloads point at a shared zero
/// buffer, as bulk payloads do in the live run.
#[derive(Default)]
struct Capture {
    cols: PacketColumns,
    payload: Vec<u8>,
    max_zero: usize,
    /// Start addresses of buffers seen to hold only zeros. Bulk
    /// payloads are prefixes of one shared, immutable zero buffer, so
    /// its address identifies them without scanning gigabytes.
    zero_bufs: Vec<*const u8>,
    spans: Vec<(usize, usize)>,
    last_key: Option<(u64, u64, u8)>,
}

impl Capture {
    fn push(&mut self, t: SimTime, pkt: &Packet) {
        let (src, dst) = (pkt.ip.src, pkt.ip.dst);
        let pay = &pkt.payload[..];
        let known_zero = self.zero_bufs.contains(&pay.as_ptr());
        if !known_zero && pay.len() >= 4096 && pay.iter().all(|&b| b == 0) {
            self.zero_bufs.push(pay.as_ptr());
        }
        let (off, len) = if known_zero || pay.iter().all(|&b| b == 0) {
            self.max_zero = self.max_zero.max(pay.len());
            (satwatch_netstack::columns::NO_ARENA, pay.len() as u32)
        } else {
            self.payload.extend_from_slice(pay);
            ((self.payload.len() - pay.len()) as u32, pay.len() as u32)
        };
        let (sport, dport) = match &pkt.transport {
            Transport::Tcp(h) => {
                let mss = h.options.iter().find_map(|o| if let TcpOption::Mss(m) = o { Some(*m) } else { None });
                let flags = TcpFlags(h.flags.0);
                self.cols.push_tcp(
                    t,
                    src,
                    dst,
                    h.src_port,
                    h.dst_port,
                    flags,
                    mss.unwrap_or(0),
                    h.seq.0,
                    h.ack.0,
                    off,
                    len,
                );
                (h.src_port, h.dst_port)
            }
            Transport::Udp(h) => {
                self.cols.push_udp(t, src, dst, h.src_port, h.dst_port, off, len);
                (h.src_port, h.dst_port)
            }
        };
        let a = (u32::from(src) as u64) << 16 | sport as u64;
        let b = (u32::from(dst) as u64) << 16 | dport as u64;
        let key = (a.min(b), a.max(b), pkt.ip.protocol);
        let row = self.cols.len() - 1;
        if self.last_key == Some(key) {
            self.spans.last_mut().expect("a span is open").1 = row + 1;
        } else {
            self.spans.push((row, row + 1));
            self.last_key = Some(key);
        }
    }

    fn seal(mut self) -> (PacketColumns, Vec<(usize, usize)>) {
        self.cols.payload = bytes::Bytes::from(std::mem::take(&mut self.payload));
        self.cols.zeros = bytes::Bytes::from(vec![0u8; self.max_zero]);
        (self.cols, self.spans)
    }
}

/// Run the traced run of `w` on `cfg` (one input), with scratch files
/// under `dir`.
pub fn traced_run(w: &Workload, cfg: ScenarioConfig, dir: &Path, reference: &Reference) -> Traced {
    let mut t = Traced::default();
    let workers = cfg.threads.max(1);

    // ---------------------------------------------------------- path
    let mut tr = std::mem::take(&mut t.tracer);
    let (ds, out) = tr.span("path", |tr| match w.kind {
        Kind::Logs => {
            let (ds, tsv) = tr.span("cli.simulate", |tr| {
                let ds = live_run(tr, cfg);
                let tsv = tr.span("monitor.write_flows", |_| write_tsv(&ds.flows));
                (ds, tsv)
            });
            let text = tr.span("cli.replay", |tr| {
                let flows = tr.span("monitor.read_flows", |_| read_flows(&tsv[..]).expect("flow log round-trips"));
                let replay = replay_dataset(flows, &ds);
                tr.span("analytics.records_report", |_| records_report(&replay))
            });
            (Some(ds), PathOut::Logs { tsv, text })
        }
        Kind::ParallelReport => tr.span("cli.report", |tr| {
            let ds = live_run(tr, cfg);
            let frame = tr.span("analytics.frame_build", |_| FlowFrame::from_records(&ds.flows, &ds.enrichment));
            let reports =
                tr.span("analytics.report", |_| paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, 10, workers));
            let text = tr.span("analytics.render", |_| reports.render_all());
            (Some(ds), PathOut::Report { frame: Box::new(frame), text })
        }),
        Kind::Campaign => (None, PathOut::Campaign(campaign_path(tr, cfg, &dir.join("campaign")))),
    });
    let frame = match out {
        PathOut::Logs { tsv, text } => {
            t.check("flows.tsv", fnv1a(&tsv) == reference.flows_tsv);
            t.check("replay figures", fnv1a(text.as_bytes()) == reference.replay_stdout);
            None
        }
        PathOut::Report { frame, text } => {
            t.check("report", fnv1a(text.as_bytes()) == reference.report_digest);
            Some(*frame)
        }
        PathOut::Campaign(c) => {
            t.check_campaign(c, reference);
            None
        }
    };

    // ---------------------------------------------------------- sweep
    tr.span("sweep", |tr| {
        let ds = &ds.unwrap_or_else(|| live_run(tr, cfg));
        t.counts.packets = ds.packets;
        t.counts.flows = ds.flows.len() as u64;
        let live_digest = records_digest(&ds.flows, &ds.dns);
        t.check("live dataset", live_digest == reference.dataset_digest);

        // intents, generated serially for every customer-day
        let seeds = SeedTree::new(cfg.seed);
        let population = build_population(cfg.customers, &seeds);
        let catalog = standard_catalog();
        t.counts.intents = tr.span("traffic.intent_gen", |_| {
            let mut n = 0u64;
            for day in 0..cfg.days {
                for (i, c) in population.customers.iter().enumerate() {
                    let mut rng = seeds.rng_idx("intents", day * 1_000_000 + i as u64);
                    n += generate_day(c, i, &catalog, day, &mut rng).len() as u64;
                }
            }
            n
        });

        // the same days at 1 thread / 1 shard, exporting probe state
        // at every day end as a campaign checkpoint does
        let serial = cfg.with_threads(1).with_probe_shards(1);
        let mut runner = DayRunner::new(serial);
        let mut probe = ShardedProbe::new(runner.probe_config(), 1);
        for day in 0..cfg.days {
            tr.span("scenario.run_day_serial", |_| runner.run_day(&mut probe, day));
            let state = tr.span("monitor.export_state", |_| probe.export_state());
            t.counts.live_flows_peak = t.counts.live_flows_peak.max(state.flows.len() as u64);
        }
        drop(probe.finish());

        // probe replay: capture the span-port stream untimed, then feed
        // it to fresh probes through `observe_cols`
        let mut cap = Capture::default();
        let tapped = run_with_tap(serial, |ts, pkt| cap.push(ts, pkt));
        t.check("tapped run", records_digest(&tapped.flows, &tapped.dns) == live_digest);
        drop(tapped);
        let (cols, spans) = cap.seal();
        t.counts.replay_spans = spans.len() as u64;
        // an untimed first pass warms the allocator, so the two timed
        // replays start from the same state
        let replay = |probe: &mut ShardedProbe| {
            for &(a, b) in &spans {
                probe.observe_cols(&cols, a, b);
            }
        };
        let mut warm = ShardedProbe::new(runner.probe_config(), 1);
        replay(&mut warm);
        drop(warm.finish());
        for (name, shards) in [("monitor.observe", cfg.probe_shards), ("monitor.observe_serial", 1)] {
            let mut probe = ShardedProbe::new(runner.probe_config(), shards);
            tr.span(name, |_| replay(&mut probe));
            let (flows, dns) = probe.finish();
            t.check(name, records_digest(&flows, &dns) == live_digest);
        }
        drop((cols, spans));

        if w.kind != Kind::Logs {
            let tsv = tr.span("monitor.write_flows", |_| write_tsv(&ds.flows));
            let back = tr.span("monitor.read_flows", |_| read_flows(&tsv[..]).expect("flow log round-trips"));
            t.check("flow log round trip", write_tsv(&back) == tsv);
            let replay = replay_dataset(back, ds);
            let text = tr.span("analytics.records_report", |_| records_report(&replay));
            t.check("replay figures", fnv1a(text.as_bytes()) == reference.replay_stdout);
        }

        let frame = frame.unwrap_or_else(|| {
            tr.span("analytics.frame_build", |_| FlowFrame::from_records(&ds.flows, &ds.enrichment))
        });
        t.counts.rows = frame.len() as u64;
        if w.kind != Kind::ParallelReport {
            let reports =
                tr.span("analytics.report", |_| paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, 10, workers));
            let text = tr.span("analytics.render", |_| reports.render_all());
            t.check("report", fnv1a(text.as_bytes()) == reference.report_digest);
        }
        let serial_text = tr
            .span("analytics.report_serial", |_| paper_reports_columnar(&frame, &ds.dns, &ds.enrichment, 10, 1))
            .render_all();
        t.check("serial report", fnv1a(serial_text.as_bytes()) == reference.report_digest);
        drop(frame);

        // day segments, as a campaign seals them, and the report fold
        let mut day_frames = Vec::new();
        let mut rest = &ds.flows[..];
        while let Some(first) = rest.first() {
            let n = rest.iter().take_while(|f| f.first.day() == first.first.day()).count();
            day_frames.push(FlowFrame::from_records(&rest[..n], &ds.enrichment));
            rest = &rest[n..];
        }
        let mut decoded = Vec::new();
        for fr in &day_frames {
            let bytes = tr.span("analytics.segment_encode", |_| encode_segment(fr));
            let back = tr.span("analytics.segment_decode", |_| decode_segment(&bytes));
            t.counts.segment_bytes += bytes.len() as u64;
            t.check("segment round trip", back.as_ref().is_ok_and(|b| encode_segment(b) == bytes));
            decoded.extend(back.ok());
        }
        drop(day_frames);
        let ctx = ReportCtx { enrichment: &ds.enrichment, countries: &Country::TOP6 };
        let folded = tr.span("analytics.fold", |_| {
            let mut fold = ReportFold::new(&ds.dns, ctx);
            for fr in &decoded {
                fold.absorb_frame(fr, workers);
            }
            fold.finish(&FIG6_SERVICES, 10, workers)
        });
        t.check("folded report", fnv1a(folded.render_all().as_bytes()) == reference.report_digest);

        if w.kind != Kind::Campaign {
            let c = campaign_path(tr, cfg, &dir.join("campaign"));
            t.check_campaign(c, reference);
        }
    });
    t.tracer = tr;
    t
}

fn write_tsv(flows: &[FlowRecord]) -> Vec<u8> {
    let mut v = Vec::new();
    write_flows(&mut v, flows).expect("write to Vec cannot fail");
    v
}

/// `Campaign::create` + `run` up to the abort day, then `resume` +
/// `run` to the end, in `dir` (removed afterwards). Returns the final
/// outcome and the campaign's size on disk.
fn campaign_path(tr: &mut Tracer, cfg: ScenarioConfig, dir: &Path) -> CampaignResult {
    let _ = std::fs::remove_dir_all(dir);
    let first = tr.span("campaign.run", |_| {
        let abort_after_day = Some(abort_after_day(cfg.days));
        Campaign::create(dir, cfg)?.run(&RunOptions { abort_after_day, ..RunOptions::default() })
    });
    let done = first.and_then(|_| tr.span("campaign.resume", |_| Campaign::resume(dir)?.run(&RunOptions::default())));
    let disk_bytes = dir_bytes(dir);
    let _ = std::fs::remove_dir_all(dir);
    (done.map_err(|e| e.to_string()), disk_bytes)
}
