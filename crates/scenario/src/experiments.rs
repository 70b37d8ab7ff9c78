//! Per-experiment runners: one function per table/figure of the
//! paper, plus the ablations DESIGN.md calls out. Each takes an
//! already-run [`Dataset`] so several figures can share one
//! (expensive) simulation.

use crate::run::Dataset;
use satwatch_analytics::engine::{self, ReportCtx};
use satwatch_analytics::report::*;
use satwatch_analytics::{Enrichment, FlowFrame, PaperReports};
use satwatch_monitor::DnsRecord;
use satwatch_traffic::Country;

/// The Fig 6 service subset (services the user intentionally visits).
pub const FIG6_SERVICES: [&str; 12] = [
    "Google",
    "Whatsapp",
    "Snapchat",
    "Wechat",
    "Telegram",
    "Instagram",
    "Tiktok",
    "Netflix",
    "Primevideo",
    "Sky",
    "Spotify",
    "Dropbox",
];

/// Top-6 countries as a slice (Fig 6–11 scope).
pub fn top6() -> Vec<Country> {
    Country::TOP6.to_vec()
}

// Each per-figure runner builds the dataset's frame and runs one engine
// fold over it; callers wanting several outputs should build one
// `PaperReports` with `paper_reports` instead.

fn frame(ds: &Dataset) -> FlowFrame {
    FlowFrame::from_records(&ds.flows, &ds.enrichment)
}

fn ctx(ds: &Dataset) -> ReportCtx<'_> {
    ReportCtx { enrichment: &ds.enrichment, countries: &Country::TOP6 }
}

pub fn table1(ds: &Dataset) -> Table1 {
    engine::table1_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig2(ds: &Dataset) -> Fig2 {
    engine::fig2_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig3(ds: &Dataset) -> Fig3 {
    engine::fig3_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig4(ds: &Dataset) -> Fig4 {
    engine::fig4_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig5(ds: &Dataset) -> Fig5 {
    engine::fig5_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig6(ds: &Dataset) -> Fig6 {
    engine::fig6_frame(&frame(ds), ctx(ds), &FIG6_SERVICES, 1)
}

pub fn fig7(ds: &Dataset) -> Fig7 {
    engine::fig7_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig8a(ds: &Dataset) -> Fig8a {
    engine::fig8a_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig8b(ds: &Dataset) -> Fig8b {
    engine::fig8b_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig9(ds: &Dataset) -> Fig9 {
    engine::fig9_frame(&frame(ds), ctx(ds), 1)
}

pub fn fig10(ds: &Dataset) -> Fig10 {
    engine::fig10_dns(&ds.dns, ctx(ds), 1)
}

/// Table 2 (and its Appendix B extensions, Tables 4–5).
pub fn table_cdn(ds: &Dataset, min_flows: usize) -> TableCdnSelection {
    engine::table_cdn_frame(&frame(ds), &ds.dns, ctx(ds), min_flows, 1)
}

pub fn fig11(ds: &Dataset) -> Fig11 {
    engine::fig11_frame(&frame(ds), ctx(ds), 1)
}

/// Every paper output over a dataset: one frame, one fused sweep.
pub fn paper_reports(ds: &Dataset, min_flows: usize, workers: usize) -> PaperReports {
    paper_reports_columnar(&frame(ds), &ds.dns, &ds.enrichment, min_flows, workers)
}

/// Every paper output over a built frame (batch, streamed or
/// segment-read), with the paper's country and service scope.
pub fn paper_reports_columnar(
    fr: &FlowFrame,
    dns: &[DnsRecord],
    enr: &Enrichment,
    min_flows: usize,
    workers: usize,
) -> PaperReports {
    let ctx = ReportCtx { enrichment: enr, countries: &Country::TOP6 };
    satwatch_analytics::report_all(fr, dns, ctx, &FIG6_SERVICES, min_flows, workers)
}

/// Summary statistics for ablation comparisons.
#[derive(Clone, Copy, Debug, Default)]
pub struct AblationSummary {
    /// Median ground RTT of African customers' flows, ms.
    pub african_ground_rtt_ms: f64,
    /// Median DNS response time, ms.
    pub dns_median_ms: f64,
    /// Median satellite RTT, ms.
    pub sat_rtt_median_ms: f64,
    /// Mean time-to-first-data-byte over TLS flows, s.
    pub ttfb_s: f64,
}

pub fn ablation_summary(ds: &Dataset) -> AblationSummary {
    let enr: &Enrichment = &ds.enrichment;
    let mut african_rtt: Vec<f64> = ds
        .flows
        .iter()
        .filter(|f| enr.country(f.client).is_some_and(|c| c.is_african()) && f.ground_rtt.samples > 0)
        .map(|f| f.ground_rtt.avg_ms)
        .collect();
    african_rtt.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut dns_ms: Vec<f64> = ds.dns.iter().filter_map(|d| d.response_ms).collect();
    dns_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut sat: Vec<f64> = ds.flows.iter().filter_map(|f| f.sat_rtt_ms).collect();
    sat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ttfb: Vec<f64> = ds
        .flows
        .iter()
        .filter(|f| f.l7 == satwatch_monitor::L7Protocol::TlsHttps)
        .filter_map(|f| f.s2c_data_first.map(|t| (t - f.first).as_secs_f64()))
        .collect();
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { v[v.len() / 2] };
    AblationSummary {
        african_ground_rtt_ms: med(&african_rtt),
        dns_median_ms: med(&dns_ms),
        sat_rtt_median_ms: med(&sat),
        ttfb_s: if ttfb.is_empty() { f64::NAN } else { ttfb.iter().sum::<f64>() / ttfb.len() as f64 },
    }
}
