//! Golden equivalence: the columnar engine's fused `report_all` must
//! reproduce the record oracle's paper outputs byte for byte — batch-
//! or stream-built frame, any worker count, any shard count.

use satwatch_analytics::{oracle, Enrichment, FlowFrame, PaperReports, ReportCtx};
use satwatch_monitor::{DnsRecord, FlowRecord};
use satwatch_scenario::experiments::{paper_reports_columnar, FIG6_SERVICES};
use satwatch_scenario::{run, run_streaming, ScenarioConfig};
use satwatch_traffic::Country;

fn cfg(shards: usize) -> ScenarioConfig {
    ScenarioConfig::tiny().with_seed(42).with_customers(30).with_probe_shards(shards)
}

const MIN_FLOWS: usize = 5;

/// The record oracle at the scope `paper_reports_columnar` uses.
fn paper_reports_records(flows: &[FlowRecord], dns: &[DnsRecord], enr: &Enrichment) -> PaperReports {
    let ctx = ReportCtx { enrichment: enr, countries: &Country::TOP6 };
    oracle::paper_reports(flows, dns, ctx, &FIG6_SERVICES, MIN_FLOWS)
}

#[test]
fn columnar_reports_match_record_reports_field_by_field() {
    let ds = run(cfg(1));
    let records = paper_reports_records(&ds.flows, &ds.dns, &ds.enrichment);
    let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    assert_eq!(fr.len(), ds.flows.len());
    for workers in [1usize, 4] {
        let columnar = paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, MIN_FLOWS, workers);
        // field-by-field so a regression names the figure it broke
        assert_eq!(format!("{:?}", records.table1), format!("{:?}", columnar.table1), "table1 w={workers}");
        assert_eq!(format!("{:?}", records.fig2), format!("{:?}", columnar.fig2), "fig2 w={workers}");
        assert_eq!(format!("{:?}", records.fig3), format!("{:?}", columnar.fig3), "fig3 w={workers}");
        assert_eq!(format!("{:?}", records.fig4), format!("{:?}", columnar.fig4), "fig4 w={workers}");
        assert_eq!(format!("{:?}", records.fig5), format!("{:?}", columnar.fig5), "fig5 w={workers}");
        assert_eq!(format!("{:?}", records.fig6), format!("{:?}", columnar.fig6), "fig6 w={workers}");
        assert_eq!(format!("{:?}", records.fig7), format!("{:?}", columnar.fig7), "fig7 w={workers}");
        assert_eq!(format!("{:?}", records.fig8a), format!("{:?}", columnar.fig8a), "fig8a w={workers}");
        assert_eq!(format!("{:?}", records.fig8b), format!("{:?}", columnar.fig8b), "fig8b w={workers}");
        assert_eq!(format!("{:?}", records.fig9), format!("{:?}", columnar.fig9), "fig9 w={workers}");
        assert_eq!(format!("{:?}", records.fig10), format!("{:?}", columnar.fig10), "fig10 w={workers}");
        assert_eq!(format!("{:?}", records.table2), format!("{:?}", columnar.table2), "table2 w={workers}");
        assert_eq!(format!("{:?}", records.fig11), format!("{:?}", columnar.fig11), "fig11 w={workers}");
        assert_eq!(records.render_all(), columnar.render_all(), "rendered output w={workers}");
    }
}

#[test]
fn streamed_frame_equals_batch_frame_at_any_shard_count() {
    let ds = run(cfg(1));
    let batch = FlowFrame::from_records(&ds.flows, &ds.enrichment);
    let baseline = paper_reports_records(&ds.flows, &ds.dns, &ds.enrichment).render_all();
    for shards in [1usize, 4] {
        let cds = run_streaming(cfg(shards));
        assert_eq!(cds.packets, ds.packets, "shards={shards}");
        assert_eq!(cds.dns, ds.dns, "dns shards={shards}");
        // the sealed frame is the batch frame, column by column
        assert_eq!(cds.frame.len(), batch.len(), "shards={shards}");
        assert_eq!(cds.frame.first, batch.first, "first shards={shards}");
        assert_eq!(cds.frame.client, batch.client, "client shards={shards}");
        assert_eq!(cds.frame.bytes_up, batch.bytes_up, "bytes_up shards={shards}");
        assert_eq!(cds.frame.bytes_down, batch.bytes_down, "bytes_down shards={shards}");
        assert_eq!(cds.frame.ground_rtt_avg, batch.ground_rtt_avg, "ground_rtt shards={shards}");
        assert_eq!(cds.frame.l7, batch.l7, "l7 shards={shards}");
        assert_eq!(cds.frame.country, batch.country, "country shards={shards}");
        assert_eq!(cds.frame.beam, batch.beam, "beam shards={shards}");
        assert_eq!(cds.frame.local_hour, batch.local_hour, "local_hour shards={shards}");
        assert_eq!(cds.frame.service, batch.service, "service shards={shards}");
        assert_eq!(cds.frame.category, batch.category, "category shards={shards}");
        // and the reports built from it equal the record baseline
        let reports = paper_reports_columnar(&cds.frame, &cds.dns, &cds.enrichment, MIN_FLOWS, 2);
        assert_eq!(reports.render_all(), baseline, "reports shards={shards}");
    }
}

#[test]
fn replicated_frame_matches_tiled_record_slice() {
    let ds = run(ScenarioConfig::tiny().with_seed(7).with_customers(12));
    let tiled: Vec<_> = ds.flows.iter().chain(ds.flows.iter()).chain(ds.flows.iter()).cloned().collect();
    let records = paper_reports_records(&tiled, &ds.dns, &ds.enrichment);
    let fr = FlowFrame::from_records(&ds.flows, &ds.enrichment).replicate(3);
    let columnar = paper_reports_columnar(&fr, &ds.dns, &ds.enrichment, MIN_FLOWS, 3);
    assert_eq!(records.render_all(), columnar.render_all());
}
