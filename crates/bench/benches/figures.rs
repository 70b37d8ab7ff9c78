//! One bench per table/figure of the paper's evaluation. Each bench
//! first prints the regenerated rows (the EXPERIMENTS.md source of
//! truth), then times the engine's frame fold for that output over the
//! shared dataset's frame (built once, outside the timed loop).

use criterion::{criterion_group, criterion_main, Criterion};
use satwatch_analytics::engine::{self, ReportCtx};
use satwatch_analytics::FlowFrame;
use satwatch_bench::standard_dataset;
use satwatch_scenario::{experiments, Dataset};
use satwatch_traffic::Country;
use std::hint::black_box;
use std::sync::{Once, OnceLock};

/// The shared dataset's frame, built once for every bench.
fn frame() -> &'static FlowFrame {
    static FRAME: OnceLock<FlowFrame> = OnceLock::new();
    FRAME.get_or_init(|| {
        let ds = standard_dataset();
        FlowFrame::from_records(&ds.flows, &ds.enrichment)
    })
}

fn ctx(ds: &Dataset) -> ReportCtx<'_> {
    ReportCtx { enrichment: &ds.enrichment, countries: &Country::TOP6 }
}

fn print_once(label: &str, once: &Once, render: impl FnOnce() -> String) {
    once.call_once(|| {
        println!("\n================ {label} ================");
        println!("{}", render());
    });
}

fn table1_protocols(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Table 1", &ONCE, || experiments::table1(ds).render());
    c.bench_function("table1_protocols", |b| b.iter(|| black_box(engine::table1_frame(frame(), ctx(ds), 1))));
}

fn fig2_countries(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 2", &ONCE, || experiments::fig2(ds).render());
    c.bench_function("fig2_countries", |b| b.iter(|| black_box(engine::fig2_frame(frame(), ctx(ds), 1))));
}

fn fig3_proto_by_country(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 3", &ONCE, || experiments::fig3(ds).render());
    c.bench_function("fig3_proto_by_country", |b| b.iter(|| black_box(engine::fig3_frame(frame(), ctx(ds), 1))));
}

fn fig4_daily_trends(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 4", &ONCE, || experiments::fig4(ds).render());
    c.bench_function("fig4_daily_trends", |b| b.iter(|| black_box(engine::fig4_frame(frame(), ctx(ds), 1))));
}

fn fig5_volumes(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 5", &ONCE, || experiments::fig5(ds).render());
    c.bench_function("fig5_volumes", |b| b.iter(|| black_box(engine::fig5_frame(frame(), ctx(ds), 1))));
}

fn fig6_service_popularity(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 6", &ONCE, || experiments::fig6(ds).render());
    c.bench_function("fig6_service_popularity", |b| {
        b.iter(|| black_box(engine::fig6_frame(frame(), ctx(ds), &experiments::FIG6_SERVICES, 1)))
    });
}

fn fig7_category_volumes(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 7", &ONCE, || experiments::fig7(ds).render());
    c.bench_function("fig7_category_volumes", |b| b.iter(|| black_box(engine::fig7_frame(frame(), ctx(ds), 1))));
}

fn fig8a_sat_rtt(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 8a", &ONCE, || experiments::fig8a(ds).render());
    c.bench_function("fig8a_sat_rtt", |b| b.iter(|| black_box(engine::fig8a_frame(frame(), ctx(ds), 1))));
}

fn fig8b_beam_rtt(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 8b", &ONCE, || experiments::fig8b(ds).render());
    c.bench_function("fig8b_beam_rtt", |b| b.iter(|| black_box(engine::fig8b_frame(frame(), ctx(ds), 1))));
}

fn fig9_ground_rtt(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 9", &ONCE, || experiments::fig9(ds).render());
    c.bench_function("fig9_ground_rtt", |b| b.iter(|| black_box(engine::fig9_frame(frame(), ctx(ds), 1))));
}

fn fig10_dns(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 10", &ONCE, || experiments::fig10(ds).render());
    c.bench_function("fig10_dns", |b| b.iter(|| black_box(engine::fig10_dns(&ds.dns, ctx(ds), 1))));
}

fn table2_cdn_selection(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Table 2/4/5 (popular domains)", &ONCE, || {
        // print the Table-2-style subset: popular SLDs, top-6 countries
        let t = experiments::table_cdn(ds, 10);
        let mut s = String::new();
        let interesting = [
            "apple.com",
            "whatsapp.net",
            "googleapis.com",
            "googlevideo.com",
            "nflxvideo.net",
            "qq.com",
            "tiktokcdn.com",
            "fbcdn.net",
        ];
        for (d, country, r, rtt, n) in &t.rows {
            if interesting.contains(&d.as_str()) {
                s.push_str(&format!("{d:<18} {:<13} {:<12} {rtt:>7.1} ms  (n={n})\n", country.name(), r.name()));
            }
        }
        s
    });
    c.bench_function("table2_cdn_selection", |b| {
        b.iter(|| black_box(engine::table_cdn_frame(frame(), &ds.dns, ctx(ds), 10, 1)))
    });
}

fn fig11_throughput(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("Figure 11", &ONCE, || experiments::fig11(ds).render());
    c.bench_function("fig11_throughput", |b| b.iter(|| black_box(engine::fig11_frame(frame(), ctx(ds), 1))));
}

fn errant_fit(c: &mut Criterion) {
    let ds = standard_dataset();
    static ONCE: Once = Once::new();
    print_once("ERRANT profiles (E1)", &ONCE, || {
        let mut profiles = satwatch_errant::fit_profiles(&ds.flows, &ds.enrichment, &Country::TOP6);
        profiles.push(satwatch_errant::leo::starlink_reference(satwatch_errant::Period::Night));
        profiles.push(satwatch_errant::leo::starlink_reference(satwatch_errant::Period::Peak));
        satwatch_errant::export::export(&profiles)
    });
    c.bench_function("errant_fit", |b| {
        b.iter(|| black_box(satwatch_errant::fit_profiles(&ds.flows, &ds.enrichment, &Country::TOP6)))
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = table1_protocols, fig2_countries, fig3_proto_by_country, fig4_daily_trends,
              fig5_volumes, fig6_service_popularity, fig7_category_volumes, fig8a_sat_rtt,
              fig8b_beam_rtt, fig9_ground_rtt, fig10_dns, table2_cdn_selection,
              fig11_throughput, errant_fit
}
criterion_main!(figures);
