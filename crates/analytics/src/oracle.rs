//! The record oracle: every paper output as a serial fold over the
//! flow-record slice, written independently of the frame.
//!
//! Production code runs [`crate::engine`]; nothing here is on a user
//! path. The equivalence tests (`frame_equivalence.rs`,
//! `columnar_equivalence.rs`) and the `bench --smoke` report gate
//! compare [`paper_reports`] with the engine byte for byte (DESIGN.md
//! §10). The oracle re-derives every per-flow decision (enrichment
//! lookups, classification, local hours, filters) from the records;
//! it shares only the engine's constants and the Fig 5–7 finishers,
//! which turn a customer-day rollup into plot rows.

use crate::classify::{second_level_domain, Classifier, ClassifyCache};
use crate::engine::{
    fig5_from_days, fig6_from_days, fig7_from_days, is_night, is_peak, CustomerDays, PaperReports, ReportCtx,
    CDN_FRESH, FIG10_RESOLVERS, THROUGHPUT_MIN_BYTES,
};
use crate::frame::Enrichment;
use crate::report::*;
use satwatch_internet::ResolverId;
use satwatch_monitor::{DnsRecord, FlowRecord, L7Protocol};
use satwatch_simcore::stats::{BoxplotSummary, Cdf};
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::{FxHashMap, SimTime};
use satwatch_traffic::Country;
use std::net::Ipv4Addr;

fn flow_bytes(f: &FlowRecord) -> u64 {
    f.c2s_bytes + f.s2c_bytes
}

fn local_hour_of(f: &FlowRecord, c: Country) -> u32 {
    f.first.local_hour(c.tz_offset())
}

/// Countries in `Country::ALL` order.
fn by_country_order<T>(rows: &mut [(Country, T)]) {
    rows.sort_by_key(|(c, _)| Country::ALL.iter().position(|x| x == c));
}

/// Every paper output from the record slice, shaped like
/// [`crate::report_all`]'s arguments.
pub fn paper_reports(
    flows: &[FlowRecord],
    dns: &[DnsRecord],
    ctx: ReportCtx<'_>,
    services: &[&'static str],
    min_flows: usize,
) -> PaperReports {
    let (enr, countries) = (ctx.enrichment, ctx.countries);
    let days = customer_days(flows, &Classifier::standard());
    PaperReports {
        table1: table1(flows),
        fig2: fig2(flows, enr),
        fig3: fig3(flows, enr),
        fig4: fig4(flows, enr),
        fig5: fig5_from_days(&days, enr),
        fig6: fig6_from_days(&days, enr, services, countries),
        fig7: fig7_from_days(&days, enr, countries),
        fig8a: fig8a(flows, enr, countries),
        fig8b: fig8b(flows, enr),
        fig9: fig9(flows, enr, countries),
        fig10: fig10(dns, enr, countries),
        table2: table_cdn_selection(flows, dns, enr, countries, min_flows),
        fig11: fig11(flows, enr, countries),
    }
}

/// Table 1: protocol volume shares.
pub fn table1(flows: &[FlowRecord]) -> Table1 {
    let mut by_proto: FxHashMap<L7Protocol, u64> = FxHashMap::default();
    let mut total = 0u64;
    for f in flows {
        *by_proto.entry(f.l7).or_default() += flow_bytes(f);
        total += flow_bytes(f);
    }
    let rows = L7Protocol::ALL
        .into_iter()
        .map(|p| (p, 100.0 * by_proto.get(&p).copied().unwrap_or(0) as f64 / total.max(1) as f64))
        .collect();
    Table1 { rows }
}

/// Figure 2: per-country volume & customer shares.
pub fn fig2(flows: &[FlowRecord], enr: &Enrichment) -> Fig2 {
    let mut vol: FxHashMap<Country, u64> = FxHashMap::default();
    let mut total = 0u64;
    for f in flows {
        if let Some(c) = enr.country(f.client) {
            *vol.entry(c).or_default() += flow_bytes(f);
            total += flow_bytes(f);
        }
    }
    let total_customers: usize = enr.country_of.len();
    let mut rows: Vec<(Country, f64, f64, f64)> = Country::ALL
        .into_iter()
        .map(|c| {
            let v = vol.get(&c).copied().unwrap_or(0);
            let customers = enr.customers_in(c);
            let mb_per_day =
                if customers == 0 || enr.days == 0 { 0.0 } else { v as f64 / 1e6 / customers as f64 / enr.days as f64 };
            (
                c,
                100.0 * v as f64 / total.max(1) as f64,
                100.0 * customers as f64 / total_customers.max(1) as f64,
                mb_per_day,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    Fig2 { rows }
}

/// Figure 3: protocol share per country.
pub fn fig3(flows: &[FlowRecord], enr: &Enrichment) -> Fig3 {
    let mut vol: FxHashMap<Country, FxHashMap<L7Protocol, u64>> = FxHashMap::default();
    for f in flows {
        if let Some(c) = enr.country(f.client) {
            *vol.entry(c).or_default().entry(f.l7).or_default() += flow_bytes(f);
        }
    }
    let mut rows: Vec<(Country, Vec<(L7Protocol, f64)>)> = vol
        .into_iter()
        .map(|(c, protos)| {
            let total: u64 = protos.values().sum();
            let shares = L7Protocol::ALL
                .into_iter()
                .map(|p| (p, 100.0 * protos.get(&p).copied().unwrap_or(0) as f64 / total.max(1) as f64))
                .collect();
            (c, shares)
        })
        .collect();
    by_country_order(&mut rows);
    Fig3 { rows }
}

/// Figure 4: hourly traffic profile normalised per country.
pub fn fig4(flows: &[FlowRecord], enr: &Enrichment) -> Fig4 {
    let mut by_hour: FxHashMap<Country, [u64; 24]> = FxHashMap::default();
    for f in flows {
        if let Some(c) = enr.country(f.client) {
            by_hour.entry(c).or_insert([0; 24])[f.first.hour_of_day() as usize] += flow_bytes(f);
        }
    }
    let mut rows: Vec<(Country, [f64; 24])> = by_hour
        .into_iter()
        .map(|(c, bytes)| {
            let max = bytes.iter().copied().max().unwrap_or(0).max(1) as f64;
            (c, bytes.map(|b| b as f64 / max))
        })
        .collect();
    by_country_order(&mut rows);
    Fig4 { rows }
}

/// Roll flows up into per-(client, day) summaries, classifying each
/// domain on the way.
pub fn customer_days(flows: &[FlowRecord], classifier: &Classifier) -> CustomerDays {
    let mut map = CustomerDays::default();
    let mut cache = ClassifyCache::default();
    for f in flows {
        let day = f.first.as_secs() / SECS_PER_DAY;
        let e = map.entry((f.client, day)).or_default();
        e.flows += 1;
        e.down += f.s2c_bytes;
        e.up += f.c2s_bytes;
        if let Some((svc, cat)) = f.domain.as_ref().and_then(|d| classifier.classify_cached(d, &mut cache)) {
            *e.by_category.entry(cat).or_default() += flow_bytes(f);
            e.services.insert(svc);
        }
    }
    map
}

/// Figure 8a: satellite RTT night vs peak per country.
pub fn fig8a(flows: &[FlowRecord], enr: &Enrichment, countries: &[Country]) -> Fig8a {
    let mut night: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut peak: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    for f in flows {
        let (Some(c), Some(rtt)) = (enr.country(f.client), f.sat_rtt_ms) else { continue };
        let h = local_hour_of(f, c);
        if is_night(h) {
            night.entry(c).or_default().push(rtt / 1e3);
        } else if is_peak(h) {
            peak.entry(c).or_default().push(rtt / 1e3);
        }
    }
    let rows = countries
        .iter()
        .filter_map(|c| Some((*c, Cdf::from_values(night.get(c)?), Cdf::from_values(peak.get(c)?))))
        .collect();
    Fig8a { rows }
}

/// Figure 8b: per-beam median satellite RTT (peak hours) vs
/// normalised utilization. Beams without a [`crate::BeamInfo`] entry
/// are skipped.
pub fn fig8b(flows: &[FlowRecord], enr: &Enrichment) -> Fig8b {
    let mut samples: FxHashMap<u16, Vec<f64>> = FxHashMap::default();
    for f in flows {
        let (Some(c), Some(rtt), Some(&beam)) = (enr.country(f.client), f.sat_rtt_ms, enr.beam_of.get(&f.client))
        else {
            continue;
        };
        if is_peak(local_hour_of(f, c)) {
            samples.entry(beam).or_default().push(rtt / 1e3);
        }
    }
    let max_util = enr.beams.iter().map(|b| b.peak_utilization).fold(0.0f64, f64::max).max(1e-9);
    let mut rows = Vec::new();
    for (beam, mut v) in samples {
        let Some(info) = enr.beams.get(usize::from(beam)) else { continue };
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rows.push((info.name.clone(), info.country, info.peak_utilization / max_util, v[v.len() / 2], v.len()));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    Fig8b { rows }
}

/// Figure 9: traffic-weighted ground RTT distribution per country.
pub fn fig9(flows: &[FlowRecord], enr: &Enrichment, countries: &[Country]) -> Fig9 {
    let mut samples: FxHashMap<Country, Vec<(f64, f64)>> = FxHashMap::default();
    for f in flows {
        let Some(c) = enr.country(f.client) else { continue };
        if f.ground_rtt.samples > 0 {
            samples.entry(c).or_default().push((f.ground_rtt.avg_ms, flow_bytes(f) as f64));
        }
    }
    let rows = countries
        .iter()
        .filter_map(|c| {
            let cdf = Cdf::from_weighted(samples.get(c)?);
            let med = cdf.quantile(0.5);
            Some((*c, cdf, med))
        })
        .collect();
    Fig9 { rows }
}

/// Figure 10: resolver adoption per country + median response times.
pub fn fig10(dns: &[DnsRecord], enr: &Enrichment, countries: &[Country]) -> Fig10 {
    let mut counts: FxHashMap<(ResolverId, Country), u64> = FxHashMap::default();
    let mut totals: FxHashMap<Country, u64> = FxHashMap::default();
    let mut times: FxHashMap<ResolverId, Vec<f64>> = FxHashMap::default();
    for d in dns {
        let Some(c) = enr.country(d.client) else { continue };
        let r = ResolverId::from_address(d.resolver).unwrap_or(ResolverId::Other);
        // fold the resolvers we don't break out into "Other"
        let r = if FIG10_RESOLVERS.contains(&r) { r } else { ResolverId::Other };
        *counts.entry((r, c)).or_default() += 1;
        *totals.entry(c).or_default() += 1;
        if let Some(ms) = d.response_ms {
            times.entry(r).or_default().push(ms);
        }
    }
    let share = FIG10_RESOLVERS
        .iter()
        .map(|r| {
            countries
                .iter()
                .map(|c| {
                    100.0 * counts.get(&(*r, *c)).copied().unwrap_or(0) as f64
                        / totals.get(c).copied().unwrap_or(0).max(1) as f64
                })
                .collect()
        })
        .collect();
    let median_ms = FIG10_RESOLVERS
        .iter()
        .map(|r| {
            times.get_mut(r).map_or(f64::NAN, |v| {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v[v.len() / 2]
            })
        })
        .collect();
    Fig10 { resolvers: FIG10_RESOLVERS.to_vec(), countries: countries.to_vec(), share, median_ms }
}

/// Table 2/4/5: per (SLD, country, resolver) mean ground RTT, joining
/// each flow to the most recent fresh lookup of its domain by the
/// same client.
pub fn table_cdn_selection(
    flows: &[FlowRecord],
    dns: &[DnsRecord],
    enr: &Enrichment,
    countries: &[Country],
    min_flows: usize,
) -> TableCdnSelection {
    let mut lookups: FxHashMap<(Ipv4Addr, &str), Vec<(SimTime, ResolverId)>> = FxHashMap::default();
    for d in dns {
        let r = ResolverId::from_address(d.resolver).unwrap_or(ResolverId::Other);
        lookups.entry((d.client, &*d.query)).or_default().push((d.ts, r));
    }
    for v in lookups.values_mut() {
        v.sort_by_key(|(t, _)| *t);
    }
    let mut acc: FxHashMap<(String, Country, ResolverId), (f64, usize)> = FxHashMap::default();
    for f in flows {
        let (Some(c), Some(domain)) = (enr.country(f.client), f.domain.as_deref()) else { continue };
        if !countries.contains(&c) || f.ground_rtt.samples == 0 {
            continue;
        }
        let Some(entries) = lookups.get(&(f.client, domain)) else { continue };
        let idx = entries.partition_point(|(t, _)| *t <= f.first);
        if idx == 0 || f.first - entries[idx - 1].0 > CDN_FRESH {
            continue;
        }
        let e = acc.entry((second_level_domain(domain), c, entries[idx - 1].1)).or_insert((0.0, 0));
        e.0 += f.ground_rtt.avg_ms;
        e.1 += 1;
    }
    let mut rows: Vec<(String, Country, ResolverId, f64, usize)> = acc
        .into_iter()
        .filter(|(_, (_, n))| *n >= min_flows)
        .map(|((sld, c, r), (sum, n))| (sld, c, r, sum / n as f64, n))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    TableCdnSelection { rows }
}

/// Figure 11: download throughput per country over large flows.
pub fn fig11(flows: &[FlowRecord], enr: &Enrichment, countries: &[Country]) -> Fig11 {
    let mut all: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut night: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut peak: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    for f in flows {
        let Some(c) = enr.country(f.client) else { continue };
        let mbps = f.download_throughput_bps() / 1e6;
        if f.s2c_bytes < THROUGHPUT_MIN_BYTES || mbps <= 0.0 {
            continue;
        }
        all.entry(c).or_default().push(mbps);
        let h = local_hour_of(f, c);
        if is_night(h) {
            night.entry(c).or_default().push(mbps);
        } else if is_peak(h) {
            peak.entry(c).or_default().push(mbps);
        }
    }
    let rows = countries
        .iter()
        .filter_map(|c| {
            Some((
                *c,
                Cdf::from_values(all.get(c)?),
                night.get(c).and_then(|v| BoxplotSummary::from_values(v)),
                peak.get(c).and_then(|v| BoxplotSummary::from_values(v)),
            ))
        })
        .collect();
    Fig11 { rows }
}
