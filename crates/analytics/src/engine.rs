//! Columnar analytics engine: every paper table/figure as a fold over
//! a [`FlowFrame`], plus the fused [`ReportFold`] that fills all of
//! them in a single pass. This is the one production implementation of
//! the paper outputs; [`crate::oracle`] only checks it.
//!
//! Each figure is an accumulator with three operations — `absorb` a
//! row, `merge` two partials in chunk order, `finish` into the typed
//! report — driven by [`ordered_par_ranges`]. The byte-equivalence
//! contract with the record oracle rests on three facts (DESIGN.md
//! §10):
//!
//! 1. integer tallies are exact and associative, so chunked reduction
//!    equals the serial fold;
//! 2. every `f64` collection concatenates in chunk order, reproducing
//!    the serial observation order before any order-sensitive step
//!    (weighted-CDF tie handling, the CDN mean's incremental sum);
//! 3. map-iteration-order differences between the paths are absorbed
//!    by finishers that sort (`Cdf`, `BoxplotSummary`, row sorts on
//!    unique keys) before rendering.
//!
//! The fused sweep reads each hot column once, total, and resolves no
//! hash lookups or pattern matches at all — they were paid once at
//! frame build.

use crate::classify::second_level_domain;
use crate::frame::{category_of, Enrichment, FlowFrame, NO_BEAM, NO_CATEGORY, NO_COUNTRY};
use crate::report::*;
use satwatch_internet::ResolverId;
use satwatch_monitor::{DnsRecord, L7Protocol};
use satwatch_simcore::stats::{BoxplotSummary, Cdf};
use satwatch_simcore::{ordered_par_ranges, FxHashMap, FxHashSet, SimDuration, SimTime};
use satwatch_traffic::{Category, Country};
use std::net::Ipv4Addr;

const N_PROTO: usize = L7Protocol::ALL.len();
const N_COUNTRY: usize = Country::ALL.len();

/// Night window in local time (paper Fig 8a: 2:00–5:00).
pub fn is_night(local_hour: u32) -> bool {
    (2..5).contains(&local_hour)
}

/// Peak window in local time (paper Fig 8a: 13:00–20:00).
pub fn is_peak(local_hour: u32) -> bool {
    (13..20).contains(&local_hour)
}

/// Threshold defining an *active* customer-day (paper §4: ≥ 250 flows).
pub const ACTIVE_FLOWS_THRESHOLD: u64 = 250;

/// Minimum flow size for the throughput analysis (paper §6.5: 10 MB).
pub const THROUGHPUT_MIN_BYTES: u64 = 10_000_000;

/// Shared context for every per-figure fold: the enrichment tables
/// and the country selection. One struct instead of the three ad-hoc
/// call conventions the engine grew historically (`(fr, workers)` vs
/// `(fr, enr, workers)` vs `(fr, enr, countries, workers)`): every
/// `*_frame` entry point now takes `(fr, ctx, workers)`, with
/// genuinely per-figure inputs (the Fig 6 service list, the Table 2
/// DNS log and flow floor) remaining explicit parameters.
///
/// Figures that need only part of the context simply ignore the rest
/// — building a `ReportCtx` costs two pointers.
#[derive(Clone, Copy)]
pub struct ReportCtx<'a> {
    pub enrichment: &'a Enrichment,
    pub countries: &'a [Country],
}

/// Fold rows `0..len` through per-chunk accumulators, reducing in
/// chunk order. The engine's single parallel shape.
fn fold_rows<A, F>(len: usize, workers: usize, absorb: F, merge: fn(A, A) -> A) -> A
where
    A: Send + Default,
    F: Fn(&mut A, usize) + Sync,
{
    ordered_par_ranges(
        workers,
        len,
        |range| {
            let mut acc = A::default();
            for i in range {
                absorb(&mut acc, i);
            }
            acc
        },
        merge,
    )
}

// ---------------------------------------------------------------- Table 1

#[derive(Default)]
struct Table1Acc {
    by: [u64; N_PROTO],
    total: u64,
}

impl Table1Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let b = fr.flow_bytes(i);
        self.by[fr.l7[i] as usize] += b;
        self.total += b;
    }

    fn merge(mut self, o: Self) -> Self {
        for (a, b) in self.by.iter_mut().zip(o.by) {
            *a += b;
        }
        self.total += o.total;
        self
    }

    fn finish(self) -> Table1 {
        let rows = L7Protocol::ALL
            .into_iter()
            .map(|p| (p, 100.0 * self.by[p.index()] as f64 / self.total.max(1) as f64))
            .collect();
        Table1 { rows }
    }
}

/// Table 1: protocol volume shares (`ctx` unused — kept for the
/// uniform `(fr, ctx, workers)` convention).
pub fn table1_frame(fr: &FlowFrame, _ctx: ReportCtx<'_>, workers: usize) -> Table1 {
    fold_rows(fr.len(), workers, |a: &mut Table1Acc, i| a.absorb(fr, i), Table1Acc::merge).finish()
}

// ---------------------------------------------------------------- Figure 2

#[derive(Default)]
struct Fig2Acc {
    vol: [u64; N_COUNTRY],
    total: u64,
}

impl Fig2Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci != NO_COUNTRY {
            let b = fr.flow_bytes(i);
            self.vol[ci as usize] += b;
            self.total += b;
        }
    }

    fn merge(mut self, o: Self) -> Self {
        for (a, b) in self.vol.iter_mut().zip(o.vol) {
            *a += b;
        }
        self.total += o.total;
        self
    }

    fn finish(self, enr: &Enrichment) -> Fig2 {
        let total_customers = enr.country_of.len();
        let mut rows: Vec<(Country, f64, f64, f64)> = Country::ALL
            .into_iter()
            .map(|c| {
                let v = self.vol[c.index()];
                let customers = enr.customers_in(c);
                let mb_per_day = if customers == 0 || enr.days == 0 {
                    0.0
                } else {
                    v as f64 / 1e6 / customers as f64 / enr.days as f64
                };
                (
                    c,
                    100.0 * v as f64 / self.total.max(1) as f64,
                    100.0 * customers as f64 / total_customers.max(1) as f64,
                    mb_per_day,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        Fig2 { rows }
    }
}

/// Figure 2: per-country volume & customer shares.
pub fn fig2_frame(fr: &FlowFrame, ctx: ReportCtx<'_>, workers: usize) -> Fig2 {
    fold_rows(fr.len(), workers, |a: &mut Fig2Acc, i| a.absorb(fr, i), Fig2Acc::merge).finish(ctx.enrichment)
}

// ---------------------------------------------------------------- Figure 3

struct Fig3Acc {
    vol: [[u64; N_PROTO]; N_COUNTRY],
    seen: [bool; N_COUNTRY],
}

impl Default for Fig3Acc {
    fn default() -> Self {
        Fig3Acc { vol: [[0; N_PROTO]; N_COUNTRY], seen: [false; N_COUNTRY] }
    }
}

impl Fig3Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci != NO_COUNTRY {
            self.vol[ci as usize][fr.l7[i] as usize] += fr.flow_bytes(i);
            self.seen[ci as usize] = true;
        }
    }

    fn merge(mut self, o: Self) -> Self {
        for (av, bv) in self.vol.iter_mut().zip(o.vol) {
            for (a, b) in av.iter_mut().zip(bv) {
                *a += b;
            }
        }
        for (a, b) in self.seen.iter_mut().zip(o.seen) {
            *a |= b;
        }
        self
    }

    fn finish(self) -> Fig3 {
        let rows = Country::ALL
            .into_iter()
            .filter(|c| self.seen[c.index()])
            .map(|c| {
                let protos = &self.vol[c.index()];
                let total: u64 = protos.iter().sum();
                let shares = L7Protocol::ALL
                    .into_iter()
                    .map(|p| (p, 100.0 * protos[p.index()] as f64 / total.max(1) as f64))
                    .collect();
                (c, shares)
            })
            .collect();
        Fig3 { rows }
    }
}

/// Figure 3: protocol share per country, in `Country::ALL` order.
pub fn fig3_frame(fr: &FlowFrame, _ctx: ReportCtx<'_>, workers: usize) -> Fig3 {
    fold_rows(fr.len(), workers, |a: &mut Fig3Acc, i| a.absorb(fr, i), Fig3Acc::merge).finish()
}

// ---------------------------------------------------------------- Figure 4

struct Fig4Acc {
    by: [[u64; 24]; N_COUNTRY],
    seen: [bool; N_COUNTRY],
}

impl Default for Fig4Acc {
    fn default() -> Self {
        Fig4Acc { by: [[0; 24]; N_COUNTRY], seen: [false; N_COUNTRY] }
    }
}

impl Fig4Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci != NO_COUNTRY {
            self.by[ci as usize][fr.hour_utc[i] as usize] += fr.flow_bytes(i);
            self.seen[ci as usize] = true;
        }
    }

    fn merge(mut self, o: Self) -> Self {
        for (av, bv) in self.by.iter_mut().zip(o.by) {
            for (a, b) in av.iter_mut().zip(bv) {
                *a += b;
            }
        }
        for (a, b) in self.seen.iter_mut().zip(o.seen) {
            *a |= b;
        }
        self
    }

    fn finish(self) -> Fig4 {
        let rows = Country::ALL
            .into_iter()
            .filter(|c| self.seen[c.index()])
            .map(|c| {
                let bytes = &self.by[c.index()];
                let max = bytes.iter().copied().max().unwrap_or(0).max(1) as f64;
                let mut prof = [0.0; 24];
                for (p, b) in prof.iter_mut().zip(bytes) {
                    *p = *b as f64 / max;
                }
                (c, prof)
            })
            .collect();
        Fig4 { rows }
    }
}

/// Figure 4: hourly traffic profile normalised per country.
pub fn fig4_frame(fr: &FlowFrame, _ctx: ReportCtx<'_>, workers: usize) -> Fig4 {
    fold_rows(fr.len(), workers, |a: &mut Fig4Acc, i| a.absorb(fr, i), Fig4Acc::merge).finish()
}

// ------------------------------------------------- customer-days (Fig 5–7)

/// Per-customer-day rollup used by Fig 5–7.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CustomerDay {
    pub flows: u64,
    pub down: u64,
    pub up: u64,
    pub by_category: FxHashMap<Category, u64>,
    pub services: FxHashSet<&'static str>,
}

impl CustomerDay {
    /// Merge another summary of the same (client, day) into this one.
    /// Every field is an exact sum or a set union, so merge order
    /// cannot change the result.
    fn absorb(&mut self, other: CustomerDay) {
        self.flows += other.flows;
        self.down += other.down;
        self.up += other.up;
        for (cat, bytes) in other.by_category {
            *self.by_category.entry(cat).or_default() += bytes;
        }
        self.services.extend(other.services);
    }
}

/// Customer-day rollups keyed by `(client, day)`.
pub type CustomerDays = FxHashMap<(Ipv4Addr, u64), CustomerDay>;

#[derive(Default)]
struct DaysAcc {
    map: CustomerDays,
}

impl DaysAcc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let e = self.map.entry((fr.client[i], u64::from(fr.day[i]))).or_default();
        e.flows += 1;
        e.down += fr.bytes_down[i];
        e.up += fr.bytes_up[i];
        if fr.category[i] != NO_CATEGORY {
            *e.by_category.entry(category_of(fr.category[i])).or_default() += fr.flow_bytes(i);
            e.services.insert(fr.services[fr.service[i] as usize]);
        }
    }

    fn merge(mut self, o: Self) -> Self {
        for (k, cd) in o.map {
            match self.map.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().absorb(cd),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(cd);
                }
            }
        }
        self
    }
}

/// Per-(client, day) summaries from the frame's pre-resolved
/// category/service columns — no classifier in sight.
pub fn customer_days_frame(fr: &FlowFrame, workers: usize) -> CustomerDays {
    fold_rows(fr.len(), workers, |a: &mut DaysAcc, i| a.absorb(fr, i), DaysAcc::merge).map
}

/// Figure 5 from a customer-day rollup: CCDF sources of daily flows /
/// download / upload. Volumes are restricted to active customer-days,
/// as in the paper.
pub(crate) fn fig5_from_days(days: &CustomerDays, enr: &Enrichment) -> Fig5 {
    let mut flows_by_c: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut down_by_c: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    let mut up_by_c: FxHashMap<Country, Vec<f64>> = FxHashMap::default();
    for ((client, _), cd) in days {
        let Some(c) = enr.country(*client) else { continue };
        flows_by_c.entry(c).or_default().push(cd.flows as f64);
        if cd.flows >= ACTIVE_FLOWS_THRESHOLD {
            down_by_c.entry(c).or_default().push(cd.down as f64);
            up_by_c.entry(c).or_default().push(cd.up as f64);
        }
    }
    let mut rows = Vec::new();
    for c in Country::ALL {
        if let Some(fl) = flows_by_c.get(&c) {
            rows.push((
                c,
                Cdf::from_values(fl),
                Cdf::from_values(down_by_c.get(&c).map(Vec::as_slice).unwrap_or(&[])),
                Cdf::from_values(up_by_c.get(&c).map(Vec::as_slice).unwrap_or(&[])),
            ));
        }
    }
    Fig5 { rows }
}

/// Figure 6 from a customer-day rollup: service popularity (% of
/// customers per day).
pub(crate) fn fig6_from_days(
    days: &CustomerDays,
    enr: &Enrichment,
    services: &[&'static str],
    countries: &[Country],
) -> Fig6 {
    // count customer-days on which each (service, country) was used
    let mut used: FxHashMap<(&'static str, Country), u64> = FxHashMap::default();
    for ((client, _), cd) in days {
        let Some(c) = enr.country(*client) else { continue };
        for svc in &cd.services {
            *used.entry((svc, c)).or_default() += 1;
        }
    }
    let values = services
        .iter()
        .map(|svc| {
            countries
                .iter()
                .map(|c| {
                    let denom = (enr.customers_in(*c) as u64 * enr.days.max(1)) as f64;
                    100.0 * used.get(&(*svc, *c)).copied().unwrap_or(0) as f64 / denom.max(1.0)
                })
                .collect()
        })
        .collect();
    Fig6 { services: services.to_vec(), countries: countries.to_vec(), values }
}

/// Figure 7 from a customer-day rollup: daily volume boxplots per
/// (country, category), over the customer-days that accessed the
/// category.
pub(crate) fn fig7_from_days(days: &CustomerDays, enr: &Enrichment, countries: &[Country]) -> Fig7 {
    let mut volumes: FxHashMap<(Country, Category), Vec<f64>> = FxHashMap::default();
    for ((client, _), cd) in days {
        let Some(c) = enr.country(*client) else { continue };
        for (cat, bytes) in &cd.by_category {
            volumes.entry((c, *cat)).or_default().push(*bytes as f64 / 1e6);
        }
    }
    let mut rows = Vec::new();
    for c in countries {
        for cat in Category::PAPER_SIX {
            if let Some(b) = volumes.get(&(*c, cat)).and_then(|v| BoxplotSummary::from_values(v)) {
                rows.push((*c, cat, b));
            }
        }
    }
    Fig7 { rows }
}

/// Figure 5 as a frame fold.
pub fn fig5_frame(fr: &FlowFrame, ctx: ReportCtx<'_>, workers: usize) -> Fig5 {
    fig5_from_days(&customer_days_frame(fr, workers), ctx.enrichment)
}

/// Figure 6 as a frame fold. The service list is genuinely
/// per-figure, so it stays an explicit parameter.
pub fn fig6_frame(fr: &FlowFrame, ctx: ReportCtx<'_>, services: &[&'static str], workers: usize) -> Fig6 {
    fig6_from_days(&customer_days_frame(fr, workers), ctx.enrichment, services, ctx.countries)
}

/// Figure 7 as a frame fold.
pub fn fig7_frame(fr: &FlowFrame, ctx: ReportCtx<'_>, workers: usize) -> Fig7 {
    fig7_from_days(&customer_days_frame(fr, workers), ctx.enrichment, ctx.countries)
}

// --------------------------------------------------------------- Figure 8a

struct Fig8aAcc {
    night: [Vec<f64>; N_COUNTRY],
    peak: [Vec<f64>; N_COUNTRY],
}

impl Default for Fig8aAcc {
    fn default() -> Self {
        Fig8aAcc { night: std::array::from_fn(|_| Vec::new()), peak: std::array::from_fn(|_| Vec::new()) }
    }
}

impl Fig8aAcc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        let rtt = fr.sat_rtt_ms[i];
        if ci == NO_COUNTRY || rtt.is_nan() {
            return;
        }
        let h = u32::from(fr.local_hour[i]);
        if is_night(h) {
            self.night[ci as usize].push(rtt / 1e3);
        } else if is_peak(h) {
            self.peak[ci as usize].push(rtt / 1e3);
        }
    }

    fn merge(mut self, o: Self) -> Self {
        for (a, b) in self.night.iter_mut().zip(o.night) {
            a.extend(b);
        }
        for (a, b) in self.peak.iter_mut().zip(o.peak) {
            a.extend(b);
        }
        self
    }

    fn finish(self, countries: &[Country]) -> Fig8a {
        let rows = countries
            .iter()
            .filter_map(|c| {
                let n = &self.night[c.index()];
                let p = &self.peak[c.index()];
                if n.is_empty() || p.is_empty() {
                    return None;
                }
                Some((*c, Cdf::from_values(n), Cdf::from_values(p)))
            })
            .collect();
        Fig8a { rows }
    }
}

/// Figure 8a: satellite RTT night vs peak per country.
pub fn fig8a_frame(fr: &FlowFrame, ctx: ReportCtx<'_>, workers: usize) -> Fig8a {
    fold_rows(fr.len(), workers, |a: &mut Fig8aAcc, i| a.absorb(fr, i), Fig8aAcc::merge).finish(ctx.countries)
}

// --------------------------------------------------------------- Figure 8b

#[derive(Default)]
struct Fig8bAcc {
    samples: FxHashMap<u16, Vec<f64>>,
}

impl Fig8bAcc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let rtt = fr.sat_rtt_ms[i];
        if fr.country[i] == NO_COUNTRY || rtt.is_nan() || fr.beam[i] == NO_BEAM {
            return;
        }
        if is_peak(u32::from(fr.local_hour[i])) {
            self.samples.entry(fr.beam[i]).or_default().push(rtt / 1e3);
        }
    }

    fn merge(mut self, o: Self) -> Self {
        for (k, v) in o.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self
    }

    fn finish(self, enr: &Enrichment) -> Fig8b {
        let max_util = enr.beams.iter().map(|b| b.peak_utilization).fold(0.0f64, f64::max).max(1e-9);
        let mut rows = Vec::new();
        for (beam, mut v) in self.samples {
            // a replayed log maps clients to beams but has no beam table
            let Some(info) = enr.beams.get(usize::from(beam)) else { continue };
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = v[v.len() / 2];
            rows.push((info.name.clone(), info.country, info.peak_utilization / max_util, median, v.len()));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Fig8b { rows }
    }
}

/// Figure 8b: per-beam median satellite RTT (peak hours) vs
/// normalised utilization.
pub fn fig8b_frame(fr: &FlowFrame, ctx: ReportCtx<'_>, workers: usize) -> Fig8b {
    fold_rows(fr.len(), workers, |a: &mut Fig8bAcc, i| a.absorb(fr, i), Fig8bAcc::merge).finish(ctx.enrichment)
}

// ---------------------------------------------------------------- Figure 9

struct Fig9Acc {
    samples: [Vec<(f64, f64)>; N_COUNTRY],
}

impl Default for Fig9Acc {
    fn default() -> Self {
        Fig9Acc { samples: std::array::from_fn(|_| Vec::new()) }
    }
}

impl Fig9Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci == NO_COUNTRY || fr.ground_rtt_samples[i] == 0 {
            return;
        }
        // chunk-order concatenation keeps these in row order, which
        // `Cdf::from_weighted` relies on for tie-group weight sums
        self.samples[ci as usize].push((fr.ground_rtt_avg[i], fr.flow_bytes(i) as f64));
    }

    fn merge(mut self, o: Self) -> Self {
        for (a, b) in self.samples.iter_mut().zip(o.samples) {
            a.extend(b);
        }
        self
    }

    fn finish(self, countries: &[Country]) -> Fig9 {
        let rows = countries
            .iter()
            .filter_map(|c| {
                let v = &self.samples[c.index()];
                if v.is_empty() {
                    return None;
                }
                let cdf = Cdf::from_weighted(v);
                let med = cdf.quantile(0.5);
                Some((*c, cdf, med))
            })
            .collect();
        Fig9 { rows }
    }
}

/// Figure 9: traffic-weighted ground RTT distribution per country.
pub fn fig9_frame(fr: &FlowFrame, ctx: ReportCtx<'_>, workers: usize) -> Fig9 {
    fold_rows(fr.len(), workers, |a: &mut Fig9Acc, i| a.absorb(fr, i), Fig9Acc::merge).finish(ctx.countries)
}

// --------------------------------------------------------------- Figure 11

struct Fig11Acc {
    all: [Vec<f64>; N_COUNTRY],
    night: [Vec<f64>; N_COUNTRY],
    peak: [Vec<f64>; N_COUNTRY],
}

impl Default for Fig11Acc {
    fn default() -> Self {
        Fig11Acc {
            all: std::array::from_fn(|_| Vec::new()),
            night: std::array::from_fn(|_| Vec::new()),
            peak: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl Fig11Acc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize) {
        let ci = fr.country[i];
        if ci == NO_COUNTRY || fr.bytes_down[i] < THROUGHPUT_MIN_BYTES {
            return;
        }
        let mbps = fr.down_bps[i] / 1e6;
        if mbps <= 0.0 {
            return;
        }
        self.all[ci as usize].push(mbps);
        let h = u32::from(fr.local_hour[i]);
        if is_night(h) {
            self.night[ci as usize].push(mbps);
        } else if is_peak(h) {
            self.peak[ci as usize].push(mbps);
        }
    }

    fn merge(mut self, o: Self) -> Self {
        for (a, b) in self.all.iter_mut().zip(o.all) {
            a.extend(b);
        }
        for (a, b) in self.night.iter_mut().zip(o.night) {
            a.extend(b);
        }
        for (a, b) in self.peak.iter_mut().zip(o.peak) {
            a.extend(b);
        }
        self
    }

    fn finish(self, countries: &[Country]) -> Fig11 {
        let rows = countries
            .iter()
            .filter_map(|c| {
                let v = &self.all[c.index()];
                if v.is_empty() {
                    return None;
                }
                Some((
                    *c,
                    Cdf::from_values(v),
                    BoxplotSummary::from_values(&self.night[c.index()]),
                    BoxplotSummary::from_values(&self.peak[c.index()]),
                ))
            })
            .collect();
        Fig11 { rows }
    }
}

/// Figure 11: download throughput per country over large flows.
pub fn fig11_frame(fr: &FlowFrame, ctx: ReportCtx<'_>, workers: usize) -> Fig11 {
    fold_rows(fr.len(), workers, |a: &mut Fig11Acc, i| a.absorb(fr, i), Fig11Acc::merge).finish(ctx.countries)
}

// --------------------------------------------------------------- Figure 10

/// The resolvers Figure 10 breaks out, in display order. `Other` is
/// last; every resolver not listed folds into it.
pub(crate) const FIG10_RESOLVERS: [ResolverId; 9] = [
    ResolverId::OperatorEu,
    ResolverId::Google,
    ResolverId::Cloudflare,
    ResolverId::Nigerian,
    ResolverId::OpenDns,
    ResolverId::Level3,
    ResolverId::Baidu,
    ResolverId::Dns114,
    ResolverId::Other,
];
const N_RESOLVER: usize = FIG10_RESOLVERS.len();

/// Index of `resolver` in [`FIG10_RESOLVERS`], unlisted ones as `Other`.
fn fig10_resolver(resolver: Ipv4Addr) -> usize {
    ResolverId::from_address(resolver)
        .and_then(|r| FIG10_RESOLVERS.iter().position(|x| *x == r))
        .unwrap_or(N_RESOLVER - 1)
}

struct Fig10Acc {
    counts: [[u64; N_COUNTRY]; N_RESOLVER],
    totals: [u64; N_COUNTRY],
    times: [Vec<f64>; N_RESOLVER],
}

impl Default for Fig10Acc {
    fn default() -> Self {
        Fig10Acc {
            counts: [[0; N_COUNTRY]; N_RESOLVER],
            totals: [0; N_COUNTRY],
            times: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl Fig10Acc {
    fn absorb(&mut self, d: &DnsRecord, enr: &Enrichment) {
        let Some(c) = enr.country(d.client) else { return };
        let r = fig10_resolver(d.resolver);
        self.counts[r][c.index()] += 1;
        self.totals[c.index()] += 1;
        if let Some(ms) = d.response_ms {
            self.times[r].push(ms);
        }
    }

    fn merge(mut self, o: Self) -> Self {
        for (av, bv) in self.counts.iter_mut().zip(o.counts) {
            for (a, b) in av.iter_mut().zip(bv) {
                *a += b;
            }
        }
        for (a, b) in self.totals.iter_mut().zip(o.totals) {
            *a += b;
        }
        for (a, b) in self.times.iter_mut().zip(o.times) {
            a.extend(b);
        }
        self
    }

    fn finish(self, countries: &[Country]) -> Fig10 {
        let share = self
            .counts
            .iter()
            .map(|by_c| {
                countries
                    .iter()
                    .map(|c| 100.0 * by_c[c.index()] as f64 / self.totals[c.index()].max(1) as f64)
                    .collect()
            })
            .collect();
        let median_ms = self
            .times
            .into_iter()
            .map(|mut v| {
                if v.is_empty() {
                    return f64::NAN;
                }
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v[v.len() / 2]
            })
            .collect();
        Fig10 { resolvers: FIG10_RESOLVERS.to_vec(), countries: countries.to_vec(), share, median_ms }
    }
}

/// Figure 10: resolver adoption per country + median response times,
/// as a fold over the DNS log (the one figure the flow frame does not
/// carry).
pub fn fig10_dns(dns: &[DnsRecord], ctx: ReportCtx<'_>, workers: usize) -> Fig10 {
    fold_rows(dns.len(), workers, |a: &mut Fig10Acc, i| a.absorb(&dns[i], ctx.enrichment), Fig10Acc::merge)
        .finish(ctx.countries)
}

// ------------------------------------------------------- Table 2 (DNS join)

/// Pre-built DNS side of the Table 2 join: `(client, fqdn)` →
/// time-sorted lookups. Built once, shared read-only by all workers.
pub struct CdnJoin<'a> {
    lookups: FxHashMap<(Ipv4Addr, &'a str), Vec<(SimTime, ResolverId)>>,
}

impl<'a> CdnJoin<'a> {
    pub fn build(dns: &'a [DnsRecord]) -> CdnJoin<'a> {
        let mut lookups: FxHashMap<(Ipv4Addr, &'a str), Vec<(SimTime, ResolverId)>> = FxHashMap::default();
        for d in dns {
            let r = ResolverId::from_address(d.resolver).unwrap_or(ResolverId::Other);
            lookups.entry((d.client, &*d.query)).or_default().push((d.ts, r));
        }
        for v in lookups.values_mut() {
            v.sort_by_key(|(t, _)| *t);
        }
        CdnJoin { lookups }
    }
}

/// Freshness window for attributing a flow to a DNS lookup: a flow is
/// attributed to the most recent lookup *preceding* it within 30 s, so
/// shared CPEs whose users mix resolvers do not cross-pollute.
pub(crate) const CDN_FRESH: SimDuration = SimDuration::from_secs(30);

#[derive(Default)]
struct CdnAcc {
    /// Per-key RTT observations in row order. Kept as a vector (not a
    /// running sum) so the finisher sums left to right in row order at
    /// any worker count.
    acc: FxHashMap<(String, Country, ResolverId), Vec<f64>>,
}

impl CdnAcc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize, join: &CdnJoin<'_>, countries: &[Country]) {
        let (Some(c), Some(domain)) = (fr.country_at(i), fr.domain[i].as_deref()) else {
            return;
        };
        if !countries.contains(&c) || fr.ground_rtt_samples[i] == 0 {
            return;
        }
        let Some(entries) = join.lookups.get(&(fr.client[i], domain)) else {
            return;
        };
        let idx = entries.partition_point(|(t, _)| *t <= fr.first[i]);
        if idx == 0 {
            return;
        }
        let (ts, r) = entries[idx - 1];
        if fr.first[i] - ts > CDN_FRESH {
            return; // stale: likely a different device's lookup
        }
        let sld = second_level_domain(domain);
        self.acc.entry((sld, c, r)).or_default().push(fr.ground_rtt_avg[i]);
    }

    fn merge(mut self, o: Self) -> Self {
        for (k, v) in o.acc {
            self.acc.entry(k).or_default().extend(v);
        }
        self
    }

    fn finish(self, min_flows: usize) -> TableCdnSelection {
        let mut rows: Vec<(String, Country, ResolverId, f64, usize)> = self
            .acc
            .into_iter()
            .filter(|(_, v)| v.len() >= min_flows)
            .map(|((sld, c, r), v)| {
                let n = v.len();
                let sum: f64 = v.into_iter().sum();
                (sld, c, r, sum / n as f64, n)
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        TableCdnSelection { rows }
    }
}

/// Table 2/4/5: per (SLD, country, resolver) mean ground RTT, joining
/// each flow to the resolver that answered its domain's lookup, as a
/// frame fold over a pre-built [`CdnJoin`]. The DNS log and the
/// minimum-flow floor are join inputs, not report context, so they
/// stay explicit.
pub fn table_cdn_frame(
    fr: &FlowFrame,
    dns: &[DnsRecord],
    ctx: ReportCtx<'_>,
    min_flows: usize,
    workers: usize,
) -> TableCdnSelection {
    let join = CdnJoin::build(dns);
    let countries = ctx.countries;
    fold_rows(fr.len(), workers, |a: &mut CdnAcc, i| a.absorb(fr, i, &join, countries), CdnAcc::merge).finish(min_flows)
}

// ------------------------------------------------------------ fused sweep

/// All paper outputs at once — the result of one fused frame sweep.
#[derive(Clone, Debug)]
pub struct PaperReports {
    pub table1: Table1,
    pub fig2: Fig2,
    pub fig3: Fig3,
    pub fig4: Fig4,
    pub fig5: Fig5,
    pub fig6: Fig6,
    pub fig7: Fig7,
    pub fig8a: Fig8a,
    pub fig8b: Fig8b,
    pub fig9: Fig9,
    pub fig10: Fig10,
    pub table2: TableCdnSelection,
    pub fig11: Fig11,
}

impl PaperReports {
    /// Output names, in the CLI `report` command's order.
    pub const NAMES: [&'static str; 13] = [
        "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9", "fig10", "table2", "fig11",
    ];

    /// The output called `name` (one of [`PaperReports::NAMES`]),
    /// rendered as text.
    pub fn render(&self, name: &str) -> Option<String> {
        Some(match name {
            "table1" => self.table1.render(),
            "fig2" => self.fig2.render(),
            "fig3" => self.fig3.render(),
            "fig4" => self.fig4.render(),
            "fig5" => self.fig5.render(),
            "fig6" => self.fig6.render(),
            "fig7" => self.fig7.render(),
            "fig8a" => self.fig8a.render(),
            "fig8b" => self.fig8b.render(),
            "fig9" => self.fig9.render(),
            "fig10" => self.fig10.render(),
            "table2" => self.table2.render(),
            "fig11" => self.fig11.render(),
            _ => return None,
        })
    }

    /// Every output rendered in [`PaperReports::NAMES`] order.
    /// `fnv1a(render_all())` is the cross-mode report digest.
    pub fn render_all(&self) -> String {
        Self::NAMES.map(|n| self.render(n).expect("every listed name renders")).join("\n")
    }
}

/// The whole-sweep accumulator: one `absorb` touches every figure's
/// partial state, so a single pass over the columns fills the lot.
#[derive(Default)]
struct MegaAcc {
    table1: Table1Acc,
    fig2: Fig2Acc,
    fig3: Fig3Acc,
    fig4: Fig4Acc,
    days: DaysAcc,
    fig8a: Fig8aAcc,
    fig8b: Fig8bAcc,
    fig9: Fig9Acc,
    fig11: Fig11Acc,
    cdn: CdnAcc,
}

impl MegaAcc {
    fn absorb(&mut self, fr: &FlowFrame, i: usize, join: &CdnJoin<'_>, countries: &[Country]) {
        self.table1.absorb(fr, i);
        self.fig2.absorb(fr, i);
        self.fig3.absorb(fr, i);
        self.fig4.absorb(fr, i);
        self.days.absorb(fr, i);
        self.fig8a.absorb(fr, i);
        self.fig8b.absorb(fr, i);
        self.fig9.absorb(fr, i);
        self.fig11.absorb(fr, i);
        self.cdn.absorb(fr, i, join, countries);
    }

    fn merge(self, o: Self) -> Self {
        MegaAcc {
            table1: self.table1.merge(o.table1),
            fig2: self.fig2.merge(o.fig2),
            fig3: self.fig3.merge(o.fig3),
            fig4: self.fig4.merge(o.fig4),
            days: self.days.merge(o.days),
            fig8a: self.fig8a.merge(o.fig8a),
            fig8b: self.fig8b.merge(o.fig8b),
            fig9: self.fig9.merge(o.fig9),
            fig11: self.fig11.merge(o.fig11),
            cdn: self.cdn.merge(o.cdn),
        }
    }
}

/// Fill every paper output in a single fused sweep over the frame
/// (plus one pass over the DNS log for Fig 10 and the Table 2 join):
/// a [`ReportFold`] fed the whole frame in one push.
pub fn report_all(
    fr: &FlowFrame,
    dns: &[DnsRecord],
    ctx: ReportCtx<'_>,
    services: &[&'static str],
    min_flows: usize,
    workers: usize,
) -> PaperReports {
    let _span = satwatch_telemetry::span("analytics_report_all_us");
    let mut fold = ReportFold::new(dns, ctx);
    fold.absorb_frame(fr, workers);
    fold.finish(services, min_flows, workers)
}

// ------------------------------------------------------- incremental fold

/// The fused sweep split into absorb/finish so the frame never has to
/// exist in one piece: the campaign engine feeds day-sized frames
/// (read back from on-disk segments) one at a time, and [`report_all`]
/// feeds one whole frame. Both finish into the same [`PaperReports`].
///
/// Byte-identity argument: `fold_rows` already defines the sweep as
/// per-chunk accumulators merged in chunk order, and every
/// accumulator's `merge` is associative with order-preserving
/// concatenation for the order-sensitive `f64` collections. Absorbing
/// frames in day order is just a coarser chunking of the identical
/// row sequence (day-major concatenation of canonically sorted
/// day-frames *is* the canonical global order, because the sort key
/// leads with `first`), so the merged accumulator — and therefore
/// every rendered report — is bit-identical to one push of the
/// concatenated frame.
pub struct ReportFold<'a> {
    acc: Option<MegaAcc>,
    join: CdnJoin<'a>,
    dns: &'a [DnsRecord],
    ctx: ReportCtx<'a>,
}

impl<'a> ReportFold<'a> {
    /// Build the DNS join side once; frames stream in afterwards.
    pub fn new(dns: &'a [DnsRecord], ctx: ReportCtx<'a>) -> ReportFold<'a> {
        ReportFold { acc: None, join: CdnJoin::build(dns), dns, ctx }
    }

    /// Absorb one frame. Frames must arrive in canonical row order
    /// across calls (e.g. day-partitioned segments in day order).
    pub fn absorb_frame(&mut self, fr: &FlowFrame, workers: usize) {
        let join = &self.join;
        let countries = self.ctx.countries;
        let part = fold_rows(fr.len(), workers, |a: &mut MegaAcc, i| a.absorb(fr, i, join, countries), MegaAcc::merge);
        self.acc = Some(match self.acc.take() {
            Some(acc) => acc.merge(part),
            None => part,
        });
    }

    /// Finish into the full report set.
    pub fn finish(self, services: &[&'static str], min_flows: usize, workers: usize) -> PaperReports {
        let (enr, countries) = (self.ctx.enrichment, self.ctx.countries);
        let acc = self.acc.unwrap_or_default();
        let days = acc.days.map;
        PaperReports {
            table1: acc.table1.finish(),
            fig2: acc.fig2.finish(enr),
            fig3: acc.fig3.finish(),
            fig4: acc.fig4.finish(),
            fig5: fig5_from_days(&days, enr),
            fig6: fig6_from_days(&days, enr, services, countries),
            fig7: fig7_from_days(&days, enr, countries),
            fig8a: acc.fig8a.finish(countries),
            fig8b: acc.fig8b.finish(enr),
            fig9: acc.fig9.finish(countries),
            fig10: fig10_dns(self.dns, self.ctx, workers),
            table2: acc.cdn.finish(min_flows),
            fig11: acc.fig11.finish(countries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::BeamInfo;
    use crate::oracle;
    use satwatch_monitor::record::RttSummary;
    use satwatch_monitor::FlowRecord;

    fn client(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(77, 0, 0, i)
    }

    fn flow(c: Ipv4Addr, l7: L7Protocol, down: u64, up: u64, hour: u32, domain: Option<&str>) -> FlowRecord {
        FlowRecord {
            client: c,
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 50_000,
            server_port: 443,
            ip_proto: 6,
            first: SimTime::from_secs(hour as u64 * 3600),
            last: SimTime::from_secs(hour as u64 * 3600) + SimDuration::from_secs(10),
            c2s_packets: 5,
            c2s_bytes: up,
            c2s_payload_bytes: up,
            s2c_packets: 10,
            s2c_bytes: down,
            s2c_payload_bytes: down,
            c2s_retrans: 0,
            s2c_retrans: 0,
            early: vec![],
            syn_seen: true,
            fin_seen: true,
            rst_seen: false,
            ground_rtt: RttSummary { samples: 3, min_ms: 11.0, avg_ms: 12.0, max_ms: 14.0, std_ms: 1.0 },
            s2c_data_first: None,
            s2c_data_last: None,
            sat_rtt_ms: Some(600.0),
            l7,
            domain: domain.map(Into::into),
        }
    }

    fn enrichment() -> Enrichment {
        let mut e = Enrichment { days: 1, ..Default::default() };
        e.country_of.insert(client(1), Country::Congo);
        e.country_of.insert(client(2), Country::Spain);
        e.beam_of.insert(client(1), 0);
        e.beam_of.insert(client(2), 1);
        e.beams = vec![
            BeamInfo { name: "cd-0".into(), country: Country::Congo, peak_utilization: 0.9 },
            BeamInfo { name: "es-0".into(), country: Country::Spain, peak_utilization: 0.45 },
        ];
        e
    }

    fn sample_flows() -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        for i in 0..211u32 {
            let c = client(1 + (i % 3) as u8); // client 3 has no country
            let l7 = if i % 3 == 0 { L7Protocol::Quic } else { L7Protocol::TlsHttps };
            let domain = if i % 4 == 0 { Some("video.tiktokv.com") } else { None };
            let mut f = flow(c, l7, 1_000 + u64::from(i) * 7, 100 + u64::from(i), i % 24, domain);
            if i % 5 == 0 {
                f.sat_rtt_ms = None;
            }
            if i % 7 == 0 {
                f.s2c_bytes = THROUGHPUT_MIN_BYTES + u64::from(i);
            }
            flows.push(f);
        }
        flows
    }

    fn sample_dns() -> Vec<DnsRecord> {
        (0..60u64)
            .map(|i| DnsRecord {
                client: client(1 + (i % 2) as u8),
                resolver: if i % 2 == 0 { ResolverId::Google.address() } else { ResolverId::OperatorEu.address() },
                query: "video.tiktokv.com".into(),
                ts: SimTime::from_secs(i * 600),
                response_ms: Some(20.0 + i as f64),
                answers: vec![],
            })
            .collect()
    }

    #[test]
    fn table1_shares_sum_to_100() {
        let flows = vec![
            flow(client(1), L7Protocol::TlsHttps, 700, 100, 10, None),
            flow(client(1), L7Protocol::Quic, 150, 50, 10, None),
        ];
        let enr = enrichment();
        let ctx = ReportCtx { enrichment: &enr, countries: &Country::ALL };
        let t = table1_frame(&FlowFrame::from_records(&flows, &enr), ctx, 1);
        let total: f64 = t.rows.iter().map(|(_, s)| s).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((t.share(L7Protocol::TlsHttps) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_volume_and_customer_shares() {
        let flows = vec![
            flow(client(1), L7Protocol::TlsHttps, 900, 100, 10, None),
            flow(client(2), L7Protocol::TlsHttps, 400, 100, 10, None),
        ];
        let enr = enrichment();
        let ctx = ReportCtx { enrichment: &enr, countries: &Country::ALL };
        let f = fig2_frame(&FlowFrame::from_records(&flows, &enr), ctx, 1);
        let congo = f.row(Country::Congo).unwrap();
        assert!((congo.1 - 1000.0 / 1500.0 * 100.0).abs() < 1e-9);
        assert!((congo.2 - 50.0).abs() < 1e-9);
        // sorted descending by volume
        assert_eq!(f.rows[0].0, Country::Congo);
    }

    #[test]
    fn fig5_active_threshold_applies() {
        let mut days = CustomerDays::default();
        days.insert((client(1), 0), CustomerDay { flows: 300, down: 5_000_000_000, up: 100, ..Default::default() });
        days.insert((client(2), 0), CustomerDay { flows: 100, down: 9_999_999_999, up: 10, ..Default::default() });
        let f = fig5_from_days(&days, &enrichment());
        // Spain's customer was inactive: no volume rows for Spain
        let es = f.row(Country::Spain).unwrap();
        assert_eq!(es.2.count, 0, "inactive customers excluded from volume CCDF");
        let cd = f.row(Country::Congo).unwrap();
        assert_eq!(cd.2.count, 1);
    }

    #[test]
    fn fig8a_splits_night_peak_by_local_time() {
        // Congo is UTC+1: 2:00 UTC is 3:00 local (night), 13:00 UTC is
        // 14:00 local (peak)
        let flows = vec![
            flow(client(1), L7Protocol::TlsHttps, 100, 10, 2, None), // 3:00 local → night
            flow(client(1), L7Protocol::TlsHttps, 100, 10, 13, None), // 14:00 local → peak
            flow(client(1), L7Protocol::TlsHttps, 100, 10, 22, None), // neither
        ];
        let enr = enrichment();
        let ctx = ReportCtx { enrichment: &enr, countries: &[Country::Congo] };
        let f = fig8a_frame(&FlowFrame::from_records(&flows, &enr), ctx, 1);
        let (_, night, peak) = f.row(Country::Congo).unwrap();
        assert_eq!(night.count, 1);
        assert_eq!(peak.count, 1);
    }

    #[test]
    fn fig8b_normalises_utilization() {
        let flows = vec![
            flow(client(1), L7Protocol::TlsHttps, 100, 10, 13, None),
            flow(client(2), L7Protocol::TlsHttps, 100, 10, 13, None),
        ];
        let enr = enrichment();
        let ctx = ReportCtx { enrichment: &enr, countries: &Country::ALL };
        let f = fig8b_frame(&FlowFrame::from_records(&flows, &enr), ctx, 1);
        assert_eq!(f.rows.len(), 2);
        let cd = f.rows.iter().find(|r| r.0 == "cd-0").unwrap();
        assert!((cd.2 - 1.0).abs() < 1e-9, "max-utilization beam normalises to 1");
        let es = f.rows.iter().find(|r| r.0 == "es-0").unwrap();
        assert!((es.2 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fig8b_skips_beams_without_a_beam_table() {
        // a replayed log directory: clients map to beams, no beam table
        let flows = vec![flow(client(1), L7Protocol::TlsHttps, 100, 10, 13, None)];
        let mut enr = enrichment();
        enr.beams.clear();
        let ctx = ReportCtx { enrichment: &enr, countries: &Country::ALL };
        assert!(fig8b_frame(&FlowFrame::from_records(&flows, &enr), ctx, 1).rows.is_empty());
        assert!(oracle::fig8b(&flows, &enr).rows.is_empty());
    }

    #[test]
    fn fig10_shares_and_medians() {
        let mk = |c: Ipv4Addr, resolver: Ipv4Addr, ms: f64| DnsRecord {
            client: c,
            resolver,
            query: "x.example".into(),
            ts: SimTime::ZERO,
            response_ms: Some(ms),
            answers: vec![],
        };
        let dns = vec![
            mk(client(1), ResolverId::Google.address(), 20.0),
            mk(client(1), ResolverId::Google.address(), 24.0),
            mk(client(1), ResolverId::Dns114.address(), 110.0),
            mk(client(2), ResolverId::OperatorEu.address(), 4.0),
        ];
        let enr = enrichment();
        let ctx = ReportCtx { enrichment: &enr, countries: &[Country::Congo, Country::Spain] };
        for workers in [1, 3] {
            let f = fig10_dns(&dns, ctx, workers);
            assert!((f.share_of(ResolverId::Google, Country::Congo).unwrap() - 66.6).abs() < 1.0);
            assert!((f.share_of(ResolverId::OperatorEu, Country::Spain).unwrap() - 100.0).abs() < 1e-9);
            assert!((f.median_of(ResolverId::Google).unwrap() - 24.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cdn_table_joins_flows_to_resolvers() {
        // lookup 2 s before the flow starts (flows at hour 10 start at
        // 36 000 s)
        let dns = vec![DnsRecord {
            client: client(1),
            resolver: ResolverId::Dns114.address(),
            query: "v5.tiktokcdn.com".into(),
            ts: SimTime::from_secs(10 * 3600 - 2),
            response_ms: Some(100.0),
            answers: vec![],
        }];
        let enr = enrichment();
        let ctx = ReportCtx { enrichment: &enr, countries: &Country::ALL };
        let table = |flows: &[FlowRecord]| table_cdn_frame(&FlowFrame::from_records(flows, &enr), &dns, ctx, 1, 1);
        let t = table(&[flow(client(1), L7Protocol::TlsHttps, 100, 10, 10, Some("v5.tiktokcdn.com"))]);
        assert_eq!(t.rows.len(), 1);
        let (sld, c, r, rtt, n) = &t.rows[0];
        assert_eq!(sld, "tiktokcdn.com");
        assert_eq!(*c, Country::Congo);
        assert_eq!(*r, ResolverId::Dns114);
        assert!((rtt - 12.0).abs() < 1e-9);
        assert_eq!(*n, 1);
        // flows without a matching lookup are skipped
        let t2 = table(&[flow(client(2), L7Protocol::TlsHttps, 1, 1, 1, Some("unseen.example"))]);
        assert!(t2.rows.is_empty());
        // stale lookups (older than the freshness window) are skipped
        let t3 = table(&[flow(client(1), L7Protocol::TlsHttps, 100, 10, 12, Some("v5.tiktokcdn.com"))]);
        assert!(t3.rows.is_empty(), "2-hour-old lookup must not attribute");
    }

    #[test]
    fn fig11_filters_small_flows() {
        let mut big = flow(client(1), L7Protocol::TlsHttps, 20_000_000, 100, 13, None);
        big.last = big.first + SimDuration::from_secs(16); // 10 Mb/s
        let small = flow(client(1), L7Protocol::TlsHttps, 1_000_000, 100, 13, None);
        let enr = enrichment();
        let ctx = ReportCtx { enrichment: &enr, countries: &[Country::Congo] };
        let f = fig11_frame(&FlowFrame::from_records(&[big, small], &enr), ctx, 1);
        let (_, cdf, night, peak) = f.row(Country::Congo).unwrap();
        assert_eq!(cdf.count, 1, "small flow excluded");
        assert!((cdf.quantile(0.5) - 10.0).abs() < 0.1);
        assert!(night.is_none());
        assert!(peak.is_some());
    }

    #[test]
    fn night_peak_windows() {
        assert!(is_night(2) && is_night(4) && !is_night(5) && !is_night(1));
        assert!(is_peak(13) && is_peak(19) && !is_peak(20) && !is_peak(12));
    }

    #[test]
    fn frame_figures_match_the_record_oracle() {
        let flows = sample_flows();
        let dns = sample_dns();
        let enr = enrichment();
        let fr = FlowFrame::from_records(&flows, &enr);
        let top = [Country::Congo, Country::Spain];
        let ctx = ReportCtx { enrichment: &enr, countries: &top };
        let services = ["Tiktok", "Google"];
        let want = oracle::paper_reports(&flows, &dns, ctx, &services, 1);
        for workers in [1, 3] {
            let got = report_all(&fr, &dns, ctx, &services, 1, workers);
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "workers={workers}");
            assert_eq!(
                oracle::customer_days(&flows, &crate::Classifier::standard()),
                customer_days_frame(&fr, workers)
            );
        }
    }

    #[test]
    fn fused_sweep_matches_individual_folds() {
        let flows = sample_flows();
        let dns = sample_dns();
        let enr = enrichment();
        let fr = FlowFrame::from_records(&flows, &enr);
        let top = [Country::Congo, Country::Spain];
        let services = ["Tiktok", "Google"];
        let ctx = ReportCtx { enrichment: &enr, countries: &top };
        for workers in [1, 4] {
            let all = report_all(&fr, &dns, ctx, &services, 1, workers);
            assert_eq!(format!("{:?}", all.table1), format!("{:?}", table1_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig2), format!("{:?}", fig2_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig3), format!("{:?}", fig3_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig4), format!("{:?}", fig4_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig5), format!("{:?}", fig5_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig6), format!("{:?}", fig6_frame(&fr, ctx, &services, 1)));
            assert_eq!(format!("{:?}", all.fig7), format!("{:?}", fig7_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig8a), format!("{:?}", fig8a_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig8b), format!("{:?}", fig8b_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig9), format!("{:?}", fig9_frame(&fr, ctx, 1)));
            assert_eq!(format!("{:?}", all.fig10), format!("{:?}", fig10_dns(&dns, ctx, 1)));
            assert_eq!(format!("{:?}", all.table2), format!("{:?}", table_cdn_frame(&fr, &dns, ctx, 1, 1)));
            assert_eq!(format!("{:?}", all.fig11), format!("{:?}", fig11_frame(&fr, ctx, 1)));
            let each: Vec<String> = PaperReports::NAMES.iter().map(|n| all.render(n).unwrap()).collect();
            assert_eq!(all.render_all(), each.join("\n"));
            assert!(all.render("bogus").is_none());
        }
    }

    #[test]
    fn incremental_fold_matches_batch_sweep() {
        let flows = sample_flows();
        let dns = sample_dns();
        let enr = enrichment();
        let fr = FlowFrame::from_records(&flows, &enr);
        let top = [Country::Congo, Country::Spain];
        let services = ["Tiktok", "Google"];
        let ctx = ReportCtx { enrichment: &enr, countries: &top };
        let batch = report_all(&fr, &dns, ctx, &services, 1, 3).render_all();
        // split the same row sequence into uneven "day" frames
        for split in [1, 3, 50, flows.len()] {
            let mut fold = ReportFold::new(&dns, ctx);
            for chunk in flows.chunks(split) {
                fold.absorb_frame(&FlowFrame::from_records(chunk, &enr), 2);
            }
            assert_eq!(fold.finish(&services, 1, 3).render_all(), batch, "split {split}");
        }
        // no frames at all still finishes
        assert!(!ReportFold::new(&dns, ctx).finish(&services, 1, 1).render_all().is_empty());
    }
}
