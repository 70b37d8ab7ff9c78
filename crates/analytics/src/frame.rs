//! Columnar flow analytics: the struct-of-arrays [`FlowFrame`] and
//! its incremental [`FrameBuilder`].
//!
//! The paper reduces tens of billions of flow records to a handful of
//! per-country tables; at that scale the analytics stage is bound by
//! how many times it walks the record array and how much per-flow
//! work each walk repeats. The frame fixes both at build time:
//!
//! * **One enrichment pass.** Country, beam, service, category, and
//!   local hour are resolved once per flow while the frame is built
//!   (classification memoized per interned `Domain` handle) and
//!   stored as small integers. Every downstream figure reads a byte
//!   instead of re-probing hash maps and re-matching patterns.
//! * **Struct of arrays.** Each figure touches only the columns it
//!   needs; a sweep over `bytes_up`/`bytes_down` no longer drags the
//!   whole ~250-byte `FlowRecord` (plus its `early` vector and domain
//!   `Arc`) through the cache.
//! * **Streaming ingest.** [`FrameBuilder::push`] accepts evicted
//!   records one at a time, in *any* order, and [`FrameBuilder::seal`]
//!   restores the probe's canonical record order by sorting on the
//!   same total key `Probe::finish` uses — so a run can stream flows
//!   straight from the probe's eviction sink into the frame without
//!   ever materializing `Vec<FlowRecord>`, and still produce
//!   byte-identical reports (see DESIGN.md §10).
//!
//! Row order is the byte-equivalence contract: row `i` of a frame
//! built by [`FlowFrame::from_records`] is `flows[i]`, and a sealed
//! streaming frame equals the batch frame over the same dataset.

use crate::classify::{Classifier, ClassifyCache};
use satwatch_monitor::{Domain, FlowRecord, L7Protocol};
use satwatch_simcore::time::SECS_PER_DAY;
use satwatch_simcore::{FxHashMap, SimTime};
use satwatch_traffic::{Category, Country};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Operator-provided enrichment: anonymized customer address →
/// country / beam, plus static beam facts (paper §3.1: "mapping the
/// encrypted customer subnet to the corresponding country with the
/// support of the SatCom operator").
#[derive(Clone, Debug, Default)]
pub struct Enrichment {
    pub country_of: FxHashMap<Ipv4Addr, Country>,
    pub beam_of: FxHashMap<Ipv4Addr, u16>,
    /// Indexed by beam id. Empty when the source (e.g. a replayed
    /// log directory) carries no beam table.
    pub beams: Vec<BeamInfo>,
    /// Number of days the capture covers.
    pub days: u64,
}

#[derive(Clone, Debug)]
pub struct BeamInfo {
    pub name: String,
    pub country: Country,
    pub peak_utilization: f64,
}

impl Enrichment {
    pub fn country(&self, client: Ipv4Addr) -> Option<Country> {
        self.country_of.get(&client).copied()
    }

    pub fn customers_in(&self, c: Country) -> usize {
        self.country_of.values().filter(|&&cc| cc == c).count()
    }
}

/// Sentinel for "no country mapping" in [`FlowFrame::country`].
pub const NO_COUNTRY: u8 = u8::MAX;
/// Sentinel for "no beam mapping" in [`FlowFrame::beam`].
pub const NO_BEAM: u16 = u16::MAX;
/// Sentinel for "unclassified" in [`FlowFrame::category`].
pub const NO_CATEGORY: u8 = u8::MAX;
/// Sentinel for "unclassified" in [`FlowFrame::service`].
pub const NO_SERVICE: u16 = u16::MAX;
/// Sentinel for "no local hour" (no country) in [`FlowFrame::local_hour`].
pub const NO_HOUR: u8 = u8::MAX;

struct Metrics {
    rows: &'static satwatch_telemetry::Counter,
    build_us: &'static satwatch_telemetry::Histogram,
}

fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        rows: satwatch_telemetry::counter("analytics_frame_rows_total"),
        build_us: satwatch_telemetry::histogram("analytics_frame_build_us"),
    })
}

/// One flow, resolved to columns. Kept only inside the builder; the
/// sort-key fields (ports, server, protocol) are dropped at seal time
/// once the canonical order is restored.
#[derive(Clone, Debug)]
struct Row {
    // canonical sort key (mirrors `monitor::flow_sort_key`)
    first: SimTime,
    client: Ipv4Addr,
    client_port: u16,
    server: Ipv4Addr,
    server_port: u16,
    ip_proto: u8,
    // measurement columns
    bytes_up: u64,
    bytes_down: u64,
    ground_rtt_avg: f64,
    ground_rtt_samples: u64,
    sat_rtt_ms: f64,
    down_bps: f64,
    dur_s: f64,
    l7: u8,
    // pre-resolved enrichment columns
    country: u8,
    local_hour: u8,
    hour_utc: u8,
    day: u32,
    beam: u16,
    service: u16,
    category: u8,
    domain: Option<Domain>,
}

/// Struct-of-arrays flow table: one `Vec` per field, all of equal
/// length, row `i` describing one flow. Enrichment (country, beam,
/// local hour) and classification (service, category) are already
/// resolved into small integers — see the module docs.
#[derive(Clone, Debug, Default)]
pub struct FlowFrame {
    /// Anonymized client address (needed by the Table 2 DNS join).
    pub client: Vec<Ipv4Addr>,
    /// Flow start time (needed by the Table 2 DNS join + day/hour).
    pub first: Vec<SimTime>,
    /// Client→server (upload) bytes.
    pub bytes_up: Vec<u64>,
    /// Server→client (download) bytes.
    pub bytes_down: Vec<u64>,
    /// Mean ground-segment RTT, ms (valid iff `ground_rtt_samples > 0`).
    pub ground_rtt_avg: Vec<f64>,
    pub ground_rtt_samples: Vec<u64>,
    /// Satellite RTT, ms; `NaN` when the flow had no TLS estimate.
    pub sat_rtt_ms: Vec<f64>,
    /// Download throughput over the data window, bit/s (paper §6.5).
    pub down_bps: Vec<f64>,
    /// Flow duration, seconds.
    pub dur_s: Vec<f64>,
    /// `L7Protocol::ALL[l7[i]]` is the DPI verdict.
    pub l7: Vec<u8>,
    /// `Country::ALL[country[i]]`, or [`NO_COUNTRY`].
    pub country: Vec<u8>,
    /// Hour of day in the customer's local time, or [`NO_HOUR`].
    pub local_hour: Vec<u8>,
    /// Hour of day, UTC.
    pub hour_utc: Vec<u8>,
    /// Day index of the flow start.
    pub day: Vec<u32>,
    /// Beam id, or [`NO_BEAM`].
    pub beam: Vec<u16>,
    /// `services[service[i]]` is the classified service, or [`NO_SERVICE`].
    pub service: Vec<u16>,
    /// `Category::ALL[category[i]]`, or [`NO_CATEGORY`].
    pub category: Vec<u8>,
    /// Interned domain handle (kept for the Table 2 DNS join).
    pub domain: Vec<Option<Domain>>,
    /// Service-index table: `service` column values index this.
    pub services: Vec<&'static str>,
}

impl FlowFrame {
    /// Build a frame from records already in the probe's canonical
    /// output order. Row `i` is `flows[i]` — the caller's iteration
    /// order is preserved exactly, which is what makes frame sweeps
    /// byte-identical to record-slice passes.
    pub fn from_records(flows: &[FlowRecord], enr: &Enrichment) -> FlowFrame {
        let mut b = FrameBuilder::new(enr.clone());
        for f in flows {
            b.push(f);
        }
        b.finish(false)
    }

    /// Number of rows (flows).
    pub fn len(&self) -> usize {
        self.first.len()
    }

    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// The country of row `i`, if enriched.
    #[inline]
    pub fn country_at(&self, i: usize) -> Option<Country> {
        let idx = self.country[i];
        (idx != NO_COUNTRY).then(|| Country::ALL[idx as usize])
    }

    /// Total bytes (both directions) of row `i`.
    #[inline]
    pub fn flow_bytes(&self, i: usize) -> u64 {
        self.bytes_up[i] + self.bytes_down[i]
    }

    /// The beam of row `i`, if enriched.
    #[inline]
    pub fn beam_at(&self, i: usize) -> Option<u16> {
        let b = self.beam[i];
        (b != NO_BEAM).then_some(b)
    }

    /// The category of row `i`, if classified.
    #[inline]
    pub fn category_at(&self, i: usize) -> Option<Category> {
        let c = self.category[i];
        (c != NO_CATEGORY).then(|| Category::ALL[c as usize])
    }

    /// The classified service name of row `i`, if classified.
    #[inline]
    pub fn service_at(&self, i: usize) -> Option<&'static str> {
        let s = self.service[i];
        (s != NO_SERVICE).then(|| self.services[s as usize])
    }

    /// The local hour of row `i`, if the customer's country is known.
    #[inline]
    pub fn local_hour_at(&self, i: usize) -> Option<u8> {
        let h = self.local_hour[i];
        (h != NO_HOUR).then_some(h)
    }

    /// The satellite RTT of row `i` in ms, if the flow had an estimate.
    #[inline]
    pub fn sat_rtt_at(&self, i: usize) -> Option<f64> {
        let r = self.sat_rtt_ms[i];
        (!r.is_nan()).then_some(r)
    }

    /// Tile the frame `n` times: rows `0..len` repeated back to back.
    /// Used by `bench --replicate` to scale the analytics workload
    /// without changing the dataset; equals building a frame from the
    /// record slice repeated `n` times.
    pub fn replicate(&self, n: usize) -> FlowFrame {
        let mut out = self.clone();
        for _ in 1..n.max(1) {
            out.client.extend_from_slice(&self.client);
            out.first.extend_from_slice(&self.first);
            out.bytes_up.extend_from_slice(&self.bytes_up);
            out.bytes_down.extend_from_slice(&self.bytes_down);
            out.ground_rtt_avg.extend_from_slice(&self.ground_rtt_avg);
            out.ground_rtt_samples.extend_from_slice(&self.ground_rtt_samples);
            out.sat_rtt_ms.extend_from_slice(&self.sat_rtt_ms);
            out.down_bps.extend_from_slice(&self.down_bps);
            out.dur_s.extend_from_slice(&self.dur_s);
            out.l7.extend_from_slice(&self.l7);
            out.country.extend_from_slice(&self.country);
            out.local_hour.extend_from_slice(&self.local_hour);
            out.hour_utc.extend_from_slice(&self.hour_utc);
            out.day.extend_from_slice(&self.day);
            out.beam.extend_from_slice(&self.beam);
            out.service.extend_from_slice(&self.service);
            out.category.extend_from_slice(&self.category);
            out.domain.extend_from_slice(&self.domain);
        }
        out
    }

    /// Resident size of the column data, bytes (capacity-based; the
    /// `domain` column counts handles, not the shared string bytes).
    pub fn memory_bytes(&self) -> usize {
        self.client.capacity() * std::mem::size_of::<Ipv4Addr>()
            + self.first.capacity() * std::mem::size_of::<SimTime>()
            + (self.bytes_up.capacity() + self.bytes_down.capacity() + self.ground_rtt_samples.capacity()) * 8
            + (self.ground_rtt_avg.capacity() + self.sat_rtt_ms.capacity()) * 8
            + (self.down_bps.capacity() + self.dur_s.capacity()) * 8
            + self.l7.capacity()
            + self.country.capacity()
            + self.local_hour.capacity()
            + self.hour_utc.capacity()
            + self.day.capacity() * 4
            + (self.beam.capacity() + self.service.capacity()) * 2
            + self.category.capacity()
            + self.domain.capacity() * std::mem::size_of::<Option<Domain>>()
    }
}

/// Incremental frame builder: the enrichment pass. Owns the
/// enrichment maps and the Table 3 classifier, resolves every pushed
/// record to a [`Row`], and seals into a [`FlowFrame`].
pub struct FrameBuilder {
    enr: Enrichment,
    classifier: Classifier,
    cache: ClassifyCache,
    services: Vec<&'static str>,
    service_idx: FxHashMap<&'static str, u16>,
    rows: Vec<Row>,
}

impl FrameBuilder {
    /// A builder using the standard Table 3 classifier. The service
    /// table is the rule list in declaration order, so service
    /// indices are stable across builders.
    pub fn new(enr: Enrichment) -> FrameBuilder {
        let classifier = Classifier::standard();
        let services: Vec<&'static str> = classifier.rules().iter().map(|r| r.service).collect();
        let service_idx: FxHashMap<&'static str, u16> =
            services.iter().enumerate().map(|(i, s)| (*s, i as u16)).collect();
        FrameBuilder { enr, classifier, cache: ClassifyCache::default(), services, service_idx, rows: Vec::new() }
    }

    /// Resolve one record into a row. Accepts records in any order;
    /// [`FrameBuilder::seal`] restores the canonical order. The record
    /// must carry the *anonymized* client address (as records leaving
    /// the probe do) or the enrichment lookups will miss.
    pub fn push(&mut self, f: &FlowRecord) {
        let country = self.enr.country(f.client);
        let (service, category) = match &f.domain {
            Some(d) => match self.classifier.classify_cached(d, &mut self.cache) {
                Some((svc, cat)) => (self.service_idx[svc], cat.index() as u8),
                None => (NO_SERVICE, NO_CATEGORY),
            },
            None => (NO_SERVICE, NO_CATEGORY),
        };
        self.rows.push(Row {
            first: f.first,
            client: f.client,
            client_port: f.client_port,
            server: f.server,
            server_port: f.server_port,
            ip_proto: f.ip_proto,
            bytes_up: f.c2s_bytes,
            bytes_down: f.s2c_bytes,
            ground_rtt_avg: f.ground_rtt.avg_ms,
            ground_rtt_samples: f.ground_rtt.samples,
            sat_rtt_ms: f.sat_rtt_ms.unwrap_or(f64::NAN),
            down_bps: f.download_throughput_bps(),
            dur_s: f.duration_s(),
            l7: f.l7.index() as u8,
            country: country.map_or(NO_COUNTRY, |c| c.index() as u8),
            local_hour: country.map_or(NO_HOUR, |c| f.first.local_hour(c.tz_offset()) as u8),
            hour_utc: f.first.hour_of_day() as u8,
            day: (f.first.as_secs() / SECS_PER_DAY) as u32,
            beam: self.enr.beam_of.get(&f.client).copied().unwrap_or(NO_BEAM),
            service,
            category,
            domain: f.domain.clone(),
        });
    }

    /// Rows buffered so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The enrichment the builder resolves against.
    pub fn enrichment(&self) -> &Enrichment {
        &self.enr
    }

    /// Seal a stream-built frame: sort rows into the probe's canonical
    /// record order, then scatter into columns. Sorting here is what
    /// makes eviction order irrelevant — the key is the same total
    /// `(first, client, cport, server, sport, proto)` key
    /// `Probe::finish` sorts by, so any permutation of the same flow
    /// set seals into the identical frame.
    pub fn seal(self) -> FlowFrame {
        self.finish(true)
    }

    fn finish(mut self, sort: bool) -> FlowFrame {
        let _span = satwatch_telemetry::Span::over(metrics().build_us);
        if sort {
            self.rows.sort_by_key(|r| (r.first, r.client, r.client_port, r.server, r.server_port, r.ip_proto));
        }
        let n = self.rows.len();
        metrics().rows.add(n as u64);
        let mut fr = FlowFrame {
            client: Vec::with_capacity(n),
            first: Vec::with_capacity(n),
            bytes_up: Vec::with_capacity(n),
            bytes_down: Vec::with_capacity(n),
            ground_rtt_avg: Vec::with_capacity(n),
            ground_rtt_samples: Vec::with_capacity(n),
            sat_rtt_ms: Vec::with_capacity(n),
            down_bps: Vec::with_capacity(n),
            dur_s: Vec::with_capacity(n),
            l7: Vec::with_capacity(n),
            country: Vec::with_capacity(n),
            local_hour: Vec::with_capacity(n),
            hour_utc: Vec::with_capacity(n),
            day: Vec::with_capacity(n),
            beam: Vec::with_capacity(n),
            service: Vec::with_capacity(n),
            category: Vec::with_capacity(n),
            domain: Vec::with_capacity(n),
            services: self.services,
        };
        for r in self.rows {
            fr.client.push(r.client);
            fr.first.push(r.first);
            fr.bytes_up.push(r.bytes_up);
            fr.bytes_down.push(r.bytes_down);
            fr.ground_rtt_avg.push(r.ground_rtt_avg);
            fr.ground_rtt_samples.push(r.ground_rtt_samples);
            fr.sat_rtt_ms.push(r.sat_rtt_ms);
            fr.down_bps.push(r.down_bps);
            fr.dur_s.push(r.dur_s);
            fr.l7.push(r.l7);
            fr.country.push(r.country);
            fr.local_hour.push(r.local_hour);
            fr.hour_utc.push(r.hour_utc);
            fr.day.push(r.day);
            fr.beam.push(r.beam);
            fr.service.push(r.service);
            fr.category.push(r.category);
            fr.domain.push(r.domain);
        }
        fr
    }
}

/// `L7Protocol` of row value `v` (inverse of `L7Protocol::index`).
#[inline]
pub fn l7_of(v: u8) -> L7Protocol {
    L7Protocol::ALL[v as usize]
}

/// `Category` of row value `v` (inverse of `Category::index`).
#[inline]
pub fn category_of(v: u8) -> Category {
    Category::ALL[v as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_monitor::record::RttSummary;
    use satwatch_simcore::SimDuration;

    fn flow(i: u8, hour: u32, domain: Option<&str>) -> FlowRecord {
        FlowRecord {
            client: Ipv4Addr::new(77, 0, 0, i),
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 50_000 + u16::from(i),
            server_port: 443,
            ip_proto: 6,
            first: SimTime::from_secs(hour as u64 * 3600 + u64::from(i)),
            last: SimTime::from_secs(hour as u64 * 3600 + u64::from(i)) + SimDuration::from_secs(10),
            c2s_packets: 5,
            c2s_bytes: 100 + u64::from(i),
            c2s_payload_bytes: 100,
            s2c_packets: 10,
            s2c_bytes: 1_000 + u64::from(i),
            s2c_payload_bytes: 1_000,
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
            l7: L7Protocol::TlsHttps,
            domain: domain.map(Into::into),
        }
    }

    fn enrichment() -> Enrichment {
        let mut e = Enrichment { days: 1, ..Default::default() };
        e.country_of.insert(Ipv4Addr::new(77, 0, 0, 1), Country::Congo);
        e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 1), 3);
        e
    }

    #[test]
    fn columns_resolve_enrichment_and_classification() {
        let flows = vec![flow(1, 14, Some("video.tiktokv.com")), flow(2, 3, None)];
        let fr = FlowFrame::from_records(&flows, &enrichment());
        assert_eq!(fr.len(), 2);
        // enriched row
        assert_eq!(fr.country_at(0), Some(Country::Congo));
        assert_eq!(fr.beam[0], 3);
        assert_eq!(fr.local_hour[0], 15, "Congo is UTC+1");
        assert_eq!(fr.hour_utc[0], 14);
        assert_eq!(fr.services[fr.service[0] as usize], "Tiktok");
        assert_eq!(category_of(fr.category[0]), Category::Social);
        // unenriched, unclassified row
        assert_eq!(fr.country_at(1), None);
        assert_eq!(fr.beam[1], NO_BEAM);
        assert_eq!(fr.local_hour[1], NO_HOUR);
        assert_eq!(fr.service[1], NO_SERVICE);
        assert_eq!(fr.category[1], NO_CATEGORY);
        assert_eq!(fr.flow_bytes(0), flows[0].c2s_bytes + flows[0].s2c_bytes);
        assert_eq!(l7_of(fr.l7[0]), L7Protocol::TlsHttps);
    }

    #[test]
    fn sealed_stream_equals_batch_in_any_push_order() {
        let mut flows: Vec<FlowRecord> =
            (0..20).map(|i| flow(i % 5, u32::from(i) % 24, Some("docs.google.com"))).collect();
        flows.sort_by_key(|f| (f.first, f.client, f.client_port, f.server, f.server_port, f.ip_proto));
        let batch = FlowFrame::from_records(&flows, &enrichment());
        // push in reversed (≠ canonical) order, as an eviction stream might
        let mut b = FrameBuilder::new(enrichment());
        for f in flows.iter().rev() {
            b.push(f);
        }
        let sealed = b.seal();
        assert_eq!(sealed.len(), batch.len());
        assert_eq!(sealed.first, batch.first);
        assert_eq!(sealed.client, batch.client);
        assert_eq!(sealed.bytes_up, batch.bytes_up);
        assert_eq!(sealed.bytes_down, batch.bytes_down);
        assert_eq!(sealed.country, batch.country);
        assert_eq!(sealed.service, batch.service);
        assert_eq!(sealed.category, batch.category);
        assert_eq!(sealed.day, batch.day);
    }

    #[test]
    fn replicate_tiles_rows() {
        let flows = vec![flow(1, 10, None), flow(2, 11, None)];
        let fr = FlowFrame::from_records(&flows, &enrichment());
        let tiled = fr.replicate(3);
        assert_eq!(tiled.len(), 6);
        assert_eq!(&tiled.bytes_up[0..2], &tiled.bytes_up[2..4]);
        assert_eq!(tiled.first[4], fr.first[0]);
        assert!(tiled.memory_bytes() > fr.memory_bytes());
    }
}
