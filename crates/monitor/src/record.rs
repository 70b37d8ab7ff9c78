//! Flow-level output records — the monitor's equivalent of Tstat's
//! per-flow log lines — plus TSV serialisation.
//!
//! One [`FlowRecord`] per terminated flow with the statistics the
//! paper's analyses rely on (§2.2): per-direction volumes, timing of
//! the first packets, ground-RTT statistics from data↔ACK matching,
//! the TLS-estimated satellite RTT, and the DPI verdict (protocol +
//! domain). One [`DnsRecord`] per observed DNS transaction.

pub use crate::intern::Domain;
use crate::intern::DomainInterner;
use satwatch_simcore::stats::Running;
use satwatch_simcore::SimTime;
use std::io::{self, BufRead, Write};
use std::net::Ipv4Addr;

/// L7 protocol classification, matching the paper's Table 1 rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum L7Protocol {
    /// TCP port 443 with a TLS handshake.
    TlsHttps,
    /// Plain-text HTTP.
    Http,
    /// QUIC over UDP.
    Quic,
    /// DNS over UDP.
    Dns,
    /// RTP voice/video.
    Rtp,
    /// TCP that matched nothing (VPNs, proprietary protocols…).
    OtherTcp,
    /// UDP that matched nothing.
    OtherUdp,
}

impl L7Protocol {
    pub fn label(self) -> &'static str {
        match self {
            L7Protocol::TlsHttps => "TCP/HTTPS",
            L7Protocol::Http => "TCP/HTTP",
            L7Protocol::Quic => "UDP/QUIC",
            L7Protocol::Dns => "UDP/DNS",
            L7Protocol::Rtp => "UDP/RTP",
            L7Protocol::OtherTcp => "Other TCP",
            L7Protocol::OtherUdp => "Other UDP",
        }
    }

    pub fn from_label(s: &str) -> Option<L7Protocol> {
        Some(match s {
            "TCP/HTTPS" => L7Protocol::TlsHttps,
            "TCP/HTTP" => L7Protocol::Http,
            "UDP/QUIC" => L7Protocol::Quic,
            "UDP/DNS" => L7Protocol::Dns,
            "UDP/RTP" => L7Protocol::Rtp,
            "Other TCP" => L7Protocol::OtherTcp,
            "Other UDP" => L7Protocol::OtherUdp,
            _ => return None,
        })
    }

    pub const ALL: [L7Protocol; 7] = [
        L7Protocol::TlsHttps,
        L7Protocol::Http,
        L7Protocol::OtherTcp,
        L7Protocol::Quic,
        L7Protocol::Rtp,
        L7Protocol::Dns,
        L7Protocol::OtherUdp,
    ];

    /// Position of `self` in [`L7Protocol::ALL`].
    pub const fn index(self) -> usize {
        match self {
            L7Protocol::TlsHttps => 0,
            L7Protocol::Http => 1,
            L7Protocol::OtherTcp => 2,
            L7Protocol::Quic => 3,
            L7Protocol::Rtp => 4,
            L7Protocol::Dns => 5,
            L7Protocol::OtherUdp => 6,
        }
    }
}

/// Min/avg/max/std summary of the RTT samples in one flow.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RttSummary {
    pub samples: u64,
    pub min_ms: f64,
    pub avg_ms: f64,
    pub max_ms: f64,
    pub std_ms: f64,
}

impl RttSummary {
    pub fn from_running(r: &Running) -> RttSummary {
        if r.count() == 0 {
            return RttSummary::default();
        }
        RttSummary { samples: r.count(), min_ms: r.min(), avg_ms: r.mean(), max_ms: r.max(), std_ms: r.std_dev() }
    }
}

/// Timing/size of one of the first packets of a flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyPacket {
    /// Offset from the flow's first packet, ms.
    pub offset_ms: f64,
    pub wire_len: u16,
    /// Direction: true = client→server (customer upload side).
    pub c2s: bool,
}

/// One completed flow.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// Anonymized customer (CPE) address.
    pub client: Ipv4Addr,
    pub server: Ipv4Addr,
    pub client_port: u16,
    pub server_port: u16,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub ip_proto: u8,
    pub first: SimTime,
    pub last: SimTime,
    pub c2s_packets: u64,
    pub c2s_bytes: u64,
    pub c2s_payload_bytes: u64,
    pub s2c_packets: u64,
    pub s2c_bytes: u64,
    pub s2c_payload_bytes: u64,
    /// TCP segments re-occupying already-seen sequence space, per
    /// direction (Tstat's retransmission counters). On the ground
    /// segment these witness loss between the PEP and the origin.
    pub c2s_retrans: u64,
    pub s2c_retrans: u64,
    /// Timing of the first up-to-10 packets (paper §2.2 metric ii).
    pub early: Vec<EarlyPacket>,
    pub syn_seen: bool,
    pub fin_seen: bool,
    pub rst_seen: bool,
    /// Ground-segment RTT from data↔ACK matching at the vantage point.
    pub ground_rtt: RttSummary,
    /// First/last server→client packet carrying payload. The paper's
    /// §6.5 throughput is computed over this window ("from the first
    /// to the last TCP segment with data sent"), not the whole flow.
    pub s2c_data_first: Option<SimTime>,
    pub s2c_data_last: Option<SimTime>,
    /// Satellite-segment RTT from the TLS ServerHello →
    /// ClientKeyExchange gap, if the flow completed a TLS handshake.
    pub sat_rtt_ms: Option<f64>,
    pub l7: L7Protocol,
    /// Domain from SNI (TLS/QUIC) or Host (HTTP). Interned: one
    /// shared `Arc<str>` per unique name across all records.
    pub domain: Option<Domain>,
}

impl FlowRecord {
    /// Flow duration in seconds (first to last observed packet).
    pub fn duration_s(&self) -> f64 {
        (self.last - self.first).as_secs_f64().max(0.0)
    }

    /// Gross download throughput (server→client), bit/s, computed as
    /// the paper does in §6.5: bytes over the data window ("from the
    /// first to the last TCP segment with data sent"), falling back to
    /// the whole flow when no data window was observed.
    pub fn download_throughput_bps(&self) -> f64 {
        let d = match (self.s2c_data_first, self.s2c_data_last) {
            (Some(a), Some(b)) if b > a => (b - a).as_secs_f64(),
            _ => self.duration_s(),
        };
        if d <= 0.0 {
            return 0.0;
        }
        self.s2c_bytes as f64 * 8.0 / d
    }
}

/// One DNS transaction observed at the ground station.
#[derive(Clone, Debug, PartialEq)]
pub struct DnsRecord {
    /// Anonymized customer address.
    pub client: Ipv4Addr,
    /// Resolver the customer used.
    pub resolver: Ipv4Addr,
    /// Queried name (interned — see [`Domain`]).
    pub query: Domain,
    pub ts: SimTime,
    /// Query → response gap at the vantage point, ms. `None` if the
    /// response was never seen (timeout/loss).
    pub response_ms: Option<f64>,
    pub answers: Vec<Ipv4Addr>,
}

const FLOW_HEADER: &str = "client\tserver\tcport\tsport\tproto\tfirst_ns\tlast_ns\tc2s_pkts\tc2s_bytes\tc2s_payload\ts2c_pkts\ts2c_bytes\ts2c_payload\tc2s_rtx\ts2c_rtx\tsyn\tfin\trst\trtt_n\trtt_min\trtt_avg\trtt_max\trtt_std\tdata_first_ns\tdata_last_ns\tsat_rtt_ms\tl7\tdomain";

/// Write flow records as TSV (one header line + one line per flow).
pub fn write_flows<W: Write>(w: &mut W, flows: &[FlowRecord]) -> io::Result<()> {
    writeln!(w, "{FLOW_HEADER}")?;
    for f in flows {
        write_flow_row(w, f)?;
    }
    Ok(())
}

/// Write one flow record as a TSV row (no header). Extracted from
/// [`write_flows`] so streaming consumers — the campaign engine's
/// incremental dataset digest — hash exactly the bytes the batch flow
/// log would contain, one row at a time.
pub fn write_flow_row<W: Write>(w: &mut W, f: &FlowRecord) -> io::Result<()> {
    writeln!(
        w,
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{}",
        f.client,
        f.server,
        f.client_port,
        f.server_port,
        f.ip_proto,
        f.first.as_nanos(),
        f.last.as_nanos(),
        f.c2s_packets,
        f.c2s_bytes,
        f.c2s_payload_bytes,
        f.s2c_packets,
        f.s2c_bytes,
        f.s2c_payload_bytes,
        f.c2s_retrans,
        f.s2c_retrans,
        u8::from(f.syn_seen),
        u8::from(f.fin_seen),
        u8::from(f.rst_seen),
        f.ground_rtt.samples,
        f.ground_rtt.min_ms,
        f.ground_rtt.avg_ms,
        f.ground_rtt.max_ms,
        f.ground_rtt.std_ms,
        f.s2c_data_first.map_or("-".to_string(), |t| t.as_nanos().to_string()),
        f.s2c_data_last.map_or("-".to_string(), |t| t.as_nanos().to_string()),
        f.sat_rtt_ms.map_or("-".to_string(), |v| format!("{v:.3}")),
        f.l7.label(),
        f.domain.as_deref().unwrap_or("-"),
    )
}

/// Drive `row` over every data line of a TSV log with an `N`-column
/// `header`: checks the header line, skips blank lines, and splits
/// each row into exactly `N` fields. Every failure is an error that
/// names the 1-based line: a bad header, a wrong field count, invalid
/// UTF-8 and the `Err(what)` `row` returns for a field it cannot
/// parse are `InvalidData`; a failing reader keeps its own kind. One
/// reused line buffer; no per-row allocation.
pub fn read_tsv<R: BufRead, const N: usize>(
    mut r: R,
    header: &str,
    mut row: impl FnMut([&str; N]) -> Result<(), String>,
) -> io::Result<()> {
    let invalid =
        |lineno: usize, msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {msg}"));
    let mut line = String::new();
    let mut lineno = 0;
    loop {
        line.clear();
        lineno += 1;
        let n = r.read_line(&mut line).map_err(|e| io::Error::new(e.kind(), format!("line {lineno}: {e}")))?;
        if n == 0 {
            if lineno == 1 {
                return Err(invalid(lineno, "missing header".into()));
            }
            return Ok(());
        }
        let text = line.strip_suffix('\n').map_or(&line[..], |l| l.strip_suffix('\r').unwrap_or(l));
        if lineno == 1 {
            if text != header {
                return Err(invalid(lineno, "bad header".into()));
            }
            continue;
        }
        if text.is_empty() {
            continue;
        }
        let mut fields = [""; N];
        let mut got = 0;
        for field in text.split('\t') {
            if got < N {
                fields[got] = field;
            }
            got += 1;
        }
        if got != N {
            return Err(invalid(lineno, format!("expected {N} fields, got {got}")));
        }
        row(fields).map_err(|what| invalid(lineno, what))?;
    }
}

/// Parse one TSV field, naming it in the error.
pub fn field<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} {s:?}"))
}

/// Parse a field where `-` means absent.
pub fn opt_field<T: std::str::FromStr>(s: &str, what: &str) -> Result<Option<T>, String> {
    if s == "-" {
        Ok(None)
    } else {
        field(s, what).map(Some)
    }
}

/// Read flow records back from TSV. Early-packet timing is not
/// serialised (Tstat's default logs omit it too); the field comes
/// back empty. Domains are interned, so a replayed log shares one
/// `Arc<str>` per name exactly as a live run's records do.
pub fn read_flows<R: BufRead>(r: R) -> io::Result<Vec<FlowRecord>> {
    let mut out = Vec::new();
    let mut domains = DomainInterner::new();
    read_tsv(r, FLOW_HEADER, |f: [&str; 28]| {
        out.push(FlowRecord {
            client: field(f[0], "client")?,
            server: field(f[1], "server")?,
            client_port: field(f[2], "cport")?,
            server_port: field(f[3], "sport")?,
            ip_proto: field(f[4], "proto")?,
            first: SimTime::from_nanos(field(f[5], "first")?),
            last: SimTime::from_nanos(field(f[6], "last")?),
            c2s_packets: field(f[7], "c2s_pkts")?,
            c2s_bytes: field(f[8], "c2s_bytes")?,
            c2s_payload_bytes: field(f[9], "c2s_payload")?,
            s2c_packets: field(f[10], "s2c_pkts")?,
            s2c_bytes: field(f[11], "s2c_bytes")?,
            s2c_payload_bytes: field(f[12], "s2c_payload")?,
            c2s_retrans: field(f[13], "c2s_rtx")?,
            s2c_retrans: field(f[14], "s2c_rtx")?,
            early: Vec::new(),
            syn_seen: f[15] == "1",
            fin_seen: f[16] == "1",
            rst_seen: f[17] == "1",
            ground_rtt: RttSummary {
                samples: field(f[18], "rtt_n")?,
                min_ms: field(f[19], "rtt_min")?,
                avg_ms: field(f[20], "rtt_avg")?,
                max_ms: field(f[21], "rtt_max")?,
                std_ms: field(f[22], "rtt_std")?,
            },
            s2c_data_first: opt_field(f[23], "data_first")?.map(SimTime::from_nanos),
            s2c_data_last: opt_field(f[24], "data_last")?.map(SimTime::from_nanos),
            sat_rtt_ms: opt_field(f[25], "sat_rtt")?,
            l7: L7Protocol::from_label(f[26]).ok_or_else(|| format!("bad l7 {:?}", f[26]))?,
            domain: (f[27] != "-").then(|| domains.intern(f[27])),
        });
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_simcore::SimDuration;

    pub(crate) fn sample_flow() -> FlowRecord {
        FlowRecord {
            client: Ipv4Addr::new(10, 9, 8, 7),
            server: Ipv4Addr::new(198, 18, 0, 1),
            client_port: 55_123,
            server_port: 443,
            ip_proto: 6,
            first: SimTime::from_secs(100),
            last: SimTime::from_secs(100) + SimDuration::from_millis(2500),
            c2s_packets: 12,
            c2s_bytes: 2_400,
            c2s_payload_bytes: 1_900,
            s2c_packets: 40,
            s2c_bytes: 55_000,
            s2c_payload_bytes: 53_000,
            c2s_retrans: 0,
            s2c_retrans: 1,
            early: vec![EarlyPacket { offset_ms: 0.0, wire_len: 60, c2s: true }],
            syn_seen: true,
            fin_seen: true,
            rst_seen: false,
            ground_rtt: RttSummary { samples: 9, min_ms: 11.8, avg_ms: 12.4, max_ms: 14.0, std_ms: 0.6 },
            s2c_data_first: Some(SimTime::from_secs(100)),
            s2c_data_last: Some(SimTime::from_secs(100) + SimDuration::from_millis(2500)),
            sat_rtt_ms: Some(612.5),
            l7: L7Protocol::TlsHttps,
            domain: Some("static.whatsapp.net".into()),
        }
    }

    #[test]
    fn duration_and_throughput() {
        let f = sample_flow();
        assert!((f.duration_s() - 2.5).abs() < 1e-9);
        assert!((f.download_throughput_bps() - 55_000.0 * 8.0 / 2.5).abs() < 1.0);
    }

    #[test]
    fn zero_duration_throughput_is_zero() {
        let mut f = sample_flow();
        f.last = f.first;
        f.s2c_data_first = None;
        f.s2c_data_last = None;
        assert_eq!(f.download_throughput_bps(), 0.0);
    }

    #[test]
    fn throughput_uses_data_window_when_present() {
        let mut f = sample_flow();
        // whole flow lasts 2.5 s, but the data window is only 1 s
        f.s2c_data_first = Some(f.first + SimDuration::from_millis(1000));
        f.s2c_data_last = Some(f.first + SimDuration::from_millis(2000));
        assert!((f.download_throughput_bps() - 55_000.0 * 8.0).abs() < 1.0);
    }

    #[test]
    fn tsv_round_trip() {
        let flows = vec![sample_flow(), {
            let mut f = sample_flow();
            f.l7 = L7Protocol::OtherUdp;
            f.ip_proto = 17;
            f.domain = None;
            f.sat_rtt_ms = None;
            f
        }];
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows).unwrap();
        let mut back = read_flows(io::BufReader::new(&buf[..])).unwrap();
        // early packets are not serialised
        assert_eq!(back.len(), 2);
        for b in &mut back {
            assert!(b.early.is_empty());
        }
        let mut want = flows.clone();
        for w in &mut want {
            w.early.clear();
        }
        // float formatting is 3-decimal; compare field-wise with tolerance
        assert_eq!(back[0].client, want[0].client);
        assert_eq!(back[0].l7, want[0].l7);
        assert_eq!(back[0].domain, want[0].domain);
        assert!((back[0].ground_rtt.avg_ms - want[0].ground_rtt.avg_ms).abs() < 1e-3);
        assert!((back[0].sat_rtt_ms.unwrap() - 612.5).abs() < 1e-3);
        assert_eq!(back[1].sat_rtt_ms, None);
        assert_eq!(back[1].domain, None);
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(read_flows(io::BufReader::new(&b"not a header\n"[..])).is_err());
        let bad = format!("{FLOW_HEADER}\nonly\tthree\tfields\n");
        assert!(read_flows(io::BufReader::new(bad.as_bytes())).is_err());
    }

    #[test]
    fn protocol_labels_round_trip() {
        for p in L7Protocol::ALL {
            assert_eq!(L7Protocol::from_label(p.label()), Some(p));
        }
        assert_eq!(L7Protocol::from_label("bogus"), None);
    }

    #[test]
    fn rtt_summary_from_running() {
        let mut r = Running::new();
        for x in [10.0, 12.0, 14.0] {
            r.push(x);
        }
        let s = RttSummary::from_running(&r);
        assert_eq!(s.samples, 3);
        assert_eq!(s.min_ms, 10.0);
        assert_eq!(s.max_ms, 14.0);
        assert!((s.avg_ms - 12.0).abs() < 1e-12);
        assert_eq!(RttSummary::from_running(&Running::new()), RttSummary::default());
    }
}
