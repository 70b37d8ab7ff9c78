//! The analyst log directory `simulate --out DIR` writes and
//! `replay --logs DIR` reads back: the probe's flow and DNS logs plus
//! the operator's enrichment map, one TSV file each.
//!
//! | file | rows | codec |
//! |---|---|---|
//! | `flows.tsv` | one per flow | [`write_flows`] / [`read_flows`] |
//! | `dns.tsv` | one per DNS transaction | [`write_dns`] / [`read_dns`] |
//! | `enrichment.tsv` | one per customer: country and beam | [`write_enrichment`] / [`read_enrichment`] |
//!
//! [`write_logs`] and [`read_logs`] are the only code that touches
//! the files. Every file goes through one `BufWriter`/`BufReader`, so
//! a row costs no syscall of its own. A writer is flushed explicitly
//! before it is dropped, so an error raised only at the final flush
//! (a full disk) still comes back as an error. The bytes on disk are
//! exactly what the same writers produce into memory. Read errors are
//! `InvalidData` and name the file and the 1-based line.
//!
//! The per-beam series `Enrichment::beams` (beam names and peak
//! utilisation) is not persisted, so a replayed dataset cannot render
//! Fig 8b; `Enrichment::days` is recovered from the last flow's day.

use crate::run::Dataset;
use satwatch_analytics::frame::NO_BEAM;
use satwatch_analytics::Enrichment;
use satwatch_monitor::record::{field, opt_field, read_flows, read_tsv, write_flows};
use satwatch_monitor::{DnsRecord, DomainInterner};
use satwatch_simcore::SimTime;
use satwatch_traffic::Country;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

pub const FLOWS_FILE: &str = "flows.tsv";
pub const DNS_FILE: &str = "dns.tsv";
pub const ENRICHMENT_FILE: &str = "enrichment.tsv";
/// The log directory's files, in the order [`write_logs`] writes them.
pub const LOG_FILES: [&str; 3] = [FLOWS_FILE, DNS_FILE, ENRICHMENT_FILE];

const DNS_HEADER: &str = "client\tresolver\tquery\tts_ns\tresponse_ms\tanswers";
const ENRICHMENT_HEADER: &str = "client\tcountry\tbeam";

/// Write `ds` as the three log files under `dir`, creating `dir` if
/// needed.
pub fn write_logs(dir: &Path, ds: &Dataset) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    write_file(dir, FLOWS_FILE, |w| write_flows(w, &ds.flows))?;
    write_file(dir, DNS_FILE, |w| write_dns(w, &ds.dns))?;
    write_file(dir, ENRICHMENT_FILE, |w| write_enrichment(w, &ds.enrichment))
}

/// Read the three log files under `dir` back into a [`Dataset`]
/// (`packets` is 0: the logs do not record it).
pub fn read_logs(dir: &Path) -> io::Result<Dataset> {
    let flows = read_file(dir, FLOWS_FILE, read_flows)?;
    let dns = read_file(dir, DNS_FILE, read_dns)?;
    let mut enrichment = read_file(dir, ENRICHMENT_FILE, read_enrichment)?;
    enrichment.days = flows.iter().map(|f| f.first.day()).max().unwrap_or(0) + 1;
    Ok(Dataset { flows, dns, enrichment, packets: 0 })
}

fn write_file(dir: &Path, name: &str, body: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) -> io::Result<()> {
    let write = || {
        let mut w = BufWriter::new(File::create(dir.join(name))?);
        body(&mut w)?;
        w.flush()
    };
    write().map_err(|e| in_file(name, e))
}

fn read_file<T>(dir: &Path, name: &str, read: impl FnOnce(BufReader<File>) -> io::Result<T>) -> io::Result<T> {
    File::open(dir.join(name)).and_then(|f| read(BufReader::new(f))).map_err(|e| in_file(name, e))
}

fn in_file(name: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{name}: {e}"))
}

/// Write the DNS log: one header line, then one row per transaction.
pub fn write_dns<W: Write>(w: &mut W, dns: &[DnsRecord]) -> io::Result<()> {
    writeln!(w, "{DNS_HEADER}")?;
    for d in dns {
        write!(w, "{}\t{}\t{}\t{}\t", d.client, d.resolver, d.query, d.ts.as_nanos())?;
        match d.response_ms {
            Some(v) => write!(w, "{v:.3}\t")?,
            None => w.write_all(b"-\t")?,
        }
        for (i, a) in d.answers.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{a}")?;
        }
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Read the DNS log back. Response times come back at the 3 decimals
/// the log keeps; query names are interned like [`read_flows`]'s
/// domains.
pub fn read_dns<R: BufRead>(r: R) -> io::Result<Vec<DnsRecord>> {
    let mut out = Vec::new();
    let mut names = DomainInterner::new();
    read_tsv(r, DNS_HEADER, |f: [&str; 6]| {
        out.push(DnsRecord {
            client: field(f[0], "client")?,
            resolver: field(f[1], "resolver")?,
            query: names.intern(f[2]),
            ts: SimTime::from_nanos(field(f[3], "ts_ns")?),
            response_ms: opt_field(f[4], "response_ms")?,
            answers: if f[5].is_empty() {
                Vec::new()
            } else {
                f[5].split(',').map(|a| field(a, "answer")).collect::<Result<_, _>>()?
            },
        });
        Ok(())
    })?;
    Ok(out)
}

/// Write the enrichment map, one row per customer in address order.
/// A customer without a beam is written with beam [`NO_BEAM`].
pub fn write_enrichment<W: Write>(w: &mut W, e: &Enrichment) -> io::Result<()> {
    writeln!(w, "{ENRICHMENT_HEADER}")?;
    let mut rows: Vec<_> = e.country_of.iter().collect();
    rows.sort_by_key(|(a, _)| **a);
    for (addr, country) in rows {
        let beam = e.beam_of.get(addr).copied().unwrap_or(NO_BEAM);
        writeln!(w, "{addr}\t{}\t{beam}", country.code())?;
    }
    Ok(())
}

/// Read the enrichment map back: `country_of` and `beam_of` only.
pub fn read_enrichment<R: BufRead>(r: R) -> io::Result<Enrichment> {
    let mut e = Enrichment::default();
    read_tsv(r, ENRICHMENT_HEADER, |f: [&str; 3]| {
        let addr = field(f[0], "client")?;
        let country = Country::from_code(f[1]).ok_or_else(|| format!("unknown country {:?}", f[1]))?;
        let beam: u16 = field(f[2], "beam")?;
        e.country_of.insert(addr, country);
        if beam != NO_BEAM {
            e.beam_of.insert(addr, beam);
        }
        Ok(())
    })?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn dns(response_ms: Option<f64>, answers: Vec<Ipv4Addr>) -> DnsRecord {
        DnsRecord {
            client: Ipv4Addr::new(10, 0, 0, 1),
            resolver: Ipv4Addr::new(8, 8, 8, 8),
            query: "a.example".into(),
            ts: SimTime::from_nanos(1_500),
            response_ms,
            answers,
        }
    }

    #[test]
    fn dns_rows_keep_their_format() {
        let recs =
            [dns(Some(12.3456), vec![Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8)]), dns(None, Vec::new())];
        let mut buf = Vec::new();
        write_dns(&mut buf, &recs).unwrap();
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            "client\tresolver\tquery\tts_ns\tresponse_ms\tanswers\n\
             10.0.0.1\t8.8.8.8\ta.example\t1500\t12.346\t1.2.3.4,5.6.7.8\n\
             10.0.0.1\t8.8.8.8\ta.example\t1500\t-\t\n"
        );
        let back = read_dns(&buf[..]).unwrap();
        assert_eq!(back[0].response_ms, Some(12.346));
        assert_eq!(back[1..], recs[1..]);
        assert!(std::sync::Arc::ptr_eq(&back[0].query, &back[1].query));
    }

    #[test]
    fn enrichment_round_trips_missing_beams() {
        let mut e = Enrichment::default();
        e.country_of.insert(Ipv4Addr::new(77, 0, 0, 1), Country::Congo);
        e.country_of.insert(Ipv4Addr::new(77, 0, 0, 2), Country::Spain);
        e.beam_of.insert(Ipv4Addr::new(77, 0, 0, 1), 3);
        let mut buf = Vec::new();
        write_enrichment(&mut buf, &e).unwrap();
        assert_eq!(buf, b"client\tcountry\tbeam\n77.0.0.1\tCD\t3\n77.0.0.2\tES\t65535\n");
        let back = read_enrichment(&buf[..]).unwrap();
        assert_eq!(back.country_of, e.country_of);
        assert_eq!(back.beam_of, e.beam_of);
    }

    #[test]
    fn read_errors_name_the_file_and_line() {
        let dir = std::env::temp_dir().join(format!("satwatch-logs-unit-{}", std::process::id()));
        let ds = Dataset { flows: Vec::new(), dns: Vec::new(), enrichment: Enrichment::default(), packets: 0 };
        write_logs(&dir, &ds).unwrap();
        fs::write(dir.join(DNS_FILE), format!("{DNS_HEADER}\n\nnot-an-ip\t8.8.8.8\tq\t1\t-\t\n")).unwrap();
        let err = read_logs(&dir).err().expect("bad row must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "dns.tsv: line 3: bad client \"not-an-ip\"");
        fs::remove_file(dir.join(ENRICHMENT_FILE)).unwrap();
        fs::write(dir.join(DNS_FILE), format!("{DNS_HEADER}\n")).unwrap();
        let err = read_logs(&dir).err().expect("missing file must fail");
        assert!(err.to_string().starts_with("enrichment.tsv: "), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
