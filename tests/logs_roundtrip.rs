//! Flow-log persistence: the monitor's TSV logs must round-trip a
//! real scenario's records, and the analytics pipeline must produce
//! identical reports from reloaded logs (the paper's workflow:
//! capture at the ISP, analyse later on the Hadoop cluster).

use satwatch::monitor::record::{read_flows, write_flows};
use satwatch::monitor::Domain;
use satwatch::scenario::logs::{read_logs, write_logs, FLOWS_FILE};
use satwatch::scenario::{experiments, run, ScenarioConfig};
use std::collections::HashMap;
use std::io::BufReader;
use std::sync::Arc;

#[test]
fn tsv_round_trip_preserves_analysis() {
    let ds = run(ScenarioConfig::tiny().with_customers(80).with_seed(5));
    assert!(ds.flows.len() > 500);

    let mut buf = Vec::new();
    write_flows(&mut buf, &ds.flows).expect("write flow log");
    let reloaded = read_flows(BufReader::new(&buf[..])).expect("read flow log");
    assert_eq!(reloaded.len(), ds.flows.len());

    // Field-level integrity on every record.
    for (orig, back) in ds.flows.iter().zip(&reloaded) {
        assert_eq!(orig.client, back.client);
        assert_eq!(orig.server, back.server);
        assert_eq!((orig.client_port, orig.server_port), (back.client_port, back.server_port));
        assert_eq!(orig.l7, back.l7);
        assert_eq!(orig.domain, back.domain);
        assert_eq!(orig.c2s_bytes, back.c2s_bytes);
        assert_eq!(orig.s2c_bytes, back.s2c_bytes);
        assert_eq!(orig.first, back.first);
        assert_eq!(orig.s2c_data_first, back.s2c_data_first);
        match (orig.sat_rtt_ms, back.sat_rtt_ms) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 0.001),
            (None, None) => {}
            other => panic!("sat_rtt mismatch {other:?}"),
        }
    }

    // Analyses on reloaded logs match the originals.
    let t_orig = experiments::table1(&ds);
    let ds2 = satwatch::scenario::Dataset {
        flows: reloaded,
        dns: ds.dns.clone(),
        enrichment: ds.enrichment.clone(),
        packets: ds.packets,
    };
    let t_back = experiments::table1(&ds2);
    for (a, b) in t_orig.rows.iter().zip(&t_back.rows) {
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-9);
    }
    let f9_orig = experiments::fig9(&ds);
    let f9_back = experiments::fig9(&ds2);
    for (a, b) in f9_orig.rows.iter().zip(&f9_back.rows) {
        assert_eq!(a.0, b.0);
        // the TSV stores RTTs with 3 decimals; medians match to ~1 µs
        assert!((a.2 - b.2).abs() < 0.01, "{} vs {}", a.2, b.2);
    }
}

/// `v` as the logs store it: 3 decimals.
fn at3(v: f64) -> f64 {
    format!("{v:.3}").parse().unwrap()
}

#[test]
fn log_directory_round_trips() {
    let ds = run(ScenarioConfig::tiny().with_customers(30).with_seed(5));
    let dir = std::env::temp_dir().join(format!("satwatch-logs-roundtrip-{}", std::process::id()));
    write_logs(&dir, &ds).expect("write logs");

    // the file is exactly what the in-memory writer produces
    let mut want = Vec::new();
    write_flows(&mut want, &ds.flows).unwrap();
    assert!(std::fs::read(dir.join(FLOWS_FILE)).unwrap() == want, "flows.tsv differs from write_flows");

    let back = read_logs(&dir).expect("read logs");
    std::fs::remove_dir_all(&dir).ok();

    // flows come back whole, minus early-packet timing, with floats at
    // the 3 decimals the log keeps
    assert_eq!(back.flows.len(), ds.flows.len());
    for (orig, got) in ds.flows.iter().zip(&back.flows) {
        let mut want = orig.clone();
        want.early.clear();
        let r = &mut want.ground_rtt;
        (r.min_ms, r.avg_ms, r.max_ms, r.std_ms) = (at3(r.min_ms), at3(r.avg_ms), at3(r.max_ms), at3(r.std_ms));
        want.sat_rtt_ms = want.sat_rtt_ms.map(at3);
        assert_eq!(got, &want);
    }
    let want_dns: Vec<_> = ds
        .dns
        .iter()
        .map(|d| {
            let mut d = d.clone();
            d.response_ms = d.response_ms.map(at3);
            d
        })
        .collect();
    assert_eq!(back.dns, want_dns);
    assert_eq!(back.enrichment.country_of, ds.enrichment.country_of);
    assert_eq!(back.enrichment.beam_of, ds.enrichment.beam_of);
    assert_eq!(back.enrichment.days, ds.enrichment.days);

    // one shared allocation per name, as in a live run
    let mut seen: HashMap<&str, &Domain> = HashMap::new();
    let names = back.flows.iter().filter_map(|f| f.domain.as_ref());
    for d in names {
        assert!(Arc::ptr_eq(seen.entry(&**d).or_insert(d), d), "{d} is not interned");
    }
    assert!(seen.len() > 10 && seen.len() * 10 < back.flows.len());
    let mut seen: HashMap<&str, &Domain> = HashMap::new();
    for d in back.dns.iter().map(|d| &d.query) {
        assert!(Arc::ptr_eq(seen.entry(&**d).or_insert(d), d), "{d} is not interned");
    }
}

#[test]
fn paper_reports_over_read_back_logs() {
    // a log directory keeps each client's beam but no beam table, the
    // shape of every replayed dataset: Fig 8b must come back empty
    // instead of indexing a beam that is not there
    let ds = run(ScenarioConfig::tiny().with_customers(30).with_seed(5));
    let dir = std::env::temp_dir().join(format!("satwatch-logs-reports-{}", std::process::id()));
    write_logs(&dir, &ds).expect("write logs");
    let back = read_logs(&dir).expect("read logs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(back.enrichment.beams.is_empty() && !back.enrichment.beam_of.is_empty());

    let live = experiments::paper_reports(&ds, 5, 1);
    let replayed = experiments::paper_reports(&back, 5, 1);
    assert!(!live.fig8b.rows.is_empty());
    assert!(replayed.fig8b.rows.is_empty(), "{:?}", replayed.fig8b);
    assert_eq!(format!("{:?}", replayed.table1), format!("{:?}", live.table1));
}

#[test]
fn flow_log_is_anonymized() {
    // No flow record may leak an address from the operator's customer
    // subnet: CryptoPan runs before anything is stored (paper §2.3).
    let ds = run(ScenarioConfig::tiny().with_customers(40).with_seed(9));
    let gs = satwatch::satcom::GroundStation::italy_default();
    for f in &ds.flows {
        assert!(!gs.customer_subnet.contains(f.client), "client {} leaked from {}", f.client, gs.customer_subnet);
    }
    for d in &ds.dns {
        assert!(!gs.customer_subnet.contains(d.client));
    }
}
