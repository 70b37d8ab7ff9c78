//! Robustness of the log decoders (`flows.tsv`, `dns.tsv`,
//! `enrichment.tsv`): a log truncated at any byte, or with any bytes
//! corrupted, decodes to `Ok` or to a typed `InvalidData` error that
//! names the line — never a panic.

use proptest::prelude::*;
use satwatch_monitor::record::{read_flows, write_flows};
use satwatch_scenario::logs::{read_dns, read_enrichment, write_dns, write_enrichment};
use satwatch_scenario::{run, ScenarioConfig};
use std::io;
use std::sync::OnceLock;

/// The three logs of one small run, serialised once: flows (first 300
/// rows), DNS, enrichment.
fn logs() -> &'static [Vec<u8>; 3] {
    static LOGS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    LOGS.get_or_init(|| {
        let ds = run(ScenarioConfig::tiny().with_customers(6).with_seed(11));
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        write_flows(&mut out[0], &ds.flows[..ds.flows.len().min(300)]).unwrap();
        write_dns(&mut out[1], &ds.dns).unwrap();
        write_enrichment(&mut out[2], &ds.enrichment).unwrap();
        out
    })
}

/// Feed `bytes` to decoder `which`; an error must be typed and carry
/// the line it stopped at.
fn decode(which: usize, bytes: &[u8]) {
    let res = match which {
        0 => read_flows(bytes).map(drop),
        1 => read_dns(bytes).map(drop),
        _ => read_enrichment(bytes).map(drop),
    };
    if let Err(e) = res {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        assert!(e.to_string().starts_with("line "), "error lacks its line number: {e}");
    }
}

proptest! {
    #[test]
    fn intact_logs_decode(which in 0usize..3) {
        let bytes = &logs()[which];
        prop_assert!(bytes.len() > 100);
        let rows = match which {
            0 => read_flows(&bytes[..]).unwrap().len(),
            1 => read_dns(&bytes[..]).unwrap().len(),
            _ => read_enrichment(&bytes[..]).unwrap().country_of.len(),
        };
        prop_assert_eq!(rows + 1, bytes.iter().filter(|&&b| b == b'\n').count());
    }

    #[test]
    fn truncated_logs_never_panic(which in 0usize..3, frac in 0.0f64..1.0) {
        let bytes = &logs()[which];
        let cut = (bytes.len() as f64 * frac) as usize;
        decode(which, &bytes[..cut]);
    }

    #[test]
    fn corrupted_logs_never_panic(
        which in 0usize..3,
        flips in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = logs()[which].clone();
        let len = bytes.len() as u64;
        for (pos, mask) in flips {
            bytes[(pos % len) as usize] ^= mask.max(1);
        }
        decode(which, &bytes);
    }

    #[test]
    fn bad_rows_name_their_line(which in 0usize..3, row in any::<u64>()) {
        // an extra tab makes exactly one row unparseable
        let bytes = &logs()[which];
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        let bad = 1 + (row % (lines.len() as u64 - 1)) as usize;
        let mut out = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            out.extend_from_slice(l);
            if i == bad {
                out.push(b'\t');
            }
            out.push(b'\n');
        }
        let err = match which {
            0 => read_flows(&out[..]).map(drop),
            1 => read_dns(&out[..]).map(drop),
            _ => read_enrichment(&out[..]).map(drop),
        }
        .unwrap_err();
        prop_assert!(err.to_string().starts_with(&format!("line {}: ", bad + 1)), "{}", err);
    }
}
