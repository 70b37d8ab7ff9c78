//! Partitioned probe: the span-port stream split into N host-pair
//! partitions, each a full [`Probe`], all driven inline on the
//! caller's thread, with a deterministic merge.
//!
//! ## Determinism contract
//!
//! `ShardedProbe` with any shard count produces **byte-identical**
//! output to a single [`Probe`] fed the same packet stream. Three
//! design choices make this true:
//!
//! 1. **Routing by host pair, not five-tuple.** The probe's DNS
//!    transaction table is keyed `(client, resolver, id)` — it ignores
//!    ports — so two queries from different source ports must land on
//!    the same partition to share state. Routing on the unordered
//!    `(min(src, dst), max(src, dst))` address pair guarantees every
//!    packet of a host pair (both directions, all ports, all
//!    protocols) is seen by exactly one partition. The hash is
//!    [`fx_hash_one`], which has no per-process random state, so the
//!    partition itself is reproducible run to run.
//!
//! 2. **Globally driven sweeps.** A single probe sweeps when a packet
//!    arrives ≥ `sweep_interval` after the last sweep. If each
//!    partition swept on *its own* packet arrivals, a quiet one would
//!    sweep late and evict an idle flow after its five-tuple was
//!    reused, merging two flows that the single probe keeps separate.
//!    Instead the dispatcher keeps the one sweep clock and sweeps every
//!    partition at exactly the moments the single probe would, after
//!    routing every packet before the sweep moment.
//!
//! 3. **Total merge keys.** Each partition's `finish()` output is
//!    sorted by the probe's canonical keys; the merge concatenates and
//!    re-sorts with the same keys. The flow key is total over distinct
//!    flows, and DNS ties always share a partition, so the merged order
//!    equals the single-probe order.
//!
//! One shard is the same code with one partition. The partitions run
//! on the caller's thread; DESIGN.md §7 has the measurements behind
//! that and what the partitioning is kept for.

use crate::checkpoint::{CheckpointError, ProbeState};
use crate::probe::{dns_cmp, flow_sort_key, FlowSink, Probe, ProbeConfig};
use crate::record::{DnsRecord, FlowRecord};
use satwatch_netstack::{Packet, PacketColumns};
use satwatch_simcore::{fx_hash_one, resolve_workers, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// A probe whose packet stream is partitioned by host pair.
///
/// Construct with the desired partition count (`0` = one per core)
/// and use exactly like [`Probe`]: feed the span port in global time
/// order — merge-drain spans through `observe_cols()` (the fast path)
/// or single packets through `observe()` (the oracle) — then
/// `finish()`.
pub struct ShardedProbe {
    /// The partitions, indexed by [`shard_of`].
    probes: Vec<Probe>,
    sweep_interval: SimDuration,
    last_sweep: SimTime,
    /// Total packets dispatched (mirrors [`Probe::packets`]).
    pub packets: u64,
}

impl ShardedProbe {
    pub fn new(cfg: ProbeConfig, shards: usize) -> ShardedProbe {
        Self::build(cfg, shards, None::<fn(usize) -> FlowSink>)
    }

    /// A partitioned probe whose partitions stream evicted flows into
    /// sinks instead of accumulating them: `make_sink(shard)` is called
    /// once per partition, and every sink runs on the caller's thread.
    /// `finish()` then returns an empty flow vector. Evictions reach
    /// the sinks in per-partition eviction order — any global order
    /// must be restored by the consumer (sort by [`flow_sort_key`]).
    pub fn with_flow_sink<F>(cfg: ProbeConfig, shards: usize, make_sink: F) -> ShardedProbe
    where
        F: FnMut(usize) -> FlowSink,
    {
        Self::build(cfg, shards, Some(make_sink))
    }

    fn build<F>(cfg: ProbeConfig, shards: usize, mut make_sink: Option<F>) -> ShardedProbe
    where
        F: FnMut(usize) -> FlowSink,
    {
        let probes = (0..resolve_workers(shards))
            .map(|shard| {
                let mut probe = Probe::new(cfg);
                if let Some(f) = make_sink.as_mut() {
                    probe.set_flow_sink(f(shard));
                }
                probe
            })
            .collect();
        ShardedProbe { probes, sweep_interval: cfg.sweep_interval, last_sweep: SimTime::ZERO, packets: 0 }
    }

    /// Number of partitions.
    pub fn shards(&self) -> usize {
        self.probes.len()
    }

    /// Observe one packet. Must be called in global time order, like
    /// [`Probe::observe`].
    pub fn observe(&mut self, t: SimTime, pkt: &Packet) {
        self.packets += 1;
        let shard = shard_of(pkt.ip.src, pkt.ip.dst, self.probes.len());
        self.probes[shard].process_packet(t, pkt);
        if t - self.last_sweep >= self.sweep_interval {
            self.sweep_now(t);
        }
    }

    /// Observe time-sorted columnar rows `[start, end)` of `cols` (one
    /// merge-drain span). Equivalent to per-packet
    /// [`observe`](Self::observe): a span that straddles one or more
    /// sweep moments is split at each boundary, so the sweep lands at
    /// exactly the single-probe moment — after the first row at or
    /// past the boundary, at its timestamp. Each sweep-free piece is
    /// routed in same-host-pair sub-ranges, with no copy.
    pub fn observe_cols(&mut self, cols: &PacketColumns, start: usize, end: usize) {
        self.packets += end.saturating_sub(start) as u64;
        let mut i = start;
        while i < end {
            let boundary = self.last_sweep + self.sweep_interval;
            let j = cols.ts[i..end].partition_point(|&t| t < boundary) + i;
            if j == end {
                self.route_cols(cols, i, end);
                return;
            }
            self.route_cols(cols, i, j + 1);
            self.sweep_now(cols.ts[j]);
            i = j + 1;
        }
    }

    /// Hand sweep-free rows `[start, end)` (non-empty) to the
    /// partitions in same-host-pair sub-ranges: the partition hash is
    /// recomputed only when the address pair changes (a span
    /// alternates between at most a couple of pairs).
    fn route_cols(&mut self, cols: &PacketColumns, start: usize, end: usize) {
        let n = self.probes.len();
        let mut seg = start;
        let (mut last_src, mut last_dst) = (cols.src[start], cols.dst[start]);
        let mut cur_shard = shard_of(last_src, last_dst, n);
        for i in start + 1..end {
            let (s, d) = (cols.src[i], cols.dst[i]);
            if (s == last_src && d == last_dst) || (s == last_dst && d == last_src) {
                continue;
            }
            (last_src, last_dst) = (s, d);
            let shard = shard_of(s, d, n);
            if shard != cur_shard {
                self.probes[cur_shard].process_cols(cols, seg, i);
                seg = i;
                cur_shard = shard;
            }
        }
        self.probes[cur_shard].process_cols(cols, seg, end);
    }

    /// Sweep every partition at `t` and restart the sweep clock.
    fn sweep_now(&mut self, t: SimTime) {
        for probe in &mut self.probes {
            probe.sweep_now(t);
        }
        self.last_sweep = t;
    }

    /// Snapshot the complete probe state for a campaign checkpoint:
    /// every partition exports and the states merge into one unified,
    /// shard-count-independent [`ProbeState`]. Like
    /// [`Probe::export_state`], this drains the DNS logs into the
    /// returned state but leaves live flows and pending DNS tracking
    /// undisturbed — the capture continues.
    pub fn export_state(&mut self) -> ProbeState {
        ProbeState::merge(self.probes.iter_mut().map(Probe::export_state).collect())
    }

    /// Restore checkpointed state into a fresh partitioned probe
    /// (campaign resume). Entries are redistributed with the same
    /// host-pair hash the dispatcher routes packets with, so every flow
    /// and pending DNS transaction lands on the partition that will see
    /// its future packets — at *any* shard count, not just the one that
    /// exported. The dispatcher's sweep clock is restored too: the next
    /// sweep fires exactly when the uninterrupted run's would.
    pub fn import_state(&mut self, state: ProbeState) -> Result<(), CheckpointError> {
        self.last_sweep = state.last_sweep;
        self.packets = state.packets;
        let n = self.probes.len();
        let mut parts: Vec<ProbeState> = (0..n).map(|_| ProbeState::empty()).collect();
        for s in &mut parts {
            s.last_sweep = state.last_sweep;
        }
        for f in state.flows {
            parts[shard_of(f.src, f.dst, n)].flows.push(f);
        }
        for p in state.pending_dns {
            parts[shard_of(p.client, p.resolver, n)].pending_dns.push(p);
        }
        // DNS-log routing uses the *anonymized* client — fine:
        // CryptoPan is 1:1, so tied records (which share a raw
        // client/resolver pair) still land on one partition in their
        // original observation order.
        for d in state.dns_log {
            parts[shard_of(d.client, d.resolver, n)].dns_log.push(d);
        }
        // Global counters are not meaningfully divisible; giving them
        // whole to partition 0 keeps their sums right.
        parts[0].packets = state.packets;
        parts[0].parse_errors = state.parse_errors;
        parts[0].transit_packets = state.transit_packets;
        for (probe, s) in self.probes.iter_mut().zip(parts) {
            probe.import_state(s)?;
        }
        Ok(())
    }

    /// Finish the capture: flush every partition and merge the outputs
    /// into the canonical single-probe order.
    pub fn finish(self) -> (Vec<FlowRecord>, Vec<DnsRecord>) {
        let (mut flows, mut dns) = self
            .probes
            .into_iter()
            .map(Probe::finish)
            .reduce(|(mut flows, mut dns), (f, d)| {
                flows.extend(f);
                dns.extend(d);
                (flows, dns)
            })
            .expect("at least one partition");
        // Stable sorts + total/tie-safe keys ⇒ identical bytes to the
        // single probe (see module docs).
        flows.sort_by_key(flow_sort_key);
        dns.sort_by(dns_cmp);
        (flows, dns)
    }
}

/// Route a packet to a partition by its unordered address pair.
fn shard_of(src: Ipv4Addr, dst: Ipv4Addr, shards: usize) -> usize {
    let pair = if src <= dst { (src, dst) } else { (dst, src) };
    (fx_hash_one(&pair) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtable::FlowTableConfig;
    use bytes::Bytes;
    use satwatch_netstack::{Subnet, Transport};

    fn cfg() -> ProbeConfig {
        ProbeConfig::new(FlowTableConfig::new(Subnet::new(Ipv4Addr::new(10, 0, 0, 0), 8)))
    }

    fn t(ms: i64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A little synthetic stream spanning many host pairs, both
    /// directions, DNS, and a long idle gap that exercises sweeps.
    fn stream() -> Vec<(SimTime, Packet)> {
        use satwatch_netstack::dns::{DnsMessage, RecordType};
        let mut pkts = Vec::new();
        for i in 0..40u8 {
            let client = Ipv4Addr::new(10, 1, (i % 8) + 1, i + 1);
            let server = Ipv4Addr::new(198, 18, 0, (i % 5) + 1);
            let sport = 40_000 + u16::from(i);
            pkts.push((t(i64::from(i) * 25), Packet::udp(client, server, sport, 443, Bytes::from_static(&[7; 100]))));
            pkts.push((
                t(i64::from(i) * 25 + 600),
                Packet::udp(server, client, 443, sport, Bytes::from_static(&[7; 900])),
            ));
            // a DNS transaction per client
            let q = DnsMessage::query(u16::from(i), "cdn.example", RecordType::A);
            let resolver = Ipv4Addr::new(8, 8, 8, 8);
            pkts.push((t(i64::from(i) * 25 + 2), Packet::udp(client, resolver, 30_000 + u16::from(i), 53, q.encode())));
            if i % 3 != 0 {
                let r = DnsMessage::answer_a(&q, &[Ipv4Addr::new(198, 18, 9, 9)], 60);
                pkts.push((
                    t(i64::from(i) * 25 + 610),
                    Packet::udp(resolver, client, 53, 30_000 + u16::from(i), r.encode()),
                ));
            }
        }
        // A quiet exchange mid-gap fires a sweep that evicts nothing
        // yet (every flow is younger than the idle timeout) ...
        let (quiet, quiet_srv) = (Ipv4Addr::new(10, 2, 9, 1), Ipv4Addr::new(198, 18, 1, 2));
        pkts.push((t(100_000), Packet::udp(quiet, quiet_srv, 777, 80, Bytes::from_static(&[2; 40]))));
        pkts.push((t(100_001), Packet::udp(quiet_srv, quiet, 80, 777, Bytes::from_static(&[2; 40]))));
        // ... then fresh traffic fires the sweep that evicts the idle
        // flows, and one early flow's five-tuple comes back right after
        // it: only a sweep at exactly the single-probe moment keeps the
        // reused tuple from extending the idle flow
        let reused = Packet::udp(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(198, 18, 0, 1), 40_000, 443, Bytes::new());
        pkts.push((t(400_005), reused));
        for i in 0..10u8 {
            let client = Ipv4Addr::new(10, 2, 0, i + 1);
            let server = Ipv4Addr::new(198, 18, 1, 1);
            pkts.push((
                t(400_000 + i64::from(i) * 10),
                Packet::udp(client, server, 999, 80, Bytes::from_static(&[1; 60])),
            ));
        }
        pkts.sort_by_key(|(time, _)| *time);
        pkts
    }

    /// [`stream`] as one columnar run. Every packet of the stream is
    /// UDP; payloads are laid end to end in one shared block.
    fn stream_columns() -> PacketColumns {
        let mut cols = PacketColumns::default();
        let mut block = Vec::new();
        for (time, pkt) in stream() {
            let Transport::Udp(udp) = &pkt.transport else { panic!("the test stream is UDP-only") };
            let (off, len) = (block.len() as u32, pkt.payload.len() as u32);
            cols.push_udp(time, pkt.ip.src, pkt.ip.dst, udp.src_port, udp.dst_port, off, len);
            block.extend_from_slice(&pkt.payload);
        }
        cols.payload = Bytes::from(block);
        cols
    }

    fn run_with_shards(shards: usize) -> (Vec<FlowRecord>, Vec<DnsRecord>) {
        let mut probe = ShardedProbe::new(cfg(), shards);
        for (time, pkt) in stream() {
            probe.observe(time, &pkt);
        }
        probe.finish()
    }

    #[test]
    fn shard_counts_agree_exactly() {
        let baseline = run_with_shards(1);
        assert!(!baseline.0.is_empty() && !baseline.1.is_empty());
        for shards in [2, 3, 4, 8] {
            let sharded = run_with_shards(shards);
            assert_eq!(sharded.0, baseline.0, "flows differ at {shards} shards");
            assert_eq!(sharded.1, baseline.1, "dns differs at {shards} shards");
        }
    }

    /// Columnar spans through the sharded dispatcher must reproduce a
    /// single per-packet probe whatever the chunking: spans of 1, 3, 7
    /// and all rows, the longer ones straddling a sweep moment, at 1,
    /// 2 and 4 shards.
    #[test]
    fn chunked_observe_cols_matches_per_packet_observe() {
        let mut oracle = Probe::new(cfg());
        for (time, pkt) in stream() {
            oracle.observe(time, &pkt);
        }
        let packets = oracle.packets;
        let (flows, dns) = oracle.finish();
        let cols = stream_columns();
        // the packets that fire the periodic sweeps
        let sweeps = [t(100_000), t(400_000)];
        for shards in [1usize, 2, 4] {
            for chunk in [1usize, 3, 7, cols.len()] {
                let ctx = format!("shards={shards} chunk={chunk}");
                let mut probe = ShardedProbe::new(cfg(), shards);
                let mut straddled = false;
                for start in (0..cols.len()).step_by(chunk) {
                    let end = (start + chunk).min(cols.len());
                    straddled |= sweeps.iter().any(|&b| cols.ts[start] < b && b < cols.ts[end - 1]);
                    probe.observe_cols(&cols, start, end);
                }
                assert!(straddled || chunk == 1, "{ctx}: no span straddles the sweep");
                assert_eq!(probe.packets, packets, "{ctx}: packet counts differ");
                let (got_flows, got_dns) = probe.finish();
                assert_eq!(got_flows, flows, "{ctx}: flows differ");
                assert_eq!(got_dns, dns, "{ctx}: dns differs");
            }
        }
    }

    #[test]
    fn both_directions_route_to_same_shard() {
        for n in [2usize, 3, 5, 8] {
            let a = Ipv4Addr::new(10, 1, 2, 3);
            let b = Ipv4Addr::new(198, 18, 0, 7);
            assert_eq!(shard_of(a, b, n), shard_of(b, a, n));
        }
    }

    #[test]
    fn sink_streams_same_flows_as_batch_finish() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (batch_flows, batch_dns) = run_with_shards(1);
        for shards in [1usize, 4] {
            let collected: Rc<RefCell<Vec<FlowRecord>>> = Rc::default();
            let mut probe = ShardedProbe::with_flow_sink(cfg(), shards, |_shard| {
                let collected = Rc::clone(&collected);
                Box::new(move |f| collected.borrow_mut().push(f)) as FlowSink
            });
            for (time, pkt) in stream() {
                probe.observe(time, &pkt);
            }
            let (rest, dns) = probe.finish();
            assert!(rest.is_empty(), "sink mode returns no batch flows");
            assert_eq!(dns, batch_dns, "dns path unaffected by the sink");
            let mut streamed = collected.take();
            // eviction order is not canonical; the sort key recovers it
            streamed.sort_by_key(flow_sort_key);
            assert_eq!(streamed, batch_flows, "shards={shards}");
        }
    }

    thread_local! {
        static ON_CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Every partition's sink runs on the thread that drives the probe:
    /// a flag set only in the caller's thread-local storage is visible
    /// from inside each sink call.
    #[test]
    fn flow_sinks_run_on_the_callers_thread() {
        use std::cell::Cell;
        use std::rc::Rc;
        ON_CALLER.with(|c| c.set(true));
        let calls: Rc<Cell<usize>> = Rc::default();
        let mut probe = ShardedProbe::with_flow_sink(cfg(), 4, |_shard| {
            let calls = Rc::clone(&calls);
            Box::new(move |_| {
                assert!(ON_CALLER.with(Cell::get), "sink ran off the caller's thread");
                calls.set(calls.get() + 1);
            }) as FlowSink
        });
        let cols = stream_columns();
        probe.observe_cols(&cols, 0, cols.len());
        let evicted_before_finish = calls.get();
        probe.finish();
        assert!(evicted_before_finish > 0, "the sweep evicts flows through the sinks mid-capture");
        assert_eq!(calls.get(), run_with_shards(1).0.len());
    }

    /// Kill-and-resume at an arbitrary mid-stream point must be
    /// invisible in the output: export, serialize, decode, import into
    /// a brand-new probe (even at a different shard count), continue
    /// with the remaining packets, and the merged records are
    /// byte-identical to the uninterrupted run.
    #[test]
    fn checkpoint_resume_is_bit_identical_across_shard_counts() {
        let pkts = stream();
        let baseline = run_with_shards(1);
        let cut = pkts.len() / 2;
        for (shards_before, shards_after) in [(1usize, 4usize), (4, 1), (3, 5)] {
            let mut first = ShardedProbe::new(cfg(), shards_before);
            for (time, pkt) in &pkts[..cut] {
                first.observe(*time, pkt);
            }
            let state = first.export_state();
            drop(first.finish()); // the killed process's output is discarded
            let bytes = state.encode();
            let decoded = ProbeState::decode(&bytes).expect("state decodes");
            // the log drained at checkpoint time is the campaign's to keep
            let mut early_dns = Vec::new();
            let mut resumed = ShardedProbe::new(cfg(), shards_after);
            let mut decoded = decoded;
            early_dns.append(&mut decoded.dns_log);
            resumed.import_state(decoded).expect("state imports");
            for (time, pkt) in &pkts[cut..] {
                resumed.observe(*time, pkt);
            }
            let (flows, late_dns) = resumed.finish();
            let mut dns = early_dns;
            dns.extend(late_dns);
            dns.sort_by(dns_cmp);
            assert_eq!(flows, baseline.0, "flows differ: {shards_before} → {shards_after} shards");
            assert_eq!(dns, baseline.1, "dns differs: {shards_before} → {shards_after} shards");
        }
    }

    /// The unified state is shard-count independent: exporting the
    /// same capture from 1 and 4 shards yields identical bytes.
    #[test]
    fn exported_state_is_shard_count_independent() {
        let pkts = stream();
        let cut = pkts.len() / 2;
        let mut bytes = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut probe = ShardedProbe::new(cfg(), shards);
            for (time, pkt) in &pkts[..cut] {
                probe.observe(*time, pkt);
            }
            let state = probe.export_state();
            assert!(!state.flows.is_empty(), "capture has live flows at the cut");
            bytes.push(state.encode());
            probe.finish();
        }
        assert_eq!(bytes[0], bytes[1]);
        assert_eq!(bytes[0], bytes[2]);
    }

    #[test]
    fn packet_count_matches_single_probe() {
        let mut sharded = ShardedProbe::new(cfg(), 4);
        let mut single = Probe::new(cfg());
        for (time, pkt) in stream() {
            sharded.observe(time, &pkt);
            single.observe(time, &pkt);
        }
        assert_eq!(sharded.packets, single.packets);
        assert_eq!(sharded.shards(), 4);
        sharded.finish();
    }
}
