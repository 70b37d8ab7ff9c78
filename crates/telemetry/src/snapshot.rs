//! Point-in-time snapshots of the registry, deltas between two
//! snapshots, and export as JSON or Prometheus text format.
//!
//! A snapshot reads every instrument once, in sorted-name order. The
//! read is lock-free per instrument (lane sums over relaxed atomics):
//! values recorded concurrently with the snapshot may or may not be
//! included, but every value recorded before the snapshot started is.

use crate::instruments::{bucket_lower, Histogram, BUCKETS};
use crate::registry::{registry, Instrument, Registry};
use std::collections::BTreeMap;

/// Snapshot of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot { count: h.count(), sum: h.sum(), max: h.max(), buckets: h.buckets() }
    }

    /// Approximate quantile (`q` in 0..=1) from the bucket counts:
    /// the lower bound of the bucket holding the q-th value, i.e.
    /// accurate to one bucket width (≤ 25 % of the value).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // top bucket is unbounded; report the observed max
                return if idx == BUCKETS - 1 { self.max } else { bucket_lower(idx) };
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `self − earlier`, bucket-wise. Saturates at zero so a reset
    /// (which never happens in practice) can't underflow.
    fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

/// A snapshot value of one instrument. Histogram variants dominate the
/// size, but snapshots are taken once per export, not per event, so
/// boxing them would buy nothing.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Value {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// A point-in-time snapshot of every registered instrument.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub values: BTreeMap<String, Value>,
}

impl Snapshot {
    /// Snapshot the global registry.
    pub fn take() -> Snapshot {
        Snapshot::of(registry())
    }

    /// Snapshot a specific registry (tests).
    pub fn of(r: &Registry) -> Snapshot {
        let mut values = BTreeMap::new();
        r.for_each(|name, inst| {
            let v = match inst {
                Instrument::Counter(c) => Value::Counter(c.value()),
                Instrument::Gauge(g) => Value::Gauge(g.value()),
                Instrument::Histogram(h) => Value::Histogram(HistogramSnapshot::of(h)),
            };
            values.insert(name.to_string(), v);
        });
        Snapshot { values }
    }

    /// What happened between `earlier` and `self`: counters and
    /// histograms are differenced, gauges keep their current level.
    /// Instruments registered after `earlier` appear whole.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut values = BTreeMap::new();
        for (name, v) in &self.values {
            let d = match (v, earlier.values.get(name)) {
                (Value::Counter(now), Some(Value::Counter(then))) => Value::Counter(now.saturating_sub(*then)),
                (Value::Histogram(now), Some(Value::Histogram(then))) => Value::Histogram(now.delta(then)),
                _ => v.clone(),
            };
            values.insert(name.clone(), d);
        }
        Snapshot { values }
    }

    /// Convenience accessors (None if absent or wrong kind).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.values.get(name) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.values.get(name) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(Value::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Serialize as a JSON object: counters and gauges as numbers,
    /// histograms as `{count, sum, max, mean, p50, p90, p99}`.
    /// Hand-rolled (no serde in this crate — or this workspace).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 * self.values.len() + 2);
        s.push('{');
        for (i, (name, v)) in self.values.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            s.push_str("  ");
            json_string(&mut s, name);
            s.push_str(": ");
            match v {
                Value::Counter(c) => s.push_str(&c.to_string()),
                Value::Gauge(g) => s.push_str(&g.to_string()),
                Value::Histogram(h) => {
                    s.push_str(&format!(
                        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.1}, \
                         \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                        h.count,
                        h.sum,
                        h.max,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                    ));
                }
            }
        }
        s.push_str("\n}\n");
        s
    }

    /// Serialize in the Prometheus text exposition format. Histograms
    /// are emitted as summaries (quantile series + `_sum`/`_count`) so
    /// the output stays proportional to instruments, not buckets.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(96 * self.values.len());
        let mut last_base = String::new();
        for (name, v) in &self.values {
            // labelled series share a TYPE line under their base name
            let base = name.split('{').next().unwrap_or(name);
            match v {
                Value::Counter(c) => {
                    if base != last_base {
                        s.push_str(&format!("# TYPE {base} counter\n"));
                        last_base = base.to_string();
                    }
                    s.push_str(&format!("{name} {c}\n"));
                }
                Value::Gauge(g) => {
                    if base != last_base {
                        s.push_str(&format!("# TYPE {base} gauge\n"));
                        last_base = base.to_string();
                    }
                    s.push_str(&format!("{name} {g}\n"));
                }
                Value::Histogram(h) => {
                    if base != last_base {
                        s.push_str(&format!("# TYPE {base} summary\n"));
                        last_base = base.to_string();
                    }
                    for q in [0.5, 0.9, 0.99] {
                        s.push_str(&format!("{base}{{quantile=\"{q}\"}} {}\n", h.quantile(q)));
                    }
                    s.push_str(&format!("{base}_sum {}\n", h.sum));
                    s.push_str(&format!("{base}_count {}\n", h.count));
                }
            }
        }
        s
    }
}

/// Append `v` as a JSON string literal (quotes + escapes).
pub fn json_string(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::labelled;

    fn filled() -> Registry {
        let r = Registry::default();
        r.counter("pkts_total").add(42);
        r.gauge("queue_depth").add(7);
        let h = r.histogram("stage_us");
        for v in 1..=100 {
            h.record(v);
        }
        r.counter(&labelled("shard_pkts_total", &[("shard", "0")])).add(5);
        r
    }

    #[test]
    fn snapshot_reads_values() {
        let r = filled();
        let s = Snapshot::of(&r);
        assert_eq!(s.counter("pkts_total"), Some(42));
        assert_eq!(s.gauge("queue_depth"), Some(7));
        let h = s.histogram("stage_us").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.max, 100);
    }

    #[test]
    fn quantiles_track_exact_within_bucket_width() {
        let r = Registry::default();
        let h = r.histogram("h");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = Snapshot::of(&r);
        let hs = s.histogram("h").unwrap();
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = hs.quantile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(err <= 0.125, "q={q}: got {got}, exact {exact}, err {err:.3}");
        }
    }

    #[test]
    fn delta_differences_counters_keeps_gauges() {
        let r = filled();
        let before = Snapshot::of(&r);
        r.counter("pkts_total").add(8);
        r.gauge("queue_depth").sub(2);
        r.histogram("stage_us").record(1_000);
        let after = Snapshot::of(&r);
        let d = after.delta(&before);
        assert_eq!(d.counter("pkts_total"), Some(8));
        assert_eq!(d.gauge("queue_depth"), Some(5), "gauges report their level, not a diff");
        let h = d.histogram("stage_us").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 1_000);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let s = Snapshot::of(&filled());
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with("}\n"), "{j}");
        assert!(j.contains("\"pkts_total\": 42"), "{j}");
        assert!(j.contains("\"queue_depth\": 7"), "{j}");
        assert!(j.contains("\"count\": 100"), "{j}");
        // labelled series name survives as a JSON key
        assert!(j.contains("\"shard_pkts_total{shard=\\\"0\\\"}\": 5"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn prometheus_format_groups_types() {
        let s = Snapshot::of(&filled());
        let p = s.to_prometheus();
        assert!(p.contains("# TYPE pkts_total counter\npkts_total 42\n"), "{p}");
        assert!(p.contains("# TYPE queue_depth gauge\nqueue_depth 7\n"), "{p}");
        assert!(p.contains("# TYPE stage_us summary\n"), "{p}");
        assert!(p.contains("stage_us_count 100\n"), "{p}");
        assert!(p.contains("shard_pkts_total{shard=\"0\"} 5\n"), "{p}");
        // exactly one TYPE line per base name
        assert_eq!(p.matches("# TYPE shard_pkts_total ").count(), 1);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let r = Registry::default();
        r.histogram("h");
        let s = Snapshot::of(&r);
        let h = s.histogram("h").unwrap();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
