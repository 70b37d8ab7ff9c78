//! Domain-name interning for the monitor's hot path.
//!
//! Every TLS/QUIC flow carries an SNI and every DNS transaction a
//! query name, but the set of *distinct* names is tiny (the service
//! catalog), so materialising a fresh `String` per flow record is
//! pure allocator churn. The interner hands out one shared
//! [`Domain`] (`Arc<str>`) handle per unique name; flow records, DNS
//! records, and analytics all alias the same backing bytes, and
//! record finalisation becomes a reference-count bump.
//!
//! Interners are per probe partition: `Arc<str>` compares, hashes,
//! orders, and serialises by content, so two partitions interning the
//! same name independently still produce identical output bytes.

use satwatch_simcore::FxHashSet;
use std::sync::Arc;

/// A shared, immutable domain name. Compares by content.
pub type Domain = Arc<str>;

/// One-`Arc<str>`-per-unique-name intern table.
#[derive(Clone, Debug, Default)]
pub struct DomainInterner {
    set: FxHashSet<Domain>,
}

impl DomainInterner {
    pub fn new() -> DomainInterner {
        DomainInterner::default()
    }

    /// The shared handle for `name`, allocating only on first sight.
    pub fn intern(&mut self, name: &str) -> Domain {
        // `Arc<str>: Borrow<str>` lets the set be probed with the
        // borrowed name — no allocation on the hit path.
        if let Some(d) = self.set.get(name) {
            return d.clone();
        }
        // miss: a name no interner instance has admitted before *on
        // this shard*; the gauge sums distinct names across shards.
        {
            use std::sync::OnceLock;
            static G: OnceLock<&'static satwatch_telemetry::Gauge> = OnceLock::new();
            G.get_or_init(|| satwatch_telemetry::gauge("monitor_interner_domains")).inc();
        }
        let d: Domain = Arc::from(name);
        self.set.insert(d.clone());
        d
    }

    /// Number of distinct names seen.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_storage() {
        let mut i = DomainInterner::new();
        let a = i.intern("video.tiktokv.com");
        let b = i.intern("video.tiktokv.com");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_names_distinct_handles() {
        let mut i = DomainInterner::new();
        let a = i.intern("a.example");
        let b = i.intern("b.example");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, "a.example");
        assert_eq!(&*b, "b.example");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn content_semantics_survive_independent_interners() {
        // per-shard interners must still agree on every comparison
        let x = DomainInterner::new().intern("cdn.sky.com");
        let y = DomainInterner::new().intern("cdn.sky.com");
        assert!(!Arc::ptr_eq(&x, &y));
        assert_eq!(x, y);
        assert_eq!(x.cmp(&y), std::cmp::Ordering::Equal);
    }
}
