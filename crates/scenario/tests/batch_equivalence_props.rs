//! Property tests for the fast path (DESIGN.md §12/§15): for any small
//! scenario, planning and emitting flows in cohorts and driving the
//! probe with columnar merge-drain spans must be byte-equivalent to the
//! oracle — each flow synthesized alone by `simulate_flow`, the probe
//! fed one packet at a time — same packet count, flow records, DNS
//! records and dataset digest. The equivalence must survive probe
//! sharding (spans additionally split at host-pair boundaries) and
//! worker-thread dispatch of cohort emission.
//!
//! Drives the proptest strategies by hand instead of through the
//! `proptest!` macro: each case runs five day-long scenarios, so the
//! default 64-case budget would dominate the whole suite's wall time.
//! The case count is capped; `PROPTEST_CASES` still lowers it further.

use proptest::prelude::*;
use proptest::test_runner;
use satwatch_scenario::{dataset_digest, run, ScenarioConfig};

#[test]
fn batched_drive_matches_per_packet_oracle() {
    let seed0 = test_runner::seed_for("batched_drive_matches_per_packet_oracle");
    let cases = test_runner::cases().min(7);
    for case in 0..cases {
        let mut rng = TestRng::new(seed0 ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = (0u64..1_000_000).sample(&mut rng);
        let customers = (2u32..7).sample(&mut rng);

        // One oracle run per case; the fast path must reproduce it
        // across the thread × shard grid — unsharded (the single
        // in-process probe) and sharded (column spans split at
        // host-pair boundaries and shipped across channels), with
        // cohort emission serial or dispatched to workers.
        let base = ScenarioConfig::tiny().with_customers(customers).with_seed(seed);
        let oracle = run(base.with_packet_batching(false));
        let oracle_digest = dataset_digest(&oracle);
        for threads in [1usize, 4] {
            for shards in [1usize, 4] {
                let fast = run(base.with_threads(threads).with_probe_shards(shards));
                let ctx = format!("case {case}: seed={seed} customers={customers} threads={threads} shards={shards}");
                assert!(fast.packets > 0, "{ctx}: scenario produced no traffic");
                assert_eq!(fast.packets, oracle.packets, "{ctx}: packet counts diverge");
                assert_eq!(fast.flows, oracle.flows, "{ctx}: flow records diverge");
                assert_eq!(fast.dns, oracle.dns, "{ctx}: dns records diverge");
                assert_eq!(dataset_digest(&fast), oracle_digest, "{ctx}: dataset digests diverge");
            }
        }
    }
}
