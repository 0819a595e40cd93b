//! The request streams: stratified streams keep the same composition and
//! the same split between the nodes in every prefix, whatever the seed.

use cdd_core::{Algorithm, Priority};
use cdd_e2e_bench::fleet::DEFAULT_PORT_BASE;
use cdd_e2e_bench::workloads;
use cdd_net::router::shard_for;
use std::collections::{BTreeMap, HashSet};

/// `(n, kind, algorithm)` class of an entry.
fn class(e: &cdd_bench::workload::WorkloadEntry) -> (usize, bool, bool) {
    (e.id.n, e.id.h.is_some(), e.algorithm == Algorithm::Sa)
}

/// The node the router sends an entry to, at the default ports.
fn node(e: &cdd_bench::workload::WorkloadEntry) -> usize {
    let addrs: Vec<String> = (1..=2)
        .map(|i| format!("127.0.0.1:{}", DEFAULT_PORT_BASE + i))
        .collect();
    let addrs: Vec<&str> = addrs.iter().map(String::as_str).collect();
    shard_for(e.to_request().content_key(), &addrs, &[true, true]).unwrap()
}

#[test]
fn stratified_streams_deal_every_class_node_and_priority_evenly() {
    for (name, classes, priorities) in [
        (
            "small-open",
            12,
            &[Priority::Batch, Priority::Normal, Priority::Interactive][..],
        ),
        ("large-paper", 8, &[Priority::Normal][..]),
    ] {
        let w = workloads::find(name).unwrap();
        for seed in [1, 2016] {
            let round = 2 * classes;
            let entries = w.entries(seed, round * 8);
            let keys: HashSet<u64> = entries
                .iter()
                .map(|e| e.to_request().content_key())
                .collect();
            assert_eq!(
                keys.len(),
                entries.len(),
                "{name}: every request is new work"
            );
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(node(e), i % 2, "{name}: request {i} goes to node {}", i % 2);
            }
            for chunk in entries.chunks(round) {
                let seen: HashSet<_> = chunk.iter().map(|e| (class(e), node(e))).collect();
                assert_eq!(
                    seen.len(),
                    round,
                    "{name}: each class on each node once a round"
                );
            }
            let mut counts: BTreeMap<Priority, usize> = BTreeMap::new();
            for e in &entries {
                *counts.entry(e.priority).or_default() += 1;
            }
            if priorities.len() == 1 {
                assert_eq!(counts.len(), 1, "{name}: {counts:?}");
            } else {
                // 1 : 2 : 1 batch : normal : interactive, exactly.
                let quarter = entries.len() / 4;
                assert_eq!(counts[&Priority::Batch], quarter, "{name}: {counts:?}");
                assert_eq!(counts[&Priority::Normal], 2 * quarter, "{name}: {counts:?}");
                assert_eq!(
                    counts[&Priority::Interactive],
                    quarter,
                    "{name}: {counts:?}"
                );
            }
            assert!(counts.keys().all(|p| priorities.contains(p)));
        }
    }
}

#[test]
fn streams_are_prefix_stable_and_seeded() {
    for w in &workloads::WORKLOADS {
        let long = w.entries(7, 300);
        let line = |e: &cdd_bench::workload::WorkloadEntry| e.to_line();
        for count in [1, 5, 100] {
            assert_eq!(
                w.entries(7, count).iter().map(line).collect::<Vec<_>>(),
                long[..count].iter().map(line).collect::<Vec<_>>(),
                "{}: a shorter stream is a prefix of a longer one",
                w.name
            );
        }
        assert_ne!(
            w.entries(8, 100).iter().map(line).collect::<Vec<_>>(),
            long[..100].iter().map(line).collect::<Vec<_>>(),
            "{}: the seed matters",
            w.name
        );
    }
}
