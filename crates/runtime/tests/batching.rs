//! Integration coverage for the batched wire path: protocol outcomes are
//! identical with batching on and off, and the ω-null control traffic of
//! co-located groups really does coalesce into shared frames.

use bytes::Bytes;
use newtop_runtime::{Cluster, RunningCluster, WireStats};
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span};
use std::time::{Duration, Instant};

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

fn cfg(omega_ms: u64) -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(omega_ms))
        .with_big_omega(Span::from_millis(500))
}

/// One sender, one group: the delivered sequence is the send sequence,
/// whatever the transport does. Running the same workload with batching
/// on (default) and off (`flush_window(0)`) must produce the identical
/// sequence at every member — aggregation is a wire-level optimisation,
/// not a semantic change.
#[test]
fn batched_and_unbatched_deliver_identically() {
    let run = |window: Option<Duration>| -> Vec<Vec<String>> {
        let mut cluster = Cluster::new();
        for i in 1..=4 {
            cluster.add_process(p(i));
        }
        let g = GroupId(1);
        cluster
            .bootstrap_group(g, [p(1), p(2), p(3), p(4)], cfg(5))
            .unwrap();
        if let Some(w) = window {
            cluster.flush_window(w);
        }
        let cluster = cluster.start();
        for k in 0..20 {
            cluster
                .node(p(1))
                .unwrap()
                .multicast(g, Bytes::from(format!("m{k}")))
                .unwrap();
        }
        let out: Vec<Vec<String>> = (2..=4)
            .map(|i| {
                (0..20)
                    .map(|_| {
                        let d = cluster
                            .node(p(i))
                            .unwrap()
                            .await_delivery(Duration::from_secs(20))
                            .expect("delivery");
                        String::from_utf8_lossy(&d.payload).into_owned()
                    })
                    .collect()
            })
            .collect();
        cluster.shutdown();
        out
    };
    let batched = run(None);
    let unbatched = run(Some(Duration::ZERO));
    let expect: Vec<String> = (0..20).map(|k| format!("m{k}")).collect();
    for seq in batched.iter().chain(&unbatched) {
        assert_eq!(*seq, expect);
    }
}

/// Two groups with the same two members and a fast ω: each tick of a
/// node emits one null per group, both bound for the same peer, and the
/// egress must ship them as **one** two-envelope null-only frame. This
/// pins the batching observables the PR claims: mean occupancy above 1
/// and counted null-only frames.
#[test]
fn co_located_group_nulls_coalesce() {
    let mut cluster = Cluster::new();
    cluster.add_process(p(1));
    cluster.add_process(p(2));
    cluster
        .bootstrap_group(GroupId(1), [p(1), p(2)], cfg(1))
        .unwrap();
    cluster
        .bootstrap_group(GroupId(2), [p(1), p(2)], cfg(1))
        .unwrap();
    cluster.shards(1);
    let cluster = cluster.start();
    std::thread::sleep(Duration::from_millis(300));
    let stats = cluster.wire_stats();
    cluster.shutdown();
    assert!(stats.frames > 0, "idle ω traffic must flow");
    assert!(
        stats.mean_occupancy() > 1.5,
        "both groups' nulls should share frames (mean occupancy {:.2})",
        stats.mean_occupancy()
    );
    assert!(
        stats.null_frames > 0,
        "null-only frames must be counted as such"
    );
    assert!(
        stats.occupancy[1] > 0,
        "two-envelope frames expected in the occupancy histogram"
    );
}

/// The wire counters once two reads 20 ms apart agree (traffic stopped).
fn settled_stats(cluster: &RunningCluster) -> WireStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = cluster.wire_stats();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = cluster.wire_stats();
        if now == last {
            return now;
        }
        assert!(Instant::now() < deadline, "wire counters never settled");
        last = now;
    }
}

/// With batching disabled every frame carries exactly one envelope — the
/// histogram stays in the first bucket and occupancy is exactly 1.
#[test]
fn unbatched_frames_carry_one_envelope() {
    let mut cluster = Cluster::new();
    cluster.add_process(p(1));
    cluster.add_process(p(2));
    cluster
        .bootstrap_group(GroupId(1), [p(1), p(2)], cfg(1))
        .unwrap();
    cluster.flush_window(Duration::ZERO);
    let cluster = cluster.start();
    std::thread::sleep(Duration::from_millis(150));
    // The counters are separate atomics: a snapshot taken while frames
    // flow can catch a frame already counted in one and not yet in
    // another. Stop both nodes and read the counters once they settle.
    cluster.kill(p(1));
    cluster.kill(p(2));
    let stats = settled_stats(&cluster);
    cluster.shutdown();
    assert!(stats.frames > 0);
    assert_eq!(stats.envelopes, stats.frames);
    assert_eq!(stats.occupancy[0], stats.frames);
    assert!(
        stats.null_frames > 0,
        "standalone nulls count as null frames"
    );
    assert_eq!(stats.suppressed_nulls, 0);
}
