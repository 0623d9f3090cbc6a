//! End-to-end throughput of the real-time runtime hosts.
//!
//! Each benchmark times one complete closed-loop load run that stops after
//! a fixed number of member deliveries, so ns/iter is directly
//! comparable across hosts and PRs: `delivered msgs/sec =
//! DELIVERIES / (ns_per_iter * 1e-9)`. The `sharded/*` entries measure the
//! sharded event-loop host with the PR 7 batched wire path (multi-envelope
//! frames, adaptive egress flush); `sharded_nobatch/*` pins the same host
//! with batching disabled (`flush_window = 0`, one envelope per frame —
//! the PR 5 wire path) so the committed snapshot separates what batching
//! buys from what the host costs.
//!
//! The workloads (32 nodes / 4 groups / window 8, and 8 nodes / 3 groups /
//! window 8) match `newtop-exp load --window 8`; `sharded/256n8g` is the
//! scaling point (256 nodes / 8 groups of 32). See DESIGN.md §7 "Batched
//! wire path".
//!
//! `tcp_loopback/6n2g` times the same closed loop against a real
//! three-process TCP cluster on loopback (three `serve` event loops as
//! threads, every frame crossing real sockets, the load generator
//! driving them over the control plane). Each iteration is one full
//! lifecycle — bind, connect, run to the delivery target, shut down —
//! so the snapshot records what real sockets cost next to the
//! in-process numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use newtop_harness::loadgen::{run_load, HostKind, LoadConfig};
use newtop_harness::remote::{serve, ServeConfig};
use std::net::{SocketAddr, TcpListener};

/// Member deliveries per timed run at 32 nodes (~12.5k multicasts).
const DELIVERIES_32: u64 = 100_000;
/// Member deliveries per timed run at 8 nodes.
const DELIVERIES_8: u64 = 50_000;
/// Member deliveries per timed run at 256 nodes (groups of 32: ~1.6k
/// multicasts, each fanning out 31 envelopes).
const DELIVERIES_256: u64 = 50_000;
/// Member deliveries per timed run over loopback TCP (control-plane
/// round trips bound the closed loop, so the target is smaller).
const DELIVERIES_TCP: u64 = 20_000;

fn cfg(host: HostKind, nodes: u32, groups: u32, target: u64) -> LoadConfig {
    LoadConfig {
        nodes,
        groups,
        window: 8,
        host,
        // Safety cap only: the delivery target stops the run long before.
        secs: 120.0,
        target_deliveries: Some(target),
        ..LoadConfig::default()
    }
}

fn run_to_target(config: &LoadConfig, target: u64) {
    let report = run_load(config).expect("load run completes");
    assert!(
        report.delivered >= target,
        "run stopped at {} of {target} deliveries",
        report.delivered
    );
    assert_eq!(
        report.view_changes, 0,
        "host starved a node past Omega mid-bench"
    );
}

fn bench_runtime_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_load");
    g.bench_function("sharded/32n4g", |b| {
        b.iter(|| {
            run_to_target(&cfg(HostKind::Sharded, 32, 4, DELIVERIES_32), DELIVERIES_32);
        });
    });
    g.bench_function("sharded_nobatch/32n4g", |b| {
        b.iter(|| {
            run_to_target(
                &LoadConfig {
                    flush_window_us: Some(0),
                    ..cfg(HostKind::Sharded, 32, 4, DELIVERIES_32)
                },
                DELIVERIES_32,
            );
        });
    });
    g.bench_function("sharded/8n3g", |b| {
        b.iter(|| {
            run_to_target(&cfg(HostKind::Sharded, 8, 3, DELIVERIES_8), DELIVERIES_8);
        });
    });
    g.bench_function("sharded/256n8g", |b| {
        b.iter(|| {
            run_to_target(
                &cfg(HostKind::Sharded, 256, 8, DELIVERIES_256),
                DELIVERIES_256,
            );
        });
    });
    g.bench_function("tcp_loopback/6n2g", |b| {
        b.iter(run_tcp_lifecycle);
    });
    g.finish();
}

/// One full TCP-cluster lifecycle: three serve processes (as threads)
/// on fresh loopback ports, a closed-loop run to the delivery target
/// over the control plane, then a clean cluster-wide shutdown.
fn run_tcp_lifecycle() {
    let listeners: Vec<TcpListener> = (0..6)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    drop(listeners);
    let (peers, ctrl) = (addrs[..3].to_vec(), addrs[3..].to_vec());
    let servers: Vec<_> = (0..3usize)
        .map(|me| {
            let cfg = ServeConfig::new(6, 2, peers.clone(), ctrl.clone(), me);
            std::thread::spawn(move || serve(&cfg))
        })
        .collect();
    let load = LoadConfig {
        peers: ctrl,
        stop_peers: true,
        ..cfg(HostKind::Tcp, 6, 2, DELIVERIES_TCP)
    };
    run_to_target(&load, DELIVERIES_TCP);
    for s in servers {
        s.join().expect("serve thread").expect("serve exits clean");
    }
}

criterion_group!(benches, bench_runtime_load);
criterion_main!(benches);
