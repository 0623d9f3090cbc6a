//! The three real-time host workloads: `saturate` and `publish` on the
//! sharded in-process host, `tcp-loopback` on two TCP peers in this
//! process. One generator thread (the caller's) drives every node handle,
//! drains every output channel, and checks what comes out.

use crate::measure::{median, peak_rss_mb, process_cpu, thread_cpu, Histogram, SpanKind, Tracer};
use crate::{replay, sweep, Abort, Outcome};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use newtop_core::Delivery;
use newtop_runtime::{
    Cluster, ClusterConfig, NodeHandle, Output, RunningCluster, TcpConfig, WireStats,
};
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, SendError, Span};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// How the generator offers load.
#[derive(Clone, Copy)]
pub enum Load {
    /// Keep `window` multicasts in flight per group; senders rotate
    /// round-robin through the members, and each delivery at the group's
    /// first member releases the next send.
    Closed { window: u32 },
    /// One publisher per group sends `rate` multicasts per second on a
    /// fixed schedule; in every round, a member that never publishes is
    /// killed at the middle of the window, so each round's latency tail
    /// holds a failover.
    Open { rate: u32 },
}

/// Which host runs the nodes.
#[derive(Clone, Copy)]
pub enum Topology {
    /// One `Cluster` with this many shards.
    Sharded { shards: usize },
    /// Two `Cluster::start_tcp` peers on 127.0.0.1, one shard each; nodes
    /// `1..=n/2` on peer 0, the rest on peer 1.
    TcpPair,
}

pub struct Workload {
    nodes: u32,
    /// Member ids of group `i + 1`; groups are disjoint.
    groups: Vec<Vec<u32>>,
    omega: Span,
    big_omega: Span,
    payload: usize,
    load: Load,
    topology: Topology,
}

/// 32 nodes in 4 groups of 8 contiguous ids. Nodes are placed on the two
/// shards alternately, so every group spans both shards and half of each
/// fan-out takes the cross-shard hop.
pub fn saturate() -> Workload {
    Workload {
        nodes: 32,
        groups: (0..4)
            .map(|g| (1..=8).map(|i| g * 8 + i).collect())
            .collect(),
        omega: Span::from_millis(25),
        big_omega: Span::from_secs(10),
        payload: 64,
        load: Load::Closed { window: 16 },
        topology: Topology::Sharded { shards: 2 },
    }
}

/// 12 nodes in 3 groups of 4, one publisher each at 1000 multicasts/s.
pub fn publish() -> Workload {
    Workload {
        nodes: 12,
        groups: (0..3)
            .map(|g| (1..=4).map(|i| g * 4 + i).collect())
            .collect(),
        omega: Span::from_millis(10),
        big_omega: Span::from_millis(150),
        payload: 1024,
        load: Load::Open { rate: 1000 },
        topology: Topology::Sharded { shards: 2 },
    }
}

/// 6 nodes on two TCP peers; both groups of 3 span the peers.
pub fn tcp_loopback() -> Workload {
    Workload {
        nodes: 6,
        groups: vec![vec![1, 2, 4], vec![3, 5, 6]],
        omega: Span::from_millis(5),
        big_omega: Span::from_secs(10),
        payload: 64,
        load: Load::Closed { window: 16 },
        topology: Topology::TcpPair,
    }
}

/// Measurement window of one round; a run of `s` seconds is `s` rounds.
/// Each round sets up a fresh cluster, so per-instance state such as the
/// shards' timer phases and thread placement is sampled many times, and
/// figures are medians over rounds.
const ROUND_WINDOW: Duration = Duration::from_secs(1);
/// Set-ups measured for `setup_s` before the rounds and shut down at once.
const EXTRA_SETUPS: usize = 10;
/// Load offered in each round before its measurement window opens.
const WARMUP: Duration = Duration::from_millis(200);
/// Longest wait for in-flight multicasts (and the failover) after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Longest wait for a cluster's shutdown.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(10);
/// Longest idle wait on an output channel between sweeps.
const IDLE_WAIT: Duration = Duration::from_micros(100);
/// The generator is invalid when its thread is on the CPU for more than
/// this share of the window (closed loop), because it then limits the load.
const GEN_BUSY_LIMIT: f64 = 0.9;
/// The open-loop generator has fallen behind when its median lateness
/// exceeds this share of the median latency: the regression bound of the
/// latency metrics.
const GEN_LATE_LIMIT: f64 = 0.25;
/// A probe multicast's payload id; never used by the load.
const PROBE_ID: u64 = u64::MAX;

/// The running hosts of one set-up: one cluster, or the two TCP peers.
struct Hosts {
    clusters: Vec<RunningCluster>,
    handles: Vec<NodeHandle>,
}

impl Hosts {
    fn wire(&self) -> WireStats {
        let mut sum = WireStats::default();
        for c in &self.clusters {
            let w = c.wire_stats();
            sum.frames += w.frames;
            sum.envelopes += w.envelopes;
            sum.bytes += w.bytes;
            sum.null_frames += w.null_frames;
            sum.suppressed_nulls += w.suppressed_nulls;
            sum.reconnects += w.reconnects;
            sum.dropped_dead += w.dropped_dead;
            sum.handshake_rejects += w.handshake_rejects;
            sum.shed_multicasts += w.shed_multicasts;
        }
        sum
    }

    fn kill(&self, id: ProcessId) {
        for c in &self.clusters {
            if c.node(id).is_some() {
                c.kill(id);
            }
        }
    }

    /// Shuts every cluster down on a helper thread and waits a bounded time.
    fn shutdown(self) -> Result<Duration, Abort> {
        let t0 = Instant::now();
        let (tx, rx) = unbounded();
        let clusters = self.clusters;
        let helper = std::thread::spawn(move || {
            for c in clusters {
                c.shutdown();
            }
            let _ = tx.send(());
        });
        match rx.recv_timeout(SHUTDOWN_LIMIT) {
            Ok(()) => {
                helper
                    .join()
                    .map_err(|_| Abort::Check("cluster shutdown panicked".into()))?;
                Ok(t0.elapsed())
            }
            Err(_) => Err(Abort::Hang(format!(
                "cluster shutdown exceeded {SHUTDOWN_LIMIT:?}"
            ))),
        }
    }
}

struct SetUp {
    hosts: Hosts,
    /// Build, bootstrap and start.
    start: Duration,
    /// From the start until a probe multicast reached every member of the
    /// first group: the first ω null round, and on TCP both link directions.
    probe: Duration,
    /// Everything up to the first load send.
    total: Duration,
}

/// Listen ports come from below the kernel's ephemeral range (32768 and up
/// by default). A port reserved from that range can be picked again as the
/// local end of the other peer's first dial before this peer binds it.
const PORT_BASE: u32 = 20_000;
const PORT_SPAN: u32 = 12_000;
/// Attempts at starting the TCP pair, each on fresh ports.
const TCP_ATTEMPTS: usize = 3;

fn free_addr() -> Result<SocketAddr, Abort> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    for _ in 0..PORT_SPAN {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let port = PORT_BASE + std::process::id().wrapping_mul(7919).wrapping_add(n) % PORT_SPAN;
        let port = u16::try_from(port).expect("below 32768");
        if let Ok(l) = TcpListener::bind(("127.0.0.1", port)) {
            return l
                .local_addr()
                .map_err(|e| Abort::Setup(format!("reserve port: {e}")));
        }
    }
    Err(Abort::Setup("no free listen port".into()))
}

/// Starts both TCP peers; on an error, stops the peer already started.
fn start_pair(w: &Workload, cfg: GroupConfig) -> Result<Vec<RunningCluster>, Abort> {
    let addrs = vec![free_addr()?, free_addr()?];
    let half = w.nodes / 2;
    let owner = |i: u32| u32::from(i > half);
    let owners: Vec<(ProcessId, u32)> = (1..=w.nodes).map(|i| (ProcessId(i), owner(i))).collect();
    let mut peers: Vec<RunningCluster> = Vec::new();
    for me in 0..2u32 {
        let mut c = Cluster::with_config(ClusterConfig::new().shards(1));
        for i in (1..=w.nodes).filter(|&i| owner(i) == me) {
            c.add_process(ProcessId(i));
        }
        for (g, members) in w.groups.iter().enumerate() {
            let ids = members.iter().map(|&i| ProcessId(i));
            c.bootstrap_group_local(gid(g), ids, cfg)
                .map_err(|e| Abort::Setup(format!("bootstrap: {e:?}")))?;
        }
        let tcp = TcpConfig::new(addrs.clone(), me as usize, owners.clone());
        match c.start_tcp(tcp) {
            Ok(peer) => peers.push(peer),
            Err(e) => {
                for p in peers {
                    p.shutdown();
                }
                return Err(Abort::Setup(format!("start_tcp: {e}")));
            }
        }
    }
    Ok(peers)
}

fn set_up(w: &Workload) -> Result<SetUp, Abort> {
    let t0 = Instant::now();
    let cfg = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(w.omega)
        .with_big_omega(w.big_omega);
    let pids = |ids: &[u32]| ids.iter().map(|&i| ProcessId(i)).collect::<Vec<_>>();
    let clusters = match w.topology {
        Topology::Sharded { shards } => {
            let mut c = Cluster::with_config(ClusterConfig::new().shards(shards));
            for i in 1..=w.nodes {
                c.add_process(ProcessId(i));
            }
            for (g, members) in w.groups.iter().enumerate() {
                c.bootstrap_group(gid(g), pids(members), cfg)
                    .map_err(|e| Abort::Setup(format!("bootstrap: {e:?}")))?;
            }
            vec![c.start()]
        }
        Topology::TcpPair => {
            let mut attempt = 1;
            loop {
                match start_pair(w, cfg) {
                    Ok(peers) => break peers,
                    Err(e) if attempt == TCP_ATTEMPTS => return Err(e),
                    Err(_) => attempt += 1,
                }
            }
        }
    };
    let start = t0.elapsed();
    let handles = (1..=w.nodes)
        .map(|i| {
            clusters
                .iter()
                .find_map(|c| c.node(ProcessId(i)).cloned())
                .ok_or_else(|| Abort::Setup(format!("node {i} has no handle")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let hosts = Hosts { clusters, handles };
    probe(&hosts, &w.groups[0])?;
    let probe = t0.elapsed() - start;
    Ok(SetUp {
        hosts,
        start,
        probe,
        total: t0.elapsed(),
    })
}

/// Multicasts one probe in the group and waits, bounded, until every
/// member delivered it: the cluster serves. The other members' first ω
/// nulls release it; across TCP peers it needs both link directions. A
/// probe refused or not delivered in time is a failed output check.
fn probe(hosts: &Hosts, members: &[u32]) -> Result<(), Abort> {
    let (tx, rx) = unbounded();
    let g = gid(0);
    let sender = &hosts.handles[members[0] as usize - 1];
    if !sender.multicast_pipelined(g, payload(PROBE_ID, 0, 16), &tx) {
        return Err(Abort::Check("probe sender terminated".into()));
    }
    let deadline = Instant::now() + DRAIN_LIMIT;
    for &m in members {
        let rx_out = hosts.handles[m as usize - 1].outputs();
        loop {
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| {
                    Abort::Check(format!("probe not delivered within {DRAIN_LIMIT:?}"))
                })?;
            if let Ok(Output::Delivery(d)) = rx_out.recv_timeout(left) {
                if read_u64(&d.payload, 0) == PROBE_ID {
                    break;
                }
            }
        }
    }
    match rx.recv_timeout(DRAIN_LIMIT) {
        Ok(Ok(())) => Ok(()),
        other => Err(Abort::Check(format!("probe verdict: {other:?}"))),
    }
}

fn gid(g: usize) -> GroupId {
    GroupId(u32::try_from(g + 1).expect("few groups"))
}

/// Payload: message id, then the send (or due) time in ns since the run
/// epoch, then zero padding to `size`.
fn payload(id: u64, stamp_ns: u64, size: usize) -> Bytes {
    let mut buf = vec![0u8; size.max(16)];
    buf[..8].copy_from_slice(&id.to_le_bytes());
    buf[8..16].copy_from_slice(&stamp_ns.to_le_bytes());
    Bytes::from(buf)
}

fn read_u64(p: &[u8], at: usize) -> u64 {
    p.get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map_or(u64::MAX, u64::from_le_bytes)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What one member has delivered in its group.
struct MemberTrack {
    group: usize,
    alive: bool,
    count: u64,
    /// Order-sensitive digest of the delivered `(origin, c)` sequence.
    hash: u64,
    /// Bit per message id seen, for duplicate and completeness checks.
    seen: Vec<u64>,
    duplicates: u64,
    views: Vec<Vec<ProcessId>>,
    last_view_at: Option<Instant>,
}

struct GroupTrack {
    members: Vec<usize>,
    next_sender: usize,
    next_id: u64,
    credit: u32,
    accepted: u64,
    ok: u64,
    shed: u64,
    refused: u64,
    verdicts: u64,
    verdict_tx: Sender<Result<(), SendError>>,
    verdict_rx: Receiver<Result<(), SendError>>,
    publisher: usize,
    next_due: Instant,
}

/// Counters of one measured interval.
#[derive(Default, Clone, Copy)]
struct Tally {
    delivered: u64,
    survivor_delivered: u64,
}

/// The measuring state kept across the rounds of a run. The histograms are
/// allocated once and cleared per round, so the benchmark's own memory is
/// the same in every run and `peak_rss_mb` tracks the system.
struct Instruments {
    tracer: Tracer,
    /// Latency of the current round.
    lat: Histogram,
    /// Lateness of the open loop's sends in the current round.
    late: Histogram,
    /// Latency of every round.
    pooled: Histogram,
}

struct Generator<'a> {
    w: &'a Workload,
    ins: &'a mut Instruments,
    epoch: Instant,
    rxs: Vec<Receiver<Output>>,
    members: Vec<MemberTrack>,
    groups: Vec<GroupTrack>,
    tally: Tally,
    counting: bool,
    sample_from_ns: u64,
    unexpected: Vec<String>,
    /// The member the open loop kills; its deliveries are left out of the
    /// traced-versus-untraced rate comparison.
    victim: Option<usize>,
}

impl Generator<'_> {
    fn send(&mut self, handles: &[NodeHandle], g: usize, stamp: Instant, sending_at: Instant) {
        let t = self.ins.tracer.start();
        let gt = &mut self.groups[g];
        let sender = match self.w.load {
            Load::Closed { .. } => {
                let s = gt.members[gt.next_sender % gt.members.len()];
                gt.next_sender += 1;
                s
            }
            Load::Open { .. } => gt.publisher,
        };
        let id = gt.next_id;
        gt.next_id += 1;
        let body = payload(id, nanos(stamp - self.epoch), self.w.payload);
        if self.counting && matches!(self.w.load, Load::Open { .. }) {
            self.ins.late.record(nanos(sending_at - stamp) / 1000);
        }
        self.ins.tracer.end(SpanKind::Gen, t);
        let t = self.ins.tracer.start();
        let gt = &mut self.groups[g];
        let accepted = handles[sender].multicast_pipelined(gid(g), body, &gt.verdict_tx);
        self.ins.tracer.end(SpanKind::Submit, t);
        if accepted {
            gt.accepted += 1;
        } else {
            gt.refused += 1;
        }
    }

    fn absorb(&mut self, node: usize, out: Output, seen_at: Instant) {
        let t = self.ins.tracer.start();
        match out {
            Output::Delivery(d) => self.delivered(node, &d, seen_at),
            Output::ViewChange { group, view, .. } => {
                let m = &mut self.members[node];
                if m.alive {
                    m.views.push(view.iter().collect());
                    m.last_view_at = Some(seen_at);
                    if group != gid(m.group) {
                        self.unexpected
                            .push(format!("node {} installed a view of {group:?}", node + 1));
                    }
                }
            }
            _ => {}
        }
        self.ins.tracer.end(SpanKind::Gen, t);
    }

    fn delivered(&mut self, node: usize, d: &Delivery, seen_at: Instant) {
        let id = read_u64(&d.payload, 0);
        let stamp = read_u64(&d.payload, 8);
        let m = &mut self.members[node];
        if !m.alive {
            return;
        }
        if d.group != gid(m.group) || id >= self.groups[m.group].next_id {
            self.unexpected.push(format!(
                "node {} delivered unknown message {id} in {:?}",
                node + 1,
                d.group
            ));
            return;
        }
        let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        if m.seen.len() <= word {
            m.seen.resize(word + 1, 0);
        }
        if m.seen[word] & bit != 0 {
            m.duplicates += 1;
            return;
        }
        m.seen[word] |= bit;
        m.count += 1;
        m.hash = (m.hash.rotate_left(7) ^ (u64::from(d.origin.0) << 40 ^ d.c.0))
            .wrapping_mul(0x0000_0100_0000_01b3);
        let group = m.group;
        if self.counting {
            self.tally.delivered += 1;
            if Some(node) != self.victim {
                self.tally.survivor_delivered += 1;
            }
            if stamp >= self.sample_from_ns {
                self.ins
                    .lat
                    .record(nanos(seen_at - self.epoch).saturating_sub(stamp) / 1000);
            }
        }
        if node == self.groups[group].members[0] {
            self.groups[group].credit += 1;
        }
    }

    /// Drains every output channel and verdict channel once; returns how
    /// many outputs were read.
    fn sweep(&mut self) -> usize {
        let mut got = 0;
        for node in 0..self.rxs.len() {
            let t = self.ins.tracer.start();
            let mut next = self.rxs[node].try_recv().ok();
            self.ins.tracer.end(SpanKind::Recv, t);
            if next.is_none() {
                continue;
            }
            let seen_at = Instant::now();
            while let Some(out) = next {
                got += 1;
                self.absorb(node, out, seen_at);
                let t = self.ins.tracer.start();
                next = self.rxs[node].try_recv().ok();
                self.ins.tracer.end(SpanKind::Recv, t);
            }
        }
        for gt in &mut self.groups {
            loop {
                let t = self.ins.tracer.start();
                let v = gt.verdict_rx.try_recv();
                self.ins.tracer.end(SpanKind::Recv, t);
                match v {
                    Ok(Ok(())) => gt.ok += 1,
                    Ok(Err(SendError::Overloaded { .. })) => gt.shed += 1,
                    Ok(Err(_)) => gt.refused += 1,
                    Err(_) => break,
                }
                gt.verdicts += 1;
            }
        }
        got
    }

    /// Waits a bounded time for output on one channel.
    fn idle(&mut self, node: usize, limit: Duration) {
        let t = self.ins.tracer.start();
        let out = self.rxs[node].recv_timeout(limit.min(IDLE_WAIT));
        self.ins.tracer.end(SpanKind::Wait, t);
        if let Ok(out) = out {
            self.absorb(node, out, Instant::now());
        }
    }

    fn drained(&self) -> bool {
        self.groups.iter().all(|gt| {
            gt.verdicts == gt.accepted
                && gt
                    .members
                    .iter()
                    .all(|&m| !self.members[m].alive || self.members[m].count >= gt.ok)
        })
    }
}

struct Snapshot {
    at: Instant,
    cpu: Duration,
    gen_cpu: Duration,
    wire: WireStats,
}

fn snapshot(hosts: &Hosts) -> Snapshot {
    Snapshot {
        at: Instant::now(),
        cpu: process_cpu(),
        gen_cpu: thread_cpu(),
        wire: hosts.wire(),
    }
}

/// The seeded choices of a run: each group's publisher (open loop) and the
/// member killed in every round (open loop).
struct Choice {
    publishers: Vec<usize>,
    victim: Option<usize>,
}

fn choose(w: &Workload, seed: u64) -> Choice {
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let publishers: Vec<usize> = w
        .groups
        .iter()
        .map(|ids| ids[draw(ids.len())] as usize - 1)
        .collect();
    let victim = match w.load {
        Load::Open { .. } => {
            let g = draw(w.groups.len());
            let quiet: Vec<usize> = w.groups[g]
                .iter()
                .map(|&i| i as usize - 1)
                .filter(|&m| m != publishers[g])
                .collect();
            Some(quiet[draw(quiet.len())])
        }
        Load::Closed { .. } => None,
    };
    Choice { publishers, victim }
}

/// What one round measured.
struct Round {
    secs: f64,
    delivered: u64,
    survivor_delivered: u64,
    p50: f64,
    p99: f64,
    cpu_us: f64,
    gen_busy: f64,
    /// Median and 99th-percentile lateness of the open loop's sends.
    late_ms: (f64, f64),
    /// Wire counters over the window.
    wire: WireStats,
    failover: Option<Duration>,
    views: usize,
    shed: u64,
    attempted: u64,
    failed: u64,
    shutdown: Duration,
    traced: bool,
}

fn wire_delta(a: &WireStats, b: &WireStats) -> WireStats {
    WireStats {
        frames: b.frames - a.frames,
        envelopes: b.envelopes - a.envelopes,
        bytes: b.bytes - a.bytes,
        null_frames: b.null_frames - a.null_frames,
        suppressed_nulls: b.suppressed_nulls - a.suppressed_nulls,
        reconnects: b.reconnects - a.reconnects,
        dropped_dead: b.dropped_dead - a.dropped_dead,
        handshake_rejects: b.handshake_rejects - a.handshake_rejects,
        shed_multicasts: b.shed_multicasts - a.shed_multicasts,
        ..WireStats::default()
    }
}

/// One round on a fresh set-up: warm-up, the measurement window (with the
/// victim killed at its middle when the workload has one), the drain, the
/// output checks and shutdown. Failed checks are added to `problems`.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn round(
    w: &Workload,
    hosts: Hosts,
    choice: &Choice,
    window: Duration,
    ins: &mut Instruments,
    traced: bool,
    problems: &mut Vec<String>,
) -> Result<Round, Abort> {
    let handles = hosts.handles.clone();
    let victim = choice.victim;
    let epoch = Instant::now();
    let mut members: Vec<MemberTrack> = (0..w.nodes)
        .map(|_| MemberTrack {
            group: usize::MAX,
            alive: true,
            count: 0,
            hash: 0,
            seen: Vec::new(),
            duplicates: 0,
            views: Vec::new(),
            last_view_at: None,
        })
        .collect();
    let mut groups = Vec::new();
    for (g, ids) in w.groups.iter().enumerate() {
        let idx: Vec<usize> = ids.iter().map(|&i| i as usize - 1).collect();
        for &m in &idx {
            members[m].group = g;
        }
        let (verdict_tx, verdict_rx) = unbounded();
        let credit = match w.load {
            Load::Closed { window } => window,
            Load::Open { .. } => 0,
        };
        groups.push(GroupTrack {
            next_sender: 0,
            next_id: 0,
            credit,
            accepted: 0,
            ok: 0,
            shed: 0,
            refused: 0,
            verdicts: 0,
            verdict_tx,
            verdict_rx,
            publisher: choice.publishers[g],
            // Publishers are staggered across the send period.
            next_due: epoch + Duration::from_micros(333 * g as u64),
            members: idx,
        });
    }
    ins.lat.reset();
    ins.late.reset();
    let mut gen = Generator {
        w,
        ins,
        epoch,
        rxs: handles.iter().map(|h| h.outputs().clone()).collect(),
        members,
        groups,
        tally: Tally::default(),
        counting: false,
        sample_from_ns: u64::MAX,
        unexpected: Vec::new(),
        victim,
    };

    let window_start = epoch + WARMUP;
    let half = window_start + window / 2;
    let window_end = window_start + window;
    let mut start_snap = None;
    let mut killed_at = None;
    let mut waiter = 0usize;
    let end_snap = loop {
        let now = Instant::now();
        if start_snap.is_none() && now >= window_start {
            gen.counting = true;
            gen.sample_from_ns = nanos(now - epoch);
            gen.ins.tracer.set_on(traced);
            start_snap = Some(snapshot(&hosts));
        }
        if killed_at.is_none() && now >= half {
            if let Some(v) = victim {
                hosts.kill(ProcessId(u32::try_from(v + 1).expect("node id")));
                gen.members[v].alive = false;
            }
            killed_at = Some(Instant::now());
        }
        if now >= window_end {
            gen.counting = false;
            gen.ins.tracer.set_on(false);
            break snapshot(&hosts);
        }
        let got = gen.sweep();
        let mut sent = false;
        match w.load {
            Load::Closed { .. } => {
                for g in 0..gen.groups.len() {
                    while gen.groups[g].credit > 0 {
                        gen.groups[g].credit -= 1;
                        let now = Instant::now();
                        gen.send(&handles, g, now, now);
                        sent = true;
                    }
                }
            }
            Load::Open { rate } => {
                let period = Duration::from_secs(1) / rate;
                for g in 0..gen.groups.len() {
                    let now = Instant::now();
                    while gen.groups[g].next_due <= now {
                        let due = gen.groups[g].next_due;
                        gen.groups[g].next_due += period;
                        gen.send(&handles, g, due, now);
                        sent = true;
                    }
                }
            }
        }
        if got == 0 && !sent {
            let limit = match w.load {
                Load::Closed { .. } => IDLE_WAIT,
                Load::Open { .. } => gen
                    .groups
                    .iter()
                    .map(|gt| gt.next_due)
                    .min()
                    .map_or(IDLE_WAIT, |d| d.saturating_duration_since(Instant::now())),
            };
            waiter = (waiter + 1) % gen.groups.len();
            let node = gen.groups[waiter].members[0];
            gen.idle(node, limit);
        }
    };
    let start_snap = start_snap.expect("window opened");

    // Drain: no new sends; wait, bounded, for every accepted multicast to
    // reach every surviving member, and for the failover to finish.
    let drain_deadline = Instant::now() + DRAIN_LIMIT;
    let failover_done = |gen: &Generator| -> bool {
        victim.is_none_or(|v| {
            gen.groups[gen.members[v].group]
                .members
                .iter()
                .all(|&m| m == v || gen.members[m].last_view_at.is_some())
        })
    };
    while !(gen.drained() && failover_done(&gen)) && Instant::now() < drain_deadline {
        if gen.sweep() == 0 {
            waiter = (waiter + 1) % gen.groups.len();
            let node = gen.groups[waiter].members[0];
            gen.idle(node, IDLE_WAIT);
        }
    }
    // A late duplicate would surface here.
    std::thread::sleep(Duration::from_millis(20));
    gen.sweep();
    let shutdown = hosts.shutdown()?;

    // ---- output checks ----
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for (g, gt) in gen.groups.iter().enumerate() {
        attempted += gt.next_id;
        let alive: Vec<&MemberTrack> = gt
            .members
            .iter()
            .map(|&m| &gen.members[m])
            .filter(|m| m.alive)
            .collect();
        let words = alive.iter().map(|m| m.seen.len()).max().unwrap_or(0);
        let mut by_all = 0u64;
        for i in 0..words {
            let mut acc = u64::MAX;
            for m in &alive {
                acc &= m.seen.get(i).copied().unwrap_or(0);
            }
            by_all += u64::from(acc.count_ones());
        }
        failed += gt.next_id - by_all.min(gt.next_id);
        let first = alive[0];
        if alive
            .iter()
            .any(|m| (m.count, m.hash) != (first.count, first.hash))
        {
            problems.push(format!(
                "group {}: members disagree on the delivered sequence",
                g + 1
            ));
        }
        if gt.verdicts != gt.accepted {
            problems.push(format!(
                "group {}: {} verdicts missing",
                g + 1,
                gt.accepted - gt.verdicts
            ));
        }
    }
    for (i, m) in gen.members.iter().enumerate() {
        if m.duplicates > 0 {
            problems.push(format!(
                "node {} delivered {} duplicates",
                i + 1,
                m.duplicates
            ));
        }
        let expected_views = match victim {
            Some(v) if m.alive && m.group == gen.members[v].group => 1,
            _ => 0,
        };
        if m.alive && m.views.len() != expected_views {
            problems.push(format!(
                "node {} installed {} views, expected {expected_views}",
                i + 1,
                m.views.len()
            ));
        }
        if let (Some(v), 1) = (victim, m.views.len()) {
            let want: Vec<ProcessId> = gen.groups[m.group]
                .members
                .iter()
                .filter(|&&x| x != v)
                .map(|&x| ProcessId(u32::try_from(x + 1).expect("node id")))
                .collect();
            if m.views[0] != want {
                problems.push(format!(
                    "node {} installed {:?}, expected {want:?}",
                    i + 1,
                    m.views[0]
                ));
            }
        }
    }
    problems.append(&mut gen.unexpected);
    let failover = match (victim, killed_at) {
        (Some(v), Some(k)) => {
            let last = gen.groups[gen.members[v].group]
                .members
                .iter()
                .filter(|&&m| m != v)
                .map(|&m| gen.members[m].last_view_at)
                .collect::<Option<Vec<_>>>()
                .and_then(|t| t.into_iter().max());
            if last.is_none() {
                problems.push("the victim was not excluded within the drain limit".into());
            }
            last.map(|t| t.saturating_duration_since(k))
        }
        _ => None,
    };
    let wire = wire_delta(&start_snap.wire, &end_snap.wire);
    if wire.reconnects + wire.dropped_dead + wire.handshake_rejects > 0 {
        problems.push(format!(
            "peer links misbehaved in the window: {} reconnects, {} dropped, {} rejected",
            wire.reconnects, wire.dropped_dead, wire.handshake_rejects
        ));
    }
    let secs = (end_snap.at - start_snap.at).as_secs_f64();
    let r = Round {
        secs,
        delivered: gen.tally.delivered,
        survivor_delivered: gen.tally.survivor_delivered,
        cpu_us: (end_snap.cpu - start_snap.cpu).as_secs_f64() * 1e6,
        gen_busy: (end_snap.gen_cpu - start_snap.gen_cpu).as_secs_f64() / secs,
        late_ms: (
            gen.ins.late.quantile(0.5) as f64 / 1e3,
            gen.ins.late.quantile(0.99) as f64 / 1e3,
        ),
        wire,
        failover,
        views: gen.members.iter().map(|m| m.views.len()).sum(),
        shed: gen.groups.iter().map(|g| g.shed).sum(),
        attempted,
        failed,
        shutdown,
        traced,
        p50: gen.ins.lat.quantile(0.5) as f64,
        p99: gen.ins.lat.quantile(0.99) as f64,
    };
    let ins = gen.ins;
    ins.pooled.merge(&ins.lat);
    Ok(r)
}

/// Runs one host workload: extra set-ups for `setup_s`, then one round per
/// [`ROUND_WINDOW`] of the window, every one on a fresh set-up. Traced runs trace
/// every other round. Figures are medians over rounds.
#[allow(clippy::too_many_lines)]
pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, Abort> {
    let mut out = Outcome::default();
    let choice = choose(w, seed);
    let window = ROUND_WINDOW;
    let rounds_n = u32::try_from(Duration::from_secs(seconds).as_millis() / window.as_millis())
        .expect("seconds is at most 60");
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut probes = Vec::new();
    let mut record = |s: &SetUp| {
        setups.push(s.total.as_secs_f64());
        starts.push(s.start.as_secs_f64() * 1e3);
        probes.push(s.probe.as_secs_f64() * 1e3);
    };
    for _ in 0..EXTRA_SETUPS {
        let s = set_up(w)?;
        record(&s);
        s.hosts.shutdown()?;
    }
    let mut rounds = Vec::new();
    let mut ins = Instruments {
        tracer: Tracer::new(false),
        lat: Histogram::new(),
        late: Histogram::new(),
        pooled: Histogram::new(),
    };
    ins.pooled.reset();
    for r in 0..rounds_n {
        let s = set_up(w)?;
        record(&s);
        let on = traced && r % 2 == 1;
        rounds.push(round(
            w,
            s.hosts,
            &choice,
            window,
            &mut ins,
            on,
            &mut out.problems,
        )?);
    }
    let rss = peak_rss_mb();
    for (i, r) in rounds.iter().enumerate() {
        out.notes.push(format!(
            "round {i}: {:.0} deliveries/s  p50 {} us  p99 {} us  cpu {:.3} us/delivery  gen busy {:.2}",
            r.delivered as f64 / r.secs,
            r.p50,
            r.p99,
            r.cpu_us / r.delivered.max(1) as f64,
            r.gen_busy
        ));
    }

    let (tail_q, tail) = ins.pooled.tail();
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let p50 = med(&|r| r.p50);
    let p99 = med(&|r| r.p99);
    out.notes.push(format!(
        "latency samples {}  p50 {p50} us  p99 {p99} us (medians of {rounds_n} rounds)  pooled p{} {tail} us",
        ins.pooled.count(),
        crate::measure::percent(tail_q)
    ));
    out.put("gen.latency_samples", ins.pooled.count() as f64, "count");
    out.put("gen.latency_tail_q", tail_q, "ratio");
    out.put("gen.latency_tail_us", tail as f64, "us");
    out.put("setup_s", median(&setups), "s");
    out.put(
        "delivered_per_s",
        med(&|r| r.delivered as f64 / r.secs),
        "1/s",
    );
    out.put("latency_p50_us", p50, "us");
    out.put("latency_p99_us", p99, "us");
    out.put(
        "cpu_us_per_delivery",
        med(&|r| r.cpu_us / r.delivered.max(1) as f64),
        "us",
    );
    out.put("peak_rss_mb", rss, "MB");

    let per_delivery =
        |f: fn(&WireStats) -> u64| med(&|r: &Round| f(&r.wire) as f64 / r.delivered.max(1) as f64);
    out.put("runtime.start_ms", median(&starts), "ms");
    out.put(
        "runtime.submit_ns_p50",
        ins.tracer.quantile_ns(SpanKind::Submit, 0.5),
        "ns",
    );
    out.put(
        "runtime.submit_ns_p99",
        ins.tracer.quantile_ns(SpanKind::Submit, 0.99),
        "ns",
    );
    out.put(
        "runtime.envelopes_per_frame",
        med(&|r| r.wire.envelopes as f64 / r.wire.frames.max(1) as f64),
        "envelope/frame",
    );
    out.put(
        "runtime.frames_per_delivery",
        per_delivery(|w| w.frames),
        "frame/delivery",
    );
    out.put(
        "runtime.bytes_per_delivery",
        per_delivery(|w| w.bytes),
        "B/delivery",
    );
    out.put(
        "runtime.null_frames_per_s",
        med(&|r| r.wire.null_frames as f64 / r.secs),
        "1/s",
    );
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    out.put(
        "runtime.suppressed_nulls",
        sum(&|r| r.wire.suppressed_nulls as f64),
        "count",
    );
    out.put("runtime.shed", sum(&|r| r.shed as f64), "count");
    out.put("runtime.view_changes", sum(&|r| r.views as f64), "count");
    out.put(
        "runtime.shutdown_ms",
        med(&|r| r.shutdown.as_secs_f64() * 1e3),
        "ms",
    );
    if matches!(w.topology, Topology::TcpPair) {
        out.put("net.connect_ms", median(&probes), "ms");
        out.put(
            "net.frames_per_s",
            med(&|r| r.wire.frames as f64 / r.secs),
            "1/s",
        );
        out.put(
            "net.bytes_per_frame",
            med(&|r| r.wire.bytes as f64 / r.wire.frames.max(1) as f64),
            "B/frame",
        );
        out.put(
            "net.reconnects",
            sum(&|r| r.wire.reconnects as f64),
            "count",
        );
        out.put(
            "net.dropped_dead",
            sum(&|r| r.wire.dropped_dead as f64),
            "count",
        );
        out.put(
            "net.handshake_rejects",
            sum(&|r| r.wire.handshake_rejects as f64),
            "count",
        );
    }
    let busy = med(&|r| r.gen_busy);
    // The generator is the calling thread; no other thread offers load.
    out.put("gen.threads", 1.0, "count");
    out.put("gen.busy_ratio", busy, "ratio");
    match w.load {
        Load::Open { .. } => {
            out.put("gen.late_ms", med(&|r| r.late_ms.1), "ms");
            let typical = med(&|r| r.late_ms.0);
            if typical * 1e3 > GEN_LATE_LIMIT * p50 {
                out.invalid.push(format!(
                    "generator fell behind: median lateness {typical:.3} ms against a {:.3} ms limit",
                    GEN_LATE_LIMIT * p50 / 1e3
                ));
            }
        }
        Load::Closed { .. } if busy > GEN_BUSY_LIMIT => out.invalid.push(format!(
            "generator busy {:.0}% of the window, above {:.0}%",
            busy * 100.0,
            GEN_BUSY_LIMIT * 100.0
        )),
        Load::Closed { .. } => {}
    }
    let failovers: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.failover.map(|f| f.as_secs_f64() * 1e3))
        .collect();
    if !failovers.is_empty() {
        out.put("failover_ms", median(&failovers), "ms");
    }
    out.attempted = rounds.iter().map(|r| r.attempted).sum();
    out.failed = rounds.iter().map(|r| r.failed).sum();
    out.put(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    if traced {
        let rate = |on: bool| {
            median(
                &rounds
                    .iter()
                    .filter(|r| r.traced == on)
                    .map(|r| r.survivor_delivered as f64 / r.secs)
                    .collect::<Vec<_>>(),
            )
        };
        out.put(
            "trace.overhead",
            rate(true) / rate(false).max(1e-9),
            "ratio",
        );
        let traced_wall: f64 = rounds.iter().filter(|r| r.traced).map(|r| r.secs).sum();
        out.put(
            "trace.coverage",
            ins.tracer.covered().as_secs_f64() / traced_wall,
            "ratio",
        );
        out.notes.extend(ins.tracer.summary());
        let shape = replay::Shape {
            groups: w.groups.clone(),
            omega: w.omega,
            big_omega: w.big_omega,
            payload: w.payload,
        };
        match w.load {
            Load::Closed { window } => replay::run(&shape, window, &mut out),
            // The simulator's exact virtual latency and failover sit next
            // to the real ones they should predict.
            Load::Open { .. } => sweep::layers(seed, &mut out),
        }
    }
    Ok(out)
}
