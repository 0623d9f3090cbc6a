//! Traced engine replay: a host workload's traffic shape moved between bare
//! `newtop_core::Process`es by the benchmark's own loop, one global FIFO
//! queue (so every link is FIFO), every envelope through the wire codec,
//! and every engine and codec call timed. Virtual time advances 1 µs per
//! handled envelope, so the run is deterministic and its call counts repeat
//! exactly.

use crate::measure::{SpanKind, Tracer};
use crate::Outcome;
use bytes::{Bytes, BytesMut};
use newtop_core::{Action, Process};
use newtop_types::{
    wire, GroupConfig, GroupId, Instant, OrderMode, ProcessConfig, ProcessId, Span,
};
use std::collections::{BTreeSet, VecDeque};

pub struct Shape {
    pub groups: Vec<Vec<u32>>,
    pub omega: Span,
    pub big_omega: Span,
    pub payload: usize,
}

/// Multicasts issued per replay.
const MULTICASTS: u64 = 40_000;
/// Handled envelopes between timer sweeps.
const TICK_EVERY: u64 = 64;
/// Half-ω steps of the silent tail after the closed loop.
const QUIET_PERIODS: u32 = 400;

struct Replay {
    procs: Vec<Process>,
    queue: VecDeque<(ProcessId, ProcessId, Bytes)>,
    tracer: Tracer,
    buf: BytesMut,
    /// First member of each group: its deliveries release the next send.
    acks: Vec<ProcessId>,
    credit: Vec<u32>,
    envelopes: u64,
    bytes: u64,
    deliveries: u64,
    decode_errors: u64,
    steps: u64,
    now_us: u64,
}

impl Replay {
    fn execute(&mut self, at: ProcessId, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, envelope } => {
                    self.buf.clear();
                    let t = std::time::Instant::now();
                    wire::encode_into(&envelope, &mut self.buf);
                    self.tracer.add(SpanKind::Encode, t.elapsed());
                    self.envelopes += 1;
                    self.bytes += self.buf.len() as u64;
                    let bytes = self.buf.split_to(self.buf.len()).freeze();
                    self.queue.push_back((at, to, bytes));
                }
                Action::Deliver(d) => {
                    self.deliveries += 1;
                    let g = d.group.0 as usize - 1;
                    if self.acks[g] == at {
                        self.credit[g] += 1;
                    }
                }
                _ => {}
            }
        }
    }

    /// Handles the oldest envelope in flight, if any.
    fn step(&mut self) {
        let Some((from, to, mut bytes)) = self.queue.pop_front() else {
            return;
        };
        let t = std::time::Instant::now();
        let env = wire::decode(&mut bytes);
        self.tracer.add(SpanKind::Decode, t.elapsed());
        let Ok(env) = env else {
            self.decode_errors += 1;
            return;
        };
        self.now_us += 1;
        let now = Instant::from_micros(self.now_us);
        let t = std::time::Instant::now();
        let actions = self.procs[to.0 as usize - 1].handle(now, from, env);
        self.tracer.add(SpanKind::CoreHandle, t.elapsed());
        self.execute(to, actions);
        self.steps += 1;
        if self.steps.is_multiple_of(TICK_EVERY) {
            self.tick_due();
        }
    }

    fn drain(&mut self) {
        while !self.queue.is_empty() {
            self.step();
        }
    }

    fn tick_due(&mut self) {
        let now = Instant::from_micros(self.now_us);
        for i in 0..self.procs.len() {
            if self.procs[i].next_deadline().is_some_and(|d| d <= now) {
                let t = std::time::Instant::now();
                let actions = self.procs[i].tick(now);
                self.tracer.add(SpanKind::CoreTick, t.elapsed());
                let id = self.procs[i].id();
                self.execute(id, actions);
            }
        }
    }
}

/// Replays `shape` under a closed loop of `window` multicasts per group and
/// adds the `core.*` and `wire.*` metrics to `out`.
pub fn run(shape: &Shape, window: u32, out: &mut Outcome) {
    let n = shape.groups.iter().flatten().copied().max().unwrap_or(0);
    let mut procs: Vec<Process> = (1..=n)
        .map(|i| Process::new(ProcessId(i), ProcessConfig::new()))
        .collect();
    let cfg = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(shape.omega)
        .with_big_omega(shape.big_omega);
    for (g, members) in shape.groups.iter().enumerate() {
        let set: BTreeSet<ProcessId> = members.iter().map(|&i| ProcessId(i)).collect();
        for &m in members {
            procs[m as usize - 1]
                .bootstrap_group(Instant::ZERO, gid(g), &set, cfg)
                .expect("replay bootstrap");
        }
    }
    let mut r = Replay {
        procs,
        queue: VecDeque::new(),
        tracer: Tracer::new(true),
        buf: BytesMut::with_capacity(4096),
        acks: shape.groups.iter().map(|m| ProcessId(m[0])).collect(),
        credit: vec![window; shape.groups.len()],
        envelopes: 0,
        bytes: 0,
        deliveries: 0,
        decode_errors: 0,
        steps: 0,
        now_us: 0,
    };
    let mut next_sender = vec![0usize; shape.groups.len()];
    let mut issued = 0u64;
    while issued < MULTICASTS {
        for g in 0..shape.groups.len() {
            while r.credit[g] > 0 && issued < MULTICASTS {
                r.credit[g] -= 1;
                let members = &shape.groups[g];
                let sender = ProcessId(members[next_sender[g] % members.len()]);
                next_sender[g] += 1;
                issued += 1;
                let body = Bytes::from(vec![0u8; shape.payload]);
                let now = Instant::from_micros(r.now_us);
                let t = std::time::Instant::now();
                let actions = r.procs[sender.0 as usize - 1].multicast(now, gid(g), body);
                r.tracer.add(SpanKind::CoreMulticast, t.elapsed());
                r.execute(sender, actions.expect("replay multicast accepted"));
            }
        }
        if r.queue.is_empty() {
            // Nothing in flight: jump to the next timer.
            let Some(next) = r.procs.iter().filter_map(Process::next_deadline).min() else {
                break;
            };
            r.now_us = r.now_us.max(next.as_micros());
            r.tick_due();
        }
        r.step();
    }
    r.drain();
    // A silent tail: no sends for a while, so the time-silence timers fire
    // and their nulls are handled, as between bursts on a real host.
    let half_omega = (shape.omega.as_micros() / 2).max(1);
    for _ in 0..QUIET_PERIODS {
        r.now_us += half_omega;
        r.tick_due();
        r.drain();
    }
    if r.decode_errors > 0 || r.deliveries == 0 {
        out.problems.push(format!(
            "engine replay: {} decode errors, {} deliveries",
            r.decode_errors, r.deliveries
        ));
    }
    let t = &r.tracer;
    out.put(
        "core.multicast_ns",
        t.quantile_ns(SpanKind::CoreMulticast, 0.5),
        "ns",
    );
    out.put(
        "core.handle_ns",
        t.quantile_ns(SpanKind::CoreHandle, 0.5),
        "ns",
    );
    out.put("core.tick_ns", t.quantile_ns(SpanKind::CoreTick, 0.5), "ns");
    out.put(
        "core.multicast_calls",
        t.count(SpanKind::CoreMulticast) as f64,
        "count",
    );
    out.put(
        "core.handle_calls",
        t.count(SpanKind::CoreHandle) as f64,
        "count",
    );
    out.put(
        "core.tick_calls",
        t.count(SpanKind::CoreTick) as f64,
        "count",
    );
    out.put("wire.encode_ns", t.quantile_ns(SpanKind::Encode, 0.5), "ns");
    out.put("wire.decode_ns", t.quantile_ns(SpanKind::Decode, 0.5), "ns");
    out.put(
        "wire.bytes_per_envelope",
        r.bytes as f64 / r.envelopes.max(1) as f64,
        "B/envelope",
    );
    out.put("replay.deliveries", r.deliveries as f64, "count");
    out.notes.push(format!(
        "engine replay: {issued} multicasts, {} deliveries, {} envelopes",
        r.deliveries, r.envelopes
    ));
    out.notes.extend(r.tracer.summary());
}

fn gid(g: usize) -> GroupId {
    GroupId(u32::try_from(g + 1).expect("few groups"))
}
