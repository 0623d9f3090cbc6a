//! The simulator, checker and engine-counter layers, measured in the traced
//! run of `publish`: a batch of seeds split evenly over the classic, churn
//! and WAN chaos families is planned, simulated and checked, and swept again
//! for at least [`MIN_PASSES`] passes and one second, so each pass doubles as
//! a determinism check against the first. Timings are per-seed medians over
//! passes, so a slow moment of the machine in one pass does not move them.

use crate::measure::{median, quantile};
use crate::Outcome;
use newtop_harness::chaos::FaultOp;
use newtop_harness::{check_all, history_hash, ChaosPlan, ChaosScenario, History, HistoryEvent};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Seeds per family in one pass.
const PER_FAMILY: u64 = 20;
/// Seeds per family in the different-base determinism check.
const CHECK_PER_FAMILY: u64 = 10;
/// Passes run even when [`SWEEP_TIME`] is already over.
const MIN_PASSES: usize = 3;
/// Passes continue until this much time has passed.
const SWEEP_TIME: Duration = Duration::from_secs(1);

fn batch(base: u64, per_family: u64) -> Vec<ChaosScenario> {
    let mut v = Vec::new();
    v.extend((0..per_family).map(|i| ChaosScenario::new(base + i)));
    v.extend((0..per_family).map(|i| ChaosScenario::churn(base + per_family + i)));
    v.extend((0..per_family).map(|i| ChaosScenario::wan(base + 2 * per_family + i)));
    v
}

/// Exact counts one pass produces; equal passes must produce equal sums.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
struct Sums {
    hashes: Vec<u64>,
    deliveries: u64,
    app_deliveries: u64,
    nulls: u64,
    suspects: u64,
    refutes: u64,
    views: u64,
    messages_sent: u64,
    messages_delivered: u64,
}

/// Timings of one seed in one pass.
#[derive(Clone, Copy, Default)]
struct SeedTime {
    run: Duration,
    history: Duration,
    check: Duration,
}

impl SeedTime {
    fn busy(&self) -> Duration {
        self.run + self.history + self.check
    }
}

struct Pass {
    sums: Sums,
    per_seed: Vec<SeedTime>,
    virtual_latency: Vec<f64>,
    virtual_failover: Vec<f64>,
}

fn sweep(scenarios: &[ChaosScenario], failures: &mut Vec<String>) -> Pass {
    let plans: Vec<ChaosPlan> = scenarios.iter().map(ChaosScenario::plan).collect();
    let mut pass = Pass {
        sums: Sums::default(),
        per_seed: Vec::with_capacity(plans.len()),
        virtual_latency: Vec::new(),
        virtual_failover: Vec::new(),
    };
    for (sc, plan) in scenarios.iter().zip(&plans) {
        let t0 = Instant::now();
        let cluster = catch_unwind(AssertUnwindSafe(|| plan.run()));
        let t1 = Instant::now();
        let Ok(cluster) = cluster else {
            pass.per_seed.push(SeedTime::default());
            failures.push(format!(
                "seed {} (churn {}, wan {}) panicked",
                sc.seed, sc.churn, sc.wan
            ));
            continue;
        };
        let history = cluster.history();
        let t2 = Instant::now();
        let violations = check_all(&history, &plan.check_options());
        let t3 = Instant::now();
        pass.per_seed.push(SeedTime {
            run: t1 - t0,
            history: t2 - t1,
            check: t3 - t2,
        });
        if !violations.is_empty() {
            failures.push(format!(
                "seed {} (churn {}, wan {}): {} violations, first {:?}",
                sc.seed,
                sc.churn,
                sc.wan,
                violations.len(),
                violations[0]
            ));
        }
        let s = &mut pass.sums;
        s.hashes.push(history_hash(&history));
        for p in 1..=plan.n {
            let st = cluster.proc(p).stats();
            s.app_deliveries += st.deliveries;
            s.nulls += st.nulls_sent;
            s.suspects += st.suspects_sent;
            s.refutes += st.refutes_sent;
            s.views += st.views_installed;
        }
        let net = cluster.net_stats();
        s.messages_sent += net.sent;
        s.messages_delivered += net.delivered;
        virtual_times(
            &history,
            plan,
            s,
            &mut pass.virtual_latency,
            &mut pass.virtual_failover,
        );
    }
    pass
}

/// Adds the history's tagged deliveries to the sums and its exact
/// virtual-time send→delivery latencies and crash→last-install failovers.
fn virtual_times(
    h: &History,
    plan: &ChaosPlan,
    s: &mut Sums,
    lat: &mut Vec<f64>,
    fail: &mut Vec<f64>,
) {
    let mut sent_at = BTreeMap::new();
    for ev in h.events.values().flatten() {
        if let HistoryEvent::Sent { at, mid, .. } = ev {
            sent_at.insert(*mid, at.as_micros());
        }
    }
    for ev in h.events.values().flatten() {
        if let HistoryEvent::Delivered {
            at, mid: Some(mid), ..
        } = ev
        {
            s.deliveries += 1;
            if let Some(t) = sent_at.get(mid) {
                lat.push(at.as_micros().saturating_sub(*t) as f64);
            }
        }
    }
    for f in &plan.faults {
        let FaultOp::Crash { victim } = f.op else {
            continue;
        };
        let groups: Vec<_> = plan
            .topology
            .iter()
            .filter(|g| g.members.contains(&victim))
            .map(|g| g.group)
            .collect();
        let victim = newtop_types::ProcessId(victim);
        // Each survivor's first install, after the crash, of a view of one
        // of the victim's groups without it; the failover ends at the last.
        let mut last = None;
        for (p, events) in &h.events {
            if *p == victim || h.is_crashed(*p) {
                continue;
            }
            let install = events.iter().find_map(|e| match e {
                HistoryEvent::ViewChange {
                    at, group, view, ..
                } if at.as_micros() >= f.at_us
                    && groups.contains(group)
                    && !view.contains(victim) =>
                {
                    Some(at.as_micros())
                }
                _ => None,
            });
            if let Some(t) = install {
                last = Some(last.map_or(t, |l: u64| l.max(t)));
            }
        }
        if let Some(t) = last {
            fail.push((t - f.at_us) as f64);
        }
    }
}

/// Sweeps [`PER_FAMILY`] seeds of each family, based at `seed`, and adds
/// the simulator, checker and engine-counter metrics to `out`; a violation,
/// a panic or a broken determinism check is added to its problems.
pub fn layers(seed: u64, out: &mut Outcome) {
    let base = seed.wrapping_mul(3 * PER_FAMILY);
    let scenarios = batch(base, PER_FAMILY);
    let mut failures = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let deadline = Instant::now() + SWEEP_TIME;
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        passes.push(sweep(&scenarios, &mut failures));
    }

    // Determinism: every pass repeats the first exactly; a disjoint base
    // gives different hashes for the same family mix.
    let first = passes[0].sums.clone();
    let repeats = passes[1..].iter().filter(|p| p.sums == first).count();
    if repeats + 1 != passes.len() {
        out.problems.push(format!(
            "{} of {} passes differ from the first over the same seeds",
            passes.len() - 1 - repeats,
            passes.len() - 1
        ));
    }
    let ours = sweep(&batch(base, CHECK_PER_FAMILY), &mut failures);
    let other = sweep(
        &batch(base.wrapping_add(1 << 40), CHECK_PER_FAMILY),
        &mut failures,
    );
    let changed = other.sums.hashes != ours.sums.hashes;
    if !changed {
        out.problems
            .push("a different base seed reproduced the same history hashes".into());
    }
    out.problems.extend(failures.iter().take(5).cloned());

    // Per-seed medians over the passes, summed over the batch.
    let total = |f: fn(&SeedTime) -> Duration| -> f64 {
        (0..scenarios.len())
            .map(|i| {
                median(
                    &passes
                        .iter()
                        .map(|p| f(&p.per_seed[i]).as_secs_f64())
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    };
    let seeds = scenarios.len() as f64;
    let deliveries = first.deliveries.max(1) as f64;
    let run_s = total(|t| t.run);
    let check_s = total(|t| t.check);
    out.put("seeds_per_s", seeds / total(SeedTime::busy), "1/s");
    out.put("sim.run_ms_per_seed", run_s * 1e3 / seeds, "ms");
    out.put(
        "sim.us_per_message",
        run_s * 1e6 / first.messages_delivered.max(1) as f64,
        "us",
    );
    out.put(
        "sim.messages_per_seed",
        first.messages_sent as f64 / seeds,
        "count",
    );
    out.put("sim.hash_repeats", repeats as f64, "count");
    out.put("sim.hash_changed", f64::from(u8::from(changed)), "count");
    out.put(
        "checker.history_ms_per_seed",
        total(|t| t.history) * 1e3 / seeds,
        "ms",
    );
    out.put("checker.check_ms_per_seed", check_s * 1e3 / seeds, "ms");
    out.put("checker.us_per_delivery", check_s * 1e6 / deliveries, "us");
    out.put(
        "core.nulls_per_delivery",
        first.nulls as f64 / first.app_deliveries.max(1) as f64,
        "ratio",
    );
    out.put("core.suspects_sent", first.suspects as f64, "count");
    out.put("core.refutes_sent", first.refutes as f64, "count");
    out.put("core.views_installed", first.views as f64, "count");
    let p0 = &passes[0];
    out.put(
        "core.virtual_latency_p50_us",
        quantile(&mut p0.virtual_latency.clone(), 0.5),
        "us",
    );
    out.put(
        "core.virtual_failover_us",
        quantile(&mut p0.virtual_failover.clone(), 0.5),
        "us",
    );
}
