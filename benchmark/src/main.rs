//! The Newtop benchmark: one command that runs a named workload against the
//! public APIs of the runtime, engine, codec, simulator and harness crates,
//! checks the outputs, and prints every metric by name with its unit.
//!
//! ```text
//! newtop-benchmark --workload <saturate|publish|tcp-loopback>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics when
//! `--trace 0`, the per-layer metrics when `--trace 1`. Every measured value
//! is also appended as a record `{name, value, unit, workload, seed, nproc,
//! commit, traced}` to `.bench_results/<workload>-seed<n>-trace<t>.jsonl`.
//!
//! Exit codes: 0 success; 1 bad arguments; 2 an output check failed; 3 the
//! generator fell behind, so the run is invalid rather than slow; 4 a
//! bounded host call or the watchdog deadline passed; 5 the workload could
//! not be set up.

mod host;
mod measure;
mod replay;
mod sweep;

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics: every workload reports each of them, untraced.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("delivered_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_delivery", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("runtime.start_ms", "ms"),
    ("runtime.submit_ns_p50", "ns"),
    ("runtime.submit_ns_p99", "ns"),
    ("runtime.envelopes_per_frame", "envelope/frame"),
    ("runtime.frames_per_delivery", "frame/delivery"),
    ("runtime.bytes_per_delivery", "B/delivery"),
    ("runtime.null_frames_per_s", "1/s"),
    ("runtime.suppressed_nulls", "count"),
    ("runtime.shed", "count"),
    ("runtime.view_changes", "count"),
    ("runtime.shutdown_ms", "ms"),
    ("net.connect_ms", "ms"),
    ("net.frames_per_s", "1/s"),
    ("net.bytes_per_frame", "B/frame"),
    ("net.reconnects", "count"),
    ("net.dropped_dead", "count"),
    ("net.handshake_rejects", "count"),
    ("core.multicast_ns", "ns"),
    ("core.handle_ns", "ns"),
    ("core.tick_ns", "ns"),
    ("core.multicast_calls", "count"),
    ("core.handle_calls", "count"),
    ("core.tick_calls", "count"),
    ("core.nulls_per_delivery", "ratio"),
    ("core.suspects_sent", "count"),
    ("core.refutes_sent", "count"),
    ("core.views_installed", "count"),
    ("core.virtual_latency_p50_us", "us"),
    ("core.virtual_failover_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_envelope", "B/envelope"),
    ("sim.run_ms_per_seed", "ms"),
    ("sim.us_per_message", "us"),
    ("sim.messages_per_seed", "count"),
    ("sim.hash_repeats", "count"),
    ("sim.hash_changed", "count"),
    ("checker.history_ms_per_seed", "ms"),
    ("checker.check_ms_per_seed", "ms"),
    ("checker.us_per_delivery", "us"),
    ("gen.threads", "count"),
    ("gen.busy_ratio", "ratio"),
    ("gen.late_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("failover_ms", "ms"),
    ("seeds_per_s", "1/s"),
    ("failed_ratio", "ratio"),
    ("gen.latency_samples", "count"),
    ("gen.latency_tail_us", "us"),
];

/// The traced run's layer spans must account for at least this share of
/// its measured wall time.
const MIN_COVERAGE: f64 = 0.75;

/// Why a run stopped before it had a result to print.
pub enum Abort {
    /// The workload could not be set up (exit 5).
    Setup(String),
    /// The hosts produced a wrong or missing output (exit 2).
    Check(String),
    /// A bounded host call passed its limit (exit 4).
    Hang(String),
}

impl Abort {
    fn exit_code(&self) -> i32 {
        match self {
            Abort::Check(_) => 2,
            Abort::Hang(_) => 4,
            Abort::Setup(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            Abort::Setup(m) | Abort::Check(m) | Abort::Hang(m) => m,
        }
    }
}

/// What one workload run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks: the run is wrong.
    pub problems: Vec<String>,
    /// Generator-health failures: the run is invalid, not slow.
    pub invalid: Vec<String>,
    /// Every measured value, by name, with its unit.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Kills the process if the run outlives its deadline: a hung host call
/// must show up as a failed run, never as a hung benchmark.
fn watchdog(limit: Duration) {
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!("watchdog: the run passed its {limit:?} deadline");
            std::process::exit(4);
        })
        .expect("spawn watchdog");
}

/// The commit being measured: `git rev-parse HEAD` in the working
/// directory, else "unknown" (the benchmark also runs from plain source trees).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn write_records(args: &Args, out: &Outcome, nproc: usize) -> std::io::Result<()> {
    let commit = commit();
    let mut lines = String::new();
    for (name, value, unit) in &out.metrics {
        let _ = writeln!(
            lines,
            "{{\"name\": {}, \"value\": {value}, \"unit\": {}, \"workload\": {}, \"seed\": {}, \
             \"nproc\": {nproc}, \"commit\": {}, \"traced\": {}}}",
            json_str(name),
            json_str(unit),
            json_str(&args.workload),
            args.seed,
            json_str(&commit),
            args.trace
        );
    }
    std::fs::create_dir_all(".bench_results")?;
    std::fs::write(
        format!(
            ".bench_results/{}-seed{}-trace{}.jsonl",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ),
        lines,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("newtop-benchmark: {e}");
            std::process::exit(1);
        }
    };
    watchdog(Duration::from_secs((60 + 3 * args.seconds).min(170)));
    let result = match args.workload.as_str() {
        "saturate" => host::run(&host::saturate(), args.seed, args.seconds, args.trace),
        "publish" => host::run(&host::publish(), args.seed, args.seconds, args.trace),
        "tcp-loopback" => host::run(&host::tcp_loopback(), args.seed, args.seconds, args.trace),
        other => {
            eprintln!("newtop-benchmark: unknown workload {other}");
            std::process::exit(1);
        }
    };
    let mut out = match result {
        Ok(o) => o,
        Err(a) => {
            eprintln!("newtop-benchmark: {}: {}", args.workload, a.message());
            std::process::exit(a.exit_code());
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if args.trace {
        let coverage = out.get("trace.coverage").unwrap_or(0.0);
        if coverage < MIN_COVERAGE {
            out.problems.push(format!(
                "layer spans cover {:.0}% of the traced wall time, below {:.0}%",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = match out.get(name) {
            Some(v) => v,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            None => {
                out.problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            out.problems.push(format!("{name} is not a number"));
        }
        metrics.push((*name, if value.is_finite() { value } else { 0.0 }, *unit));
    }

    for line in &out.notes {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    for p in &out.invalid {
        eprintln!("invalid run: {p}");
    }
    if let Err(e) = write_records(&args, &out, nproc) {
        eprintln!("newtop-benchmark: could not write records: {e}");
    }
    let correct = out.problems.is_empty() && out.invalid.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if !out.problems.is_empty() {
        std::process::exit(2);
    }
    if !out.invalid.is_empty() {
        std::process::exit(3);
    }
}
