//! Measurement primitives: latency histograms, process counters read from
//! `/proc`, and the span tracer the traced runs use.

use std::time::{Duration, Instant};

/// Latency histogram with exact 1 µs buckets up to [`Histogram::EXACT_US`];
/// slower samples are kept verbatim. Bounded memory at any sample count.
pub struct Histogram {
    buckets: Vec<u32>,
    slow: Vec<u64>,
    count: u64,
}

impl Histogram {
    const EXACT_US: u64 = 50_000;

    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; Self::EXACT_US as usize],
            slow: Vec::new(),
            count: 0,
        }
    }

    pub fn record(&mut self, us: u64) {
        self.count += 1;
        match self.buckets.get_mut(us as usize) {
            Some(b) => *b += 1,
            None => self.slow.push(us),
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Empties the histogram, writing every bucket.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.slow.clear();
        self.count = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.count += other.count;
    }

    /// Nearest-rank percentile, `q` in (0, 1]; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (us, n) in self.buckets.iter().enumerate() {
            seen += u64::from(*n);
            if seen >= rank {
                return us as u64;
            }
        }
        self.slow.sort_unstable();
        self.slow[(rank - seen - 1) as usize]
    }

    /// The highest of the usual percentiles that still has at least ten
    /// samples above it, with its value.
    pub fn tail(&mut self) -> (f64, u64) {
        let n = self.count as f64;
        let q = [0.99999, 0.9999, 0.999, 0.99, 0.9, 0.5]
            .into_iter()
            .find(|q| n * (1.0 - q) >= 10.0)
            .unwrap_or(0.5);
        (q, self.quantile(q))
    }
}

/// A quantile as a percentile label: 0.999 -> "99.9".
pub fn percent(q: f64) -> String {
    format!("{:.3}", q * 100.0)
        .trim_end_matches('0')
        .trim_end_matches('.')
        .to_string()
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// On-CPU time of every live thread of the process, nanosecond resolution.
/// Threads that exit between two readings drop out of the later one, so
/// callers read it around intervals in which no thread starts or ends.
pub fn process_cpu() -> Duration {
    let ns = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    Duration::from_nanos(ns)
}

/// On-CPU time of the calling thread, nanosecond resolution.
pub fn thread_cpu() -> Duration {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let ns = s
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    Duration::from_nanos(ns)
}

/// Peak resident set size of the process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named layer boundary the benchmark records spans at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// `NodeHandle::multicast_pipelined`: admission plus the inbox push.
    Submit,
    /// Non-blocking reads of output and verdict channels.
    Recv,
    /// Bounded blocking wait on an output channel while idle.
    Wait,
    /// The generator's own bookkeeping: payloads, order hashes, samples.
    Gen,
    /// `Process::multicast`.
    CoreMulticast,
    /// `Process::handle`.
    CoreHandle,
    /// `Process::tick`.
    CoreTick,
    /// `wire::encode_into`.
    Encode,
    /// `wire::decode`.
    Decode,
}

const KINDS: usize = 9;

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Submit => "runtime.submit",
            SpanKind::Recv => "runtime.recv",
            SpanKind::Wait => "gen.wait",
            SpanKind::Gen => "gen.self",
            SpanKind::CoreMulticast => "core.multicast",
            SpanKind::CoreHandle => "core.handle",
            SpanKind::CoreTick => "core.tick",
            SpanKind::Encode => "wire.encode",
            SpanKind::Decode => "wire.decode",
        }
    }

    fn all() -> [SpanKind; KINDS] {
        [
            SpanKind::Submit,
            SpanKind::Recv,
            SpanKind::Wait,
            SpanKind::Gen,
            SpanKind::CoreMulticast,
            SpanKind::CoreHandle,
            SpanKind::CoreTick,
            SpanKind::Encode,
            SpanKind::Decode,
        ]
    }
}

#[derive(Default, Clone)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    /// Durations of the first [`Tracer::KEPT`] spans, for percentiles.
    kept: Vec<u32>,
}

/// Span recorder. Spans are flat (no span of the benchmark's nests inside
/// another), so each span's self time is its duration. A disabled tracer
/// records nothing and costs one branch per boundary.
pub struct Tracer {
    on: bool,
    stats: Vec<SpanStat>,
}

impl Tracer {
    const KEPT: usize = 1 << 20;

    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            stats: vec![SpanStat::default(); KINDS],
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span: the start instant when tracing, `None` otherwise.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened by [`Tracer::start`].
    #[inline]
    pub fn end(&mut self, kind: SpanKind, start: Option<Instant>) {
        if let Some(t0) = start {
            self.add(kind, t0.elapsed());
        }
    }

    /// Records a span of known duration (used where the benchmark times a
    /// call itself and needs the duration for other purposes too).
    pub fn add(&mut self, kind: SpanKind, d: Duration) {
        if !self.on {
            return;
        }
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let s = &mut self.stats[kind as usize];
        s.count += 1;
        s.total_ns += ns;
        if s.kept.len() < Self::KEPT {
            s.kept.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }

    pub fn count(&self, kind: SpanKind) -> u64 {
        self.stats[kind as usize].count
    }

    pub fn total(&self, kind: SpanKind) -> Duration {
        Duration::from_nanos(self.stats[kind as usize].total_ns)
    }

    /// Sum of every span's self time.
    pub fn covered(&self) -> Duration {
        Duration::from_nanos(self.stats.iter().map(|s| s.total_ns).sum())
    }

    /// Nearest-rank percentile of the kept durations of `kind`, in ns.
    pub fn quantile_ns(&self, kind: SpanKind, q: f64) -> f64 {
        let mut v: Vec<f64> = self.stats[kind as usize]
            .kept
            .iter()
            .map(|&ns| f64::from(ns))
            .collect();
        quantile(&mut v, q)
    }

    /// One summary line per recorded layer: count, self time, p50 and p99.
    pub fn summary(&self) -> Vec<String> {
        SpanKind::all()
            .into_iter()
            .filter(|k| self.count(*k) > 0)
            .map(|k| {
                format!(
                    "span {:<16} count {:>10}  self {:>10.3} ms  p50 {:>8.0} ns  p99 {:>8.0} ns",
                    k.name(),
                    self.count(k),
                    self.total(k).as_secs_f64() * 1e3,
                    self.quantile_ns(k, 0.5),
                    self.quantile_ns(k, 0.99),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_nearest_rank_across_both_ranges() {
        let mut h = Histogram::new();
        for us in [5, 1, 3, 2, 4] {
            h.record(us);
        }
        h.record(Histogram::EXACT_US + 7);
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), Histogram::EXACT_US + 7);
        let mut other = Histogram::new();
        other.record(9);
        h.merge(&other);
        assert_eq!(h.quantile(6.0 / 7.0), 9);
        h.reset();
        assert_eq!((h.count(), h.quantile(0.5)), (0, 0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut h = Histogram::new();
        for us in 0..1000 {
            h.record(us);
        }
        assert_eq!(h.tail(), (0.99, 989));
        assert_eq!(percent(0.999), "99.9");
        assert_eq!(percent(0.5), "50");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.start();
        t.end(SpanKind::Submit, s);
        t.add(SpanKind::Encode, Duration::from_millis(1));
        assert_eq!(t.covered(), Duration::ZERO);
        t.set_on(true);
        t.add(SpanKind::Encode, Duration::from_millis(1));
        assert_eq!(t.count(SpanKind::Encode), 1);
        assert_eq!(t.quantile_ns(SpanKind::Encode, 0.5), 1e6);
    }
}
