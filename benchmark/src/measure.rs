//! Process-level measurement: CPU time, peak memory, order statistics,
//! and the fixed-slice accumulator every wall-clock metric goes through.

use crate::layers::Layers;
use dwr_text::search::EvalStats;
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A metric list under construction.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }
}

/// What one workload run hands back to `main`.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage/VmHWM as laid out on 64-bit Linux");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds consumed by the whole process so far (every
/// thread, scatter workers included).
pub fn cpu_seconds() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches `struct rusage` on 64-bit Linux (two
    // `timeval`s of two 64-bit fields, then fourteen `long`s; the
    // compile_error above refuses other targets), and `u` is a valid,
    // writable, exclusively borrowed value for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// How much slower, in percent, a call ran in traced rounds than in
/// untraced ones, from (calls, total µs) of each; 0 when either is empty.
pub fn overhead_pct(traced: (u64, f64), untraced: (u64, f64)) -> f64 {
    if traced.0 == 0 || untraced.0 == 0 {
        return 0.0;
    }
    100.0 * (per(traced.1, traced.0) / per(untraced.1, untraced.0) - 1.0)
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for no samples.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (sorted in place; mean of the middle pair when even).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `total` over `n`, 0 when `n` is 0.
pub fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The timed phase: whole rounds of identical work, each cut into the
/// same fixed slices.
///
/// This host's speed swings by up to half between stretches of a second
/// or two as neighbouring tenants come and go, so a statistic pooled
/// over one pass mostly reports how much of the pass fell in a slow
/// stretch. Every round of a run serves the same inputs on freshly built
/// serving state, so slice `i` of every round carries the same work: each
/// slice position is read from the round that ran it fastest, and the
/// wall-clock metrics come from those slices. A slow stretch then costs
/// nothing unless it hits the same slice in every round.
#[derive(Default)]
pub struct Slices {
    rounds: Vec<Vec<Slice>>,
    round: Vec<Slice>,
    /// Wall seconds spent inside timed slices so far.
    pub timed_s: f64,
    /// Per-query wall latency of the open slice, µs.
    pub latency_us: Vec<f64>,
}

struct Slice {
    queries: u64,
    wall_s: f64,
    cpu_s: f64,
    latency_us: Vec<f64>,
}

/// An open slice: started by [`Slices::start`], closed by
/// [`Slices::finish`].
pub struct SliceClock {
    wall: Instant,
    cpu: f64,
}

impl Slices {
    pub fn start(&self) -> SliceClock {
        SliceClock { cpu: cpu_seconds(), wall: Instant::now() }
    }

    /// Close a slice that completed `queries` queries, whose latencies
    /// were pushed to `latency_us` since the slice started.
    pub fn finish(&mut self, clock: SliceClock, queries: u64) {
        let wall_s = clock.wall.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - clock.cpu;
        self.timed_s += wall_s;
        let latency_us = std::mem::take(&mut self.latency_us);
        self.round.push(Slice { queries, wall_s, cpu_s, latency_us });
    }

    /// Close the current round; a round that is not `kept` (a traced
    /// round) counts toward the run length but not toward the metrics.
    pub fn end_round(&mut self, kept: bool) {
        let round = std::mem::take(&mut self.round);
        if kept {
            self.rounds.push(round);
        }
    }

    /// Set the wall-clock metrics: queries per second, CPU per query and
    /// the latency percentiles over the fastest reading of each slice.
    pub fn report(self, layers: &mut Layers) {
        let positions = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        let (mut queries, mut wall_s, mut cpu_s) = (0u64, 0.0f64, 0.0f64);
        let mut latency_us = Vec::new();
        for i in 0..positions {
            let best = self
                .rounds
                .iter()
                .map(|r| &r[i])
                .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
                .expect("at least one round");
            queries += best.queries;
            wall_s += best.wall_s;
            cpu_s += best.cpu_s;
            latency_us.extend_from_slice(&best.latency_us);
        }
        layers.set("wall.qps", queries as f64 / wall_s);
        layers.set("wall.cpu_us_per_query", per(cpu_s * 1e6, queries));
        layers.set("wall.latency_p50_us", percentile(&mut latency_us, 50.0));
        layers.set("wall.latency_p99_us", percentile(&mut latency_us, 99.0));
    }
}

/// The deterministic side of the end-to-end metrics: simulated latency
/// and capacity, and the evaluator's work.
#[derive(Default)]
pub struct SimSummary {
    /// Simulated response time of every answer the back end evaluated
    /// (cache hits excluded), µs.
    pub latency_us: Vec<f64>,
    /// Saturation rate of each slice (see [`Capacity`]).
    pub capacity_qps: Vec<f64>,
    /// The brokers' `EvalStats` over one round, and the back-end
    /// evaluations they cover.
    pub work: EvalStats,
    pub evaluated: u64,
}

impl SimSummary {
    pub fn report(mut self, m: &mut Metrics) {
        m.push("sim_latency_p50_us", "us", percentile(&mut self.latency_us, 50.0));
        m.push("sim_latency_p99_us", "us", percentile(&mut self.latency_us, 99.0));
        m.push("sim_capacity_qps", "1/s", median(&mut self.capacity_qps));
        let postings = per(self.work.postings_scanned as f64, self.evaluated);
        m.push("postings_per_query", "count", postings);
        let blocks = per(self.work.blocks_decoded as f64, self.evaluated);
        m.push("blocks_decoded_per_query", "count", blocks);
    }
}

/// Saturation rate per slice of serving: the queries a slice answered
/// over the busy seconds it added to its busiest partition (the
/// `DocBroker::busy_time` ledger, Figure 2's quantity), that partition's
/// load shared over its replicas. `sim_capacity_qps` is the median over
/// slices, so a rare heavy query moves one slice, not the result.
#[derive(Default)]
pub struct Capacity {
    last_us: Vec<f64>,
}

impl Capacity {
    /// Close a slice given the ledger now and the slice's answered count.
    pub fn slice(&mut self, busy_us: Vec<f64>, answered: u64, replicas: usize) -> Option<f64> {
        let added_us = busy_us
            .iter()
            .zip(self.last_us.iter().chain(std::iter::repeat(&0.0)))
            .map(|(now, before)| now - before)
            .fold(0.0, f64::max);
        self.last_us = busy_us;
        (added_us > 0.0).then(|| answered as f64 * replicas as f64 / (added_us * 1e-6))
    }
}
