//! Summary statistics and the result line.

use crate::drive::{Done, Sink};
use crate::Checker;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Latency histogram with buckets 0.1% wide from 100 ns to over an hour:
/// quantiles to within 0.05%, in fixed memory however many jobs complete.
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

const HIST_MIN_S: f64 = 1e-7;
const HIST_RATIO: f64 = 1.001;
const HIST_BUCKETS: usize = 25_000;

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; HIST_BUCKETS], total: 0 }
    }

    pub fn add(&mut self, secs: f64) {
        let bucket = ((secs / HIST_MIN_S).ln() / HIST_RATIO.ln()).floor();
        self.counts[(bucket.max(0.0) as usize).min(HIST_BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Nearest-rank quantile, reported at the bucket's geometric midpoint.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let bucket = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .unwrap_or(HIST_BUCKETS - 1);
        HIST_MIN_S * HIST_RATIO.powf(bucket as f64 + 0.5)
    }
}

/// The measured window: checks each job, and keeps the latency histogram
/// and the throughput of each group of `group` consecutive completions.  Its
/// memory does not grow with the number of jobs, so the benchmark's own
/// bookkeeping does not move `peak_rss_mb` when throughput changes.
pub struct Window<'a> {
    checker: &'a Checker<'a>,
    cells: &'a [u64],
    group: u64,
    state: Mutex<WindowState>,
}

struct WindowState {
    start: Instant,
    latency: LatencyHistogram,
    jobs: u64,
    group_start: Instant,
    group_jobs: u64,
    group_cells: u64,
    /// (jobs/s, cells/s) of each completed group.
    rates: Vec<(f64, f64)>,
    last: Instant,
}

/// What a window measured.
pub struct WindowSummary {
    pub jobs: u64,
    pub seconds: f64,
    pub groups: usize,
    pub jobs_per_s: f64,
    pub cells_per_s: f64,
    pub p50: f64,
    pub p90: f64,
}

impl<'a> Window<'a> {
    pub fn new(checker: &'a Checker<'a>, cells: &'a [u64], group: u64) -> Self {
        let now = Instant::now();
        let state = WindowState {
            start: now,
            latency: LatencyHistogram::new(),
            jobs: 0,
            group_start: now,
            group_jobs: 0,
            group_cells: 0,
            rates: Vec::new(),
            last: now,
        };
        Window { checker, cells, group, state: Mutex::new(state) }
    }

    pub fn jobs(&self) -> u64 {
        self.state.lock().expect("window lock").jobs
    }

    /// Throughput is the median over the groups (the only, partial group
    /// when fewer jobs completed than one group holds).
    pub fn summary(&self) -> Option<WindowSummary> {
        let s = self.state.lock().expect("window lock");
        if s.jobs == 0 {
            return None;
        }
        let mut rates = s.rates.clone();
        if rates.is_empty() {
            let secs = (s.last - s.group_start).as_secs_f64();
            rates.push((s.group_jobs as f64 / secs, s.group_cells as f64 / secs));
        }
        let jobs: Vec<f64> = rates.iter().map(|r| r.0).collect();
        let cells: Vec<f64> = rates.iter().map(|r| r.1).collect();
        Some(WindowSummary {
            jobs: s.jobs,
            seconds: (s.last - s.start).as_secs_f64(),
            groups: rates.len(),
            jobs_per_s: median(&jobs),
            cells_per_s: median(&cells),
            p50: s.latency.quantile(0.5),
            p90: s.latency.quantile(0.9),
        })
    }
}

impl Sink for Window<'_> {
    fn record(&self, done: Done) {
        self.checker.check(&done);
        let mut s = self.state.lock().expect("window lock");
        // Completion times are read under the lock, so they are monotonic
        // across client threads.
        let now = Instant::now();
        s.latency.add(done.latency.as_secs_f64());
        s.jobs += 1;
        s.group_jobs += 1;
        s.group_cells += self.cells[done.idx];
        s.last = now;
        if s.group_jobs == self.group {
            let secs = (now - s.group_start).as_secs_f64();
            let rate = (s.group_jobs as f64 / secs, s.group_cells as f64 / secs);
            s.rates.push(rate);
            s.group_start = now;
            s.group_jobs = 0;
            s.group_cells = 0;
        }
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.  Non-finite values (which JSON cannot carry) are
/// written as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(line, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    line.push_str("}}");
    line
}

/// A human-readable table of the same metrics.
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
