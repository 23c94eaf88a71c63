//! End-to-end job benchmark for the aohpc kernel service, with a per-layer
//! split.
//!
//! ```text
//! cargo run --release --manifest-path jobbench/Cargo.toml -- \
//!     --workload sgrid_serial --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` submits real jobs through the public `KernelService` /
//! `ClusterService` front doors in a closed loop and reports the end-to-end
//! metrics.  `--trace 1` is the separate traced run: it reads the per-layer
//! numbers the program exposes (`JobReport`, `PlanCacheStats`,
//! `ClusterCommStats`, `Env`), times calls into each layer's public
//! functions, and weaves a benchmark-owned timing aspect into direct
//! `aohpc_runtime::execute` runs.  Every completed job's checksum is checked
//! against a reference from a second path.  The last line of standard output
//! is the JSON result; the lines before it are a readable report.  See
//! `README.md` next to this file for the metric → workload map.

mod drive;
mod heap;
mod rng;
mod stats;
mod trace;
mod workload;

use drive::{closed_loop, setup_once, Done, Front, Tally, Until};
use stats::{metric, peak_rss_mb, print_table, result_line, Metric, Window};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::{references, Expect, JobTable, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups per run; `setup_s` is their median.  A cluster set-up takes
/// milliseconds, so `mix_cluster` repeats it more often.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::MixCluster => 31,
        _ => 9,
    }
}
/// Throughput is the median over about this many groups of consecutive jobs.
const RATE_GROUPS: usize = 10;
/// Length of the warm-up, as a share of the measured window.
const WARM_UP_SHARE: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("jobbench: {err}");
            eprintln!(
                "usage: --workload sgrid_serial|sgrid_mpi2|mix_cluster --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# jobbench workload={} seed={} seconds={} trace={} available_parallelism={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let table = args.workload.table(args.seed);
    let checker = Checker::new(&table);
    let outcome = if args.trace {
        trace::run(args.workload, &table, &checker, args.seed, args.seconds)
    } else {
        measure(args.workload, &table, &checker, args.seed, args.seconds)
    };
    // The run recorded one checksum per spec it ran; the references for
    // them are computed after it, off the measured path.
    checker.verify(&references(args.workload, &table));
    let problems = checker.into_problems();

    print_table(&outcome.metrics);
    for problem in &problems {
        println!("  FAILED CHECK: {problem}");
    }
    let correct = problems.is_empty();
    println!("{}", result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one run produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// Checks completed jobs: all jobs of one spec must agree — bit-for-bit when
/// one task runs the job — and, once the run is over, the spec's checksum
/// must be accepted by every reference for it ([`Checker::verify`]).  With
/// several ranks the checksum sums the field in the order the ranks finish,
/// so repeated runs agree only to rounding.
pub struct Checker<'a> {
    table: &'a JobTable,
    /// The first checksum seen for each spec.
    first: Mutex<HashMap<usize, f64>>,
    problems: Mutex<Vec<String>>,
}

impl<'a> Checker<'a> {
    pub fn new(table: &'a JobTable) -> Self {
        Checker { table, first: Mutex::default(), problems: Mutex::default() }
    }

    pub fn check(&self, d: &Done) {
        self.check_value(d.idx, d.report.checksum, &|| {
            format!("tenant {} job {}", d.tenant, d.seq)
        });
    }

    pub fn check_all(&self, done: &[Done]) {
        done.iter().for_each(|d| self.check(d));
    }

    /// Check one checksum of spec `idx` against the spec's first one.
    pub fn check_value(&self, idx: usize, got: f64, what: &dyn Fn() -> String) {
        let seen = *self.first.lock().expect("checker lock").entry(idx).or_insert(got);
        let repeat = match self.table.specs[idx].topology.total_tasks() {
            1 => Expect::Exact(seen),
            _ => Expect::Close(seen),
        };
        if !repeat.accepts(got) {
            self.problem(format!("{} (spec {idx}): checksum {got:e}, earlier {seen:e}", what()));
        }
    }

    /// Check every spec seen against its references.
    pub fn verify(&self, refs: &[Vec<Expect>]) {
        let first = self.first.lock().expect("checker lock").clone();
        for (idx, got) in first {
            for want in &refs[idx] {
                if !want.accepts(got) {
                    self.problem(format!(
                        "spec {idx}: checksum {got:e} does not match reference {want:?}"
                    ));
                }
            }
        }
    }

    pub fn problem(&self, message: String) {
        let mut problems = self.problems.lock().expect("checker lock");
        if problems.len() < 20 {
            problems.push(message);
        }
    }

    pub fn into_problems(self) -> Vec<String> {
        self.problems.into_inner().expect("checker lock")
    }
}

/// The untraced run: a warm-up, the measured closed loop, then the set-up
/// repetitions.
fn measure(
    workload: Workload,
    table: &JobTable,
    checker: &Checker<'_>,
    seed: u64,
    seconds: f64,
) -> Outcome {
    let mut tally = Tally::default();
    heap::reset_peak();
    let (front, tenants) = Front::start(workload);
    let mut streams: Vec<_> = (0..tenants.len()).map(|t| (table.stream(seed, t), 0)).collect();
    let mut run = |sink: &Window, secs: f64| {
        let until = Until::Deadline(Instant::now() + Duration::from_secs_f64(secs));
        closed_loop(&front, &tenants, table, &mut streams, workload.in_flight(), until, sink)
    };
    // The warm-up fills the caches and sizes the rate groups of the window.
    let warm = Window::new(checker, &table.cells, u64::MAX);
    tally += run(&warm, seconds * WARM_UP_SHARE);
    let group = warm.jobs() as f64 / (seconds * WARM_UP_SHARE) * seconds / RATE_GROUPS as f64;
    let window = Window::new(checker, &table.cells, group.round().max(1.0) as u64);
    tally += run(&window, seconds);
    let (peak_heap_mb, peak_rss_mb) = (heap::peak_mb(), peak_rss_mb());
    drop(front);
    let summary = window.summary();

    let mut setups = Vec::new();
    for _ in 0..setup_reps(workload) {
        let (elapsed, done, setup_tally) = setup_once(workload, table);
        checker.check_all(&done);
        tally += setup_tally;
        setups.push(elapsed.as_secs_f64());
    }

    let Some(summary) = summary else {
        checker.problem("no job completed in the measured window".into());
        return Outcome {
            metrics: Vec::new(),
            attempted: tally.attempted.max(1),
            failed: tally.failed,
        };
    };
    println!(
        "  measured {} jobs in {:.2} s ({} rate groups); latency quantiles over {} samples",
        summary.jobs, summary.seconds, summary.groups, summary.jobs
    );
    println!("  resident set peak (VmHWM, whole process so far) {peak_rss_mb:.2} MB");
    println!(
        "  error_rate {} ratio ({} failed or refused of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let metrics = vec![
        metric("cells_per_s", summary.cells_per_s, "cells/s"),
        metric("jobs_per_s", summary.jobs_per_s, "jobs/s"),
        metric("latency_p50_s", summary.p50, "s"),
        metric("latency_p90_s", summary.p90, "s"),
        metric("setup_s", stats::median(&setups), "s"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
    ];
    Outcome { metrics, attempted: tally.attempted, failed: tally.failed }
}
