//! Closed-loop clients over the public service front doors.
//!
//! Each tenant is one client thread that keeps a fixed number of jobs in
//! flight: it submits until that many are outstanding, then waits for the
//! oldest before submitting the next.  Latency is the time from the submit
//! call until `JobHandle::wait` returns.

use crate::workload::{JobStream, JobTable, Workload};
use aohpc_service::{
    ClusterService, ClusterSessionId, JobHandle, JobReport, KernelService, PlanCacheStats,
    ServiceConfig, SessionId, SessionSpec, SubmitError,
};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Plan-cache capacity of every node: the service default, named here because
/// `mix_cluster` is sized against it.
pub const NODE_CACHE_ENTRIES: usize = 64;

/// The service under test: one node, or a two-node cluster.
pub enum Front {
    Single(KernelService),
    Cluster(Box<ClusterService>),
}

#[derive(Debug, Clone, Copy)]
pub enum Tenant {
    Single(SessionId),
    Cluster(ClusterSessionId),
}

impl Front {
    /// Construct the workload's service and open one session per tenant.
    /// `mix_cluster` homes tenant `n` on node `n`.
    pub fn start(workload: Workload) -> (Front, Vec<Tenant>) {
        let config = ServiceConfig::default()
            .with_workers(1)
            .with_cache(8, NODE_CACHE_ENTRIES)
            .with_report_retention(false);
        match workload {
            Workload::MixCluster => {
                let cluster = ClusterService::new(workload.tenants(), config);
                let tenants = (0..workload.tenants())
                    .map(|node| {
                        let spec = SessionSpec::tenant(format!("tenant-{node}"));
                        Tenant::Cluster(cluster.open_session_on(node, spec))
                    })
                    .collect();
                (Front::Cluster(Box::new(cluster)), tenants)
            }
            _ => {
                let service = KernelService::new(config);
                let tenants = vec![Tenant::Single(service.open_session(SessionSpec::tenant("t0")))];
                (Front::Single(service), tenants)
            }
        }
    }

    pub fn submit(
        &self,
        tenant: Tenant,
        spec: aohpc_service::JobSpec,
    ) -> Result<JobHandle, SubmitError> {
        match (self, tenant) {
            (Front::Single(s), Tenant::Single(id)) => s.submit(id, spec),
            (Front::Cluster(c), Tenant::Cluster(id)) => c.submit(id, spec),
            _ => unreachable!("tenant opened on another front"),
        }
    }

    /// Plan-cache counters summed over nodes.
    pub fn cache_stats(&self) -> PlanCacheStats {
        match self {
            Front::Single(s) => s.cache_stats(),
            Front::Cluster(c) => c.cache_stats().total,
        }
    }

    /// Control-plane frames and bytes sent over the cluster fabric.
    pub fn control_traffic(&self) -> (u64, u64) {
        match self {
            Front::Single(_) => (0, 0),
            Front::Cluster(c) => {
                let total = c.comm_stats().total;
                (total.control_sent, total.bytes_sent)
            }
        }
    }
}

/// One completed job.
#[derive(Debug, Clone)]
pub struct Done {
    pub tenant: usize,
    /// Position in the tenant's job sequence.
    pub seq: usize,
    /// Index into the job table.
    pub idx: usize,
    /// Duration of the submit call (admission).
    pub admit: Duration,
    pub latency: Duration,
    pub done_at: Instant,
    pub report: JobReport,
}

/// Where a client hands its completed jobs.
pub trait Sink: Sync {
    fn record(&self, done: Done);
}

/// A sink that keeps every completed job.
#[derive(Default)]
pub struct KeepAll(Mutex<Vec<Done>>);

impl Sink for KeepAll {
    fn record(&self, done: Done) {
        self.0.lock().expect("sink lock").push(done);
    }
}

impl KeepAll {
    /// The kept jobs, in completion order.
    pub fn into_done(self) -> Vec<Done> {
        let mut done = self.0.into_inner().expect("sink lock");
        done.sort_by_key(|d| d.done_at);
        done
    }
}

/// Jobs a loop submitted, and how many of them were refused or failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// When a client stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    /// A fixed number of jobs per tenant.
    Jobs(usize),
}

/// Run every tenant's client until `until`, continuing each tenant's
/// sequence from where `streams` left off, and hand each completed job to
/// `sink`.
pub fn closed_loop(
    front: &Front,
    tenants: &[Tenant],
    table: &JobTable,
    streams: &mut [(JobStream<'_>, usize)],
    in_flight: usize,
    until: Until,
    sink: &dyn Sink,
) -> Tally {
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = tenants
            .iter()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(t, (&tenant, stream))| {
                scope.spawn(move || client(front, t, tenant, table, stream, in_flight, until, sink))
            })
            .collect();
        for client in clients {
            tally += client.join().expect("client thread");
        }
    });
    tally
}

#[allow(clippy::too_many_arguments)]
fn client(
    front: &Front,
    t: usize,
    tenant: Tenant,
    table: &JobTable,
    (stream, next_seq): &mut (JobStream<'_>, usize),
    in_flight: usize,
    until: Until,
    sink: &dyn Sink,
) -> Tally {
    let mut tally = Tally::default();
    let first_seq = *next_seq;
    let mut queue: VecDeque<(usize, usize, Instant, Duration, JobHandle)> = VecDeque::new();
    loop {
        while queue.len() < in_flight {
            let more = match until {
                Until::Deadline(at) => Instant::now() < at,
                Until::Jobs(n) => *next_seq - first_seq < n,
            };
            if !more {
                break;
            }
            let idx = stream.next().expect("job streams are endless");
            let spec = table.specs[idx].clone();
            let seq = *next_seq;
            *next_seq += 1;
            tally.attempted += 1;
            let start = Instant::now();
            match front.submit(tenant, spec) {
                Ok(handle) => queue.push_back((seq, idx, start, start.elapsed(), handle)),
                Err(err) => {
                    tally.failed += 1;
                    eprintln!("jobbench: submit refused: {err}");
                }
            }
        }
        let Some((seq, idx, start, admit, handle)) = queue.pop_front() else { break };
        let outcome = handle.wait();
        let done_at = Instant::now();
        match outcome {
            Ok(report) if report.error.is_none() => sink.record(Done {
                tenant: t,
                seq,
                idx,
                admit,
                latency: done_at - start,
                done_at,
                report,
            }),
            Ok(report) => {
                tally.failed += 1;
                eprintln!("jobbench: job failed: {:?}", report.error);
            }
            Err(err) => {
                tally.failed += 1;
                eprintln!("jobbench: job did not run: {err}");
            }
        }
    }
    tally
}

/// One set-up: construct the service, submit the set-up job (the table's
/// first spec) on every tenant and wait for all of them.  Returns the elapsed
/// time, the jobs and their tally (shutdown is not timed).
///
/// The set-up job is the same for every seed in kind: the `sgrid_*` job, or
/// the most popular generated stencil of `mix_cluster`.  There both nodes
/// run it, so one node compiles its plan and the other fetches it.  (The
/// first job of a seeded sequence would be a particle or usgrid job for some
/// seeds, which sets up four times faster.)
pub fn setup_once(workload: Workload, table: &JobTable) -> (Duration, Vec<Done>, Tally) {
    let spec = &table.specs[0];
    let start = Instant::now();
    let (front, tenants) = Front::start(workload);
    let submitted: Vec<_> = tenants
        .iter()
        .map(|&tenant| {
            let at = Instant::now();
            (front.submit(tenant, spec.clone()), at, at.elapsed())
        })
        .collect();
    let mut done = Vec::new();
    let mut tally = Tally { attempted: tenants.len() as u64, failed: 0 };
    for (t, (handle, at, admit)) in submitted.into_iter().enumerate() {
        match handle.map(|h| h.wait()) {
            Ok(Ok(report)) if report.error.is_none() => {
                let done_at = Instant::now();
                let latency = done_at - at;
                done.push(Done { tenant: t, seq: 0, idx: 0, admit, latency, done_at, report });
            }
            outcome => {
                tally.failed += 1;
                eprintln!("jobbench: set-up job did not complete: {outcome:?}");
            }
        }
    }
    let elapsed = start.elapsed();
    drop(front);
    (elapsed, done, tally)
}
