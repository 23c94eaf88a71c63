//! The three workloads: what each submits, generated from the seed, and the
//! reference checksums every completed job is compared against.

use crate::rng::{Rng, Zipf};
use aohpc_kernel::{default_initial_value, lit, load, DenseField, StencilProgram};
use aohpc_runtime::Topology;
use aohpc_service::{
    JobSpec, KernelFamilyId, KernelService, ProgramFingerprint, ServiceConfig, SessionSpec,
};
use aohpc_workloads::{checksum, RegionSize, Scale};
use std::collections::HashSet;

/// Distinct generated stencil programs in `mix_cluster`: more than one
/// node's 64-entry plan cache holds.
pub const MIX_PROGRAMS: usize = 160;
/// Zipf exponent of the program draw.
const MIX_ZIPF_S: f64 = 1.0;
/// One round of the mix: this many stencil draws, then one particle and one
/// usgrid job, shuffled.  Fixed shares keep the per-job cost independent of
/// the seed; the seed only orders them.
const MIX_STENCILS_PER_ROUND: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SgridSerial,
    SgridMpi2,
    MixCluster,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sgrid_serial" => Some(Workload::SgridSerial),
            "sgrid_mpi2" => Some(Workload::SgridMpi2),
            "mix_cluster" => Some(Workload::MixCluster),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SgridSerial => "sgrid_serial",
            Workload::SgridMpi2 => "sgrid_mpi2",
            Workload::MixCluster => "mix_cluster",
        }
    }

    /// Client threads, one tenant each.
    pub fn tenants(self) -> usize {
        match self {
            Workload::MixCluster => 2,
            _ => 1,
        }
    }

    /// Jobs each client keeps in flight.
    pub fn in_flight(self) -> usize {
        match self {
            Workload::MixCluster => 2,
            _ => 1,
        }
    }

    /// Build the job table for a seed.
    pub fn table(self, seed: u64) -> JobTable {
        let mut rng = Rng::new(seed);
        match self {
            Workload::SgridSerial | Workload::SgridMpi2 => {
                // The seed picks the relaxation weights; the work per job is
                // the same for every seed.
                let alpha = 0.4 + 0.2 * rng.unit();
                let beta = (1.0 - alpha) / 4.0;
                let (block, topology) = match self {
                    Workload::SgridSerial => (128, Topology::serial()),
                    _ => (64, Topology::hybrid(2, 1)),
                };
                let spec = JobSpec::new(
                    StencilProgram::jacobi_5pt(),
                    vec![alpha, beta],
                    RegionSize::square(512),
                )
                .with_block(block)
                .with_steps(8)
                .with_topology(topology);
                JobTable::new(vec![spec], None)
            }
            Workload::MixCluster => {
                let mut specs = Vec::with_capacity(MIX_PROGRAMS + 2);
                let mut seen: HashSet<ProgramFingerprint> = HashSet::new();
                for rank in 0..MIX_PROGRAMS {
                    let program = loop {
                        let p = generate_program(rank, &mut rng);
                        if seen.insert(p.fingerprint()) {
                            break p;
                        }
                    };
                    specs.push(
                        JobSpec::new(program, vec![0.5, 0.125], RegionSize::square(64))
                            .with_block(16)
                            .with_steps(4),
                    );
                }
                // The stock particle and usgrid jobs at smoke scale: no longer
                // than a generated stencil job, so no family forms a slow
                // tail that the latency quantiles would straddle.
                specs.push(JobSpec::particle(Scale::Smoke));
                specs.push(JobSpec::usgrid(Scale::Smoke));
                JobTable::new(specs, Some(Zipf::new(MIX_PROGRAMS, MIX_ZIPF_S)))
            }
        }
    }
}

const NEIGHBOURS: [(i64, i64); 8] =
    [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)];

/// A generated stencil program for Zipf rank `rank`.  Even ranks are
/// weighted sums over 4, 6 or 8 neighbours (the shape the specializer
/// matches); odd ranks take a max over two neighbour pairs (generic tape).
/// The template is fixed by rank, so the hot programs have the same shapes
/// under every seed; the seed picks neighbours and weights.
fn generate_program(rank: usize, rng: &mut Rng) -> StencilProgram {
    let mut nbrs = NEIGHBOURS;
    rng.shuffle(&mut nbrs);
    let centre = 0.3 + 0.4 * rng.unit();
    let expr = if rank.is_multiple_of(2) {
        let k = [4, 6, 8][(rank / 2) % 3];
        let sum = nbrs[..k].iter().map(|&(dx, dy)| load(dx, dy)).reduce(|a, b| a + b);
        lit(centre) * load(0, 0) + lit((1.0 - centre) / k as f64) * sum.expect("k > 0")
    } else {
        let pair = |(ax, ay): (i64, i64), (bx, by): (i64, i64)| load(ax, ay) + load(bx, by);
        lit(centre) * load(0, 0)
            + lit((1.0 - centre) / 2.0) * pair(nbrs[0], nbrs[1]).max(pair(nbrs[2], nbrs[3]))
    };
    StencilProgram::new(format!("gen-{rank}"), expr, 2).expect("generated program is valid")
}

/// The distinct jobs of a workload and how they are drawn.
pub struct JobTable {
    pub specs: Vec<JobSpec>,
    /// Cell updates per job: region cells × steps, or particles × steps.
    pub cells: Vec<u64>,
    zipf: Option<Zipf>,
}

impl JobTable {
    fn new(specs: Vec<JobSpec>, zipf: Option<Zipf>) -> Self {
        let cells = specs
            .iter()
            .map(|s| {
                let per_step = match s.program.family() {
                    KernelFamilyId::Particle => s.particles.expect("particle count set"),
                    _ => s.region.cells(),
                };
                (per_step * s.steps) as u64
            })
            .collect();
        JobTable { specs, cells, zipf }
    }

    /// The job sequence of one tenant: spec indices, generated on demand.
    pub fn stream(&self, seed: u64, tenant: usize) -> JobStream<'_> {
        let rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (tenant as u64 + 1));
        JobStream { table: self, rng, pending: Vec::new() }
    }

    pub fn family(&self, idx: usize) -> KernelFamilyId {
        self.specs[idx].program.family()
    }
}

pub struct JobStream<'a> {
    table: &'a JobTable,
    rng: Rng,
    pending: Vec<usize>,
}

impl Iterator for JobStream<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let Some(zipf) = &self.table.zipf else { return Some(0) };
        if self.pending.is_empty() {
            let n = self.table.specs.len();
            self.pending =
                (0..MIX_STENCILS_PER_ROUND).map(|_| zipf.sample(&mut self.rng)).collect();
            self.pending.extend([n - 2, n - 1]);
            self.rng.shuffle(&mut self.pending);
        }
        self.pending.pop()
    }
}

/// What a job's checksum must match.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Bit-for-bit: a reference computed on the same topology.
    Exact(f64),
    /// Within a relative tolerance: a reference that sums in another order.
    Close(f64),
}

impl Expect {
    pub fn accepts(self, value: f64) -> bool {
        match self {
            Expect::Exact(want) => value.to_bits() == want.to_bits(),
            Expect::Close(want) => (value - want).abs() <= 1e-9 * want.abs().max(1.0),
        }
    }
}

/// Reference checksums for every spec of a table, from a second path:
/// the interpreted dense field for the `sgrid_*` stencils (plus the serial
/// service run for `sgrid_mpi2`), and a single-node service for the
/// `mix_cluster` specs.
pub fn references(workload: Workload, table: &JobTable) -> Vec<Vec<Expect>> {
    match workload {
        Workload::SgridSerial | Workload::SgridMpi2 => {
            let spec = &table.specs[0];
            let program = spec.program.as_stencil().expect("sgrid jobs are stencils");
            let mut field = DenseField::new(
                spec.region.nx,
                spec.region.ny,
                |x, y| default_initial_value(aohpc_env::GlobalAddress::new2d(x, y)),
                |_, _| 0.0,
            );
            field.run_interpreted(program, &spec.params, spec.steps);
            let mut expect = vec![Expect::Close(checksum(field.values().iter().copied()))];
            if workload == Workload::SgridMpi2 {
                let serial = spec.clone().with_topology(Topology::serial());
                expect.push(Expect::Close(single_node_checksums(&[serial])[0]));
            }
            vec![expect]
        }
        Workload::MixCluster => single_node_checksums(&table.specs)
            .into_iter()
            .map(|c| vec![Expect::Exact(c)])
            .collect(),
    }
}

/// Run each spec once on a fresh one-worker service.
fn single_node_checksums(specs: &[JobSpec]) -> Vec<f64> {
    let service =
        KernelService::new(ServiceConfig::default().with_workers(1).with_report_retention(false));
    let session = service.open_session(SessionSpec::tenant("reference"));
    specs
        .iter()
        .map(|spec| {
            let report = service
                .submit(session, spec.clone())
                .expect("reference job admitted")
                .wait()
                .expect("reference job ran");
            assert!(report.error.is_none(), "reference job failed: {:?}", report.error);
            report.checksum
        })
        .collect()
}
