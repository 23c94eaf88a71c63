//! Golden counts: a jacobi-5pt job's access accounting, modelled makespan and
//! checksum are pinned to values captured before the per-block bulk access
//! path existed.  Gather, scatter, initialize and finalize now move whole
//! blocks at once; these numbers prove the bulk path adds exactly what the
//! per-cell `GetDD` / `SetD` loops added, so `CostModel` output (and with it
//! every modelled figure) is unchanged.

use aohpc_aop::{Weaver, WovenProgram};
use aohpc_dsl::{DslSystem, SGridSystem};
use aohpc_env::AccessCounters;
use aohpc_kernel::{new_stencil_field_sink, IrStencilApp, StencilProgram};
use aohpc_runtime::{execute, CostModel, MpiAspect, OmpAspect, RunConfig, Topology};
use aohpc_workloads::{checksum, RegionSize};
use std::sync::Arc;

/// Everything the golden pins about one run.
#[derive(Debug, PartialEq)]
struct Golden {
    counters: AccessCounters,
    summary_reads: u64,
    summary_writes: u64,
    dispatches: u64,
    pages_sent: u64,
    bytes_sent: u64,
    makespan_bits: u64,
    /// Checksum in sink order (what a `JobReport` carries).
    checksum: f64,
    /// Checksum of the field sorted by address: independent of the order in
    /// which ranks append to the sink, so bit-exact on every topology.
    sorted_checksum_bits: u64,
}

/// jacobi-5pt on a 64² region with 16² blocks, 4 steps.
fn run(topology: Topology, woven: WovenProgram) -> Golden {
    let region = RegionSize::square(64);
    let system = Arc::new(SGridSystem::with_block_size(region, 16));
    let sink = new_stencil_field_sink();
    let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], 4)
        .with_field_sink(sink.clone());
    let config = RunConfig::serial().with_topology(topology);
    let report = execute(&config, woven, system.env_factory(), app.factory());
    let summary = report.summary();
    let field = sink.lock();
    assert_eq!(field.len(), region.cells(), "finalize reports every cell once");
    let mut sorted: Vec<_> = field.iter().map(|(a, v)| ((a.y, a.x), *v)).collect();
    sorted.sort_by_key(|(k, _)| *k);
    Golden {
        counters: report.total_counters(),
        summary_reads: summary.reads,
        summary_writes: summary.writes,
        dispatches: summary.dispatches,
        pages_sent: summary.pages_sent,
        bytes_sent: summary.bytes_sent,
        makespan_bits: CostModel::default().makespan_seconds(&report).to_bits(),
        checksum: checksum(field.iter().map(|(_, v)| *v)),
        sorted_checksum_bits: checksum(sorted.into_iter().map(|(_, v)| v)).to_bits(),
    }
}

#[test]
fn serial_jacobi_64_matches_the_per_cell_golden() {
    let got = run(Topology::serial(), WovenProgram::unwoven());
    let want = Golden {
        counters: AccessCounters {
            reads: 25600,
            writes: 20480,
            skip_search_hits: 20480,
            env_searches: 5120,
            search_nodes_visited: 57600,
            out_of_block_reads: 5120,
            arithmetic_reads: 1280,
            missing_accesses: 0,
            ..AccessCounters::default()
        },
        summary_reads: 25600,
        summary_writes: 20480,
        dispatches: 20,
        pages_sent: 0,
        bytes_sent: 0,
        makespan_bits: 4565228124062051319,
        checksum: f64::from_bits(4656400645762052650),
        sorted_checksum_bits: 4656400645762052654,
    };
    assert_eq!(got, want);
}

#[test]
fn hybrid_jacobi_64_matches_the_per_cell_golden() {
    let woven = Weaver::new()
        .with_aspect(Box::new(MpiAspect::<f64>::new()))
        .with_aspect(Box::new(OmpAspect::<f64>::new()))
        .weave();
    let mut got = run(Topology::hybrid(2, 2), woven);
    // Ranks append to the sink in finish order, so the sink-order checksum
    // is only reproducible to summation-order tolerance across runs.
    let want_checksum = f64::from_bits(4656400645762052650);
    assert!(
        (got.checksum - want_checksum).abs() <= 1e-12 * want_checksum.abs(),
        "{} vs {want_checksum}",
        got.checksum
    );
    got.checksum = want_checksum;
    let want = Golden {
        counters: AccessCounters {
            reads: 25600,
            writes: 20480,
            skip_search_hits: 20480,
            env_searches: 5120,
            search_nodes_visited: 57600,
            out_of_block_reads: 5120,
            arithmetic_reads: 1280,
            missing_accesses: 128,
            ..AccessCounters::default()
        },
        summary_reads: 25600,
        summary_writes: 20480,
        dispatches: 71,
        pages_sent: 40,
        bytes_sent: 5120,
        makespan_bits: 4558238895768375940,
        checksum: want_checksum,
        sorted_checksum_bits: 4656400645762052654,
    };
    assert_eq!(got, want);
}
