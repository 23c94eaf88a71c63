//! Golden runs of the particle and unstructured-grid sample apps, whose
//! `Initialize` and `Finalize` move whole blocks at once.  Checksums, access
//! counters and the modelled makespan are pinned to values captured with the
//! per-cell `SetD`-at-init / `GetDD`-at-finalize loops the bulk path replaced.

use aohpc_aop::Weaver;
use aohpc_dsl::{
    new_field_sink, DslSystem, FieldSink, ParticleApp, ParticleSystem, UsGridJacobiApp,
    UsGridSystem,
};
use aohpc_env::AccessCounters;
use aohpc_runtime::{execute, CostModel, MpiAspect, RunConfig, RunReport, Topology};
use aohpc_workloads::{checksum, GridLayout, ParticleSize, RegionSize};
use std::sync::Arc;

/// Counters, makespan bits and the checksum of the sink sorted by address
/// (independent of the order in which ranks append).
fn digest(report: &RunReport, sink: &FieldSink) -> (AccessCounters, u64, u64) {
    let mut field: Vec<_> = sink.lock().iter().map(|(a, v)| ((a.y, a.x), *v)).collect();
    field.sort_by_key(|(k, _)| *k);
    (
        report.total_counters(),
        CostModel::default().makespan_seconds(report).to_bits(),
        checksum(field.into_iter().map(|(_, v)| v)).to_bits(),
    )
}

fn usgrid(layout: GridLayout, topology: Topology) -> (AccessCounters, u64, u64) {
    let system = UsGridSystem::with_block_size(RegionSize::square(24), 8, layout);
    let sink = new_field_sink();
    let app = UsGridJacobiApp::new(system.clone(), 3).with_sink(sink.clone());
    let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<aohpc_dsl::UsCell>::new())).weave();
    let config = RunConfig::serial().with_topology(topology).with_mmat(true);
    let report = execute(&config, woven, Arc::new(system).env_factory(), app.factory());
    digest(&report, &sink)
}

#[test]
fn usgrid_casec_serial_golden() {
    let got = usgrid(GridLayout::CaseC, Topology::serial());
    let counters = AccessCounters {
        reads: 11520,
        writes: 2304,
        in_block_hits: 8064,
        skip_search_hits: 2304,
        env_searches: 242,
        search_nodes_visited: 1556,
        mmat_hits: 8398,
        mmat_misses: 818,
        out_of_block_reads: 1152,
        static_reads: 384,
        ..AccessCounters::default()
    };
    assert_eq!(got, (counters, 4549973148634282448, 4643448864358059409));
}

#[test]
fn usgrid_caser_two_ranks_golden() {
    let got = usgrid(GridLayout::CaseR { seed: 11 }, Topology::hybrid(2, 1));
    let counters = AccessCounters {
        reads: 11520,
        writes: 2304,
        skip_search_hits: 2304,
        env_searches: 1861,
        search_nodes_visited: 10458,
        mmat_hits: 7355,
        mmat_misses: 1861,
        out_of_block_reads: 9216,
        static_reads: 384,
        missing_accesses: 1240,
        ..AccessCounters::default()
    };
    assert_eq!(got, (counters, 4553731127176844787, 4643448864358059408));
}

#[test]
fn particle_two_ranks_golden() {
    let system = ParticleSystem::paper(ParticleSize::new(600));
    let sink = new_field_sink();
    let count_sink = new_field_sink();
    let app = ParticleApp::new(system.clone(), 2)
        .with_sink(sink.clone())
        .with_count_sink(count_sink.clone());
    let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<aohpc_dsl::Bucket>::new())).weave();
    let config = RunConfig::serial().with_topology(Topology::hybrid(2, 1));
    let report = execute(&config, woven, Arc::new(system).env_factory(), app.factory());
    let got = digest(&report, &sink);
    let counts = digest(&report, &count_sink).2;
    let counters = AccessCounters {
        reads: 7680,
        writes: 768,
        skip_search_hits: 6576,
        env_searches: 1104,
        search_nodes_visited: 5004,
        out_of_block_reads: 1104,
        arithmetic_reads: 564,
        missing_accesses: 92,
        ..AccessCounters::default()
    };
    assert_eq!(got, (counters, 4547213941010540117, 4604558142117103243));
    assert_eq!(counts, 4648531092878812774);
}
