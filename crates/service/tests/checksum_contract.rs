//! The `JobReport::checksum` contract.  The checksum is accumulated in sink
//! order: a single-rank run appends its field in one fixed order, so repeated
//! runs of a job agree bit-for-bit; ranks of a multi-rank run append in the
//! order they finish, so those runs agree only to a relative tolerance.

use aohpc_runtime::Topology;
use aohpc_service::{JobSpec, KernelService, ServiceConfig, SessionSpec};
use aohpc_workloads::Scale;

/// The relative tolerance the checksum docs state for multi-rank runs and
/// for comparisons across topologies.
const MULTI_RANK_RTOL: f64 = 1e-9;

fn checksums(topology: Topology, runs: usize) -> Vec<f64> {
    let service = KernelService::new(ServiceConfig::default().with_workers(2));
    let session = service.open_session(SessionSpec::tenant("checksum"));
    let spec = JobSpec::jacobi(Scale::Smoke).with_topology(topology);
    let handles: Vec<_> =
        (0..runs).map(|_| service.submit(session, spec.clone()).unwrap()).collect();
    handles
        .into_iter()
        .map(|h| {
            let report = h.wait().unwrap();
            assert!(report.error.is_none(), "{:?}", report.error);
            report.checksum
        })
        .collect()
}

#[test]
fn single_rank_runs_repeat_bit_for_bit() {
    for topology in [Topology::serial(), Topology::hybrid(1, 2)] {
        let runs = checksums(topology.clone(), 4);
        for cks in &runs {
            assert_eq!(cks.to_bits(), runs[0].to_bits(), "{topology:?}: {runs:?}");
        }
    }
}

#[test]
fn multi_rank_runs_agree_within_the_stated_tolerance() {
    let serial = checksums(Topology::serial(), 1)[0];
    for cks in checksums(Topology::hybrid(2, 2), 6) {
        assert!(
            (cks - serial).abs() <= MULTI_RANK_RTOL * serial.abs(),
            "multi-rank {cks} vs serial {serial}"
        );
    }
}
