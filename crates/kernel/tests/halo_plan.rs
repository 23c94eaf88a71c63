//! Halo plans against the per-cell `GetD` path they replace.
//!
//! A block's halo reads go through [`TaskCtx::halo_reads`]: resolved once,
//! replayed by call index on later executions.  These tests drive the halo
//! closure by hand with call sequences that change between executions
//! (swapped, shortened, lengthened) and check every read against a second
//! context issuing one `TaskCtx::get(.., false)` per call on the same Env:
//! same values, same thirteen counters, same missing pages.

use aohpc_aop::WovenProgram;
use aohpc_dsl::{DslSystem, SGridSystem};
use aohpc_env::{BlockId, Env, LocalAddress};
use aohpc_kernel::{IrStencilApp, StencilProgram};
use aohpc_runtime::{HpcApp, RankShared, TaskCtx, Topology};
use aohpc_workloads::RegionSize;
use std::sync::Arc;

const N: usize = 32;
const BLOCK: usize = 8;

fn shared_env() -> Arc<Env<f64>> {
    let env = SGridSystem::with_block_size(RegionSize::square(N), BLOCK).build_env();
    for id in env.data_block_ids() {
        env.block(id).meta.set_dm_tid(Some(0));
        env.block(id).meta.set_ch_tid(Some(0));
    }
    Arc::new(env)
}

fn serial_ctx(env: &Arc<Env<f64>>, mmat: bool) -> TaskCtx<f64> {
    let topology = Topology::serial();
    let shared = Arc::new(RankShared::new(topology.clone(), 0, None, false));
    TaskCtx::new(topology.slot(0, 0), env.clone(), shared, WovenProgram::unwoven(), false, mmat)
}

/// The 5-point halo ring of a block, in row order.
fn ring() -> Vec<LocalAddress> {
    let b = BLOCK as i64;
    let mut calls = Vec::new();
    for i in 0..b {
        calls.push(LocalAddress::new2d(i, -1));
    }
    for j in 0..b {
        calls.push(LocalAddress::new2d(-1, j));
        calls.push(LocalAddress::new2d(b, j));
    }
    for i in 0..b {
        calls.push(LocalAddress::new2d(i, b));
    }
    calls
}

/// One execution of `bid`'s halo closure on both paths; panics on the first
/// diverging read.
fn execute_both(
    plan: &mut TaskCtx<f64>,
    cell: &mut TaskCtx<f64>,
    bid: BlockId,
    calls: &[LocalAddress],
) {
    let mut halo = plan.halo_reads(bid);
    for &local in calls {
        let got = halo.get(local);
        let want = cell.get(bid, local, false);
        assert_eq!(got.to_bits(), want.to_bits(), "block {bid} read {local:?}");
    }
    assert_eq!(plan.state.counters, cell.state.counters, "block {bid}");
    assert_eq!(plan.state.missing(), cell.state.missing(), "block {bid}");
}

/// Call sequences that diverge from the recorded plan at the front, the
/// middle and the end, then return to it.
fn sequences() -> Vec<Vec<LocalAddress>> {
    let a = ring();
    let mut swapped = a.clone();
    swapped.swap(3, 17);
    let shortened = a[..a.len() / 2].to_vec();
    let mut lengthened = a.clone();
    lengthened.extend([LocalAddress::new2d(-2, 0), LocalAddress::new2d(0, 1)]);
    let mut reversed = a.clone();
    reversed.reverse();
    vec![a.clone(), a.clone(), swapped, a.clone(), shortened, lengthened, reversed, a]
}

#[test]
fn call_order_mismatch_re_resolves_with_per_cell_counters() {
    let env = shared_env();
    let (mut plan, mut cell) = (serial_ctx(&env, false), serial_ctx(&env, false));
    IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], 1).initialize(&mut plan);
    let ids = env.data_block_ids();
    // A corner block (boundary halos), an interior block (neighbour halos).
    let (corner, interior) = (ids[0], ids[ids.len() / 2 + 1]);
    for calls in sequences() {
        for bid in [corner, interior] {
            execute_both(&mut plan, &mut cell, bid, &calls);
        }
    }
    assert!(plan.state.counters.env_searches > 0);
    assert!(plan.state.counters.arithmetic_reads > 0, "the corner block reads the boundary");
}

#[test]
fn replayed_reads_see_validity_changes() {
    let env = shared_env();
    let (mut plan, mut cell) = (serial_ctx(&env, false), serial_ctx(&env, false));
    IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], 1).initialize(&mut plan);
    let ids = env.data_block_ids();
    let bid = ids[ids.len() / 2 + 1];
    let calls = ring();
    execute_both(&mut plan, &mut cell, bid, &calls);
    // Invalidate every other block: the recorded resolutions still point at
    // them, and the replay must record their pages as missing, in the
    // per-cell order.
    for &other in ids.iter().filter(|&&id| id != bid) {
        env.set_block_valid(other, false).unwrap();
    }
    execute_both(&mut plan, &mut cell, bid, &calls);
    assert!(plan.state.has_missing());
    assert_eq!(plan.state.take_missing(), cell.state.take_missing());
    for &other in &ids {
        env.set_block_valid(other, true).unwrap();
    }
    execute_both(&mut plan, &mut cell, bid, &calls);
    assert!(!plan.state.has_missing());
}

#[test]
fn mmat_bypasses_the_plan() {
    let env = shared_env();
    let (mut plan, mut cell) = (serial_ctx(&env, true), serial_ctx(&env, true));
    IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], 1).initialize(&mut plan);
    let bid = env.data_block_ids()[5];
    for calls in sequences() {
        execute_both(&mut plan, &mut cell, bid, &calls);
    }
    assert!(plan.state.counters.mmat_hits > 0, "MMAT's own replay is what gets counted");
}
