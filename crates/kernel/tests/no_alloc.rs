//! Regression test: once the scratch is warm, `execute_block` performs
//! **zero** heap allocations per block on every backend — interior *and*
//! boundary path (the boundary's operand/value buffers used to be allocated
//! per `execute_block` call; they now live in [`ExecScratch`]).
//!
//! Counted with `aohpc-testalloc`'s thread-scoped tracking allocator, so
//! concurrent libtest harness threads cannot contribute stray counts.

use aohpc_aop::WovenProgram;
use aohpc_dsl::{DslSystem, SGridSystem};
use aohpc_env::{BlockId, BlockKind, Extent, LocalAddress, Resolution};
use aohpc_kernel::{
    lit, load, param, CompiledKernel, ExecScratch, ExecStats, IrStencilApp, KernelScratch,
    OptLevel, Processor, ScratchPool, StencilProgram,
};
use aohpc_runtime::{HpcApp, RankShared, TaskCtx, Topology};
use aohpc_workloads::RegionSize;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: aohpc_testalloc::CountingAlloc = aohpc_testalloc::CountingAlloc;

#[test]
fn warm_execute_block_is_allocation_free() {
    // A kernel exercising every tape form: loads (fused and not), a constant,
    // params, unary ops, mul-add — plus a 5-point halo so the boundary path
    // runs too.
    let expr = param(0) * load(0, 0)
        + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1))
        + (-load(0, 0)).abs() * lit(0.125);
    let program = StencilProgram::new("alloc-probe", expr, 2).unwrap();
    // Wide enough that the lane backends hit the 32-cell super-group path.
    let n = 40usize;
    let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), OptLevel::Full);
    let cells: Vec<f64> = (0..n * n).map(|k| (k % 13) as f64 * 0.25 + 0.5).collect();
    let params = [0.5, 0.125];
    let mut out = vec![0.0f64; n * n];
    let mut scratch = ExecScratch::new();
    let mut checksum = 0.0f64;

    for proc in [Processor::Scalar, Processor::Simd, Processor::Accelerator] {
        // Warm-up: first call may grow the scratch buffers.
        let mut stats = ExecStats::default();
        compiled.execute_block(
            &cells,
            &params,
            &mut |x, y| (x + y) as f64 * 0.1,
            &mut out,
            proc,
            &mut stats,
            &mut scratch,
        );

        // Steady state: many blocks, zero allocations.
        let (_, allocs) = aohpc_testalloc::count_in(|| {
            for _ in 0..32 {
                let mut stats = ExecStats::default();
                compiled.execute_block(
                    &cells,
                    &params,
                    &mut |x, y| (x + y) as f64 * 0.1,
                    &mut out,
                    proc,
                    &mut stats,
                    &mut scratch,
                );
                checksum += out[n + 1];
                assert!(stats.boundary_cells > 0, "the probe must exercise the boundary path");
            }
        });
        assert_eq!(
            allocs, 0,
            "{proc:?}: warm execute_block must not touch the heap ({allocs} allocs over 32 blocks)"
        );
    }
    assert!(checksum.is_finite());
}

/// Regression: the *cold* path is allocation-free too.  The first
/// `execute_block` on a fresh scratch used to pay two heap allocations
/// (lazy `ExecScratch` sizing); plans now expose
/// [`CompiledKernel::prepare_scratch`], sizing the scratch from the tape's
/// recorded statistics at plan-resolve time, so even block zero never
/// touches the heap — for generic tapes and specialized ones alike.
#[test]
fn cold_execute_block_is_allocation_free_after_prepare() {
    let generic = StencilProgram::new(
        "cold-probe",
        param(0) * load(0, 0)
            + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1))
            + (-load(0, 0)).abs() * lit(0.125),
        2,
    )
    .unwrap();
    // jacobi qualifies for the weighted-sum specialization: the fast path
    // must honour the same zero-alloc contract as the interpreter.
    let specialized = StencilProgram::jacobi_5pt();
    let n = 40usize;
    for program in [generic, specialized] {
        let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), OptLevel::Full);
        let cells: Vec<f64> = (0..n * n).map(|k| (k % 13) as f64 * 0.25 + 0.5).collect();
        let params = [0.5, 0.125];
        let mut out = vec![0.0f64; n * n];
        for proc in [Processor::Scalar, Processor::Simd, Processor::Accelerator] {
            let mut scratch = ExecScratch::new();
            compiled.prepare_scratch(&mut scratch, proc);
            let (_, allocs) = aohpc_testalloc::count_in(|| {
                let mut stats = ExecStats::default();
                compiled.execute_block(
                    &cells,
                    &params,
                    &mut |x, y| (x + y) as f64 * 0.1,
                    &mut out,
                    proc,
                    &mut stats,
                    &mut scratch,
                );
                assert!(stats.boundary_cells > 0);
            });
            assert_eq!(
                allocs,
                0,
                "{} {proc:?}: cold execute_block after prepare_scratch must not allocate",
                program.name()
            );
        }
    }
}

/// Regression: `ExecScratch` recycled through a [`ScratchPool`] across jobs
/// stays zero-alloc warm under worker churn — acquire/release cycles, a
/// second transient "worker" forcing a cold scratch, and a capacity
/// overflow dropping one.  Only a *cold* scratch (fresh from an empty pool)
/// may allocate; every pooled check-out must run its whole job without
/// touching the heap.
#[test]
fn pooled_scratch_stays_warm_across_job_churn() {
    let expr =
        param(0) * load(0, 0) + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1));
    let program = StencilProgram::new("churn-probe", expr, 2).unwrap();
    let n = 24usize;
    let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), OptLevel::Full);
    let cells: Vec<f64> = (0..n * n).map(|k| (k % 7) as f64 * 0.5).collect();
    let params = [0.5, 0.125];
    let mut out = vec![0.0f64; n * n];

    // One "job": a few blocks on every backend, like a service worker's
    // steady-state unit of work.
    let mut run_job = |scratch: &mut ExecScratch| {
        for proc in [Processor::Scalar, Processor::Simd, Processor::Accelerator] {
            for _ in 0..4 {
                let mut stats = ExecStats::default();
                compiled.execute_block(
                    &cells,
                    &params,
                    &mut |x, y| (x + y) as f64 * 0.1,
                    &mut out,
                    proc,
                    &mut stats,
                    scratch,
                );
            }
        }
    };

    // Pool of one idle slot, as a single service worker would see.  Job 1 is
    // cold: the pool is empty, the scratch grows, the release's first push
    // grows the free list.  All of that may allocate.
    let pool = ScratchPool::new(1);
    let mut scratch = pool.acquire();
    run_job(&mut scratch);
    pool.release(scratch);
    assert_eq!(pool.stats().created, 1);

    // Jobs 2..6: every check-out is warm, and the whole
    // acquire → execute → release cycle performs zero allocations.
    let (_, allocs) = aohpc_testalloc::count_in(|| {
        for _ in 0..5 {
            let mut scratch = pool.acquire();
            run_job(&mut scratch);
            pool.release(scratch);
        }
    });
    assert_eq!(allocs, 0, "recycled scratches must stay warm ({allocs} allocs over 5 jobs)");
    let stats = pool.stats();
    assert_eq!(stats.reused, 5, "every warm job reused the pooled scratch: {stats:?}");
    assert_eq!(stats.idle, 1);

    // Churn: a second transient worker checks out while the pool is empty —
    // a cold scratch (allocations expected) — and its release overflows the
    // one-slot pool, dropping one scratch silently.
    let held = pool.acquire(); // pool now empty
    let mut transient = pool.acquire(); // cold: created, may allocate
    run_job(&mut transient);
    pool.release(held);
    pool.release(transient); // over capacity: dropped
    let stats = pool.stats();
    assert_eq!(stats.created, 2, "the transient worker forced a second scratch: {stats:?}");
    assert_eq!(stats.idle, 1, "the overflow release was dropped, not pooled: {stats:?}");

    // After the churn the surviving pooled scratch is still warm: the next
    // job is again allocation-free.
    let (_, allocs) = aohpc_testalloc::count_in(|| {
        let mut scratch = pool.acquire();
        run_job(&mut scratch);
        pool.release(scratch);
    });
    assert_eq!(allocs, 0, "churn must not cool the surviving scratch");
    assert_eq!(pool.stats().reused, 7, "jobs 2..6, the held check-out, and the final job");
}

/// Regression: the whole per-block unit of an `IrStencilApp` step — bulk
/// gather through the task context, compiled execute with halo reads back
/// through the platform, bulk scatter — performs zero heap allocations once
/// the kernel scratch is warm, on every backend.
#[test]
fn warm_ir_app_blocks_through_the_task_ctx_are_allocation_free() {
    let (n, block) = (64usize, 16usize);
    let env = SGridSystem::with_block_size(RegionSize::square(n), block).build_env();
    for id in env.data_block_ids() {
        env.block(id).meta.set_dm_tid(Some(0));
        env.block(id).meta.set_ch_tid(Some(0));
    }
    let topology = Topology::serial();
    let shared = Arc::new(RankShared::new(topology.clone(), 0, None, false));
    let mut ctx = TaskCtx::new(
        topology.slot(0, 0),
        Arc::new(env),
        shared,
        WovenProgram::unwoven(),
        false,
        false,
    );
    let program = StencilProgram::jacobi_5pt();
    let params = [0.5, 0.125];
    IrStencilApp::new(program.clone(), params.to_vec(), 1).initialize(&mut ctx);
    let blocks = ctx.get_blocks();
    assert_eq!(blocks.len(), (n / block).pow(2));
    let compiled = CompiledKernel::compile(&program, Extent::new2d(block, block), OptLevel::Full);
    let mut scratch = KernelScratch::default();

    for proc in [Processor::Scalar, Processor::Simd, Processor::Accelerator] {
        compiled.prepare_scratch(&mut scratch.exec, proc);
        // Warm-up step: sizes the gather/result staging vectors.
        for &bid in &blocks {
            scratch.step_block(&mut ctx, bid, &compiled, &params, proc);
        }
        assert!(ctx.refresh());

        for _ in 0..3 {
            let before = ctx.state.counters;
            let (_, allocs) = aohpc_testalloc::count_in(|| {
                for &bid in &blocks {
                    let stats = scratch.step_block(&mut ctx, bid, &compiled, &params, proc);
                    assert!(stats.boundary_cells > 0);
                }
            });
            assert_eq!(
                allocs, 0,
                "{proc:?}: warm IrStencilApp blocks must not touch the heap ({allocs} allocs over {} blocks)",
                blocks.len()
            );
            // The bulk gather and scatter count one access per cell.
            let cells = (n * n) as u64;
            assert_eq!(ctx.state.counters.skip_search_hits - before.skip_search_hits, cells);
            assert_eq!(ctx.state.counters.writes - before.writes, cells);
            assert!(ctx.refresh());
        }
    }
}

/// Regression: on rank 1 of a hybrid(2,1) run the halo reads of the blocks
/// bordering rank 0 land in remote Buffer-only blocks, resolved once into
/// the task's halo plans on the first step.  Every later step replays those
/// plans and, like the serial path above, performs zero heap allocations.
#[test]
fn warm_hybrid_rank_replays_remote_halos_allocation_free() {
    let (n, block) = (64usize, 16usize);
    let topology = Topology::hybrid(2, 1);
    let rank = 1;
    // Rank 1's Env replica, built the way `execute` builds it: the
    // other rank's Z-order half demoted to Buffer-only receive blocks, here
    // already holding valid data (as after a page exchange).
    let mut env = SGridSystem::with_block_size(RegionSize::square(n), block).build_env();
    let parts = env.partition_by_morton(topology.ranks());
    for (r, ids) in parts.iter().enumerate() {
        for &id in ids {
            env.block(id).meta.set_dm_tid(Some(topology.rank_master_task(r)));
            env.block(id).meta.set_ch_tid(Some(topology.rank_master_task(r)));
        }
    }
    let remote = parts[1 - rank].clone();
    for &id in &remote {
        env.demote_to_buffer_only(id).unwrap();
        env.block(id).meta.set_dm_tid(Some(topology.rank_master_task(1 - rank)));
        env.set_block_valid(id, true).unwrap();
    }
    let shared = Arc::new(RankShared::new(topology.clone(), rank, None, false));
    let mut ctx = TaskCtx::new(
        topology.slot(rank, 0),
        Arc::new(env),
        shared,
        WovenProgram::unwoven(),
        false,
        false,
    );
    let program = StencilProgram::jacobi_5pt();
    let params = [0.5, 0.125];
    IrStencilApp::new(program.clone(), params.to_vec(), 1).initialize(&mut ctx);
    let blocks = ctx.get_blocks();
    assert_eq!(blocks, parts[rank]);
    assert!(remote.iter().all(|&id| matches!(ctx.env().block(id).kind, BlockKind::BufferOnly(_))));
    let env = ctx.env().clone();
    let side = block as i64;
    let lands_remote = |bid: BlockId| {
        let origin = env.block(bid).meta.origin;
        [(-1, 0), (0, -1), (side, 0), (0, side)].into_iter().any(|(dx, dy)| {
            let addr = origin + LocalAddress::new2d(dx, dy);
            matches!(env.resolve(bid, addr), Resolution::Searched { block: Some(r), .. } if remote.contains(&r))
        })
    };
    assert!(blocks.iter().any(|&bid| lands_remote(bid)), "some halos land in remote blocks");
    let compiled = CompiledKernel::compile(&program, Extent::new2d(block, block), OptLevel::Full);
    let mut scratch = KernelScratch::default();
    let proc = Processor::Scalar;
    compiled.prepare_scratch(&mut scratch.exec, proc);

    // First step: records the halo plans and sizes the staging vectors.
    for &bid in &blocks {
        scratch.step_block(&mut ctx, bid, &compiled, &params, proc);
    }
    assert!(ctx.refresh());
    let first = std::mem::take(&mut ctx.state.counters);

    for step in 2..=4u64 {
        let (_, allocs) = aohpc_testalloc::count_in(|| {
            for &bid in &blocks {
                scratch.step_block(&mut ctx, bid, &compiled, &params, proc);
            }
        });
        assert_eq!(
            allocs, 0,
            "step {step}: replayed remote halos must not touch the heap ({allocs} allocs over {} blocks)",
            blocks.len()
        );
        // A replayed step counts exactly what the recording step counted,
        // searches and visited nodes included, and finds every remote page.
        assert_eq!(std::mem::take(&mut ctx.state.counters), first, "step {step}");
        assert!(!ctx.state.has_missing());
        assert!(ctx.refresh());
    }
}
