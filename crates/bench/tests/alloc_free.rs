//! The tentpole assertion: with pooling on, a steady-state timestep
//! performs ZERO heap allocations inside the gather–scatter regions of
//! both mini-apps — measured, not claimed.
//!
//! Requires the counting global allocator:
//! `cargo test -p cmt-bench --features count-alloc --test alloc_free`.
//!
//! Method: run short and long versions of the same configuration and
//! difference the per-region allocation counters, so setup, autotune,
//! first-touch pool warm-up, and teardown are excluded and only the
//! steady-state steps remain.
#![cfg(feature = "count-alloc")]

use cmt_bone::{Config, Pipeline};
use cmt_gs::GsMethod;

/// Self-allocation and self-byte totals over regions whose name starts
/// with `prefix`, from a merged run profile.
fn region_allocs(profile: &cmt_perf::ProfileReport, prefix: &str) -> (u64, u64) {
    let mut allocs = 0;
    let mut bytes = 0;
    for (name, s) in &profile.flat {
        if name.starts_with(prefix) {
            allocs += s.self_allocs();
            bytes += s.self_alloc_bytes();
        }
    }
    (allocs, bytes)
}

fn bone_cfg(method: GsMethod, pipeline: Pipeline, pool: bool, steps: usize) -> Config {
    Config {
        ranks: 4,
        n: 6,
        elems_per_rank: 8,
        steps,
        fields: 3,
        method: Some(method),
        pipeline,
        runtime: cmt_bone::RuntimeConfig {
            pool,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Steady-state `(allocs, bytes)` per the 4 differential steps of the
/// CMT-bone gs regions.
fn bone_gs_delta(method: GsMethod, pipeline: Pipeline, pool: bool) -> (u64, u64) {
    let long = cmt_bone::run(&bone_cfg(method, pipeline, pool, 6));
    let short = cmt_bone::run(&bone_cfg(method, pipeline, pool, 2));
    let (a6, b6) = region_allocs(&long.runtime.profile, "gs_op");
    let (a2, b2) = region_allocs(&short.runtime.profile, "gs_op");
    (a6.saturating_sub(a2), b6.saturating_sub(b2))
}

#[test]
fn cmt_bone_gs_regions_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        for method in GsMethod::ALL {
            let (allocs, bytes) = bone_gs_delta(method, pipeline, true);
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "{method:?}/{}: {allocs} allocs / {bytes} bytes per 4 \
                 steady-state steps in gs_op* regions",
                pipeline.name()
            );
        }
    }
}

#[test]
fn cmt_bone_no_pool_baseline_does_allocate() {
    // The assertion above is only meaningful if the instrument can see
    // the allocations the pool removes.
    let (allocs, bytes) = bone_gs_delta(GsMethod::PairwiseExchange, Pipeline::Overlapped, false);
    assert!(
        allocs > 0 && bytes > 0,
        "fresh-alloc baseline shows no gs allocations ({allocs}/{bytes}) — \
         the counter or the differential is broken"
    );
}

/// The hybrid worker pool must not reintroduce steady-state allocations:
/// the overlap-window compute regions (flux-divergence derivatives and
/// the dealias maps) stay at zero allocations per step with a 4-worker
/// pool sharing the element loops. Worker-side allocations are charged
/// back to the region via `Profiler::charge_allocs`, so a regression on
/// either side of the pool shows up here.
#[test]
fn cmt_bone_worker_pool_adds_no_steady_state_allocations() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = |steps: usize| Config {
        workers: 4,
        dealias_m: Some(8),
        ..bone_cfg(
            GsMethod::PairwiseExchange,
            Pipeline::Overlapped,
            true,
            steps,
        )
    };
    let long = cmt_bone::run(&cfg(6));
    let short = cmt_bone::run(&cfg(2));
    for prefix in ["ax_cmt", "dealias"] {
        let (a_l, b_l) = region_allocs(&long.runtime.profile, prefix);
        let (a_s, b_s) = region_allocs(&short.runtime.profile, prefix);
        let (allocs, bytes) = (a_l.saturating_sub(a_s), b_l.saturating_sub(b_s));
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "{prefix}*: {allocs} allocs / {bytes} bytes per 4 steady-state \
             steps with a 4-worker pool"
        );
    }
}

/// Without a worker pool the dealias round trip runs on the block's own
/// contraction scratch, in both the blocking and the overlapped
/// schedule, for the scalar and the simd tiers alike.
#[test]
fn cmt_bone_serial_dealias_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    for pipeline in [Pipeline::Overlapped, Pipeline::Blocking] {
        for variant in [
            cmt_core::KernelVariant::Optimized,
            cmt_core::KernelVariant::Simd,
        ] {
            let cfg = |steps: usize| Config {
                variant,
                workers: 1,
                dealias_m: Some(8),
                ..bone_cfg(GsMethod::PairwiseExchange, pipeline, true, steps)
            };
            let long = cmt_bone::run(&cfg(6));
            let short = cmt_bone::run(&cfg(2));
            let (a_l, b_l) = region_allocs(&long.runtime.profile, "dealias");
            let (a_s, b_s) = region_allocs(&short.runtime.profile, "dealias");
            let (allocs, bytes) = (a_l.saturating_sub(a_s), b_l.saturating_sub(b_s));
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "{}/{}: dealias made {allocs} allocs / {bytes} bytes per 4 \
                 steady-state steps with one worker",
                pipeline.name(),
                variant.name()
            );
        }
    }
}

/// The simd kernel tier keeps the zero-allocation steady state: vector
/// dispatch uses stack scratch only (the transposed-D buffer lives on
/// the stack, dealias reuses the caller's scratch), so the compute
/// regions show the same zero differential as the scalar tiers — with
/// the worker pool on, the shape where a hidden per-call allocation
/// would be multiplied by chunk count.
#[test]
fn cmt_bone_simd_variant_adds_no_steady_state_allocations() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = |steps: usize| Config {
        variant: cmt_core::KernelVariant::Simd,
        workers: 4,
        dealias_m: Some(8),
        ..bone_cfg(
            GsMethod::PairwiseExchange,
            Pipeline::Overlapped,
            true,
            steps,
        )
    };
    let long = cmt_bone::run(&cfg(6));
    let short = cmt_bone::run(&cfg(2));
    for prefix in ["ax_cmt", "dealias"] {
        let (a_l, b_l) = region_allocs(&long.runtime.profile, prefix);
        let (a_s, b_s) = region_allocs(&short.runtime.profile, prefix);
        let (allocs, bytes) = (a_l.saturating_sub(a_s), b_l.saturating_sub(b_s));
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "{prefix}*: simd tier leaked {allocs} allocs / {bytes} bytes \
             per 4 steady-state steps"
        );
    }
}

/// Particle advection keeps the zero-allocation steady state: the
/// lane-batched interpolation runs on the set's own cardinal scratch,
/// and the cell-grid rebuild reuses the bin buffers, which migration
/// and the load balancer's element moves grow ahead of time. A
/// clustered cloud with the load balancer on moves both particles and
/// whole elements between ranks, so population and owned-element
/// counts change from step to step.
#[test]
fn cmt_bone_particle_advection_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = |steps: usize| Config {
        particles_per_elem: 64,
        particle_cluster: Some(0.25),
        // the one rebalance lands at step 5: inside the differential
        lb_every: 5,
        lb_threshold: 1.05,
        ..bone_cfg(
            GsMethod::PairwiseExchange,
            Pipeline::Overlapped,
            true,
            steps,
        )
    };
    let long = cmt_bone::run(&cfg(8));
    let short = cmt_bone::run(&cfg(4));
    let (a_l, b_l) = region_allocs(&long.runtime.profile, cmt_perf::regions::PARTICLE_ADVECT);
    let (a_s, b_s) = region_allocs(&short.runtime.profile, cmt_perf::regions::PARTICLE_ADVECT);
    let (allocs, bytes) = (a_l.saturating_sub(a_s), b_l.saturating_sub(b_s));
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "particle_advect: {allocs} allocs / {bytes} bytes per 4 steady-state steps"
    );
}

#[test]
fn nekbone_dssum_regions_allocation_free_at_steady_state() {
    assert!(cmt_perf::alloc::counting(), "counting allocator not active");
    let cfg = |iters: usize| nekbone::Config {
        ranks: 4,
        n: 6,
        elems_per_rank: 8,
        cg_iters: iters,
        tol: 0.0,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    };
    let long = nekbone::run(&cfg(12));
    let short = nekbone::run(&cfg(4));
    let (a_l, b_l) = region_allocs(&long.runtime.profile, "dssum");
    let (a_s, b_s) = region_allocs(&short.runtime.profile, "dssum");
    let (allocs, bytes) = (a_l.saturating_sub(a_s), b_l.saturating_sub(b_s));
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "{allocs} allocs / {bytes} bytes per 8 steady-state CG iterations \
         in dssum* regions"
    );
}
