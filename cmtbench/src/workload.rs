//! The four named workloads and the seeded inputs they run on.
//!
//! Every workload runs 2 ranks × 1 worker on the in-process transport,
//! pins the gather–scatter method (pairwise exchange) and the kernel
//! variant, so neither startup autotune runs and the timed work is the
//! same on every run. The seed only picks inputs the step cost does not
//! depend on: the advection velocity direction for CMT-bone, the mass
//! coefficient `lambda` for Nekbone.

use std::time::Instant;

use cmt_bone::{LbSummary, Pipeline};
use cmt_core::KernelVariant;
use cmt_gs::GsMethod;
use cmt_perf::MpipReport;
use simmpi::rng::SmallRng;

/// Ranks of every workload (one per core of a 2-core host).
pub const RANKS: usize = 2;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CMT-bone at N = 12, 32 elements/rank, 5 fields: derivative bound.
    CmtCompute,
    /// CMT-bone at N = 5, 256 elements/rank, 5 fields, an allreduce every
    /// step: surface exchange and reductions dominate.
    CmtExchange,
    /// Nekbone CG at N = 8, 64 elements/rank, fixed iteration count.
    NekboneCg,
    /// CMT-bone at N = 6, 16 elements/rank, 3 fields with a clustered
    /// particle cloud, load balancing and in-memory checkpoints.
    CmtMultiphase,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::CmtCompute,
        Workload::CmtExchange,
        Workload::NekboneCg,
        Workload::CmtMultiphase,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CmtCompute => "cmt_compute",
            Workload::CmtExchange => "cmt_exchange",
            Workload::NekboneCg => "nekbone_cg",
            Workload::CmtMultiphase => "cmt_multiphase",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Timesteps (CG iterations for `nekbone_cg`) of one timed run,
    /// chosen so a run takes about half a second on a 2-core host.
    pub fn steps(self) -> usize {
        match self {
            Workload::CmtCompute => 20,
            Workload::CmtExchange => 40,
            Workload::NekboneCg => 300,
            Workload::CmtMultiphase => 40,
        }
    }

    /// The inputs of this workload for `seed`, running kernel `variant`.
    pub fn case(self, seed: u64, variant: KernelVariant) -> Case {
        // Distinct streams per workload, so seed s of two workloads does
        // not share its draws.
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let steps = self.steps();
        let cmt = |n, elems_per_rank, fields, rng: &mut SmallRng| cmt_bone::Config {
            n,
            elems_per_rank,
            ranks: RANKS,
            steps,
            fields,
            variant,
            kernel_autotune: false,
            workers: 1,
            method: Some(GsMethod::PairwiseExchange),
            pipeline: Pipeline::Overlapped,
            dealias_m: None,
            velocity: seeded_velocity(rng),
            ..Default::default()
        };
        match self {
            Workload::CmtCompute => Case::Cmt(cmt(12, 32, 5, &mut rng)),
            Workload::CmtExchange => Case::Cmt(cmt_bone::Config {
                cfl_interval: 1,
                ..cmt(5, 256, 5, &mut rng)
            }),
            Workload::CmtMultiphase => Case::Cmt(cmt_bone::Config {
                particles_per_elem: 1024,
                particle_cluster: Some(0.25),
                lb_every: 4,
                lb_threshold: 1.1,
                checkpoint_every: 5,
                ..cmt(6, 16, 3, &mut rng)
            }),
            Workload::NekboneCg => Case::Nek(nekbone::Config {
                n: 8,
                elems_per_rank: 64,
                ranks: RANKS,
                cg_iters: steps,
                tol: 0.0,
                lambda: rng.range_f64(0.05, 0.2),
                variant,
                kernel_autotune: false,
                workers: 1,
                method: Some(GsMethod::PairwiseExchange),
                ..Default::default()
            }),
        }
    }
}

/// An advection velocity with every component nonzero (so all three
/// derivative directions run) and a seeded direction. The per-step work
/// does not depend on it: every element has exactly three inflow faces
/// whatever the signs are.
fn seeded_velocity(rng: &mut SmallRng) -> [f64; 3] {
    let mut v = [0.0; 3];
    for c in &mut v {
        let mag = rng.range_f64(0.3, 1.0);
        *c = if rng.next_u64() & 1 == 0 { mag } else { -mag };
    }
    v
}

/// A configured run of one of the two mini-apps.
#[derive(Debug, Clone)]
pub enum Case {
    /// CMT-bone.
    Cmt(cmt_bone::Config),
    /// Nekbone.
    Nek(nekbone::Config),
}

/// What one public run call produced.
#[derive(Debug)]
pub struct Outcome {
    /// Wall time of the public run call, seconds.
    pub wall_s: f64,
    /// Partition-independent fingerprint of the final state.
    pub state_hash: u64,
    /// Nekbone only: initial and final CG residual norms and the
    /// iterations run.
    pub cg: Option<CgOutcome>,
    /// mpiP-style communication statistics of the run.
    pub comm: MpipReport,
    /// Load-balancer activity (CMT-bone with `lb_every > 0`).
    pub lb: Option<LbSummary>,
    /// Modelled derivative + RK + lift flops of the whole run (CMT-bone).
    pub modeled_flops: Option<u64>,
}

/// Convergence facts of a Nekbone CG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOutcome {
    /// Residual norm before the first iteration.
    pub initial: f64,
    /// Residual norm after the last iteration.
    pub last: f64,
    /// Iterations performed.
    pub iterations: usize,
}

impl Case {
    /// The same case with a different step (iteration) count.
    pub fn with_steps(&self, steps: usize) -> Case {
        match self {
            Case::Cmt(c) => Case::Cmt(cmt_bone::Config { steps, ..c.clone() }),
            Case::Nek(c) => Case::Nek(nekbone::Config {
                cg_iters: steps,
                ..c.clone()
            }),
        }
    }

    /// Timesteps or CG iterations.
    pub fn steps(&self) -> usize {
        match self {
            Case::Cmt(c) => c.steps,
            Case::Nek(c) => c.cg_iters,
        }
    }

    /// Degrees of freedom advanced per step: `N^3 × total elements ×
    /// fields` (one field for Nekbone) — the HipBone figure of merit's
    /// numerator.
    pub fn dof_per_step(&self) -> f64 {
        let (n, elems, fields) = match self {
            Case::Cmt(c) => (c.n, c.ranks * c.elems_per_rank, c.fields),
            Case::Nek(c) => (c.n, c.ranks * c.elems_per_rank, 1),
        };
        (n * n * n * elems * fields) as f64
    }

    /// Run the case through the mini-app's public entry point.
    pub fn run(&self) -> Outcome {
        let t0 = Instant::now();
        match self {
            Case::Cmt(c) => {
                let r = cmt_bone::run(c);
                let wall_s = t0.elapsed().as_secs_f64();
                let modeled_flops = Some(r.modeled_flops());
                Outcome {
                    wall_s,
                    state_hash: r.state_hash,
                    cg: None,
                    comm: r.comm,
                    lb: r.lb,
                    modeled_flops,
                }
            }
            Case::Nek(c) => {
                let r = nekbone::run(c);
                let wall_s = t0.elapsed().as_secs_f64();
                Outcome {
                    wall_s,
                    state_hash: r.state_hash,
                    cg: Some(CgOutcome {
                        initial: r.cg.res_history[0],
                        last: r.cg.final_residual(),
                        iterations: r.cg.iterations,
                    }),
                    comm: r.comm,
                    lb: None,
                    modeled_flops: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_fixes_the_inputs() {
        let v = |seed| match Workload::CmtCompute.case(seed, KernelVariant::Simd) {
            Case::Cmt(c) => c.velocity,
            Case::Nek(_) => unreachable!(),
        };
        assert_eq!(v(7), v(7));
        assert_ne!(v(7), v(8));
        for c in v(7) {
            assert!(c.abs() >= 0.3);
        }
    }
}
