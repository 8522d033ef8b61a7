//! The Nekbone proxy driver: mesh, setup, instrumented CG run. The run
//! environment, world, setup phase, and report sections come from
//! [`cmt_runtime`], shared with CMT-bone.

use std::time::Instant;

use cmt_core::{Field, KernelVariant};
use cmt_gs::{AutotuneOptions, GsMethod};
use cmt_mesh::{MeshConfig, RankMesh};
use cmt_perf::{MpipReport, Profiler};
use cmt_resilience::{hash, Checkpoint, Resilience};
use cmt_runtime::{render_comm, Knobs, RankOutput, RuntimeConfig, RuntimeReport};
use simmpi::{Rank, WireCodec, WireError, WireReader};

use crate::ax::AxOperator;
use crate::cg::{cg_solve_resilient, CgStats};

/// Nekbone run configuration (mirrors `cmt_bone::Config` where the two
/// mini-apps share parameters, so Fig. 7 can run both on identical
/// setups).
#[derive(Debug, Clone)]
pub struct Config {
    /// GLL points per direction per element.
    pub n: usize,
    /// Elements per rank.
    pub elems_per_rank: usize,
    /// Number of ranks.
    pub ranks: usize,
    /// CG iteration budget (Nekbone runs a fixed iteration count).
    pub cg_iters: usize,
    /// Convergence tolerance on the residual norm (set 0 to always run
    /// the full budget, classic-Nekbone style).
    pub tol: f64,
    /// Mass coefficient `lambda` of the Helmholtz operator.
    pub lambda: f64,
    /// Kernel implementation (ignored when `kernel_autotune` is set —
    /// the startup kernel autotune picks it instead).
    pub variant: KernelVariant,
    /// Autotune the `ax` derivative kernel at startup (`--variant
    /// auto`): time every variant × chunk-grain candidate on this run's
    /// `(N, elems)` shape, average across ranks, and run the winner —
    /// the same Fig. 7 protocol CMT-bone applies to compute.
    pub kernel_autotune: bool,
    /// Worker threads per rank for the hybrid MPI+X element loops (1 =
    /// pure MPI; >1 shares the `ax` element loop across a work-stealing
    /// pool while ranks stay the communication unit).
    pub workers: usize,
    /// Periodic domain (`true`, the co-design default) or homogeneous
    /// Dirichlet boundaries enforced through the Nekbone-style 0/1 mask.
    pub periodic: bool,
    /// Force a gather-scatter method; `None` = autotune.
    pub method: Option<GsMethod>,
    /// Autotune options.
    pub autotune: AutotuneOptions,
    /// Checkpoint the CG iteration state every this many iterations
    /// (0 disables). Required non-zero when the fault plan kills ranks.
    pub checkpoint_every: usize,
    /// The run environment: network model, fault plan, schedule chaos,
    /// verifier, buffer pooling, transport, checkpoint and restart
    /// directories.
    pub runtime: RuntimeConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 10,
            elems_per_rank: 27,
            ranks: 8,
            cg_iters: 20,
            tol: 0.0,
            lambda: 0.1,
            variant: KernelVariant::Optimized,
            kernel_autotune: false,
            workers: 1,
            periodic: true,
            method: None,
            autotune: AutotuneOptions::default(),
            checkpoint_every: 0,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// The measurement set of one Nekbone run.
#[derive(Debug)]
pub struct NekboneReport {
    /// Mesh/partition configuration.
    pub mesh: MeshConfig,
    /// Paper-style setup block.
    pub mesh_summary: String,
    /// What the runtime reports: gs method and kernel variant chosen,
    /// both tuning tables (the Fig. 7 Nekbone rows), the merged profile,
    /// verifier findings.
    pub runtime: RuntimeReport,
    /// Communication statistics.
    pub comm: MpipReport,
    /// CG convergence record (identical on every rank).
    pub cg: CgStats,
    /// Per-rank wall seconds.
    pub rank_wall_s: Vec<f64>,
    /// Deterministic solution checksum.
    pub checksum: f64,
    /// FNV-1a hash over every rank's final solution bytes, combined in
    /// rank order — the bitwise fingerprint the resilience tests compare.
    pub state_hash: u64,
}

impl NekboneReport {
    /// Render the paper-style report.
    pub fn render(&self) -> String {
        let mut out = String::from("Setup:\n");
        out.push_str(&self.mesh_summary);
        out.push_str(&format!(
            "\n\nCG iterations = {}  final residual = {:.3e}  checksum = {:.12e}\n",
            self.cg.iterations,
            self.cg.final_residual(),
            self.checksum
        ));
        self.runtime
            .render_head("Nekbone", self.state_hash, &mut out);
        self.runtime.render_profile(&mut out);
        render_comm(&self.comm, &mut out);
        out
    }
}

/// Nekbone's part of a rank's output.
struct NekOutput {
    cg: CgStats,
    checksum: f64,
    state_hash: u64,
    wall_s: f64,
}

// Wire codecs so the socket transport can ship each rank's measurement
// set back to the launcher (the common prefix is the runtime's).

impl WireCodec for CgStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.iterations.encode(buf);
        self.res_history.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CgStats {
            iterations: usize::decode(r)?,
            res_history: Vec::decode(r)?,
        })
    }
}

impl WireCodec for NekOutput {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.cg.encode(buf);
        self.checksum.encode(buf);
        self.state_hash.encode(buf);
        self.wall_s.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NekOutput {
            cg: CgStats::decode(r)?,
            checksum: f64::decode(r)?,
            state_hash: u64::decode(r)?,
            wall_s: f64::decode(r)?,
        })
    }
}

/// Dirichlet mask for non-periodic domains (1 interior, 0 boundary), in
/// volume-point order.
fn dirichlet_mask(mesh: &RankMesh, n: usize) -> Vec<f64> {
    let mut m = Vec::with_capacity(mesh.nel() * n * n * n);
    for le in 0..mesh.nel() {
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    m.push(if mesh.is_boundary_point(le, i, j, k) {
                        0.0
                    } else {
                        1.0
                    });
                }
            }
        }
    }
    m
}

fn rank_main(rank: &mut Rank, cfg: &Config, mesh_cfg: &MeshConfig) -> RankOutput<NekOutput> {
    let start = Instant::now();
    let mut prof = Profiler::new();
    let n = cfg.n;
    let mesh = RankMesh::new(mesh_cfg.clone(), rank.rank());
    let nel = mesh.nel();
    // Nekbone gathers over the continuous vertex-conforming numbering.
    let gids = mesh.volume_point_gids();
    let mask = (!cfg.periodic).then(|| dirichlet_mask(&mesh, n));
    // Inverse multiplicity weights for the redundant-storage dot
    // products: a dssum of ones, once the method is settled.
    let (handle, choices, inv_mult) =
        cmt_runtime::setup(rank, &mut prof, &cfg.knobs(), &gids, nel, |rank, h, m| {
            h.multiplicities(rank, m)
                .into_iter()
                .map(|m| 1.0 / m)
                .collect::<Vec<f64>>()
        });
    let op = AxOperator::new(n, 1.0, cfg.lambda, choices.variant(cfg.variant));

    // Consistent right-hand side: a smooth function of the global point
    // id (identical for every replica of a shared point), mass-weighted
    // implicitly through its smoothness — any consistent b is a valid
    // Nekbone load.
    let mut b = Field::zeros(n, nel);
    {
        let bs = b.as_mut_slice();
        for (v, &gid) in bs.iter_mut().zip(&gids) {
            let t = gid as f64 * 1e-4;
            *v = (t.sin() + 0.5 * (2.7 * t).cos()) * 1e-2;
        }
        if let Some(m) = &mask {
            for (v, &mm) in bs.iter_mut().zip(m) {
                *v *= mm;
            }
        }
    }
    let mut x = Field::zeros(n, nel);

    // Resilience: cadence + vault, and the previous run's checkpoint when
    // restarting from disk.
    let mut rez = Resilience::new(
        cfg.checkpoint_every as u64,
        cfg.runtime.checkpoint_dir.clone(),
    );
    let restart = cmt_runtime::restart_checkpoint(&cfg.runtime, rank);

    prof.enter("cg_loop");
    let cg = cg_solve_resilient(
        rank,
        &op,
        &handle,
        choices.chosen,
        &inv_mult,
        mask.as_deref(),
        &b,
        &mut x,
        cfg.tol,
        cfg.cg_iters,
        &mut prof,
        &mut rez,
        restart.as_ref(),
    );
    prof.exit();

    let local_sum: f64 = x
        .as_slice()
        .iter()
        .zip(&inv_mult)
        .map(|(&v, &m)| v * m)
        .sum();
    rank.set_context("checksum");
    let checksum = rank.allreduce_scalar(local_sum, simmpi::ReduceOp::Sum);
    rank.set_context("main");

    cmt_runtime::verify_sweep(rank, &mut prof);

    let state_hash = {
        let mut h = hash::FNV_OFFSET;
        hash::fnv1a_f64s(&mut h, x.as_slice());
        h
    };

    RankOutput {
        profiler: prof,
        choices,
        app: NekOutput {
            cg,
            checksum,
            state_hash,
            wall_s: start.elapsed().as_secs_f64(),
        },
    }
}

impl Config {
    /// Validate parameter sanity; returns a description of the first
    /// problem found. The CLI-reachable failure modes (zero elements or
    /// ranks, `n` outside the paper's supported range, zero workers, a
    /// kill plan without checkpointing, a restart directory without
    /// loadable CG checkpoints of this run's shape) all land here with a
    /// message instead of panicking deep inside a kernel.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.lambda > 0.0) {
            return Err(format!(
                "lambda must be positive for an SPD operator, got {}",
                self.lambda
            ));
        }
        self.runtime
            .validate(&self.knobs(), |_, ckpt| self.check_restart(ckpt))
    }

    /// Whether `ckpt` is a CG state this run can resume: `x`, `r`, `p`
    /// of this run's size, plus `rz` and the residual history.
    fn check_restart(&self, ckpt: &Checkpoint) -> Result<(), String> {
        if ckpt.fields.len() != 3 {
            return Err(format!(
                "CG checkpoint holds x, r, p; this one holds {} fields",
                ckpt.fields.len()
            ));
        }
        let len = self.n.pow(3) * self.elems_per_rank;
        if let Some(f) = ckpt.fields.iter().find(|f| f.len() != len) {
            return Err(format!(
                "checkpoint field holds {} values, run has {len}",
                f.len()
            ));
        }
        if ckpt.scalars.is_empty() {
            return Err("CG checkpoint lacks rz and the residual history".into());
        }
        Ok(())
    }

    /// The run-shape knobs shared with the other mini-app (see
    /// [`Knobs`]).
    pub fn knobs(&self) -> Knobs {
        Knobs {
            ranks: self.ranks,
            elems_per_rank: self.elems_per_rank,
            n: self.n,
            variant: self.variant,
            kernel_autotune: self.kernel_autotune,
            workers: self.workers,
            method: self.method,
            autotune: self.autotune,
            checkpoint_every: self.checkpoint_every,
        }
    }

    /// Write `k` back into the flat fields (the inverse of
    /// [`Config::knobs`]).
    pub fn set_knobs(&mut self, k: Knobs) {
        Knobs {
            ranks: self.ranks,
            elems_per_rank: self.elems_per_rank,
            n: self.n,
            variant: self.variant,
            kernel_autotune: self.kernel_autotune,
            workers: self.workers,
            method: self.method,
            autotune: self.autotune,
            checkpoint_every: self.checkpoint_every,
        } = k;
    }
}

/// Execute the Nekbone proxy and collect its measurement set.
pub fn run(cfg: &Config) -> NekboneReport {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid Nekbone configuration: {e}"));
    let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, cfg.periodic);
    let fin = cmt_runtime::run(&cfg.runtime, &cfg.knobs(), |rank| {
        rank_main(rank, cfg, &mesh_cfg)
    });

    let mut cg = None;
    let mut checksum = f64::NAN;
    let mut state_hash = hash::FNV_OFFSET;
    let mut wall = Vec::with_capacity(cfg.ranks);
    for out in fin.ranks {
        let a = out.app;
        cg.get_or_insert(a.cg);
        checksum = a.checksum;
        hash::fnv1a(&mut state_hash, &a.state_hash.to_le_bytes());
        wall.push(a.wall_s);
    }
    NekboneReport {
        mesh_summary: mesh_cfg.summary(),
        mesh: mesh_cfg,
        runtime: fin.report,
        comm: fin.comm,
        cg: cg.expect("ranks > 0"),
        rank_wall_s: wall,
        checksum,
        state_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Config {
        Config {
            n: 5,
            elems_per_rank: 8,
            ranks: 4,
            cg_iters: 25,
            tol: 1e-10,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        }
    }

    #[test]
    fn cg_reduces_residual_on_poisson() {
        // The unpreconditioned Poisson system is ill-conditioned; what CG
        // must show in a fixed budget is steady reduction, not machine
        // zero (classic Nekbone runs a fixed iteration count too).
        let rep = run(&Config {
            cg_iters: 40,
            tol: 0.0,
            ..small_cfg()
        });
        let h = &rep.cg.res_history;
        assert_eq!(rep.cg.iterations, 40);
        assert!(
            rep.cg.final_residual() < h[0] * 0.05,
            "insufficient reduction: {h:?}"
        );
        // CG's 2-norm residual is not monotone (only the A-norm of the
        // error is); bound the excursions instead of per-step growth.
        let r0 = h[0];
        for &r in h {
            assert!(r < r0 * 100.0, "wild divergence: {h:?}");
        }
    }

    #[test]
    fn cg_solves_well_conditioned_system_to_tolerance() {
        // Mass-dominated operator: kappa is small, CG must converge hard.
        let rep = run(&Config {
            n: 4,
            elems_per_rank: 4,
            ranks: 2,
            cg_iters: 300,
            tol: 1e-10,
            lambda: 50.0,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        });
        assert!(
            rep.cg.final_residual() <= 1e-10,
            "residual {} after {} iters",
            rep.cg.final_residual(),
            rep.cg.iterations
        );
        assert!(rep.cg.iterations < 300, "tolerance exit did not trigger");
    }

    #[test]
    fn run_is_deterministic() {
        let a = run(&small_cfg());
        let b = run(&small_cfg());
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.cg.iterations, b.cg.iterations);
    }

    #[test]
    fn rank_counts_do_not_change_the_math() {
        // The same 4x4x4 global element grid arises from (1 rank, 64
        // local = 4x4x4) and (8 ranks = 2x2x2, 8 local = 2x2x2); the CG
        // trajectory must agree up to reduction-order roundoff. (Other
        // rank counts factor into *different* global grids, so they are
        // different problems and not comparable.)
        let mk = |ranks: usize| Config {
            n: 4,
            elems_per_rank: 64 / ranks,
            ranks,
            cg_iters: 15,
            tol: 0.0,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let base = run(&mk(1));
        assert_eq!(base.mesh.global_elems(), [4, 4, 4]);
        {
            let ranks = 8usize;
            let rep = run(&mk(ranks));
            assert_eq!(rep.mesh.global_elems(), [4, 4, 4]);
            // Identical global mesh and numbering => identical CG
            // trajectory up to float reassociation in the reductions.
            assert_eq!(rep.cg.iterations, base.cg.iterations);
            let a = rep.cg.final_residual();
            let b = base.cg.final_residual();
            assert!(
                (a - b).abs() < 1e-8 * (1.0 + b.abs()),
                "ranks={ranks}: {a} vs {b}"
            );
            assert!(
                (rep.checksum - base.checksum).abs() < 1e-8 * (1.0 + base.checksum.abs()),
                "ranks={ranks}: checksum {} vs {}",
                rep.checksum,
                base.checksum
            );
        }
    }

    #[test]
    fn gs_methods_agree_numerically() {
        let mut sums = Vec::new();
        for m in GsMethod::ALL {
            let rep = run(&Config {
                method: Some(m),
                ..small_cfg()
            });
            sums.push(rep.checksum);
        }
        for s in &sums[1..] {
            assert!((s - sums[0]).abs() < 1e-8 * (1.0 + sums[0].abs()));
        }
    }

    #[test]
    fn profile_has_ax_and_dssum_regions() {
        let rep = run(&small_cfg());
        assert!(rep
            .runtime
            .profile
            .flat
            .iter()
            .any(|(n, _)| n.starts_with("ax_e")));
        assert!(rep
            .runtime
            .profile
            .flat
            .iter()
            .any(|(n, _)| n.starts_with("dssum")));
        // the local stiffness work dominates dssum's self time in a
        // shared-memory world
        assert!(rep.runtime.profile.share("ax_e (local stiffness+mass)") > 0.05);
    }

    #[test]
    fn dssum_runs_split_phase_with_overlap_window() {
        let rep = run(&small_cfg());
        for name in [
            "dssum_start (post exchange)",
            "dssum_finish (wait + combine)",
            "glsc3_interior (overlap window)",
        ] {
            assert!(
                rep.runtime.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        // exchange wait time stays attributed to the dssum call site
        assert!(rep
            .comm
            .sites
            .iter()
            .any(|s| s.site.op == simmpi::MpiOp::Wait && s.site.context == "dssum/gs:pairwise"));
    }

    #[test]
    fn injected_kill_recovers_to_identical_state() {
        let base = Config {
            cg_iters: 12,
            tol: 0.0,
            checkpoint_every: 3,
            ..small_cfg()
        };
        let clean = run(&base);
        let faulty = run(&Config {
            runtime: RuntimeConfig {
                fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=1,step=7").unwrap()),
                ..Default::default()
            },
            ..base.clone()
        });
        // rollback + deterministic CG: bitwise-identical final solve
        assert_eq!(clean.checksum, faulty.checksum);
        assert_eq!(
            clean.state_hash, faulty.state_hash,
            "recovered run diverged from the uninterrupted run"
        );
        assert_eq!(clean.cg.res_history, faulty.cg.res_history);
        // recovery is a distinct region and comm context
        for name in [cmt_perf::regions::CHECKPOINT, cmt_perf::regions::RECOVERY] {
            assert!(
                faulty.runtime.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        for ctx in ["checkpoint", "recovery"] {
            assert!(
                faulty.comm.sites.iter().any(|s| s.site.context == ctx),
                "missing '{ctx}' comm context"
            );
        }
    }

    #[test]
    fn hybrid_workers_produce_bitwise_identical_solves() {
        let base = small_cfg();
        let reference = run(&base);
        for workers in [2, 4] {
            let rep = run(&Config {
                workers,
                ..base.clone()
            });
            assert_eq!(
                rep.state_hash, reference.state_hash,
                "{workers}-worker solve diverged from the serial one"
            );
            assert_eq!(rep.checksum, reference.checksum);
            assert_eq!(rep.cg.res_history, reference.cg.res_history);
        }
    }

    #[test]
    #[should_panic(expected = "invalid Nekbone configuration")]
    fn invalid_config_rejected() {
        let _ = run(&Config {
            lambda: 0.0,
            ..small_cfg()
        });
    }

    /// The simd tier must not change a single bit of the CG trajectory
    /// relative to the scalar `opt` kernels — on both transports.
    #[test]
    fn simd_variant_is_bitwise_identical_to_opt() {
        let base = small_cfg();
        let opt = run(&base);
        let simd = run(&Config {
            variant: KernelVariant::Simd,
            ..base.clone()
        });
        assert_eq!(opt.state_hash, simd.state_hash, "simd diverged from opt");
        assert_eq!(opt.checksum, simd.checksum);
        assert_eq!(opt.cg.res_history, simd.cg.res_history);
        assert_eq!(simd.runtime.kernel_variant, KernelVariant::Simd);
        assert!(["avx2", "sse2", "scalar"].contains(&simd.runtime.kernel_isa));
        assert!(simd.render().contains("kernel variant: simd"));

        let socket = run(&Config {
            variant: KernelVariant::Simd,
            runtime: RuntimeConfig {
                transport: simmpi::TransportKind::Socket(simmpi::SocketConfig {
                    addr: None,
                    threads: true,
                }),
                ..Default::default()
            },
            ..base
        });
        assert_eq!(opt.state_hash, socket.state_hash, "socket simd diverged");
    }

    /// `--variant auto`: the startup kernel autotune must produce a
    /// report and every rank must adopt its effective winner.
    #[test]
    fn kernel_autotune_runs_and_reports() {
        let rep = run(&Config {
            kernel_autotune: true,
            ..small_cfg()
        });
        let t = rep
            .runtime
            .kernel_autotune
            .as_ref()
            .expect("kernel autotune ran");
        assert_eq!(rep.runtime.kernel_variant, t.effective);
        assert!(!t.timings.is_empty());
        let text = rep.render();
        assert!(text.contains("Kernel autotune"));
        assert!(text.contains("kernel variant:"));
    }

    #[test]
    fn autotune_produces_fig7_rows() {
        let rep = run(&Config {
            method: None,
            autotune: AutotuneOptions {
                trials: 2,
                ..Default::default()
            },
            ..small_cfg()
        });
        let t = rep.runtime.autotune.expect("autotuned");
        assert_eq!(t.timings.len(), 3);
        let table = t.table("Nekbone");
        assert!(table.contains("pairwise exchange"));
        assert!(table.contains("crystal router"));
    }
}
