//! The mini-app driver: setup, autotune, and the instrumented timestep
//! loop.

use std::f64::consts::PI;
use std::time::Instant;

use cmt_core::face::{self, Face};
use cmt_core::kernels::autotune::{self as kernel_autotune, KernelAutotuneReport};
use cmt_core::kernels::{self, DerivDir};
use cmt_core::ops::{
    advect_volume_rhs, advect_volume_rhs_slices, upwind_face_correction, ElementGeom,
};
use cmt_core::poly::Basis;
use cmt_core::{rk, Field};
use cmt_gs::{autotune, AutotuneReport, GsHandle, GsMethod, GsOp};
use cmt_lb::{decide, gather_costs, migrate_blocks, CostModel};
use cmt_mesh::{face_exchange_gids_for, ElemPartition, MeshConfig, RankMesh};
use cmt_particles::{Particle, ParticleSet};
use cmt_perf::{MpipReport, Profiler};
use cmt_resilience::{hash, load_checkpoint, Checkpoint, Resilience};
use cmt_verify::Verifier;
use simmpi::{
    chunk_count, chunk_range, Rank, ReduceOp, SharedSliceMut, WireCodec, WireError, WireReader,
    World,
};
use std::sync::Arc;

use crate::config::{Config, Pipeline};
use crate::report::{LbSummary, RunReport};

/// Profiler region names used by the driver, mirroring the routines of
/// the paper's Fig. 4 call graph.
pub(crate) mod regions {
    /// The derivative (flux-divergence) kernel — the paper's `ax_`.
    pub const DERIV: &str = "ax_cmt (flux divergence derivs)";
    /// Surface extraction — the paper's `full2face_cmt`.
    pub const FULL2FACE: &str = "full2face_cmt";
    /// The gather-scatter surface exchange — the paper's `gs_op_`.
    pub const GS_OP: &str = "gs_op_ (numerical flux exchange)";
    /// Split-phase exchange start (gather + post sends/recvs). Nested
    /// under [`GS_OP`] so the parent row keeps the total exchange time.
    pub const GS_START: &str = "gs_op_start (post exchange)";
    /// Split-phase exchange finish (wait + combine + scatter).
    pub const GS_FINISH: &str = "gs_op_finish (wait + combine)";
    /// Upwind lifting of the exchanged fluxes back into the volume.
    pub const FLUX_LIFT: &str = "add_face2full (flux lift)";
    /// Runge-Kutta stage update.
    pub const RK: &str = "rk_stage_update";
    /// Timestep-control reduction.
    pub const CFL: &str = "cfl_allreduce";
    /// Dealiasing fine-mesh map (paper §V's second matmul workload).
    pub const DEALIAS: &str = "dealias (fine-mesh map)";
    /// BR1 viscous passes (gradient + viscous divergence).
    pub const VISCOUS: &str = "viscous_br1 (grad + div)";
    /// Whole setup phase (mesh + gs_setup + autotune).
    pub const SETUP: &str = "setup (gs_setup + autotune)";
    /// The whole timestep loop.
    pub const LOOP: &str = "timestep_loop";
}

/// Final state of one rank's fields, for validation against the serial
/// reference solver.
#[derive(Debug, Clone)]
pub struct SolutionDump {
    /// Global element id of each local element, in local order.
    pub global_elem_ids: Vec<usize>,
    /// Final per-field data, each in `Field` layout.
    pub fields: Vec<Vec<f64>>,
    /// Simulated time reached.
    pub time: f64,
    /// Timestep used.
    pub dt: f64,
}

struct RankOutput {
    profiler: Profiler,
    autotune: Option<AutotuneReport>,
    kernel_autotune: Option<KernelAutotuneReport>,
    chosen: GsMethod,
    checksum: f64,
    /// Global ids of the elements this rank finished owning, with their
    /// per-element state hashes — merged host-side in ascending-gid
    /// order so the run fingerprint is independent of the partition.
    elem_gids: Vec<u64>,
    elem_hashes: Vec<u64>,
    lb: Option<LbSummary>,
    wall_s: f64,
    modeled_s: f64,
    solution: Option<SolutionDump>,
}

// ---- wire codecs -----------------------------------------------------
// The socket transport ships each rank's measurement set back to the
// launcher as bytes, so everything in `RankOutput` needs a wire form.

impl WireCodec for SolutionDump {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.global_elem_ids.encode(buf);
        self.fields.encode(buf);
        self.time.encode(buf);
        self.dt.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SolutionDump {
            global_elem_ids: Vec::decode(r)?,
            fields: Vec::decode(r)?,
            time: f64::decode(r)?,
            dt: f64::decode(r)?,
        })
    }
}

impl WireCodec for LbSummary {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.rebalances.encode(buf);
        self.elems_moved.encode(buf);
        self.particles_moved.encode(buf);
        self.peak_imbalance.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LbSummary {
            rebalances: u64::decode(r)?,
            elems_moved: u64::decode(r)?,
            particles_moved: u64::decode(r)?,
            peak_imbalance: f64::decode(r)?,
        })
    }
}

impl WireCodec for RankOutput {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.profiler.encode(buf);
        self.autotune.encode(buf);
        self.kernel_autotune.encode(buf);
        self.chosen.encode(buf);
        self.checksum.encode(buf);
        self.elem_gids.encode(buf);
        self.elem_hashes.encode(buf);
        self.lb.encode(buf);
        self.wall_s.encode(buf);
        self.modeled_s.encode(buf);
        self.solution.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RankOutput {
            profiler: Profiler::decode(r)?,
            autotune: Option::decode(r)?,
            kernel_autotune: Option::decode(r)?,
            chosen: GsMethod::decode(r)?,
            checksum: f64::decode(r)?,
            elem_gids: Vec::decode(r)?,
            elem_hashes: Vec::decode(r)?,
            lb: Option::decode(r)?,
            wall_s: f64::decode(r)?,
            modeled_s: f64::decode(r)?,
            solution: Option::decode(r)?,
        })
    }
}

/// Hash one rank's final state element by element: each owned element's
/// bytes across every field, then its resident particles (ascending by
/// id). Per-element hashes are merged host-side in ascending global-id
/// order, so the combined fingerprint does not depend on which rank
/// ended up owning which element — the property the load-balancer
/// identity tests rely on.
fn hash_elements(
    u: &[Field],
    n3: usize,
    owned: &[usize],
    mut pset: Option<&mut ParticleSet>,
) -> (Vec<u64>, Vec<u64>) {
    let mut gids = Vec::with_capacity(owned.len());
    let mut hashes = Vec::with_capacity(owned.len());
    for (slot, &gid) in owned.iter().enumerate() {
        let mut h = hash::FNV_OFFSET;
        for f in u {
            hash::fnv1a_f64s(&mut h, &f.as_slice()[slot * n3..(slot + 1) * n3]);
        }
        if let Some(ps) = pset.as_mut() {
            let mut residents: Vec<Particle> = ps.residents_of(slot).to_vec();
            residents.sort_by_key(|p| p.id);
            for p in &residents {
                hash::fnv1a(&mut h, &p.id.to_le_bytes());
                hash::fnv1a_f64s(&mut h, &p.pos);
            }
        }
        gids.push(gid as u64);
        hashes.push(h);
    }
    (gids, hashes)
}

/// Flatten particles to checkpoint records (`[id, x, y, z]` per
/// particle).
fn particle_records(ps: &ParticleSet) -> Vec<f64> {
    let mut rec = Vec::with_capacity(ps.len() * 4);
    for p in ps.particles() {
        rec.push(p.id as f64);
        rec.extend_from_slice(&p.pos);
    }
    rec
}

/// Inverse of [`particle_records`].
fn particles_from_records(rec: &[f64]) -> Vec<Particle> {
    assert_eq!(rec.len() % 4, 0, "corrupt particle checkpoint record");
    rec.chunks_exact(4)
        .map(|c| Particle {
            id: c[0] as u64,
            pos: [c[1], c[2], c[3]],
        })
        .collect()
}

/// Capture this rank's loop state at the top of `step` (stage 0). With
/// the load balancer on, the scalars record the full element-owner
/// vector active at capture time (identical on every rank), so a
/// rollback — or a cross-run restart — can rebuild the partition the
/// fields were captured under. With particles on, their records ride
/// along as one extra field entry.
fn capture_checkpoint(
    rank: &Rank,
    step: u64,
    time: f64,
    u: &[Field],
    part: Option<&ElemPartition>,
    pset: Option<&ParticleSet>,
) -> Checkpoint {
    let mut scalars = Vec::new();
    if let Some(p) = part {
        scalars.reserve(p.total_elems());
        scalars.extend(p.owner_vec().iter().map(|&r| r as f64));
    }
    let mut fields: Vec<Vec<f64>> = u.iter().map(|f| f.as_slice().to_vec()).collect();
    if let Some(ps) = pset {
        fields.push(particle_records(ps));
    }
    Checkpoint {
        rank: rank.rank() as u64,
        step,
        stage: 0,
        time,
        rng_state: rank.fault_rng_state().unwrap_or(0),
        scalars,
        fields,
    }
}

/// The element partition a checkpoint was captured under, when one was
/// recorded (load balancer on).
fn checkpoint_partition(ckpt: &Checkpoint, ranks: usize) -> Option<ElemPartition> {
    if ckpt.scalars.is_empty() {
        return None;
    }
    let owner: Vec<u32> = ckpt.scalars.iter().map(|&r| r as u32).collect();
    Some(ElemPartition::from_owner(ranks, owner))
}

/// Restore the field state captured by [`capture_checkpoint`] (the
/// checkpoint may carry one trailing particle record beyond the field
/// set).
fn restore_fields(ckpt: &Checkpoint, u: &mut [Field]) {
    assert!(
        ckpt.fields.len() == u.len() || ckpt.fields.len() == u.len() + 1,
        "checkpoint holds {} fields, run has {}",
        ckpt.fields.len(),
        u.len()
    );
    for (uf, cf) in u.iter_mut().zip(&ckpt.fields) {
        assert_eq!(
            uf.as_slice().len(),
            cf.len(),
            "checkpoint field size mismatch"
        );
        uf.as_mut_slice().copy_from_slice(cf);
    }
}

/// Restore the clock and fault-RNG state captured by
/// [`capture_checkpoint`].
fn restore_clock(rank: &mut Rank, ckpt: &Checkpoint, time: &mut f64, step: &mut u64) {
    *time = ckpt.time;
    *step = ckpt.step;
    rank.set_fault_rng_state(ckpt.rng_state);
}

/// The smooth initial profile of proxy field `f` (periodic in the global
/// box of extents `lengths`).
fn initial_profile(f: usize, x: f64, y: f64, z: f64, lengths: [f64; 3]) -> f64 {
    let fx = 2.0 * PI * x / lengths[0];
    let fy = 2.0 * PI * y / lengths[1];
    let fz = 2.0 * PI * z / lengths[2];
    (fx + 0.3 * f as f64).sin() * fy.cos() + 0.25 * (fz + 0.7 * f as f64).cos()
}

/// Stable timestep mirroring [`cmt_core::solver::AdvectionSolver::stable_dt`]
/// (plus the diffusive limit when viscosity is on, as
/// [`cmt_core::diffusion::AdvDiffSolver::stable_dt`] computes it).
fn stable_dt(cfg: &Config, geom: &ElementGeom) -> f64 {
    let n2 = (cfg.n * cfg.n) as f64;
    let mut dt = f64::INFINITY;
    for axis in 0..3 {
        let h = geom.extent(axis);
        let c = cfg.velocity[axis].abs();
        if c > 0.0 {
            dt = dt.min(cfg.cfl * h / (n2 * c));
        }
        if let Some(nu) = cfg.viscosity {
            dt = dt.min(cfg.cfl * h * h / (n2 * n2 * nu));
        }
    }
    if dt.is_finite() {
        dt
    } else {
        cfg.cfl
    }
}

/// Per-rank invariants shared by the stage passes.
struct StageEnv<'a> {
    cfg: &'a Config,
    basis: &'a Basis,
    geom: &'a ElementGeom,
    handle: &'a GsHandle,
    chosen: GsMethod,
    nel: usize,
}

/// BR1 viscous workspace: the gradient fields plus per-axis face-trace
/// buffers (own and neighbor) for the q exchanges.
struct ViscousWs {
    nu: f64,
    q: [Field; 3],
    qown: [Vec<f64>; 3],
    qnbr: [Vec<f64>; 3],
}

/// Central-flux surface correction of the viscous divergence along one
/// axis. On entry `qnbr` holds the exchanged trace *sum* (own + neighbor);
/// it is reduced to the absolute neighbor trace in place, then the
/// correction is lifted into `rhs`.
#[allow(clippy::too_many_arguments)]
fn viscous_axis_correction(
    n: usize,
    nel: usize,
    axis: usize,
    lift: f64,
    nu: f64,
    qnbr: &mut [f64],
    qown: &[f64],
    rhs: &mut Field,
) {
    let fpe = face::face_values_per_element(n);
    let n2 = n * n;
    let n3 = n2 * n;
    for (nb, ow) in qnbr.iter_mut().zip(qown.iter()) {
        *nb -= ow;
    }
    for e in 0..nel {
        for fc in Face::ALL {
            if fc.axis() != axis {
                continue;
            }
            let sign = fc.sign() as f64;
            let off = e * fpe + fc.index() * n2;
            for p in 0..n2 {
                // F* - F_in = sign nu ((q_own+q_nbr)/2 - q_own)
                //           = sign nu (q_nbr - q_own)/2
                let corr = lift * sign * nu * 0.5 * (qnbr[off + p] - qown[off + p]);
                let vi = face::face_point_volume_index(n, fc, p);
                rhs.as_mut_slice()[e * n3 + vi] += corr;
            }
        }
    }
}

/// The BR1 viscous passes for one field: gradient with central traces,
/// then the viscous divergence with its q-trace exchange. Under the
/// blocking pipeline each axis runs its own blocking `gs_op` (3 exchanges
/// per field per stage); under the overlapped pipeline all three axis
/// traces go out in one batched split-phase exchange whose in-flight time
/// the three volume divergence derivatives overlap.
#[allow(clippy::too_many_arguments)]
fn viscous_pass(
    env: &StageEnv,
    rank: &mut Rank,
    prof: &mut Profiler,
    ws: &mut ViscousWs,
    uf: &Field,
    faces: &[f64],
    faces_own: &[f64],
    rhs: &mut Field,
    scratch: &mut Field,
) {
    let cfg = env.cfg;
    let (n, nel) = (cfg.n, env.nel);
    let (basis, geom) = (env.basis, env.geom);
    let fpe = face::face_values_per_element(n);
    let n2 = n * n;
    let n3 = n2 * n;
    let w_end = basis.weights[0];
    let nu = ws.nu;
    const AXES: [(usize, DerivDir); 3] = [(0, DerivDir::R), (1, DerivDir::S), (2, DerivDir::T)];

    prof.enter(regions::VISCOUS);
    // gradient volume part
    for (axis, dir) in AXES {
        kernels::deriv(
            cfg.variant,
            dir,
            n,
            nel,
            &basis.d,
            uf.as_slice(),
            ws.q[axis].as_mut_slice(),
        );
        ws.q[axis].scale(geom.dscale(axis));
    }
    // gradient lifting: q_a += lift * sign * (u* - u_in),
    // u* - u_in = (nbr - own)/2; `faces` holds the absolute neighbor
    // trace after the flux lift.
    for e in 0..nel {
        for fc in Face::ALL {
            let axis = fc.axis();
            let sign = fc.sign() as f64;
            let lift = geom.dscale(axis) / w_end;
            let off = e * fpe + fc.index() * n2;
            for p in 0..n2 {
                let jump = 0.5 * (faces[off + p] - faces_own[off + p]);
                let vi = face::face_point_volume_index(n, fc, p);
                ws.q[axis].as_mut_slice()[e * n3 + vi] += lift * sign * jump;
            }
        }
    }
    // viscous divergence: volume + central surface flux
    match cfg.pipeline {
        Pipeline::Blocking => {
            for (axis, dir) in AXES {
                kernels::deriv(
                    cfg.variant,
                    dir,
                    n,
                    nel,
                    &basis.d,
                    ws.q[axis].as_slice(),
                    scratch.as_mut_slice(),
                );
                rhs.axpy(nu * geom.dscale(axis), scratch);
                face::full2face(n, nel, ws.q[axis].as_slice(), &mut ws.qown[axis]);
                ws.qnbr[axis].copy_from_slice(&ws.qown[axis]);
                rank.set_context("faces_visc");
                env.handle
                    .gs_op(rank, &mut ws.qnbr[axis], GsOp::Add, env.chosen);
                rank.set_context("main");
                viscous_axis_correction(
                    n,
                    nel,
                    axis,
                    geom.dscale(axis) / w_end,
                    nu,
                    &mut ws.qnbr[axis],
                    &ws.qown[axis],
                    rhs,
                );
            }
        }
        Pipeline::Overlapped => {
            // extract all three axis traces and start one bundled exchange
            for axis in 0..3 {
                face::full2face(n, nel, ws.q[axis].as_slice(), &mut ws.qown[axis]);
            }
            let views: Vec<&[f64]> = ws.qown.iter().map(|v| v.as_slice()).collect();
            prof.enter(regions::GS_START);
            rank.set_context("faces_visc");
            let pending = env.handle.gs_op_start(rank, &views, GsOp::Add, env.chosen);
            rank.set_context("main");
            prof.exit();
            // overlap window: the three volume divergence derivatives
            for (axis, dir) in AXES {
                kernels::deriv(
                    cfg.variant,
                    dir,
                    n,
                    nel,
                    &basis.d,
                    ws.q[axis].as_slice(),
                    scratch.as_mut_slice(),
                );
                rhs.axpy(nu * geom.dscale(axis), scratch);
            }
            let mut outs: Vec<&mut [f64]> = ws.qnbr.iter_mut().map(|v| v.as_mut_slice()).collect();
            prof.enter(regions::GS_FINISH);
            rank.set_context("faces_visc");
            env.handle.gs_op_finish(rank, pending, &mut outs);
            rank.set_context("main");
            prof.exit();
            for axis in 0..3 {
                viscous_axis_correction(
                    n,
                    nel,
                    axis,
                    geom.dscale(axis) / w_end,
                    nu,
                    &mut ws.qnbr[axis],
                    &ws.qown[axis],
                    rhs,
                );
            }
        }
    }
    prof.exit();
}

/// One dealias round trip over `nel` elements: map `rhs` up to the
/// `m`-point fine mesh through `up` and back through `down`, in place.
/// `scratch` holds the contraction pair (at least `2 * max(m,n)^3`
/// values), so the step loop allocates nothing here.
#[allow(clippy::too_many_arguments)]
fn dealias_roundtrip(
    variant: cmt_core::KernelVariant,
    m: usize,
    n: usize,
    up: &[f64],
    down: &[f64],
    rhs: &mut [f64],
    fine: &mut [f64],
    nel: usize,
    scratch: &mut [f64],
) {
    let big3 = m.max(n).pow(3);
    let (t1, t2) = scratch[..2 * big3].split_at_mut(big3);
    kernels::tensor3_apply_scratch_variant(variant, m, n, up, rhs, fine, nel, t1, t2);
    kernels::tensor3_apply_scratch_variant(variant, n, m, down, fine, rhs, nel, t1, t2);
}

/// Everything on a rank that is sized by (and bound to) its current
/// element set: the solution fields, every scratch buffer, the
/// gather-scatter plan, and the hybrid-pool chunk geometry. A load
/// balancer migration replaces the whole block — the timestep loop only
/// ever sees a consistent one.
struct Block {
    /// Global ids of the owned elements, ascending — the local element
    /// order of every buffer below.
    owned: Vec<usize>,
    nel: usize,
    handle: GsHandle,
    u: Vec<Field>,
    u0: Vec<Field>,
    rhs_all: Vec<Field>,
    scratch: Field,
    faces_all: Vec<Vec<f64>>,
    faces_own_all: Vec<Vec<f64>>,
    /// Fine-mesh dealias buffer (empty when dealiasing is off); the
    /// interpolation matrices are partition-independent and live
    /// outside.
    dealias_fine: Vec<f64>,
    viscous: Option<ViscousWs>,
    pool_scratch: Vec<f64>,
    /// Dealias contraction scratch: one `(t1, t2)` pair of
    /// `max(m,n)^3` values per pool chunk, or a single pair without a
    /// pool (empty when dealiasing is off).
    dealias_scratch: Vec<f64>,
    grain: usize,
    n_chunks: usize,
}

/// Build the per-partition state block for an owned-element set. Fields
/// start zeroed — the caller fills them (initial condition, checkpoint
/// restore, or migration merge). The gather-scatter `handle` must have
/// been set up (collectively) for exactly this element set.
fn build_block(
    cfg: &Config,
    owned: Vec<usize>,
    handle: GsHandle,
    grain: usize,
    pool_on: bool,
) -> Block {
    let n = cfg.n;
    let nel = owned.len();
    let n3 = n * n * n;
    let fpe = face::face_values_per_element(n);
    let n_chunks = chunk_count(nel, grain);
    Block {
        owned,
        nel,
        handle,
        u: (0..cfg.fields).map(|_| Field::zeros(n, nel)).collect(),
        u0: (0..cfg.fields).map(|_| Field::zeros(n, nel)).collect(),
        rhs_all: (0..cfg.fields).map(|_| Field::zeros(n, nel)).collect(),
        scratch: Field::zeros(n, nel),
        faces_all: (0..cfg.fields).map(|_| vec![0.0; fpe * nel]).collect(),
        faces_own_all: (0..cfg.fields).map(|_| vec![0.0; fpe * nel]).collect(),
        dealias_fine: match cfg.dealias_m {
            Some(m) => vec![0.0; m * m * m * nel],
            None => Vec::new(),
        },
        viscous: cfg.viscosity.map(|nu| ViscousWs {
            nu,
            q: [
                Field::zeros(n, nel),
                Field::zeros(n, nel),
                Field::zeros(n, nel),
            ],
            qown: [
                vec![0.0; fpe * nel],
                vec![0.0; fpe * nel],
                vec![0.0; fpe * nel],
            ],
            qnbr: [
                vec![0.0; fpe * nel],
                vec![0.0; fpe * nel],
                vec![0.0; fpe * nel],
            ],
        }),
        pool_scratch: if pool_on {
            vec![0.0; n_chunks * grain * n3]
        } else {
            Vec::new()
        },
        dealias_scratch: match cfg.dealias_m {
            Some(m) => vec![0.0; if pool_on { n_chunks } else { 1 } * 2 * m.max(n).pow(3)],
            None => Vec::new(),
        },
        grain,
        n_chunks,
    }
}

fn rank_main(rank: &mut Rank, cfg: &Config, mesh_cfg: &MeshConfig, collect: bool) -> RankOutput {
    let start = Instant::now();
    let mut prof = Profiler::new();
    let n = cfg.n;
    let basis = Basis::new(n);
    let geom = ElementGeom::cube(1.0); // unit-cube elements
    let lengths = {
        let ge = mesh_cfg.global_elems();
        [ge[0] as f64, ge[1] as f64, ge[2] as f64]
    };

    // ---- restart checkpoint loads first ------------------------------
    // With the load balancer on, a checkpoint records the partition its
    // fields were captured under; the collective gather-scatter setup
    // below must run on that partition, so the load happens before any
    // plan is built.
    let restart_ckpt = cfg.restart_from.as_ref().map(|dir| {
        load_checkpoint(dir, rank.rank())
            .unwrap_or_else(|e| panic!("rank {}: restart: {e}", rank.rank()))
    });
    let mut part = restart_ckpt
        .as_ref()
        .and_then(|c| checkpoint_partition(c, rank.size()))
        .unwrap_or_else(|| ElemPartition::initial(mesh_cfg));

    // ---- setup: partition, gs discovery, autotune ---------------------
    prof.enter(regions::SETUP);
    let owned0 = part.owned_by(rank.rank());
    let gids = face_exchange_gids_for(mesh_cfg, owned0);
    let handle = GsHandle::setup(rank, &gids);
    let (chosen, tune_report) = match cfg.method {
        Some(m) => (m, None),
        None => {
            let rep = autotune(rank, &handle, cfg.autotune);
            (rep.chosen, Some(rep))
        }
    };
    // Kernel autotune (`--variant auto`): time every variant × chunk
    // grain on this rank's shape, average across ranks (the gs-autotune
    // protocol), and let every rank pick the same winner.
    let kernel_tune = cfg
        .kernel_autotune
        .then(|| kernel_autotune::tune(rank, n, owned0.len(), &basis.d));
    prof.exit();

    // Effective config: the kernel autotune overrides the requested
    // variant; everything downstream reads the resolved choice.
    let mut cfg_eff = cfg.clone();
    if let Some(t) = &kernel_tune {
        cfg_eff.variant = t.effective;
    }
    let cfg = &cfg_eff;

    // ---- per-partition state block ------------------------------------
    // The pooled element loops call the same kernels on disjoint
    // contiguous element ranges, so results are bitwise identical for
    // every worker count; all scratch lives in the block, sized once per
    // partition, keeping the steady state allocation-free.
    let n3 = n * n * n;
    let pool = rank.worker_pool();
    let pool_on = pool.is_some();
    let workers = rank.workers();
    let fixed_grain = kernel_tune.as_ref().map(|t| t.chosen.grain);
    let grain_for = |nel: usize| fixed_grain.unwrap_or_else(|| nel.div_ceil(workers * 4).max(1));
    let grain0 = grain_for(owned0.len());
    let mut blk = build_block(cfg, owned0.to_vec(), handle, grain0, pool_on);
    for f in 0..cfg.fields {
        let owned = &blk.owned;
        let vals = Field::from_fn(n, blk.nel, |e, i, j, k| {
            let gc = mesh_cfg.elem_coords(owned[e]);
            let x = gc[0] as f64 + (basis.nodes[i] + 1.0) / 2.0;
            let y = gc[1] as f64 + (basis.nodes[j] + 1.0) / 2.0;
            let z = gc[2] as f64 + (basis.nodes[k] + 1.0) / 2.0;
            initial_profile(f, x, y, z, lengths)
        });
        blk.u[f] = vals;
    }
    let dt = stable_dt(cfg, &geom);

    // Dealiasing operators: interpolation to the m-point fine mesh and
    // back (paper §V: "an element is first mapped to a finer mesh and
    // later mapped back"). Partition-independent, so they outlive any
    // migration.
    let dealias_ops = cfg
        .dealias_m
        .map(|m| (m, basis.dealias_to(m), basis.dealias_from(m)));

    // ---- particles -----------------------------------------------------
    let mut pset = (cfg.particles_per_elem > 0).then(|| {
        let pmesh = RankMesh::new(mesh_cfg.clone(), rank.rank());
        let mut ps = ParticleSet::new(pmesh, &basis);
        ps.set_partition(part.clone());
        match cfg.particle_cluster {
            Some(frac) => ps.seed_clustered(cfg.particles_per_elem, frac),
            None => ps.seed_uniform(cfg.particles_per_elem),
        }
        ps
    });

    // ---- load balancer: cost model + activity counters -----------------
    let model = CostModel::for_shape(n, cfg.fields);
    let mut lb_rebalances: u64 = 0;
    let mut lb_elems_moved: u64 = 0;
    let mut lb_particles_moved: u64 = 0;
    let mut lb_peak_imbalance: f64 = 0.0;

    // ---- resilience: restart, then checkpoint/recover in the loop -----
    let mut rz = Resilience::new(cfg.checkpoint_every as u64, cfg.checkpoint_dir.clone());
    let mut time = 0.0;
    let mut step: u64 = 0;
    if let Some(ck) = &restart_ckpt {
        restore_fields(ck, &mut blk.u);
        if let Some(ps) = pset.as_mut() {
            assert_eq!(
                ck.fields.len(),
                cfg.fields + 1,
                "restart checkpoint has no particle record"
            );
            ps.set_particles(particles_from_records(&ck.fields[cfg.fields]));
        }
        restore_clock(rank, ck, &mut time, &mut step);
    }

    // ---- timestep loop --------------------------------------------------
    prof.enter(regions::LOOP);
    let steps = cfg.steps as u64;
    while step < steps {
        // Checkpoint at the top of the step, before any kill scheduled
        // here can fire, so a kill at step s rolls back to a capture
        // taken at (or before) s.
        if rz.checkpoint_due(step) {
            prof.enter(cmt_perf::regions::CHECKPOINT);
            rz.save(
                rank,
                &capture_checkpoint(
                    rank,
                    step,
                    time,
                    &blk.u,
                    (cfg.lb_every > 0).then_some(&part),
                    pset.as_ref(),
                ),
            );
            prof.exit();
        }
        // Scheduled rank kills: SPMD-known, so every rank detects them
        // without communication and runs the coordinated rollback.
        let killed = rz.killed_at(rank, step);
        if !killed.is_empty() {
            prof.enter(cmt_perf::regions::RECOVERY);
            let back = rz.recover(rank, &killed);
            if let Some(ck_part) = checkpoint_partition(&back, rank.size()) {
                if ck_part.owner_vec() != part.owner_vec() {
                    // The rollback target predates a rebalance: rebuild
                    // this rank's block on the checkpoint's partition.
                    // The owner vector is identical on every rank
                    // (captured from SPMD-uniform state), so the
                    // collective gather-scatter setup is safe here.
                    let owned = ck_part.owned_by(rank.rank());
                    let gids = face_exchange_gids_for(mesh_cfg, owned);
                    let new_handle = GsHandle::setup(rank, &gids);
                    let grain = grain_for(owned.len());
                    blk = build_block(cfg, owned.to_vec(), new_handle, grain, pool_on);
                    if let Some(ps) = pset.as_mut() {
                        ps.set_partition(ck_part.clone());
                    }
                    part = ck_part;
                }
            }
            restore_fields(&back, &mut blk.u);
            if let Some(ps) = pset.as_mut() {
                ps.set_particles(particles_from_records(&back.fields[cfg.fields]));
            }
            restore_clock(rank, &back, &mut time, &mut step);
            prof.exit();
            continue;
        }
        {
            let Block {
                nel,
                handle,
                u,
                u0,
                rhs_all,
                scratch,
                faces_all,
                faces_own_all,
                dealias_fine,
                viscous,
                pool_scratch,
                dealias_scratch,
                grain,
                n_chunks,
                ..
            } = &mut blk;
            let (nel, grain, n_chunks) = (*nel, *grain, *n_chunks);
            let handle: &GsHandle = handle;
            let env = StageEnv {
                cfg,
                basis: &basis,
                geom: &geom,
                handle,
                chosen,
                nel,
            };
            for (uf, u0f) in u.iter().zip(u0.iter_mut()) {
                u0f.as_mut_slice().copy_from_slice(uf.as_slice());
            }
            for stage in 0..rk::STAGES {
                match cfg.pipeline {
                    // ---- legacy schedule: one blocking exchange per field ----
                    Pipeline::Blocking => {
                        for f in 0..cfg.fields {
                            let rhs = &mut rhs_all[f];
                            let faces = &mut faces_all[f];
                            let faces_own = &mut faces_own_all[f];

                            // (1) flux divergence: the small-matrix-multiply kernel
                            prof.enter(regions::DERIV);
                            advect_volume_rhs(
                                cfg.variant,
                                &basis,
                                &geom,
                                cfg.velocity,
                                &u[f],
                                rhs,
                                scratch,
                            );
                            prof.exit();

                            // (1b) dealiasing round-trip on the RHS (identity on
                            // the resolved polynomial content; pure kernel
                            // workload)
                            if let Some((m, up, down)) = dealias_ops.as_ref() {
                                prof.enter(regions::DEALIAS);
                                dealias_roundtrip(
                                    cfg.variant,
                                    *m,
                                    n,
                                    up,
                                    down,
                                    rhs.as_mut_slice(),
                                    dealias_fine,
                                    nel,
                                    dealias_scratch,
                                );
                                prof.exit();
                            }

                            // (2) surface extraction
                            prof.enter(regions::FULL2FACE);
                            face::full2face(n, nel, u[f].as_slice(), faces);
                            faces_own.copy_from_slice(faces);
                            prof.exit();

                            // (3) numerical flux: nearest-neighbor exchange. The
                            // face-exchange ids pair each face point with exactly
                            // its across-face twin, so Add recovers own + neighbor.
                            prof.enter(regions::GS_OP);
                            rank.set_context("faces");
                            handle.gs_op(rank, faces, GsOp::Add, chosen);
                            rank.set_context("main");
                            prof.exit();

                            // (4) upwind lifting: neighbor trace = sum - own
                            prof.enter(regions::FLUX_LIFT);
                            for (s, o) in faces.iter_mut().zip(faces_own.iter()) {
                                *s -= o;
                            }
                            upwind_face_correction(
                                &basis,
                                &geom,
                                cfg.velocity,
                                faces_own,
                                faces,
                                rhs,
                            );
                            prof.exit();

                            // (4v) viscous BR1 passes
                            if let Some(ws) = viscous.as_mut() {
                                viscous_pass(
                                    &env,
                                    rank,
                                    &mut prof,
                                    ws,
                                    &u[f],
                                    &faces_all[f],
                                    &faces_own_all[f],
                                    &mut rhs_all[f],
                                    scratch,
                                );
                            }

                            // (5) RK stage update
                            prof.enter(regions::RK);
                            rk::stage_update(stage, &mut u[f], &u0[f], &rhs_all[f], dt);
                            prof.exit();
                        }
                    }

                    // ---- split-phase schedule: batch, start, overlap, finish ----
                    Pipeline::Overlapped => {
                        // (1) surface extraction for every field up front
                        prof.enter(regions::FULL2FACE);
                        for f in 0..cfg.fields {
                            face::full2face(n, nel, u[f].as_slice(), &mut faces_all[f]);
                            faces_own_all[f].copy_from_slice(&faces_all[f]);
                        }
                        prof.exit();

                        // (2) start ONE exchange carrying all fields (a k-field
                        // payload per neighbor: `fields`x fewer messages than the
                        // blocking schedule). The slice-view list is assembled
                        // before the region opens so its allocation never counts
                        // against the exchange.
                        let views: Vec<&[f64]> = faces_all.iter().map(|v| v.as_slice()).collect();
                        prof.enter(regions::GS_OP);
                        prof.enter(regions::GS_START);
                        rank.set_context("faces");
                        let pending = handle.gs_op_start(rank, &views, GsOp::Add, chosen);
                        rank.set_context("main");
                        prof.exit();
                        prof.exit();

                        // (3) overlap window: every field's volume work (flux
                        // divergence + dealias) runs while the face messages are
                        // in flight. With `--workers`, the element loop of each
                        // kernel is shared across the rank's work-stealing pool —
                        // compute fills the same in-flight window, just on more
                        // cores. Chunks write disjoint element ranges and nothing
                        // is reduced across chunks, so the result is bitwise
                        // identical to the serial path.
                        for f in 0..cfg.fields {
                            prof.enter(regions::DERIV);
                            if let Some(pool) = &pool {
                                let us = u[f].as_slice();
                                let rhs_sh = SharedSliceMut::new(rhs_all[f].as_mut_slice());
                                let scr_sh = SharedSliceMut::new(&mut pool_scratch[..]);
                                pool.run(n_chunks, &|c| {
                                    let (lo, hi) = chunk_range(nel, grain, c);
                                    // SAFETY: chunk ranges partition 0..nel and
                                    // each chunk owns slab c of the scratch, so
                                    // every range below is touched by one chunk.
                                    let rhs_c = unsafe { rhs_sh.range_mut(lo * n3, hi * n3) };
                                    let scr_c = unsafe {
                                        scr_sh
                                            .range_mut(c * grain * n3, (c * grain + (hi - lo)) * n3)
                                    };
                                    advect_volume_rhs_slices(
                                        cfg.variant,
                                        &basis,
                                        &geom,
                                        cfg.velocity,
                                        n,
                                        hi - lo,
                                        &us[lo * n3..hi * n3],
                                        rhs_c,
                                        scr_c,
                                    );
                                });
                                let (wa, wb) = pool.drain_worker_allocs();
                                prof.charge_allocs(wa, wb);
                            } else {
                                advect_volume_rhs(
                                    cfg.variant,
                                    &basis,
                                    &geom,
                                    cfg.velocity,
                                    &u[f],
                                    &mut rhs_all[f],
                                    scratch,
                                );
                            }
                            prof.exit();
                            if let Some((m, up, down)) = dealias_ops.as_ref() {
                                let fine = &mut *dealias_fine;
                                prof.enter(regions::DEALIAS);
                                if let Some(pool) = &pool {
                                    let (m, up, down): (usize, &[f64], &[f64]) = (*m, up, down);
                                    let m3 = m * m * m;
                                    let big3 = m.max(n).pow(3);
                                    let rhs_sh = SharedSliceMut::new(rhs_all[f].as_mut_slice());
                                    let fine_sh = SharedSliceMut::new(&mut fine[..]);
                                    let t_sh = SharedSliceMut::new(&mut dealias_scratch[..]);
                                    pool.run(n_chunks, &|c| {
                                        let (lo, hi) = chunk_range(nel, grain, c);
                                        let nel_c = hi - lo;
                                        // SAFETY: disjoint element ranges per
                                        // chunk; slab c of the scratch is private.
                                        let rhs_c = unsafe { rhs_sh.range_mut(lo * n3, hi * n3) };
                                        let fine_c = unsafe { fine_sh.range_mut(lo * m3, hi * m3) };
                                        let ts = unsafe {
                                            t_sh.range_mut(2 * c * big3, 2 * (c + 1) * big3)
                                        };
                                        dealias_roundtrip(
                                            cfg.variant,
                                            m,
                                            n,
                                            up,
                                            down,
                                            rhs_c,
                                            fine_c,
                                            nel_c,
                                            ts,
                                        );
                                    });
                                    let (wa, wb) = pool.drain_worker_allocs();
                                    prof.charge_allocs(wa, wb);
                                } else {
                                    dealias_roundtrip(
                                        cfg.variant,
                                        *m,
                                        n,
                                        up,
                                        down,
                                        rhs_all[f].as_mut_slice(),
                                        fine,
                                        nel,
                                        dealias_scratch,
                                    );
                                }
                                prof.exit();
                            }
                        }

                        // (4) finish: wait, fold remote contributions, scatter
                        // (view list built outside the region, as at start)
                        let mut outs: Vec<&mut [f64]> =
                            faces_all.iter_mut().map(|v| v.as_mut_slice()).collect();
                        prof.enter(regions::GS_OP);
                        prof.enter(regions::GS_FINISH);
                        rank.set_context("faces");
                        handle.gs_op_finish(rank, pending, &mut outs);
                        rank.set_context("main");
                        prof.exit();
                        prof.exit();

                        // (5) per-field lift + viscous + RK
                        for f in 0..cfg.fields {
                            prof.enter(regions::FLUX_LIFT);
                            let faces = &mut faces_all[f];
                            let faces_own = &faces_own_all[f];
                            for (s, o) in faces.iter_mut().zip(faces_own.iter()) {
                                *s -= o;
                            }
                            upwind_face_correction(
                                &basis,
                                &geom,
                                cfg.velocity,
                                faces_own,
                                faces,
                                &mut rhs_all[f],
                            );
                            prof.exit();

                            if let Some(ws) = viscous.as_mut() {
                                viscous_pass(
                                    &env,
                                    rank,
                                    &mut prof,
                                    ws,
                                    &u[f],
                                    &faces_all[f],
                                    &faces_own_all[f],
                                    &mut rhs_all[f],
                                    scratch,
                                );
                            }

                            prof.enter(regions::RK);
                            rk::stage_update(stage, &mut u[f], &u0[f], &rhs_all[f], dt);
                            prof.exit();
                        }
                    }
                }
            }
            time += dt;

            // ---- particle phase: advect in the end-of-step field, migrate --
            // Interpolation is per-element with identical arithmetic on every
            // partition, and the migrated set is sorted by particle id — the
            // phase is bitwise partition-independent, like the field physics.
            if let Some(ps) = pset.as_mut() {
                prof.enter(cmt_perf::regions::PARTICLE_ADVECT);
                ps.advect_field(dt, [&u[0], &u[1 % cfg.fields], &u[2 % cfg.fields]]);
                prof.exit();
                prof.enter(cmt_perf::regions::PARTICLE_MIGRATE);
                let moved = ps.migrate(rank);
                lb_particles_moved += moved.sent as u64;
                prof.exit();
            }

            // (6) vector reduction: timestep control
            if (step + 1) % cfg.cfl_interval as u64 == 0 {
                prof.enter(regions::CFL);
                rank.set_context("cfl");
                let local_max = u.iter().fold(0.0f64, |m, f| m.max(f.norm_inf()));
                let _global_max = rank.allreduce_scalar(local_max, ReduceOp::Max);
                rank.set_context("main");
                prof.exit();
            }
        }
        step += 1;

        // ---- load balancer: monitor (and maybe migrate) ----------------
        // Runs between steps on SPMD-uniform inputs (one allgather), so
        // every rank reaches the identical decision with no extra
        // synchronization. Skipped after the last step: there is no work
        // left to balance.
        if cfg.lb_every > 0 && step % cfg.lb_every as u64 == 0 && step < steps {
            prof.enter(cmt_perf::regions::LB_MONITOR);
            let ps = pset.as_mut().expect("validate(): lb requires particles");
            let counts = ps.counts_per_owned();
            let delay_us = rank.injected_delay_us();
            let global = gather_costs(rank, &part, &counts, delay_us);
            let decision = decide(&model, &part, &global, cfg.lb_threshold);
            lb_peak_imbalance = lb_peak_imbalance.max(decision.imbalance);
            prof.exit();
            if let Some(owners) = decision.owners {
                prof.enter(cmt_perf::regions::LB_MIGRATE);
                let new_part = ElemPartition::from_owner(rank.size(), owners);
                let me = rank.rank();
                // Drain departing residents first, keyed by gid, so the
                // element pack below can ship them with their element.
                let dep: std::collections::HashMap<usize, Vec<Particle>> = ps
                    .split_off_elems(|gid| new_part.owner_of(gid) != me)
                    .into_iter()
                    .collect();
                let shipped: usize = dep.values().map(|v| v.len()).sum();
                // Rebuild the block on the new partition first (collective
                // gs setup — every rank is here, by the SPMD argument
                // above), so arrivals can unpack straight into it.
                let owned = new_part.owned_by(me);
                let gids = face_exchange_gids_for(mesh_cfg, owned);
                let new_handle = GsHandle::setup(rank, &gids);
                let grain = grain_for(owned.len());
                let mut nb = build_block(cfg, owned.to_vec(), new_handle, grain, pool_on);
                // Kept elements copy over; gained elements are written by
                // the unpack callback below, each placed at its new local
                // slot as its frame is walked — no intermediate copy.
                for (slot, &gid) in nb.owned.iter().enumerate() {
                    if part.owner_of(gid) == me {
                        let (_, old_slot) = part.slot_of(gid);
                        for (nf, of) in nb.u.iter_mut().zip(blk.u.iter()) {
                            nf.as_mut_slice()[slot * n3..(slot + 1) * n3].copy_from_slice(
                                &of.as_slice()[old_slot * n3..(old_slot + 1) * n3],
                            );
                        }
                    }
                }
                let u_old = &blk.u;
                let mut gained = 0usize;
                let mstats = migrate_blocks(
                    rank,
                    &part,
                    &new_part,
                    |gid| {
                        let (_, slot) = part.slot_of(gid);
                        let res = dep.get(&gid).map(|v| v.as_slice()).unwrap_or(&[]);
                        let mut vals = Vec::with_capacity(cfg.fields * n3 + 1 + res.len() * 4);
                        for uf in u_old {
                            vals.extend_from_slice(&uf.as_slice()[slot * n3..(slot + 1) * n3]);
                        }
                        vals.push(res.len() as f64);
                        for p in res {
                            vals.push(p.id as f64);
                            vals.extend_from_slice(&p.pos);
                        }
                        vals
                    },
                    |gid, data| {
                        assert_ne!(part.owner_of(gid), me, "arrival for a kept element");
                        let (owner, slot) = new_part.slot_of(gid);
                        assert_eq!(owner, me, "migration routing mismatch");
                        gained += 1;
                        for (f, nf) in nb.u.iter_mut().enumerate() {
                            nf.as_mut_slice()[slot * n3..(slot + 1) * n3]
                                .copy_from_slice(&data[f * n3..(f + 1) * n3]);
                        }
                        let npart = data[cfg.fields * n3] as usize;
                        let rec = &data[cfg.fields * n3 + 1..];
                        assert_eq!(rec.len(), npart * 4, "corrupt migrated particle record");
                        for c in rec.chunks_exact(4) {
                            ps.insert(Particle {
                                id: c[0] as u64,
                                pos: [c[1], c[2], c[3]],
                            });
                        }
                    },
                );
                let expected_gained = nb
                    .owned
                    .iter()
                    .filter(|&&gid| part.owner_of(gid) != me)
                    .count();
                assert_eq!(gained, expected_gained, "unconsumed migration arrivals");
                ps.set_partition(new_part.clone());
                blk = nb;
                part = new_part;
                lb_rebalances += 1;
                lb_elems_moved += mstats.elems_sent as u64;
                lb_particles_moved += shipped as u64;
                prof.exit();
            }
        }
    }
    prof.exit();

    // Determinism checksum: global sum over all fields. (Unlike the
    // state hash this groups the sum by rank, so it is *not* bitwise
    // partition-independent — the LB identity tests compare hashes.)
    let local_sum: f64 = blk.u.iter().map(|f| f.sum()).sum();
    rank.set_context("checksum");
    let checksum = rank.allreduce_scalar(local_sum, ReduceOp::Sum);
    rank.set_context("main");

    let (elem_gids, elem_hashes) = hash_elements(&blk.u, n3, &blk.owned, pset.as_mut());

    // Finalize-time verification sweep (leaked messages, abandoned
    // exchanges), timed as its own region so overhead comparisons can
    // isolate the checker's cost. `World::run` would run the sweep
    // anyway; doing it here puts it on this rank's profile.
    if rank.verifying() {
        prof.enter(cmt_perf::regions::VERIFY);
        rank.verify_finalize();
        prof.exit();
    }

    let solution = collect.then(|| SolutionDump {
        global_elem_ids: blk.owned.clone(),
        fields: blk.u.iter().map(|f| f.as_slice().to_vec()).collect(),
        time,
        dt,
    });

    let lb = (cfg.lb_every > 0).then_some(LbSummary {
        rebalances: lb_rebalances,
        elems_moved: lb_elems_moved,
        particles_moved: lb_particles_moved,
        peak_imbalance: lb_peak_imbalance,
    });

    RankOutput {
        profiler: prof,
        autotune: tune_report,
        kernel_autotune: kernel_tune,
        chosen,
        checksum,
        elem_gids,
        elem_hashes,
        lb,
        wall_s: start.elapsed().as_secs_f64(),
        modeled_s: rank.modeled_time_s(),
        solution,
    }
}

fn run_inner(cfg: &Config, collect: bool) -> (RunReport, Vec<SolutionDump>) {
    cfg.validate().expect("invalid CMT-bone configuration");
    let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
    let mut world = match cfg.net {
        Some(net) => World::with_network(net),
        None => World::new(),
    };
    world = world
        .with_pooling(cfg.pool)
        .with_workers(cfg.workers)
        .with_worker_alloc_counters(cmt_perf::alloc::thread_counts);
    if let Some(plan) = &cfg.fault_plan {
        world = world.with_fault_plan(plan.clone());
    }
    if let Some(seed) = cfg.chaos_sched {
        world = world.with_chaos_sched(seed);
    }
    let verifier = cfg.verify.then(|| Arc::new(Verifier::new()));
    if let Some(v) = &verifier {
        world = world.with_verifier(v.clone());
    }
    world = world.with_transport(cfg.transport.clone());
    // run_dist: inproc worlds run rank threads exactly as before; socket
    // worlds spawn one child process per rank (or run this process's
    // single rank and exit, when the launcher spawned us).
    let result = world.run_dist(cfg.ranks, |rank| rank_main(rank, cfg, &mesh_cfg, collect));

    let mut merged = Profiler::new();
    let mut autotune_rep = None;
    let mut kernel_autotune_rep = None;
    let mut chosen = None;
    let mut checksum = f64::NAN;
    let mut elem_pairs: Vec<(u64, u64)> = Vec::new();
    let mut lb_total: Option<LbSummary> = None;
    let mut rank_wall = Vec::with_capacity(cfg.ranks);
    let mut rank_compute = Vec::with_capacity(cfg.ranks);
    let mut modeled = Vec::with_capacity(cfg.ranks);
    let mut dumps = Vec::new();
    // The physics regions the load balancer redistributes; their summed
    // self time per rank is the compute side of the critical path.
    const COMPUTE_REGIONS: &[&str] = &[
        regions::DERIV,
        regions::FULL2FACE,
        regions::FLUX_LIFT,
        regions::RK,
        regions::DEALIAS,
        regions::VISCOUS,
        cmt_perf::regions::PARTICLE_ADVECT,
    ];
    for out in result.results {
        let rank_report = out.profiler.report();
        rank_compute.push(
            rank_report
                .flat
                .iter()
                .filter(|(name, _)| COMPUTE_REGIONS.contains(&name.as_str()))
                .map(|(_, s)| s.self_s())
                .sum::<f64>(),
        );
        merged.merge(&out.profiler);
        if out.autotune.is_some() && autotune_rep.is_none() {
            autotune_rep = out.autotune;
        }
        if out.kernel_autotune.is_some() && kernel_autotune_rep.is_none() {
            kernel_autotune_rep = out.kernel_autotune;
        }
        chosen.get_or_insert(out.chosen);
        checksum = out.checksum; // identical on every rank
        elem_pairs.extend(
            out.elem_gids
                .iter()
                .copied()
                .zip(out.elem_hashes.iter().copied()),
        );
        if let Some(l) = out.lb {
            let t = lb_total.get_or_insert_with(LbSummary::default);
            // rebalances and the peak are SPMD-identical across ranks;
            // the traffic counters are per-rank and sum
            t.rebalances = t.rebalances.max(l.rebalances);
            t.peak_imbalance = t.peak_imbalance.max(l.peak_imbalance);
            t.elems_moved += l.elems_moved;
            t.particles_moved += l.particles_moved;
        }
        rank_wall.push(out.wall_s);
        modeled.push(out.modeled_s);
        if let Some(d) = out.solution {
            dumps.push(d);
        }
    }
    // Combine the per-element hashes host-side in ascending global-id
    // order: the fingerprint is then independent of which rank owned
    // which element at the end of the run.
    elem_pairs.sort_unstable_by_key(|&(gid, _)| gid);
    let mut state_hash = hash::FNV_OFFSET;
    for (gid, h) in &elem_pairs {
        hash::fnv1a(&mut state_hash, &gid.to_le_bytes());
        hash::fnv1a(&mut state_hash, &h.to_le_bytes());
    }
    // The variant that actually ran: the autotune winner under
    // `--variant auto`, otherwise the configured variant resolved for
    // this n; the ISA only applies to the simd tier.
    let kernel_variant = kernel_autotune_rep
        .as_ref()
        .map(|t: &KernelAutotuneReport| t.effective)
        .unwrap_or_else(|| cfg.variant.resolve(cfg.n));
    let report = RunReport {
        mesh_summary: mesh_cfg.summary(),
        mesh: mesh_cfg,
        chosen_method: chosen.expect("at least one rank"),
        autotune: autotune_rep,
        kernel_autotune: kernel_autotune_rep,
        kernel_variant,
        kernel_isa: kernel_variant.isa_label(),
        profile: merged.report(),
        comm: MpipReport::from_stats(&result.stats),
        rank_wall_s: rank_wall,
        rank_compute_s: rank_compute,
        modeled_comm_s: modeled,
        checksum,
        state_hash,
        lb: lb_total,
        steps: cfg.steps,
        fields: cfg.fields,
        verify: verifier.map(|v| v.findings()),
    };
    (report, dumps)
}

/// Execute the mini-app and collect the full measurement set.
pub fn run(cfg: &Config) -> RunReport {
    run_inner(cfg, false).0
}

/// Execute the mini-app and additionally return every rank's final fields
/// (rank order), for validation against the serial reference solver.
pub fn run_collecting_solution(cfg: &Config) -> (RunReport, Vec<SolutionDump>) {
    run_inner(cfg, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_core::solver::{AdvectionConfig, AdvectionSolver};
    use cmt_core::KernelVariant;

    fn small_cfg() -> Config {
        Config {
            n: 5,
            elems_per_rank: 8,
            ranks: 4,
            steps: 4,
            fields: 2,
            cfl_interval: 2,
            ..Default::default()
        }
    }

    #[test]
    fn run_is_deterministic() {
        // Force the method: the autotuned choice is timing-dependent, but
        // a fixed method must yield a bitwise-identical checksum.
        let cfg = Config {
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert!(a.checksum.is_finite());
        assert_eq!(a.checksum, b.checksum, "checksum not deterministic");
        assert_eq!(a.chosen_method, GsMethod::PairwiseExchange);
    }

    /// The hybrid MPI+workers overlap window must not change a single
    /// bit: chunked element loops reuse the serial kernels on disjoint
    /// subslices, so state hash and checksum are invariant in the worker
    /// count (with and without dealiasing).
    #[test]
    fn hybrid_workers_are_bitwise_identical_to_serial() {
        for dealias_m in [None, Some(7)] {
            let cfg = Config {
                method: Some(GsMethod::PairwiseExchange),
                dealias_m,
                ..small_cfg()
            };
            let serial = run(&cfg);
            for workers in [2, 4] {
                let hybrid = run(&Config {
                    workers,
                    ..cfg.clone()
                });
                assert_eq!(
                    serial.state_hash, hybrid.state_hash,
                    "state diverged with {workers} workers (dealias {dealias_m:?})"
                );
                assert_eq!(serial.checksum, hybrid.checksum);
            }
        }
    }

    /// The simd tier's end-to-end contract: runtime-dispatched
    /// lane-parallel kernels must not change a single bit relative to
    /// the scalar `opt` run — on both transports, under the dynamic
    /// checker, and through a kill + rollback recovery.
    #[test]
    fn simd_variant_is_bitwise_identical_to_opt() {
        let base = Config {
            method: Some(GsMethod::PairwiseExchange),
            dealias_m: Some(7),
            ..small_cfg()
        };
        let opt = run(&base);
        let simd_cfg = Config {
            variant: KernelVariant::Simd,
            ..base.clone()
        };
        let simd = run(&simd_cfg);
        assert_eq!(opt.state_hash, simd.state_hash, "simd diverged from opt");
        assert_eq!(opt.checksum, simd.checksum);
        assert_eq!(simd.kernel_variant, KernelVariant::Simd);
        assert!(["avx2", "sse2", "scalar"].contains(&simd.kernel_isa));
        assert!(simd.render().contains(&format!(
            "kernel variant: simd (effective isa: {})",
            simd.kernel_isa
        )));

        // multi-process socket backend (thread mode): same bits
        let socket = run(&Config {
            transport: simmpi::TransportKind::Socket(simmpi::SocketConfig {
                addr: None,
                threads: true,
            }),
            ..simd_cfg.clone()
        });
        assert_eq!(opt.state_hash, socket.state_hash, "socket simd diverged");
        assert_eq!(socket.kernel_isa, simd.kernel_isa);

        // verified run stays clean and identical
        let verified = run(&Config {
            verify: true,
            ..simd_cfg.clone()
        });
        assert_eq!(opt.state_hash, verified.state_hash);
        assert!(verified.verify.as_ref().is_some_and(|f| f.is_empty()));

        // kill + rollback recovery lands on the same bits
        let ckpt = Config {
            steps: 8,
            checkpoint_every: 2,
            ..simd_cfg
        };
        let clean = run(&ckpt);
        let recovered = run(&Config {
            fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=2,step=5").unwrap()),
            ..ckpt
        });
        assert_eq!(
            clean.state_hash, recovered.state_hash,
            "simd recovery diverged"
        );
    }

    /// `--variant auto`: the startup kernel autotune must produce a
    /// report, pick a resolved (effective) variant, and leave the run
    /// numerically sane.
    #[test]
    fn kernel_autotune_runs_and_reports() {
        let cfg = Config {
            kernel_autotune: true,
            method: Some(GsMethod::PairwiseExchange),
            steps: 2,
            ..small_cfg()
        };
        let rep = run(&cfg);
        let tune = rep
            .kernel_autotune
            .as_ref()
            .expect("kernel autotune report");
        assert_eq!(tune.effective, tune.chosen.variant.resolve(cfg.n));
        assert!(!tune.timings.is_empty());
        assert!(rep.checksum.is_finite());
        assert!(rep.render().contains("Kernel autotune"));
    }

    #[test]
    fn forced_methods_agree_numerically() {
        let mut cfg = small_cfg();
        let mut sums = Vec::new();
        for m in GsMethod::ALL {
            cfg.method = Some(m);
            sums.push(run(&cfg).checksum);
        }
        for s in &sums[1..] {
            assert!((s - sums[0]).abs() < 1e-9 * (1.0 + sums[0].abs()));
        }
    }

    #[test]
    fn profile_contains_fig4_regions_and_deriv_dominates() {
        let cfg = Config {
            steps: 6,
            ..small_cfg()
        };
        let rep = run(&cfg);
        for name in [
            regions::DERIV,
            regions::FULL2FACE,
            regions::GS_OP,
            regions::RK,
        ] {
            assert!(
                rep.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        // Fig. 4's headline: the derivative kernel is the dominant
        // compute region (compare against other compute, not against the
        // thread-contended exchange).
        let deriv = rep.profile.share(regions::DERIV);
        assert!(deriv > rep.profile.share(regions::FULL2FACE));
        assert!(deriv > rep.profile.share(regions::RK));
    }

    /// The mini-app's proxy loop is a real distributed DG advection: its
    /// result must match the single-process reference solver.
    #[test]
    fn distributed_solution_matches_serial_reference() {
        let cfg = Config {
            n: 6,
            elems_per_rank: 4,
            ranks: 4,
            steps: 5,
            fields: 1,
            variant: KernelVariant::Optimized,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
        let ge = mesh_cfg.global_elems();
        let (_, dumps) = run_collecting_solution(&cfg);
        let dt = dumps[0].dt;

        // serial reference on the identical global mesh
        let mut serial = AdvectionSolver::new(AdvectionConfig {
            n: cfg.n,
            elems: ge,
            lengths: [ge[0] as f64, ge[1] as f64, ge[2] as f64],
            velocity: cfg.velocity,
            variant: cfg.variant,
        });
        let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
        serial.init(|x, y, z| initial_profile(0, x, y, z, lengths));
        for _ in 0..cfg.steps {
            serial.step(dt);
        }

        // compare element by element via global ids
        let npts = cfg.n * cfg.n * cfg.n;
        let mut checked = 0;
        for dump in &dumps {
            for (le, &geid) in dump.global_elem_ids.iter().enumerate() {
                let data = &dump.fields[0][le * npts..(le + 1) * npts];
                let sdata = &serial.solution().element(geid);
                for (a, b) in data.iter().zip(sdata.iter()) {
                    assert!(
                        (a - b).abs() < 1e-10,
                        "elem {geid}: {a} vs {b} (diff {})",
                        (a - b).abs()
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, serial.nel() * npts);
    }

    #[test]
    fn dealias_roundtrip_changes_nothing_but_adds_the_workload() {
        let base = Config {
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let plain = run(&base);
        let dealiased = run(&Config {
            dealias_m: Some(base.n + 3),
            ..base.clone()
        });
        // identity on the polynomial data: same physics to roundoff
        assert!(
            (plain.checksum - dealiased.checksum).abs() < 1e-9 * (1.0 + plain.checksum.abs()),
            "{} vs {}",
            plain.checksum,
            dealiased.checksum
        );
        // but the dealias region exists and did work
        assert!(dealiased.profile.share(regions::DEALIAS) > 0.0);
        assert!(plain.profile.share(regions::DEALIAS) == 0.0);
    }

    #[test]
    fn dealias_mesh_must_be_at_least_n() {
        let cfg = Config {
            dealias_m: Some(3),
            n: 5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    /// The viscous proxy loop is a real distributed advection–diffusion
    /// solve: it must match the single-process BR1 reference solver.
    #[test]
    fn distributed_viscous_solution_matches_serial_reference() {
        use cmt_core::diffusion::{AdvDiffConfig, AdvDiffSolver};
        let cfg = Config {
            n: 5,
            elems_per_rank: 4,
            ranks: 4,
            steps: 4,
            fields: 1,
            viscosity: Some(0.02),
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
        let ge = mesh_cfg.global_elems();
        let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
        let (_, dumps) = run_collecting_solution(&cfg);
        let dt = dumps[0].dt;

        let mut serial = AdvDiffSolver::new(AdvDiffConfig {
            n: cfg.n,
            elems: ge,
            lengths,
            velocity: cfg.velocity,
            nu: 0.02,
            variant: cfg.variant,
        });
        serial.init(|x, y, z| initial_profile(0, x, y, z, lengths));
        for _ in 0..cfg.steps {
            serial.step(dt);
        }

        let npts = cfg.n * cfg.n * cfg.n;
        let mut max_diff = 0.0f64;
        for dump in &dumps {
            for (le, &geid) in dump.global_elem_ids.iter().enumerate() {
                let data = &dump.fields[0][le * npts..(le + 1) * npts];
                for (a, b) in data.iter().zip(serial.solution().element(geid)) {
                    max_diff = max_diff.max((a - b).abs());
                }
            }
        }
        assert!(
            max_diff < 1e-10,
            "viscous distributed vs serial: {max_diff}"
        );
    }

    #[test]
    fn viscosity_adds_regions_and_shrinks_dt() {
        let base = Config {
            n: 6,
            elems_per_rank: 8,
            ranks: 2,
            steps: 2,
            fields: 1,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let geom = cmt_core::ops::ElementGeom::cube(1.0);
        let dt_inviscid = super::stable_dt(&base, &geom);
        let viscous_cfg = Config {
            viscosity: Some(0.5),
            ..base.clone()
        };
        assert!(super::stable_dt(&viscous_cfg, &geom) < dt_inviscid);
        let rep = run(&viscous_cfg);
        assert!(rep.profile.share(regions::VISCOUS) > 0.0);
        // viscous trace exchanges recorded under their own context
        assert!(rep
            .comm
            .sites
            .iter()
            .any(|s| s.site.context.contains("faces_visc")));
    }

    /// The overlapped schedule only reorders *independent* work (volume
    /// kernels of other fields run between start and finish), and `finish`
    /// folds neighbor contributions in the same fixed order as the
    /// blocking path — so the inviscid solve must be bitwise identical.
    #[test]
    fn overlapped_pipeline_is_bitwise_identical_to_blocking_inviscid() {
        let base = Config {
            n: 5,
            elems_per_rank: 8,
            ranks: 4,
            steps: 3,
            fields: 3,
            dealias_m: Some(8),
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let (_, blocking) = run_collecting_solution(&Config {
            pipeline: Pipeline::Blocking,
            ..base.clone()
        });
        let (_, overlapped) = run_collecting_solution(&Config {
            pipeline: Pipeline::Overlapped,
            ..base.clone()
        });
        assert_eq!(blocking.len(), overlapped.len());
        for (a, b) in blocking.iter().zip(&overlapped) {
            assert_eq!(a.global_elem_ids, b.global_elem_ids);
            for (fa, fb) in a.fields.iter().zip(&b.fields) {
                assert_eq!(fa, fb, "overlapped inviscid must match blocking bitwise");
            }
        }
    }

    /// The overlapped viscous pass accumulates the three axis divergences
    /// before the three surface corrections (the blocking path interleaves
    /// them), so it is equal only to roundoff — but no looser.
    #[test]
    fn overlapped_viscous_matches_blocking_to_roundoff() {
        let base = Config {
            n: 5,
            elems_per_rank: 4,
            ranks: 4,
            steps: 3,
            fields: 2,
            viscosity: Some(0.02),
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let a = run(&Config {
            pipeline: Pipeline::Blocking,
            ..base.clone()
        })
        .checksum;
        let b = run(&Config {
            pipeline: Pipeline::Overlapped,
            ..base.clone()
        })
        .checksum;
        assert!((a - b).abs() < 1e-11 * (1.0 + a.abs()), "{a} vs {b}");
    }

    /// One batched exchange carries all fields: the overlapped schedule
    /// must send `fields`x fewer face messages than the blocking one.
    #[test]
    fn overlapped_pipeline_batches_field_exchanges() {
        let base = Config {
            n: 5,
            elems_per_rank: 8,
            ranks: 4,
            steps: 2,
            fields: 5,
            method: Some(GsMethod::PairwiseExchange),
            ..Default::default()
        };
        let face_isends = |rep: &RunReport| -> u64 {
            rep.comm
                .sites
                .iter()
                .filter(|s| {
                    s.site.op == simmpi::MpiOp::Isend && s.site.context == "faces/gs:pairwise"
                })
                .map(|s| s.calls)
                .sum()
        };
        let blocking = run(&Config {
            pipeline: Pipeline::Blocking,
            ..base.clone()
        });
        let overlapped = run(&Config {
            pipeline: Pipeline::Overlapped,
            ..base.clone()
        });
        let (nb, no) = (face_isends(&blocking), face_isends(&overlapped));
        assert!(no > 0, "overlapped run sent no face messages");
        assert_eq!(
            nb,
            base.fields as u64 * no,
            "blocking sent {nb} face messages, overlapped {no}; expected a {}x reduction",
            base.fields
        );
    }

    #[test]
    fn overlapped_profile_splits_gs_into_start_and_finish() {
        let rep = run(&Config {
            steps: 4,
            ..small_cfg()
        });
        for name in [regions::GS_OP, regions::GS_START, regions::GS_FINISH] {
            assert!(
                rep.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        // start/finish nest under the gs_op_ parent row
        for child in [regions::GS_START, regions::GS_FINISH] {
            assert!(
                rep.profile
                    .edges
                    .iter()
                    .any(|(p, c, _, _)| p == regions::GS_OP && c == child),
                "missing call-graph edge {} -> {child}",
                regions::GS_OP
            );
        }
        // the blocking baseline keeps the undivided gs_op_ row
        let blocking = run(&Config {
            steps: 2,
            pipeline: Pipeline::Blocking,
            ..small_cfg()
        });
        assert!(!blocking
            .profile
            .flat
            .iter()
            .any(|(n, _)| n == regions::GS_START));
    }

    #[test]
    fn comm_stats_include_face_exchange() {
        let rep = run(&Config {
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        });
        // pairwise exchange under the "faces" context shows Isend/Wait
        let found =
            rep.comm.sites.iter().any(|s| {
                s.site.op == simmpi::MpiOp::Wait && s.site.context.contains("gs:pairwise")
            });
        assert!(found, "missing MPI_Wait at gs:pairwise site");
        let cfl = rep
            .comm
            .sites
            .iter()
            .any(|s| s.site.op == simmpi::MpiOp::Allreduce && s.site.context == "cfl");
        assert!(cfl, "missing cfl allreduce site");
    }

    #[test]
    #[should_panic(expected = "invalid CMT-bone configuration")]
    fn invalid_config_rejected() {
        let _ = run(&Config {
            n: 1,
            ..Default::default()
        });
    }

    #[test]
    fn injected_kill_recovers_to_identical_state() {
        let base = Config {
            steps: 8,
            checkpoint_every: 2,
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let clean = run(&base);
        let faulty = run(&Config {
            fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=2,step=5").unwrap()),
            ..base.clone()
        });
        // coordinated rollback + deterministic solver: the interrupted run
        // must finish bitwise identical to the uninterrupted one
        assert_eq!(clean.checksum, faulty.checksum);
        assert_eq!(
            clean.state_hash, faulty.state_hash,
            "recovered run diverged from the uninterrupted run"
        );
        // recovery shows up as its own region in the Fig. 4 profile...
        for name in [cmt_perf::regions::CHECKPOINT, cmt_perf::regions::RECOVERY] {
            assert!(
                faulty.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        assert!(!clean
            .profile
            .flat
            .iter()
            .any(|(n, _)| n == cmt_perf::regions::RECOVERY));
        // ...and its traffic is a distinct context in the mpiP report
        for ctx in ["checkpoint", "recovery"] {
            assert!(
                faulty.comm.sites.iter().any(|s| s.site.context == ctx),
                "missing '{ctx}' comm context"
            );
        }
    }

    #[test]
    fn message_faults_are_reported_and_harmless() {
        let base = Config {
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let clean = run(&base);
        let faulty = run(&Config {
            fault_plan: Some(
                simmpi::FaultPlan::parse(
                    "delay:prob=0.2,us=50;drop:prob=0.1,us=100,retries=3;seed=11",
                )
                .unwrap(),
            ),
            ..base.clone()
        });
        // delays and retransmissions never change what arrives
        assert_eq!(clean.state_hash, faulty.state_hash);
        assert_eq!(clean.checksum, faulty.checksum);
        // injected events are distinct entries in the mpiP-style report
        let injected: u64 = faulty
            .comm
            .sites
            .iter()
            .filter(|s| s.site.op.is_fault())
            .map(|s| s.calls)
            .sum();
        assert!(injected > 0, "fault plan injected nothing");
        assert!(!clean.comm.sites.iter().any(|s| s.site.op.is_fault()));
    }

    #[test]
    #[should_panic(expected = "checkpointing is off")]
    fn kills_without_checkpointing_rejected() {
        let _ = run(&Config {
            fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=1,step=2").unwrap()),
            ..small_cfg()
        });
    }

    /// A clustered-particle config that leaves most particles on a few
    /// ranks: the canonical load-balancer workload.
    fn lb_cfg() -> Config {
        Config {
            steps: 8,
            particles_per_elem: 6,
            particle_cluster: Some(0.25),
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        }
    }

    /// The load balancer's first law: migrating elements must not change
    /// the physics. The per-element state hash (fields + resident
    /// particles, merged in global-id order) must be bitwise identical
    /// with the balancer off and on — including the particle cloud.
    #[test]
    fn rebalanced_run_is_bitwise_identical_to_static_run() {
        let off = run(&lb_cfg());
        let on = run(&Config {
            lb_every: 2,
            lb_threshold: 1.05,
            ..lb_cfg()
        });
        let lb = on.lb.expect("lb summary present when enabled");
        assert!(
            lb.rebalances >= 1,
            "clustered particles at threshold 1.05 should trigger: {lb:?}"
        );
        assert!(lb.peak_imbalance > 1.05);
        assert_eq!(
            off.state_hash, on.state_hash,
            "rebalancing changed the physics"
        );
        assert!(off.lb.is_none());
        // the balancer's traffic is first-class in the mpiP report:
        // monitor gathers and element migration under the "lb" context
        use simmpi::MpiOp;
        for (op, ctx) in [(MpiOp::LbGather, "lb"), (MpiOp::LbMigrate, "lb")] {
            assert!(
                on.comm
                    .sites
                    .iter()
                    .any(|s| s.site.op == op && s.site.context == ctx),
                "missing {op:?} under context {ctx:?}"
            );
        }
        // particle drift between ranks is badged too
        assert!(on
            .comm
            .sites
            .iter()
            .any(|s| s.site.op == MpiOp::LbMigrate && s.site.context == "particle_migration"));
        // and the monitor/migration phases appear in the Fig. 4 profile
        for name in [cmt_perf::regions::LB_MONITOR, cmt_perf::regions::LB_MIGRATE] {
            assert!(
                on.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        assert!(on.render().contains("load balancing:"));
    }

    /// Deterministic straggler: a seeded per-rank delay hazard feeds the
    /// monitor's injected-delay signal, the policy sheds elements from
    /// the slow rank, and the run still reproduces the clean run exactly
    /// (delays and migrations are both physics-neutral).
    #[test]
    fn straggler_delay_triggers_rebalance_and_preserves_state() {
        let base = Config {
            particles_per_elem: 4,
            method: Some(GsMethod::PairwiseExchange),
            ..small_cfg()
        };
        let clean = run(&base);
        let balanced = run(&Config {
            lb_every: 2,
            lb_threshold: 1.1,
            fault_plan: Some(
                simmpi::FaultPlan::parse("delay:prob=1.0,us=500,rank=1;seed=9").unwrap(),
            ),
            ..base.clone()
        });
        let lb = balanced.lb.expect("lb summary");
        assert!(
            lb.rebalances >= 1,
            "persistent straggler should trigger a rebalance: {lb:?}"
        );
        assert!(lb.elems_moved > 0);
        assert_eq!(
            clean.state_hash, balanced.state_hash,
            "straggler-driven rebalance changed the physics"
        );
    }

    /// Converged steady state: once the policy has evened out the load,
    /// re-evaluations must not keep shuffling elements. With a static
    /// imbalance source the rebalance count stays far below the number
    /// of monitor evaluations.
    #[test]
    fn rebalance_converges_instead_of_thrashing() {
        let rep = run(&Config {
            steps: 16,
            lb_every: 2,
            lb_threshold: 1.05,
            ..lb_cfg()
        });
        let lb = rep.lb.expect("lb summary");
        // 7 in-run evaluations (steps 2..14): the cloud barely moves, so
        // after the first correction the greedy plan is stable
        assert!(
            (1..=3).contains(&lb.rebalances),
            "expected 1-3 rebalances over 16 steps, got {lb:?}"
        );
    }

    /// Load balancing composes with checkpoint/rollback: a kill after a
    /// rebalance rolls back to a checkpoint that may predate it; the
    /// restored owner vector rebuilds that partition and the run still
    /// finishes bitwise identical to the clean static run.
    #[test]
    fn lb_with_kill_and_rollback_stays_identical() {
        let off = run(&lb_cfg());
        let on = run(&Config {
            lb_every: 2,
            lb_threshold: 1.05,
            checkpoint_every: 2,
            fault_plan: Some(simmpi::FaultPlan::parse("kill:rank=2,step=5").unwrap()),
            ..lb_cfg()
        });
        assert!(on.lb.expect("lb summary").rebalances >= 1);
        assert_eq!(
            off.state_hash, on.state_hash,
            "kill+rollback under load balancing diverged"
        );
    }

    /// The message-level verifier stays clean across migrations: every
    /// shipped element and particle is received exactly once.
    #[test]
    fn lb_run_passes_verification() {
        let rep = run(&Config {
            lb_every: 2,
            lb_threshold: 1.05,
            verify: true,
            ..lb_cfg()
        });
        assert!(rep.lb.expect("lb summary").rebalances >= 1);
        let findings = rep.verify.expect("verification ran");
        assert!(
            findings.is_empty(),
            "verifier found protocol violations in a balanced run: {findings:?}"
        );
    }
}
