//! The mini-app driver: the rank program as a sequence of phases —
//! setup, checkpoint-or-recover, the RK step (one stage function per
//! [`Pipeline`]), rebalance, and finish. The run environment, world,
//! setup and tuning, and report sections come from [`cmt_runtime`],
//! shared with Nekbone.

use std::f64::consts::PI;
use std::sync::Arc;
use std::time::Instant;

use cmt_core::face::{self, Face};
use cmt_core::kernels::{self, DerivDir};
use cmt_core::ops::{advect_volume_rhs_slices, upwind_face_correction, ElementGeom};
use cmt_core::poly::Basis;
use cmt_core::{rk, Field};
use cmt_gs::{GsHandle, GsMethod, GsOp};
use cmt_lb::{decide, gather_costs, migrate_blocks, CostModel};
use cmt_mesh::{face_exchange_gids_for, ElemPartition, MeshConfig, RankMesh};
use cmt_particles::{Particle, ParticleSet};
use cmt_perf::Profiler;
use cmt_resilience::{hash, Checkpoint, Resilience};
use cmt_runtime::{Choices, RankOutput};
use simmpi::{
    chunk_count, chunk_range, Rank, ReduceOp, SharedSliceMut, WireCodec, WireError, WireReader,
    WorkerPool,
};

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

/// CMT-bone's part of a rank's output.
struct BoneOutput {
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
// launcher as bytes, so everything in `BoneOutput` needs a wire form (the
// common prefix in front of it is the runtime's).

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

impl WireCodec for BoneOutput {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.checksum.encode(buf);
        self.elem_gids.encode(buf);
        self.elem_hashes.encode(buf);
        self.lb.encode(buf);
        self.wall_s.encode(buf);
        self.modeled_s.encode(buf);
        self.solution.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BoneOutput {
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
    env: &Env,
    handle: &GsHandle,
    rank: &mut Rank,
    prof: &mut Profiler,
    ws: &mut ViscousWs,
    uf: &Field,
    faces: &[f64],
    faces_own: &[f64],
    rhs: &mut Field,
    scratch: &mut Field,
) {
    let cfg = &env.cfg;
    let (n, nel) = (cfg.n, uf.nel());
    let (basis, geom) = (&env.basis, &env.geom);
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
    let divergence = |axis: usize, dir, q: &Field, rhs: &mut Field, scratch: &mut Field| {
        let (qs, ss) = (q.as_slice(), scratch.as_mut_slice());
        kernels::deriv(cfg.variant, dir, n, nel, &basis.d, qs, ss);
        rhs.axpy(nu * geom.dscale(axis), scratch);
    };
    let correction = |axis: usize, ws: &mut ViscousWs, rhs: &mut Field| {
        let lift = geom.dscale(axis) / w_end;
        viscous_axis_correction(
            n,
            nel,
            axis,
            lift,
            nu,
            &mut ws.qnbr[axis],
            &ws.qown[axis],
            rhs,
        );
    };
    match cfg.pipeline {
        Pipeline::Blocking => {
            for (axis, dir) in AXES {
                divergence(axis, dir, &ws.q[axis], rhs, scratch);
                face::full2face(n, nel, ws.q[axis].as_slice(), &mut ws.qown[axis]);
                ws.qnbr[axis].copy_from_slice(&ws.qown[axis]);
                rank.set_context("faces_visc");
                handle.gs_op(rank, &mut ws.qnbr[axis], GsOp::Add, env.chosen);
                rank.set_context("main");
                correction(axis, ws, rhs);
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
            let pending = handle.gs_op_start(rank, &views, GsOp::Add, env.chosen);
            rank.set_context("main");
            prof.exit();
            // overlap window: the three volume divergence derivatives
            for (axis, dir) in AXES {
                divergence(axis, dir, &ws.q[axis], rhs, scratch);
            }
            let mut outs: Vec<&mut [f64]> = ws.qnbr.iter_mut().map(|v| v.as_mut_slice()).collect();
            prof.enter(regions::GS_FINISH);
            rank.set_context("faces_visc");
            handle.gs_op_finish(rank, pending, &mut outs);
            rank.set_context("main");
            prof.exit();
            for axis in 0..3 {
                correction(axis, ws, rhs);
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

/// Per-rank constants every phase reads: the effective configuration
/// (the kernel autotune's winner replaces the requested variant), the
/// element operators, the settled gs method, and the worker pool.
struct Env<'a> {
    cfg: Config,
    mesh: &'a MeshConfig,
    basis: Basis,
    geom: ElementGeom,
    dt: f64,
    /// Dealiasing operators `(m, up, down)`: interpolation to the
    /// m-point fine mesh and back (paper §V: "an element is first mapped
    /// to a finer mesh and later mapped back"). Partition-independent,
    /// so they outlive any migration.
    dealias: Option<(usize, Vec<f64>, Vec<f64>)>,
    chosen: GsMethod,
    pool: Option<Arc<WorkerPool>>,
    workers: usize,
    /// Chunk grain the kernel autotune fixed (`--variant auto`).
    fixed_grain: Option<usize>,
    model: CostModel,
}

impl<'a> Env<'a> {
    fn new(rank: &Rank, cfg: &Config, mesh: &'a MeshConfig, choices: &Choices) -> Self {
        let cfg = Config {
            variant: choices.variant(cfg.variant),
            ..cfg.clone()
        };
        let basis = Basis::new(cfg.n);
        let geom = ElementGeom::cube(1.0); // unit-cube elements
        Env {
            dt: stable_dt(&cfg, &geom),
            dealias: cfg
                .dealias_m
                .map(|m| (m, basis.dealias_to(m), basis.dealias_from(m))),
            model: CostModel::for_shape(cfg.n, cfg.fields),
            chosen: choices.chosen,
            pool: rank.worker_pool(),
            workers: rank.workers(),
            fixed_grain: choices.grain(),
            mesh,
            basis,
            geom,
            cfg,
        }
    }

    /// Chunk geometry `(grain, chunks)` of a block of `nel` elements: the
    /// pool splits it at the tuned (or default) grain; without a pool it
    /// is one chunk holding every element.
    fn chunking(&self, nel: usize) -> (usize, usize) {
        match self.pool {
            Some(_) => {
                let grain = self
                    .fixed_grain
                    .unwrap_or_else(|| nel.div_ceil(self.workers * 4).max(1));
                (grain, chunk_count(nel, grain))
            }
            None => (nel.max(1), 1),
        }
    }

    /// Run `body(lo, hi, c)` over the element chunks `c` of a block:
    /// across the worker pool when the rank has one (worker-side heap
    /// counters charged to the open profiler region), else once on this
    /// thread over `[0, nel)`. Chunks write disjoint element ranges and
    /// nothing is reduced across them, so the result is bitwise
    /// identical for every worker count.
    fn for_chunks(
        &self,
        prof: &mut Profiler,
        nel: usize,
        (grain, n_chunks): (usize, usize),
        body: &(dyn Fn(usize, usize, usize) + Sync),
    ) {
        match &self.pool {
            Some(pool) => {
                pool.run(n_chunks, &|c| {
                    let (lo, hi) = chunk_range(nel, grain, c);
                    body(lo, hi, c);
                });
                let (wa, wb) = pool.drain_worker_allocs();
                prof.charge_allocs(wa, wb);
            }
            None => body(0, nel, 0),
        }
    }
}

/// Everything on a rank that is sized by (and bound to) its current
/// element set: the solution fields, every scratch buffer, the
/// gather-scatter plan, and the chunk geometry. A load-balancer
/// migration or a rollback to another partition replaces the whole
/// block — the timestep loop only ever sees a consistent one.
struct Block {
    /// Global ids of the owned elements, ascending — the local element
    /// order of every buffer below.
    owned: Vec<usize>,
    nel: usize,
    handle: GsHandle,
    u: Vec<Field>,
    u0: Vec<Field>,
    rhs_all: Vec<Field>,
    /// Derivative scratch; chunk `c` of the element loop uses the slab
    /// of its own elements.
    scratch: Field,
    faces_all: Vec<Vec<f64>>,
    faces_own_all: Vec<Vec<f64>>,
    /// Fine-mesh dealias buffer (empty when dealiasing is off); the
    /// interpolation matrices are partition-independent and live in
    /// [`Env`].
    dealias_fine: Vec<f64>,
    viscous: Option<ViscousWs>,
    /// Dealias contraction scratch: one `(t1, t2)` pair of
    /// `max(m,n)^3` values per chunk (empty when dealiasing is off).
    dealias_scratch: Vec<f64>,
    /// `(grain, chunks)` of the element loops.
    chunks: (usize, usize),
}

impl Block {
    /// The block for an owned-element set, on a gather-scatter `handle`
    /// set up (collectively) for exactly this set. Fields start zeroed —
    /// the caller fills them (initial condition, checkpoint restore, or
    /// migration merge).
    fn new(env: &Env, owned: Vec<usize>, handle: GsHandle) -> Block {
        let cfg = &env.cfg;
        let n = cfg.n;
        let nel = owned.len();
        let fpe = face::face_values_per_element(n);
        let chunks = env.chunking(nel);
        let fields = || (0..cfg.fields).map(|_| Field::zeros(n, nel)).collect();
        let traces = || vec![0.0; fpe * nel];
        Block {
            owned,
            nel,
            handle,
            u: fields(),
            u0: fields(),
            rhs_all: fields(),
            scratch: Field::zeros(n, nel),
            faces_all: (0..cfg.fields).map(|_| traces()).collect(),
            faces_own_all: (0..cfg.fields).map(|_| traces()).collect(),
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
                qown: [traces(), traces(), traces()],
                qnbr: [traces(), traces(), traces()],
            }),
            dealias_scratch: match cfg.dealias_m {
                Some(m) => vec![0.0; chunks.1 * 2 * m.max(n).pow(3)],
                None => Vec::new(),
            },
            chunks,
        }
    }

    /// Collective: set up the gather-scatter plan for this rank's
    /// elements under `part` and build the block on it. Every rank calls
    /// this with the same SPMD-uniform partition (a rebalance decision
    /// or a checkpointed owner vector).
    fn rebuild(rank: &mut Rank, env: &Env, part: &ElemPartition) -> Block {
        let owned = part.owned_by(rank.rank());
        let handle = GsHandle::setup(rank, &face_exchange_gids_for(env.mesh, owned));
        Block::new(env, owned.to_vec(), handle)
    }
}

/// The loop state of one rank: partition, block, particles, resilience,
/// clock, and load-balancer counters.
struct RankState {
    part: ElemPartition,
    blk: Block,
    pset: Option<ParticleSet>,
    rz: Resilience,
    time: f64,
    step: u64,
    lb: LbSummary,
}

impl RankState {
    /// Restore a checkpoint taken by [`capture_checkpoint`]: rebuild the
    /// block (collectively) when it was captured under another partition,
    /// then the fields, particles, clock, and fault-RNG state.
    fn restore(&mut self, rank: &mut Rank, env: &Env, ckpt: &Checkpoint) {
        if let Some(ck_part) = checkpoint_partition(ckpt, rank.size()) {
            if ck_part.owner_vec() != self.part.owner_vec() {
                // The owner vector is identical on every rank (captured
                // from SPMD-uniform state), so the collective rebuild is
                // safe here.
                self.blk = Block::rebuild(rank, env, &ck_part);
                if let Some(ps) = self.pset.as_mut() {
                    ps.set_partition(ck_part.clone());
                }
                self.part = ck_part;
            }
        }
        let nf = env.cfg.fields;
        assert!(
            ckpt.fields.len() >= nf,
            "checkpoint holds {} fields, run has {nf}",
            ckpt.fields.len()
        );
        for (uf, cf) in self.blk.u.iter_mut().zip(&ckpt.fields) {
            uf.as_mut_slice().copy_from_slice(cf);
        }
        if let Some(ps) = self.pset.as_mut() {
            ps.set_particles(particles_from_records(&ckpt.fields[nf]));
        }
        self.time = ckpt.time;
        self.step = ckpt.step;
        rank.set_fault_rng_state(ckpt.rng_state);
    }
}

/// Setup phase: load the restart checkpoint (with the load balancer on,
/// it records the partition its fields were captured under, and the
/// collective gather-scatter setup must run on that partition), run the
/// runtime's setup and tuning, build the block with the initial
/// condition, seed particles, and apply the restart.
fn setup<'a>(
    rank: &mut Rank,
    prof: &mut Profiler,
    cfg: &Config,
    mesh: &'a MeshConfig,
) -> (Env<'a>, RankState, Choices) {
    let restart = cmt_runtime::restart_checkpoint(&cfg.runtime, rank);
    let part = restart
        .as_ref()
        .and_then(|c| checkpoint_partition(c, rank.size()))
        .unwrap_or_else(|| ElemPartition::initial(mesh));
    let owned = part.owned_by(rank.rank()).to_vec();
    let gids = face_exchange_gids_for(mesh, &owned);
    let (handle, choices, ()) =
        cmt_runtime::setup(rank, prof, &cfg.knobs(), &gids, owned.len(), |_, _, _| ());
    let env = Env::new(rank, cfg, mesh, &choices);
    let mut blk = Block::new(&env, owned, handle);
    let lengths = {
        let ge = mesh.global_elems();
        [ge[0] as f64, ge[1] as f64, ge[2] as f64]
    };
    let nodes = &env.basis.nodes;
    for (f, uf) in blk.u.iter_mut().enumerate() {
        *uf = Field::from_fn(cfg.n, blk.nel, |e, i, j, k| {
            let gc = mesh.elem_coords(blk.owned[e]);
            let x = gc[0] as f64 + (nodes[i] + 1.0) / 2.0;
            let y = gc[1] as f64 + (nodes[j] + 1.0) / 2.0;
            let z = gc[2] as f64 + (nodes[k] + 1.0) / 2.0;
            initial_profile(f, x, y, z, lengths)
        });
    }
    let pset = (cfg.particles_per_elem > 0).then(|| {
        let mut ps = ParticleSet::new(RankMesh::new(mesh.clone(), rank.rank()), &env.basis);
        ps.set_partition(part.clone());
        match cfg.particle_cluster {
            Some(frac) => ps.seed_clustered(cfg.particles_per_elem, frac),
            None => ps.seed_uniform(cfg.particles_per_elem),
        }
        ps
    });
    let mut st = RankState {
        part,
        blk,
        pset,
        rz: Resilience::new(
            cfg.checkpoint_every as u64,
            cfg.runtime.checkpoint_dir.clone(),
        ),
        time: 0.0,
        step: 0,
        lb: LbSummary::default(),
    };
    if let Some(ckpt) = &restart {
        st.restore(rank, &env, ckpt);
    }
    (env, st, choices)
}

/// Top of a step: checkpoint when due — before any kill scheduled here
/// can fire, so a kill at step s rolls back to a capture taken at (or
/// before) s — then, if a scheduled kill fires, run the coordinated
/// rollback. Kills are SPMD-known, so every rank detects them without
/// communication. Returns whether the state was rolled back.
fn checkpoint_or_recover(
    rank: &mut Rank,
    prof: &mut Profiler,
    env: &Env,
    st: &mut RankState,
) -> bool {
    if st.rz.checkpoint_due(st.step) {
        prof.enter(cmt_perf::regions::CHECKPOINT);
        let ckpt = capture_checkpoint(
            rank,
            st.step,
            st.time,
            &st.blk.u,
            (env.cfg.lb_every > 0).then_some(&st.part),
            st.pset.as_ref(),
        );
        st.rz.save(rank, &ckpt);
        prof.exit();
    }
    let killed = st.rz.killed_at(rank, st.step);
    if killed.is_empty() {
        return false;
    }
    prof.enter(cmt_perf::regions::RECOVERY);
    let back = st.rz.recover(rank, &killed);
    st.restore(rank, env, &back);
    prof.exit();
    true
}

/// One timestep: the RK stages under the configured pipeline, then the
/// particle phase and (every `cfl_interval` steps) the timestep-control
/// reduction.
fn step(rank: &mut Rank, prof: &mut Profiler, env: &Env, st: &mut RankState) {
    let cfg = &env.cfg;
    let blk = &mut st.blk;
    for (uf, u0f) in blk.u.iter().zip(blk.u0.iter_mut()) {
        u0f.as_mut_slice().copy_from_slice(uf.as_slice());
    }
    for stage in 0..rk::STAGES {
        match cfg.pipeline {
            Pipeline::Blocking => stage_blocking(rank, prof, env, blk, stage),
            Pipeline::Overlapped => stage_overlapped(rank, prof, env, blk, stage),
        }
    }
    st.time += env.dt;

    // Particle phase: advect in the end-of-step field, migrate.
    // Interpolation is per-element with identical arithmetic on every
    // partition, and the migrated set is sorted by particle id — the
    // phase is bitwise partition-independent, like the field physics.
    if let Some(ps) = st.pset.as_mut() {
        let u = &blk.u;
        prof.enter(cmt_perf::regions::PARTICLE_ADVECT);
        ps.advect_field(env.dt, [&u[0], &u[1 % cfg.fields], &u[2 % cfg.fields]]);
        prof.exit();
        prof.enter(cmt_perf::regions::PARTICLE_MIGRATE);
        let moved = ps.migrate(rank);
        st.lb.particles_moved += moved.sent as u64;
        prof.exit();
    }

    // Vector reduction: timestep control.
    if (st.step + 1) % cfg.cfl_interval as u64 == 0 {
        prof.enter(regions::CFL);
        rank.set_context("cfl");
        let local_max = blk.u.iter().fold(0.0f64, |m, f| m.max(f.norm_inf()));
        let _global_max = rank.allreduce_scalar(local_max, ReduceOp::Max);
        rank.set_context("main");
        prof.exit();
    }
}

/// The volume work of field `f` for one stage, over the block's element
/// chunks: the flux divergence (the small-matrix-multiply kernel) into
/// `rhs_all[f]`, then the dealiasing round trip (identity on the
/// resolved polynomial content; pure kernel workload) when it is on.
fn volume_rhs(prof: &mut Profiler, env: &Env, blk: &mut Block, f: usize) {
    let cfg = &env.cfg;
    let n = cfg.n;
    let n3 = n * n * n;
    let (nel, chunks) = (blk.nel, blk.chunks);
    let us = blk.u[f].as_slice();
    let rhs = SharedSliceMut::new(blk.rhs_all[f].as_mut_slice());
    let scr = SharedSliceMut::new(blk.scratch.as_mut_slice());
    prof.enter(regions::DERIV);
    env.for_chunks(prof, nel, chunks, &|lo, hi, _| {
        // SAFETY: chunk ranges partition 0..nel, and each chunk's scratch
        // slab is its own elements' slab, so every range below is
        // touched by one chunk.
        let (rhs_c, scr_c) = unsafe {
            (
                rhs.range_mut(lo * n3, hi * n3),
                scr.range_mut(lo * n3, hi * n3),
            )
        };
        advect_volume_rhs_slices(
            cfg.variant,
            &env.basis,
            &env.geom,
            cfg.velocity,
            n,
            hi - lo,
            &us[lo * n3..hi * n3],
            rhs_c,
            scr_c,
        );
    });
    prof.exit();
    if let Some((m, up, down)) = &env.dealias {
        let m = *m;
        let m3 = m * m * m;
        let big3 = m.max(n).pow(3);
        let fine = SharedSliceMut::new(&mut blk.dealias_fine[..]);
        let ts = SharedSliceMut::new(&mut blk.dealias_scratch[..]);
        prof.enter(regions::DEALIAS);
        env.for_chunks(prof, nel, chunks, &|lo, hi, c| {
            // SAFETY: disjoint element ranges per chunk; pair c of the
            // contraction scratch is private to chunk c.
            let (rhs_c, fine_c, ts_c) = unsafe {
                (
                    rhs.range_mut(lo * n3, hi * n3),
                    fine.range_mut(lo * m3, hi * m3),
                    ts.range_mut(2 * c * big3, 2 * (c + 1) * big3),
                )
            };
            dealias_roundtrip(cfg.variant, m, n, up, down, rhs_c, fine_c, hi - lo, ts_c);
        });
        prof.exit();
    }
}

/// Surface extraction of field `f`: its face traces, kept twice (the
/// exchange overwrites one copy with own + neighbor).
fn extract_faces(env: &Env, blk: &mut Block, f: usize) {
    face::full2face(
        env.cfg.n,
        blk.nel,
        blk.u[f].as_slice(),
        &mut blk.faces_all[f],
    );
    blk.faces_own_all[f].copy_from_slice(&blk.faces_all[f]);
}

/// The per-field tail of a stage once field `f`'s exchange has landed:
/// upwind lifting (neighbor trace = sum - own), the viscous BR1 passes,
/// and the RK stage update.
fn lift_and_update(
    rank: &mut Rank,
    prof: &mut Profiler,
    env: &Env,
    blk: &mut Block,
    f: usize,
    stage: usize,
) {
    let Block {
        handle,
        u,
        u0,
        rhs_all,
        scratch,
        faces_all,
        faces_own_all,
        viscous,
        ..
    } = blk;
    prof.enter(regions::FLUX_LIFT);
    for (s, o) in faces_all[f].iter_mut().zip(faces_own_all[f].iter()) {
        *s -= o;
    }
    upwind_face_correction(
        &env.basis,
        &env.geom,
        env.cfg.velocity,
        &faces_own_all[f],
        &faces_all[f],
        &mut rhs_all[f],
    );
    prof.exit();
    if let Some(ws) = viscous.as_mut() {
        viscous_pass(
            env,
            handle,
            rank,
            prof,
            ws,
            &u[f],
            &faces_all[f],
            &faces_own_all[f],
            &mut rhs_all[f],
            scratch,
        );
    }
    prof.enter(regions::RK);
    rk::stage_update(stage, &mut u[f], &u0[f], &rhs_all[f], env.dt);
    prof.exit();
}

/// One RK stage under the legacy schedule: per field, volume work,
/// surface extraction, one blocking exchange, then lift and update.
fn stage_blocking(rank: &mut Rank, prof: &mut Profiler, env: &Env, blk: &mut Block, stage: usize) {
    for f in 0..env.cfg.fields {
        volume_rhs(prof, env, blk, f);
        prof.enter(regions::FULL2FACE);
        extract_faces(env, blk, f);
        prof.exit();
        // Numerical flux: nearest-neighbor exchange. The face-exchange
        // ids pair each face point with exactly its across-face twin, so
        // Add recovers own + neighbor.
        prof.enter(regions::GS_OP);
        rank.set_context("faces");
        blk.handle
            .gs_op(rank, &mut blk.faces_all[f], GsOp::Add, env.chosen);
        rank.set_context("main");
        prof.exit();
        lift_and_update(rank, prof, env, blk, f, stage);
    }
}

/// One RK stage under the split-phase schedule: extract every field's
/// faces, start ONE exchange carrying all fields (a k-field payload per
/// neighbor: `fields`x fewer messages than the blocking schedule), run
/// every field's volume work while the messages are in flight, finish
/// the exchange, then lift and update each field.
fn stage_overlapped(
    rank: &mut Rank,
    prof: &mut Profiler,
    env: &Env,
    blk: &mut Block,
    stage: usize,
) {
    let fields = env.cfg.fields;
    prof.enter(regions::FULL2FACE);
    for f in 0..fields {
        extract_faces(env, blk, f);
    }
    prof.exit();

    // The slice-view lists are assembled outside the regions so their
    // allocations never count against the exchange.
    let views: Vec<&[f64]> = blk.faces_all.iter().map(|v| v.as_slice()).collect();
    prof.enter(regions::GS_OP);
    prof.enter(regions::GS_START);
    rank.set_context("faces");
    let pending = blk.handle.gs_op_start(rank, &views, GsOp::Add, env.chosen);
    rank.set_context("main");
    prof.exit();
    prof.exit();

    // Overlap window: with `--workers`, each kernel's element loop is
    // shared across the rank's pool, filling the same in-flight window
    // on more cores.
    for f in 0..fields {
        volume_rhs(prof, env, blk, f);
    }

    // finish: wait, fold remote contributions, scatter
    let mut outs: Vec<&mut [f64]> = blk.faces_all.iter_mut().map(|v| v.as_mut_slice()).collect();
    prof.enter(regions::GS_OP);
    prof.enter(regions::GS_FINISH);
    rank.set_context("faces");
    blk.handle.gs_op_finish(rank, pending, &mut outs);
    rank.set_context("main");
    prof.exit();
    prof.exit();

    for f in 0..fields {
        lift_and_update(rank, prof, env, blk, f, stage);
    }
}

/// Between steps: every `lb_every` steps, run the load-balancer monitor
/// on SPMD-uniform inputs (one allgather), so every rank reaches the
/// identical decision with no extra synchronization; migrate when the
/// policy adopts a new partition. Skipped after the last step: there is
/// no work left to balance.
fn rebalance(rank: &mut Rank, prof: &mut Profiler, env: &Env, st: &mut RankState) {
    let cfg = &env.cfg;
    let every = cfg.lb_every as u64;
    if every == 0 || st.step % every != 0 || st.step >= cfg.steps as u64 {
        return;
    }
    prof.enter(cmt_perf::regions::LB_MONITOR);
    let ps = st.pset.as_mut().expect("validate(): lb requires particles");
    let counts = ps.counts_per_owned();
    let delay_us = rank.injected_delay_us();
    let global = gather_costs(rank, &st.part, &counts, delay_us);
    let decision = decide(&env.model, &st.part, &global, cfg.lb_threshold);
    st.lb.peak_imbalance = st.lb.peak_imbalance.max(decision.imbalance);
    prof.exit();
    if let Some(owners) = decision.owners {
        prof.enter(cmt_perf::regions::LB_MIGRATE);
        migrate(
            rank,
            env,
            st,
            ElemPartition::from_owner(rank.size(), owners),
        );
        prof.exit();
    }
}

/// Move this rank's state onto `new_part`: elements (all fields) and
/// their resident particles travel to their new owners over the pooled
/// crystal router, and the block is rebuilt on the new partition.
fn migrate(rank: &mut Rank, env: &Env, st: &mut RankState, new_part: ElemPartition) {
    let cfg = &env.cfg;
    let n3 = cfg.n * cfg.n * cfg.n;
    let me = rank.rank();
    let part = &st.part;
    let ps = st.pset.as_mut().expect("validate(): lb requires particles");
    // Drain departing residents first, keyed by gid, so the element pack
    // below can ship them with their element.
    let dep: std::collections::HashMap<usize, Vec<Particle>> = ps
        .split_off_elems(|gid| new_part.owner_of(gid) != me)
        .into_iter()
        .collect();
    let shipped: usize = dep.values().map(|v| v.len()).sum();
    // Rebuild the block on the new partition first (collective gs setup —
    // every rank is here, by the SPMD argument above), so arrivals can
    // unpack straight into it.
    let mut nb = Block::rebuild(rank, env, &new_part);
    // Kept elements copy over; gained elements are written by the unpack
    // callback below, each placed at its new local slot as its frame is
    // walked — no intermediate copy.
    for (slot, &gid) in nb.owned.iter().enumerate() {
        if part.owner_of(gid) == me {
            let (_, old_slot) = part.slot_of(gid);
            for (nf, of) in nb.u.iter_mut().zip(st.blk.u.iter()) {
                nf.as_mut_slice()[slot * n3..(slot + 1) * n3]
                    .copy_from_slice(&of.as_slice()[old_slot * n3..(old_slot + 1) * n3]);
            }
        }
    }
    let u_old = &st.blk.u;
    let mut gained = 0usize;
    let mstats = migrate_blocks(
        rank,
        part,
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
    st.blk = nb;
    st.part = new_part;
    st.lb.rebalances += 1;
    st.lb.elems_moved += mstats.elems_sent as u64;
    st.lb.particles_moved += shipped as u64;
}

/// End of the run: the determinism checksum, the per-element state
/// hashes, the verify sweep, and this rank's output.
fn finish(
    rank: &mut Rank,
    mut prof: Profiler,
    env: &Env,
    mut st: RankState,
    choices: Choices,
    collect: bool,
    start: Instant,
) -> RankOutput<BoneOutput> {
    // Determinism checksum: global sum over all fields. (Unlike the
    // state hash this groups the sum by rank, so it is *not* bitwise
    // partition-independent — the LB identity tests compare hashes.)
    let blk = &st.blk;
    let local_sum: f64 = blk.u.iter().map(|f| f.sum()).sum();
    rank.set_context("checksum");
    let checksum = rank.allreduce_scalar(local_sum, ReduceOp::Sum);
    rank.set_context("main");

    let n3 = env.cfg.points_per_element();
    let (elem_gids, elem_hashes) = hash_elements(&blk.u, n3, &blk.owned, st.pset.as_mut());

    cmt_runtime::verify_sweep(rank, &mut prof);

    let solution = collect.then(|| SolutionDump {
        global_elem_ids: blk.owned.clone(),
        fields: blk.u.iter().map(|f| f.as_slice().to_vec()).collect(),
        time: st.time,
        dt: env.dt,
    });
    RankOutput {
        profiler: prof,
        choices,
        app: BoneOutput {
            checksum,
            elem_gids,
            elem_hashes,
            lb: (env.cfg.lb_every > 0).then_some(st.lb),
            wall_s: start.elapsed().as_secs_f64(),
            modeled_s: rank.modeled_time_s(),
            solution,
        },
    }
}

fn rank_main(
    rank: &mut Rank,
    cfg: &Config,
    mesh: &MeshConfig,
    collect: bool,
) -> RankOutput<BoneOutput> {
    let start = Instant::now();
    let mut prof = Profiler::new();
    let (env, mut st, choices) = setup(rank, &mut prof, cfg, mesh);
    prof.enter(regions::LOOP);
    while st.step < cfg.steps as u64 {
        if checkpoint_or_recover(rank, &mut prof, &env, &mut st) {
            continue;
        }
        step(rank, &mut prof, &env, &mut st);
        st.step += 1;
        rebalance(rank, &mut prof, &env, &mut st);
    }
    prof.exit();
    finish(rank, prof, &env, st, choices, collect, start)
}

fn run_inner(cfg: &Config, collect: bool) -> (RunReport, Vec<SolutionDump>) {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid CMT-bone configuration: {e}"));
    let mesh = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
    let fin = cmt_runtime::run(&cfg.runtime, &cfg.knobs(), |rank| {
        rank_main(rank, cfg, &mesh, collect)
    });

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
    let mut checksum = f64::NAN;
    let mut elem_pairs: Vec<(u64, u64)> = Vec::new();
    let mut lb_total: Option<LbSummary> = None;
    let mut rank_wall = Vec::with_capacity(cfg.ranks);
    let mut rank_compute = Vec::with_capacity(cfg.ranks);
    let mut modeled = Vec::with_capacity(cfg.ranks);
    let mut dumps = Vec::new();
    for out in fin.ranks {
        rank_compute.push(
            out.profiler
                .report()
                .flat
                .iter()
                .filter(|(name, _)| COMPUTE_REGIONS.contains(&name.as_str()))
                .map(|(_, s)| s.self_s())
                .sum::<f64>(),
        );
        let a = out.app;
        checksum = a.checksum; // identical on every rank
        elem_pairs.extend(
            a.elem_gids
                .iter()
                .copied()
                .zip(a.elem_hashes.iter().copied()),
        );
        if let Some(l) = a.lb {
            let t = lb_total.get_or_insert_with(LbSummary::default);
            // rebalances and the peak are SPMD-identical across ranks;
            // the traffic counters are per-rank and sum
            t.rebalances = t.rebalances.max(l.rebalances);
            t.peak_imbalance = t.peak_imbalance.max(l.peak_imbalance);
            t.elems_moved += l.elems_moved;
            t.particles_moved += l.particles_moved;
        }
        rank_wall.push(a.wall_s);
        modeled.push(a.modeled_s);
        dumps.extend(a.solution);
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
    let report = RunReport {
        mesh_summary: mesh.summary(),
        mesh,
        runtime: fin.report,
        comm: fin.comm,
        rank_wall_s: rank_wall,
        rank_compute_s: rank_compute,
        modeled_comm_s: modeled,
        checksum,
        state_hash,
        lb: lb_total,
        steps: cfg.steps,
        fields: cfg.fields,
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
    use cmt_runtime::RuntimeConfig;

    /// A run environment injecting `plan`.
    fn faults(plan: simmpi::FaultPlan) -> RuntimeConfig {
        RuntimeConfig {
            fault_plan: Some(plan),
            ..Default::default()
        }
    }

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
        assert_eq!(a.runtime.chosen_method, GsMethod::PairwiseExchange);
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
        assert_eq!(simd.runtime.kernel_variant, KernelVariant::Simd);
        assert!(["avx2", "sse2", "scalar"].contains(&simd.runtime.kernel_isa));
        assert!(simd.render().contains(&format!(
            "kernel variant: simd (effective isa: {})",
            simd.runtime.kernel_isa
        )));

        // multi-process socket backend (thread mode): same bits
        let socket = run(&Config {
            runtime: RuntimeConfig {
                transport: simmpi::TransportKind::Socket(simmpi::SocketConfig {
                    addr: None,
                    threads: true,
                }),
                ..Default::default()
            },
            ..simd_cfg.clone()
        });
        assert_eq!(opt.state_hash, socket.state_hash, "socket simd diverged");
        assert_eq!(socket.runtime.kernel_isa, simd.runtime.kernel_isa);

        // verified run stays clean and identical
        let verified = run(&Config {
            runtime: RuntimeConfig {
                verify: true,
                ..Default::default()
            },
            ..simd_cfg.clone()
        });
        assert_eq!(opt.state_hash, verified.state_hash);
        assert!(verified
            .runtime
            .verify
            .as_ref()
            .is_some_and(|f| f.is_empty()));

        // kill + rollback recovery lands on the same bits
        let ckpt = Config {
            steps: 8,
            checkpoint_every: 2,
            ..simd_cfg
        };
        let clean = run(&ckpt);
        let recovered = run(&Config {
            runtime: faults(simmpi::FaultPlan::parse("kill:rank=2,step=5").unwrap()),
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
            .runtime
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
                rep.runtime.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        // Fig. 4's headline: the derivative kernel is the dominant
        // compute region (compare against other compute, not against the
        // thread-contended exchange).
        let deriv = rep.runtime.profile.share(regions::DERIV);
        assert!(deriv > rep.runtime.profile.share(regions::FULL2FACE));
        assert!(deriv > rep.runtime.profile.share(regions::RK));
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
        assert!(dealiased.runtime.profile.share(regions::DEALIAS) > 0.0);
        assert!(plain.runtime.profile.share(regions::DEALIAS) == 0.0);
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
        assert!(rep.runtime.profile.share(regions::VISCOUS) > 0.0);
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
                rep.runtime.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        // start/finish nest under the gs_op_ parent row
        for child in [regions::GS_START, regions::GS_FINISH] {
            assert!(
                rep.runtime
                    .profile
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
            .runtime
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
            runtime: faults(simmpi::FaultPlan::parse("kill:rank=2,step=5").unwrap()),
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
                faulty.runtime.profile.flat.iter().any(|(n, _)| n == name),
                "missing region {name}"
            );
        }
        assert!(!clean
            .runtime
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
            runtime: faults(
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
                on.runtime.profile.flat.iter().any(|(n, _)| n == name),
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
            runtime: faults(
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
            runtime: faults(simmpi::FaultPlan::parse("kill:rank=2,step=5").unwrap()),
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
            runtime: RuntimeConfig {
                verify: true,
                ..Default::default()
            },
            ..lb_cfg()
        });
        assert!(rep.lb.expect("lb summary").rebalances >= 1);
        let findings = rep.runtime.verify.expect("verification ran");
        assert!(
            findings.is_empty(),
            "verifier found protocol violations in a balanced run: {findings:?}"
        );
    }
}
