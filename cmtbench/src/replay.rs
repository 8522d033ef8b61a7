//! The traced replay: each workload's step driven from here, on a 2-rank
//! `simmpi::World`, through the layers' public functions, with a span
//! around every call.
//!
//! The replay repeats exactly the calls `cmt_bone::run` and
//! `nekbone::run` make for the benchmark's configurations (overlapped
//! pipeline, one worker, no dealiasing, viscosity, faults or restart),
//! with the same communication contexts. So its final state hash and its
//! mpiP call and byte counts must equal the end-to-end run's; the
//! benchmark checks both.

use std::collections::HashMap;
use std::f64::consts::PI;
use std::time::Instant;

use cmt_core::cost;
use cmt_core::ops::{advect_volume_rhs, upwind_face_correction, ElementGeom};
use cmt_core::{face, rk, Basis, Field};
use cmt_gs::{GsHandle, GsOp};
use cmt_lb::{decide, gather_costs, migrate_blocks, CostModel};
use cmt_mesh::{face_exchange_gids_for, ElemPartition, MeshConfig, RankMesh};
use cmt_particles::{Particle, ParticleSet};
use cmt_perf::MpipReport;
use cmt_resilience::{hash, Checkpoint, Resilience};
use nekbone::ax::AxOperator;
use nekbone::cg::glsc3;
use simmpi::{CommStats, Rank, ReduceOp, World};

use crate::trace::{Recorder, Span, SETUP_STEP};
use crate::workload::{Case, CgOutcome};

/// Span names, one per layer boundary the replay records.
pub mod layer {
    /// One whole timestep (CG iteration); the root of its spans.
    pub const STEP: &str = "step";
    /// Partition and exchange-id construction (`cmt_mesh`).
    pub const MESH_SETUP: &str = "mesh.setup";
    /// `GsHandle::setup` discovery and plans.
    pub const GS_SETUP: &str = "gs.setup";
    /// `cmt_core::ops::advect_volume_rhs` (flux-divergence derivatives).
    pub const DERIV: &str = "core.deriv";
    /// `cmt_core::face::full2face` surface extraction.
    pub const FULL2FACE: &str = "core.full2face";
    /// Flux lift: neighbor trace recovery + `upwind_face_correction`.
    pub const FACE2FULL: &str = "core.face2full";
    /// `cmt_core::rk::stage_update`.
    pub const RK: &str = "core.rk";
    /// `GsHandle::gs_op_start`.
    pub const GS_START: &str = "gs.start";
    /// `GsHandle::gs_op_finish` (wait + combine + scatter).
    pub const GS_FINISH: &str = "gs.finish";
    /// `simmpi::Rank::allreduce_*` called by the step.
    pub const ALLREDUCE: &str = "simmpi.allreduce";
    /// `nekbone::ax::AxOperator::apply`.
    pub const AX: &str = "nekbone.ax";
    /// A Nekbone dot product's completion (`nekbone::cg::glsc3` and the
    /// CG loop's fused reductions).
    pub const GLSC3: &str = "nekbone.glsc3";
    /// `ParticleSet::advect_field`.
    pub const P_ADVECT: &str = "particles.advect";
    /// `ParticleSet::migrate`.
    pub const P_MIGRATE: &str = "particles.migrate";
    /// `cmt_lb::{gather_costs, decide}`.
    pub const LB_MONITOR: &str = "lb.monitor";
    /// Repartition: `cmt_lb::migrate_blocks` plus the block rebuild.
    pub const LB_MIGRATE: &str = "lb.migrate";
    /// `cmt_resilience::Resilience::save`.
    pub const SAVE: &str = "resilience.save";
}

/// What one rank of a replay recorded.
#[derive(Debug, Default)]
pub struct RankReplay {
    /// Recorded spans (empty with spans off).
    pub spans: Vec<Span>,
    /// Spans lost to a full buffer.
    pub dropped: u64,
    /// Wall time of this rank's step loop, seconds.
    pub loop_s: f64,
    /// Heap allocations the span recorder made (counted only when
    /// `cmt-perf/count-alloc` is on).
    pub span_allocs: u64,
    /// Particle advances (particles × steps).
    pub particles_advected: u64,
    /// Particles this rank shipped in per-step migrations.
    pub particles_sent: u64,
    /// Checkpoint bytes this rank encoded.
    pub save_bytes: u64,
    /// Checkpoints this rank saved.
    pub saves: u64,
    /// Steps (1-based, after which the balancer ran) of every adopted
    /// repartition; identical on every rank.
    pub rebalance_steps: Vec<u32>,
    /// Elements this rank shipped in repartitions.
    pub elems_sent: u64,
    /// Work this rank's calls did, from `cmt_core::cost` counts.
    pub work: Work,
    /// Final-state fingerprint pieces: `(global element id, hash)` for
    /// CMT-bone, one `(rank, hash)` for Nekbone.
    pub hashes: Vec<(u64, u64)>,
    /// Nekbone only: the CG solve's convergence facts.
    pub cg: Option<CgOutcome>,
}

/// Work done by one rank's kernel calls: flops from `cmt_core::cost`,
/// bytes computed from the arrays each call reads and writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Derivative contraction flops of `advect_volume_rhs`.
    pub deriv_flops: u64,
    /// Computed bytes of `advect_volume_rhs`: per axis, the derivative
    /// reads `u` and writes the scratch, the accumulation reads the
    /// scratch (and `rhs` after the first axis) and writes `rhs`.
    pub deriv_bytes: u64,
    /// RK stage-update flops.
    pub rk_flops: u64,
    /// RK stage-update bytes (three reads, one write per point).
    pub rk_bytes: u64,
    /// Flux-lift (`face2full`) flops.
    pub lift_flops: u64,
    /// `full2face` + flux-lift bytes.
    pub face_bytes: u64,
    /// `AxOperator::apply` contraction flops (six per element point set).
    pub ax_flops: u64,
}

impl Work {
    /// The flops `cmt_bone::RunReport::modeled_flops` counts: derivatives,
    /// RK updates and the lift.
    pub fn modeled_flops(&self) -> u64 {
        self.deriv_flops + self.rk_flops + self.lift_flops
    }
}

/// A whole replay.
#[derive(Debug)]
pub struct Replay {
    /// Per-rank records, in rank order.
    pub ranks: Vec<RankReplay>,
    /// Per-rank communication statistics of the replay's world.
    pub stats: Vec<CommStats>,
    /// The same statistics aggregated mpiP-style.
    pub comm: MpipReport,
    /// Final-state fingerprint, computed as the mini-app computes it.
    pub state_hash: u64,
    /// Steps (CG iterations) run.
    pub steps: usize,
}

impl Replay {
    /// Step-loop wall time per step, ms: the slowest rank's loop.
    pub fn step_ms(&self) -> f64 {
        let loop_s = self.ranks.iter().map(|r| r.loop_s).fold(0.0, f64::max);
        loop_s * 1e3 / self.steps.max(1) as f64
    }

    /// Every rank's spans, in rank order.
    pub fn spans(&self) -> Vec<Vec<Span>> {
        self.ranks.iter().map(|r| r.spans.clone()).collect()
    }
}

/// Replay `case`, recording spans when `spans` is set.
pub fn replay(case: &Case, spans: bool) -> Replay {
    let epoch = Instant::now();
    let world = World::new().with_pooling(true).with_workers(1);
    let (ranks, steps, nek) = match case {
        Case::Cmt(c) => (c.ranks, c.steps, false),
        Case::Nek(c) => (c.ranks, c.cg_iters, true),
    };
    let result = match case {
        Case::Cmt(cfg) => {
            let mesh_cfg = MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, true);
            world.run(ranks, |rank| {
                let cap = cfg.steps * (16 + 9 * cfg.fields) + 16;
                cmt_rank(
                    rank,
                    cfg,
                    &mesh_cfg,
                    Recorder::new(spans, rank.rank(), cap, epoch),
                )
            })
        }
        Case::Nek(cfg) => {
            let mesh_cfg =
                MeshConfig::for_ranks(cfg.ranks, cfg.elems_per_rank, cfg.n, cfg.periodic);
            world.run(ranks, |rank| {
                let cap = cfg.cg_iters * 10 + 16;
                nek_rank(
                    rank,
                    cfg,
                    &mesh_cfg,
                    Recorder::new(spans, rank.rank(), cap, epoch),
                )
            })
        }
    };
    let mut state_hash = hash::FNV_OFFSET;
    if nek {
        // Nekbone folds per-rank hashes in rank order.
        for r in &result.results {
            for (_, h) in &r.hashes {
                hash::fnv1a(&mut state_hash, &h.to_le_bytes());
            }
        }
    } else {
        // CMT-bone folds per-element hashes in ascending global id.
        let mut pairs: Vec<(u64, u64)> = result
            .results
            .iter()
            .flat_map(|r| r.hashes.iter().copied())
            .collect();
        pairs.sort_unstable_by_key(|&(gid, _)| gid);
        for (gid, h) in &pairs {
            hash::fnv1a(&mut state_hash, &gid.to_le_bytes());
            hash::fnv1a(&mut state_hash, &h.to_le_bytes());
        }
    }
    Replay {
        comm: MpipReport::from_stats(&result.stats),
        stats: result.stats,
        ranks: result.results,
        state_hash,
        steps,
    }
}

/// The CMT-bone proxy's initial profile of field `f` (as `cmt_bone::run`
/// seeds it).
fn initial_profile(f: usize, x: f64, y: f64, z: f64, lengths: [f64; 3]) -> f64 {
    let fx = 2.0 * PI * x / lengths[0];
    let fy = 2.0 * PI * y / lengths[1];
    let fz = 2.0 * PI * z / lengths[2];
    (fx + 0.3 * f as f64).sin() * fy.cos() + 0.25 * (fz + 0.7 * f as f64).cos()
}

/// The inviscid stable timestep `cmt_bone::run` uses.
fn stable_dt(cfg: &cmt_bone::Config, geom: &ElementGeom) -> f64 {
    let n2 = (cfg.n * cfg.n) as f64;
    let mut dt = f64::INFINITY;
    for axis in 0..3 {
        let c = cfg.velocity[axis].abs();
        if c > 0.0 {
            dt = dt.min(cfg.cfl * geom.extent(axis) / (n2 * c));
        }
    }
    if dt.is_finite() {
        dt
    } else {
        cfg.cfl
    }
}

/// Per-partition state: fields, scratch and the exchange plan.
struct Block {
    owned: Vec<usize>,
    nel: usize,
    handle: GsHandle,
    u: Vec<Field>,
    u0: Vec<Field>,
    rhs: Vec<Field>,
    scratch: Field,
    faces: Vec<Vec<f64>>,
    faces_own: Vec<Vec<f64>>,
}

fn build_block(cfg: &cmt_bone::Config, owned: Vec<usize>, handle: GsHandle) -> Block {
    let (n, nel) = (cfg.n, owned.len());
    let fpe = face::face_values_per_element(n);
    let fields = |_| Field::zeros(n, nel);
    Block {
        owned,
        nel,
        handle,
        u: (0..cfg.fields).map(fields).collect(),
        u0: (0..cfg.fields).map(fields).collect(),
        rhs: (0..cfg.fields).map(fields).collect(),
        scratch: Field::zeros(n, nel),
        faces: (0..cfg.fields).map(|_| vec![0.0; fpe * nel]).collect(),
        faces_own: (0..cfg.fields).map(|_| vec![0.0; fpe * nel]).collect(),
    }
}

/// The checkpoint `cmt_bone::run` captures: fields, the owner vector when the
/// balancer is on, and the particle records as one extra field.
fn capture(
    rank: &Rank,
    step: u64,
    time: f64,
    u: &[Field],
    part: Option<&ElemPartition>,
    pset: Option<&ParticleSet>,
) -> Checkpoint {
    let scalars = part.map_or_else(Vec::new, |p| {
        p.owner_vec().iter().map(|&r| r as f64).collect()
    });
    let mut fields: Vec<Vec<f64>> = u.iter().map(|f| f.as_slice().to_vec()).collect();
    if let Some(ps) = pset {
        let mut rec = Vec::with_capacity(ps.len() * 4);
        for p in ps.particles() {
            rec.push(p.id as f64);
            rec.extend_from_slice(&p.pos);
        }
        fields.push(rec);
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

fn cmt_rank(
    rank: &mut Rank,
    cfg: &cmt_bone::Config,
    mesh_cfg: &MeshConfig,
    mut rec: Recorder,
) -> RankReplay {
    let n = cfg.n;
    let n3 = n * n * n;
    let basis = Basis::new(n);
    let geom = ElementGeom::cube(1.0);
    let ge = mesh_cfg.global_elems();
    let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
    let chosen = cfg.method.expect("workloads pin the gs method");
    let variant = cfg.variant;
    let vel = cfg.velocity;

    rec.enter(layer::MESH_SETUP, SETUP_STEP);
    let mut part = ElemPartition::initial(mesh_cfg);
    let owned0 = part.owned_by(rank.rank()).to_vec();
    let gids = face_exchange_gids_for(mesh_cfg, &owned0);
    rec.exit();
    rec.enter(layer::GS_SETUP, SETUP_STEP);
    let handle = GsHandle::setup(rank, &gids);
    rec.exit();

    let mut blk = build_block(cfg, owned0, handle);
    for f in 0..cfg.fields {
        let owned = &blk.owned;
        blk.u[f] = Field::from_fn(n, blk.nel, |e, i, j, k| {
            let gc = mesh_cfg.elem_coords(owned[e]);
            let x = gc[0] as f64 + (basis.nodes[i] + 1.0) / 2.0;
            let y = gc[1] as f64 + (basis.nodes[j] + 1.0) / 2.0;
            let z = gc[2] as f64 + (basis.nodes[k] + 1.0) / 2.0;
            initial_profile(f, x, y, z, lengths)
        });
    }
    let dt = stable_dt(cfg, &geom);
    let mut pset = (cfg.particles_per_elem > 0).then(|| {
        let mut ps = ParticleSet::new(RankMesh::new(mesh_cfg.clone(), rank.rank()), &basis);
        ps.set_partition(part.clone());
        match cfg.particle_cluster {
            Some(frac) => ps.seed_clustered(cfg.particles_per_elem, frac),
            None => ps.seed_uniform(cfg.particles_per_elem),
        }
        ps
    });
    let model = CostModel::for_shape(n, cfg.fields);
    let mut rz = Resilience::new(cfg.checkpoint_every as u64, None);

    let mut out = RankReplay::default();
    let mut time = 0.0;
    let steps = cfg.steps as u64;
    let t_loop = Instant::now();
    for step in 0..steps {
        let sid = step as u32;
        rec.enter(layer::STEP, sid);
        if rz.checkpoint_due(step) {
            let ck = capture(
                rank,
                step,
                time,
                &blk.u,
                (cfg.lb_every > 0).then_some(&part),
                pset.as_ref(),
            );
            rec.enter(layer::SAVE, sid);
            out.save_bytes += rz.save(rank, &ck) as u64;
            rec.exit();
            out.saves += 1;
        }
        {
            let Block {
                nel,
                handle,
                u,
                u0,
                rhs,
                scratch,
                faces,
                faces_own,
                ..
            } = &mut blk;
            let nel = *nel;
            let (n_, nel_) = (n as u64, nel as u64);
            let deriv_work = cost::grad_counts(n_, nel_).flops;
            let rk_work = cost::rk_stage_counts(n_, nel_);
            let lift_work = cost::face2full_counts(n_, nel_);
            let face_bytes = cost::full2face_counts(n_, nel_).bytes() + lift_work.bytes();
            let deriv_bytes = 14 * 8 * (n3 as u64) * nel_;
            for (uf, u0f) in u.iter().zip(u0.iter_mut()) {
                u0f.as_mut_slice().copy_from_slice(uf.as_slice());
            }
            for stage in 0..rk::STAGES {
                rec.enter(layer::FULL2FACE, sid);
                for f in 0..cfg.fields {
                    face::full2face(n, nel, u[f].as_slice(), &mut faces[f]);
                    faces_own[f].copy_from_slice(&faces[f]);
                }
                rec.exit();

                rank.set_context("faces");
                rec.enter(layer::GS_START, sid);
                let pending = handle.gs_op_start(rank, &faces[..], GsOp::Add, chosen);
                rec.exit();
                rank.set_context("main");

                for f in 0..cfg.fields {
                    rec.enter(layer::DERIV, sid);
                    advect_volume_rhs(variant, &basis, &geom, vel, &u[f], &mut rhs[f], scratch);
                    rec.exit();
                    out.work.deriv_flops += deriv_work;
                    out.work.deriv_bytes += deriv_bytes;
                }

                let mut outs: Vec<&mut [f64]> =
                    faces.iter_mut().map(|v| v.as_mut_slice()).collect();
                rank.set_context("faces");
                rec.enter(layer::GS_FINISH, sid);
                handle.gs_op_finish(rank, pending, &mut outs);
                rec.exit();
                rank.set_context("main");

                for f in 0..cfg.fields {
                    rec.enter(layer::FACE2FULL, sid);
                    for (s, o) in faces[f].iter_mut().zip(&faces_own[f]) {
                        *s -= o;
                    }
                    upwind_face_correction(
                        &basis,
                        &geom,
                        vel,
                        &faces_own[f],
                        &faces[f],
                        &mut rhs[f],
                    );
                    rec.exit();
                    rec.enter(layer::RK, sid);
                    rk::stage_update(stage, &mut u[f], &u0[f], &rhs[f], dt);
                    rec.exit();
                    out.work.rk_flops += rk_work.flops;
                    out.work.rk_bytes += rk_work.bytes();
                    out.work.lift_flops += lift_work.flops;
                    out.work.face_bytes += face_bytes;
                }
            }
            time += dt;

            if let Some(ps) = pset.as_mut() {
                out.particles_advected += ps.len() as u64;
                rec.enter(layer::P_ADVECT, sid);
                ps.advect_field(dt, [&u[0], &u[1 % cfg.fields], &u[2 % cfg.fields]]);
                rec.exit();
                rec.enter(layer::P_MIGRATE, sid);
                let moved = ps.migrate(rank);
                rec.exit();
                out.particles_sent += moved.sent as u64;
            }

            if (step + 1) % cfg.cfl_interval as u64 == 0 {
                rank.set_context("cfl");
                let local_max = u.iter().fold(0.0f64, |m, f| m.max(f.norm_inf()));
                rec.enter(layer::ALLREDUCE, sid);
                let _ = rank.allreduce_scalar(local_max, ReduceOp::Max);
                rec.exit();
                rank.set_context("main");
            }
        }

        // Load balancer, between steps, skipped after the last one.
        let done = step + 1;
        if cfg.lb_every > 0 && done % cfg.lb_every as u64 == 0 && done < steps {
            let ps = pset.as_mut().expect("the balancer requires particles");
            rec.enter(layer::LB_MONITOR, sid);
            let counts = ps.counts_per_owned();
            let delay_us = rank.injected_delay_us();
            let global = gather_costs(rank, &part, &counts, delay_us);
            let decision = decide(&model, &part, &global, cfg.lb_threshold);
            rec.exit();
            if let Some(owners) = decision.owners {
                rec.enter(layer::LB_MIGRATE, sid);
                let (nb, new_part, sent) =
                    repartition(rank, cfg, mesh_cfg, &part, owners, &blk, ps, &mut rec, sid);
                rec.exit();
                blk = nb;
                part = new_part;
                out.rebalance_steps.push(done as u32);
                out.elems_sent += sent;
            }
        }
        rec.exit();
    }
    out.loop_s = t_loop.elapsed().as_secs_f64();

    let local_sum: f64 = blk.u.iter().map(|f| f.sum()).sum();
    rank.set_context("checksum");
    let _ = rank.allreduce_scalar(local_sum, ReduceOp::Sum);
    rank.set_context("main");

    // Per-element fingerprints, as `cmt_bone::run` computes them.
    for (slot, &gid) in blk.owned.iter().enumerate() {
        let mut h = hash::FNV_OFFSET;
        for f in &blk.u {
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
        out.hashes.push((gid as u64, h));
    }
    out.dropped = rec.dropped();
    out.span_allocs = rec.allocs();
    out.spans = rec.into_spans();
    out
}

/// Adopt the balancer's new owner vector: rebuild the block on the new
/// partition (collective gs setup) and migrate departing elements with
/// their resident particles, as `cmt_bone::run` does. Returns the new block,
/// the new partition and the elements this rank shipped.
#[allow(clippy::too_many_arguments)]
fn repartition(
    rank: &mut Rank,
    cfg: &cmt_bone::Config,
    mesh_cfg: &MeshConfig,
    part: &ElemPartition,
    owners: Vec<u32>,
    blk: &Block,
    ps: &mut ParticleSet,
    rec: &mut Recorder,
    sid: u32,
) -> (Block, ElemPartition, u64) {
    let n3 = cfg.n * cfg.n * cfg.n;
    let new_part = ElemPartition::from_owner(rank.size(), owners);
    let me = rank.rank();
    let dep: HashMap<usize, Vec<Particle>> = ps
        .split_off_elems(|gid| new_part.owner_of(gid) != me)
        .into_iter()
        .collect();
    rec.enter(layer::MESH_SETUP, sid);
    let owned = new_part.owned_by(me).to_vec();
    let gids = face_exchange_gids_for(mesh_cfg, &owned);
    rec.exit();
    rec.enter(layer::GS_SETUP, sid);
    let handle = GsHandle::setup(rank, &gids);
    rec.exit();
    let mut nb = build_block(cfg, owned, handle);
    for (slot, &gid) in nb.owned.iter().enumerate() {
        if part.owner_of(gid) == me {
            let (_, old) = part.slot_of(gid);
            for (nf, of) in nb.u.iter_mut().zip(&blk.u) {
                nf.as_mut_slice()[slot * n3..(slot + 1) * n3]
                    .copy_from_slice(&of.as_slice()[old * n3..(old + 1) * n3]);
            }
        }
    }
    let stats = migrate_blocks(
        rank,
        part,
        &new_part,
        |gid| {
            let (_, slot) = part.slot_of(gid);
            let res = dep.get(&gid).map(|v| v.as_slice()).unwrap_or(&[]);
            let mut vals = Vec::with_capacity(cfg.fields * n3 + 1 + res.len() * 4);
            for uf in &blk.u {
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
            let (_, slot) = new_part.slot_of(gid);
            for (f, nf) in nb.u.iter_mut().enumerate() {
                nf.as_mut_slice()[slot * n3..(slot + 1) * n3]
                    .copy_from_slice(&data[f * n3..(f + 1) * n3]);
            }
            let rec = &data[cfg.fields * n3 + 1..];
            for c in rec.chunks_exact(4) {
                ps.insert(Particle {
                    id: c[0] as u64,
                    pos: [c[1], c[2], c[3]],
                });
            }
        },
    );
    ps.set_partition(new_part.clone());
    (nb, new_part, stats.elems_sent as u64)
}

fn nek_rank(
    rank: &mut Rank,
    cfg: &nekbone::Config,
    mesh_cfg: &MeshConfig,
    mut rec: Recorder,
) -> RankReplay {
    assert!(cfg.periodic, "the nekbone workload is periodic (no mask)");
    rec.enter(layer::MESH_SETUP, SETUP_STEP);
    let mesh = RankMesh::new(mesh_cfg.clone(), rank.rank());
    let gids = mesh.volume_point_gids();
    rec.exit();
    rec.enter(layer::GS_SETUP, SETUP_STEP);
    let handle = GsHandle::setup(rank, &gids);
    rec.exit();
    let method = cfg.method.expect("workloads pin the gs method");
    let inv_mult: Vec<f64> = handle
        .multiplicities(rank, method)
        .into_iter()
        .map(|m| 1.0 / m)
        .collect();
    let (n, nel) = (cfg.n, mesh.nel());
    let op = AxOperator::new(n, 1.0, cfg.lambda, cfg.variant);
    let mut b = Field::zeros(n, nel);
    for (v, &gid) in b.as_mut_slice().iter_mut().zip(&gids) {
        let t = gid as f64 * 1e-4;
        *v = (t.sin() + 0.5 * (2.7 * t).cos()) * 1e-2;
    }
    let mut x = Field::zeros(n, nel);

    // The CG loop of `nekbone::cg::cg_solve_resilient` (x0 = 0, no
    // mask, no checkpoints).
    let mut w = Field::zeros(n, nel);
    let mut t1 = Field::zeros(n, nel);
    let mut t2 = Field::zeros(n, nel);
    let shared = handle.shared_slot_flags();
    let mut r = b.clone();
    let mut p = r.clone();
    rec.enter(layer::GLSC3, SETUP_STEP);
    let mut rz = glsc3(rank, &r, &r, &inv_mult);
    rec.exit();
    let initial = rz.max(0.0).sqrt();
    let mut last = initial;
    let mut iters = 0;
    let mut ax_flops = 0;

    let ax_work = cost::deriv_counts(n as u64, nel as u64).times(6).flops;
    let t_loop = Instant::now();
    while iters < cfg.cg_iters && last > cfg.tol {
        let sid = iters as u32;
        rec.enter(layer::STEP, sid);
        rec.enter(layer::AX, sid);
        op.apply(&p, &mut w, &mut t1, &mut t2);
        rec.exit();
        ax_flops += ax_work;
        rank.set_context("dssum");
        rec.enter(layer::GS_START, sid);
        let pending = handle.gs_op_start(rank, &[w.as_slice()], GsOp::Add, method);
        rec.exit();
        rank.set_context("main");
        let mut interior = 0.0;
        for (i, (&sh, &im)) in shared.iter().zip(&inv_mult).enumerate() {
            if !sh {
                interior += p.as_slice()[i] * w.as_slice()[i] * im;
            }
        }
        rank.set_context("dssum");
        rec.enter(layer::GS_FINISH, sid);
        handle.gs_op_finish(rank, pending, &mut [w.as_mut_slice()]);
        rec.exit();
        rank.set_context("main");
        rec.enter(layer::GLSC3, sid);
        let mut shared_part = 0.0;
        for (i, (&sh, &im)) in shared.iter().zip(&inv_mult).enumerate() {
            if sh {
                shared_part += p.as_slice()[i] * w.as_slice()[i] * im;
            }
        }
        rank.set_context("glsc3");
        rec.enter(layer::ALLREDUCE, sid);
        let pap = rank.allreduce_scalar(interior + shared_part, ReduceOp::Sum);
        rec.exit();
        rank.set_context("main");
        rec.exit();
        assert!(pap > 0.0, "CG breakdown: p^T A p = {pap}");
        let alpha = rz / pap;
        let mut local = 0.0;
        {
            let (xs, rs) = (x.as_mut_slice(), r.as_mut_slice());
            let (ps, ws) = (p.as_slice(), w.as_slice());
            for i in 0..xs.len() {
                xs[i] += alpha * ps[i];
                rs[i] += -alpha * ws[i];
                local += rs[i] * rs[i] * inv_mult[i];
            }
        }
        rec.enter(layer::GLSC3, sid);
        rank.set_context("glsc3");
        rec.enter(layer::ALLREDUCE, sid);
        let rz_new = rank.allreduce_scalar(local, ReduceOp::Sum);
        rec.exit();
        rank.set_context("main");
        rec.exit();
        let beta = rz_new / rz;
        rz = rz_new;
        p.axpby(1.0, &r, beta);
        last = rz.max(0.0).sqrt();
        iters += 1;
        rec.exit();
    }
    let loop_s = t_loop.elapsed().as_secs_f64();

    let local_sum: f64 = x
        .as_slice()
        .iter()
        .zip(&inv_mult)
        .map(|(&v, &m)| v * m)
        .sum();
    rank.set_context("checksum");
    let _ = rank.allreduce_scalar(local_sum, ReduceOp::Sum);
    rank.set_context("main");
    let mut h = hash::FNV_OFFSET;
    hash::fnv1a_f64s(&mut h, x.as_slice());

    RankReplay {
        dropped: rec.dropped(),
        span_allocs: rec.allocs(),
        spans: rec.into_spans(),
        loop_s,
        work: Work {
            ax_flops,
            ..Work::default()
        },
        hashes: vec![(rank.rank() as u64, h)],
        cg: Some(CgOutcome {
            initial,
            last,
            iterations: iters,
        }),
        ..RankReplay::default()
    }
}
