//! Host side of a run: assemble the world, run the rank program, merge
//! the per-rank outputs, and render the report sections both apps share.

use std::sync::Arc;

use cmt_core::kernels::autotune::KernelAutotuneReport;
use cmt_core::KernelVariant;
use cmt_gs::{AutotuneReport, GsMethod};
use cmt_perf::{MpipReport, ProfileReport, Profiler};
use cmt_verify::{Finding, Verifier};
use simmpi::{Rank, WireCodec, World};

use crate::config::{Knobs, RuntimeConfig};
use crate::rank::RankOutput;

/// What the runtime reports about a run besides its physics: the
/// choices setup made, the merged profile, and the verifier's findings.
/// Both apps' reports carry one as `runtime`.
#[derive(Debug)]
pub struct RuntimeReport {
    /// The gather–scatter method the run used.
    pub chosen_method: GsMethod,
    /// The startup gs tuning table (Fig. 7 body), when it ran.
    pub autotune: Option<AutotuneReport>,
    /// The derivative-kernel tuning table (`--variant auto`): variant ×
    /// chunk-grain timings averaged across ranks, when it ran.
    pub kernel_autotune: Option<KernelAutotuneReport>,
    /// The kernel variant that actually ran: the autotune winner under
    /// `--variant auto`, otherwise the configured variant resolved for
    /// this `n`.
    pub kernel_variant: KernelVariant,
    /// The instruction set the simd tier dispatched to (`avx2` / `sse2`
    /// / `scalar`); `-` when another variant ran.
    pub kernel_isa: &'static str,
    /// Region profile merged over ranks (Fig. 4).
    pub profile: ProfileReport,
    /// `cmt-verify` findings when the run was checked
    /// (`RuntimeConfig::verify`); `None` when verification was off,
    /// `Some(vec![])` for a clean run.
    pub verify: Option<Vec<Finding>>,
}

/// Everything a run hands back to the host.
pub struct Finished<A> {
    /// Per-rank outputs in rank order. Profilers are intact; the tuning
    /// tables have moved into [`Finished::report`].
    pub ranks: Vec<RankOutput<A>>,
    /// The merged, rank-independent part.
    pub report: RuntimeReport,
    /// mpiP-style communication statistics.
    pub comm: MpipReport,
}

/// Assemble the world `rt` describes — network model, buffer pooling,
/// `k.workers` pool threads per rank with allocation counters, fault
/// plan, schedule chaos, verifier, transport — run `rank_main` on
/// `k.ranks` ranks, and merge the outputs: the profiles, the first
/// rank's tuning tables, the chosen method, and the effective kernel
/// variant.
///
/// `run_dist` runs inproc worlds as rank threads; socket worlds spawn
/// one child process per rank (or run this process's single rank and
/// exit, when the launcher spawned it).
pub fn run<A, F>(rt: &RuntimeConfig, k: &Knobs, rank_main: F) -> Finished<A>
where
    A: Send + WireCodec,
    F: Fn(&mut Rank) -> RankOutput<A> + Send + Sync,
{
    let mut world = match rt.net {
        Some(net) => World::with_network(net),
        None => World::new(),
    };
    world = world
        .with_pooling(rt.pool)
        .with_workers(k.workers)
        .with_worker_alloc_counters(cmt_perf::alloc::thread_counts);
    if let Some(plan) = &rt.fault_plan {
        world = world.with_fault_plan(plan.clone());
    }
    if let Some(seed) = rt.chaos_sched {
        world = world.with_chaos_sched(seed);
    }
    let verifier = rt.verify.then(|| Arc::new(Verifier::new()));
    if let Some(v) = &verifier {
        world = world.with_verifier(v.clone());
    }
    world = world.with_transport(rt.transport.clone());
    let result = world.run_dist(k.ranks, rank_main);

    let mut merged = Profiler::new();
    let mut autotune = None;
    let mut kernel_autotune: Option<KernelAutotuneReport> = None;
    let mut chosen = None;
    let mut outs = result.results;
    for out in &mut outs {
        merged.merge(&out.profiler);
        if autotune.is_none() {
            autotune = out.choices.autotune.take();
        }
        if kernel_autotune.is_none() {
            kernel_autotune = out.choices.kernel_autotune.take();
        }
        chosen.get_or_insert(out.choices.chosen);
    }
    let kernel_variant = kernel_autotune
        .as_ref()
        .map_or_else(|| k.variant.resolve(k.n), |t| t.effective);
    Finished {
        ranks: outs,
        report: RuntimeReport {
            chosen_method: chosen.expect("at least one rank"),
            autotune,
            kernel_autotune,
            kernel_variant,
            kernel_isa: kernel_variant.isa_label(),
            profile: merged.report(),
            verify: verifier.map(|v| v.findings()),
        },
        comm: MpipReport::from_stats(&result.stats),
    }
}

impl RuntimeReport {
    /// The report lines both apps print after their own summary: the
    /// app's `state_hash`, the gs method, the kernel variant, verifier
    /// findings, and both tuning tables (rows labelled `app`).
    pub fn render_head(&self, app: &str, state_hash: u64, out: &mut String) {
        out.push_str(&format!("state hash: {state_hash:016x}\n"));
        out.push_str(&format!(
            "chosen gs method: {}\n",
            self.chosen_method.name()
        ));
        out.push_str(&format!(
            "kernel variant: {} (effective isa: {})\n",
            self.kernel_variant.name(),
            self.kernel_isa
        ));
        if let Some(findings) = &self.verify {
            out.push_str(&cmt_verify::render_findings(findings));
        }
        if let Some(t) = &self.autotune {
            out.push_str("\nAutotune (Fig. 7):\n");
            out.push_str(
                "mini-app   | method             |      avg (s) |      min (s) |      max (s)\n",
            );
            out.push_str(&t.table(app));
        }
        if let Some(t) = &self.kernel_autotune {
            out.push_str("\nKernel autotune (variant x grain, rank-averaged):\n");
            out.push_str(&t.table(app));
        }
    }

    /// The flat execution profile (Fig. 4).
    pub fn render_profile(&self, out: &mut String) {
        out.push_str("\nExecution profile (Fig. 4):\n");
        out.push_str(&self.profile.render_flat());
    }
}

/// The top MPI call sites (Fig. 9) and, for socket runs, the measured
/// network fit.
pub fn render_comm(comm: &MpipReport, out: &mut String) {
    out.push_str("\nTop MPI call sites (Fig. 9):\n");
    out.push_str(&comm.render_top_sites(20));
    let net = comm.render_net_fit();
    if !net.is_empty() {
        out.push_str("\nMeasured network (socket transport):\n");
        out.push_str(&net);
    }
}
