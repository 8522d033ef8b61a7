//! The traced replay's per-layer metrics.
//!
//! Self times are per step and per rank (the mean rank's share of one
//! step's wall time). Rates divide the work of both ranks by the mean
//! rank's self time, so they are what the two concurrent ranks achieved
//! together, comparable with the host references measured on two
//! threads. A layer a workload does not call reports 0.

use std::time::Instant;

use cmt_core::KernelVariant;
use simmpi::MpiOp;

use crate::e2e::{comm_mismatch, Gate, Tally};
use crate::host;
use crate::replay::{layer, replay, Replay};
use crate::stats::{median, percentile};
use crate::trace::{self_times, Span, SETUP_STEP};
use crate::workload::{Case, Workload, RANKS};

/// The replay's spans-off step time may differ from the end-to-end step
/// time by at most this factor either way.
pub const STEP_RATIO_BOUND: f64 = 1.5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Every per-layer metric name with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.deriv.self_ms", "ms"),
    ("core.deriv.gflops", "GFLOP/s"),
    ("core.deriv.flop_per_byte", "flop/B"),
    ("core.full2face.self_ms", "ms"),
    ("core.face2full.self_ms", "ms"),
    ("core.face.gbs", "GB/s"),
    ("core.rk.self_ms", "ms"),
    ("core.rk.gbs", "GB/s"),
    ("gs.start.self_ms", "ms"),
    ("gs.finish.self_ms", "ms"),
    ("gs.wait_ms", "ms"),
    ("gs.msgs_per_step", "count"),
    ("gs.bytes_per_step", "B"),
    ("gs.gbs", "GB/s"),
    ("gs.setup_ms", "ms"),
    ("mesh.setup_ms", "ms"),
    ("simmpi.allreduce.calls_per_step", "count"),
    ("simmpi.allreduce.p50_us", "us"),
    ("simmpi.allreduce.p99_us", "us"),
    ("nekbone.ax.self_ms", "ms"),
    ("nekbone.ax.gflops", "GFLOP/s"),
    ("nekbone.glsc3.p50_us", "us"),
    ("particles.advect.self_ms", "ms"),
    ("particles.advect.mpart_s", "Mpart/s"),
    ("particles.migrate.self_ms", "ms"),
    ("particles.migrate.moved_per_step", "count"),
    ("lb.monitor.self_ms", "ms"),
    ("lb.migrate.self_ms", "ms"),
    ("lb.rebalances", "count"),
    ("lb.elems_moved", "count"),
    ("lb.imbalance_ratio", "ratio"),
    ("resilience.save.self_ms", "ms"),
    ("resilience.save.bytes", "B"),
    ("resilience.save.gbs", "GB/s"),
    ("host.peak_gflops", "GFLOP/s"),
    ("host.bw_gbs", "GB/s"),
    ("trace.overhead_frac", "ratio"),
    ("replay.step_ratio", "ratio"),
];

/// The layers whose self time counts as a rank's compute (what the load
/// balancer redistributes).
const COMPUTE: [&str; 5] = [
    layer::DERIV,
    layer::FULL2FACE,
    layer::FACE2FULL,
    layer::RK,
    layer::P_ADVECT,
];

/// The traced run's results.
#[derive(Debug)]
pub struct Layers {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// The last spans-on replay's spans, per rank (for the artifacts).
    pub spans: Vec<Vec<Span>>,
}

/// Sums over the spans-on replays.
struct Totals<'a> {
    reps: &'a [Replay],
    /// Self seconds per span, aligned with each rank's span buffer.
    selfs: Vec<Vec<Vec<f64>>>,
}

impl<'a> Totals<'a> {
    fn new(reps: &'a [Replay]) -> Self {
        let selfs = reps
            .iter()
            .map(|r| r.ranks.iter().map(|k| self_times(&k.spans)).collect())
            .collect();
        Totals { reps, selfs }
    }

    fn steps(&self) -> f64 {
        (self.reps.len() * self.reps[0].steps.max(1)) as f64
    }

    /// Spans of `name` recorded inside the step loop, with self seconds.
    fn step_spans(&self, name: &str) -> Vec<(&Span, f64)> {
        let mut out = Vec::new();
        for (rep, selfs) in self.reps.iter().zip(&self.selfs) {
            for (rk, st) in rep.ranks.iter().zip(selfs) {
                for (s, &t) in rk.spans.iter().zip(st) {
                    if s.name == name && s.step != SETUP_STEP {
                        out.push((s, t));
                    }
                }
            }
        }
        out
    }

    /// Self seconds of `name` summed over reps, ranks and steps.
    fn self_s(&self, name: &str) -> f64 {
        self.step_spans(name).iter().map(|(_, st)| st).sum()
    }

    /// Mean self time of `name` per step per rank, ms.
    fn self_ms(&self, name: &str) -> f64 {
        self.self_s(name) * 1e3 / (self.steps() * RANKS as f64)
    }

    /// `work` (summed over reps and ranks) per mean-rank second of
    /// `names`' self time, scaled by `unit`; 0 when nothing ran.
    fn rate(&self, work: f64, names: &[&str], unit: f64) -> f64 {
        let busy: f64 = names.iter().map(|n| self.self_s(n)).sum::<f64>() / RANKS as f64;
        if busy > 0.0 {
            work / busy * unit
        } else {
            0.0
        }
    }

    fn sum(&self, f: impl Fn(&crate::replay::RankReplay) -> u64) -> f64 {
        self.reps.iter().flat_map(|r| &r.ranks).map(f).sum::<u64>() as f64
    }

    /// Durations of `name` spans inside the step loop, microseconds.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.step_spans(name)
            .iter()
            .map(|(s, _)| s.dur_s() * 1e6)
            .collect()
    }

    /// Mean duration of the set-up span `name`, ms.
    fn setup_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .reps
            .iter()
            .flat_map(|r| &r.ranks)
            .flat_map(|k| &k.spans)
            .filter(|s| s.name == name && s.step == SETUP_STEP)
            .map(|s| s.dur_s() * 1e3)
            .collect();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// Sum of one statistic over the replays' gather–scatter call sites
    /// (the step's `faces` and `dssum` exchanges).
    fn gs_sites(&self, op: MpiOp, f: impl Fn(&simmpi::SiteStats) -> f64) -> f64 {
        self.reps
            .iter()
            .flat_map(|r| &r.stats)
            .flat_map(|st| &st.sites)
            .filter(|(k, _)| {
                k.op == op && (k.context.starts_with("faces") || k.context.starts_with("dssum"))
            })
            .map(|(_, s)| f(s))
            .sum()
    }

    /// Max-over-mean compute across ranks after a rebalance divided by
    /// the same before it, over windows of `every` steps; the mean over
    /// rebalances with a complete window on both sides (0 when none, as
    /// without the balancer).
    fn imbalance_ratio(&self, every: usize) -> f64 {
        let mut ratios = Vec::new();
        for (rep, selfs) in self.reps.iter().zip(&self.selfs) {
            let steps = rep.steps;
            // compute seconds per rank per step
            let per: Vec<Vec<f64>> = rep
                .ranks
                .iter()
                .zip(selfs)
                .map(|(rk, st)| {
                    let mut c = vec![0.0; steps];
                    for (s, t) in rk.spans.iter().zip(st) {
                        if s.step != SETUP_STEP && COMPUTE.contains(&s.name) {
                            c[s.step as usize] += t;
                        }
                    }
                    c
                })
                .collect();
            let imbalance = |lo: usize, hi: usize| {
                let load: Vec<f64> = per.iter().map(|c| c[lo..hi].iter().sum()).collect();
                let mean = load.iter().sum::<f64>() / load.len() as f64;
                load.iter().copied().fold(0.0, f64::max) / mean
            };
            for &s in &rep.ranks[0].rebalance_steps {
                let s = s as usize;
                if s >= every && s + every <= steps {
                    ratios.push(imbalance(s, s + every) / imbalance(s - every, s));
                }
            }
        }
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }
}

/// Check one replay against the gate and the end-to-end mpiP books.
fn check_replay(r: &Replay, gate: &Gate, e2e_comm: &cmt_perf::MpipReport) -> Result<(), String> {
    let cg = r.ranks[0].cg;
    gate.check(r.state_hash, cg)?;
    if let Some(d) = comm_mismatch(&r.comm, e2e_comm) {
        return Err(format!(
            "replay mpiP counts differ from the end-to-end run: {d}"
        ));
    }
    let dropped: u64 = r.ranks.iter().map(|k| k.dropped).sum();
    if dropped > 0 {
        return Err(format!("{dropped} spans dropped: span buffer too small"));
    }
    Ok(())
}

/// Run the traced measurement of `workload` at `seed`: alternate an
/// end-to-end call, a spans-off replay and a spans-on replay until
/// `seconds` have passed (at least three rounds), checking each, then
/// measure the host references.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    gate: &Gate,
    tally: &mut Tally,
) -> Layers {
    let case = workload.case(seed, KernelVariant::Simd);
    let setup_case = case.with_steps(0);
    let steps = case.steps() as f64;
    let warm = case.run();
    tally.record("warm-up run", gate.check_run(&warm));
    let (mut e2e_ms, mut off_ms, mut on_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut on_reps = Vec::new();
    let t0 = Instant::now();
    while on_reps.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        let setup = setup_case.run().wall_s;
        let o = case.run();
        tally.record("timed run", gate.check_run(&o));
        e2e_ms.push((o.wall_s - setup) * 1e3 / steps);
        let off = replay(&case, false);
        tally.record("replay (spans off)", check_replay(&off, gate, &o.comm));
        off_ms.push(off.step_ms());
        let on = replay(&case, true);
        tally.record("replay (spans on)", check_replay(&on, gate, &o.comm));
        on_ms.push(on.step_ms());
        on_reps.push(on);
    }
    let step_ratio = median(&off_ms) / median(&e2e_ms);
    let in_bound = (1.0 / STEP_RATIO_BOUND..=STEP_RATIO_BOUND).contains(&step_ratio);
    tally.record(
        "replay step ratio",
        if in_bound {
            Ok(())
        } else {
            Err(format!(
                "replay/e2e step time {step_ratio:.3} outside 1/{STEP_RATIO_BOUND}..{STEP_RATIO_BOUND}"
            ))
        },
    );

    let t = Totals::new(&on_reps);
    let lb_every = match &case {
        Case::Cmt(c) => c.lb_every,
        Case::Nek(_) => 0,
    };
    let deriv_flops = t.sum(|k| k.work.deriv_flops);
    let gs_bytes = t.gs_sites(MpiOp::Isend, |s| s.bytes as f64);
    let allreduce_us = t.durations_us(layer::ALLREDUCE);
    let saves = t.sum(|k| k.saves);
    let rep0 = &on_reps[0];
    let values: [f64; PER_LAYER.len()] = [
        t.self_ms(layer::DERIV),
        t.rate(deriv_flops, &[layer::DERIV], 1e-9),
        deriv_flops / t.sum(|k| k.work.deriv_bytes).max(1.0),
        t.self_ms(layer::FULL2FACE),
        t.self_ms(layer::FACE2FULL),
        t.rate(
            t.sum(|k| k.work.face_bytes),
            &[layer::FULL2FACE, layer::FACE2FULL],
            1e-9,
        ),
        t.self_ms(layer::RK),
        t.rate(t.sum(|k| k.work.rk_bytes), &[layer::RK], 1e-9),
        t.self_ms(layer::GS_START),
        t.self_ms(layer::GS_FINISH),
        t.gs_sites(MpiOp::Wait, |s| s.time_s) * 1e3 / (t.steps() * RANKS as f64),
        t.gs_sites(MpiOp::Isend, |s| s.calls as f64) / t.steps(),
        gs_bytes / t.steps(),
        t.rate(gs_bytes, &[layer::GS_START, layer::GS_FINISH], 1e-9),
        t.setup_ms(layer::GS_SETUP),
        t.setup_ms(layer::MESH_SETUP),
        allreduce_us.len() as f64 / (t.steps() * RANKS as f64),
        percentile(&allreduce_us, 50.0),
        percentile(&allreduce_us, 99.0),
        t.self_ms(layer::AX),
        t.rate(t.sum(|k| k.work.ax_flops), &[layer::AX], 1e-9),
        percentile(&t.durations_us(layer::GLSC3), 50.0),
        t.self_ms(layer::P_ADVECT),
        t.rate(t.sum(|k| k.particles_advected), &[layer::P_ADVECT], 1e-6),
        t.self_ms(layer::P_MIGRATE),
        t.sum(|k| k.particles_sent) / t.steps(),
        t.self_ms(layer::LB_MONITOR),
        t.self_ms(layer::LB_MIGRATE),
        rep0.ranks[0].rebalance_steps.len() as f64,
        rep0.ranks.iter().map(|k| k.elems_sent).sum::<u64>() as f64,
        t.imbalance_ratio(lb_every),
        t.self_ms(layer::SAVE),
        if saves > 0.0 {
            t.sum(|k| k.save_bytes) / saves
        } else {
            0.0
        },
        t.rate(t.sum(|k| k.save_bytes), &[layer::SAVE], 1e-9),
        host::peak_gflops(RANKS),
        host::triad_gbs(RANKS),
        median(&on_ms) / median(&off_ms) - 1.0,
        step_ratio,
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    Layers {
        metrics,
        spans: on_reps.last().expect("at least three rounds").spans(),
    }
}
