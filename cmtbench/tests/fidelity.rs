//! The replay must be the same program as the end-to-end run: the same
//! final state, the same mpiP call and byte counts site by site, and the
//! same kernel work, for every workload.

use cmt_core::KernelVariant;
use cmtbench::e2e::{comm_mismatch, Gate, Tally};
use cmtbench::layers;
use cmtbench::replay::{layer, replay};
use cmtbench::workload::{Case, Workload, RANKS};

/// Short runs that still reach every mechanism: a timestep-control
/// allreduce, two load-balancer evaluations and three checkpoints.
fn short(w: Workload) -> usize {
    match w {
        Workload::CmtCompute => 5,
        Workload::CmtExchange => 3,
        Workload::NekboneCg => 20,
        Workload::CmtMultiphase => 12,
    }
}

#[test]
fn replay_counts_equal_end_to_end_counts() {
    for w in Workload::ALL {
        let case = w.case(3, KernelVariant::Simd).with_steps(short(w));
        let e2e = case.run();
        let rep = replay(&case, true);
        assert_eq!(rep.state_hash, e2e.state_hash, "{}: final state", w.name());
        if let Some(d) = comm_mismatch(&rep.comm, &e2e.comm) {
            panic!("{}: mpiP counts differ: {d}", w.name());
        }
        assert!(rep.ranks.iter().all(|r| r.dropped == 0), "{}", w.name());
        let spans = |name: &str| {
            rep.ranks
                .iter()
                .flat_map(|r| &r.spans)
                .filter(|s| s.name == name)
                .count()
        };
        let steps = case.steps();
        match &case {
            Case::Cmt(c) => {
                let flops: u64 = rep.ranks.iter().map(|r| r.work.modeled_flops()).sum();
                assert_eq!(Some(flops), e2e.modeled_flops, "{}: flops", w.name());
                assert_eq!(spans(layer::DERIV), RANKS * steps * 3 * c.fields);
                assert_eq!(spans(layer::GS_START), RANKS * steps * 3);
                assert_eq!(spans(layer::ALLREDUCE), RANKS * (steps / c.cfl_interval));
                if c.lb_every > 0 {
                    let lb = e2e.lb.expect("balancer on");
                    assert_eq!(rep.ranks[0].rebalance_steps.len() as u64, lb.rebalances);
                    let moved: u64 = rep.ranks.iter().map(|r| r.elems_sent).sum();
                    assert_eq!(moved, lb.elems_moved);
                    assert!(
                        lb.rebalances >= 1,
                        "the clustered cloud must trigger a rebalance"
                    );
                    assert_eq!(
                        spans(layer::SAVE),
                        RANKS * steps.div_ceil(c.checkpoint_every)
                    );
                }
            }
            Case::Nek(_) => {
                let cg = e2e.cg.expect("nekbone reports CG");
                assert_eq!(rep.ranks[0].cg, Some(cg), "CG outcome");
                assert_eq!(spans(layer::AX), RANKS * cg.iterations);
                assert_eq!(spans(layer::ALLREDUCE), RANKS * 2 * cg.iterations);
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times full-size workloads and the host roofline; run with --release"
)]
fn traced_measurement_passes_its_gate_and_reports_every_exercised_layer() {
    for w in Workload::ALL {
        let mut tally = Tally::default();
        let gate = Gate::new(w, 1, None, &mut tally);
        let l = layers::measure(w, 1, 0.1, &gate, &mut tally);
        assert_eq!(tally.failed, 0, "{}: {:?}", w.name(), tally.failures);
        let names: Vec<&str> = l.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = layers::PER_LAYER.iter().map(|p| p.0).collect();
        assert_eq!(names, expected);
        let get = |n: &str| l.metrics.iter().find(|m| m.name == n).expect(n).value;
        let exercised: &[&str] = match w {
            Workload::CmtCompute | Workload::CmtExchange => &[
                "core.deriv.self_ms",
                "core.deriv.gflops",
                "core.face.gbs",
                "core.rk.gbs",
                "gs.msgs_per_step",
                "simmpi.allreduce.p50_us",
            ],
            Workload::NekboneCg => &[
                "nekbone.ax.gflops",
                "nekbone.glsc3.p50_us",
                "gs.bytes_per_step",
                "simmpi.allreduce.p99_us",
            ],
            Workload::CmtMultiphase => &[
                "particles.advect.mpart_s",
                "particles.migrate.moved_per_step",
                "lb.rebalances",
                "lb.imbalance_ratio",
                "resilience.save.gbs",
            ],
        };
        for n in exercised
            .iter()
            .chain(&["gs.setup_ms", "host.peak_gflops", "host.bw_gbs"])
        {
            assert!(get(n) > 0.0, "{}: {n} = {}", w.name(), get(n));
        }
        let bypassed: &[&str] = match w {
            Workload::NekboneCg => &["core.deriv.self_ms", "core.full2face.self_ms"],
            _ => &["nekbone.ax.self_ms"],
        };
        for n in bypassed {
            assert_eq!(get(n), 0.0, "{}: {n}", w.name());
        }
    }
}
