//! Recording spans adds no heap allocations to the step loop: the
//! recorder counts the allocations made inside its own calls, and the
//! rest of the loop is the same code with spans on or off. Test builds
//! turn on `cmt-perf`'s counting allocator (a dev-dependency feature),
//! so the per-thread counters tick here.

use std::time::Instant;

use cmt_core::KernelVariant;
use cmtbench::replay::replay;
use cmtbench::trace::Recorder;
use cmtbench::workload::Workload;

#[test]
fn counting_allocator_is_installed() {
    assert!(
        cmt_perf::alloc::counting(),
        "tests must build with count-alloc"
    );
}

#[test]
fn recording_a_span_never_allocates() {
    let mut rec = Recorder::new(true, 0, 800, Instant::now());
    let (a0, _) = cmt_perf::alloc::thread_counts();
    // 1000 nested pairs: the buffer fills, later spans are dropped,
    // still without allocating
    for step in 0..1000 {
        rec.enter("step", step);
        rec.enter("inner", step);
        rec.exit();
        rec.exit();
    }
    let (a1, _) = cmt_perf::alloc::thread_counts();
    assert_eq!(a1 - a0, 0);
    let kept = rec.spans().len() as u64;
    assert!(kept >= 800);
    assert_eq!(kept + rec.dropped(), 2000);
}

#[test]
fn spans_add_no_allocations_to_the_step_loop() {
    for w in Workload::ALL {
        let case = w.case(5, KernelVariant::Simd).with_steps(match w {
            Workload::NekboneCg => 20,
            Workload::CmtMultiphase => 12,
            _ => 4,
        });
        let on = replay(&case, true);
        for r in &on.ranks {
            assert!(r.spans.len() > 10, "{}: spans were recorded", w.name());
            assert_eq!(r.span_allocs, 0, "{}: recording allocated", w.name());
        }
    }
}
