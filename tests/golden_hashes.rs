//! Absolute golden `state_hash` values for one small CMT-bone case and one
//! small Nekbone case under every kernel tier.
//!
//! Every other bitwise test compares run A against run B, so a drift
//! shared by both sides (say, in the `opt` loops that `simd` mirrors)
//! would pass them all. These constants pin the bits themselves: a change
//! to any tier's summation order, or to the drivers around it, fails here.
//! Worker-chunk grain never changes bits, so an autotuned run must land on
//! the pinned hash of whichever variant it reports.

use cmt_core::KernelVariant;
use cmt_gs::GsMethod;

fn cmt_bone_case(variant: KernelVariant, kernel_autotune: bool) -> cmt_bone::Config {
    cmt_bone::Config {
        ranks: 2,
        n: 6,
        elems_per_rank: 8,
        steps: 3,
        fields: 2,
        dealias_m: Some(8),
        variant,
        kernel_autotune,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

fn nekbone_case(variant: KernelVariant, kernel_autotune: bool) -> nekbone::Config {
    nekbone::Config {
        ranks: 2,
        n: 6,
        elems_per_rank: 8,
        cg_iters: 12,
        variant,
        kernel_autotune,
        method: Some(GsMethod::PairwiseExchange),
        ..Default::default()
    }
}

/// `(variant, cmt-bone state hash, nekbone state hash)`.
const GOLDEN: [(KernelVariant, u64, u64); 4] = [
    (
        KernelVariant::Basic,
        0xbe05_0cf9_8794_19b9,
        0x26a9_f193_0a6c_6042,
    ),
    (
        KernelVariant::Optimized,
        0xbe05_0cf9_8794_19b9,
        0x26a9_f193_0a6c_6042,
    ),
    (
        KernelVariant::Specialized,
        0xbe05_0cf9_8794_19b9,
        0x26a9_f193_0a6c_6042,
    ),
    (
        KernelVariant::Simd,
        0xbe05_0cf9_8794_19b9,
        0x26a9_f193_0a6c_6042,
    ),
];

fn golden(variant: KernelVariant) -> (u64, u64) {
    let &(_, cmt, nek) = GOLDEN
        .iter()
        .find(|(v, _, _)| *v == variant)
        .unwrap_or_else(|| panic!("no golden hash for {}", variant.name()));
    (cmt, nek)
}

#[test]
#[cfg_attr(miri, ignore)]
fn every_tier_reproduces_its_golden_state_hash() {
    for &(variant, cmt, nek) in &GOLDEN {
        let c = cmt_bone::run(&cmt_bone_case(variant, false)).state_hash;
        let k = nekbone::run(&nekbone_case(variant, false)).state_hash;
        assert_eq!(c, cmt, "cmt-bone {} drifted", variant.name());
        assert_eq!(k, nek, "nekbone {} drifted", variant.name());
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn autotuned_runs_land_on_the_golden_hash_of_their_winner() {
    let c = cmt_bone::run(&cmt_bone_case(KernelVariant::Optimized, true));
    let tune = c
        .runtime
        .kernel_autotune
        .as_ref()
        .expect("cmt-bone autotune ran");
    assert_eq!(c.state_hash, golden(tune.effective).0);

    let k = nekbone::run(&nekbone_case(KernelVariant::Optimized, true));
    let tune = k
        .runtime
        .kernel_autotune
        .as_ref()
        .expect("nekbone autotune ran");
    assert_eq!(k.state_hash, golden(tune.effective).1);
}
