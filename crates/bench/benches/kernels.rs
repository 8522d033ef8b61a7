//! Kernel-tier bench: the simd element kernels and the MPI+workers
//! overlap window against the pure-MPI scalar baseline, plus the
//! startup kernel autotune, on a compute-heavy CMT-bone configuration.
//!
//! Three sides, all bitwise identical by construction:
//! * `serial` — 1 worker, the scalar `opt` kernels (the reference);
//! * `simd`   — 1 worker, the runtime-dispatched vector kernels; its
//!   `kernel_self_s` (flux-divergence region self time) over serial's
//!   is the kernel speedup the simd tier delivers on its own;
//! * `hybrid` — `HYBRID_WORKERS` workers on the simd kernels, the
//!   full MPI+X+SIMD stack.
//!
//! Modes (after `cargo bench -p cmt-bench --bench kernels --`):
//! * default — measure, print the table, and write `BENCH_kernels.json`
//!   at the repo root (the committed CI baseline).
//! * `--check` — measure and gate: fail if any side diverges bitwise,
//!   if the simd/serial kernel-time ratio regressed more than 10% over
//!   the committed baseline (skipped when runtime dispatch lands on the
//!   scalar fallback — there is no vector unit to win with), or if the
//!   hybrid/serial wall ratio regressed likewise.
//! * `--test` — smoke mode: one tiny run per side, no file writes.

use std::time::Instant;

use cmt_bone::{Config, Pipeline};
use cmt_core::KernelVariant;
use cmt_gs::GsMethod;

/// Workers per rank on the hybrid side.
const HYBRID_WORKERS: usize = 4;

/// A deriv-dominated shape: few ranks (leave cores for the pool), many
/// elements, mid-range N.
fn base_cfg(variant: KernelVariant, workers: usize, steps: usize) -> Config {
    Config {
        ranks: 2,
        n: 12,
        elems_per_rank: 32,
        steps,
        fields: 5,
        variant,
        workers,
        method: Some(GsMethod::PairwiseExchange),
        pipeline: Pipeline::Overlapped,
        ..Default::default()
    }
}

/// Self seconds of the flux-divergence derivative regions.
fn kernel_self_s(rep: &cmt_bone::RunReport) -> f64 {
    rep.runtime
        .profile
        .flat
        .iter()
        .filter(|(name, _)| name.starts_with("ax_cmt"))
        .map(|(_, s)| s.self_s())
        .sum()
}

struct Side {
    wall_s: f64,
    kernel_self_s: f64,
    deriv_share: f64,
    state_hash: u64,
}

/// Measure one side: wall and kernel self time as min over `reps` runs.
fn measure(variant: KernelVariant, workers: usize, reps: usize) -> Side {
    let cfg = base_cfg(variant, workers, 4);
    let mut wall_s = f64::INFINITY;
    let mut kself = f64::INFINITY;
    let mut rep = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = cmt_bone::run(&cfg);
        wall_s = wall_s.min(t.elapsed().as_secs_f64());
        kself = kself.min(kernel_self_s(&r));
        rep = Some(r);
    }
    let rep = rep.expect("reps > 0");
    let total = rep.runtime.profile.total_self_s();
    Side {
        wall_s,
        kernel_self_s: kself,
        deriv_share: if total > 0.0 {
            kernel_self_s(&rep) / total
        } else {
            0.0
        },
        state_hash: rep.state_hash,
    }
}

/// One autotuned run on the same shape: which variant × grain won, and
/// the ISA the simd tier dispatches to on this machine.
fn autotune() -> (String, usize) {
    let rep = cmt_bone::run(&Config {
        kernel_autotune: true,
        steps: 1,
        ..base_cfg(KernelVariant::Optimized, 1, 1)
    });
    let t = rep.runtime.kernel_autotune.expect("kernel autotune report");
    (t.effective.name().to_string(), t.chosen.grain)
}

fn json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json")
}

/// Pull a bare numeric value out of a flat JSON document by key.
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let tail = text[at..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn render_json(serial: &Side, simd: &Side, hybrid: &Side, tuned: &(String, usize)) -> String {
    let side = |s: &Side| {
        format!(
            "{{\"wall_s\": {:.6}, \"kernel_self_s\": {:.6}, \"deriv_share\": {:.6}}}",
            s.wall_s, s.kernel_self_s, s.deriv_share
        )
    };
    format!(
        "{{\n  \"suite\": \"kernels\",\n  \
         \"config\": {{\"ranks\": 2, \"n\": 12, \"elems_per_rank\": 32, \
         \"fields\": 5, \"steps\": 4, \"method\": \"pairwise\", \
         \"pipeline\": \"overlapped\", \"hybrid_workers\": {}}},\n  \
         \"isa\": \"{}\",\n  \
         \"serial\": {},\n  \"simd\": {},\n  \"hybrid\": {},\n  \
         \"kernel_ratio\": {:.6},\n  \"wall_ratio\": {:.6},\n  \
         \"autotune\": {{\"variant\": \"{}\", \"grain\": {}}}\n}}\n",
        HYBRID_WORKERS,
        cmt_core::kernels::simd::active_isa().name(),
        side(serial),
        side(simd),
        side(hybrid),
        simd.kernel_self_s / serial.kernel_self_s,
        hybrid.wall_s / serial.wall_s,
        tuned.0,
        tuned.1,
    )
}

fn print_table(serial: &Side, simd: &Side, hybrid: &Side, tuned: &(String, usize)) {
    println!(
        "suite kernels (hybrid workers: {HYBRID_WORKERS}, simd isa: {})",
        cmt_core::kernels::simd::active_isa().name()
    );
    println!(
        "{:<10} {:>10} {:>11} {:>12} {:>18}",
        "side", "wall (s)", "kernel (s)", "deriv share", "state hash"
    );
    for (name, s) in [("serial", serial), ("simd", simd), ("hybrid", hybrid)] {
        println!(
            "{:<10} {:>10.4} {:>11.4} {:>11.1}% {:>18}",
            name,
            s.wall_s,
            s.kernel_self_s,
            100.0 * s.deriv_share,
            format!("{:016x}", s.state_hash),
        );
    }
    println!(
        "kernel ratio (simd / serial): {:.3}",
        simd.kernel_self_s / serial.kernel_self_s
    );
    println!(
        "wall ratio (hybrid / serial): {:.3}",
        hybrid.wall_s / serial.wall_s
    );
    println!("autotune picked: {} (grain {})", tuned.0, tuned.1);
}

fn main() {
    let mut quick = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => quick = true,
            "--check" => check = true,
            _ => {}
        }
    }

    if quick {
        for (variant, workers) in [
            (KernelVariant::Optimized, 1),
            (KernelVariant::Simd, 1),
            (KernelVariant::Simd, 2),
        ] {
            let cfg = base_cfg(variant, workers, 2);
            std::hint::black_box(cmt_bone::run(&cfg).checksum);
            println!(
                "test kernels/variant={}/workers={workers} ... ok",
                variant.name()
            );
        }
        let tuned = autotune();
        println!("test kernels/autotune={} ... ok", tuned.0);
        return;
    }

    let reps = if check { 5 } else { 3 };
    let serial = measure(KernelVariant::Optimized, 1, reps);
    let simd = measure(KernelVariant::Simd, 1, reps);
    let hybrid = measure(KernelVariant::Simd, HYBRID_WORKERS, reps);
    let tuned = autotune();
    print_table(&serial, &simd, &hybrid, &tuned);

    if check {
        let mut failed = false;
        for (name, side) in [("simd", &simd), ("hybrid", &hybrid)] {
            if side.state_hash != serial.state_hash {
                eprintln!(
                    "FAIL: {name} final state {:016x} differs from serial {:016x}",
                    side.state_hash, serial.state_hash
                );
                failed = true;
            }
        }
        match std::fs::read_to_string(json_path()) {
            Ok(baseline) => {
                let isa = cmt_core::kernels::simd::active_isa();
                if isa == cmt_core::kernels::simd::SimdIsa::Scalar {
                    println!("kernel ratio gate skipped: simd dispatch is on the scalar fallback");
                } else {
                    let base_kr = json_f64(&baseline, "kernel_ratio")
                        .expect("BENCH_kernels.json has no kernel_ratio");
                    let kr = simd.kernel_self_s / serial.kernel_self_s;
                    // Both sides run in the same process on the same
                    // box, so the kernel-time ratio is machine-stable:
                    // 10% over the committed baseline, floored at the
                    // 0.8x the simd tier must deliver at minimum.
                    let limit = (base_kr * 1.10).max(0.80);
                    if kr > limit {
                        eprintln!(
                            "FAIL: simd/serial kernel ratio {kr:.3} exceeds {limit:.3} \
                             (committed baseline {base_kr:.3} + 10%)"
                        );
                        failed = true;
                    } else {
                        println!(
                            "kernel ratio {kr:.3} within limit {limit:.3} \
                             (baseline {base_kr:.3})"
                        );
                    }
                }
                let base_ratio = json_f64(&baseline, "wall_ratio")
                    .expect("BENCH_kernels.json has no wall_ratio");
                let ratio = hybrid.wall_s / serial.wall_s;
                // Allow 10% over the committed ratio, floored at an
                // absolute 0.90: CI machines have unpredictable core
                // counts, so the floor catches "the hybrid simd stack
                // buys nothing at all", not "less speedup than the
                // baseline box". On the scalar fallback the committed
                // ratio's simd speedup cannot materialize, so only the
                // old lenient "not decisively slower" floor applies.
                let limit = if isa == cmt_core::kernels::simd::SimdIsa::Scalar {
                    (base_ratio * 1.10).max(1.10)
                } else {
                    (base_ratio * 1.10).max(0.90)
                };
                if ratio > limit {
                    eprintln!(
                        "FAIL: hybrid/serial wall ratio {ratio:.3} exceeds {limit:.3} \
                         (committed baseline {base_ratio:.3} + 10%)"
                    );
                    failed = true;
                } else {
                    println!(
                        "wall ratio {ratio:.3} within limit {limit:.3} \
                         (baseline {base_ratio:.3})"
                    );
                }
            }
            Err(e) => {
                eprintln!("FAIL: cannot read committed BENCH_kernels.json: {e}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("kernels check passed");
    } else {
        let path = json_path();
        std::fs::write(&path, render_json(&serial, &simd, &hybrid, &tuned))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}
