//! Allocation bench: the pooled zero-copy messaging layer against the
//! `--no-pool` fresh-allocation baseline, on the overlap benchmark's
//! CMT-bone configuration.
//!
//! For each side it reports wall time (min of repeated runs), the
//! gather–scatter share of self time, and — when built with
//! `--features count-alloc` — steady-state heap allocations and bytes
//! per timestep inside the `gs_op*` regions, measured differentially
//! (a 6-step run minus a 2-step run, divided by 4) so setup and pool
//! warm-up are excluded.
//!
//! Modes (after `cargo bench -p cmt-bench --bench alloc --`):
//! * default — measure, print the before/after table, and write
//!   `BENCH_alloc.json` at the repo root (the committed CI baseline).
//! * `--check` — measure and gate: fail if the pooled steady state
//!   allocates inside `gs_op*` regions (requires `count-alloc`), or if
//!   the pooled/no-pool wall ratio regressed more than 10% against the
//!   committed `BENCH_alloc.json`.
//! * `--test` — smoke mode: one tiny run per side, no file writes.

use std::time::Instant;

use cmt_bone::{Config, Pipeline};
use cmt_gs::GsMethod;

/// The overlap benchmark's p4 configuration (see `benches/overlap.rs`).
fn base_cfg(pool: bool, steps: usize) -> Config {
    Config {
        ranks: 4,
        n: 8,
        elems_per_rank: 8,
        steps,
        fields: 5,
        method: Some(GsMethod::PairwiseExchange),
        pipeline: Pipeline::Overlapped,
        runtime: cmt_bone::RuntimeConfig {
            pool,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Self-time, self-allocation, and self-byte totals of the `gs_op*`
/// regions, plus their share of total self time.
fn gs_totals(rep: &cmt_bone::RunReport) -> (f64, u64, u64, f64) {
    let mut self_s = 0.0;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    for (name, s) in &rep.runtime.profile.flat {
        if name.starts_with("gs_op") {
            self_s += s.self_s();
            allocs += s.self_allocs();
            bytes += s.self_alloc_bytes();
        }
    }
    let total = rep.runtime.profile.total_self_s();
    let share = if total > 0.0 { self_s / total } else { 0.0 };
    (self_s, allocs, bytes, share)
}

struct Side {
    wall_s: f64,
    gs_share: f64,
    gs_allocs_per_step: f64,
    gs_bytes_per_step: f64,
}

/// Measure one side (pooled or not): wall as min over `reps` full runs,
/// per-step gs allocations via the 6-vs-2-step differential.
fn measure(pool: bool, reps: usize) -> Side {
    let cfg6 = base_cfg(pool, 6);
    let mut wall_s = f64::INFINITY;
    let mut rep6 = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = cmt_bone::run(&cfg6);
        wall_s = wall_s.min(t.elapsed().as_secs_f64());
        rep6 = Some(r);
    }
    let rep6 = rep6.expect("reps > 0");
    let rep2 = cmt_bone::run(&base_cfg(pool, 2));
    let (_, a6, b6, share) = gs_totals(&rep6);
    let (_, a2, b2, _) = gs_totals(&rep2);
    Side {
        wall_s,
        gs_share: share,
        gs_allocs_per_step: a6.saturating_sub(a2) as f64 / 4.0,
        gs_bytes_per_step: b6.saturating_sub(b2) as f64 / 4.0,
    }
}

fn json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_alloc.json")
}

/// Pull a bare numeric value out of a flat JSON document by key. Good
/// enough for the baseline file this bench itself writes.
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let tail = text[at..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn render_json(counting: bool, no_pool: &Side, pool: &Side) -> String {
    let side = |s: &Side| {
        format!(
            "{{\"wall_s\": {:.6}, \"gs_allocs_per_step\": {:.1}, \
             \"gs_bytes_per_step\": {:.1}, \"gs_share\": {:.6}}}",
            s.wall_s, s.gs_allocs_per_step, s.gs_bytes_per_step, s.gs_share
        )
    };
    format!(
        "{{\n  \"suite\": \"alloc\",\n  \"count_alloc\": {},\n  \
         \"config\": {{\"ranks\": 4, \"n\": 8, \"elems_per_rank\": 8, \
         \"fields\": 5, \"steps\": 6, \"method\": \"pairwise\", \
         \"pipeline\": \"overlapped\"}},\n  \"no_pool\": {},\n  \
         \"pool\": {},\n  \"wall_ratio\": {:.6}\n}}\n",
        counting,
        side(no_pool),
        side(pool),
        pool.wall_s / no_pool.wall_s
    )
}

fn print_table(counting: bool, no_pool: &Side, pool: &Side) {
    println!("suite alloc (count-alloc feature: {counting})");
    println!(
        "{:<10} {:>10} {:>16} {:>16} {:>10}",
        "side", "wall (s)", "gs allocs/step", "gs bytes/step", "gs share"
    );
    for (name, s) in [("no-pool", no_pool), ("pool", pool)] {
        println!(
            "{:<10} {:>10.4} {:>16.1} {:>16.1} {:>9.1}%",
            name,
            s.wall_s,
            s.gs_allocs_per_step,
            s.gs_bytes_per_step,
            100.0 * s.gs_share
        );
    }
    println!(
        "wall ratio (pool / no-pool): {:.3}",
        pool.wall_s / no_pool.wall_s
    );
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut regions = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => quick = true,
            "--check" => check = true,
            "--regions" => regions = true,
            _ => {}
        }
    }
    let counting = cmt_perf::alloc::counting();

    if regions {
        // Diagnostic mode: per-region steady-state allocation deltas of
        // the pooled run (6-step minus 2-step), for chasing down stray
        // allocations the table only reports in aggregate.
        let r6 = cmt_bone::run(&base_cfg(true, 6));
        let r2 = cmt_bone::run(&base_cfg(true, 2));
        println!(
            "{:>10} {:>14}  region (pooled, per 4 steps)",
            "allocs", "bytes"
        );
        for (name, s6) in &r6.runtime.profile.flat {
            let (a2, b2) = r2
                .runtime
                .profile
                .flat
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| (s.self_allocs(), s.self_alloc_bytes()))
                .unwrap_or((0, 0));
            let da = s6.self_allocs().saturating_sub(a2);
            let db = s6.self_alloc_bytes().saturating_sub(b2);
            if da > 0 {
                println!("{da:>10} {db:>14}  {name}");
            }
        }
        return;
    }

    if quick {
        for pool in [false, true] {
            let cfg = Config {
                steps: 2,
                ..base_cfg(pool, 2)
            };
            std::hint::black_box(cmt_bone::run(&cfg).checksum);
            println!("test alloc/pool={pool} ... ok");
        }
        return;
    }

    let reps = if check { 5 } else { 3 };
    let no_pool = measure(false, reps);
    let pool = measure(true, reps);
    print_table(counting, &no_pool, &pool);

    if check {
        let mut failed = false;
        if counting {
            if pool.gs_allocs_per_step > 0.0 {
                eprintln!(
                    "FAIL: pooled steady state allocates in gs_op* regions \
                     ({} allocs/step, {} bytes/step)",
                    pool.gs_allocs_per_step, pool.gs_bytes_per_step
                );
                failed = true;
            }
        } else {
            eprintln!(
                "warning: built without --features count-alloc; \
                 the zero-allocation gate is vacuous"
            );
        }
        match std::fs::read_to_string(json_path()) {
            Ok(baseline) => {
                let base_ratio =
                    json_f64(&baseline, "wall_ratio").expect("BENCH_alloc.json has no wall_ratio");
                let ratio = pool.wall_s / no_pool.wall_s;
                // Allow 10% over the committed ratio, floored at an
                // absolute 1.10 (runs this small carry a few percent of
                // scheduling noise; a real pooling regression shows up as
                // pooled decisively slower than the fresh-alloc baseline).
                let limit = (base_ratio * 1.10).max(1.10);
                if ratio > limit {
                    eprintln!(
                        "FAIL: pooled/no-pool wall ratio {ratio:.3} exceeds {limit:.3} \
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
                eprintln!("FAIL: cannot read committed BENCH_alloc.json: {e}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("alloc check passed");
    } else {
        let path = json_path();
        std::fs::write(&path, render_json(counting, &no_pool, &pool))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}
