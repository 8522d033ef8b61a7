//! Load-balancer bench: a clustered particle cloud (all particles in the
//! low-x quarter of the domain, i.e. on a fraction of the ranks) stepped
//! with the balancer off and on.
//!
//! The off side carries the cloud on the seeded ranks for the whole run;
//! the on side lets the cmt-lb monitor detect the skew and migrate
//! particle-heavy elements until per-rank loads even out. The headline
//! metric is the **compute critical path**: the slowest rank's measured
//! physics self time (derivatives + surface ops + RK + particle
//! advection), which is what wall time follows on a host with a core
//! per rank. The *process* wall is reported too, but on a host with
//! fewer cores than ranks the rank threads serialize and the process
//! wall is the partition-independent SUM of rank computes — balancing
//! is invisible there by construction, so it is not gated.
//!
//! Also reported: the straggler spread (max/avg rank compute), rebalance
//! activity, and the partition-independent state hash, which must be
//! bitwise identical on both sides.
//!
//! Modes (after `cargo bench -p cmt-bench --bench lb --`):
//! * default — measure, print the table, and write `BENCH_lb.json` at
//!   the repo root (the committed CI baseline).
//! * `--check` — measure and gate: fail if the state hash moves, no
//!   rebalance fires, or the median over pairs of the LB-on / LB-off
//!   critical-path ratio exceeds 0.85.
//! * `--test` — smoke mode: one tiny run per side, no file writes.

use std::time::Instant;

use cmt_bone::Config;
use cmt_gs::GsMethod;

/// Particle-dominated shape: a heavy cloud (1024 per seeded element)
/// clustered in the low-x quarter, so the ranks owning that slab do
/// several times the advection work of the rest until the balancer
/// spreads the cloud's elements.
fn base_cfg(lb: bool, steps: usize) -> Config {
    Config {
        ranks: 4,
        n: 5,
        elems_per_rank: 8,
        steps,
        fields: 2,
        particles_per_elem: 1024,
        particle_cluster: Some(0.25),
        method: Some(GsMethod::PairwiseExchange),
        lb_every: if lb { 2 } else { 0 },
        lb_threshold: 1.1,
        ..Default::default()
    }
}

/// Interleaved off/on run pairs per measurement. The gate compares
/// the median of the per-pair ratios, so one host-load burst during a
/// single run of a few milliseconds cannot decide it.
const PAIRS: usize = 5;

struct Side {
    wall_s: f64,
    /// Slowest rank's compute self time — the parallel critical path
    /// the gate compares.
    critical_s: f64,
    /// Straggler signature: slowest rank compute over mean rank compute.
    spread: f64,
    rebalances: u64,
    peak_imbalance: f64,
    state_hash: u64,
}

/// One full run of one side.
fn run_side(lb: bool) -> Side {
    let t = Instant::now();
    let r = cmt_bone::run(&base_cfg(lb, 12));
    Side {
        wall_s: t.elapsed().as_secs_f64(),
        critical_s: r.compute_critical_path_s(),
        spread: r.compute_spread(),
        rebalances: r.lb.map(|l| l.rebalances).unwrap_or(0),
        peak_imbalance: r.lb.map(|l| l.peak_imbalance).unwrap_or(0.0),
        state_hash: r.state_hash,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One side's runs folded into its report row: median wall and critical
/// path; the deterministic fields (hash, rebalances, imbalance) and the
/// spread from the last run.
fn fold(runs: Vec<Side>) -> Side {
    let wall_s = median(runs.iter().map(|s| s.wall_s).collect());
    let critical_s = median(runs.iter().map(|s| s.critical_s).collect());
    let last = runs.into_iter().last().expect("PAIRS > 0");
    Side {
        wall_s,
        critical_s,
        ..last
    }
}

/// Run `PAIRS` off/on pairs, alternating which side goes first, and
/// return both folded sides with the median per-pair critical-path
/// ratio (on / off).
fn measure() -> (Side, Side, f64) {
    let mut offs = Vec::with_capacity(PAIRS);
    let mut ons = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            offs.push(run_side(false));
            ons.push(run_side(true));
        } else {
            ons.push(run_side(true));
            offs.push(run_side(false));
        }
    }
    let ratio = median(
        offs.iter()
            .zip(&ons)
            .map(|(off, on)| on.critical_s / off.critical_s)
            .collect(),
    );
    (fold(offs), fold(ons), ratio)
}

fn json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_lb.json")
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

fn render_json(off: &Side, on: &Side, ratio: f64) -> String {
    let side = |s: &Side| {
        format!(
            "{{\"wall_s\": {:.6}, \"critical_s\": {:.6}, \"spread\": {:.6}, \
             \"rebalances\": {}, \"peak_imbalance\": {:.6}}}",
            s.wall_s, s.critical_s, s.spread, s.rebalances, s.peak_imbalance
        )
    };
    format!(
        "{{\n  \"suite\": \"lb\",\n  \
         \"config\": {{\"ranks\": 4, \"n\": 5, \"elems_per_rank\": 8, \
         \"fields\": 2, \"steps\": 12, \"particles_per_elem\": 1024, \
         \"particle_cluster\": 0.25, \"lb_every\": 2, \"lb_threshold\": 1.1}},\n  \
         \"lb_off\": {},\n  \"lb_on\": {},\n  \"critical_ratio\": {:.6}\n}}\n",
        side(off),
        side(on),
        ratio,
    )
}

fn print_table(off: &Side, on: &Side, ratio: f64) {
    println!("suite lb (clustered particle cloud, balancer off vs on, medians of {PAIRS} pairs)");
    println!(
        "{:<8} {:>10} {:>13} {:>14} {:>11} {:>15} {:>18}",
        "side",
        "wall (s)",
        "critical (s)",
        "spread max/avg",
        "rebalances",
        "peak imbalance",
        "state hash"
    );
    for (name, s) in [("lb off", off), ("lb on", on)] {
        println!(
            "{:<8} {:>10.4} {:>13.4} {:>14.3} {:>11} {:>15.3} {:>18}",
            name,
            s.wall_s,
            s.critical_s,
            s.spread,
            s.rebalances,
            s.peak_imbalance,
            format!("{:016x}", s.state_hash),
        );
    }
    println!(
        "critical path ratio (median of per-pair on / off): {:.3}   process wall ratio: {:.3}",
        ratio,
        on.wall_s / off.wall_s
    );
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
        let off = cmt_bone::run(&base_cfg(false, 4));
        let on = cmt_bone::run(&base_cfg(true, 4));
        assert_eq!(
            off.state_hash, on.state_hash,
            "balancer changed the physics"
        );
        println!("test lb/identity ... ok");
        return;
    }

    let (off, on, ratio) = measure();
    print_table(&off, &on, ratio);

    if check {
        let mut failed = false;
        if off.state_hash != on.state_hash {
            eprintln!(
                "FAIL: balanced final state {:016x} differs from static {:016x}",
                on.state_hash, off.state_hash
            );
            failed = true;
        }
        if on.rebalances == 0 {
            eprintln!("FAIL: clustered cloud never triggered a rebalance");
            failed = true;
        }
        // The acceptance gate: shedding the clustered cloud's elements
        // must buy at least 15% of the slowest rank's compute time.
        if ratio > 0.85 {
            eprintln!("FAIL: LB-on critical path is {ratio:.3}x LB-off (gate: <= 0.85)");
            failed = true;
        } else {
            println!("critical path ratio {ratio:.3} within gate 0.85");
        }
        if let Ok(baseline) = std::fs::read_to_string(json_path()) {
            if let Some(base_ratio) = json_f64(&baseline, "critical_ratio") {
                println!("committed baseline ratio: {base_ratio:.3}");
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("lb check passed");
    } else {
        let path = json_path();
        std::fs::write(&path, render_json(&off, &on, ratio))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}
