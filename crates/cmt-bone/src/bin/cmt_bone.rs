//! CMT-bone command-line driver.
//!
//! ```text
//! cmt-bone [--steps S] [--fields F] [--cfl-interval K] [--dealias M]
//!          [--pipeline blocking|overlapped] [--net qdr|exa|gbe] [--euler]
//!          [--particles-per-elem Q] [--particle-cluster FRAC]
//!          [--lb-every K] [--lb-threshold T]
//!          [--ranks P] [--elems NEL_PER_RANK] [--n N] [--quiet]
//!          [--variant basic|opt|spec|simd|auto] [--workers W]
//!          [--method pairwise|crystal|allreduce]
//!          [--checkpoint-every K] [--checkpoint-dir PATH] [--restart PATH]
//!          [--fault-plan SPEC] [--verify] [--chaos-sched SEED] [--no-pool]
//!          [--transport inproc|socket] [--transport-addr ADDR]
//! ```
//!
//! Runs the mini-app and prints the paper-style report (setup block,
//! Fig. 7 autotune table, Fig. 4 profile, Figs. 8-10 communication
//! statistics). The flags from `--ranks` on are shared with `nekbone`
//! (see `cmt_runtime::cli`).

use cmt_bone::{run, Config, Pipeline};
use cmt_runtime::cli;
use simmpi::NetworkModel;

fn usage() -> ! {
    eprintln!(
        "usage: cmt-bone [--steps S] [--fields F] [--cfl-interval K] [--dealias M]\n\
         \x20                [--pipeline blocking|overlapped] [--net qdr|exa|gbe] [--euler]\n\
         \x20                [--particles-per-elem Q] [--particle-cluster FRAC]\n\
         \x20                [--lb-every K] [--lb-threshold T]\n\
         {}\n\
         --euler runs the compressible-Euler physics mode instead of the proxy\n\
         loop; it honours only {} and rejects every other flag.\n\
         --particles-per-elem seeds Q passive tracers per element (0 = off);\n\
         --particle-cluster FRAC crowds them into the first FRAC of the x\n\
         extent (the imbalanced cloud). --lb-every K evaluates the dynamic\n\
         load balancer every K steps; --lb-threshold T (max/mean load, > 1)\n\
         sets the rebalance trigger. Balancing never changes the physics:\n\
         state hashes are bitwise identical with LB on or off.",
        cli::usage(),
        EULER_FLAGS.join(" ")
    );
    std::process::exit(2);
}

fn bad(msg: String) -> ! {
    eprintln!("{msg}");
    usage()
}

/// The flags the `--euler` mode honours.
const EULER_FLAGS: &[&str] = &[
    "--ranks",
    "--elems",
    "--n",
    "--steps",
    "--variant",
    "--method",
    "--cfl-interval",
    "--particles-per-elem",
    "--quiet",
    "--euler",
];

/// Run the compressible-Euler physics mode instead of the proxy loop.
fn run_euler_mode(cfg: &Config, quiet: bool) {
    use cmt_bone::{run_euler, EulerRunConfig};
    use std::f64::consts::PI;
    let ecfg = EulerRunConfig {
        n: cfg.n,
        elems_per_rank: cfg.elems_per_rank,
        ranks: cfg.ranks,
        steps: cfg.steps,
        variant: cfg.variant,
        method: cfg.method.unwrap_or(cmt_gs::GsMethod::PairwiseExchange),
        cfl: cfg.cfl,
        cfl_interval: cfg.cfl_interval,
        particles_per_elem: if cfg.particles_per_elem > 0 {
            cfg.particles_per_elem
        } else {
            2
        },
        ..Default::default()
    };
    let mesh = cmt_mesh::MeshConfig::for_ranks(ecfg.ranks, ecfg.elems_per_rank, ecfg.n, true);
    let ge = mesh.global_elems();
    let lengths = [ge[0] as f64, ge[1] as f64, ge[2] as f64];
    let rep = run_euler(&ecfg, move |x, y, _z| cmt_core::eos::Primitive {
        rho: 1.0 + 0.2 * (2.0 * PI * x / lengths[0]).sin(),
        vel: [0.5, 0.1 * (2.0 * PI * y / lengths[1]).cos(), 0.0],
        p: 1.0,
    });
    if quiet {
        println!(
            "t {:.6}  admissible {}  mass {:+.9e}  particles {}",
            rep.time, rep.admissible, rep.totals_after[0], rep.particle_count
        );
    } else {
        println!("{}", rep.render());
    }
}

fn main() {
    let mut cfg = Config::default();
    let mut quiet = false;
    let mut euler = false;
    let mut given: Vec<String> = Vec::new();
    let mut knobs = cfg.knobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let a = &mut args;
        let parsed = match arg.as_str() {
            "--steps" => cli::value(&arg, a).map(|v| cfg.steps = v),
            "--fields" => cli::value(&arg, a).map(|v| cfg.fields = v),
            "--cfl-interval" => cli::value(&arg, a).map(|v| cfg.cfl_interval = v),
            "--dealias" => cli::value(&arg, a).map(|v| cfg.dealias_m = Some(v)),
            "--pipeline" => cli::value::<String>(&arg, a).and_then(|v| {
                cfg.pipeline = match v.as_str() {
                    "blocking" => Pipeline::Blocking,
                    "overlapped" => Pipeline::Overlapped,
                    _ => return Err(format!("bad value for --pipeline: {v:?}")),
                };
                Ok(())
            }),
            "--net" => cli::value::<String>(&arg, a).and_then(|v| {
                cfg.runtime.net = Some(match v.as_str() {
                    "qdr" => NetworkModel::qdr_infiniband(),
                    "exa" => NetworkModel::notional_exascale(),
                    "gbe" => NetworkModel::gigabit_ethernet(),
                    _ => return Err(format!("bad value for --net: {v:?}")),
                });
                Ok(())
            }),
            "--particles-per-elem" => cli::value(&arg, a).map(|v| cfg.particles_per_elem = v),
            "--particle-cluster" => cli::value(&arg, a).map(|v| cfg.particle_cluster = Some(v)),
            "--lb-every" => cli::value(&arg, a).map(|v| cfg.lb_every = v),
            "--lb-threshold" => cli::value(&arg, a).map(|v| cfg.lb_threshold = v),
            "--quiet" => {
                quiet = true;
                Ok(())
            }
            "--euler" => {
                euler = true;
                Ok(())
            }
            "--help" | "-h" => usage(),
            flag => match cli::parse_flag(flag, a, &mut knobs, &mut cfg.runtime) {
                Ok(true) => Ok(()),
                Ok(false) => Err(format!("unknown argument: {flag}")),
                Err(e) => Err(e),
            },
        };
        parsed.unwrap_or_else(|e| bad(e));
        given.push(arg);
    }
    cfg.set_knobs(knobs);
    if euler {
        let mut ignored: Vec<&str> = given
            .iter()
            .map(String::as_str)
            .filter(|f| !EULER_FLAGS.contains(f))
            .collect();
        if cfg.kernel_autotune {
            ignored.push("--variant auto");
        }
        if !ignored.is_empty() {
            eprintln!("--euler does not honour {}", ignored.join(" "));
            std::process::exit(2);
        }
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    if euler {
        run_euler_mode(&cfg, quiet);
        return;
    }
    let report = run(&cfg);
    if quiet {
        println!(
            "checksum {:.12e}  state {:016x}  wall avg {:.4}s max {:.4}s  method {}",
            report.checksum,
            report.state_hash,
            report.avg_wall_s(),
            report.max_wall_s(),
            report.runtime.chosen_method.name()
        );
        if let Some(findings) = &report.runtime.verify {
            print!("{}", cmt_verify::render_findings(findings));
        }
    } else {
        println!("{}", report.render());
    }
    if report
        .runtime
        .verify
        .as_ref()
        .is_some_and(|f| !f.is_empty())
    {
        std::process::exit(1);
    }
}
