//! Nekbone command-line driver.
//!
//! ```text
//! nekbone [--iters K] [--tol T]
//!         [--ranks P] [--elems NEL_PER_RANK] [--n N] [--quiet]
//!         [--variant basic|opt|spec|simd|auto] [--workers W]
//!         [--method pairwise|crystal|allreduce]
//!         [--checkpoint-every K] [--checkpoint-dir PATH] [--restart PATH]
//!         [--fault-plan SPEC] [--verify] [--chaos-sched SEED] [--no-pool]
//!         [--transport inproc|socket] [--transport-addr ADDR]
//! ```
//!
//! Runs the CG proxy and prints the paper-style report (setup block, CG
//! convergence, autotune tables, profile, top MPI call sites). Every flag
//! but `--iters` and `--tol` is shared with `cmt-bone` (see
//! `cmt_runtime::cli`).

use cmt_runtime::cli;
use nekbone::{run, Config};

fn usage() -> ! {
    eprintln!(
        "usage: nekbone [--iters K] [--tol T]\n{}\n\
         --iters caps the CG iterations; --tol stops early once the residual\n\
         norm reaches T (0 runs the full budget).",
        cli::usage()
    );
    std::process::exit(2);
}

fn bad(msg: String) -> ! {
    eprintln!("{msg}");
    usage()
}

fn main() {
    let mut cfg = Config::default();
    let mut quiet = false;
    let mut knobs = cfg.knobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => cfg.cg_iters = cli::value(&arg, &mut args).unwrap_or_else(|e| bad(e)),
            "--tol" => cfg.tol = cli::value(&arg, &mut args).unwrap_or_else(|e| bad(e)),
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            flag => match cli::parse_flag(flag, &mut args, &mut knobs, &mut cfg.runtime) {
                Ok(true) => {}
                Ok(false) => bad(format!("unknown argument: {flag}")),
                Err(e) => bad(e),
            },
        }
    }
    cfg.set_knobs(knobs);
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    let report = run(&cfg);
    if quiet {
        println!(
            "iters {}  residual {:.3e}  checksum {:.12e}  state {:016x}  method {}",
            report.cg.iterations,
            report.cg.final_residual(),
            report.checksum,
            report.state_hash,
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
