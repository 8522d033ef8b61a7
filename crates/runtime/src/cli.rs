//! The command-line flags both mini-app binaries accept.
//!
//! `cmt-bone` and `nekbone` parse their own physics flags and hand every
//! other flag to [`parse_flag`]; both print [`usage`] under their own
//! usage lines. The `--variant` and `--method` spellings live in
//! [`VARIANTS`] and [`METHODS`] only, so the two binaries cannot drift
//! apart.

use std::path::PathBuf;
use std::str::FromStr;

use cmt_core::KernelVariant;
use cmt_gs::GsMethod;
use simmpi::{FaultPlan, SocketConfig, TransportKind};

use crate::config::{Knobs, RuntimeConfig};

/// `--variant` spellings; `None` is `auto` (the startup kernel
/// autotune).
pub const VARIANTS: &[(&str, Option<KernelVariant>)] = &[
    ("basic", Some(KernelVariant::Basic)),
    ("opt", Some(KernelVariant::Optimized)),
    ("spec", Some(KernelVariant::Specialized)),
    ("simd", Some(KernelVariant::Simd)),
    ("auto", None),
];

/// `--method` spellings.
pub const METHODS: &[(&str, GsMethod)] = &[
    ("pairwise", GsMethod::PairwiseExchange),
    ("crystal", GsMethod::CrystalRouter),
    ("allreduce", GsMethod::AllReduce),
];

/// The next argument, parsed as the value of `flag`.
pub fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("bad value for {flag}: {v:?}"))
}

fn spelled<T: Copy>(
    flag: &str,
    table: &[(&str, T)],
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let v: String = value(flag, args)?;
    table
        .iter()
        .find(|(name, _)| *name == v)
        .map(|&(_, t)| t)
        .ok_or_else(|| format!("bad value for {flag}: {v:?}"))
}

/// Apply `flag` to the knobs `k` or the environment `rt` if it is one of
/// the shared flags, pulling its value from `args`. `Ok(false)` means
/// `flag` is not a shared flag (the app's own, or unknown); `Err`
/// describes a missing or malformed value.
pub fn parse_flag(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    k: &mut Knobs,
    rt: &mut RuntimeConfig,
) -> Result<bool, String> {
    match flag {
        "--ranks" => k.ranks = value(flag, args)?,
        "--elems" => k.elems_per_rank = value(flag, args)?,
        "--n" => k.n = value(flag, args)?,
        "--variant" => match spelled(flag, VARIANTS, args)? {
            Some(v) => k.variant = v,
            None => k.kernel_autotune = true,
        },
        "--workers" => k.workers = value(flag, args)?,
        "--method" => k.method = Some(spelled(flag, METHODS, args)?),
        "--checkpoint-every" => k.checkpoint_every = value(flag, args)?,
        "--checkpoint-dir" => rt.checkpoint_dir = Some(value::<PathBuf>(flag, args)?),
        "--restart" => rt.restart_from = Some(value::<PathBuf>(flag, args)?),
        "--fault-plan" => {
            let spec: String = value(flag, args)?;
            rt.fault_plan =
                Some(FaultPlan::parse(&spec).map_err(|e| format!("bad fault plan: {e}"))?);
        }
        "--verify" => rt.verify = true,
        "--chaos-sched" => rt.chaos_sched = Some(value(flag, args)?),
        "--no-pool" => rt.pool = false,
        "--transport" => match value::<String>(flag, args)?.as_str() {
            "inproc" => rt.transport = TransportKind::Inproc,
            "socket" => {
                if !matches!(rt.transport, TransportKind::Socket(_)) {
                    rt.transport = TransportKind::Socket(SocketConfig::default());
                }
            }
            other => return Err(format!("bad value for --transport: {other:?}")),
        },
        "--transport-addr" => {
            let addr = Some(value(flag, args)?);
            match &mut rt.transport {
                TransportKind::Socket(c) => c.addr = addr,
                _ => {
                    rt.transport = TransportKind::Socket(SocketConfig {
                        addr,
                        ..Default::default()
                    })
                }
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// The usage fragment for the shared flags: one bracketed line per flag
/// group, then what each runtime flag does.
pub fn usage() -> String {
    let variants: Vec<&str> = VARIANTS.iter().map(|(s, _)| *s).collect();
    let methods: Vec<&str> = METHODS.iter().map(|(s, _)| *s).collect();
    let (variants, methods) = (variants.join("|"), methods.join("|"));
    format!(
        "\x20 [--ranks P] [--elems NEL_PER_RANK] [--n N] [--quiet]\n\
         \x20 [--variant {variants}] [--workers W]\n\
         \x20 [--method {methods}]\n\
         \x20 [--checkpoint-every K] [--checkpoint-dir PATH] [--restart PATH]\n\
         \x20 [--fault-plan SPEC] [--verify] [--chaos-sched SEED] [--no-pool]\n\
         \x20 [--transport inproc|socket] [--transport-addr ADDR]\n\
         \n\
         --variant auto autotunes the derivative kernel at startup (variant x\n\
         chunk grain, averaged across ranks — the Fig. 7 protocol for compute);\n\
         --variant simd dispatches to the widest vector unit present (avx2/sse2,\n\
         scalar fallback) with bitwise-identical results.\n\
         --method forces a gather-scatter method; without it the startup\n\
         autotune picks one (Fig. 7).\n\
         --workers shares each rank's element loops across a work-stealing\n\
         pool of W threads (1 = pure MPI); results are bitwise identical\n\
         across worker counts.\n\
         --checkpoint-every K checkpoints every K steps (CG iterations for\n\
         nekbone); --checkpoint-dir mirrors them to disk and --restart resumes\n\
         from such a directory.\n\
         fault plan SPEC: semicolon-separated events, e.g.\n\
         \x20 'delay:prob=0.1,us=200;drop:prob=0.05;kill:rank=2,step=5;seed=7'\n\
         --verify runs the cmt-verify dynamic checker (deadlock, collective\n\
         matching, message leaks, races); exit status 1 on findings.\n\
         --chaos-sched overlays seeded message delays to perturb the schedule.\n\
         --no-pool disables message-buffer recycling (allocate per message).\n\
         --transport socket runs every rank as a child process over\n\
         Unix-domain sockets (rank 0's process is the launcher/hub);\n\
         --transport-addr overrides the endpoint, e.g. unix:/tmp/w.sock\n\
         or tcp:127.0.0.1:0. Results are bitwise identical to inproc."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Owned {
        k: Knobs,
        rt: RuntimeConfig,
    }

    impl Owned {
        fn new() -> Self {
            Owned {
                k: Knobs {
                    ranks: 0,
                    elems_per_rank: 0,
                    n: 0,
                    variant: KernelVariant::Optimized,
                    kernel_autotune: false,
                    workers: 1,
                    method: None,
                    autotune: Default::default(),
                    checkpoint_every: 0,
                },
                rt: RuntimeConfig::default(),
            }
        }

        fn parse(&mut self, argv: &[&str]) -> Result<bool, String> {
            let mut args = argv[1..].iter().map(|s| s.to_string());
            parse_flag(argv[0], &mut args, &mut self.k, &mut self.rt)
        }
    }

    #[test]
    fn every_spelling_parses() {
        let mut o = Owned::new();
        for &(s, v) in VARIANTS {
            o.parse(&["--variant", s]).unwrap();
            match v {
                Some(v) => assert_eq!(o.k.variant, v),
                None => assert!(o.k.kernel_autotune),
            }
        }
        for &(s, m) in METHODS {
            o.parse(&["--method", s]).unwrap();
            assert_eq!(o.k.method, Some(m));
        }
        let u = usage();
        assert!(u.contains("basic|opt|spec|simd|auto"), "{u}");
        assert!(u.contains("pairwise|crystal|allreduce"), "{u}");
    }

    #[test]
    fn runtime_flags_land_in_the_runtime_config() {
        let mut o = Owned::new();
        for argv in [
            &["--ranks", "3"][..],
            &["--elems", "5"],
            &["--n", "6"],
            &["--workers", "2"],
            &["--checkpoint-every", "4"],
            &["--checkpoint-dir", "ck"],
            &["--restart", "rs"],
            &["--fault-plan", "delay:prob=0.5,us=10;seed=1"],
            &["--verify"],
            &["--chaos-sched", "9"],
            &["--no-pool"],
            &["--transport-addr", "unix:/tmp/x.sock"],
            &["--transport", "socket"],
        ] {
            assert_eq!(o.parse(argv), Ok(true), "{argv:?}");
        }
        let k = o.k;
        assert_eq!(
            (
                k.ranks,
                k.elems_per_rank,
                k.n,
                k.workers,
                k.checkpoint_every
            ),
            (3, 5, 6, 2, 4)
        );
        assert_eq!(o.rt.checkpoint_dir, Some(PathBuf::from("ck")));
        assert_eq!(o.rt.restart_from, Some(PathBuf::from("rs")));
        assert!(o.rt.fault_plan.is_some() && o.rt.verify && !o.rt.pool);
        assert_eq!(o.rt.chaos_sched, Some(9));
        // `--transport socket` after `--transport-addr` keeps the address
        match &o.rt.transport {
            TransportKind::Socket(c) => assert_eq!(c.addr.as_deref(), Some("unix:/tmp/x.sock")),
            other => panic!("expected socket transport, got {other:?}"),
        }
        assert_eq!(o.parse(&["--steps", "3"]), Ok(false));
    }

    #[test]
    fn malformed_values_are_errors() {
        let mut o = Owned::new();
        for argv in [
            &["--chaos-sched", "x"][..],
            &["--fault-plan", "bogus"],
            &["--transport", "tcp"],
            &["--variant", "batched"],
            &["--method", "ring"],
            &["--workers", "-1"],
            &["--ranks"],
        ] {
            assert!(o.parse(argv).is_err(), "{argv:?} accepted");
        }
    }
}
