//! The run environment both mini-apps share, and its validation.

use std::path::{Path, PathBuf};

use cmt_core::KernelVariant;
use cmt_gs::{AutotuneOptions, GsMethod};
use cmt_resilience::{checkpoint_path, load_checkpoint, Checkpoint, CheckpointError};
use simmpi::{FaultPlan, NetworkModel, TransportKind};

/// The run-shape values both mini-apps keep as flat `Config` fields
/// (`Config::knobs` reads them, `Config::set_knobs` writes them back):
/// what the shared CLI flags set, what [`RuntimeConfig::validate`]
/// checks, and what [`crate::setup`] and [`crate::run`] read.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Number of ranks (`--ranks`).
    pub ranks: usize,
    /// Elements per rank (`--elems`).
    pub elems_per_rank: usize,
    /// GLL points per direction (`--n`, 2..=25).
    pub n: usize,
    /// Derivative-kernel variant (`--variant`).
    pub variant: KernelVariant,
    /// Autotune the kernel at startup instead (`--variant auto`).
    pub kernel_autotune: bool,
    /// Worker threads per rank (`--workers`).
    pub workers: usize,
    /// Forced gather–scatter method (`--method`); `None` autotunes.
    pub method: Option<GsMethod>,
    /// gs autotune options.
    pub autotune: AutotuneOptions,
    /// Checkpoint cadence in the app's units (`--checkpoint-every`).
    pub checkpoint_every: usize,
}

/// How a mini-app run executes, apart from its physics: the world's
/// network model, injected faults and schedule perturbation, the
/// dynamic checker, message-buffer pooling, the transport backend, and
/// where checkpoints go to and come from. Both `cmt_bone::Config` and
/// `nekbone::Config` embed one as `runtime`.
///
/// The checkpoint *cadence* is not here: it counts the app's own units
/// (timesteps or CG iterations), so each app keeps its
/// `checkpoint_every`.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Optional network model for modelled-time accounting.
    pub net: Option<NetworkModel>,
    /// Deterministic fault schedule injected into the world (message
    /// delays, drop/retransmit, scheduled rank kills). Kills need the
    /// app's `checkpoint_every` to be non-zero.
    pub fault_plan: Option<FaultPlan>,
    /// Seeded schedule perturbation (`--chaos-sched`): overlay random
    /// message delays on the world to explore alternative interleavings.
    /// Composes with `fault_plan` (kills and drops are kept).
    pub chaos_sched: Option<u64>,
    /// Run under the `cmt-verify` dynamic checker: deadlock detection
    /// over blocked receives, collective-matching verification, finalize
    /// message-leak sweep, and the vector-clock race detector. Findings
    /// land in the app report's `verify`.
    pub verify: bool,
    /// Recycle message payload buffers through the per-rank
    /// [`simmpi::BufferPool`] (the zero-allocation steady state). `false`
    /// (`--no-pool`) falls back to plain allocation per message — the
    /// escape hatch for A/B comparisons and for debugging buffer reuse.
    pub pool: bool,
    /// Communication backend: in-process mailboxes (the default, every
    /// rank a thread) or the multi-process socket transport (`--transport
    /// socket`, every rank a spawned child over Unix-domain or TCP
    /// sockets). Results are bitwise identical between backends.
    pub transport: TransportKind,
    /// Mirror every checkpoint to this directory (enables cross-run
    /// `--restart`); `None` keeps checkpoints in memory only.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the per-rank checkpoints in this directory instead of
    /// starting from scratch.
    pub restart_from: Option<PathBuf>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            net: None,
            fault_plan: None,
            chaos_sched: None,
            verify: false,
            pool: true,
            transport: TransportKind::default(),
            checkpoint_dir: None,
            restart_from: None,
        }
    }
}

impl RuntimeConfig {
    /// Validate the environment and the shared knobs `k`; returns a
    /// description of the first problem found.
    ///
    /// With `restart_from` set, every rank's checkpoint is loaded here
    /// and handed to `check` (the app's shape check: field count and
    /// sizes), so a missing, corrupt, or foreign checkpoint fails as one
    /// line naming the rank and the file instead of panicking inside the
    /// rank program.
    pub fn validate(
        &self,
        k: &Knobs,
        check: impl Fn(usize, &Checkpoint) -> Result<(), String>,
    ) -> Result<(), String> {
        if !(2..=25).contains(&k.n) {
            return Err(format!(
                "n must be in 2..=25 (the paper's range), got {}",
                k.n
            ));
        }
        if k.ranks == 0 || k.elems_per_rank == 0 {
            return Err("ranks and elems_per_rank must be positive".into());
        }
        if k.workers == 0 {
            return Err("workers must be positive (1 = pure MPI)".into());
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(k.ranks)?;
            if !plan.kills.is_empty() && k.checkpoint_every == 0 {
                return Err("fault plan schedules rank kills but checkpointing is off \
                     (set checkpoint_every)"
                    .into());
            }
        }
        if let Some(dir) = &self.restart_from {
            if !dir.is_dir() {
                return Err(format!(
                    "restart directory {} does not exist",
                    dir.display()
                ));
            }
            let mut step0 = None;
            for r in 0..k.ranks {
                let ckpt = load_restart(dir, r)?;
                let at = |e: String| {
                    format!(
                        "restart: rank {r}: {}: {e}",
                        checkpoint_path(dir, r).display()
                    )
                };
                // Ranks resuming at different steps would mismatch their
                // collectives and hang.
                let step0 = *step0.get_or_insert(ckpt.step);
                if ckpt.step != step0 {
                    let e = format!("holds step {}, rank 0's holds step {step0}", ckpt.step);
                    return Err(at(e));
                }
                check(r, &ckpt).map_err(at)?;
            }
        }
        Ok(())
    }
}

/// Load rank `r`'s checkpoint from a restart directory; the error names
/// the rank and the file.
pub(crate) fn load_restart(dir: &Path, r: usize) -> Result<Checkpoint, String> {
    let path = checkpoint_path(dir, r);
    let ckpt = load_checkpoint(dir, r).map_err(|e| match e {
        // the I/O message already leads with the path
        CheckpointError::Io(msg) => format!("restart: rank {r}: {msg}"),
        e => format!("restart: rank {r}: {}: {e}", path.display()),
    })?;
    if ckpt.rank != r as u64 {
        return Err(format!(
            "restart: rank {r}: {}: holds the state of rank {}",
            path.display(),
            ckpt.rank
        ));
    }
    Ok(ckpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_check(_: usize, _: &Checkpoint) -> Result<(), String> {
        Ok(())
    }

    fn knobs(ranks: usize, workers: usize, checkpoint_every: usize) -> Knobs {
        Knobs {
            ranks,
            elems_per_rank: 4,
            n: 5,
            variant: KernelVariant::Optimized,
            kernel_autotune: false,
            workers,
            method: None,
            autotune: AutotuneOptions::default(),
            checkpoint_every,
        }
    }

    #[test]
    fn default_is_valid() {
        assert!(RuntimeConfig::default()
            .validate(&knobs(4, 1, 0), no_check)
            .is_ok());
    }

    #[test]
    fn zero_ranks_or_workers_rejected() {
        let rt = RuntimeConfig::default();
        assert!(rt
            .validate(&knobs(0, 1, 0), no_check)
            .unwrap_err()
            .contains("ranks"));
        assert!(rt
            .validate(&knobs(2, 0, 0), no_check)
            .unwrap_err()
            .contains("workers"));
    }

    #[test]
    fn kills_without_checkpointing_rejected() {
        let rt = RuntimeConfig {
            fault_plan: Some(FaultPlan::parse("kill:rank=1,step=2").unwrap()),
            ..Default::default()
        };
        let err = rt.validate(&knobs(4, 1, 0), no_check).unwrap_err();
        assert!(err.contains("checkpointing is off"), "{err}");
        assert!(rt.validate(&knobs(4, 1, 2), no_check).is_ok());
        // a kill aimed past the world is the fault plan's own error
        assert!(rt.validate(&knobs(1, 1, 2), no_check).is_err());
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cmt_runtime_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ckpt(rank: u64) -> Checkpoint {
        Checkpoint {
            rank,
            step: 2,
            stage: 0,
            time: 0.5,
            rng_state: 0,
            scalars: vec![],
            fields: vec![vec![1.0; 8]],
        }
    }

    #[test]
    fn restart_errors_name_the_rank_and_the_file() {
        let missing = RuntimeConfig {
            restart_from: Some(std::env::temp_dir().join("cmt_runtime_no_such_dir")),
            ..Default::default()
        };
        assert!(missing
            .validate(&knobs(2, 1, 0), no_check)
            .unwrap_err()
            .contains("does not exist"));

        let dir = scratch_dir("restart");
        let rt = RuntimeConfig {
            restart_from: Some(dir.clone()),
            ..Default::default()
        };
        // empty directory: rank 0's file is missing
        let err = rt.validate(&knobs(2, 1, 0), no_check).unwrap_err();
        assert!(
            err.starts_with("restart: rank 0: ") && err.contains("ckpt_rank0.cmtr"),
            "{err}"
        );

        std::fs::write(checkpoint_path(&dir, 0), ckpt(0).encode()).unwrap();
        let mut bytes = ckpt(1).encode();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(checkpoint_path(&dir, 1), &bytes).unwrap();
        let err = rt.validate(&knobs(2, 1, 0), no_check).unwrap_err();
        assert!(
            err.starts_with("restart: rank 1: ") && err.contains("ckpt_rank1.cmtr"),
            "{err}"
        );

        // checkpoints of different steps would resume out of step
        let mut later = ckpt(1);
        later.step = 3;
        std::fs::write(checkpoint_path(&dir, 1), later.encode()).unwrap();
        let err = rt.validate(&knobs(2, 1, 0), no_check).unwrap_err();
        assert!(
            err.starts_with("restart: rank 1: ")
                && err.ends_with("holds step 3, rank 0's holds step 2"),
            "{err}"
        );

        // another rank's state under this rank's name
        std::fs::write(checkpoint_path(&dir, 1), ckpt(0).encode()).unwrap();
        let err = rt.validate(&knobs(2, 1, 0), no_check).unwrap_err();
        assert!(err.contains("holds the state of rank 0"), "{err}");

        // the app's shape check is reported with the same prefix
        std::fs::write(checkpoint_path(&dir, 1), ckpt(1).encode()).unwrap();
        assert!(rt.validate(&knobs(2, 1, 0), no_check).is_ok());
        let err = rt
            .validate(&knobs(2, 1, 0), |r, _| {
                if r == 1 {
                    Err("wrong shape".into())
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(
            err.starts_with("restart: rank 1: ") && err.ends_with("ckpt_rank1.cmtr: wrong shape"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
