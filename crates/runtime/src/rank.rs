//! Rank-side phases both rank programs share: setup and tuning, the
//! restart load, the finalize-time verify sweep, and the common prefix of
//! every rank's output.

use cmt_core::kernels::autotune::{self as kernel_autotune, KernelAutotuneReport};
use cmt_core::poly::Basis;
use cmt_core::KernelVariant;
use cmt_gs::{autotune, AutotuneReport, GsHandle, GsMethod};
use cmt_perf::Profiler;
use cmt_resilience::Checkpoint;
use simmpi::{Rank, WireCodec, WireError, WireReader};

use crate::config::{load_restart, Knobs, RuntimeConfig};

/// What the setup phase settled on. Identical on every rank: both
/// autotunes average their timings across ranks before choosing.
#[derive(Debug, Clone)]
pub struct Choices {
    /// The gather–scatter method the run uses.
    pub chosen: GsMethod,
    /// The gs autotune table (Fig. 7 body), when it ran.
    pub autotune: Option<AutotuneReport>,
    /// The kernel autotune table (`--variant auto`), when it ran.
    pub kernel_autotune: Option<KernelAutotuneReport>,
}

impl Choices {
    /// The kernel variant the run uses: the kernel autotune's winner,
    /// else `configured`.
    pub fn variant(&self, configured: KernelVariant) -> KernelVariant {
        self.kernel_autotune
            .as_ref()
            .map_or(configured, |t| t.effective)
    }

    /// The chunk grain the kernel autotune fixed, when it ran.
    pub fn grain(&self) -> Option<usize> {
        self.kernel_autotune.as_ref().map(|t| t.chosen.grain)
    }
}

/// The setup phase, collective over the world: build the gather–scatter
/// handle over `gids`, take the forced method or run the gs autotune
/// (the Fig. 7 protocol), call `with_method` (app setup work that needs
/// the settled method — Nekbone's multiplicity weights), then, under
/// `--variant auto`, run the rank-averaged kernel autotune on the
/// `(n, nel)` shape. All of it is one [`cmt_perf::regions::SETUP`]
/// region.
pub fn setup<W>(
    rank: &mut Rank,
    prof: &mut Profiler,
    k: &Knobs,
    gids: &[u64],
    nel: usize,
    with_method: impl FnOnce(&mut Rank, &GsHandle, GsMethod) -> W,
) -> (GsHandle, Choices, W) {
    prof.enter(cmt_perf::regions::SETUP);
    let handle = GsHandle::setup(rank, gids);
    let (chosen, autotune) = match k.method {
        Some(m) => (m, None),
        None => {
            let rep = autotune(rank, &handle, k.autotune);
            (rep.chosen, Some(rep))
        }
    };
    let extra = with_method(rank, &handle, chosen);
    let kernel_autotune = k
        .kernel_autotune
        .then(|| kernel_autotune::tune(rank, k.n, nel, &Basis::new(k.n).d));
    prof.exit();
    let choices = Choices {
        chosen,
        autotune,
        kernel_autotune,
    };
    (handle, choices, extra)
}

/// This rank's checkpoint from the `--restart` directory, when one is
/// set.
///
/// # Panics
/// Panics when the checkpoint cannot be loaded. [`RuntimeConfig::validate`]
/// loads every rank's checkpoint before a run starts, so this only fires
/// if the files change underneath a running job.
pub fn restart_checkpoint(rt: &RuntimeConfig, rank: &Rank) -> Option<Checkpoint> {
    rt.restart_from
        .as_ref()
        .map(|dir| load_restart(dir, rank.rank()).unwrap_or_else(|e| panic!("{e}")))
}

/// Finalize-time verification sweep (leaked messages, abandoned
/// exchanges), timed as its own region so overhead comparisons can
/// isolate the checker's cost. `World::run` would run the sweep anyway;
/// doing it here puts it on this rank's profile.
pub fn verify_sweep(rank: &mut Rank, prof: &mut Profiler) {
    if rank.verifying() {
        prof.enter(cmt_perf::regions::VERIFY);
        rank.verify_finalize();
        prof.exit();
    }
}

/// One rank's result: the profile and setup choices every rank program
/// reports, followed by the app's own part `A`.
pub struct RankOutput<A> {
    /// This rank's region profile.
    pub profiler: Profiler,
    /// What setup chose (after [`crate::run`] merges, the tuning tables
    /// live in [`crate::RuntimeReport`] and are `None` here).
    pub choices: Choices,
    /// The app-specific part.
    pub app: A,
}

// The socket transport ships each rank's result back to the launcher as
// bytes: the common prefix first, then the app's part.
impl<A: WireCodec> WireCodec for RankOutput<A> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.profiler.encode(buf);
        self.choices.autotune.encode(buf);
        self.choices.kernel_autotune.encode(buf);
        self.choices.chosen.encode(buf);
        self.app.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RankOutput {
            profiler: Profiler::decode(r)?,
            choices: Choices {
                autotune: Option::decode(r)?,
                kernel_autotune: Option::decode(r)?,
                chosen: GsMethod::decode(r)?,
            },
            app: A::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_output_round_trips_and_rejects_truncation() {
        let mut profiler = Profiler::new();
        profiler.enter("region");
        profiler.exit();
        let out = RankOutput {
            profiler,
            choices: Choices {
                chosen: GsMethod::CrystalRouter,
                autotune: None,
                kernel_autotune: None,
            },
            app: (7u64, 2.5f64),
        };
        let mut buf = Vec::new();
        out.encode(&mut buf);
        let back = RankOutput::<(u64, f64)>::decode(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(back.choices.chosen, GsMethod::CrystalRouter);
        assert_eq!(back.app, (7, 2.5));
        assert!(back
            .profiler
            .report()
            .flat
            .iter()
            .any(|(n, _)| n == "region"));
        for cut in 0..buf.len() {
            assert!(
                RankOutput::<(u64, f64)>::decode(&mut WireReader::new(&buf[..cut])).is_err(),
                "decoded a frame truncated at byte {cut}"
            );
        }
    }

    #[test]
    fn choices_resolve_variant_and_grain() {
        let c = Choices {
            chosen: GsMethod::PairwiseExchange,
            autotune: None,
            kernel_autotune: None,
        };
        assert_eq!(c.variant(KernelVariant::Simd), KernelVariant::Simd);
        assert_eq!(c.grain(), None);
    }
}
