//! The correctness gate and the end-to-end measurement.

use std::time::Instant;

use cmt_core::KernelVariant;
use cmt_perf::MpipReport;

use crate::golden;
use crate::stats::median;
use crate::workload::{CgOutcome, Outcome, Workload};

/// What every timed run's final state must match.
#[derive(Debug, Clone)]
pub struct Gate {
    /// The committed golden hash for this workload and seed, if any.
    pub golden: Option<u64>,
    /// The state hash of the untimed `opt`-variant run of the same
    /// inputs (`simd` is bitwise equal to `opt` by construction).
    pub reference_hash: u64,
    /// Nekbone: the `opt` run's CG outcome, matched bitwise.
    pub reference_cg: Option<CgOutcome>,
}

/// Tally of gated runs.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Runs whose outputs were checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one checked run.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Failed runs over attempted runs.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

impl Gate {
    /// Run the untimed `opt` reference of `workload` at `seed` and build
    /// the gate; `golden` overrides the committed golden hash. The
    /// reference itself is checked against the golden hash and, for
    /// Nekbone, for a residual that CG actually reduced.
    pub fn new(workload: Workload, seed: u64, golden: Option<u64>, tally: &mut Tally) -> Gate {
        let golden = golden.or_else(|| golden::lookup(workload, seed));
        let case = workload.case(seed, KernelVariant::Optimized);
        let r = case.run();
        let mut check = Ok(());
        if let Some(g) = golden {
            if r.state_hash != g {
                check = Err(format!(
                    "state_hash {:016x} != golden {g:016x}",
                    r.state_hash
                ));
            }
        }
        if let Some(cg) = r.cg {
            let ok = cg.iterations == case.steps() && cg.last.is_finite() && cg.last < cg.initial;
            if !ok {
                check = Err(format!("CG did not reduce the residual: {cg:?}"));
            }
        }
        tally.record("opt reference", check);
        Gate {
            golden,
            reference_hash: r.state_hash,
            reference_cg: r.cg,
        }
    }

    /// Check one run's final state hash (and Nekbone's final residual).
    pub fn check(&self, state_hash: u64, cg: Option<CgOutcome>) -> Result<(), String> {
        if state_hash != self.reference_hash {
            return Err(format!(
                "state_hash {state_hash:016x} != opt reference {:016x}",
                self.reference_hash
            ));
        }
        if let Some(g) = self.golden {
            if state_hash != g {
                return Err(format!("state_hash {state_hash:016x} != golden {g:016x}"));
            }
        }
        if cg != self.reference_cg {
            return Err(format!(
                "CG outcome {cg:?} != opt reference {:?}",
                self.reference_cg
            ));
        }
        Ok(())
    }

    /// Check a public run's outcome.
    pub fn check_run(&self, o: &Outcome) -> Result<(), String> {
        self.check(o.state_hash, o.cg)
    }
}

/// The end-to-end figures of one workload run.
#[derive(Debug, Clone)]
pub struct E2e {
    /// Wall time per step (CG iteration), ms: median public-call wall
    /// minus `setup_s`, over the steps.
    pub step_ms: f64,
    /// HipBone figure of merit, MDOF/s.
    pub dof_rate: f64,
    /// Median wall time of the zero-step public call, s.
    pub setup_s: f64,
    /// Timed public calls.
    pub calls: usize,
}

/// Zero-step (set-up only) calls per full call: set-up is short and
/// spreads more than the step loop, so it gets more samples.
const SETUPS_PER_CALL: usize = 3;

/// Time `workload` at `seed`: after one checked warm-up call, alternate
/// [`SETUPS_PER_CALL`] zero-step calls and a full call until `seconds`
/// have passed and at least three full calls ran; check every full call.
pub fn measure(workload: Workload, seed: u64, seconds: f64, gate: &Gate, tally: &mut Tally) -> E2e {
    let case = workload.case(seed, KernelVariant::Simd);
    let setup_case = case.with_steps(0);
    let warm = case.run();
    tally.record("warm-up run", gate.check_run(&warm));
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while walls.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        for _ in 0..SETUPS_PER_CALL {
            setups.push(setup_case.run().wall_s);
        }
        let o = case.run();
        tally.record("timed run", gate.check_run(&o));
        walls.push(o.wall_s);
    }
    let setup_s = median(&setups);
    let step_ms = (median(&walls) - setup_s) * 1e3 / case.steps() as f64;
    E2e {
        step_ms,
        dof_rate: case.dof_per_step() / (step_ms * 1e-3) * 1e-6,
        setup_s,
        calls: walls.len(),
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`), or
/// `None` when `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Compare two runs' mpiP books call site by call site: every site's
/// call and byte counts must be equal (times are not compared).
pub fn comm_mismatch(a: &MpipReport, b: &MpipReport) -> Option<String> {
    let key = |r: &MpipReport| {
        let mut v: Vec<(String, u64, u64)> = r
            .sites
            .iter()
            .map(|s| (s.name(), s.calls, s.bytes))
            .collect();
        v.sort();
        v
    };
    let (ka, kb) = (key(a), key(b));
    if ka == kb {
        return None;
    }
    let diff: Vec<String> = ka
        .iter()
        .filter(|x| !kb.contains(x))
        .map(|(n, c, by)| format!("{n} calls={c} bytes={by}"))
        .chain(
            kb.iter()
                .filter(|x| !ka.contains(x))
                .map(|(n, c, by)| format!("vs {n} calls={c} bytes={by}")),
        )
        .collect();
    Some(diff.join("; "))
}
