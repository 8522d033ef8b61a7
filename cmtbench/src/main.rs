//! The benchmark command.
//!
//! ```text
//! cmtbench --workload NAME --seed N --seconds S --trace 0|1 [--golden HEX]
//! cmtbench --emit-golden K
//! ```
//!
//! `--trace 0` times the workload through its public entry point and
//! reports the end-to-end metrics; `--trace 1` runs the traced replay,
//! reports the per-layer metrics and writes the span file and the
//! per-layer self-time table to `out/` in this package.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0
//! only when every checked run was correct. `--golden` replaces the
//! committed golden hash for this run. `--emit-golden K` prints the
//! golden lines of seeds `0..K` for every workload.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use cmt_core::KernelVariant;
use cmtbench::e2e::{self, Gate, Tally};
use cmtbench::layers::{self, Metric};
use cmtbench::trace::{chrome_trace_json, render_layer_table};
use cmtbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: Option<u64>,
}

const USAGE: &str = "usage: cmtbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--golden HEX]\n       cmtbench --emit-golden K\n\
                     workloads: cmt_compute cmt_exchange nekbone_cg cmt_multiphase";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut golden = None;
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            "--golden" => {
                let v = val()?;
                golden = Some(u64::from_str_radix(&v, 16).map_err(|e| format!("--golden: {e}"))?);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        golden,
    })
}

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    )
}

fn emit_golden(k: u64) {
    for w in Workload::ALL {
        for seed in 0..k {
            let o = w.case(seed, KernelVariant::Optimized).run();
            println!("{} {seed} {:016x}", w.name(), o.state_hash);
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--emit-golden") {
        argv.next();
        return match argv.next().and_then(|k| k.parse().ok()) {
            Some(k) => {
                emit_golden(k);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmtbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let mut tally = Tally::default();
    let gate = Gate::new(args.workload, args.seed, args.golden, &mut tally);
    println!(
        "workload {name} seed {} ({} steps, golden {})",
        args.seed,
        args.workload.steps(),
        gate.golden.map_or_else(
            || "none: opt check only".to_string(),
            |g| format!("{g:016x}")
        )
    );

    let mut metrics = if args.trace {
        let l = layers::measure(args.workload, args.seed, args.seconds, &gate, &mut tally);
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = out_dir.join(format!("{name}-seed{}", args.seed));
        let table = render_layer_table(&l.spans);
        print!("{table}");
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| {
                std::fs::write(
                    stem.with_extension("trace.json"),
                    chrome_trace_json(&l.spans),
                )
            })
            .and_then(|()| std::fs::write(stem.with_extension("layers.txt"), &table));
        match written {
            Ok(()) => println!("spans written to {}.trace.json", stem.display()),
            Err(e) => tally.record("trace artifact", Err(e.to_string())),
        }
        l.metrics
    } else {
        let r = e2e::measure(args.workload, args.seed, args.seconds, &gate, &mut tally);
        println!("timed calls: {}", r.calls);
        let rss = e2e::peak_rss_mb().unwrap_or_else(|| {
            tally.record(
                "peak_rss_mb",
                Err("VmHWM missing from /proc/self/status".into()),
            );
            0.0
        });
        vec![
            Metric {
                name: "step_ms",
                value: r.step_ms,
                unit: "ms",
            },
            Metric {
                name: "dof_rate",
                value: r.dof_rate,
                unit: "MDOF/s",
            },
            Metric {
                name: "setup_s",
                value: r.setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: rss,
                unit: "MiB",
            },
        ]
    };
    for m in &mut metrics {
        if m.value == 0.0 {
            m.value = 0.0; // an empty f64 sum is -0.0; print it as 0
        }
        if !m.value.is_finite() {
            tally.record(m.name, Err(format!("not a finite number: {}", m.value)));
            m.value = 0.0;
        }
    }
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<34} {:>16.6} fraction", "fail_rate", tally.fail_rate());
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    println!("{}", result_json(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
