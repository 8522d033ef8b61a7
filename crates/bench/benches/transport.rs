//! Transport bench: the multi-process socket backend against the
//! in-process mailbox baseline on a communication-heavy CMT-bone
//! configuration.
//!
//! Both sides run the identical rank program; the bench reports wall
//! time (min of repeated runs), the `transport_ser` share of self time
//! on the socket side (wire encode/decode overhead), and the fitted
//! network latency/bandwidth from the socket run's per-frame samples.
//! The socket side here runs ranks as *threads* over real sockets
//! (`SocketConfig::threads`): process mode re-execs the current
//! executable, which for a bench binary would re-enter this `main`
//! rather than the rank program. The full process path is covered by
//! the driver integration tests and the CI socket smoke instead.
//!
//! Modes (after `cargo bench -p cmt-bench --bench transport --`):
//! * default — measure, print the table, and write
//!   `BENCH_transport.json` at the repo root (the committed CI
//!   baseline).
//! * `--check` — measure and gate: fail if results diverge bitwise
//!   between backends, or if the socket/inproc wall ratio regressed
//!   against the committed `BENCH_transport.json`.
//! * `--test` — smoke mode: one tiny run per side, no file writes.

use std::time::Instant;

use cmt_bone::Config;
use cmt_gs::GsMethod;
use simmpi::{SocketConfig, TransportKind};

/// Exchange-dominated shape: several ranks, small elements, low N so
/// the surface exchange dwarfs the volume kernels.
fn base_cfg(transport: TransportKind, steps: usize) -> Config {
    Config {
        ranks: 4,
        n: 6,
        elems_per_rank: 8,
        steps,
        fields: 3,
        method: Some(GsMethod::PairwiseExchange),
        runtime: cmt_bone::RuntimeConfig {
            transport,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Thread-mode socket transport (see module docs for why not process
/// mode here).
fn socket_kind() -> TransportKind {
    TransportKind::Socket(SocketConfig {
        addr: None,
        threads: true,
    })
}

struct Side {
    wall_s: f64,
    ser_share: f64,
    net_samples: usize,
    state_hash: u64,
}

/// Self-time share of the `transport_ser` wire codec regions in the
/// mpiP table.
fn ser_share(rep: &cmt_bone::RunReport) -> f64 {
    let ser: f64 = rep
        .comm
        .sites
        .iter()
        .filter(|s| s.site.op == simmpi::MpiOp::TransportSer)
        .map(|s| s.time_s)
        .sum();
    let total: f64 = rep.comm.sites.iter().map(|s| s.time_s).sum();
    if total > 0.0 {
        (ser / total).max(0.0)
    } else {
        0.0
    }
}

/// Measure one side: wall as min over `reps` full runs.
fn measure(transport: TransportKind, reps: usize) -> Side {
    let cfg = base_cfg(transport, 4);
    let mut wall_s = f64::INFINITY;
    let mut rep = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = cmt_bone::run(&cfg);
        wall_s = wall_s.min(t.elapsed().as_secs_f64());
        rep = Some(r);
    }
    let rep = rep.expect("reps > 0");
    Side {
        wall_s,
        ser_share: ser_share(&rep),
        net_samples: rep.comm.net_samples.len(),
        state_hash: rep.state_hash,
    }
}

fn json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_transport.json")
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

fn render_json(inproc: &Side, socket: &Side) -> String {
    let side = |s: &Side| {
        format!(
            "{{\"wall_s\": {:.6}, \"ser_share\": {:.6}, \"net_samples\": {}}}",
            s.wall_s, s.ser_share, s.net_samples
        )
    };
    format!(
        "{{\n  \"suite\": \"transport\",\n  \
         \"config\": {{\"ranks\": 4, \"n\": 6, \"elems_per_rank\": 8, \
         \"fields\": 3, \"steps\": 4, \"method\": \"pairwise\", \
         \"socket_mode\": \"threads\"}},\n  \
         \"inproc\": {},\n  \"socket\": {},\n  \"wall_ratio\": {:.6}\n}}\n",
        side(inproc),
        side(socket),
        socket.wall_s / inproc.wall_s,
    )
}

fn print_table(inproc: &Side, socket: &Side) {
    println!("suite transport (socket: unix-domain, thread ranks)");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>18}",
        "backend", "wall (s)", "ser share", "net samples", "state hash"
    );
    for (name, s) in [("inproc", inproc), ("socket", socket)] {
        println!(
            "{:<10} {:>10.4} {:>9.1}% {:>12} {:>18}",
            name,
            s.wall_s,
            100.0 * s.ser_share,
            s.net_samples,
            format!("{:016x}", s.state_hash),
        );
    }
    println!(
        "wall ratio (socket / inproc): {:.3}",
        socket.wall_s / inproc.wall_s
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
        for (name, transport) in [("inproc", TransportKind::Inproc), ("socket", socket_kind())] {
            let cfg = base_cfg(transport, 2);
            std::hint::black_box(cmt_bone::run(&cfg).checksum);
            println!("test transport/{name} ... ok");
        }
        return;
    }

    let reps = if check { 5 } else { 3 };
    let inproc = measure(TransportKind::Inproc, reps);
    let socket = measure(socket_kind(), reps);
    print_table(&inproc, &socket);

    if check {
        let mut failed = false;
        if inproc.state_hash != socket.state_hash {
            eprintln!(
                "FAIL: socket final state {:016x} differs from inproc {:016x}",
                socket.state_hash, inproc.state_hash
            );
            failed = true;
        }
        if socket.net_samples == 0 {
            eprintln!("FAIL: socket run recorded no network samples");
            failed = true;
        }
        match std::fs::read_to_string(json_path()) {
            Ok(baseline) => {
                let base_ratio = json_f64(&baseline, "wall_ratio")
                    .expect("BENCH_transport.json has no wall_ratio");
                let ratio = socket.wall_s / inproc.wall_s;
                // Sockets are expected slower than shared-memory
                // mailboxes; the gate catches the ratio *blowing up*
                // (a copy or syscall regression on the wire path), not
                // machine-to-machine scheduler noise — hence 50%
                // headroom over the committed ratio with a generous
                // absolute floor.
                let limit = (base_ratio * 1.50).max(4.0);
                if ratio > limit {
                    eprintln!(
                        "FAIL: socket/inproc wall ratio {ratio:.3} exceeds {limit:.3} \
                         (committed baseline {base_ratio:.3} + 50%)"
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
                eprintln!("FAIL: cannot read committed BENCH_transport.json: {e}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("transport check passed");
    } else {
        let path = json_path();
        std::fs::write(&path, render_json(&inproc, &socket))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}
