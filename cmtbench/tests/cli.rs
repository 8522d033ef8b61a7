//! The command's exit codes and result line.

use std::process::Command;

fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cmtbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("some output")
}

#[test]
fn wrong_golden_hash_fails_the_run() {
    let (code, out) = bench(&[
        "--workload",
        "nekbone_cg",
        "--seed",
        "1",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--golden",
        "123456789abcdef0",
    ]);
    assert_ne!(code, 0, "{out}");
    let json = last_line(&out);
    assert!(json.starts_with("{\"correct\": false,"), "{json}");
    assert!(!json.contains("\"failed\": 0,"), "{json}");
    assert!(out.contains("fail_rate"), "{out}");
}

#[test]
fn passing_run_prints_every_end_to_end_metric() {
    let (code, out) = bench(&[
        "--workload",
        "nekbone_cg",
        "--seed",
        "0",
        "--seconds",
        "0.1",
        "--trace",
        "0",
    ]);
    assert_eq!(code, 0, "{out}");
    let json = last_line(&out);
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(json.contains("\"failed\": 0, "), "{json}");
    for m in ["step_ms", "dof_rate", "setup_s", "peak_rss_mb"] {
        assert!(
            json.contains(&format!("\"{m}\": {{\"value\": ")),
            "{m}: {json}"
        );
    }
    assert!(out.contains("fail_rate"), "{out}");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "cmt_compute", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "cmt_compute",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "cmt_compute",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let (code, out) = bench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(out.is_empty(), "{args:?}: {out}");
    }
}
