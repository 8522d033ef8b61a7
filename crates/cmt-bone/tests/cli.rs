//! CLI-level checks of the `cmt-bone` binary: every `--variant`
//! spelling runs and `simd` reproduces the scalar run bit for bit; the
//! flags shared with `nekbone` behave identically in both binaries (the
//! parity checks of `runtime/tests/common/parity.rs`); a bad `--restart`
//! directory is one clean line and exit 2; `--euler` rejects the flags
//! it does not honour.

use std::process::Command;

const SMALL: &[&str] = &[
    "--ranks", "2", "--n", "5", "--elems", "4", "--steps", "4", "--fields", "2", "--method",
    "pairwise", "--quiet",
];

fn run_bin(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cmt-bone"))
        .args(SMALL)
        .args(extra)
        .output()
        .expect("spawn cmt-bone")
}

fn state_hash(extra: &[&str]) -> String {
    let out = run_bin(extra);
    assert!(
        out.status.success(),
        "cmt-bone {extra:?} failed:\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    let line = stdout
        .lines()
        .find(|l| l.contains("state "))
        .unwrap_or_else(|| panic!("no state line in output:\n{stdout}"));
    line.split("state ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("state hash token")
        .to_string()
}

#[test]
fn every_variant_spelling_is_accepted_and_simd_matches_opt() {
    let opt = state_hash(&["--variant", "opt"]);
    for v in ["basic", "spec", "simd", "auto"] {
        let h = state_hash(&["--variant", v]);
        if v == "simd" {
            assert_eq!(h, opt, "--variant simd diverged from opt");
        }
        assert_eq!(h.len(), 16, "--variant {v}: malformed state hash {h}");
    }
}

#[path = "../../runtime/tests/common/parity.rs"]
mod parity;

use cmt_resilience::{checkpoint_path, Checkpoint};

const BIN: parity::Bin = parity::Bin {
    exe: env!("CARGO_BIN_EXE_cmt-bone"),
    base: &[
        "--ranks", "2", "--n", "4", "--elems", "2", "--steps", "2", "--fields", "1", "--quiet",
    ],
    source: include_str!("../src/bin/cmt_bone.rs"),
};

#[test]
fn accepts_every_shared_flag() {
    parity::accepts_every_shared_flag(&BIN, "bone_flags");
}

#[test]
fn rejects_malformed_shared_values_with_usage() {
    parity::rejects_malformed_values(&BIN);
}

#[test]
fn help_prints_the_shared_usage_fragment() {
    parity::help_prints_shared_fragment(&BIN);
}

#[test]
fn doc_block_lists_exactly_the_help_flags() {
    parity::doc_block_matches_help(&BIN);
}

/// A restart directory written by a checkpointing run of `BIN` plus
/// `extra`.
fn checkpoints(tag: &str, extra: &[&str]) -> std::path::PathBuf {
    let dir = parity::scratch(tag);
    let mut args = vec!["--checkpoint-every", "1", "--checkpoint-dir"];
    args.push(dir.to_str().unwrap());
    args.extend_from_slice(extra);
    let out = BIN.run(&args);
    assert!(out.status.success(), "{out:?}");
    dir
}

#[test]
fn restart_from_an_empty_directory_is_a_clean_error() {
    let dir = parity::scratch("bone_empty");
    let err = BIN.config_error(&["--restart", dir.to_str().unwrap()]);
    assert!(
        err.contains("rank 0") && err.contains("ckpt_rank0.cmtr"),
        "{err}"
    );
}

#[test]
fn restart_from_a_truncated_checkpoint_is_a_clean_error() {
    let dir = checkpoints("bone_trunc", &[]);
    let path = checkpoint_path(&dir, 1);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = BIN.config_error(&["--restart", dir.to_str().unwrap()]);
    assert!(
        err.contains("rank 1") && err.contains("ckpt_rank1.cmtr"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_with_another_field_count_is_a_clean_error() {
    let dir = checkpoints("bone_fields", &[]);
    let err = BIN.config_error(&["--restart", dir.to_str().unwrap(), "--fields", "2"]);
    assert!(
        err.contains("rank 0") && err.contains("checkpoint holds 1 fields, run has 2"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_from_a_nekbone_checkpoint_is_a_clean_error() {
    // A CG state: x, r, p plus rz and the residual history.
    let dir = parity::scratch("bone_cg");
    for r in 0..2u64 {
        let ckpt = Checkpoint {
            rank: r,
            step: 2,
            stage: 0,
            time: 0.0,
            rng_state: 0,
            scalars: vec![0.5, 1.0, 0.7],
            fields: vec![vec![0.0; 4 * 4 * 4 * 2]; 3],
        };
        std::fs::write(checkpoint_path(&dir, r as usize), ckpt.encode()).unwrap();
    }
    let err = BIN.config_error(&["--restart", dir.to_str().unwrap()]);
    assert!(
        err.contains("rank 0") && err.contains("checkpoint holds 3 fields, run has 1"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn euler_rejects_the_flags_it_does_not_honour() {
    let out = Command::new(BIN.exe)
        .args([
            "--euler", "--ranks", "2", "--n", "4", "--elems", "2", "--steps", "1",
        ])
        .args(["--transport", "socket", "--verify", "--fault-plan"])
        .args([
            "kill:rank=1,step=1",
            "--checkpoint-every",
            "1",
            "--workers",
            "3",
        ])
        .output()
        .expect("spawn cmt-bone");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "--transport",
        "--verify",
        "--fault-plan",
        "--checkpoint-every",
        "--workers",
    ] {
        assert!(err.contains(flag), "{flag} not named:\n{err}");
    }
    for honoured in ["--ranks", "--steps"] {
        assert!(
            !err.lines().next().unwrap_or("").contains(honoured),
            "{err}"
        );
    }
    let ok = Command::new(BIN.exe)
        .args([
            "--euler", "--ranks", "2", "--n", "4", "--elems", "2", "--steps", "1",
        ])
        .arg("--quiet")
        .output()
        .expect("spawn cmt-bone");
    assert!(ok.status.success(), "{ok:?}");
}
