//! CLI checks shared by the `cmt-bone` and `nekbone` binaries, included
//! by both crates' `tests/cli.rs` (`#[path]` module): both must accept
//! every shared flag and spelling of `cmt_runtime::cli`, reject the same
//! malformed values with exit 2 and the usage text, print the shared
//! usage fragment under `--help`, document exactly the flags `--help`
//! lists, and fail a bad `--restart` with one line naming the rank and
//! the file.

#![allow(dead_code)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

use cmt_runtime::cli;

/// One binary under test.
pub struct Bin {
    /// Path of the built binary (`env!("CARGO_BIN_EXE_...")`).
    pub exe: &'static str,
    /// Arguments of a tiny, fast run.
    pub base: &'static [&'static str],
    /// Source of the binary's `main` file, whose `//!` block documents
    /// the flag set (`include_str!`).
    pub source: &'static str,
}

impl Bin {
    /// Run the binary with `base` plus `extra`.
    pub fn run(&self, extra: &[&str]) -> Output {
        Command::new(self.exe)
            .args(self.base)
            .args(extra)
            .output()
            .expect("spawn binary")
    }

    fn ok(&self, extra: &[&str]) {
        let out = self.run(extra);
        assert!(
            out.status.success(),
            "{} {extra:?} failed:\nstderr: {}",
            self.exe,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    /// Run with `extra`, expect exit 2 from `validate()`, and return the
    /// one-line message.
    pub fn config_error(&self, extra: &[&str]) -> String {
        let out = self.run(extra);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {err}");
        assert!(!err.contains("panicked"), "{extra:?} panicked:\n{err}");
        assert_eq!(err.trim_end().lines().count(), 1, "not one line:\n{err}");
        assert!(err.starts_with("invalid configuration: "), "{err}");
        err
    }
}

/// A fresh scratch directory, unique per process and tag.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmt_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every `--variant` and `--method` spelling and every runtime flag is
/// accepted (and runs).
pub fn accepts_every_shared_flag(bin: &Bin, tag: &str) {
    for &(v, _) in cli::VARIANTS {
        bin.ok(&["--variant", v]);
    }
    for &(m, _) in cli::METHODS {
        bin.ok(&["--method", m]);
    }
    let dir = scratch(tag);
    let d = dir.to_str().unwrap();
    bin.ok(&[
        "--workers",
        "2",
        "--verify",
        "--chaos-sched",
        "3",
        "--no-pool",
        "--fault-plan",
        "delay:prob=0.1,us=10;seed=3",
        "--checkpoint-every",
        "2",
        "--checkpoint-dir",
        d,
    ]);
    bin.ok(&["--restart", d, "--transport", "inproc"]);
    let sock = format!("unix:{d}/w.sock");
    bin.ok(&["--transport", "socket", "--transport-addr", &sock]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed shared values exit 2 with the usage text, which lists
/// every `--variant` spelling (`batched` and `unroll` name tiers that no
/// longer exist).
pub fn rejects_malformed_values(bin: &Bin) {
    for bad in [
        ["--chaos-sched", "x"],
        ["--fault-plan", "bogus"],
        ["--transport", "tcp"],
        ["--variant", "avx512"],
        ["--variant", "batched"],
        ["--variant", "unroll"],
    ] {
        let out = bin.run(&bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&cli::usage()),
            "{bad:?}: no usage text:\n{err}"
        );
    }
}

/// `--help` prints the shared usage fragment.
pub fn help_prints_shared_fragment(bin: &Bin) {
    let out = Command::new(bin.exe).arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&cli::usage()),
        "help misses the fragment:\n{err}"
    );
}

/// `--flag` tokens on the bracketed usage lines of `text`.
fn bracketed_flags<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeSet<String> {
    let mut flags = BTreeSet::new();
    for line in lines {
        for tok in line.split(|c: char| c.is_whitespace() || c == '[' || c == ']') {
            if tok.starts_with("--") {
                flags.insert(tok.to_string());
            }
        }
    }
    flags
}

/// The binary's `//!` usage block lists exactly the flags of its
/// `--help` usage lines.
pub fn doc_block_matches_help(bin: &Bin) {
    let doc = bracketed_flags(
        bin.source
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .filter(|l| l.contains('[')),
    );
    let out = Command::new(bin.exe).arg("--help").output().expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    let help = bracketed_flags(
        err.lines()
            .filter(|l| l.trim_start().starts_with('[') || l.starts_with("usage:")),
    );
    assert!(!help.is_empty(), "no usage lines in:\n{err}");
    assert_eq!(doc, help, "//! usage block and --help disagree");
}
