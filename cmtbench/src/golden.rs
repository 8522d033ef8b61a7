//! Committed golden final-state hashes, per workload and seed.
//!
//! `golden.txt` holds one `workload seed hash` line per case, the hash
//! in hex as `state_hash` prints it; lines starting with `#` are
//! comments. A seed without a line is checked against the untimed
//! `opt`-variant run alone.

use crate::workload::Workload;

const GOLDEN: &str = include_str!("../golden.txt");

/// The golden `state_hash` of `workload` at `seed`, if one is committed.
pub fn lookup(workload: Workload, seed: u64) -> Option<u64> {
    entries().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, h) = (it.next()?, it.next()?, it.next()?);
        (w == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(h, 16).expect("golden.txt: hash is hex"))
    })
}

fn entries() -> impl Iterator<Item = &'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_parses_and_names_a_workload() {
        for line in entries() {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "{line}");
            assert!(Workload::parse(f[0]).is_some(), "{line}");
            f[1].parse::<u64>().expect("seed");
            u64::from_str_radix(f[2], 16).expect("hash");
        }
        assert!(lookup(Workload::NekboneCg, 0).is_some());
    }
}
