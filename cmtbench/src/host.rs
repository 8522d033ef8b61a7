//! Roofline references measured in the benchmark's own process: a peak
//! add+mul rate and a stream-triad bandwidth, each on one thread per
//! rank.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Independent accumulator chains per thread: eight 4-wide vectors,
/// enough to cover the add-after-mul latency on two vector ports while
/// staying in registers (48 chains spill and run 6x slower).
const CHAINS: usize = 32;

/// Per-thread triad array length: three arrays of 32 MiB each, so two
/// threads touch 192 MiB. That is inside a 300 MiB last-level cache, so
/// the figure is an LLC-resident triad, not DRAM bandwidth; the
/// benchmark therefore reports no roofline fraction against it.
pub const TRIAD_LEN: usize = 4 << 20;

#[inline(always)]
fn chains_body(iters: u64, m: f64, c: f64) -> f64 {
    let mut acc = [0.0f64; CHAINS];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = i as f64 * 1e-3;
    }
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * m + c;
        }
    }
    acc.iter().sum()
}

/// AVX2 build of the chains, so the compiler may use 4-wide vectors the
/// way the simd kernel tier does.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chains_avx2(iters: u64, m: f64, c: f64) -> f64 {
    chains_body(iters, m, c)
}

fn chains(iters: u64) -> f64 {
    let (m, c) = (black_box(0.999_999), black_box(1e-7));
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected at runtime.
        return unsafe { chains_avx2(iters, m, c) };
    }
    chains_body(iters, m, c)
}

/// Run `work` on `threads` threads at once, `reps` times; the median
/// wall time of one concurrent round, seconds.
fn timed_rounds(threads: usize, reps: usize, work: impl Fn(usize) + Sync) -> f64 {
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let work = &work;
                s.spawn(move || work(t));
            }
        });
        walls.push(t0.elapsed().as_secs_f64());
    }
    median(&walls)
}

/// Peak add+mul rate of `threads` threads together, GFLOP/s.
pub fn peak_gflops(threads: usize) -> f64 {
    const ITERS: u64 = 20_000_000;
    chains(1000); // fault in code and warm the clock
    let wall = timed_rounds(threads, 5, |_| {
        black_box(chains(black_box(ITERS)));
    });
    (threads as f64 * ITERS as f64 * CHAINS as f64 * 2.0) / wall * 1e-9
}

/// Stream-triad bandwidth `a = b + s c` of `threads` threads together,
/// GB/s, counting 24 computed bytes per element (two reads, one write).
pub fn triad_gbs(threads: usize) -> f64 {
    const PASSES: usize = 4;
    let arrays: Vec<[Vec<f64>; 3]> = (0..threads)
        .map(|_| {
            [
                vec![0.0; TRIAD_LEN],
                vec![1.0; TRIAD_LEN],
                vec![2.0; TRIAD_LEN],
            ]
        })
        .collect();
    let cells: Vec<std::sync::Mutex<[Vec<f64>; 3]>> =
        arrays.into_iter().map(std::sync::Mutex::new).collect();
    let round = |t: usize| {
        let mut g = cells[t].lock().expect("triad arrays are not poisoned");
        let [a, b, c] = &mut *g;
        for _ in 0..PASSES {
            let s = black_box(0.5);
            for ((x, &y), &z) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                *x = y + s * z;
            }
            black_box(&mut a[0]);
        }
    };
    (0..threads).for_each(round); // first touch outside the timing
    let wall = timed_rounds(threads, 5, round);
    (threads * PASSES * TRIAD_LEN * 24) as f64 / wall * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_stay_finite() {
        assert!(chains(10_000).is_finite());
    }
}
