//! The lane-batched interpolation path is bitwise equal to the scalar
//! single-particle evaluation it replaced.
//!
//! `scalar_eval_many` below is the pre-batching `eval_many`, verbatim:
//! one particle, three freshly computed cardinal vectors, and the
//! `acc += (lt[k] * ls[j]) * (sum_i lr[i] * u[k][j][i])` contraction.
//! Every lane of every batch, on every ISA this machine can run, must
//! reproduce its bits: across the whole order range of the vector tier
//! plus one order past `MAX_SIMD_N` (the scalar clamp), for padded
//! batches of 1 to 4 particles, for coordinates that hit a node exactly,
//! and for extrapolated RK midpoints outside `[-1, 1]`.

use cmt_core::kernels::simd::{interp_lanes_with, SimdIsa, INTERP_LANES, MAX_SIMD_N};
use cmt_core::poly::{barycentric_weights, Basis};
use cmt_core::Field;
use cmt_particles::ElementInterpolator;

/// Deterministic xorshift stream in `[0, 1)`.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The scalar cardinal evaluation the batched path must reproduce.
fn scalar_cardinal(nodes: &[f64], bary: &[f64], x: f64, out: &mut [f64]) {
    let n = nodes.len();
    if let Some(hit) = nodes.iter().position(|&xn| (xn - x).abs() < 1e-14) {
        out.fill(0.0);
        out[hit] = 1.0;
        return;
    }
    let mut denom = 0.0;
    for i in 0..n {
        let w = bary[i] / (x - nodes[i]);
        out[i] = w;
        denom += w;
    }
    for v in out.iter_mut() {
        *v /= denom;
    }
}

/// The scalar single-particle `eval_many` the batched path must reproduce.
fn scalar_eval_many(
    nodes: &[f64],
    bary: &[f64],
    fields: &[&Field],
    e: usize,
    rst: [f64; 3],
    out: &mut [f64],
) {
    let n = nodes.len();
    let mut lr = vec![0.0; n];
    let mut ls = vec![0.0; n];
    let mut lt = vec![0.0; n];
    scalar_cardinal(nodes, bary, rst[0], &mut lr);
    scalar_cardinal(nodes, bary, rst[1], &mut ls);
    scalar_cardinal(nodes, bary, rst[2], &mut lt);
    for (f, o) in fields.iter().zip(out.iter_mut()) {
        let data = f.element(e);
        let mut acc = 0.0;
        for k in 0..n {
            let wk = lt[k];
            for j in 0..n {
                let wjk = wk * ls[j];
                let row = &data[(k * n + j) * n..(k * n + j) * n + n];
                let mut s = 0.0;
                for (li, ui) in lr.iter().zip(row) {
                    s += li * ui;
                }
                acc += wjk * s;
            }
        }
        *o = acc;
    }
}

fn runnable() -> Vec<SimdIsa> {
    SimdIsa::ALL
        .iter()
        .copied()
        .filter(|i| i.available())
        .collect()
}

/// A batch of `count` points: coordinates in `[-1.2, 1.2]` (past the
/// element like an RK midpoint), with some set exactly onto a node.
fn batch(rng: &mut Rng, nodes: &[f64], count: usize) -> Vec<[f64; 3]> {
    (0..count)
        .map(|_| {
            let mut p = [0.0; 3];
            for c in &mut p {
                *c = if rng.unit() < 0.25 {
                    nodes[(rng.unit() * nodes.len() as f64) as usize]
                } else {
                    2.4 * rng.unit() - 1.2
                };
            }
            p
        })
        .collect()
}

fn check_order(n: usize, rng: &mut Rng, isas: &[SimdIsa]) {
    let basis = Basis::new(n);
    let bary = barycentric_weights(&basis.nodes);
    let interp = ElementInterpolator::new(&basis);
    let nel = 2;
    let fields: Vec<Field> = (0..3)
        .map(|_| Field::from_fn(n, nel, |_, _, _, _| 2.0 * rng.unit() - 1.0))
        .collect();
    let frefs = [&fields[0], &fields[1], &fields[2]];
    let mut scratch = vec![0.0; interp.scratch_len()];
    for count in 1..=INTERP_LANES {
        for e in 0..nel {
            let pts = batch(rng, &basis.nodes, count);
            // pad the tail with the batch's first point, as the tracker does
            let mut rst = [pts[0]; INTERP_LANES];
            rst[..count].copy_from_slice(&pts);
            let mut want = vec![[0.0; 3]; count];
            for (p, w) in pts.iter().zip(&mut want) {
                scalar_eval_many(&basis.nodes, &bary, &frefs, e, *p, w);
            }
            let u = [
                fields[0].element(e),
                fields[1].element(e),
                fields[2].element(e),
            ];
            let mut card = vec![vec![0.0; n * INTERP_LANES]; 3];
            for (d, c) in card.iter_mut().enumerate() {
                interp.cardinal_lanes(rst.map(|p| p[d]), c);
            }
            let mut runs: Vec<(String, [[f64; INTERP_LANES]; 3])> = isas
                .iter()
                .map(|&isa| {
                    let mut out = [[f64::NAN; INTERP_LANES]; 3];
                    interp_lanes_with(isa, n, u, &card[0], &card[1], &card[2], &mut out);
                    (isa.name().to_string(), out)
                })
                .collect();
            runs.push((
                "eval_lanes".into(),
                interp.eval_lanes(u, &rst, &mut scratch),
            ));
            for (name, out) in &runs {
                for (l, w) in want.iter().enumerate() {
                    for f in 0..3 {
                        assert_eq!(
                            out[f][l].to_bits(),
                            w[f].to_bits(),
                            "{name} n={n} count={count} lane={l} field={f} rst={:?}: {} vs {}",
                            rst[l],
                            out[f][l],
                            w[f]
                        );
                    }
                }
            }
            // the one-lane wrappers ride the same path
            for (p, w) in pts.iter().zip(&want) {
                let mut got = [0.0; 3];
                interp.eval_many(&frefs, e, *p, &mut got);
                assert_eq!(
                    got.map(f64::to_bits),
                    w.map(f64::to_bits),
                    "eval_many n={n}"
                );
                let mut two = [0.0; 2];
                interp.eval_many(&frefs[1..], e, *p, &mut two);
                assert_eq!(two[0].to_bits(), w[1].to_bits(), "eval_many[1..] n={n}");
                assert_eq!(two[1].to_bits(), w[2].to_bits(), "eval_many[1..] n={n}");
                for f in 0..3 {
                    assert_eq!(
                        interp.eval(frefs[f], e, *p).to_bits(),
                        w[f].to_bits(),
                        "eval n={n} field={f}"
                    );
                }
            }
        }
    }
}

#[test]
fn lane_batches_are_bitwise_equal_to_the_scalar_reference() {
    let isas = runnable();
    let mut rng = Rng(0x5EED_1A9E_0000_0001);
    for n in 2..=25 {
        check_order(n, &mut rng, &isas);
    }
}

#[test]
fn orders_past_the_vector_limit_take_the_scalar_clamp_bitwise() {
    let n = MAX_SIMD_N + 3;
    let mut rng = Rng(0x5EED_1A9E_0000_0002);
    check_order(n, &mut rng, &SimdIsa::ALL);
}

#[test]
fn node_hits_give_delta_cardinals_in_their_lane_only() {
    let basis = Basis::new(6);
    let interp = ElementInterpolator::new(&basis);
    let x = [basis.nodes[2], 0.37, basis.nodes[5], -1.1];
    let mut lanes = vec![0.0; 6 * INTERP_LANES];
    interp.cardinal_lanes(x, &mut lanes);
    let mut one = vec![0.0; 6];
    for (l, &xl) in x.iter().enumerate() {
        interp.cardinal(xl, &mut one);
        for i in 0..6 {
            assert_eq!(lanes[i * INTERP_LANES + l].to_bits(), one[i].to_bits());
        }
    }
    assert_eq!(lanes[2 * INTERP_LANES], 1.0);
    assert_eq!(lanes[5 * INTERP_LANES + 2], 1.0);
    assert_eq!(lanes[INTERP_LANES], 0.0);
}
