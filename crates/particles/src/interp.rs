//! Tensor-product barycentric Lagrange interpolation inside one element.
//!
//! Evaluates spectral-element fields at arbitrary reference coordinates
//! `(r, s, t) in [-1, 1]^3` — the kernel a point-particle solver runs for
//! every particle every stage. Barycentric evaluation is numerically
//! stable at and between nodes and costs `O(N)` per direction plus an
//! `O(N^3)` contraction.
//!
//! Evaluation is lane-batched: [`INTERP_LANES`](LANES) points of one
//! element share a pass. Their 1D cardinals are laid out lane-major
//! ([`ElementInterpolator::cardinal_lanes`]) and the contraction runs in
//! the `simd` tier ([`cmt_core::kernels::simd::interp_lanes`]), where
//! each vector lane repeats one point's scalar operation sequence, so a
//! point's value does not depend on the batch it rode in or on the ISA.
//! The single-point [`ElementInterpolator::eval`] and
//! [`ElementInterpolator::eval_many`] are one-lane wrappers over the same
//! path.

use cmt_core::kernels::simd::{self, INTERP_LANES as LANES, MAX_SIMD_N};
use cmt_core::poly::{barycentric_weights, Basis};
use cmt_core::Field;

/// Precomputed interpolation machinery for one element order.
#[derive(Debug, Clone)]
pub struct ElementInterpolator {
    n: usize,
    nodes: Vec<f64>,
    bary: Vec<f64>,
}

impl ElementInterpolator {
    /// Build from a reference-element basis.
    pub fn new(basis: &Basis) -> Self {
        ElementInterpolator {
            n: basis.n,
            nodes: basis.nodes.clone(),
            bary: barycentric_weights(&basis.nodes),
        }
    }

    /// Element order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Length of the scratch buffer [`ElementInterpolator::eval_lanes`]
    /// takes: the three directions' lane-major cardinals.
    pub fn scratch_len(&self) -> usize {
        3 * self.n * LANES
    }

    /// The 1D Lagrange cardinal values `l_i(x)` at one coordinate.
    pub fn cardinal(&self, x: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "cardinal buffer length");
        let mut lanes = [0.0; MAX_SIMD_N * LANES];
        let mut heap = Vec::new();
        let buf = lane_buf(&mut lanes, &mut heap, self.n * LANES);
        self.cardinal_lanes([x; LANES], buf);
        for (o, l) in out.iter_mut().zip(buf.chunks_exact(LANES)) {
            *o = l[0];
        }
    }

    /// The 1D cardinals of [`LANES`] coordinates, lane-major:
    /// `out[i * LANES + l] = l_i(x[l])`. Each lane follows the scalar
    /// barycentric sequence — `w_i = bary_i / (x - x_i)`, `denom` summed
    /// ascending from zero, `l_i = w_i / denom` — or is the delta at a
    /// node when `|x - x_i| < 1e-14`.
    pub fn cardinal_lanes(&self, x: [f64; LANES], out: &mut [f64]) {
        let n = self.n;
        assert_eq!(out.len(), n * LANES, "cardinal buffer length");
        let mut denom = [0.0; LANES];
        for (i, wi) in out.chunks_exact_mut(LANES).enumerate() {
            let (b, xi) = (self.bary[i], self.nodes[i]);
            for l in 0..LANES {
                let w = b / (x[l] - xi);
                wi[l] = w;
                denom[l] += w;
            }
        }
        for wi in out.chunks_exact_mut(LANES) {
            for l in 0..LANES {
                wi[l] /= denom[l];
            }
        }
        // exact node hit: delta
        for l in 0..LANES {
            if let Some(hit) = self.nodes.iter().position(|&xn| (xn - x[l]).abs() < 1e-14) {
                for i in 0..n {
                    out[i * LANES + l] = if i == hit { 1.0 } else { 0.0 };
                }
            }
        }
    }

    /// Evaluate three element blocks (`u[f]`, each `n^3` values) at
    /// [`LANES`] reference points at once: `out[f][l]` is field `f` at
    /// `rst[l]`. `scratch` holds [`ElementInterpolator::scratch_len`]
    /// values; nothing is allocated.
    pub fn eval_lanes(
        &self,
        u: [&[f64]; 3],
        rst: &[[f64; 3]; LANES],
        scratch: &mut [f64],
    ) -> [[f64; LANES]; 3] {
        self.cardinals3(rst, scratch);
        self.contract(u, scratch)
    }

    /// Fill `scratch` with the lane-major `r`, `s`, `t` cardinals.
    fn cardinals3(&self, rst: &[[f64; 3]; LANES], scratch: &mut [f64]) {
        assert_eq!(scratch.len(), self.scratch_len(), "scratch length");
        for (d, buf) in scratch.chunks_exact_mut(self.n * LANES).enumerate() {
            self.cardinal_lanes(rst.map(|p| p[d]), buf);
        }
    }

    /// Contract three element blocks against the cardinals in `scratch`.
    fn contract(&self, u: [&[f64]; 3], scratch: &[f64]) -> [[f64; LANES]; 3] {
        let nl = self.n * LANES;
        let mut out = [[0.0; LANES]; 3];
        simd::interp_lanes(
            self.n,
            u,
            &scratch[..nl],
            &scratch[nl..2 * nl],
            &scratch[2 * nl..],
            &mut out,
        );
        out
    }

    /// Evaluate `field` in element `e` at reference coordinates
    /// `(r, s, t)` (each in `[-1, 1]`).
    pub fn eval(&self, field: &Field, e: usize, rst: [f64; 3]) -> f64 {
        let mut out = [0.0];
        self.eval_many(&[field], e, rst, &mut out);
        out[0]
    }

    /// Evaluate several fields at once (shared cardinal evaluation) —
    /// the velocity-vector case. One lane of the batched path; fields go
    /// through the three-field contraction in groups of three.
    pub fn eval_many(&self, fields: &[&Field], e: usize, rst: [f64; 3], out: &mut [f64]) {
        assert_eq!(fields.len(), out.len(), "output length mismatch");
        let mut lanes = [0.0; 3 * MAX_SIMD_N * LANES];
        let mut heap = Vec::new();
        let scratch = lane_buf(&mut lanes, &mut heap, self.scratch_len());
        self.cardinals3(&[rst; LANES], scratch);
        for (fs, os) in fields.chunks(3).zip(out.chunks_mut(3)) {
            for f in fs {
                assert_eq!(f.n(), self.n, "field order mismatch");
            }
            // a short group repeats its first field; those results are dropped
            let pick = |c: usize| fs.get(c).unwrap_or(&fs[0]).element(e);
            let v = self.contract([pick(0), pick(1), pick(2)], scratch);
            for (o, vc) in os.iter_mut().zip(v) {
                *o = vc[0];
            }
        }
    }
}

/// A `len`-value scratch slice: on the stack up to the vector tier's
/// order limit, on the heap beyond it.
fn lane_buf<'a>(stack: &'a mut [f64], heap: &'a mut Vec<f64>, len: usize) -> &'a mut [f64] {
    if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, 0.0);
        heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_core::poly::Basis;

    #[test]
    fn cardinal_is_delta_at_nodes() {
        let basis = Basis::new(6);
        let interp = ElementInterpolator::new(&basis);
        let mut l = vec![0.0; 6];
        for (i, &x) in basis.nodes.iter().enumerate() {
            interp.cardinal(x, &mut l);
            for (j, &v) in l.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "l_{j}({x}) = {v}");
            }
        }
    }

    #[test]
    fn cardinal_partition_of_unity() {
        let basis = Basis::new(7);
        let interp = ElementInterpolator::new(&basis);
        let mut l = vec![0.0; 7];
        for step in 0..21 {
            let x = -1.0 + step as f64 * 0.1;
            interp.cardinal(x, &mut l);
            let sum: f64 = l.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "sum at {x} = {sum}");
        }
    }

    #[test]
    fn eval_exact_on_polynomials() {
        let basis = Basis::new(5);
        let interp = ElementInterpolator::new(&basis);
        let x = basis.nodes.clone();
        let f = |r: f64, s: f64, t: f64| 1.0 - r + 2.0 * s * s + r * s * t - t.powi(3);
        let field = Field::from_fn(5, 2, |_, i, j, k| f(x[i], x[j], x[k]));
        for &(r, s, t) in &[
            (0.0, 0.0, 0.0),
            (0.3, -0.7, 0.9),
            (-1.0, 1.0, -0.5),
            (0.123, 0.456, -0.789),
        ] {
            for e in 0..2 {
                let got = interp.eval(&field, e, [r, s, t]);
                let want = f(r, s, t);
                assert!(
                    (got - want).abs() < 1e-11,
                    "eval({r},{s},{t}) = {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn eval_many_matches_eval() {
        let basis = Basis::new(4);
        let interp = ElementInterpolator::new(&basis);
        let f1 = Field::from_fn(4, 1, |_, i, j, k| (i + 2 * j + 3 * k) as f64);
        let f2 = Field::from_fn(4, 1, |_, i, j, k| (i * j * k) as f64);
        let rst = [0.25, -0.4, 0.8];
        let mut out = [0.0; 2];
        interp.eval_many(&[&f1, &f2], 0, rst, &mut out);
        assert!((out[0] - interp.eval(&f1, 0, rst)).abs() < 1e-13);
        assert!((out[1] - interp.eval(&f2, 0, rst)).abs() < 1e-13);
    }

    #[test]
    fn eval_at_node_reads_the_nodal_value() {
        let basis = Basis::new(5);
        let interp = ElementInterpolator::new(&basis);
        let field = Field::from_fn(5, 1, |_, i, j, k| (100 * i + 10 * j + k) as f64);
        let got = interp.eval(&field, 0, [basis.nodes[2], basis.nodes[0], basis.nodes[4]]);
        assert!((got - field.get(0, 2, 0, 4)).abs() < 1e-12);
    }
}
