//! R-MAT recursive matrix graph generator (Chakrabarti, Zhan & Faloutsos,
//! SDM 2004) — the generator the paper uses for its two synthetic graphs.
//!
//! Each edge is placed by recursively descending a 2^scale × 2^scale
//! adjacency matrix, choosing one of the four quadrants with probabilities
//! `(a, b, c, d)` at every level. `(0.25, 0.25, 0.25, 0.25)` yields an
//! Erdős–Rényi-like graph (the paper's *rmat-er*); `(0.45, 0.15, 0.15,
//! 0.25)` yields a skewed, power-law-ish graph (the paper's *rmat-g*).
//!
//! The sampler picks each level's quadrant branch-free: the index is the
//! count of cumulative thresholds `a`, `a + b`, `a + b + c` the uniform
//! draw reaches, and its two bits are the row and column bits. It makes
//! the same draws, comparisons and noise updates in the same order as a
//! four-way `if` ladder, so the output is bit-identical to one; the
//! generator fingerprint pins in `csr.rs`'s tests hold it to that.

use crate::builder::CsrBuilder;
use crate::csr::{Csr, VertexId};
use crate::rng::Xoshiro256;
use rayon::prelude::*;

/// Parameters of the R-MAT generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Number of *undirected* edges to sample (before dedup); the paper's
    /// graphs use `avg_degree / 2 * n` so the symmetrized edge count lands
    /// near `n * avg_degree`.
    pub edges: usize,
    /// Quadrant probability a (top-left).
    pub a: f64,
    /// Quadrant probability b (top-right).
    pub b: f64,
    /// Quadrant probability c (bottom-left).
    pub c: f64,
    /// Quadrant probability d (bottom-right).
    pub d: f64,
    /// Add ±10% noise to the quadrant probabilities at each level, as
    /// recommended by the R-MAT authors to avoid staircase artifacts.
    pub noise: bool,
}

impl RmatParams {
    /// The paper's *rmat-er* configuration at a given scale: uniform
    /// quadrants, average degree ~20 after symmetrization.
    pub fn erdos_renyi(scale: u32, avg_degree: usize) -> Self {
        Self {
            scale,
            edges: (1usize << scale) * avg_degree / 2,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            noise: false,
        }
    }

    /// The paper's *rmat-g* configuration: `(0.45, 0.15, 0.15, 0.25)`.
    pub fn skewed(scale: u32, avg_degree: usize) -> Self {
        Self {
            scale,
            edges: (1usize << scale) * avg_degree / 2,
            a: 0.45,
            b: 0.15,
            c: 0.15,
            d: 0.25,
            noise: true,
        }
    }

    fn validate(&self) {
        let sum = self.a + self.b + self.c + self.d;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "R-MAT quadrant probabilities must sum to 1 (got {sum})"
        );
        assert!(self.scale >= 1 && self.scale <= 30, "scale out of range");
    }
}

/// Samples one R-MAT edge.
fn sample_edge(p: &RmatParams, rng: &mut Xoshiro256) -> (VertexId, VertexId) {
    let (mut a, mut b, mut c, mut d) = (p.a, p.b, p.c, p.d);
    let (mut u, mut v) = (0u32, 0u32);
    for level in (0..p.scale).rev() {
        // Quadrant 0..=3 (top-left, top-right, bottom-left, bottom-right):
        // a branch per threshold would mispredict about half the time on
        // a uniform draw, so the comparisons are summed instead.
        let r = rng.next_f64();
        let q = (r >= a) as u32 + (r >= a + b) as u32 + (r >= a + b + c) as u32;
        u |= (q >> 1) << level;
        v |= (q & 1) << level;
        if p.noise {
            // Multiplicative ±10% noise, renormalized (Chakrabarti et al.).
            let na = a * (0.9 + 0.2 * rng.next_f64());
            let nb = b * (0.9 + 0.2 * rng.next_f64());
            let nc = c * (0.9 + 0.2 * rng.next_f64());
            let nd = d * (0.9 + 0.2 * rng.next_f64());
            let s = na + nb + nc + nd;
            a = na / s;
            b = nb / s;
            c = nc / s;
            d = nd / s;
        }
    }
    (u, v)
}

/// Generates a symmetric R-MAT graph. Edge sampling is parallelized over
/// deterministic per-chunk RNG streams, so the output depends only on
/// `(params, seed)` — never on thread scheduling.
///
/// ```
/// use gcol_graph::gen::{rmat, RmatParams};
/// let g = rmat(RmatParams::erdos_renyi(10, 8), 42);
/// assert_eq!(g.num_vertices(), 1024);
/// assert!(g.is_symmetric());
/// assert_eq!(g, rmat(RmatParams::erdos_renyi(10, 8), 42)); // bit-stable
/// ```
pub fn rmat(params: RmatParams, seed: u64) -> Csr {
    params.validate();
    let n = 1usize << params.scale;
    const CHUNK: usize = 1 << 16;
    let num_chunks = params.edges.div_ceil(CHUNK);
    let mut root = Xoshiro256::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let chunk_seeds: Vec<u64> = (0..num_chunks).map(|_| root.next_u64()).collect();
    let edges: Vec<(VertexId, VertexId)> = chunk_seeds
        .par_iter()
        .enumerate()
        .flat_map_iter(|(i, &cs)| {
            let lo = i * CHUNK;
            let hi = ((i + 1) * CHUNK).min(params.edges);
            let mut rng = Xoshiro256::seed_from_u64(cs);
            (lo..hi).map(move |_| sample_edge(&params, &mut rng))
        })
        .collect();
    let mut b = CsrBuilder::with_capacity(n, edges.len() * 2);
    b.add_edges(edges);
    b.symmetrize().build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let p = RmatParams::erdos_renyi(10, 8);
        let g1 = rmat(p, 1);
        let g2 = rmat(p, 1);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seeds_differ() {
        let p = RmatParams::erdos_renyi(10, 8);
        assert_ne!(rmat(p, 1), rmat(p, 2));
    }

    #[test]
    fn er_graph_has_expected_size_and_shape() {
        let p = RmatParams::erdos_renyi(12, 16);
        let g = rmat(p, 7);
        assert_eq!(g.num_vertices(), 4096);
        // Symmetrized, deduped: directed edge count close to n * avg_degree.
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg > 13.0 && avg < 16.5, "avg degree {avg}");
        assert!(g.is_symmetric());
        assert!(g.has_no_self_loops());
        assert!(g.has_sorted_unique_neighbors());
    }

    #[test]
    fn skewed_graph_is_more_skewed_than_er() {
        let er = rmat(RmatParams::erdos_renyi(12, 16), 3);
        let sk = rmat(RmatParams::skewed(12, 16), 3);
        let er_stats = crate::stats::DegreeStats::compute(&er);
        let sk_stats = crate::stats::DegreeStats::compute(&sk);
        // The paper's rmat-g has ~20x the degree variance and ~15x the max
        // degree of rmat-er at the same average degree.
        assert!(
            sk_stats.variance > 4.0 * er_stats.variance,
            "variance {} vs {}",
            sk_stats.variance,
            er_stats.variance
        );
        assert!(sk_stats.max_degree > 2 * er_stats.max_degree);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        let p = RmatParams {
            a: 0.5,
            b: 0.5,
            c: 0.5,
            d: 0.5,
            ..RmatParams::erdos_renyi(4, 2)
        };
        rmat(p, 0);
    }

    #[test]
    fn small_scale_works() {
        let g = rmat(RmatParams::erdos_renyi(1, 1), 5);
        assert_eq!(g.num_vertices(), 2);
        g.validate().unwrap();
    }
}
