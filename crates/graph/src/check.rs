//! Coloring validity checks shared by every algorithm and every test.

use crate::csr::{Csr, VertexId};
use rayon::prelude::*;
use std::fmt;

/// Color type: `0` means "uncolored", valid colors start at `1`, exactly as
/// in Algorithm 1 of the paper (the `colorMask` scan starts at index
/// `i > 0`).
pub type Color = u32;

/// Why a candidate coloring is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColoringViolation {
    /// The color array length differs from the vertex count.
    WrongLength {
        /// Provided length.
        got: usize,
        /// Expected length (n).
        expected: usize,
    },
    /// Some vertex is still uncolored (color 0).
    Uncolored(VertexId),
    /// Two adjacent vertices share a color.
    Conflict(VertexId, VertexId),
}

impl fmt::Display for ColoringViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringViolation::WrongLength { got, expected } => {
                write!(f, "color array has length {got}, expected {expected}")
            }
            ColoringViolation::Uncolored(v) => {
                write!(f, "vertex {v} is uncolored")
            }
            ColoringViolation::Conflict(u, v) => {
                write!(f, "adjacent vertices {u} and {v} share a color")
            }
        }
    }
}

impl std::error::Error for ColoringViolation {}

/// Verifies that `colors` is a proper coloring of `g`: every vertex has a
/// positive color and no edge is monochromatic. Runs in parallel over
/// vertices; returns the first (lowest-vertex) violation found.
pub fn verify_coloring(g: &Csr, colors: &[Color]) -> Result<(), ColoringViolation> {
    let n = g.num_vertices();
    if colors.len() != n {
        return Err(ColoringViolation::WrongLength {
            got: colors.len(),
            expected: n,
        });
    }
    let bad = (0..n as VertexId)
        .into_par_iter()
        .filter_map(|v| {
            if colors[v as usize] == 0 {
                return Some(ColoringViolation::Uncolored(v));
            }
            g.neighbors(v)
                .iter()
                .find(|&&w| w != v && colors[w as usize] == colors[v as usize])
                .map(|&w| ColoringViolation::Conflict(v, w))
        })
        .min_by_key(|viol| match *viol {
            ColoringViolation::Uncolored(v) => v,
            ColoringViolation::Conflict(v, _) => v,
            ColoringViolation::WrongLength { .. } => 0,
        });
    match bad {
        Some(v) => Err(v),
        None => Ok(()),
    }
}

/// Number of distinct colors used (ignores uncolored vertices). For the
/// first-fit family the colors form the contiguous range `1..=max`, so this
/// equals the maximum color; we count distinct values to also handle
/// non-contiguous assignments (csrcolor's `2i`/`2i+1` scheme compacted).
pub fn count_colors(colors: &[Color]) -> usize {
    let mut seen = std::collections::HashSet::new();
    for &c in colors {
        if c != 0 {
            seen.insert(c);
        }
    }
    seen.len()
}

/// Maximum color value used (0 if nothing is colored).
pub fn max_color(colors: &[Color]) -> Color {
    colors.iter().copied().max().unwrap_or(0)
}

/// Counts monochromatic edges `(u, v)` with `u < v` — the conflict measure
/// used when reasoning about speculative rounds.
pub fn count_conflicts(g: &Csr, colors: &[Color]) -> usize {
    (0..g.num_vertices() as VertexId)
        .into_par_iter()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .filter(|&&w| {
                    v < w && colors[v as usize] != 0 && colors[v as usize] == colors[w as usize]
                })
                .count()
        })
        .sum()
}

/// Remaps an arbitrary positive color assignment to the dense range
/// `1..=k`, preserving the relative order of first appearance. Used to
/// report csrcolor's color count on the same scale as the greedy schemes.
pub fn compact_colors(colors: &mut [Color]) -> usize {
    let mut map = std::collections::HashMap::new();
    let mut next = 1 as Color;
    for c in colors.iter_mut() {
        if *c == 0 {
            continue;
        }
        let dense = *map.entry(*c).or_insert_with(|| {
            let d = next;
            next += 1;
            d
        });
        *c = dense;
    }
    (next - 1) as usize
}

/// Renumbers a 1-based color assignment to the dense range `1..=k` by
/// rank, so color order is kept, and returns `k`. Uncolored vertices (0)
/// stay 0, and an already dense assignment is left untouched. Used where
/// recoloring rounds can vacate a color the first pass handed out.
pub fn densify_colors(colors: &mut [Color]) -> usize {
    let max = colors.iter().copied().max().unwrap_or(0) as usize;
    let mut rank = vec![0 as Color; max + 1];
    for &c in colors.iter() {
        rank[c as usize] = 1;
    }
    rank[0] = 0;
    let mut k = 0;
    for r in rank.iter_mut().filter(|r| **r != 0) {
        k += 1;
        *r = k;
    }
    if (k as usize) < max {
        for c in colors.iter_mut() {
            *c = rank[*c as usize];
        }
    }
    k as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_undirected_edges;

    fn triangle() -> Csr {
        from_undirected_edges(3, [(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn accepts_proper_coloring() {
        let g = triangle();
        verify_coloring(&g, &[1, 2, 3]).unwrap();
    }

    #[test]
    fn rejects_conflict() {
        let g = triangle();
        assert_eq!(
            verify_coloring(&g, &[1, 1, 2]).unwrap_err(),
            ColoringViolation::Conflict(0, 1)
        );
    }

    #[test]
    fn rejects_uncolored() {
        let g = triangle();
        assert_eq!(
            verify_coloring(&g, &[1, 0, 2]).unwrap_err(),
            ColoringViolation::Uncolored(1)
        );
    }

    #[test]
    fn rejects_wrong_length() {
        let g = triangle();
        assert!(matches!(
            verify_coloring(&g, &[1, 2]).unwrap_err(),
            ColoringViolation::WrongLength {
                got: 2,
                expected: 3
            }
        ));
    }

    #[test]
    fn count_colors_ignores_zero_and_gaps() {
        assert_eq!(count_colors(&[0, 5, 5, 9]), 2);
        assert_eq!(count_colors(&[]), 0);
        assert_eq!(max_color(&[0, 5, 9]), 9);
        assert_eq!(max_color(&[]), 0);
    }

    #[test]
    fn conflict_count_counts_each_edge_once() {
        let g = triangle();
        assert_eq!(count_conflicts(&g, &[1, 1, 1]), 3);
        assert_eq!(count_conflicts(&g, &[1, 1, 2]), 1);
        assert_eq!(count_conflicts(&g, &[1, 2, 3]), 0);
        // Uncolored vertices never conflict.
        assert_eq!(count_conflicts(&g, &[0, 0, 0]), 0);
    }

    #[test]
    fn densify_colors_keeps_order_and_dense_input() {
        let mut c = vec![5, 0, 2, 5, 9];
        assert_eq!(densify_colors(&mut c), 3);
        assert_eq!(c, vec![2, 0, 1, 2, 3]);
        let mut dense = vec![2, 1, 3, 1];
        assert_eq!(densify_colors(&mut dense), 3);
        assert_eq!(dense, vec![2, 1, 3, 1]);
        assert_eq!(densify_colors(&mut []), 0);
    }

    #[test]
    fn compact_colors_densifies() {
        let mut c = [0, 10, 4, 10, 7];
        let k = compact_colors(&mut c);
        assert_eq!(k, 3);
        assert_eq!(c, [0, 1, 2, 1, 3]);
    }

    #[test]
    fn self_loop_does_not_flag_conflict() {
        let mut b = crate::builder::CsrBuilder::new(1);
        b.add_edge(0, 0);
        let g = b.keep_self_loops().build();
        verify_coloring(&g, &[1]).unwrap();
    }
}
