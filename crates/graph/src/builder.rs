//! Incremental construction of CSR graphs from edge lists.
//!
//! The builder accepts arbitrary (possibly duplicated, possibly one-sided)
//! edges and produces a clean [`Csr`]: optionally symmetrized, self-loops
//! dropped, adjacency lists sorted and deduplicated. Construction is the
//! standard two-pass counting sort (count, then place each edge in its
//! row), followed by one sequential pass that sorts each row in place and
//! compacts the deduplicated rows toward the front of the column array,
//! so the build allocates nothing per vertex.

use crate::csr::{Csr, VertexId};

/// Builds a [`Csr`] from a stream of edges.
///
/// ```
/// use gcol_graph::CsrBuilder;
/// let mut b = CsrBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.symmetrize().build();
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
pub struct CsrBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    symmetrize: bool,
    keep_self_loops: bool,
}

impl CsrBuilder {
    /// A builder for a graph on `n` vertices with no edges yet.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
        Self {
            num_vertices: n,
            edges: Vec::new(),
            symmetrize: false,
            keep_self_loops: false,
        }
    }

    /// Pre-allocates capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Raises the vertex count to at least `n` (never shrinks). Streaming
    /// readers that discover the id space as edges arrive (plain edge
    /// lists have no size header) grow the builder instead of buffering
    /// the whole input to find the maximum id first.
    pub fn grow_to(&mut self, n: usize) -> &mut Self {
        assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
        self.num_vertices = self.num_vertices.max(n);
        self
    }

    /// The current vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds the directed edge `(u, v)`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        debug_assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range"
        );
        self.edges.push((u, v));
        self
    }

    /// Adds many edges at once.
    pub fn add_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, it: I) -> &mut Self {
        self.edges.extend(it);
        self
    }

    /// Number of raw edges added so far (before dedup/symmetrization).
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Store each added edge in both directions, producing a structurally
    /// symmetric graph (the representation the coloring kernels assume).
    pub fn symmetrize(&mut self) -> &mut Self {
        self.symmetrize = true;
        self
    }

    /// Retain self loops instead of dropping them. Coloring is undefined on
    /// self loops (a vertex can never differ in color from itself), so the
    /// default is to drop them — this switch exists for IO round-trip tests.
    pub fn keep_self_loops(&mut self) -> &mut Self {
        self.keep_self_loops = true;
        self
    }

    /// Consumes the builder and produces the CSR graph.
    pub fn build(&mut self) -> Csr {
        let n = self.num_vertices;
        let mut counts = vec![0u32; n + 1];
        let count_edge = |counts: &mut [u32], u: VertexId, v: VertexId| {
            if u != v || self.keep_self_loops {
                counts[u as usize + 1] += 1;
            }
        };
        for &(u, v) in &self.edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            count_edge(&mut counts, u, v);
            if self.symmetrize {
                count_edge(&mut counts, v, u);
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut row_offsets = counts.clone();
        let mut cols = vec![0 as VertexId; row_offsets[n] as usize];
        let mut cursor = counts;
        let place = |cursor: &mut [u32], cols: &mut [VertexId], u: VertexId, v: VertexId| {
            if u != v || self.keep_self_loops {
                cols[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
            }
        };
        for i in 0..self.edges.len() {
            let (u, v) = self.edges[i];
            place(&mut cursor, &mut cols, u, v);
            if self.symmetrize {
                place(&mut cursor, &mut cols, v, u);
            }
        }

        // Sort + dedup each row in place, compacting the rows toward the
        // front of `cols`. `row_offsets[v]` already holds row v's new start
        // when the row is reached; `row_offsets[v + 1]` is read as its old
        // end before being overwritten with its new one.
        let mut lo = 0usize;
        let mut len = 0usize;
        for v in 0..n {
            let start = len;
            let hi = row_offsets[v + 1] as usize;
            cols[lo..hi].sort_unstable();
            for i in lo..hi {
                let x = cols[i];
                if len == start || cols[len - 1] != x {
                    cols[len] = x;
                    len += 1;
                }
            }
            row_offsets[v + 1] = len as u32;
            lo = hi;
        }
        // Graphs outlive the build (the service memo keeps them), so drop
        // the capacity the duplicates occupied.
        cols.truncate(len);
        cols.shrink_to_fit();
        Csr::new(row_offsets, cols)
    }
}

/// Convenience: builds a symmetric, deduplicated graph directly from an
/// undirected edge list.
pub fn from_undirected_edges(
    n: usize,
    edges: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> Csr {
    let mut b = CsrBuilder::new(n);
    b.add_edges(edges);
    b.symmetrize().build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_fig2_from_undirected_edges() {
        // Fig. 2's graph as an undirected edge list.
        let g = from_undirected_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]);
        assert_eq!(g.row_offsets(), &[0, 2, 6, 9, 11, 14]);
        assert_eq!(g.col_indices(), &[1, 2, 0, 2, 3, 4, 0, 1, 4, 1, 4, 1, 2, 3]);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let g = from_undirected_edges(3, [(0, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_no_self_loops());
    }

    #[test]
    fn keeps_self_loops_when_asked() {
        let mut b = CsrBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.keep_self_loops().build();
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn dedups_parallel_edges() {
        let g = from_undirected_edges(2, [(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn directed_build_without_symmetrize() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = from_undirected_edges(10, [(0, 9)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 0);
        assert_eq!(g.neighbors(9), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        let mut b = CsrBuilder::new(2);
        b.add_edge(0, 1);
        // Bypass the debug_assert path by constructing in release semantics:
        // build() re-validates and must panic.
        b.edges.push((0, 7));
        b.build();
    }

    #[test]
    fn adjacency_lists_sorted_unique_after_build() {
        let g = from_undirected_edges(6, [(5, 0), (5, 3), (5, 1), (5, 3), (0, 5), (2, 4)]);
        assert!(g.has_sorted_unique_neighbors());
        assert_eq!(g.neighbors(5), &[0, 1, 3]);
    }
}
