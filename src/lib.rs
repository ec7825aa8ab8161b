//! # gcol — high-performance parallel graph coloring
//!
//! Umbrella crate for the reproduction of *"High Performance Parallel Graph
//! Coloring on GPGPUs"* (Li et al., IPDPS Workshops 2016). It re-exports the
//! workspace crates:
//!
//! * [`graph`] — CSR graphs, generators, IO, statistics ([`gcol_graph`]).
//! * [`scan`] — prefix-sum / compaction primitives ([`gcol_scan`]).
//! * [`simt`] — the SIMT GPU simulator substrate ([`gcol_simt`]).
//! * [`coloring`] — the coloring algorithms themselves ([`gcol_core`]).
//! * [`mod@bench`] — the paper's experiment harness ([`gcol_bench`]).
//!
//! ## Quickstart
//!
//! ```
//! use gcol::prelude::*;
//!
//! // Build a small graph, color it with the data-driven GPU scheme, verify.
//! let g = gcol::graph::gen::rmat(RmatParams::erdos_renyi(10, 8), 1);
//! let device = Device::k20c();
//! let result = Scheme::DataLdg.color(&g, &device, &ColorOptions::default());
//! assert!(verify_coloring(&g, &result.colors).is_ok());
//! println!("{} colors in {} iterations", result.num_colors, result.iterations);
//! ```

pub use gcol_bench as bench;
pub use gcol_core as coloring;
pub use gcol_graph as graph;
pub use gcol_scan as scan;
pub use gcol_simt as simt;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use gcol_core::{
        verify_coloring, ColorError, ColorOptions, Coloring, ColoringViolation, Scheme,
    };
    pub use gcol_graph::{gen::RmatParams, Csr, CsrBuilder, DegreeStats, VertexId};
    pub use gcol_simt::{Backend, BackendKind, Device, NativeBackend, SimtBackend};
}
