//! The named-graph resolver the benchmark hands to the server.
//!
//! It maps names exactly as the `gcol-bench serve` embedding does: the
//! plain R-MAT generators take the request's seed, the Table I stand-ins
//! keep their pinned seeds. It remembers only the names it built, not
//! the graphs: the server's memo alone keeps a graph alive, so
//! `peak_rss_mb` shows what the server retains. After the timed window
//! the checker rebuilds each graph from its name ([`build`] is
//! deterministic) and verifies against that.

use gcol_graph::gen::{self, RmatParams};
use gcol_graph::Csr;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A named graph: generator name, scale, seed.
pub type GraphKey = (String, u32, u64);

/// Builds named graphs on the server's behalf and remembers their names.
#[derive(Default)]
pub struct Resolver {
    built: Mutex<HashSet<GraphKey>>,
    calls: AtomicU64,
}

impl Resolver {
    /// Builds the graph a request names (the server's resolver hook).
    pub fn resolve(&self, name: &str, scale: u32, seed: u64) -> Result<Arc<Csr>, String> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let g = Arc::new(build(name, scale, seed)?);
        self.built
            .lock()
            .expect("resolver map poisoned")
            .insert((name.to_string(), scale, seed));
        Ok(g)
    }

    /// Whether the graph named `key` was built since the last [`clear`](Self::clear).
    pub fn built(&self, key: &GraphKey) -> bool {
        self.built
            .lock()
            .expect("resolver map poisoned")
            .contains(key)
    }

    /// Number of graphs built so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Forgets every name built so far (between independent sessions).
    pub fn clear(&self) {
        self.built.lock().expect("resolver map poisoned").clear();
    }
}

/// The generator call behind a graph name.
pub fn build(name: &str, scale: u32, seed: u64) -> Result<Csr, String> {
    if !(8..=22).contains(&scale) {
        return Err(format!("scale {scale} out of the supported 8..=22 range"));
    }
    match name {
        "rmat" | "rmat-er" => Ok(gen::rmat(RmatParams::erdos_renyi(scale, 20), seed)),
        "rmat-g" => Ok(gen::rmat(RmatParams::skewed(scale, 20), seed)),
        "thermal2" | "atmosmodd" | "Hamrle3" | "G3_circuit" => {
            Ok(gcol_bench::suite::build_graph(name, scale))
        }
        other => Err(format!("unknown graph {other:?}")),
    }
}
