//! Incremental recoloring: repair a coloring after graph edits instead
//! of recoloring from scratch.
//!
//! Serving workloads mutate graphs (edge inserts/deletes) and a full
//! scheme rerun per edit batch throws away almost all prior work — Rokos
//! et al. showed repair-driven recoloring winning on multicore for
//! exactly this reason. [`recolor_delta`] takes the *post-edit* graph, a
//! coloring that was proper before the edits, and the **dirty set** (the
//! vertices [`Csr::apply_edits`] reported touched, or any superset of
//! the vertices whose colors can no longer be trusted), and runs the
//! extracted repair engine ([`super::repair`]): one scoped detect +
//! recolor sweep over the dirty worklist, then the stamp-scoped fixpoint
//! for concurrent-recolor collisions.
//!
//! **Contract.** Every vertex outside the dirty set keeps its color
//! bit-for-bit (clean colors are contractual — the engine's detect blames
//! the dirty endpoint of every conflict), and the result is proper
//! whenever the input coloring was proper on the subgraph induced by the
//! clean vertices — which edits guarantee: an inserted edge has both
//! endpoints dirty, a deleted edge cannot create a conflict, and
//! untouched edges were proper before. Repaired colors stay within the
//! greedy `max_degree + 1` bound, but the repair is *local*: against a
//! from-scratch rerun the color count may differ a little either way,
//! while the work is proportional to the dirty neighborhood instead of
//! the whole graph (the `incremental` bench experiment quantifies both).
//!
//! Cache semantics: a delta-repaired coloring is generally **not**
//! bit-identical to `Scheme::try_color` on the edited graph, so the
//! serving layer must never let repaired results into the
//! fingerprint-keyed result cache (see `gcol-serve`'s session state).

use super::repair::RepairEngine;
use super::SpecGreedyDriver;
use crate::{BackendKind, ColorError, ColorOptions, Coloring};
use gcol_graph::edit::EdgeEdit;
use gcol_graph::{Csr, VertexId};
use gcol_simt::{
    Backend, Device, NativeBackend, RunProfile, SanitizeBackend, SanitizerReport, SimtBackend,
};

/// Repairs `base` on the (already edited) graph `g`, recoloring only
/// vertices in `dirty`; every clean vertex keeps its color bit-for-bit.
/// `base.scheme` is carried through to the result (the repair itself is
/// scheme-agnostic), `iterations` counts the repair passes, and the
/// profile covers the repair work only. Runs on the backend
/// [`ColorOptions::backend`] selects — single-device always
/// (`num_shards` is ignored); under [`BackendKind::Sanitize`] harmful
/// findings go to stderr, or call [`recolor_delta_sanitized`] for the
/// report.
///
/// An empty (or fully redundant) dirty set returns the base coloring
/// unchanged with an empty profile. Errors: [`ColorError::InvalidOptions`]
/// when `base` does not cover `g` or a dirty id is out of range;
/// [`ColorError::MaxIterations`] if the repair fixpoint exceeds the
/// budget.
pub fn recolor_delta(
    g: &Csr,
    base: &Coloring,
    dirty: &[VertexId],
    dev: &Device,
    opts: &ColorOptions,
) -> Result<Coloring, ColorError> {
    let dirty = checked_dirty(g, base, dirty)?;
    if dirty.is_empty() {
        return Ok(unchanged(base));
    }
    match opts.backend {
        BackendKind::Simt => repair_on(&SimtBackend::new(dev), g, base, &dirty, opts),
        BackendKind::Native => repair_on(&NativeBackend::new(), g, base, &dirty, opts),
        BackendKind::Sanitize => {
            let backend = SanitizeBackend::new(SimtBackend::new(dev));
            backend.set_context(base.scheme.name());
            let coloring = repair_on(&backend, g, base, &dirty, opts)?;
            let report = backend.take_report();
            if !report.is_clean() {
                eprintln!(
                    "sanitizer: {} delta repair has harmful findings:\n{report}",
                    base.scheme
                );
            }
            Ok(coloring)
        }
    }
}

/// [`recolor_delta`] with every launch under shadow-memory analysis,
/// returning the merged [`SanitizerReport`] alongside the coloring
/// (empty for an empty dirty set — nothing launches).
pub fn recolor_delta_sanitized(
    g: &Csr,
    base: &Coloring,
    dirty: &[VertexId],
    dev: &Device,
    opts: &ColorOptions,
) -> Result<(Coloring, SanitizerReport), ColorError> {
    let dirty = checked_dirty(g, base, dirty)?;
    if dirty.is_empty() {
        return Ok((unchanged(base), SanitizerReport::default()));
    }
    let backend = SanitizeBackend::new(SimtBackend::new(dev));
    backend.set_context(base.scheme.name());
    let coloring = repair_on(&backend, g, base, &dirty, opts)?;
    Ok((coloring, backend.take_report()))
}

/// Applies `edits` to a copy of `g` and repairs `base` over the touched
/// vertices in one call — the edit-batch convenience wrapper. Returns
/// the edited graph with its repaired coloring; rejected edit batches
/// surface as [`ColorError::InvalidOptions`].
pub fn recolor_after_edits(
    g: &Csr,
    base: &Coloring,
    edits: &[EdgeEdit],
    dev: &Device,
    opts: &ColorOptions,
) -> Result<(Csr, Coloring), ColorError> {
    let (edited, touched) = g
        .with_edits(edits)
        .map_err(|e| ColorError::InvalidOptions {
            scheme: base.scheme,
            reason: format!("edit batch rejected: {e}"),
        })?;
    let repaired = recolor_delta(&edited, base, &touched, dev, opts)?;
    Ok((edited, repaired))
}

/// Validates the inputs and returns the dirty set sorted and deduped.
fn checked_dirty(
    g: &Csr,
    base: &Coloring,
    dirty: &[VertexId],
) -> Result<Vec<VertexId>, ColorError> {
    let n = g.num_vertices();
    if base.colors.len() != n {
        return Err(ColorError::InvalidOptions {
            scheme: base.scheme,
            reason: format!(
                "base coloring covers {} vertices but the graph has {n}",
                base.colors.len()
            ),
        });
    }
    if let Some(&v) = dirty.iter().find(|&&v| v as usize >= n) {
        return Err(ColorError::InvalidOptions {
            scheme: base.scheme,
            reason: format!("dirty vertex {v} out of range (n = {n})"),
        });
    }
    let mut dirty = dirty.to_vec();
    dirty.sort_unstable();
    dirty.dedup();
    Ok(dirty)
}

/// The no-work result: base colors verbatim, zero passes, empty profile.
fn unchanged(base: &Coloring) -> Coloring {
    Coloring {
        scheme: base.scheme,
        colors: base.colors.clone(),
        num_colors: base.num_colors,
        iterations: 0,
        profile: RunProfile::new(),
    }
}

/// The backend-generic repair run: upload graph + base colors + dirty
/// membership/worklist, one engine round, read back.
fn repair_on<B: Backend>(
    backend: &B,
    g: &Csr,
    base: &Coloring,
    dirty: &[VertexId],
    opts: &ColorOptions,
) -> Result<Coloring, ColorError> {
    let mut d = SpecGreedyDriver::new(backend, base.scheme, g, opts);
    let color = d.alloc_vertex_buf();
    d.label(color, "repair-color");
    let flags = d.mem.alloc::<u32>(2);
    d.label(flags, "repair-flags");
    let stamp = d.alloc_vertex_buf();
    d.label(stamp, "repair-stamp");
    let member = d.alloc_vertex_buf();
    d.label(member, "repair-member");
    // Sized to the dirty set, written in full below — uninit so the
    // sanitizer proves the kernels stay inside the staged prefix.
    let worklist = d.mem.alloc_uninit::<u32>(dirty.len());
    d.label(worklist, "repair-dirty-worklist");
    d.mem.write_slice(color, &base.colors);
    for &v in dirty {
        d.mem.store(member, v as usize, 1);
    }
    d.mem.write_slice(worklist, dirty);
    d.charge_upload("delta repair h2d", &[color, member, worklist]);
    // Jitter span 0: single-device repairs settle concurrent collisions
    // deterministically via the id tie-break, and scanning from color 1
    // keeps the repaired palette tight. The launch grid covers exactly
    // the worklist — repair cost scales with the dirty set, not n.
    let mut engine = RepairEngine::from_parts(
        color,
        stamp,
        flags,
        worklist,
        g.num_vertices() as u32,
        dirty.len(),
        0,
    );
    engine.repair_dirty_set(&mut d, member, dirty.len() as u32)?;
    let iterations = engine.passes();
    Ok(d.finish(color, iterations))
}
