//! Scheme-level entry point for the launch sanitizer.
//!
//! [`color_sanitized`] runs any [`Scheme`] with every kernel launch under
//! [`gcol_simt::SanitizeBackend`] shadow-memory analysis — single-device
//! or sharded (`ColorOptions::num_shards` ≥ 2, including the ghost
//! exchange rounds) — and returns the coloring *together with* the merged
//! [`SanitizerReport`]. `Scheme::try_color` with
//! [`BackendKind::Sanitize`](gcol_simt::BackendKind) routes here but
//! drops the report; call this directly to inspect findings.
//!
//! Execution and timing under the sanitizer are those of the plain simt
//! backend (the wrapper forwards every in-bounds access unchanged), so a
//! sanitized run's colors and modeled times match an unsanitized one
//! bit for bit on clean kernels.

use super::color_sharded;
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::Csr;
use gcol_simt::{Device, SanitizeBackend, SanitizerReport, ShardedBackend, SimtBackend};

/// Runs `scheme` on `g` with every launch under shadow-memory analysis;
/// returns the coloring and the merged report (across all shard devices
/// when `opts.num_shards` ≥ 2). CPU schemes launch no kernels and come
/// back with an empty report.
pub fn color_sanitized(
    scheme: Scheme,
    g: &Csr,
    dev: &Device,
    opts: &ColorOptions,
) -> Result<(Coloring, SanitizerReport), ColorError> {
    if opts.num_shards > 1 && scheme.is_gpu() {
        let fleet = ShardedBackend::uniform(opts.num_shards, |_| {
            let b = SanitizeBackend::new(SimtBackend::new(dev));
            b.set_context(scheme.name());
            b
        });
        let coloring = color_sharded(scheme, g, &fleet, opts)?;
        let mut report = SanitizerReport::default();
        for p in 0..fleet.num_devices() {
            report.merge(fleet.device(p).take_report());
        }
        return Ok((coloring, report));
    }
    let backend = SanitizeBackend::new(SimtBackend::new(dev));
    backend.set_context(scheme.name());
    let coloring = scheme.try_color_on(&backend, g, opts)?;
    Ok((coloring, backend.take_report()))
}
