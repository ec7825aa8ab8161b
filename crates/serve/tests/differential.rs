//! Serving must never change results: for every GPU scheme and every
//! backend, a coloring served through the queue/cache/coalescing
//! machinery is bit-identical to calling `Scheme::try_color` directly
//! with the same graph and options — including when the answer comes
//! from the result cache or a coalesced twin.

use gcol_core::{BackendKind, ColorOptions, JobSpec, Scheme};
use gcol_graph::gen::{self, RmatParams};
use gcol_graph::Csr;
use gcol_serve::{JobRequest, ResultSource, Service, ServiceConfig};
use gcol_simt::Device;
use std::sync::Arc;

fn graphs() -> Vec<(&'static str, Arc<Csr>)> {
    vec![
        (
            "rmat-s8",
            Arc::new(gen::rmat(RmatParams::erdos_renyi(8, 8), 0xD1FF)),
        ),
        ("cycle-65", Arc::new(gen::cycle(65))),
    ]
}

fn spec_with(scheme: Scheme, opts: ColorOptions) -> JobSpec {
    let mut spec = JobSpec::new(scheme);
    spec.opts = opts;
    spec
}

/// Served (cold, then cache hit) vs direct, asserting bit-identical
/// color vectors — and, when the backend is deterministic end to end
/// (`check_profile`), identical modeled profiles too. The native
/// backend's profile records measured wall time, so only its colors
/// are comparable across runs.
fn assert_served_matches_direct(opts_for: &dyn Fn(Scheme) -> ColorOptions, check_profile: bool) {
    let device = Device::k20c();
    let svc = Service::start(ServiceConfig {
        num_workers: 2,
        ..ServiceConfig::default()
    });
    for (gname, g) in graphs() {
        for scheme in Scheme::GPU {
            let opts = opts_for(scheme);
            let direct = scheme
                .try_color(&g, &device, &opts)
                .unwrap_or_else(|e| panic!("{} direct on {gname}: {e}", scheme.name()));
            let submit = || {
                svc.submit(JobRequest::new(
                    Arc::clone(&g),
                    spec_with(scheme, opts.clone()),
                ))
                .expect("accepted")
            };
            let cold = submit()
                .wait()
                .unwrap_or_else(|e| panic!("{} served on {gname}: {e}", scheme.name()));
            assert_eq!(
                cold.coloring.colors,
                direct.colors,
                "{} on {gname}: served coloring differs from direct",
                scheme.name()
            );
            assert_eq!(cold.coloring.num_colors, direct.num_colors);
            assert_eq!(cold.coloring.iterations, direct.iterations);
            if check_profile {
                assert_eq!(
                    cold.coloring.profile,
                    direct.profile,
                    "{} on {gname}: modeled profile differs",
                    scheme.name()
                );
            }
            // The repeat must come from the cache and stay identical.
            let warm = submit().wait().unwrap();
            assert_eq!(warm.source, ResultSource::CacheHit, "{}", scheme.name());
            assert_eq!(warm.coloring.colors, direct.colors);
            if check_profile {
                assert_eq!(warm.coloring.profile, direct.profile);
            }
        }
    }
    let stats = svc.shutdown();
    assert_eq!(stats.completed_err, 0);
    assert_eq!(stats.cache_hits, stats.executions, "one hit per cold run");
}

#[test]
fn served_equals_direct_simt_deterministic() {
    assert_served_matches_direct(
        &|_| ColorOptions::default().with_backend(BackendKind::Simt),
        true,
    );
}

#[test]
fn served_equals_direct_native_backend() {
    assert_served_matches_direct(
        &|_| ColorOptions::default().with_backend(BackendKind::Native),
        false,
    );
}

#[test]
fn served_equals_direct_sharded_backend() {
    assert_served_matches_direct(
        &|_| {
            ColorOptions::default()
                .with_backend(BackendKind::Simt)
                .with_shards(2)
        },
        true,
    );
}

#[test]
fn coalesced_twin_is_bit_identical_to_direct() {
    // Manual mode pins the interleaving: both submissions sit queued as
    // one execution, so the second is guaranteed Coalesced, not CacheHit.
    let device = Device::k20c();
    let svc = Service::start(ServiceConfig {
        num_workers: 0,
        ..ServiceConfig::default()
    });
    let g = Arc::new(gen::rmat(RmatParams::erdos_renyi(8, 8), 7));
    let opts = ColorOptions::default().with_backend(BackendKind::Simt);
    let direct = Scheme::DataBase.try_color(&g, &device, &opts).unwrap();
    let spec = spec_with(Scheme::DataBase, opts);
    let a = svc
        .submit(JobRequest::new(Arc::clone(&g), spec.clone()))
        .unwrap();
    let b = svc.submit(JobRequest::new(Arc::clone(&g), spec)).unwrap();
    svc.drain();
    let (ra, rb) = (a.wait().unwrap(), b.wait().unwrap());
    assert_eq!(ra.source, ResultSource::Cold);
    assert_eq!(rb.source, ResultSource::Coalesced);
    assert_eq!(ra.coloring.colors, direct.colors);
    assert_eq!(rb.coloring.colors, direct.colors);
    assert_eq!(rb.coloring.profile, direct.profile);
    assert_eq!(svc.shutdown().executions, 1);
}
