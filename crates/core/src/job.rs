//! Coloring jobs as first-class values, plus the content fingerprint a
//! result cache keys on.
//!
//! A coloring run is a pure function of the CSR bytes and the knobs that
//! can change its output: the scheme, the execution backend, the shard
//! count, the hash seed, the block size, the ghost-exchange wire format
//! and the scheme-specific tuning options.
//! [`JobSpec`] packages those knobs, and
//! [`JobSpec::fingerprint`] folds them together with
//! [`Csr::content_fingerprint`] into a 128-bit [`Fingerprint`]: equal
//! fingerprints mean the runs are interchangeable, so a service may
//! coalesce duplicate in-flight requests onto one execution and serve
//! repeats from a cache without changing any observable result.
//!
//! Deliberately *excluded* from the fingerprint: `max_iterations` (a
//! safety valve — a run that converged under a lower cap returns the
//! same coloring under a higher one; runs that *fail* are not cached),
//! `charge_h2d` and everything else that only shifts the modeled
//! timeline without touching the colors. Two jobs that fingerprint equal
//! may therefore report different modeled times only through options the
//! cache does not key on; callers that need per-option timelines should
//! bypass the cache.
//!
//! One modeled-timing knob *is* keyed: [`crate::ColorOptions::exchange`].
//! The sharded colors are identical under both wire formats, but the
//! cached [`crate::Coloring`] carries the run's exchange-traffic profile
//! and the serving layer reports that modeled time to clients who chose
//! the format explicitly — serving a dense run's timeline for a delta
//! request would misreport the very number the knob exists to compare.

use crate::{ColorOptions, Scheme};
use gcol_graph::ordering::Ordering;
use gcol_graph::Csr;

/// A 128-bit job fingerprint: the cache/coalescing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Everything about a coloring request except the graph itself.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The scheme to run.
    pub scheme: Scheme,
    /// Its options (backend, shards, seed, block size, …).
    pub opts: ColorOptions,
}

impl JobSpec {
    /// A job running `scheme` with default options.
    pub fn new(scheme: Scheme) -> Self {
        Self {
            scheme,
            opts: ColorOptions::default(),
        }
    }

    /// The cache key for this spec applied to `g`. See the module docs
    /// for exactly what is (and is not) folded in.
    pub fn fingerprint(&self, g: &Csr) -> Fingerprint {
        self.fingerprint_of(g.content_fingerprint())
    }

    /// [`JobSpec::fingerprint`] from a precomputed graph fingerprint —
    /// lets a server hash a large graph once and fingerprint many specs
    /// against it.
    pub fn fingerprint_of(&self, graph_fp: u64) -> Fingerprint {
        #[inline]
        fn mix(h: u64, w: u64) -> u64 {
            // splitmix64 finalizer over the running state — the same
            // avalanche core the graph fingerprint uses.
            let mut z = h ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        #[inline]
        fn fold_str(mut h: u64, s: &str) -> u64 {
            h = mix(h, s.len() as u64);
            for b in s.as_bytes() {
                h = mix(h, *b as u64);
            }
            h
        }
        let o = &self.opts;
        let mut h = mix(0x6A6F_622D_6670_2D31, graph_fp); // "job-fp-1"
        h = fold_str(h, self.scheme.name());
        h = fold_str(h, o.backend.name());
        h = mix(h, o.num_shards as u64);
        h = mix(h, o.seed);
        h = mix(h, o.block_size as u64);
        h = mix(h, o.num_hashes as u64);
        h = mix(
            h,
            match o.exchange {
                crate::ExchangeKind::Dense => 1,
                crate::ExchangeKind::Delta => 2,
            },
        );
        h = mix(
            h,
            match o.ordering {
                Ordering::Natural => 1,
                Ordering::LargestDegreeFirst => 2,
                Ordering::SmallestDegreeLast => 3,
                Ordering::Random(s) => mix(4, s),
            },
        );
        h = mix(h, o.threestep_rounds as u64);
        // Second lane: re-fold the tail over a different initial state so
        // the two halves are (effectively) independent 64-bit hashes.
        let lo = mix(h, 0x6C6F);
        let hi = mix(mix(0x6869, graph_fp), h);
        Fingerprint((hi as u128) << 64 | lo as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_core_test_graph::fig2;

    // A tiny local helper namespace so the tests read clearly.
    mod gcol_core_test_graph {
        use gcol_graph::Csr;
        pub fn fig2() -> Csr {
            Csr::new(
                vec![0, 2, 6, 9, 11, 14],
                vec![1, 2, 0, 2, 3, 4, 0, 1, 4, 1, 4, 1, 2, 3],
            )
        }
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let g = fig2();
        let spec = JobSpec::new(Scheme::TopoBase);
        assert_eq!(spec.fingerprint(&g), spec.fingerprint(&g));
        assert_eq!(
            spec.fingerprint(&g),
            spec.fingerprint_of(g.content_fingerprint())
        );
    }

    #[test]
    fn fingerprint_separates_every_keyed_option() {
        let g = fig2();
        let base = JobSpec::new(Scheme::TopoBase);
        let fp = base.fingerprint(&g);
        let variants = [
            JobSpec {
                scheme: Scheme::DataBase,
                opts: base.opts.clone(),
            },
            JobSpec {
                scheme: Scheme::TopoBase,
                opts: base.opts.clone().with_seed(1),
            },
            JobSpec {
                scheme: Scheme::TopoBase,
                opts: base.opts.clone().with_shards(2),
            },
            JobSpec {
                scheme: Scheme::TopoBase,
                opts: base.opts.clone().with_backend(crate::BackendKind::Native),
            },
            JobSpec {
                scheme: Scheme::TopoBase,
                opts: base.opts.clone().with_block_size(256),
            },
            JobSpec {
                scheme: Scheme::TopoBase,
                opts: base.opts.clone().with_num_hashes(4),
            },
            JobSpec {
                scheme: Scheme::TopoBase,
                opts: base.opts.clone().with_exchange(crate::ExchangeKind::Dense),
            },
        ];
        for v in &variants {
            assert_ne!(fp, v.fingerprint(&g), "not separated: {v:?}");
        }
        // And a different graph separates too.
        let g2 = Csr::new(vec![0, 1, 2], vec![1, 0]);
        assert_ne!(fp, base.fingerprint(&g2));
    }

    #[test]
    fn fingerprint_ignores_unkeyed_options() {
        let g = fig2();
        let a = JobSpec::new(Scheme::TopoBase);
        let mut b = JobSpec::new(Scheme::TopoBase);
        b.opts.max_iterations = 7;
        b.opts.charge_h2d = true;
        assert_eq!(a.fingerprint(&g), b.fingerprint(&g));
    }

    #[test]
    fn display_is_32_hex_digits() {
        let g = fig2();
        let s = JobSpec::new(Scheme::CsrColor).fingerprint(&g).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
