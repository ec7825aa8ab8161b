//! # gcol-serve — a long-lived coloring service over the backend layer
//!
//! Everything below this crate is a one-shot library call: build a
//! graph, pick a [`gcol_core::Scheme`], get a coloring. This crate adds
//! the serving layer the ROADMAP's "heavy traffic" north star needs —
//! a process that stays up, runs many independent coloring requests
//! concurrently, and reuses work across identical ones:
//!
//! * [`Service`] — a worker pool over a **bounded admission queue** with
//!   typed rejection ([`Rejection::QueueFull`] / [`Rejection::GraphTooLarge`]
//!   / [`Rejection::ShuttingDown`]) and graceful drain on
//!   [`Service::shutdown`]: accepted jobs always resolve.
//! * **Request coalescing + result cache** — jobs are keyed by
//!   [`gcol_core::JobSpec::fingerprint`] (a 128-bit hash of the CSR
//!   bytes and every output-relevant option); duplicate in-flight
//!   requests attach to one execution, repeats hit a fingerprint-keyed
//!   LRU ([`cache::ResultCache`]). Serving never changes results:
//!   cold, coalesced and cached responses are bit-identical.
//! * **Metrics** — per-job ([`JobResponse`]: queue wait, execution
//!   wall, source) and service-level ([`ServiceStats`]: counters plus
//!   latency percentiles).
//! * [`server::serve_lines`] + [`proto`] — a line-delimited JSON
//!   protocol over any `BufRead`/`Write` (stdio or a socket; the
//!   `gcol-bench serve` command wires both), plain enough that external
//!   load generators need nothing special. It uses the workspace's one
//!   JSON codec (`serde_json`'s strict parser, the serde shim's `Value`
//!   tree and renderer); [`json`] re-exports those under the names
//!   this crate first exported them by.
//!
//! The execution substrate is untouched: workers call
//! [`gcol_core::Scheme::try_color`], so every backend (simt timing
//! simulator, native rayon, sharded multi-device, sanitizer) and every
//! scheme serve identically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod json;
pub mod proto;
pub mod server;
pub mod service;
pub mod sync;

pub use cache::ResultCache;
pub use server::serve_lines;
pub use service::{
    DrainController, JobHandle, JobRequest, JobResponse, Rejection, ResultSource, ServeError,
    Service, ServiceConfig, ServiceStats,
};
