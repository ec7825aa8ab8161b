//! # gcol-simt — a deterministic SIMT GPU simulator
//!
//! The substrate that replaces the paper's NVIDIA K20c: CUDA-style kernels
//! written in safe Rust execute *functionally* against a shared atomic
//! memory arena (so the speculative races of the GM coloring scheme are
//! real), while every memory operation is traced and replayed through an
//! analytic timing model — warp coalescing, per-SM read-only cache and a
//! chip-wide L2, DRAM bandwidth, atomic serialization, occupancy-based
//! latency hiding in the spirit of Hong & Kim's MWP/CWP model (ISCA'09).
//!
//! ## Layers
//!
//! * [`mem`] — device memory arena and typed [`Buffer`]s.
//! * [`kernel`] — [`Kernel`] / [`CoopKernel`] traits, the backend-agnostic
//!   [`KernelCtx`] surface and its tracing impl [`ThreadCtx`]
//!   (`ld`/`ldg`/`st`/atomics/local memory, Fig. 4 of the paper).
//! * [`exec`] — [`launch`] / [`launch_coop`]: round-robin block→SM
//!   scheduling in block-id order, bit-stable functional results and
//!   timing; the timing replay runs on a second host thread.
//! * [`native`] — [`NativeBackend`]'s executor: the same kernels over
//!   rayon at host speed, no tracing.
//! * [`backend`] — the [`Backend`] abstraction selecting between the two.
//! * [`sanitize`] — [`SanitizeBackend`], a cuda-memcheck-style decorator
//!   for either backend: shadow-memory race, `ldg`-coherence, bounds and
//!   initialization analysis per launch, reported as a
//!   [`SanitizerReport`].
//! * [`timing`] — caches, occupancy, the cycle model, [`KernelStats`]
//!   (with the stall breakdown and achieved-of-peak metrics of Fig. 3).
//! * [`xfer`] / [`cpu`] — PCIe and host-CPU cost models (the 3-step GM
//!   baseline and the sequential reference live in the same model).
//! * [`profile`] — per-run timelines combining kernels, transfers and
//!   host phases.
//!
//! ## Example: SAXPY on the simulated K20c
//!
//! ```
//! use gcol_simt::{Device, GpuMem, Kernel, KernelCtx, launch, grid_for};
//! use gcol_simt::mem::Buffer;
//!
//! struct Saxpy { a: f32, x: Buffer<f32>, y: Buffer<f32> }
//! impl Kernel for Saxpy {
//!     fn name(&self) -> &'static str { "saxpy" }
//!     fn run(&self, t: &mut impl KernelCtx) {
//!         let i = t.global_id() as usize;
//!         if i < self.x.len() {
//!             let v = t.ldg(self.x, i);
//!             let w = t.ld(self.y, i);
//!             t.alu(2);
//!             t.st(self.y, i, self.a * v + w);
//!         }
//!     }
//! }
//!
//! let dev = Device::k20c();
//! let mut mem = GpuMem::new();
//! let x = mem.alloc_from_slice(&[1.0f32, 2.0, 3.0]);
//! let y = mem.alloc_from_slice(&[10.0f32, 20.0, 30.0]);
//! let stats = launch(&mem, &dev, grid_for(3, 128), 128, &Saxpy { a: 2.0, x, y });
//! assert_eq!(mem.read_vec(y), vec![12.0, 24.0, 36.0]);
//! assert!(stats.time_ms > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod config;
pub mod cpu;
pub mod exec;
pub mod kernel;
pub mod mem;
pub mod native;
mod pipeline;
pub mod profile;
pub mod sanitize;
pub mod timing;
pub mod trace;
pub mod xfer;

pub use backend::{Backend, BackendKind, CopyStream, NativeBackend, ShardedBackend, SimtBackend};
pub use config::Device;
pub use cpu::CpuModel;
pub use exec::{grid_for, launch, launch_coop, MAX_BLOCK_THREADS};
pub use kernel::{CoopKernel, Kernel, KernelCtx, ThreadCtx};
pub use mem::{Buffer, GpuMem, Word};
pub use native::{launch_coop_native, launch_native, NativeCtx};
pub use profile::{Phase, RunProfile};
pub use sanitize::{Finding, FindingKind, SanitizeBackend, SanitizeCtx, SanitizerReport};
pub use timing::occupancy::{occupancy, Limiter, Occupancy};
pub use timing::{KernelStats, StallBreakdown};
