//! Replay batches: the flat arena between the two halves of warp replay.
//!
//! [`gather_warp`] (pure: trace → accesses) and
//! [`SmState::charge_access`] (stateful: caches and counters) can run on
//! different threads. A [`ReplayBatch`] carries the gathered accesses
//! from one to the other as two flat vectors — fixed-size steps and the
//! accesses' `u32` word addresses — sized once to a fixed budget and
//! reused, so the steady state allocates nothing and the bytes in flight
//! do not depend on how large any one warp is: a warp that does not fit
//! is split across batches, and [`ReplayCursor`] carries it over.
//!
//! Replaying a launch's batches in the order they were filled performs
//! exactly the charges [`SmState::account_warp`] would have, in the same
//! order, so every counter and every cache probe is bit-identical.

use super::cache::Cache;
use super::{gather_warp, SmState, WarpHead};
use crate::config::Device;
use crate::trace::{OpKind, WarpTrace, MAX_WARP_LANES};

/// Steps per batch.
const BATCH_STEPS: usize = 1024;
/// Address words per batch.
const BATCH_WORDS: usize = 8 * 1024;

/// One replay step. Accesses take their addresses, in order, from the
/// batch's word vector.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A warp starts on SM `sm`.
    Warp { sm: u32, head: WarpHead },
    /// One warp-level access over the next `n` words.
    Access { kind: OpKind, sorted: bool, n: u8 },
    /// The current warp is complete.
    WarpEnd,
    /// A coop block's scan on SM `sm` ([`SmState::charge_block_scan`]).
    BlockScan { sm: u32, threads: u32 },
    /// One block-base atomic per block of a `grid`-block coop launch,
    /// blocks round-robin over the SMs.
    BaseAtomics { grid: u32 },
}

/// A fixed-budget arena of replay steps.
#[derive(Debug)]
pub(crate) struct ReplayBatch {
    steps: Vec<Step>,
    words: Vec<u32>,
}

/// Replay position carried from one batch to the next of the same launch:
/// the SM of the warp in progress and its latency so far.
#[derive(Debug, Default)]
pub(crate) struct ReplayCursor {
    sm: usize,
    warp_lat: u64,
}

impl ReplayBatch {
    /// An empty batch with the production budget.
    pub(crate) fn new() -> Self {
        Self::with_budget(BATCH_STEPS, BATCH_WORDS)
    }

    /// An empty batch holding at most `steps` steps and `words` words
    /// (`words` is at least one full warp access).
    pub(crate) fn with_budget(steps: usize, words: usize) -> Self {
        assert!(
            steps >= 1 && words >= MAX_WARP_LANES,
            "replay budget too small"
        );
        Self {
            steps: Vec::with_capacity(steps),
            words: Vec::with_capacity(words),
        }
    }

    /// Whether the batch holds no step.
    pub(crate) fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Empties the batch, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.steps.clear();
        self.words.clear();
    }

    /// Appends one step, first handing the batch to `flush` if the step
    /// (with up to one warp of words) might not fit. `flush` must leave
    /// the batch empty.
    #[inline]
    fn push(&mut self, step: Step, words: &[u32], flush: &mut impl FnMut(&mut Self)) {
        if self.steps.len() == self.steps.capacity()
            || self.words.len() + MAX_WARP_LANES > self.words.capacity()
        {
            flush(self);
            debug_assert!(self.is_empty(), "flush must empty the batch");
        }
        self.steps.push(step);
        self.words.extend_from_slice(words);
    }

    /// Gathers one warp of `warp`'s trace, run on SM `sm`, into the batch.
    pub(crate) fn push_warp(
        &mut self,
        dev: &Device,
        sm: u32,
        warp: &WarpTrace,
        flush: &mut impl FnMut(&mut Self),
    ) {
        let head = WarpHead::of(warp);
        self.push(Step::Warp { sm, head }, &[], flush);
        gather_warp(dev, warp, |kind, sorted, words| {
            let n = words.len() as u8;
            self.push(Step::Access { kind, sorted, n }, words, flush);
        });
        self.push(Step::WarpEnd, &[], flush);
    }

    /// Appends a coop block's scan charge on SM `sm`.
    pub(crate) fn push_block_scan(
        &mut self,
        sm: u32,
        threads: u32,
        flush: &mut impl FnMut(&mut Self),
    ) {
        self.push(Step::BlockScan { sm, threads }, &[], flush);
    }

    /// Appends the block-base atomics of a `grid`-block coop launch.
    pub(crate) fn push_base_atomics(&mut self, grid: u32, flush: &mut impl FnMut(&mut Self)) {
        self.push(Step::BaseAtomics { grid }, &[], flush);
    }

    /// Charges every step to `sms` (indexed by SM id) and the chip-wide
    /// `l2`, continuing the warp that `cur` left open.
    pub(crate) fn replay(
        &self,
        dev: &Device,
        sms: &mut [SmState],
        l2: &mut Cache,
        cur: &mut ReplayCursor,
    ) {
        let mut words = &self.words[..];
        for step in &self.steps {
            match *step {
                Step::Warp { sm, head } => {
                    cur.sm = sm as usize;
                    cur.warp_lat = 0;
                    sms[cur.sm].begin_warp(head);
                }
                Step::Access { kind, sorted, n } => {
                    let (these, rest) = words.split_at(n as usize);
                    words = rest;
                    cur.warp_lat += sms[cur.sm].charge_access(dev, l2, kind, sorted, these);
                }
                Step::WarpEnd => sms[cur.sm].end_warp(cur.warp_lat),
                Step::BlockScan { sm, threads } => {
                    sms[sm as usize].charge_block_scan(dev, threads);
                }
                Step::BaseAtomics { grid } => {
                    let n_sms = sms.len() as u32;
                    for bid in 0..grid {
                        sms[(bid % n_sms) as usize].charge_block_base_atomic(dev);
                    }
                }
            }
        }
        debug_assert!(words.is_empty(), "every word belongs to one access");
    }

    /// Bytes this batch reserves.
    #[cfg(test)]
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.steps.capacity() * std::mem::size_of::<Step>()
            + self.words.capacity() * std::mem::size_of::<u32>()
    }
}
