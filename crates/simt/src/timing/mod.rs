//! The analytic timing model.
//!
//! Per warp, the i-th memory operations of the 32 lanes are replayed as one
//! warp-level access: a coalescer groups lane addresses into cache-line
//! transactions, each transaction probes the read-only cache (`ldg` only)
//! and the chip-wide L2, and the warp is charged the worst transaction's
//! latency. Per SM, totals feed a simplified Hong–Kim MWP/CWP model: the
//! SM's busy time is the maximum of its compute-issue time, its exposed
//! memory latency after overlap across resident warps, and its share of
//! DRAM bandwidth. The kernel's time is the slowest SM, floored by the
//! chip-wide bandwidth bound — which is how the model reproduces the
//! paper's "highly memory latency bound" characterization (Fig. 3).
//!
//! ## Replay hot path
//!
//! Replaying a warp is two steps. The **gather** (`gather_warp`) is pure:
//! it reads a flat [`WarpTrace`] and the [`Device`] and yields the warp's
//! accesses in replay order, each a kind plus its lanes' line-aligned
//! word addresses. One pass over a slot's lanes collects the addresses
//! and the slot's kind summary, which finishes the (overwhelmingly
//! common) kind-uniform slot; only genuinely divergent slots fall back to
//! the serialized per-kind replay. The **charge**
//! (`SmState::charge_access`) sorts and dedups each access, probes the
//! read-only cache and the L2, and updates the counters.
//! [`SmState::account_warp`] runs the two back to back; the
//! executor runs them on two host threads with a
//! `ReplayBatch` (the `batch` module) in between. All charge scratch (the
//! ≤32-entry lane address buffer and the per-bank conflict counters)
//! lives in a `WarpScratch` owned by the `SmState`, so steady-state
//! replay performs zero heap allocations (see
//! `tests/alloc_free_replay.rs`).

pub(crate) mod batch;
pub mod cache;
pub mod occupancy;

use crate::config::Device;
use crate::trace::{OpKind, WarpTrace, KIND_ORDER, MAX_WARP_LANES};
pub(crate) use batch::{ReplayBatch, ReplayCursor};
use cache::Cache;
use occupancy::Occupancy;
use serde::{Deserialize, Serialize};

/// Fraction-of-stalls breakdown in the style of Fig. 3(b).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct StallBreakdown {
    /// Waiting on outstanding memory (the dominant reason in the paper).
    pub memory_dependency: f64,
    /// Waiting on in-pipe arithmetic results.
    pub execution_dependency: f64,
    /// Block-wide barriers (`__syncthreads` in the scan kernels).
    pub synchronization: f64,
    /// Instruction fetch.
    pub instruction_fetch: f64,
    /// Everything else.
    pub other: f64,
}

/// Aggregate result of one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Blocks launched.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Modeled duration in core cycles (including launch overhead).
    pub cycles: u64,
    /// Modeled duration in milliseconds.
    pub time_ms: f64,
    /// Warp-level instructions issued.
    pub instructions: u64,
    /// Memory transactions issued (after coalescing).
    pub mem_transactions: u64,
    /// Bytes transferred from/to DRAM.
    pub dram_bytes: u64,
    /// Read-only cache hits (ldg path).
    pub ro_hits: u64,
    /// Read-only cache misses.
    pub ro_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Atomic operations executed (lane-level).
    pub atomics: u64,
    /// Cycles lost to same-address atomic serialization.
    pub atomic_serial_cycles: u64,
    /// Occupancy achieved by this launch.
    pub occupancy: Occupancy,
    /// Achieved DRAM bandwidth as a fraction of peak (Fig. 3a).
    pub achieved_bw_frac: f64,
    /// Achieved issue rate as a fraction of peak (Fig. 3a).
    pub achieved_ipc_frac: f64,
    /// SIMD (branch) efficiency: fraction of issued lane slots that did
    /// useful work — 1.0 for divergence-free kernels, low when loop trip
    /// counts vary inside warps (degree skew).
    pub simd_efficiency: f64,
    /// Stall-reason fractions (Fig. 3b).
    pub stalls: StallBreakdown,
}

/// Reusable replay scratch owned by an [`SmState`]: a fixed lane-address
/// buffer for coalescing/dedup and the shared-memory per-bank counters.
/// Sized once (at `SmState::new` / first use) and reused for every warp,
/// so the replay loop never touches the heap.
struct WarpScratch {
    /// Word addresses of the access being charged, already line-aligned
    /// for global-memory kinds (see [`gather_word_mask`]).
    addrs: [u32; MAX_WARP_LANES],
    /// Number of valid entries in `addrs`.
    n: usize,
    /// Whether `addrs[..n]` came out of the gather in ascending order.
    /// Coalesced kernels emit ascending lane addresses, so tracking this
    /// during the gather makes the replay's sort a no-op in the common
    /// case.
    sorted: bool,
    /// Shared-memory bank occupancy counters (`Device::smem_banks` wide).
    per_bank: Vec<u64>,
}

impl WarpScratch {
    fn new(dev: &Device) -> Self {
        Self {
            addrs: [0; MAX_WARP_LANES],
            n: 0,
            sorted: true,
            per_bank: vec![0; dev.smem_banks.max(1) as usize],
        }
    }
}

/// Byte address of a traced word address.
#[inline]
fn byte_addr(word: u32) -> u64 {
    word as u64 * 4
}

/// Per-SM accumulation state: the private read-only cache plus
/// cycle/traffic counters. The L2 cache is owned by the executor and
/// passed in per access: one cache shared by all SMs models GK110's
/// address-partitioned chip-wide L2.
pub struct SmState {
    ro: Cache,
    scratch: WarpScratch,
    /// Warp-level instructions issued (compute + memory issue slots).
    pub issue: u64,
    /// Sum over warp memory instructions of their (worst-transaction)
    /// latency — the latency the SM must hide.
    pub mem_lat: u64,
    /// Number of warp-level memory instructions.
    pub mem_insts: u64,
    /// Coalesced transactions.
    pub transactions: u64,
    /// Bytes moved between L2 and DRAM.
    pub dram_bytes: u64,
    /// Lane-level atomics.
    pub atomics: u64,
    /// Serialization cycles from same-address atomics.
    pub atomic_serial: u64,
    /// Barrier/scan synchronization cycles.
    pub sync_cycles: u64,
    /// Longest single-warp memory-latency chain seen (bounds how much of
    /// the total latency can actually overlap).
    pub max_warp_lat: u64,
    /// Lane-level op slots actually used (Σ per-lane trace lengths).
    pub simd_useful: u64,
    /// Lane-level op slots issued (Σ warps: max lane length × active
    /// lanes) — the denominator of SIMD/branch efficiency.
    pub simd_slots: u64,
}

impl SmState {
    /// Fresh per-SM state for one kernel launch on `dev`.
    pub fn new(dev: &Device) -> Self {
        Self {
            ro: Cache::new(dev.ro_cache_bytes, dev.ro_line_bytes, dev.ro_ways),
            scratch: WarpScratch::new(dev),
            issue: 0,
            mem_lat: 0,
            mem_insts: 0,
            transactions: 0,
            dram_bytes: 0,
            atomics: 0,
            atomic_serial: 0,
            sync_cycles: 0,
            max_warp_lat: 0,
            simd_useful: 0,
            simd_slots: 0,
        }
    }

    /// Read-only cache hit-miss counters.
    pub fn ro_stats(&self) -> (u64, u64) {
        self.ro.stats()
    }

    /// Accounts one warp's trace (positional SIMT alignment: the k-th op
    /// of every active lane forms one warp access; lanes that have
    /// exhausted their trace are masked off, approximating loop-bound
    /// divergence).
    ///
    /// This is the pure gather (`gather_warp`) feeding the stateful
    /// charge (`charge_access`) directly. The executor runs the same two
    /// steps on two host threads, with a replay batch between them; this
    /// single-thread form is the reference its tests compare against.
    pub fn account_warp(&mut self, dev: &Device, l2: &mut Cache, warp: &WarpTrace) {
        debug_assert!(warp.lanes() <= dev.warp_size as usize);
        self.begin_warp(WarpHead::of(warp));
        let mut warp_lat = 0u64;
        gather_warp(dev, warp, |kind, sorted, words| {
            warp_lat += self.charge_access(dev, l2, kind, sorted, words);
        });
        self.end_warp(warp_lat);
    }

    /// Opens a warp: SIMT compute issue (the warp executes until its
    /// longest lane is done) and the SIMD-efficiency counters.
    #[inline]
    pub(crate) fn begin_warp(&mut self, head: WarpHead) {
        self.issue += head.max_alu;
        self.simd_useful += head.total_ops as u64;
        self.simd_slots += head.max_ops as u64 * head.lanes as u64;
    }

    /// Closes a warp whose accesses added up to `warp_lat` cycles.
    #[inline]
    pub(crate) fn end_warp(&mut self, warp_lat: u64) {
        self.max_warp_lat = self.max_warp_lat.max(warp_lat);
    }

    /// Charges one warp-level access produced by [`gather_warp`]: sort and
    /// dedup, read-only and L2 probes, counters. Returns the warp-visible
    /// latency (also added to `mem_lat`).
    #[inline]
    pub(crate) fn charge_access(
        &mut self,
        dev: &Device,
        l2: &mut Cache,
        kind: OpKind,
        sorted: bool,
        words: &[u32],
    ) -> u64 {
        let n = words.len();
        self.scratch.addrs[..n].copy_from_slice(words);
        self.scratch.n = n;
        self.scratch.sorted = sorted;
        self.charge_slot(dev, l2, kind)
    }

    /// Charges one warp-level access of `kind` over the addresses
    /// currently in the scratch buffer. Returns the warp-visible latency
    /// (also added to `mem_lat`).
    fn charge_slot(&mut self, dev: &Device, l2: &mut Cache, kind: OpKind) -> u64 {
        debug_assert!(
            self.scratch.n > 0 || kind == OpKind::Local,
            "empty slot charge"
        );
        let lat = match kind {
            OpKind::Smem => {
                // Bank conflicts: lanes hitting distinct words in the same
                // bank serialize; same-word access is a broadcast.
                let banks = dev.smem_banks.max(1);
                if self.scratch.per_bank.len() != banks as usize {
                    // Only reachable if a warp is accounted against a
                    // different device than `SmState::new` saw.
                    self.scratch.per_bank.resize(banks as usize, 0);
                }
                self.scratch.per_bank.fill(0);
                let n = self.dedup_scratch(); // same word broadcasts
                for i in 0..n {
                    let w = self.scratch.addrs[i];
                    self.scratch.per_bank[(w % banks) as usize] += 1;
                }
                let ways = self
                    .scratch
                    .per_bank
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(1)
                    .max(1);
                self.issue += ways;
                ways * dev.smem_cycles as u64
            }
            OpKind::Local => {
                // L1-speed, fully pipelined, address-free: issue slots
                // only.
                self.issue += 1;
                dev.local_cycles as u64
            }
            OpKind::Ld if dev.l1_caches_globals => {
                // Fermi path: plain loads are L1-cached, so they behave
                // like Kepler's ldg path.
                let lat = self.ldg_access(dev, l2);
                self.issue += 1;
                lat
            }
            OpKind::Ld | OpKind::St => {
                let lat = self.global_access(dev, l2);
                self.issue += 1;
                lat
            }
            OpKind::Ldg => {
                let lat = self.ldg_access(dev, l2);
                self.issue += 1;
                lat
            }
            OpKind::Atomic => {
                let lat = self.atomic_access(dev, l2);
                self.issue += 1;
                lat
            }
        };
        self.mem_lat += lat;
        self.mem_insts += 1;
        lat
    }

    /// Sorts the scratch (skipped when the gather already saw ascending
    /// addresses) and dedups it in place; returns the deduped length.
    #[inline]
    fn dedup_scratch(&mut self) -> usize {
        let addrs = &mut self.scratch.addrs[..self.scratch.n];
        if !self.scratch.sorted {
            addrs.sort_unstable();
        }
        let n = dedup_sorted(addrs);
        self.scratch.n = n;
        n
    }

    /// Coalesces the scratch addresses (line-aligned by the gather) into
    /// L2-line transactions, probes the L2, returns the
    /// warp-visible latency (worst transaction).
    fn global_access(&mut self, dev: &Device, l2: &mut Cache) -> u64 {
        let line = dev.l2_line_bytes as u64;
        let n = self.dedup_scratch();
        self.transactions += n as u64;
        // Additional transactions occupy the LSU pipe: charge issue slots.
        self.issue += n as u64 - 1;
        let mut worst = 0u64;
        for i in 0..n {
            let a = byte_addr(self.scratch.addrs[i]);
            let lat = if l2.access(a) {
                dev.l2_hit_cycles as u64
            } else {
                self.dram_bytes += line;
                dev.dram_cycles as u64
            };
            worst = worst.max(lat);
        }
        worst
    }

    /// `__ldg` path: read-only cache first (128-byte lines), L2 on miss.
    fn ldg_access(&mut self, dev: &Device, l2: &mut Cache) -> u64 {
        let line = dev.ro_line_bytes as u64;
        let n = self.dedup_scratch();
        self.transactions += n as u64;
        self.issue += n as u64 - 1;
        let mut worst = 0u64;
        for i in 0..n {
            let a = byte_addr(self.scratch.addrs[i]);
            let lat = if self.ro.access(a) {
                dev.ro_hit_cycles as u64
            } else if l2.access(a) {
                (dev.ro_hit_cycles + dev.l2_hit_cycles) as u64
            } else {
                self.dram_bytes += line;
                (dev.ro_hit_cycles + dev.dram_cycles) as u64
            };
            worst = worst.max(lat);
        }
        worst
    }

    /// Atomics resolve at the L2/AOU; lanes hitting the same word
    /// serialize.
    fn atomic_access(&mut self, dev: &Device, l2: &mut Cache) -> u64 {
        let n0 = self.scratch.n;
        self.atomics += n0 as u64;
        // Group by exact address: count the worst same-address burst.
        if !self.scratch.sorted {
            self.scratch.addrs[..n0].sort_unstable();
        }
        let mut groups = 0u64;
        let mut worst_burst = 0u64;
        let mut i = 0;
        while i < n0 {
            let mut j = i + 1;
            while j < n0 && self.scratch.addrs[j] == self.scratch.addrs[i] {
                j += 1;
            }
            groups += 1;
            worst_burst = worst_burst.max((j - i) as u64);
            i = j;
        }
        let serial = worst_burst.saturating_sub(1) * dev.atomic_serial_cycles as u64;
        self.atomic_serial += serial;
        self.transactions += groups;
        self.issue += groups - 1;
        // The L2/AOU sees one access per distinct address.
        let n = dedup_sorted(&mut self.scratch.addrs[..n0]);
        self.scratch.n = n;
        let mut worst = 0u64;
        for i in 0..n {
            let a = byte_addr(self.scratch.addrs[i]);
            if l2.access(a) {
                worst = worst.max(dev.l2_hit_cycles as u64);
            } else {
                self.dram_bytes += dev.l2_line_bytes as u64;
                worst = worst.max(dev.dram_cycles as u64);
            }
        }
        worst + serial
    }

    /// Charges a block-wide barrier + scan: `steps` barrier rounds over
    /// `warps_in_block` warps (Hillis–Steele shared-memory scan).
    pub fn charge_block_scan(&mut self, dev: &Device, block_threads: u32) {
        let steps = 32 - (block_threads.max(1) - 1).leading_zeros(); // ceil log2
        let warps = block_threads.div_ceil(dev.warp_size) as u64;
        // Each step: one smem read+write+add per warp, plus a barrier.
        let per_warp_instr = 3 * steps as u64;
        self.issue += per_warp_instr * warps;
        // Barrier cost: all warps rendezvous; charge ~20 cycles per step.
        let sync = 20 * steps as u64;
        self.sync_cycles += sync;
    }

    /// Charges the one global `atomicAdd` a cooperative block issues to
    /// reserve its output range (Fig. 5). Modeled as an L2-resident
    /// counter round trip with no serialization: blocks arrive spread in
    /// time, unlike lanes of one warp.
    pub fn charge_block_base_atomic(&mut self, dev: &Device) {
        self.atomics += 1;
        self.mem_lat += dev.l2_hit_cycles as u64;
        self.mem_insts += 1;
        self.issue += 1;
    }
}

/// In-place dedup of sorted values; returns the deduped length.
#[inline]
fn dedup_sorted(addrs: &mut [u32]) -> usize {
    let mut w = 0usize;
    for i in 0..addrs.len() {
        if w == 0 || addrs[i] != addrs[w - 1] {
            addrs[w] = addrs[i];
            w += 1;
        }
    }
    w
}

/// Word-address mask applied during the gather for `kind`: global
/// loads/stores are line-aligned up front (32-byte L2 lines; 128-byte
/// read-only lines for `__ldg` and for plain loads on devices whose L1
/// caches globals), so the charge path needn't re-walk the buffer.
/// Atomics and shared-memory ops keep exact word addresses — they dedup
/// and bank by word, not by line. Masking the word address equals
/// masking the byte address `4 × word` for every line of at least 4
/// bytes.
#[inline]
fn gather_word_mask(dev: &Device, kind: OpKind) -> u32 {
    let line_words = |bytes: u32| !((bytes / 4).max(1) - 1);
    match kind {
        OpKind::Ldg => line_words(dev.ro_line_bytes),
        OpKind::Ld if dev.l1_caches_globals => line_words(dev.ro_line_bytes),
        OpKind::Ld | OpKind::St => line_words(dev.l2_line_bytes),
        _ => !0,
    }
}

/// What [`SmState::begin_warp`] needs of a warp besides its accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WarpHead {
    /// Compute issue: the longest lane's ALU count.
    pub max_alu: u64,
    /// Active lanes.
    pub lanes: u32,
    /// Longest lane's op count (the warp's op slots).
    pub max_ops: u32,
    /// Ops over all lanes.
    pub total_ops: u32,
}

impl WarpHead {
    /// The head of `warp`.
    #[inline]
    pub(crate) fn of(warp: &WarpTrace) -> Self {
        Self {
            max_alu: warp.max_alu(),
            lanes: warp.lanes() as u32,
            max_ops: warp.max_ops() as u32,
            total_ops: warp.total_ops() as u32,
        }
    }
}

/// The pure half of warp replay: turns a trace into its warp-level
/// accesses, in replay order, calling `access(kind, sorted, words)` for
/// each. It reads only the trace and the device — never memory or cache
/// state — so it can run on another thread than the charge.
///
/// Single pass per op slot: the pass that collects the slot's addresses
/// also ORs its lanes' kind bits, which says whether all lanes issued the
/// same kind — the common case, finished in place. A divergent slot
/// yields one access per kind present, in [`KIND_ORDER`] (serialized
/// replay). `Local` accesses are address-free and always yield an empty
/// `words`, in uniform and divergent slots alike.
#[inline]
pub(crate) fn gather_warp(
    dev: &Device,
    warp: &WarpTrace,
    mut access: impl FnMut(OpKind, bool, &[u32]),
) {
    let lanes = warp.lanes();
    // Per-lane cursors into the flat op vector (stack-resident).
    let flat = warp.flat_ops();
    let mut start = [0usize; MAX_WARP_LANES];
    let mut len = [0usize; MAX_WARP_LANES];
    for l in 0..lanes {
        let (s, e) = warp.lane_span(l);
        start[l] = s;
        len[l] = e - s;
    }
    let (start, len) = (&start[..lanes], &len[..lanes]);
    let max_ops = len.iter().copied().max().unwrap_or(0);
    // Slots below the shortest lane's length have every lane active.
    let all_active = len.iter().copied().min().unwrap_or(0);
    let mut words = [0u32; MAX_WARP_LANES];

    for k in 0..max_ops {
        // One pass over the lanes that have a k-th op: the slot's kind
        // summary (OR of kind bits) and its raw word addresses, with no
        // per-lane length tests while every lane is active.
        let mut mask = 0u8;
        let mut n = 0;
        if k < all_active {
            for (slot, &s) in words.iter_mut().zip(start) {
                let op = flat[s + k];
                mask |= op.kind.bit();
                *slot = op.addr;
            }
            n = lanes;
        } else {
            for (&s, &len) in start.iter().zip(len) {
                if k < len {
                    let op = flat[s + k];
                    mask |= op.kind.bit();
                    words[n] = op.addr;
                    n += 1;
                }
            }
        }
        if mask == OpKind::Local.bit() {
            // The all-local slot — the single most common slot kind in the
            // coloring kernels (the per-thread `colorMask` traffic) — is
            // address-free.
            access(OpKind::Local, true, &[]);
        } else if mask.count_ones() == 1 {
            // Kind-uniform slot (the common case): line-align and
            // order-check the gathered addresses in place.
            let kind = OpKind::from_bit(mask);
            let wmask = gather_word_mask(dev, kind);
            let mut prev = 0u32;
            let mut sorted = true;
            for w in &mut words[..n] {
                *w &= wmask;
                sorted &= *w >= prev;
                prev = *w;
            }
            access(kind, sorted, &words[..n]);
        } else {
            // Divergent slot (rare): serialized replay, one warp access
            // per kind present, in canonical order.
            for kind in KIND_ORDER {
                if mask & kind.bit() == 0 {
                    continue;
                }
                if kind == OpKind::Local {
                    access(OpKind::Local, true, &[]);
                    continue;
                }
                let wmask = gather_word_mask(dev, kind);
                let mut n = 0;
                let mut prev = 0u32;
                let mut sorted = true;
                for (&s, &len) in start.iter().zip(len) {
                    if k < len {
                        let op = flat[s + k];
                        if op.kind == kind {
                            let w = op.addr & wmask;
                            sorted &= w >= prev;
                            prev = w;
                            words[n] = w;
                            n += 1;
                        }
                    }
                }
                access(kind, sorted, &words[..n]);
            }
        }
    }
}

/// Combines per-SM states into the final kernel statistics.
pub fn finalize(
    dev: &Device,
    name: &str,
    grid: u32,
    block: u32,
    occ: Occupancy,
    sms: &[SmState],
    l2_stats: (u64, u64),
) -> KernelStats {
    let mut worst_sm_cycles = 0f64;
    let mut total_issue = 0u64;
    let mut total_txn = 0u64;
    let mut total_dram = 0u64;
    let mut total_atomics = 0u64;
    let mut total_atomic_serial = 0u64;
    let mut total_mem_lat = 0u64;
    let mut total_sync = 0u64;
    let (mut ro_h, mut ro_m) = (0u64, 0u64);
    let (l2_h, l2_m) = l2_stats;
    let (mut simd_useful, mut simd_slots) = (0u64, 0u64);

    let per_sm_bw = dev.dram_bytes_per_cycle() / dev.num_sms as f64;
    // Memory-level parallelism grows sublinearly with resident warps:
    // outstanding requests contend for MSHRs, DRAM banks and the memory
    // queue, so doubling warps does not double overlap (the same
    // diminishing-returns term analytic models like Hong–Kim capture with
    // an MWP bound). Exponent 0.8 keeps hiding strictly monotone in
    // occupancy — which Fig. 8's block-size ordering depends on — while
    // matching the latency-bound character of Fig. 3.
    // Blocks retire at CTA granularity: a finishing block's warp slots sit
    // idle until its slowest warp drains, so larger blocks waste a bigger
    // slice of the resident-warp budget — the "resource oversaturation"
    // that makes >256-thread blocks suboptimal in Fig. 8.
    let warps_per_block = block.div_ceil(dev.warp_size) as f64;
    let drain = (1.0 - warps_per_block / (2.0 * occ.resident_warps.max(1) as f64)).max(0.5);

    let hiding = ((occ.resident_warps.max(1) as f64).powf(0.8) * drain).max(1.0);

    for sm in sms {
        let comp = sm.issue as f64 / dev.issue_width as f64;
        // The longest single-warp dependence chain (e.g. one thread
        // walking a hub vertex's adjacency, or a lone busy warp in a late
        // sparse pass) is a serial critical path: other resident warps
        // cannot shorten it — only the warp's own scoreboard depth
        // (`mem_ilp` outstanding requests) can.
        let chain_floor = sm.max_warp_lat as f64 / dev.mem_ilp;
        let exposed = (sm.mem_lat as f64 / hiding).max(chain_floor);
        let bw = sm.dram_bytes as f64 / per_sm_bw;
        let busy = comp.max(exposed).max(bw) + sm.sync_cycles as f64 + sm.atomic_serial as f64;
        worst_sm_cycles = worst_sm_cycles.max(busy);
        total_issue += sm.issue;
        total_txn += sm.transactions;
        total_dram += sm.dram_bytes;
        total_atomics += sm.atomics;
        total_atomic_serial += sm.atomic_serial;
        total_mem_lat += sm.mem_lat;
        total_sync += sm.sync_cycles;
        let (rh, rm) = sm.ro_stats();
        ro_h += rh;
        ro_m += rm;
        simd_useful += sm.simd_useful;
        simd_slots += sm.simd_slots;
    }

    // Chip-wide DRAM bandwidth floor.
    let bw_floor = total_dram as f64 / dev.dram_bytes_per_cycle();
    let overhead = dev.launch_overhead_us * 1e-6 * dev.clock_hz();
    let cycles = worst_sm_cycles.max(bw_floor) + overhead;
    let cycles_u = cycles.ceil() as u64;
    let time_ms = dev.cycles_to_ms(cycles_u);

    // Achieved fractions of peak (Fig. 3a).
    let achieved_bw_frac = (total_dram as f64 / cycles) / dev.dram_bytes_per_cycle();
    let achieved_ipc_frac = (total_issue as f64 / cycles) / dev.peak_issue_per_cycle();

    // Stall attribution (Fig. 3b): heuristic mapping from the model's
    // components to profiler categories. Memory dependency is the exposed
    // latency; execution dependency scales with issued compute (dependent
    // back-to-back issues); synchronization and atomic serialization are
    // explicit; fetch/other are small constants of the issue stream.
    // Stall attribution mimics nvprof's sampling: a stalled warp is
    // sampled once per issue opportunity, not once per latency cycle, so
    // only a bounded window of each memory wait is attributed (factor
    // 0.1 ≈ sampling period / average wait).
    let mem_dep = total_mem_lat as f64 * 0.1;
    let exec_dep = total_issue as f64 * 0.35;
    let sync = (total_sync + total_atomic_serial) as f64;
    let fetch = total_issue as f64 * 0.06;
    let other = total_issue as f64 * 0.08;
    let sum = (mem_dep + exec_dep + sync + fetch + other).max(1.0);
    let stalls = StallBreakdown {
        memory_dependency: mem_dep / sum,
        execution_dependency: exec_dep / sum,
        synchronization: sync / sum,
        instruction_fetch: fetch / sum,
        other: other / sum,
    };

    KernelStats {
        name: name.to_string(),
        grid,
        block,
        cycles: cycles_u,
        time_ms,
        instructions: total_issue,
        mem_transactions: total_txn,
        dram_bytes: total_dram,
        ro_hits: ro_h,
        ro_misses: ro_m,
        l2_hits: l2_h,
        l2_misses: l2_m,
        atomics: total_atomics,
        atomic_serial_cycles: total_atomic_serial,
        occupancy: occ,
        achieved_bw_frac,
        achieved_ipc_frac,
        simd_efficiency: if simd_slots > 0 {
            simd_useful as f64 / simd_slots as f64
        } else {
            1.0
        },
        stalls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;

    /// Builds a [`WarpTrace`] from per-lane (ops, alu) pairs — the shape
    /// the old per-lane `LaneTrace` API exposed.
    fn warp(lanes: &[(Vec<Op>, u64)]) -> WarpTrace {
        let mut t = WarpTrace::default();
        for (ops, alu) in lanes {
            t.begin_lane();
            for &o in ops {
                t.push(o);
            }
            t.add_alu(*alu);
        }
        t
    }

    /// A chip-wide L2 like the executor uses.
    fn l2_of(dev: &Device) -> Cache {
        Cache::new(dev.l2_bytes, dev.l2_line_bytes, dev.l2_ways)
    }

    fn op(kind: OpKind, addr: u32) -> Op {
        Op { kind, addr }
    }

    #[test]
    fn coalesced_warp_load_is_one_transaction_per_line() {
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        // 32 lanes loading consecutive words: 32 * 4B = 128B = 4 L2
        // sectors of 32B.
        let lanes: Vec<(Vec<Op>, u64)> = (0..32).map(|i| (vec![op(OpKind::Ld, i)], 0)).collect();
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        assert_eq!(sm.transactions, 4);
        assert_eq!(sm.mem_insts, 1);
        assert_eq!(sm.dram_bytes, 4 * 32);
    }

    #[test]
    fn scattered_warp_load_is_many_transactions() {
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        // 32 lanes loading words 1000 apart: no two share a 32B sector.
        let lanes: Vec<(Vec<Op>, u64)> = (0..32)
            .map(|i| (vec![op(OpKind::Ld, i * 1000)], 0))
            .collect();
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        assert_eq!(sm.transactions, 32);
        assert_eq!(sm.dram_bytes, 32 * 32);
    }

    #[test]
    fn repeated_ld_hits_l2() {
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        let lanes = vec![(vec![op(OpKind::Ld, 0), op(OpKind::Ld, 0)], 0)];
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        let (l2_hits, l2_misses) = l2.stats();
        assert_eq!(l2_misses, 1);
        assert_eq!(l2_hits, 1);
        // First access paid DRAM latency, second the (cheaper) L2 latency.
        assert_eq!(sm.mem_lat, (dev.dram_cycles + dev.l2_hit_cycles) as u64);
    }

    #[test]
    fn ldg_hit_is_cheapest() {
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        let lanes = vec![(vec![op(OpKind::Ldg, 0), op(OpKind::Ldg, 0)], 0)];
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        let (ro_hits, ro_misses) = sm.ro_stats();
        assert_eq!(ro_misses, 1);
        assert_eq!(ro_hits, 1);
        // Second access: 30-cycle read-only hit, far below DRAM.
        assert!(sm.mem_lat < 2 * dev.dram_cycles as u64);
    }

    #[test]
    fn ldg_second_warp_reuses_line_ld_does_not_cache_in_ro() {
        // The Fig. 4 distinction: data loaded with ld is not in the RO
        // cache afterwards.
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        let lanes = vec![(vec![op(OpKind::Ld, 0)], 0)];
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        let (ro_hits, ro_misses) = sm.ro_stats();
        assert_eq!((ro_hits, ro_misses), (0, 0), "ld bypasses the RO cache");
    }

    #[test]
    fn same_address_atomics_serialize() {
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        let lanes: Vec<(Vec<Op>, u64)> =
            (0..32).map(|_| (vec![op(OpKind::Atomic, 7)], 0)).collect();
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        assert_eq!(sm.atomics, 32);
        assert_eq!(sm.atomic_serial, 31 * dev.atomic_serial_cycles as u64);
    }

    #[test]
    fn distinct_address_atomics_do_not_serialize() {
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        let lanes: Vec<(Vec<Op>, u64)> = (0..32)
            .map(|i| (vec![op(OpKind::Atomic, i * 64)], 0))
            .collect();
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        assert_eq!(sm.atomic_serial, 0);
        assert_eq!(sm.atomics, 32);
    }

    #[test]
    fn divergence_charges_max_lane() {
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        let mut lanes = vec![(vec![], 2u64); 32];
        lanes[0].1 = 100; // one long lane dominates the warp
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        assert_eq!(sm.issue, 100);
    }

    #[test]
    fn mixed_kind_slot_replays_serially() {
        // Lanes diverge at slot 0: half load, half store, same line. The
        // divergent fallback charges one warp access per kind.
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        let lanes: Vec<(Vec<Op>, u64)> = (0..32)
            .map(|i| {
                let kind = if i % 2 == 0 { OpKind::Ld } else { OpKind::St };
                (vec![op(kind, i)], 0)
            })
            .collect();
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        assert_eq!(sm.mem_insts, 2, "one warp access per kind present");
        // 16 even words cover words 0..30 → 128B → 4 lines; odd same.
        assert_eq!(sm.transactions, 8);
    }

    #[test]
    fn finalize_is_bandwidth_floored() {
        let dev = Device::k20c();
        let occ = occupancy::occupancy(&dev, 1 << 16, 128, 32, 0);
        let mut sms: Vec<SmState> = (0..dev.num_sms).map(|_| SmState::new(&dev)).collect();
        // Give every SM a huge DRAM byte count with negligible latency sum.
        for sm in &mut sms {
            sm.dram_bytes = 1 << 28;
        }
        let stats = finalize(&dev, "bw-test", 100, 128, occ, &sms, (0, 0));
        let bytes = (dev.num_sms as u64) << 28;
        let floor = bytes as f64 / dev.dram_bytes_per_cycle();
        assert!(stats.cycles as f64 >= floor);
        assert!(stats.achieved_bw_frac > 0.9, "bw-bound kernel near peak");
    }

    #[test]
    fn stall_fractions_sum_to_one() {
        let dev = Device::k20c();
        let occ = occupancy::occupancy(&dev, 1 << 16, 128, 32, 0);
        let mut sm = SmState::new(&dev);
        let mut l2 = l2_of(&dev);
        let lanes: Vec<(Vec<Op>, u64)> = (0..32)
            .map(|i| (vec![op(OpKind::Ld, i * 512)], 5))
            .collect();
        sm.account_warp(&dev, &mut l2, &warp(&lanes));
        let stats = finalize(&dev, "t", 1, 32, occ, &[sm], l2.stats());
        let s = stats.stalls;
        let sum = s.memory_dependency
            + s.execution_dependency
            + s.synchronization
            + s.instruction_fetch
            + s.other;
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(
            s.memory_dependency > 0.4,
            "latency-bound kernel: memory stalls dominate, got {}",
            s.memory_dependency
        );
    }

    #[test]
    fn higher_occupancy_hides_more_latency() {
        let dev = Device::k20c();
        let mk = |warps: u32| Occupancy {
            resident_blocks: 1,
            resident_warps: warps,
            fraction: warps as f64 / 64.0,
            limiter: occupancy::Limiter::Blocks,
        };
        let mut sm_lo = SmState::new(&dev);
        sm_lo.mem_lat = 1_000_000;
        let mut sm_hi = SmState::new(&dev);
        sm_hi.mem_lat = 1_000_000;
        let t_lo = finalize(&dev, "lo", 1, 32, mk(8), &[sm_lo], (0, 0));
        let t_hi = finalize(&dev, "hi", 1, 32, mk(64), &[sm_hi], (0, 0));
        assert!(t_hi.cycles < t_lo.cycles);
    }

    #[test]
    fn block_scan_charge_grows_with_block_size() {
        let dev = Device::k20c();
        let mut a = SmState::new(&dev);
        let mut b = SmState::new(&dev);
        a.charge_block_scan(&dev, 64);
        b.charge_block_scan(&dev, 1024);
        assert!(b.issue > a.issue);
        assert!(b.sync_cycles > a.sync_cycles);
    }

    #[test]
    fn block_base_atomic_helper_charges_one_atomic() {
        let dev = Device::k20c();
        let mut sm = SmState::new(&dev);
        sm.charge_block_base_atomic(&dev);
        assert_eq!(sm.atomics, 1);
        assert_eq!(sm.mem_insts, 1);
        assert_eq!(sm.issue, 1);
        assert_eq!(sm.mem_lat, dev.l2_hit_cycles as u64);
    }

    // ------------------------------------------------------------------
    // Oracle equivalence: the pre-SoA accounting, kept verbatim as a
    // reference implementation, must agree bit-for-bit with the
    // single-pass replay on randomized traces.
    // ------------------------------------------------------------------

    /// The old per-lane trace accounting (exact copy of the pre-refactor
    /// `account_warp` and its heap-allocating helpers), used as the
    /// equivalence oracle.
    mod oracle {
        use super::super::*;
        use crate::trace::Op;

        pub fn account_warp(
            sm: &mut SmState,
            dev: &Device,
            l2: &mut Cache,
            lanes: &[(Vec<Op>, u64)],
        ) {
            debug_assert!(lanes.len() <= dev.warp_size as usize);
            sm.issue += lanes.iter().map(|l| l.1).max().unwrap_or(0);
            let mut warp_lat = 0u64;

            let max_ops = lanes.iter().map(|l| l.0.len()).max().unwrap_or(0);
            sm.simd_useful += lanes.iter().map(|l| l.0.len() as u64).sum::<u64>();
            sm.simd_slots += (max_ops * lanes.len()) as u64;
            let mut addrs: Vec<u64> = Vec::with_capacity(32);
            for k in 0..max_ops {
                for kind in KIND_ORDER {
                    addrs.clear();
                    for l in lanes {
                        if let Some(op) = l.0.get(k) {
                            if op.kind == kind {
                                addrs.push(op.addr as u64 * 4);
                            }
                        }
                    }
                    if addrs.is_empty() {
                        continue;
                    }
                    match kind {
                        OpKind::Smem => {
                            let banks = dev.smem_banks.max(1) as u64;
                            let mut per_bank = vec![0u64; banks as usize];
                            addrs.sort_unstable();
                            addrs.dedup();
                            for &a in addrs.iter() {
                                per_bank[((a / 4) % banks) as usize] += 1;
                            }
                            let ways = per_bank.iter().copied().max().unwrap_or(1).max(1);
                            let lat = ways * dev.smem_cycles as u64;
                            sm.issue += ways;
                            sm.mem_lat += lat;
                            warp_lat += lat;
                            sm.mem_insts += 1;
                        }
                        OpKind::Local => {
                            sm.issue += 1;
                            sm.mem_lat += dev.local_cycles as u64;
                            warp_lat += dev.local_cycles as u64;
                            sm.mem_insts += 1;
                        }
                        OpKind::Ld if dev.l1_caches_globals => {
                            let lat = ldg_access(sm, dev, l2, &mut addrs);
                            sm.issue += 1;
                            sm.mem_lat += lat;
                            warp_lat += lat;
                            sm.mem_insts += 1;
                        }
                        OpKind::Ld | OpKind::St => {
                            let lat = global_access(sm, dev, l2, &mut addrs);
                            sm.issue += 1;
                            sm.mem_lat += lat;
                            warp_lat += lat;
                            sm.mem_insts += 1;
                        }
                        OpKind::Ldg => {
                            let lat = ldg_access(sm, dev, l2, &mut addrs);
                            sm.issue += 1;
                            sm.mem_lat += lat;
                            warp_lat += lat;
                            sm.mem_insts += 1;
                        }
                        OpKind::Atomic => {
                            let lat = atomic_access(sm, dev, l2, &mut addrs);
                            sm.issue += 1;
                            sm.mem_lat += lat;
                            warp_lat += lat;
                            sm.mem_insts += 1;
                        }
                    }
                }
            }
            sm.max_warp_lat = sm.max_warp_lat.max(warp_lat);
        }

        fn dedup_lines_vec(addrs: &mut Vec<u64>, line: u64) {
            for a in addrs.iter_mut() {
                *a -= *a % line;
            }
            addrs.sort_unstable();
            addrs.dedup();
        }

        fn global_access(
            sm: &mut SmState,
            dev: &Device,
            l2: &mut Cache,
            addrs: &mut Vec<u64>,
        ) -> u64 {
            let line = dev.l2_line_bytes as u64;
            dedup_lines_vec(addrs, line);
            let mut worst = 0u64;
            for &a in addrs.iter() {
                let hit = l2.access(a);
                let lat = if hit {
                    dev.l2_hit_cycles as u64
                } else {
                    sm.dram_bytes += line;
                    dev.dram_cycles as u64
                };
                worst = worst.max(lat);
                sm.transactions += 1;
            }
            sm.issue += addrs.len() as u64 - 1;
            worst
        }

        fn ldg_access(sm: &mut SmState, dev: &Device, l2: &mut Cache, addrs: &mut Vec<u64>) -> u64 {
            let line = dev.ro_line_bytes as u64;
            dedup_lines_vec(addrs, line);
            let mut worst = 0u64;
            for &a in addrs.iter() {
                let lat = if sm.ro.access(a) {
                    dev.ro_hit_cycles as u64
                } else if l2.access(a) {
                    (dev.ro_hit_cycles + dev.l2_hit_cycles) as u64
                } else {
                    sm.dram_bytes += line;
                    (dev.ro_hit_cycles + dev.dram_cycles) as u64
                };
                worst = worst.max(lat);
                sm.transactions += 1;
            }
            sm.issue += addrs.len() as u64 - 1;
            worst
        }

        fn atomic_access(
            sm: &mut SmState,
            dev: &Device,
            l2: &mut Cache,
            addrs: &mut Vec<u64>,
        ) -> u64 {
            sm.atomics += addrs.len() as u64;
            addrs.sort_unstable();
            let mut groups = 0u64;
            let mut worst_burst = 0u64;
            let mut i = 0;
            while i < addrs.len() {
                let mut j = i + 1;
                while j < addrs.len() && addrs[j] == addrs[i] {
                    j += 1;
                }
                groups += 1;
                worst_burst = worst_burst.max((j - i) as u64);
                i = j;
            }
            let serial = worst_burst.saturating_sub(1) * dev.atomic_serial_cycles as u64;
            sm.atomic_serial += serial;
            sm.transactions += groups;
            sm.issue += groups - 1;
            addrs.dedup();
            let mut worst = 0u64;
            for &a in addrs.iter() {
                if l2.access(a) {
                    worst = worst.max(dev.l2_hit_cycles as u64);
                } else {
                    sm.dram_bytes += dev.l2_line_bytes as u64;
                    worst = worst.max(dev.dram_cycles as u64);
                }
            }
            worst + serial
        }
    }

    /// splitmix64 — deterministic, dependency-free randomness for the
    /// equivalence fuzz loop.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Generates one random warp: mostly kind-uniform slots with a
    /// sprinkling of divergent ones, variable lane counts and lengths,
    /// clustered addresses (cache hits + bank conflicts + shared lines).
    fn random_warp(rng: &mut Rng) -> Vec<(Vec<Op>, u64)> {
        let lanes = 1 + rng.below(32) as usize;
        let base_len = rng.below(8) as usize;
        // Choose a per-slot "majority" kind up front so most slots are
        // uniform, as real kernels are.
        let slot_kind: Vec<OpKind> = (0..base_len + 4)
            .map(|_| KIND_ORDER[rng.below(6) as usize])
            .collect();
        (0..lanes)
            .map(|_| {
                // Lane lengths vary around base_len (loop divergence).
                let len = match rng.below(4) {
                    0 => base_len.saturating_sub(rng.below(3) as usize),
                    1 => base_len + rng.below(3) as usize,
                    _ => base_len,
                };
                let ops = (0..len)
                    .map(|k| {
                        // 10% of ops diverge from the slot's majority kind.
                        let kind = if rng.below(10) == 0 {
                            KIND_ORDER[rng.below(6) as usize]
                        } else {
                            slot_kind[k]
                        };
                        // Clustered addresses: small word space so lines,
                        // banks and atomic targets collide frequently.
                        let addr = rng.below(4096) as u32;
                        Op { kind, addr }
                    })
                    .collect();
                (ops, rng.below(64))
            })
            .collect()
    }

    fn assert_sm_eq(new: &SmState, old: &SmState, trial: usize) {
        assert_eq!(new.issue, old.issue, "issue, trial {trial}");
        assert_eq!(new.mem_lat, old.mem_lat, "mem_lat, trial {trial}");
        assert_eq!(new.mem_insts, old.mem_insts, "mem_insts, trial {trial}");
        assert_eq!(
            new.transactions, old.transactions,
            "transactions, trial {trial}"
        );
        assert_eq!(new.dram_bytes, old.dram_bytes, "dram_bytes, trial {trial}");
        assert_eq!(new.atomics, old.atomics, "atomics, trial {trial}");
        assert_eq!(
            new.atomic_serial, old.atomic_serial,
            "atomic_serial, trial {trial}"
        );
        assert_eq!(
            new.max_warp_lat, old.max_warp_lat,
            "max_warp_lat, trial {trial}"
        );
        assert_eq!(
            new.simd_useful, old.simd_useful,
            "simd_useful, trial {trial}"
        );
        assert_eq!(new.simd_slots, old.simd_slots, "simd_slots, trial {trial}");
        assert_eq!(new.ro_stats(), old.ro_stats(), "ro stats, trial {trial}");
    }

    #[test]
    fn single_pass_replay_matches_oracle_on_random_traces() {
        for (seed, dev) in [
            (0x1234u64, Device::k20c()),
            (0x5678, Device::k20c()),
            (0x9ABC, Device::fermi_like()), // exercises the l1_caches_globals arm
        ] {
            let mut rng = Rng(seed);
            let mut sm_new = SmState::new(&dev);
            let mut sm_old = SmState::new(&dev);
            let mut l2_new = Cache::new(dev.l2_bytes, dev.l2_line_bytes, dev.l2_ways);
            let mut l2_old = Cache::new(dev.l2_bytes, dev.l2_line_bytes, dev.l2_ways);
            for trial in 0..500 {
                let lanes = random_warp(&mut rng);
                sm_new.account_warp(&dev, &mut l2_new, &warp(&lanes));
                oracle::account_warp(&mut sm_old, &dev, &mut l2_old, &lanes);
                assert_sm_eq(&sm_new, &sm_old, trial);
                assert_eq!(l2_new.stats(), l2_old.stats(), "l2 stats, trial {trial}");
            }
        }
    }

    #[test]
    fn batched_gather_and_charge_match_account_warp() {
        // The two-thread executor's data path — gather into budgeted
        // batches, which fill and flush mid-warp, then charge from them —
        // against account_warp and the pre-SoA oracle. Divergent slots
        // here mix Local ops (carrying nonzero addresses) with addressed
        // kinds, which the gather must leave out of the batch and the
        // charge must not expect.
        for (seed, dev) in [(0x1234u64, Device::k20c()), (0x9ABC, Device::fermi_like())] {
            for (steps, words) in [(1, MAX_WARP_LANES), (3, 40), (64, 256)] {
                let mut rng = Rng(seed);
                let mut direct = SmState::new(&dev);
                let mut l2_direct = l2_of(&dev);
                let mut old = SmState::new(&dev);
                let mut l2_old = l2_of(&dev);
                let mut sms = [SmState::new(&dev)];
                let mut l2_batched = l2_of(&dev);
                let mut cursor = ReplayCursor::default();
                let mut batch = ReplayBatch::with_budget(steps, words);
                let mut flushes = 0;
                for trial in 0..300 {
                    let lanes = random_warp(&mut rng);
                    let w = warp(&lanes);
                    direct.account_warp(&dev, &mut l2_direct, &w);
                    oracle::account_warp(&mut old, &dev, &mut l2_old, &lanes);
                    batch.push_warp(&dev, 0, &w, &mut |b| {
                        b.replay(&dev, &mut sms, &mut l2_batched, &mut cursor);
                        b.clear();
                        flushes += 1;
                    });
                    if trial % 7 == 6 {
                        // Sometimes carry a batch over into the next warp.
                        batch.replay(&dev, &mut sms, &mut l2_batched, &mut cursor);
                        batch.clear();
                        assert_sm_eq(&sms[0], &direct, trial);
                        assert_eq!(l2_batched.stats(), l2_direct.stats(), "trial {trial}");
                    }
                    assert_sm_eq(&direct, &old, trial);
                }
                batch.replay(&dev, &mut sms, &mut l2_batched, &mut cursor);
                assert_sm_eq(&sms[0], &direct, 300);
                assert_eq!(l2_batched.stats(), l2_old.stats());
                assert!(flushes > 0, "budget {steps}/{words} never filled");
            }
        }
    }

    #[test]
    fn empty_and_single_lane_warps_match_oracle() {
        let dev = Device::k20c();
        let mut sm_new = SmState::new(&dev);
        let mut sm_old = SmState::new(&dev);
        let mut l2_new = l2_of(&dev);
        let mut l2_old = l2_of(&dev);
        let cases: Vec<Vec<(Vec<Op>, u64)>> = vec![
            vec![(vec![], 0)],                       // one empty lane
            vec![(vec![], 3); 32],                   // all lanes empty, alu only
            vec![(vec![op(OpKind::Atomic, 9)], 1)],  // single-lane atomic
            vec![(vec![op(OpKind::Smem, 5)], 0); 7], // partial warp, smem broadcast
        ];
        for (trial, lanes) in cases.into_iter().enumerate() {
            sm_new.account_warp(&dev, &mut l2_new, &warp(&lanes));
            oracle::account_warp(&mut sm_old, &dev, &mut l2_old, &lanes);
            assert_sm_eq(&sm_new, &sm_old, trial);
            assert_eq!(l2_new.stats(), l2_old.stats(), "l2 stats, trial {trial}");
        }
    }
}
