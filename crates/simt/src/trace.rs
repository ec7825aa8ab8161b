//! Per-warp memory operation traces.
//!
//! The executor runs each thread functionally while recording the memory
//! operations it issues; the timing model then replays the warp's lanes
//! side by side to model coalescing, caching and atomic serialization.
//!
//! Traces are stored as one flat structure-of-arrays per warp
//! ([`WarpTrace`]): a single `ops` vector holding every lane's operations
//! back to back, per-lane start offsets, and per-lane ALU counters. This
//! replaces the earlier per-lane `LaneTrace` vectors: one allocation
//! instead of 32, no per-thread buffer swapping in the executor, and
//! slot-major replay walks memory that was written contiguously. Recording
//! an op is a single push; the replay's gather derives each slot's *kind
//! summary* in the same pass that collects the slot's addresses, so
//! kind-uniform slots (the overwhelmingly common case) take a single
//! pass. Traces live only for the duration of one warp and their
//! allocations are reused, so memory stays O(warp work), not O(kernel
//! work).

/// Upper bound on lanes per warp supported by the trace/replay scratch
/// buffers. Every modeled device uses 32-lane warps.
pub const MAX_WARP_LANES: usize = 32;

/// The kind of a traced device-memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Normal global load (`ld`): DRAM → L2 → registers (Kepler does not
    /// cache global loads in L1).
    Ld,
    /// Read-only cache load (`__ldg`): DRAM → L2 → read-only L1 →
    /// registers.
    Ldg,
    /// Global store (write-through to L2).
    St,
    /// Atomic read-modify-write performed at the L2 / Atomic Operation
    /// Unit.
    Atomic,
    /// Local-memory access (register spill / the per-thread `colorMask`
    /// array); L1-cached on Kepler.
    Local,
    /// Shared-memory (scratchpad) access; banked, conflict-prone.
    Smem,
}

/// Replay order of op kinds at a divergent slot. The serialized-replay
/// fallback charges one warp access per kind present, in this order; it
/// must stay stable because cache state (and therefore modeled cycles)
/// depends on probe order.
pub const KIND_ORDER: [OpKind; 6] = [
    OpKind::Ld,
    OpKind::Ldg,
    OpKind::St,
    OpKind::Atomic,
    OpKind::Local,
    OpKind::Smem,
];

impl OpKind {
    /// This kind's bit in a slot summary mask (`KIND_ORDER` position).
    #[inline]
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Inverse of [`OpKind::bit`] for single-bit masks.
    #[inline]
    pub fn from_bit(mask: u8) -> OpKind {
        debug_assert_eq!(mask.count_ones(), 1);
        KIND_ORDER[mask.trailing_zeros() as usize]
    }
}

/// One traced operation: kind + word address (byte address = 4 × addr).
/// Local ops carry a meaningless address (0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Operation kind.
    pub kind: OpKind,
    /// Word address in the global arena.
    pub addr: u32,
}

/// The trace of one warp: every lane's memory ops in one flat vector
/// (lane-major), per-lane offsets and ALU counts.
///
/// The executor drives it as: [`WarpTrace::reset`] at warp start, then per
/// thread [`WarpTrace::begin_lane`] followed by the thread's
/// [`WarpTrace::push`] / [`WarpTrace::add_alu`] calls. All buffers keep
/// their capacity across resets, so steady-state tracing allocates
/// nothing.
#[derive(Debug, Default, Clone)]
pub struct WarpTrace {
    /// Every lane's ops, concatenated in lane order.
    ops: Vec<Op>,
    /// `starts[l]` = offset of lane `l`'s first op in `ops`.
    starts: Vec<u32>,
    /// Arithmetic (non-memory) instructions executed, per lane.
    alu: Vec<u64>,
}

impl WarpTrace {
    /// Clears the trace for reuse without freeing its allocations.
    #[inline]
    pub fn reset(&mut self) {
        self.ops.clear();
        self.starts.clear();
        self.alu.clear();
    }

    /// Starts recording the next lane. Subsequent [`WarpTrace::push`] /
    /// [`WarpTrace::add_alu`] calls account to this lane.
    #[inline]
    pub fn begin_lane(&mut self) {
        assert!(self.alu.len() < MAX_WARP_LANES, "warp has at most 32 lanes");
        self.starts.push(self.ops.len() as u32);
        self.alu.push(0);
    }

    /// Records one memory op for the current lane.
    #[inline]
    pub fn push(&mut self, op: Op) {
        debug_assert!(!self.starts.is_empty(), "push before begin_lane");
        self.ops.push(op);
    }

    /// Charges `n` ALU instructions to the current lane.
    #[inline]
    pub fn add_alu(&mut self, n: u64) {
        debug_assert!(!self.alu.is_empty(), "add_alu before begin_lane");
        *self.alu.last_mut().unwrap() += n;
    }

    /// Number of lanes recorded so far.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.alu.len()
    }

    /// Lane `l`'s ops in program order.
    #[inline]
    pub fn lane_ops(&self, l: usize) -> &[Op] {
        let (start, end) = self.lane_span(l);
        &self.ops[start..end]
    }

    /// Lane `l`'s `[start, end)` range within [`WarpTrace::flat_ops`].
    #[inline]
    pub fn lane_span(&self, l: usize) -> (usize, usize) {
        let start = self.starts[l] as usize;
        let end = self
            .starts
            .get(l + 1)
            .map_or(self.ops.len(), |&s| s as usize);
        (start, end)
    }

    /// All lanes' ops as one flat lane-major slice (replay hot path;
    /// index it with [`WarpTrace::lane_span`] offsets).
    #[inline]
    pub fn flat_ops(&self) -> &[Op] {
        &self.ops
    }

    /// Lane `l`'s ALU instruction count.
    #[inline]
    pub fn lane_alu(&self, l: usize) -> u64 {
        self.alu[l]
    }

    /// The warp's compute issue cost: the longest lane runs to completion
    /// while shorter lanes are masked off (SIMT lockstep).
    #[inline]
    pub fn max_alu(&self) -> u64 {
        self.alu.iter().copied().max().unwrap_or(0)
    }

    /// Longest lane's op count — the number of warp-level op slots.
    #[inline]
    pub fn max_ops(&self) -> usize {
        (0..self.lanes())
            .map(|l| {
                let (start, end) = self.lane_span(l);
                end - start
            })
            .max()
            .unwrap_or(0)
    }

    /// Total ops across all lanes (the SIMD-efficiency numerator).
    #[inline]
    pub fn total_ops(&self) -> usize {
        self.ops.len()
    }

    /// OR of [`OpKind::bit`] over the k-th op of every lane that has one.
    /// A single set bit means the slot is kind-uniform.
    pub fn slot_kind_mask(&self, k: usize) -> u8 {
        (0..self.lanes())
            .filter_map(|l| self.lane_ops(l).get(k))
            .fold(0, |mask, op| mask | op.kind.bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, addr: u32) -> Op {
        Op { kind, addr }
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut t = WarpTrace::default();
        t.begin_lane();
        for i in 0..100 {
            t.push(op(OpKind::Ld, i));
        }
        t.add_alu(5);
        let cap = (t.ops.capacity(), t.starts.capacity(), t.alu.capacity());
        t.reset();
        assert_eq!(t.lanes(), 0);
        assert_eq!(t.total_ops(), 0);
        assert_eq!(t.max_ops(), 0);
        assert_eq!(
            (t.ops.capacity(), t.starts.capacity(), t.alu.capacity()),
            cap
        );
    }

    #[test]
    fn lane_boundaries_and_alu() {
        let mut t = WarpTrace::default();
        t.begin_lane();
        t.push(op(OpKind::Ld, 10));
        t.push(op(OpKind::St, 11));
        t.add_alu(3);
        t.begin_lane();
        t.push(op(OpKind::Ld, 20));
        t.add_alu(2);
        t.add_alu(1);
        t.begin_lane(); // empty lane (early-returning thread)

        assert_eq!(t.lanes(), 3);
        assert_eq!(t.lane_ops(0), &[op(OpKind::Ld, 10), op(OpKind::St, 11)]);
        assert_eq!(t.lane_ops(1), &[op(OpKind::Ld, 20)]);
        assert_eq!(t.lane_ops(2), &[]);
        assert_eq!(t.lane_alu(0), 3);
        assert_eq!(t.lane_alu(1), 3);
        assert_eq!(t.lane_alu(2), 0);
        assert_eq!(t.max_alu(), 3);
        assert_eq!(t.max_ops(), 2);
        assert_eq!(t.total_ops(), 3);
    }

    #[test]
    fn slot_kind_summary_tracks_uniformity() {
        let mut t = WarpTrace::default();
        t.begin_lane();
        t.push(op(OpKind::Ld, 0));
        t.push(op(OpKind::St, 1));
        t.begin_lane();
        t.push(op(OpKind::Ld, 2));
        t.push(op(OpKind::Atomic, 3));

        // Slot 0: both lanes issued Ld — uniform.
        assert_eq!(t.slot_kind_mask(0), OpKind::Ld.bit());
        // Slot 1: St in lane 0, Atomic in lane 1 — divergent.
        assert_eq!(t.slot_kind_mask(1), OpKind::St.bit() | OpKind::Atomic.bit());
    }

    #[test]
    fn kind_bits_roundtrip() {
        for kind in KIND_ORDER {
            assert_eq!(OpKind::from_bit(kind.bit()), kind);
        }
    }

    #[test]
    fn kind_bits_match_kind_order_positions() {
        // The sanitizer (and the replay fallback) rely on the exact
        // bit-per-kind layout: bit k of a slot mask is KIND_ORDER[k].
        assert_eq!(OpKind::Ld.bit(), 0b000001);
        assert_eq!(OpKind::Ldg.bit(), 0b000010);
        assert_eq!(OpKind::St.bit(), 0b000100);
        assert_eq!(OpKind::Atomic.bit(), 0b001000);
        assert_eq!(OpKind::Local.bit(), 0b010000);
        assert_eq!(OpKind::Smem.bit(), 0b100000);
        // Every kind maps to a distinct single bit.
        let mut seen = 0u8;
        for kind in KIND_ORDER {
            assert_eq!(kind.bit().count_ones(), 1);
            assert_eq!(seen & kind.bit(), 0, "duplicate bit for {kind:?}");
            seen |= kind.bit();
        }
        assert_eq!(seen, 0b111111);
    }

    #[test]
    fn slot_kind_summary_mixed_slots_over_many_lanes() {
        let mut t = WarpTrace::default();
        // Lane 0: Ld, Ldg, St   — three slots.
        t.begin_lane();
        t.push(op(OpKind::Ld, 0));
        t.push(op(OpKind::Ldg, 1));
        t.push(op(OpKind::St, 2));
        // Lane 1: Ld, Local     — shorter lane.
        t.begin_lane();
        t.push(op(OpKind::Ld, 3));
        t.push(op(OpKind::Local, 0));
        // Lane 2: Smem, Ldg, Atomic.
        t.begin_lane();
        t.push(op(OpKind::Smem, 0));
        t.push(op(OpKind::Ldg, 4));
        t.push(op(OpKind::Atomic, 5));

        // Slot 0: Ld | Ld | Smem.
        assert_eq!(t.slot_kind_mask(0), OpKind::Ld.bit() | OpKind::Smem.bit());
        // Slot 1: Ldg | Local | Ldg.
        assert_eq!(t.slot_kind_mask(1), OpKind::Ldg.bit() | OpKind::Local.bit());
        // Slot 2: St | (lane 1 ended) | Atomic — absent lanes contribute
        // nothing.
        assert_eq!(t.slot_kind_mask(2), OpKind::St.bit() | OpKind::Atomic.bit());
        // A uniform mask round-trips to its kind; a mixed one is multi-bit.
        assert_eq!(OpKind::from_bit(OpKind::Ld.bit()), OpKind::Ld);
        assert!(t.slot_kind_mask(0).count_ones() > 1);
    }
}
