//! Set-associative LRU cache model, used for both the per-SM read-only
//! data cache and the chip-wide L2.
//!
//! The model is deterministic and content-free: it tracks line *addresses*
//! only. The paper's `__ldg` optimization (Fig. 4) is reproduced by giving
//! `Ldg` ops a probe path through this cache before L2, while plain `ld`
//! ops bypass it — exactly the Kepler behavior §III-C describes.
//!
//! ## Representation
//!
//! Recency is encoded *positionally*: each set's ways are stored MRU→LRU
//! in a contiguous run of `u32` tags. A hit rotates the line to the front
//! of its set; a miss evicts the last (= least recently used) way and
//! inserts at the front. This is observably identical to the classic
//! stamp-based true-LRU formulation (same hit/miss sequence for any
//! access stream — see the `matches_stamp_based_reference` test) but a
//! 16-way set is a single 64-byte host cache line, so the simulator-side
//! probe — the hottest operation in warp replay — touches one line where
//! the tags+stamps layout touched three.

/// Tag value of an empty way. Real line addresses stay below it: device
/// byte addresses come from u32 *word* addresses (< 2^34 bytes) and lines
/// are ≥ 32 bytes, so line numbers fit in well under 30 bits.
const INVALID_TAG: u32 = u32::MAX;

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    /// log2(line size in bytes).
    line_shift: u32,
    num_sets: usize,
    ways: usize,
    /// `tags[set * ways ..][..ways]`, each set ordered MRU→LRU;
    /// [`INVALID_TAG`] marks an empty way (empty ways sink to the back and
    /// are always evicted before any valid line).
    tags: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `size_bytes` with `line_bytes` lines and `ways`
    /// associativity. Sizes are rounded down to the nearest valid
    /// power-of-two set count; a degenerate size yields a 1-set cache.
    pub fn new(size_bytes: u32, line_bytes: u32, ways: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(ways >= 1);
        let lines = (size_bytes / line_bytes).max(1);
        let desired = (lines / ways).max(1);
        // Largest power of two ≤ desired (sets must be a power of two for
        // mask indexing).
        let sets = if desired.is_power_of_two() {
            desired
        } else {
            desired.next_power_of_two() / 2
        };
        let num_sets = sets.max(1) as usize;
        let ways = ways as usize;
        Self {
            line_shift: line_bytes.trailing_zeros(),
            num_sets,
            ways,
            tags: vec![INVALID_TAG; num_sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Line address (byte address >> line_shift).
    #[inline]
    pub fn line_of(&self, byte_addr: u64) -> u64 {
        byte_addr >> self.line_shift
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        1u64 << self.line_shift
    }

    /// Probes (and on miss, fills) the line containing `byte_addr`.
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, byte_addr: u64) -> bool {
        let line64 = self.line_of(byte_addr);
        debug_assert!(line64 < INVALID_TAG as u64, "address beyond tag range");
        let line = line64 as u32;
        let set = (line64 as usize) & (self.num_sets - 1);
        let ways = self.ways;
        let set_tags = &mut self.tags[set * ways..set * ways + ways];
        // MRU-first scan (a contiguous u32 run the compiler vectorizes).
        let mut w = 0;
        while w < ways && set_tags[w] != line {
            w += 1;
        }
        let hit = w < ways;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            w = ways - 1; // evict the LRU (last) way
        }
        // Rotate ways 0..w one step back and put `line` at the MRU front.
        set_tags.copy_within(0..w, 1);
        set_tags[0] = line;
        hit
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total capacity in bytes actually modeled (after rounding).
    pub fn capacity_bytes(&self) -> u64 {
        (self.num_sets * self.ways) as u64 * self.line_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = Cache::new(1024, 128, 2);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(64)); // same 128B line
        assert!(!c.access(128)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 sets x 2 ways of 128B lines = 512B. Lines mapping to set 0:
        // byte addresses 0, 256, 512, ...
        let mut c = Cache::new(512, 128, 2);
        assert_eq!(c.capacity_bytes(), 512);
        assert!(!c.access(0)); // set 0, line 0
        assert!(!c.access(256)); // set 0, line 2
        assert!(c.access(0)); // refresh line 0
        assert!(!c.access(512)); // set 0, line 4 — evicts line 2 (LRU)
        assert!(c.access(0)); // line 0 still resident
        assert!(!c.access(256)); // line 2 was evicted
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(1024, 32, 4);
        // Stream 4 KiB twice: second pass still misses (capacity).
        for pass in 0..2 {
            for addr in (0..4096u64).step_by(32) {
                let hit = c.access(addr);
                if pass == 0 {
                    assert!(!hit);
                }
            }
        }
        let (hits, misses) = c.stats();
        assert_eq!(hits, 0, "LRU streaming working set 4x capacity never hits");
        assert_eq!(misses, 256);
    }

    #[test]
    fn working_set_smaller_than_capacity_hits() {
        let mut c = Cache::new(4096, 32, 4);
        for _ in 0..3 {
            for addr in (0..2048u64).step_by(32) {
                c.access(addr);
            }
        }
        let (hits, misses) = c.stats();
        assert_eq!(misses, 64, "only compulsory misses");
        assert_eq!(hits, 128);
    }

    #[test]
    fn degenerate_tiny_cache() {
        let mut c = Cache::new(32, 32, 1);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(!c.access(32));
        assert!(!c.access(0)); // evicted by the single-line cache
    }

    /// The stamp-based true-LRU formulation this cache used before recency
    /// became positional; kept as the reference the fast path must match.
    struct StampLru {
        line_shift: u32,
        num_sets: usize,
        ways: usize,
        tags: Vec<Option<u64>>,
        stamps: Vec<u64>,
        tick: u64,
    }

    impl StampLru {
        fn like(c: &Cache) -> Self {
            Self {
                line_shift: c.line_shift,
                num_sets: c.num_sets,
                ways: c.ways,
                tags: vec![None; c.num_sets * c.ways],
                stamps: vec![0; c.num_sets * c.ways],
                tick: 0,
            }
        }

        fn access(&mut self, byte_addr: u64) -> bool {
            let line = byte_addr >> self.line_shift;
            let set = (line as usize) & (self.num_sets - 1);
            let base = set * self.ways;
            self.tick += 1;
            for w in 0..self.ways {
                if self.tags[base + w] == Some(line) {
                    self.stamps[base + w] = self.tick;
                    return true;
                }
            }
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.ways {
                let s = if self.tags[base + w].is_none() {
                    0
                } else {
                    self.stamps[base + w]
                };
                if s < oldest {
                    oldest = s;
                    victim = w;
                }
            }
            self.tags[base + victim] = Some(line);
            self.stamps[base + victim] = self.tick;
            false
        }
    }

    /// splitmix64, to keep this test dependency-free.
    fn rng(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_stamp_based_reference() {
        for (size, line, ways, addr_space) in [
            (1 << 15, 32, 16, 1u64 << 17), // L2-slice-like, thrashing
            (48 << 10, 128, 4, 1 << 16),   // RO-cache-like, mostly hitting
            (512, 32, 2, 1 << 12),
            (32, 32, 1, 1 << 8),
        ] {
            let mut fast = Cache::new(size, line, ways);
            let mut reference = StampLru::like(&fast);
            let mut state = 0xC0FFEEu64 ^ (size as u64);
            // Mix of random and strided (warp-like) addresses.
            for i in 0..200_000u64 {
                let a = if i % 3 == 0 {
                    (i * 4) % addr_space
                } else {
                    rng(&mut state) % addr_space
                };
                assert_eq!(
                    fast.access(a),
                    reference.access(a),
                    "diverged at access {i} (addr {a}, geometry {size}/{line}/{ways})"
                );
            }
        }
    }
}
