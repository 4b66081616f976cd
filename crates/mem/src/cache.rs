//! A set-associative cache with the MBPTA-style randomization of the
//! paper's platform: random placement (randomized index hash, reseeded per
//! run) and random replacement.

use crate::MemError;
use sim_core::rng::SimRng;

/// Placement (indexing) function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Conventional modulo indexing (`line_addr % sets`).
    Modulo,
    /// Random placement: a per-seed hash of the line address picks the set.
    /// Reseeding ([`SetAssocCache::reseed`]) re-randomizes the mapping, the
    /// per-run randomization MBPTA requires.
    Random,
}

/// Replacement victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Uniform random way (the platform's policy; memoryless, so no
    /// history state is needed).
    Random,
    /// Least-recently-used (provided for comparison experiments).
    Lru,
}

/// Write handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write-through, no write-allocate (the platform's L1D): stores update
    /// a hitting line but never allocate, and always propagate downstream.
    WriteThrough,
    /// Write-back, write-allocate (the platform's L2): stores allocate and
    /// dirty the line; evicting a dirty line costs a memory write-back.
    WriteBack,
}

/// Geometry and policies of one cache (or one L2 partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Placement function.
    pub placement: Placement,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] unless `sets` and `line_bytes`
    /// are non-zero powers of two and `ways >= 1`.
    pub fn validate(&self) -> Result<(), MemError> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(MemError::InvalidConfig(format!(
                "sets must be a power of two, got {}",
                self.sets
            )));
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(MemError::InvalidConfig(format!(
                "line_bytes must be a power of two, got {}",
                self.line_bytes
            )));
        }
        if self.ways == 0 {
            return Err(MemError::InvalidConfig("ways must be at least 1".into()));
        }
        Ok(())
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }

    /// The platform L1 (4 KiB, 4-way, 16-byte lines, random placement and
    /// replacement, write-through).
    pub fn paper_l1() -> Self {
        CacheConfig {
            sets: 64,
            ways: 4,
            line_bytes: 16,
            placement: Placement::Random,
            replacement: Replacement::Random,
            write_policy: WritePolicy::WriteThrough,
        }
    }

    /// One core's partition of the platform L2 (32 KiB, 4-way, 16-byte
    /// lines, random placement and replacement, write-back).
    pub fn paper_l2_partition() -> Self {
        CacheConfig {
            sets: 512,
            ways: 4,
            line_bytes: 16,
            placement: Placement::Random,
            replacement: Replacement::Random,
            write_policy: WritePolicy::WriteBack,
        }
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// On an allocating miss: whether the evicted victim was dirty (drives
    /// the write-back cost in the latency model).
    pub victim_dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp (unused under random replacement).
    stamp: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    stamp: 0,
};

/// A set-associative cache.
///
/// # Example
///
/// ```
/// use cba_mem::{CacheConfig, SetAssocCache};
/// use sim_core::rng::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let mut l1 = SetAssocCache::new(CacheConfig::paper_l1(), &mut rng)?;
/// let miss = l1.read(0x4000, &mut rng);
/// assert!(!miss.hit);
/// let hit = l1.read(0x4008, &mut rng); // same 16-byte line
/// assert!(hit.hit);
/// # Ok::<(), cba_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `log2(line_bytes)`: an address's line is `addr >> line_shift`.
    line_shift: u32,
    /// `sets - 1`: a hash's set is `hash & set_mask`.
    set_mask: u64,
    lines: Vec<Line>,
    seed: u64,
    tick: u64,
    // Statistics.
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache; random placement draws its hash seed from
    /// `rng`.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheConfig::validate`] failures.
    pub fn new(config: CacheConfig, rng: &mut SimRng) -> Result<Self, MemError> {
        config.validate()?;
        // Both are validated powers of two, so shift and mask divide and
        // reduce exactly.
        Ok(SetAssocCache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.sets as u64 - 1,
            lines: vec![INVALID; config.sets * config.ways],
            seed: rng.next_u64(),
            tick: 0,
            hits: 0,
            misses: 0,
            config,
        })
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all accesses so far (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Invalidates all lines and re-draws the placement seed: the start of
    /// a fresh MBPTA run.
    pub fn reseed(&mut self, rng: &mut SimRng) {
        self.lines.fill(INVALID);
        self.seed = rng.next_u64();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }

    #[inline]
    fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        match self.config.placement {
            Placement::Modulo => (line_addr & self.set_mask) as usize,
            Placement::Random => {
                // splitmix-style seeded hash: a different seed yields an
                // (effectively) independent placement function.
                let mut z = line_addr ^ self.seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                (z & self.set_mask) as usize
            }
        }
    }

    #[inline]
    fn probe(&mut self, addr: u64) -> (usize, Option<usize>) {
        let line_addr = self.line_addr(addr);
        let set = self.set_of(line_addr);
        let base = set * self.config.ways;
        let way = (0..self.config.ways)
            .find(|&w| self.lines[base + w].valid && self.lines[base + w].tag == line_addr);
        (set, way)
    }

    fn victim_way(&self, set: usize, rng: &mut SimRng) -> usize {
        let base = set * self.config.ways;
        // Prefer an invalid way.
        if let Some(w) = (0..self.config.ways).find(|&w| !self.lines[base + w].valid) {
            return w;
        }
        match self.config.replacement {
            Replacement::Random => rng.gen_range_usize(0..self.config.ways),
            Replacement::Lru => (0..self.config.ways)
                .min_by_key(|&w| self.lines[base + w].stamp)
                .expect("ways >= 1"),
        }
    }

    /// Reads `addr`. On a miss the line is allocated (victimizing per the
    /// replacement policy); the outcome reports whether the victim was
    /// dirty.
    pub fn read(&mut self, addr: u64, rng: &mut SimRng) -> CacheOutcome {
        self.tick += 1;
        let (set, way) = self.probe(addr);
        match way {
            Some(w) => {
                self.hits += 1;
                self.lines[set * self.config.ways + w].stamp = self.tick;
                CacheOutcome {
                    hit: true,
                    victim_dirty: false,
                }
            }
            None => {
                self.misses += 1;
                let tag = self.line_addr(addr);
                let w = self.victim_way(set, rng);
                let slot = &mut self.lines[set * self.config.ways + w];
                let victim_dirty = slot.valid && slot.dirty;
                *slot = Line {
                    tag,
                    valid: true,
                    dirty: false,
                    stamp: self.tick,
                };
                CacheOutcome {
                    hit: false,
                    victim_dirty,
                }
            }
        }
    }

    /// Writes `addr`.
    ///
    /// * Write-through: a hit updates the line (clean — the write
    ///   propagates downstream anyway); a miss does not allocate.
    /// * Write-back: a hit dirties the line; a miss allocates and dirties
    ///   it, reporting a dirty victim if one was evicted.
    pub fn write(&mut self, addr: u64, rng: &mut SimRng) -> CacheOutcome {
        self.tick += 1;
        let (set, way) = self.probe(addr);
        match (way, self.config.write_policy) {
            (Some(w), policy) => {
                self.hits += 1;
                let slot = &mut self.lines[set * self.config.ways + w];
                slot.stamp = self.tick;
                if policy == WritePolicy::WriteBack {
                    slot.dirty = true;
                }
                CacheOutcome {
                    hit: true,
                    victim_dirty: false,
                }
            }
            (None, WritePolicy::WriteThrough) => {
                self.misses += 1;
                CacheOutcome {
                    hit: false,
                    victim_dirty: false,
                }
            }
            (None, WritePolicy::WriteBack) => {
                self.misses += 1;
                let tag = self.line_addr(addr);
                let w = self.victim_way(set, rng);
                let slot = &mut self.lines[set * self.config.ways + w];
                let victim_dirty = slot.valid && slot.dirty;
                *slot = Line {
                    tag,
                    valid: true,
                    dirty: true,
                    stamp: self.tick,
                };
                CacheOutcome {
                    hit: false,
                    victim_dirty,
                }
            }
        }
    }

    /// Whether the line containing `addr` is currently cached (no state
    /// update; for tests and assertions).
    pub fn contains(&self, addr: u64) -> bool {
        let line_addr = self.line_addr(addr);
        let set = self.set_of(line_addr);
        let base = set * self.config.ways;
        (0..self.config.ways)
            .any(|w| self.lines[base + w].valid && self.lines[base + w].tag == line_addr)
    }

    /// Number of valid lines (for capacity assertions).
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(config: CacheConfig, seed: u64) -> (SetAssocCache, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let c = SetAssocCache::new(config, &mut rng).unwrap();
        (c, rng)
    }

    fn small(placement: Placement, replacement: Replacement, wp: WritePolicy) -> CacheConfig {
        CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 16,
            placement,
            replacement,
            write_policy: wp,
        }
    }

    #[test]
    fn geometry_validation() {
        let mut bad = CacheConfig::paper_l1();
        bad.sets = 3;
        assert!(bad.validate().is_err());
        bad = CacheConfig::paper_l1();
        bad.ways = 0;
        assert!(bad.validate().is_err());
        bad = CacheConfig::paper_l1();
        bad.line_bytes = 24;
        assert!(bad.validate().is_err());
        assert!(CacheConfig::paper_l1().validate().is_ok());
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1().capacity_bytes(), 4 * 1024);
        assert_eq!(
            CacheConfig::paper_l2_partition().capacity_bytes(),
            32 * 1024
        );
    }

    #[test]
    fn miss_then_hit_same_line() {
        let (mut c, mut rng) = mk(CacheConfig::paper_l1(), 7);
        assert!(!c.read(0x100, &mut rng).hit);
        assert!(c.read(0x10f, &mut rng).hit, "same 16-byte line");
        assert!(!c.read(0x110, &mut rng).hit, "next line misses");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn write_through_does_not_allocate() {
        let cfg = small(
            Placement::Modulo,
            Replacement::Lru,
            WritePolicy::WriteThrough,
        );
        let (mut c, mut rng) = mk(cfg, 3);
        assert!(!c.write(0x40, &mut rng).hit);
        assert!(!c.contains(0x40), "WT miss must not allocate");
        // After a read allocates, a write hits and leaves the line clean.
        c.read(0x40, &mut rng);
        assert!(c.write(0x40, &mut rng).hit);
        // Evicting it must not report dirty.
        // Fill the set: modulo placement, sets=4, line 16 -> stride 64.
        let conflicting = [0x40 + 64, 0x40 + 128];
        for a in conflicting {
            c.read(a, &mut rng);
        }
        // 2 ways: 0x40 got evicted by LRU on the second conflict.
        assert!(!c.contains(0x40));
    }

    #[test]
    fn write_back_allocates_and_dirty_eviction_reports() {
        let cfg = small(Placement::Modulo, Replacement::Lru, WritePolicy::WriteBack);
        let (mut c, mut rng) = mk(cfg, 3);
        assert!(!c.write(0x40, &mut rng).hit);
        assert!(c.contains(0x40), "WB miss allocates");
        // Fill both ways of the set, then evict the dirty line.
        c.read(0x40 + 64, &mut rng);
        let out = c.read(0x40 + 128, &mut rng);
        assert!(!out.hit);
        assert!(out.victim_dirty, "evicted line was dirtied by the write");
    }

    #[test]
    fn clean_eviction_not_reported_dirty() {
        let cfg = small(Placement::Modulo, Replacement::Lru, WritePolicy::WriteBack);
        let (mut c, mut rng) = mk(cfg, 3);
        c.read(0x40, &mut rng);
        c.read(0x40 + 64, &mut rng);
        let out = c.read(0x40 + 128, &mut rng);
        assert!(!out.hit);
        assert!(!out.victim_dirty);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = small(Placement::Modulo, Replacement::Lru, WritePolicy::WriteBack);
        let (mut c, mut rng) = mk(cfg, 3);
        c.read(0x40, &mut rng); // way A
        c.read(0x40 + 64, &mut rng); // way B
        c.read(0x40, &mut rng); // touch A -> B is LRU
        c.read(0x40 + 128, &mut rng); // evicts B
        assert!(c.contains(0x40));
        assert!(!c.contains(0x40 + 64));
    }

    #[test]
    fn random_placement_varies_with_seed() {
        // The same conflict-heavy address stream produces different miss
        // counts under different placement seeds — the per-run variability
        // MBPTA feeds on.
        let cfg = CacheConfig {
            sets: 16,
            ways: 1,
            line_bytes: 16,
            placement: Placement::Random,
            replacement: Replacement::Random,
            write_policy: WritePolicy::WriteBack,
        };
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 256).collect();
        let mut miss_counts = std::collections::HashSet::new();
        for seed in 0..16 {
            let (mut c, mut rng) = mk(cfg, seed);
            let mut misses = 0;
            for _ in 0..4 {
                for &a in &addrs {
                    if !c.read(a, &mut rng).hit {
                        misses += 1;
                    }
                }
            }
            miss_counts.insert(misses);
        }
        assert!(
            miss_counts.len() > 1,
            "placement must vary across seeds: {miss_counts:?}"
        );
    }

    #[test]
    fn reseed_invalidates_and_rerandomizes() {
        let (mut c, mut rng) = mk(CacheConfig::paper_l1(), 9);
        c.read(0x1000, &mut rng);
        assert!(c.contains(0x1000));
        c.reseed(&mut rng);
        assert!(!c.contains(0x1000));
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn hit_rate_accounting() {
        let (mut c, mut rng) = mk(CacheConfig::paper_l1(), 11);
        assert_eq!(c.hit_rate(), 0.0);
        c.read(0x0, &mut rng);
        c.read(0x0, &mut rng);
        c.read(0x0, &mut rng);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// The set and tag of `addr` by division, as the cache computed them
    /// before it precomputed a shift and a mask.
    fn reference_set_and_tag(c: &SetAssocCache, addr: u64) -> (usize, u64) {
        let line = addr / c.config.line_bytes as u64;
        let hash = match c.config.placement {
            Placement::Modulo => line,
            Placement::Random => {
                let mut z = line ^ c.seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
        };
        ((hash % c.config.sets as u64) as usize, line)
    }

    #[test]
    fn set_index_and_tag_match_the_division_reference() {
        let memory = crate::MemoryConfig::default().hierarchy();
        let hierarchies = [crate::HierarchyConfig::paper(), memory];
        let shipped = hierarchies
            .iter()
            .flat_map(|h| [h.l1i, h.l1d, h.l2_partition]);
        let swept = (0..=12).flat_map(|k| {
            [1, 16, 64].map(|line_bytes| CacheConfig {
                sets: 1 << k,
                line_bytes,
                ..CacheConfig::paper_l1()
            })
        });
        let mut addrs = SimRng::seed_from(23);
        for base in shipped.chain(swept) {
            for placement in [Placement::Random, Placement::Modulo] {
                let cfg = CacheConfig { placement, ..base };
                let (c, _) = mk(cfg, cfg.sets as u64);
                for i in 0..2_000u64 {
                    let addr = match i {
                        0..=99 => i,
                        100..=199 => u64::MAX - i,
                        _ => addrs.next_u64() >> (i % 64),
                    };
                    let line = c.line_addr(addr);
                    let got = (c.set_of(line), line);
                    assert_eq!(got, reference_set_and_tag(&c, addr), "{cfg:?} at {addr:#x}");
                }
            }
        }
    }

    /// Valid lines never exceed capacity, and immediate re-reads always
    /// hit, under randomized access streams and every policy combination.
    /// (Seed-driven in place of proptest; each case reproducible from its
    /// seed.)
    #[test]
    fn capacity_and_rehit_invariants() {
        for seed in 0..64u64 {
            let mut gen = SimRng::seed_from(seed ^ 0x5eed_cafe);
            let cfg = CacheConfig {
                sets: 8,
                ways: 2,
                line_bytes: 16,
                placement: if gen.gen_bool(0.5) {
                    Placement::Random
                } else {
                    Placement::Modulo
                },
                replacement: if gen.gen_bool(0.5) {
                    Replacement::Random
                } else {
                    Replacement::Lru
                },
                write_policy: if gen.gen_bool(0.5) {
                    WritePolicy::WriteBack
                } else {
                    WritePolicy::WriteThrough
                },
            };
            let n_accesses = gen.gen_range_usize(1..400);
            let mut rng = SimRng::seed_from(seed);
            let mut c = SetAssocCache::new(cfg, &mut rng).unwrap();
            for _ in 0..n_accesses {
                let a = gen.gen_range_u64(0..0x8000);
                if gen.gen_bool(0.5) {
                    c.write(a, &mut rng);
                } else {
                    c.read(a, &mut rng);
                }
                assert!(c.valid_lines() <= cfg.sets * cfg.ways, "seed {seed}");
                // A line present after the access must hit on re-read.
                if c.contains(a) {
                    assert!(c.read(a, &mut rng).hit, "seed {seed}, addr {a:#x}");
                }
            }
        }
    }
}
