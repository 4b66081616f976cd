//! The parameterized synthetic benchmark generator.

use cba_cpu::{Op, Program};
use cba_mem::MemAccess;
use sim_core::rng::SimRng;

/// Parameters of one synthetic EEMBC-like benchmark.
///
/// A run alternates **bursts** of memory accesses with **inter-burst
/// compute gaps**:
///
/// ```text
/// [gap] a a a a a a [gap] a a a [gap] ...
///       '--burst--'       burst
/// ```
///
/// Each access within a burst is separated by a small compute gap drawn
/// uniformly from `within_gap`; bursts contain `burst_len` accesses
/// (uniform); inter-burst gaps are exponential-ish with mean
/// `between_gap_mean`. Addresses walk sequentially with a 16-byte stride
/// through a `working_set`-byte region, except a `p_random` fraction that
/// jump uniformly inside the region (conflict/cache-sensitivity dial).
#[derive(Debug, Clone, PartialEq)]
pub struct EembcProfile {
    /// Benchmark name (stable key for reports).
    pub name: &'static str,
    /// Total memory accesses per run.
    pub accesses: u64,
    /// Data working-set size in bytes.
    pub working_set: u64,
    /// Fraction of accesses at uniformly random offsets (vs sequential
    /// walk).
    pub p_random: f64,
    /// Fraction of accesses that are stores.
    pub p_store: f64,
    /// Fraction of accesses that are atomic read-modify-writes.
    pub p_atomic: f64,
    /// Fraction of accesses that are instruction fetches into `code_set`.
    pub p_ifetch: f64,
    /// Code working-set size in bytes (for instruction fetches).
    pub code_set: u64,
    /// Accesses per burst, inclusive range.
    pub burst_len: (u32, u32),
    /// Compute cycles between accesses within a burst, inclusive range.
    pub within_gap: (u32, u32),
    /// Mean compute cycles between bursts (exponential-ish, min 1).
    pub between_gap_mean: f64,
}

/// Compute-gap bounds of the initialization (warm-up) phase, cycles.
const WARMUP_GAP: (u32, u32) = (88, 128);

impl EembcProfile {
    /// Number of initialization accesses: one sequential touch per
    /// working-set line. Real benchmarks initialize their inputs with
    /// ordinary (low-IPC-pressure) code before the hot kernel; modeling
    /// this phase keeps compulsory cache misses from masquerading as
    /// kernel-phase behaviour in runs that are far shorter than the
    /// FPGA originals.
    pub fn warmup_accesses(&self) -> u64 {
        self.working_set / 16
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.accesses == 0 {
            return Err("accesses must be positive".into());
        }
        if self.working_set < 64 {
            return Err("working_set must be at least 64 bytes".into());
        }
        for (what, p) in [
            ("p_random", self.p_random),
            ("p_store", self.p_store),
            ("p_atomic", self.p_atomic),
            ("p_ifetch", self.p_ifetch),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{what} must be in [0,1], got {p}"));
            }
        }
        if self.p_store + self.p_atomic + self.p_ifetch > 1.0 {
            return Err("p_store + p_atomic + p_ifetch must not exceed 1".into());
        }
        if self.burst_len.0 == 0 || self.burst_len.0 > self.burst_len.1 {
            return Err(format!("burst_len range invalid: {:?}", self.burst_len));
        }
        if self.within_gap.0 > self.within_gap.1 {
            return Err(format!("within_gap range invalid: {:?}", self.within_gap));
        }
        if self.between_gap_mean < 1.0 {
            return Err("between_gap_mean must be at least 1".into());
        }
        if self.p_ifetch > 0.0 && self.code_set < 64 {
            return Err("code_set must be at least 64 bytes when p_ifetch > 0".into());
        }
        Ok(())
    }
}

/// The generator driving an [`EembcProfile`] — a randomized
/// [`Program`].
///
/// Address streams and gap draws use the per-run RNG stream the core
/// provides, so every run re-randomizes (together with the cache placement
/// seeds) exactly as MBPTA prescribes.
///
/// # Example
///
/// ```
/// use cba_cpu::{Op, Program};
/// use cba_workloads::{suite, SyntheticEembc};
/// use sim_core::rng::SimRng;
///
/// let profile = suite::matrix();
/// let expected = profile.accesses + profile.warmup_accesses();
/// let mut gen = SyntheticEembc::new(profile);
/// let mut rng = SimRng::seed_from(1);
/// let mut accesses = 0;
/// while let Some(op) = gen.next_op(&mut rng) {
///     if matches!(op, Op::Access(_)) { accesses += 1; }
/// }
/// assert_eq!(accesses, expected);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticEembc {
    profile: EembcProfile,
    /// Initialization accesses still to emit.
    warmup_left: u64,
    /// Kernel accesses still to emit.
    remaining: u64,
    /// Accesses left in the current burst.
    burst_left: u32,
    /// Sequential walk pointer (bytes).
    walk: u64,
    /// Code walk pointer.
    code_walk: u64,
    /// Pending compute gap to emit before the next access.
    pending_gap: Option<u32>,
    /// Whether the next gap is an inter-burst gap.
    need_burst_start: bool,
}

/// Data segment base address (arbitrary, distinct from code).
const DATA_BASE: u64 = 0x0010_0000;
/// Code segment base address.
const CODE_BASE: u64 = 0x0000_1000;
/// Sequential stride: one 16-byte line per step, matching the platform's
/// line size so a sequential walk misses L1 once per line.
const STRIDE: u64 = 16;

/// `(pos + step) % len` for a walk pointer `pos < len` and a `step` no
/// larger than `len` (the data and code sets are at least 64 bytes), by
/// compare and subtract: the sum stays below `2 * len`.
#[inline]
fn wrap_add(pos: u64, step: u64, len: u64) -> u64 {
    debug_assert!(pos < len && step <= len);
    let next = pos + step;
    if next >= len {
        next - len
    } else {
        next
    }
}

impl SyntheticEembc {
    /// Creates a generator for `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`EembcProfile::validate`].
    pub fn new(profile: EembcProfile) -> Self {
        if let Err(why) = profile.validate() {
            panic!("invalid profile {}: {why}", profile.name);
        }
        SyntheticEembc {
            warmup_left: profile.warmup_accesses(),
            remaining: profile.accesses,
            burst_left: 0,
            walk: 0,
            code_walk: 0,
            pending_gap: None,
            need_burst_start: true,
            profile,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &EembcProfile {
        &self.profile
    }

    fn draw_access(&mut self, rng: &mut SimRng) -> MemAccess {
        let p = &self.profile;
        let roll = rng.gen_f64();
        if roll < p.p_ifetch {
            // Instruction fetch: sequential walk through the code set with
            // occasional random jumps (branches).
            if rng.gen_bool(0.2) {
                self.code_walk = rng.gen_range_u64(0..p.code_set / 4) * 4;
            } else {
                self.code_walk = wrap_add(self.code_walk, 4, p.code_set);
            }
            return MemAccess::ifetch(CODE_BASE + self.code_walk);
        }
        let addr = if rng.gen_bool(p.p_random) {
            DATA_BASE + rng.gen_range_u64(0..p.working_set / 4) * 4
        } else {
            self.walk = wrap_add(self.walk, STRIDE, p.working_set);
            DATA_BASE + self.walk
        };
        if roll < p.p_ifetch + p.p_atomic {
            MemAccess::atomic(addr)
        } else if roll < p.p_ifetch + p.p_atomic + p.p_store {
            MemAccess::store(addr)
        } else {
            MemAccess::load(addr)
        }
    }

    fn uniform_in(&self, range: (u32, u32), rng: &mut SimRng) -> u32 {
        if range.0 == range.1 {
            range.0
        } else {
            range.0 + rng.gen_range_usize(0..(range.1 - range.0 + 1) as usize) as u32
        }
    }
}

impl Program for SyntheticEembc {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        if let Some(gap) = self.pending_gap.take() {
            return Some(Op::Compute(gap));
        }
        if self.warmup_left > 0 {
            // Initialization: touch the working set sequentially, one line
            // per access, sparsely enough that compulsory misses never
            // contend with the credit recovery window.
            self.warmup_left -= 1;
            let addr = DATA_BASE + self.walk;
            self.walk = wrap_add(self.walk, STRIDE, self.profile.working_set);
            self.pending_gap = Some(self.uniform_in(WARMUP_GAP, rng));
            let access = if rng.gen_bool(self.profile.p_store) {
                MemAccess::store(addr)
            } else {
                MemAccess::load(addr)
            };
            return Some(Op::Access(access));
        }
        if self.remaining == 0 {
            return None;
        }
        if self.burst_left == 0 {
            if self.need_burst_start {
                // Emit the inter-burst gap, then start the burst.
                self.need_burst_start = false;
                self.burst_left = self.uniform_in(self.profile.burst_len, rng);
                let gap = rng.gen_gap(self.profile.between_gap_mean);
                return Some(Op::Compute(gap));
            }
            self.burst_left = self.uniform_in(self.profile.burst_len, rng);
        }

        // Emit one access; queue the within-burst gap (if any) behind it.
        self.burst_left -= 1;
        self.remaining -= 1;
        if self.remaining > 0 {
            if self.burst_left == 0 {
                self.need_burst_start = true;
            } else {
                let gap = self.uniform_in(self.profile.within_gap, rng);
                if gap > 0 {
                    self.pending_gap = Some(gap);
                }
            }
        }
        Some(Op::Access(self.draw_access(rng)))
    }

    fn reset(&mut self, _rng: &mut SimRng) {
        self.warmup_left = self.profile.warmup_accesses();
        self.remaining = self.profile.accesses;
        self.burst_left = 0;
        self.walk = 0;
        self.code_walk = 0;
        self.pending_gap = None;
        self.need_burst_start = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn wrap_add_is_the_modulo_of_the_sum() {
        for len in [64, 65, 100, 4096, 1 << 40] {
            for step in [4, STRIDE, 64] {
                let edge = (len - step.min(len))..len;
                for pos in (0..step.min(len)).chain(edge) {
                    assert_eq!(
                        wrap_add(pos, step, len),
                        (pos + step) % len,
                        "{pos}+{step} in {len}"
                    );
                }
            }
        }
    }
    use cba_mem::AccessKind;

    fn count_kinds(profile: EembcProfile, seed: u64) -> (u64, u64, u64, u64, u64) {
        let mut gen = SyntheticEembc::new(profile);
        let mut rng = SimRng::seed_from(seed);
        let (mut loads, mut stores, mut atomics, mut ifetches, mut computes) = (0, 0, 0, 0, 0);
        while let Some(op) = gen.next_op(&mut rng) {
            match op {
                Op::Compute(_) => computes += 1,
                Op::Access(a) => match a.kind() {
                    AccessKind::Load => loads += 1,
                    AccessKind::Store => stores += 1,
                    AccessKind::Atomic => atomics += 1,
                    AccessKind::IFetch => ifetches += 1,
                },
            }
        }
        (loads, stores, atomics, ifetches, computes)
    }

    #[test]
    fn emits_exactly_the_configured_accesses_plus_warmup() {
        for p in suite::all_profiles() {
            let total = p.accesses + p.warmup_accesses();
            let (l, s, a, i, _) = count_kinds(p.clone(), 42);
            assert_eq!(l + s + a + i, total, "{}", p.name);
        }
    }

    #[test]
    fn store_fraction_approximately_respected() {
        let mut p = suite::matrix();
        p.accesses = 20_000;
        let expect = p.p_store;
        let (l, s, a, i, _) = count_kinds(p, 7);
        let frac = s as f64 / (l + s + a + i) as f64;
        assert!(
            (frac - expect).abs() < 0.03,
            "store fraction {frac} vs configured {expect}"
        );
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let mut p = suite::tblook();
        p.accesses = 5_000;
        let ws = p.working_set;
        let mut gen = SyntheticEembc::new(p);
        let mut rng = SimRng::seed_from(3);
        while let Some(op) = gen.next_op(&mut rng) {
            if let Op::Access(a) = op {
                if a.kind() != AccessKind::IFetch {
                    assert!(a.addr() >= DATA_BASE);
                    assert!(a.addr() < DATA_BASE + ws, "addr 0x{:x}", a.addr());
                }
            }
        }
    }

    #[test]
    fn ifetches_stay_in_code_set() {
        let mut p = suite::a2time();
        p.accesses = 5_000;
        assert!(p.p_ifetch > 0.0, "a2time exercises the I-side");
        let cs = p.code_set;
        let mut gen = SyntheticEembc::new(p);
        let mut rng = SimRng::seed_from(4);
        while let Some(op) = gen.next_op(&mut rng) {
            if let Op::Access(a) = op {
                if a.kind() == AccessKind::IFetch {
                    assert!(a.addr() >= CODE_BASE && a.addr() < CODE_BASE + cs);
                }
            }
        }
    }

    #[test]
    fn burst_structure_respected() {
        // With within_gap max < between mean, access runs separated by
        // small gaps should have lengths within burst_len bounds.
        let p = EembcProfile {
            name: "bursty",
            accesses: 2_000,
            working_set: 4096,
            p_random: 0.0,
            p_store: 0.0,
            p_atomic: 0.0,
            p_ifetch: 0.0,
            code_set: 0,
            burst_len: (4, 6),
            within_gap: (1, 2),
            between_gap_mean: 100.0,
        };
        let warmup = p.warmup_accesses();
        let mut gen = SyntheticEembc::new(p);
        let mut rng = SimRng::seed_from(5);
        // Skip the warm-up prefix (access+gap pairs).
        for _ in 0..2 * warmup {
            let _ = gen.next_op(&mut rng);
        }
        let mut run = 0u32;
        let mut runs = Vec::new();
        while let Some(op) = gen.next_op(&mut rng) {
            match op {
                Op::Access(_) => run += 1,
                Op::Compute(g) if g > 2 => {
                    if run > 0 {
                        runs.push(run);
                    }
                    run = 0;
                }
                Op::Compute(_) => {}
            }
        }
        if run > 0 {
            runs.push(run);
        }
        assert!(!runs.is_empty());
        // Interior runs are within bounds, except where a rare short
        // inter-burst gap (exponential tail) merges two adjacent bursts.
        let in_bounds = runs.iter().filter(|r| (4..=6).contains(*r)).count();
        assert!(
            in_bounds as f64 >= 0.8 * runs.len() as f64,
            "too many out-of-bound runs: {runs:?}"
        );
        for &r in &runs[..runs.len() - 1] {
            assert!(
                (4..=12).contains(&r),
                "burst of {r} exceeds a merged pair: {runs:?}"
            );
        }
    }

    #[test]
    fn reset_reproduces_stream_with_same_rng_seed() {
        let p = suite::cacheb();
        let mut gen = SyntheticEembc::new(p);
        let mut rng1 = SimRng::seed_from(9);
        let mut first = Vec::new();
        for _ in 0..200 {
            match gen.next_op(&mut rng1) {
                Some(op) => first.push(op),
                None => break,
            }
        }
        let mut rng2 = SimRng::seed_from(9);
        gen.reset(&mut rng2);
        for (i, expect) in first.iter().enumerate() {
            assert_eq!(gen.next_op(&mut rng2).as_ref(), Some(expect), "op {i}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = suite::tblook();
        let mut g1 = SyntheticEembc::new(p.clone());
        let mut g2 = SyntheticEembc::new(p);
        let mut r1 = SimRng::seed_from(1);
        let mut r2 = SimRng::seed_from(2);
        let mut same = 0;
        let mut total = 0;
        for _ in 0..500 {
            match (g1.next_op(&mut r1), g2.next_op(&mut r2)) {
                (Some(a), Some(b)) => {
                    total += 1;
                    if a == b {
                        same += 1;
                    }
                }
                _ => break,
            }
        }
        assert!(total > 100);
        assert!(same < total, "streams must differ across seeds");
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let good = suite::matrix();
        let mut p = good.clone();
        p.accesses = 0;
        assert!(p.validate().is_err());
        p = good.clone();
        p.p_store = 0.9;
        p.p_atomic = 0.2;
        assert!(p.validate().is_err());
        p = good.clone();
        p.burst_len = (5, 2);
        assert!(p.validate().is_err());
        p = good.clone();
        p.within_gap = (9, 3);
        assert!(p.validate().is_err());
        p = good;
        p.between_gap_mean = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid profile")]
    fn constructor_panics_on_invalid() {
        let mut p = suite::matrix();
        p.accesses = 0;
        let _ = SyntheticEembc::new(p);
    }
}
