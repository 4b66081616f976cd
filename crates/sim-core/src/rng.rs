//! Deterministic, forkable random-number streams.
//!
//! Every stochastic element of the simulator (cache placement seeds, random
//! replacement, arbitration randomness, workload address streams) draws from
//! a [`SimRng`]. A run is fully reproducible from its master seed; campaign
//! runners fork one independent stream per run, and the platform forks one
//! stream per component, so adding randomness to one component never perturbs
//! another (a property the Monte-Carlo comparisons in the evaluation rely
//! on).
//!
//! The generator is a self-contained **xoshiro256++** (the algorithm behind
//! `rand::rngs::SmallRng` on 64-bit targets) seeded through SplitMix64, so
//! the crate carries no external dependencies and streams are stable across
//! toolchains.

/// SplitMix64 step, used to derive independent seeds from `(seed, tag)` and
/// to expand a 64-bit seed into the 256-bit xoshiro state.
///
/// SplitMix64 is the standard seed-sequence generator recommended for
/// seeding xoshiro-family generators; consecutive or otherwise correlated
/// inputs map to decorrelated outputs.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random stream with cheap independent forking.
///
/// Implements xoshiro256++ directly and keeps the seed it was created from
/// so that child streams can be derived with [`SimRng::fork`].
///
/// # Example
///
/// ```
/// use sim_core::rng::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// let mut cache_rng = a.fork(1);
/// let mut arb_rng = a.fork(2);
/// assert_ne!(cache_rng.next_u64(), arb_rng.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // Expand through SplitMix64 exactly as xoshiro's authors recommend;
        // one extra scramble round keeps seed 0 away from the all-zero
        // state (which xoshiro cannot leave).
        let mut s = splitmix64(seed);
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = splitmix64(s);
            *slot = s;
        }
        SimRng { seed, state }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `tag`.
    ///
    /// Forking is a pure function of `(seed, tag)`, so the child is stable
    /// regardless of how much the parent stream has been consumed. Use
    /// distinct tags for distinct components.
    pub fn fork(&self, tag: u64) -> SimRng {
        SimRng::seed_from(splitmix64(
            self.seed ^ splitmix64(tag ^ 0xa076_1d64_78bd_642f),
        ))
    }

    /// Next 64 random bits (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw from a `u64` range (`lo..hi`, `hi` exclusive).
    ///
    /// Modulo rejection sampling: a draw above the largest multiple of the
    /// span that fits in a `u64` is rejected and redrawn, and the accepted
    /// draw is reduced modulo the span, so every value of the range is
    /// exactly equally likely. A power-of-two span rejects nothing and its
    /// modulo is a mask, so it takes no division; any other span costs two
    /// `u64` divisions per call. Every golden output pins the values and
    /// the number of draws this method takes.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        if span.is_power_of_two() {
            // The rejection zone below is all of `u64` here, and
            // `v % 2^k == v & (2^k - 1)`.
            return range.start + (self.next_u64() & (span - 1));
        }
        // Rejection-sample the top multiple of `span` to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return range.start + v % span;
            }
        }
    }

    /// Uniform draw from a `usize` range (`lo..hi`, `hi` exclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.gen_range_u64(range.start as u64..range.end as u64) as usize
    }

    /// A uniform draw in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits → the standard uniform-double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// A geometric-ish inter-arrival gap with mean `mean` (never zero if
    /// `mean >= 1`), used by workload generators for compute gaps.
    ///
    /// Sampled as `1 + floor(-mean * ln(1 - u))` truncated at `32 * mean`,
    /// giving an exponential-tailed positive integer with approximate mean
    /// `mean` for `mean >= 1`.
    pub fn gen_gap(&mut self, mean: f64) -> u32 {
        if mean <= 1.0 {
            return 1;
        }
        let u: f64 = self.gen_f64();
        let raw = -(mean - 0.5) * (1.0 - u).ln();
        let cap = 32.0 * mean;
        (1.0 + raw.min(cap)) as u32
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range_usize(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks one element of a non-empty slice uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose on empty slice");
        &slice[self.gen_range_usize(0..slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut rng = SimRng::seed_from(0);
        let draws: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(draws.iter().any(|&d| d != 0));
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn fork_is_stable_wrt_parent_consumption() {
        let mut a = SimRng::seed_from(99);
        let fork_before = a.fork(5);
        let _ = a.next_u64();
        let _ = a.next_u64();
        let fork_after = a.fork(5);
        let mut x = fork_before;
        let mut y = fork_after;
        for _ in 0..16 {
            assert_eq!(x.next_u64(), y.next_u64());
        }
    }

    #[test]
    fn forks_with_distinct_tags_decorrelate() {
        let parent = SimRng::seed_from(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let matches = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    /// `gen_range_u64` as it was written before power-of-two spans took
    /// the mask: modulo rejection with two divisions for every span.
    fn reference_range(rng: &mut SimRng, range: std::ops::Range<u64>) -> u64 {
        let span = range.end - range.start;
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return range.start + v % span;
            }
        }
    }

    /// Draws `span`-wide ranges from twin streams with both methods: the
    /// values must agree, and so must the stream positions afterwards.
    fn assert_matches_reference(seed: u64, start: u64, span: u64) {
        let mut fast = SimRng::seed_from(seed);
        let mut reference = fast.clone();
        for i in 0..64 {
            let range = start..start + span;
            assert_eq!(
                fast.gen_range_u64(range.clone()),
                reference_range(&mut reference, range),
                "span {span}, draw {i}"
            );
        }
        assert_eq!(fast.next_u64(), reference.next_u64(), "span {span}");
    }

    #[test]
    fn gen_range_matches_the_division_reference() {
        let mut spans: Vec<u64> = (0..64).map(|k| 1 << k).collect();
        let mut pick = SimRng::seed_from(17);
        for bits in 2..=64 {
            // A non-power of two below 2^bits: above 2^63 the rejection
            // zone is at its widest.
            let span = (pick.next_u64() >> (64 - bits)) | 3;
            if !span.is_power_of_two() {
                spans.push(span);
            }
        }
        spans.extend([3, 5, 6, 7, 56, 1000, u64::MAX, u64::MAX - 1, (1 << 63) + 1]);
        for (i, &span) in spans.iter().enumerate() {
            let start = if span <= 1 << 62 { 1 << 62 } else { 0 };
            assert_matches_reference(i as u64, 0, span);
            assert_matches_reference(i as u64 + 1000, start, span);
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = SimRng::seed_from(3);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rng.gen_range_usize(0..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        // Out-of-domain p is clamped rather than panicking.
        assert!((0..100).all(|_| rng.gen_bool(7.5)));
    }

    #[test]
    fn gen_gap_mean_roughly_matches() {
        let mut rng = SimRng::seed_from(5);
        let n = 20_000;
        let mean_target = 12.0;
        let total: u64 = (0..n).map(|_| rng.gen_gap(mean_target) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - mean_target).abs() < 1.0,
            "empirical mean {mean} too far from {mean_target}"
        );
    }

    #[test]
    fn gen_gap_is_at_least_one() {
        let mut rng = SimRng::seed_from(6);
        assert!((0..1000).all(|_| rng.gen_gap(0.0) >= 1));
        assert!((0..1000).all(|_| rng.gen_gap(3.0) >= 1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_produces_different_orders() {
        let mut rng = SimRng::seed_from(9);
        let mut v1: Vec<u32> = (0..20).collect();
        let mut v2: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v1);
        rng.shuffle(&mut v2);
        assert_ne!(v1, v2, "two consecutive shuffles should differ");
    }

    #[test]
    fn choose_uniformity_smoke() {
        let mut rng = SimRng::seed_from(10);
        let items = [0usize, 1, 2, 3];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[*rng.choose(&items)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "counts skewed: {counts:?}");
        }
    }

    #[test]
    fn known_xoshiro_vector() {
        // Reference sequence computed independently from the published
        // xoshiro256++ algorithm with state expanded from seed 42 via the
        // extra-scramble SplitMix64 chain documented in `seed_from`; pins
        // the implementation so refactors cannot silently change every
        // seed-driven stream in the workspace.
        let mut rng = SimRng::seed_from(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0x03f3_9b78_be22_447f,
                0x1dd9_733d_5a18_0053,
                0x0c89_a42c_7fa8_2e9c,
                0xb4d8_ea93_4776_7e7d,
            ]
        );
    }
}
