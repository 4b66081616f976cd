//! Model of the APRANDBANK hardware random-bit bank.
//!
//! The paper's FPGA prototype feeds its random-permutation arbiter from an
//! "APRANDBANK module that delivers random bits every cycle", an IEC-61508
//! SIL-3 compliant pseudo-random number generator (reference \[3\] of the
//! paper: Agirre et al., DSD 2015). That design is a bank of maximal-length
//! Galois LFSRs with online health monitoring; this module reproduces the
//! structure: a [`LfsrBank`] of independent 32-bit Galois LFSRs, one bit per
//! LFSR per cycle, plus the two health checks a safety-qualified PRNG must
//! run (stuck-at detection and bit-balance monitoring).
//!
//! The arbiter consumes bits via [`LfsrBank::next_bits`]; a permutation draw
//! for `N` cores consumes `N·log2(N)`-ish bits per arbitration round.
//!
//! # Bit-plane layout
//!
//! The hardware bank clocks all its LFSRs at once and delivers one bit per
//! lane in a single cycle. [`LfsrBank`] is laid out the same way: it does
//! not store one 32-bit state per lane, but 32 bit-planes of one `u64`
//! each, where plane `k` holds state bit `k` of every lane (lane `i` in
//! bit `i`). The output of a cycle, bit 0 of every lane's state, is plane 0
//! as it stands. The Galois shift moves every plane down by one, so the
//! planes sit in a ring and the shift is a move of its head. The feedback
//! is one XOR of the output word per polynomial tap. The per-lane health
//! counters are bit-sliced the same way. One cycle of all lanes therefore
//! costs a handful of word operations, whatever the bank's width. The
//! single-lane [`Lfsr`] produces the same bit stream one lane at a time and
//! serves as the reference the bank is tested against.
//!
//! # Lazy health monitors
//!
//! The monitors judge the words of the current 4096-cycle window, but a
//! draw does not count them. When a window's first word is drawn, the bank
//! copies its 32 planes aside; [`LfsrBank::health`] steps that copy through
//! the words drawn since, counting ones and transitions per lane, and
//! resumes there on its next call. A draw therefore costs the shift alone,
//! and the counting is paid only by a caller that asks for a verdict.

use crate::SimError;

/// Default polynomial: x^32 + x^22 + x^2 + x + 1 (maximal length, taps as a
/// Galois feedback mask).
pub const POLY_32_DEFAULT: u32 = 0x8020_0003;

/// A single 32-bit Galois LFSR.
///
/// Shifts one bit per [`Lfsr::step`]; the output bit is the bit shifted out.
/// With a maximal-length polynomial the period is `2^32 - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lfsr {
    state: u32,
    poly: u32,
}

impl Lfsr {
    /// Creates an LFSR with the given non-zero seed and feedback polynomial.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `seed == 0` (the all-zero
    /// state is the one fixed point of an LFSR and must be excluded).
    pub fn new(seed: u32, poly: u32) -> Result<Self, SimError> {
        if seed == 0 {
            return Err(SimError::InvalidConfig {
                what: "lfsr seed",
                why: "seed must be non-zero (all-zero state is absorbing)".into(),
            });
        }
        Ok(Lfsr { state: seed, poly })
    }

    /// Advances one cycle and returns the output bit.
    #[inline]
    pub fn step(&mut self) -> bool {
        let out = self.state & 1 == 1;
        self.state >>= 1;
        if out {
            self.state ^= self.poly;
        }
        out
    }

    /// Current internal state (for health monitoring and tests).
    pub fn state(&self) -> u32 {
        self.state
    }
}

/// Health status reported by the bank's online monitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LfsrHealth {
    /// All monitors pass.
    Ok,
    /// An LFSR output has been constant for the whole observation window
    /// (stuck-at fault — in hardware, a latch-up or routing fault).
    StuckAt {
        /// Index of the faulty LFSR within the bank.
        lane: usize,
    },
    /// The ones-density of a lane left the `[0.5 - tol, 0.5 + tol]` band.
    Imbalanced {
        /// Index of the suspicious LFSR within the bank.
        lane: usize,
        /// Observed ones-density over the window.
        density: f64,
    },
}

/// Feedback taps of [`POLY_32_DEFAULT`] below bit 31, as state-bit
/// positions. Bit 31 needs no XOR in the bit-sliced bank: after the shift,
/// logical plane 31 is the ring slot that held the output plane, and a
/// Galois step with bit 31 in the polynomial sets state bit 31 to exactly
/// that output.
const TAPS: [usize; 3] = [0, 1, 21];

const _: () = {
    let mut poly = 1u32 << 31;
    let mut i = 0;
    while i < TAPS.len() {
        poly |= 1 << TAPS[i];
        i += 1;
    }
    assert!(poly == POLY_32_DEFAULT, "TAPS must spell POLY_32_DEFAULT");
};

/// Planes of a bit-sliced health counter: enough for counts `0..=4096`.
const COUNTER_PLANES: usize = (u32::BITS - LfsrBank::HEALTH_WINDOW.leading_zeros()) as usize;

/// A bit-sliced per-lane counter: bit `lane` of plane `j` is bit `j` of
/// that lane's count.
type Counter = [u64; COUNTER_PLANES];

/// Adds one bit per lane (`bits`) to `counter` by ripple carry through
/// every plane. The loop has no early exit on a zero carry: on random bits
/// that branch mispredicts, and costs more than the planes it would skip.
#[inline]
fn count_lanes(counter: &mut Counter, mut bits: u64) {
    for plane in counter {
        let carry = *plane & bits;
        *plane ^= bits;
        bits = carry;
    }
}

/// The count of one lane, read out of a bit-sliced counter.
fn lane_count(counter: &Counter, lane: usize) -> u32 {
    counter
        .iter()
        .enumerate()
        .map(|(j, plane)| (((plane >> lane) & 1) as u32) << j)
        .sum()
}

/// A bank of independent Galois LFSRs delivering `width` random bits per
/// cycle, with online health monitoring.
///
/// The bank is bit-sliced, like the hardware that steps all its LFSRs in
/// one clock; the [module documentation](self) describes the layout.
///
/// # Example
///
/// ```
/// use sim_core::lfsr::LfsrBank;
///
/// let mut bank = LfsrBank::new(8, 0xDEAD_BEEF).unwrap();
/// let bits = bank.next_bits(); // 8 fresh bits, one per lane
/// assert!(bits < 1 << 8);
/// let word = bank.next_word(16); // 16 bits gathered over 2 cycles
/// assert!(word < 1 << 16);
/// ```
#[derive(Debug, Clone)]
pub struct LfsrBank {
    /// State bit-planes as a ring: plane `k` is `planes[(head + k) % 32]`.
    planes: [u64; 32],
    head: usize,
    width: usize,
    /// Words drawn in the current health window.
    observed: u32,
    monitor: Monitor,
}

/// The health monitors' view of the current window: a copy of the bank's
/// state taken before the window's first word, stepped behind the bank by
/// [`LfsrBank::health`], with the per-lane counts of the words it has
/// stepped through.
#[derive(Debug, Clone)]
struct Monitor {
    planes: [u64; 32],
    head: usize,
    counted: u32,
    ones: Counter,
    transitions: Counter,
    last_bits: u64,
}

impl Monitor {
    fn new(planes: [u64; 32], head: usize) -> Self {
        Monitor {
            planes,
            head,
            counted: 0,
            ones: [0; COUNTER_PLANES],
            transitions: [0; COUNTER_PLANES],
            last_bits: 0,
        }
    }

    /// Steps the copy through the window's words up to the `observed`-th.
    fn catch_up(&mut self, observed: u32) {
        while self.counted < observed {
            let word = step(&mut self.planes, &mut self.head);
            count_lanes(&mut self.ones, word);
            // The first bit of a window has no predecessor in it.
            if self.counted != 0 {
                count_lanes(&mut self.transitions, word ^ self.last_bits);
            }
            self.last_bits = word;
            self.counted += 1;
        }
    }
}

/// One Galois shift of every lane in `planes` (a ring headed at `head`);
/// returns the output word.
#[inline]
fn step(planes: &mut [u64; 32], head: &mut usize) -> u64 {
    let word = planes[*head];
    *head = (*head + 1) % 32;
    for k in TAPS {
        planes[(*head + k) % 32] ^= word;
    }
    word
}

impl LfsrBank {
    /// Observation window (cycles) for the health monitors.
    pub const HEALTH_WINDOW: u32 = 4096;

    /// Creates a bank of `width` lanes seeded (non-zero, distinct) from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `width == 0` or
    /// `width > 64`.
    pub fn new(width: usize, seed: u64) -> Result<Self, SimError> {
        if width == 0 || width > 64 {
            return Err(SimError::InvalidConfig {
                what: "lfsr bank width",
                why: format!("width must be in 1..=64, got {width}"),
            });
        }
        let mut planes = [0u64; 32];
        let mut s = seed;
        for lane in 0..width {
            // Derive distinct non-zero 32-bit seeds via splitmix-style mixing.
            s = s
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            let seed32 = ((s >> 32) as u32) | 1; // force non-zero
            for (k, plane) in planes.iter_mut().enumerate() {
                *plane |= u64::from((seed32 >> k) & 1) << lane;
            }
        }
        Ok(LfsrBank {
            planes,
            head: 0,
            width,
            observed: 0,
            monitor: Monitor::new(planes, 0),
        })
    }

    /// Number of lanes (= bits delivered per cycle).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Advances every lane one cycle and returns the fresh bits packed into
    /// the low `width` bits of a `u64` (lane 0 is bit 0).
    #[inline]
    pub fn next_bits(&mut self) -> u64 {
        if self.observed == 0 {
            // A new health window starts here: the monitors replay it
            // from this state.
            self.monitor = Monitor::new(self.planes, self.head);
        }
        self.observed += 1;
        if self.observed >= Self::HEALTH_WINDOW {
            // Monitors are evaluated lazily via `health`; reset the window.
            self.observed = 0;
        }
        step(&mut self.planes, &mut self.head)
    }

    /// Gathers `bits` random bits (over as many cycles as needed) into one
    /// word, most-recent cycle in the high bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 64`.
    #[inline]
    pub fn next_word(&mut self, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits), "bits must be in 1..=64");
        let w = self.width() as u32;
        let mut acc = 0u64;
        let mut got = 0u32;
        while got < bits {
            let take = (bits - got).min(w);
            let mask = if take >= 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            acc |= (self.next_bits() & mask) << got;
            got += take;
        }
        acc
    }

    /// Uniform draw in `0..n` by rejection sampling on [`LfsrBank::next_word`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        if n == 1 {
            return 0;
        }
        let bits = 64 - (n - 1).leading_zeros();
        loop {
            let draw = self.next_word(bits);
            if draw < n {
                return draw;
            }
        }
    }

    /// Evaluates the health monitors over the bits observed in the current
    /// window so far.
    ///
    /// Following the safety-PRNG design of the paper's reference \[3\], two
    /// online checks run continuously: a stuck-at detector (no transitions in
    /// the window once enough bits were observed) and a ones-density monitor.
    /// The window's counts are taken here, by replaying the words drawn
    /// since the previous call (see the [module documentation](self)).
    pub fn health(&mut self) -> LfsrHealth {
        let width = self.width;
        let observed = self.observed;
        // Need a minimum of observations before judging.
        if observed < 256 {
            return LfsrHealth::Ok;
        }
        let (ones, transitions) = self.window_counts();
        for lane in 0..width {
            if lane_count(transitions, lane) == 0 {
                return LfsrHealth::StuckAt { lane };
            }
            let density = lane_count(ones, lane) as f64 / observed as f64;
            if !(0.40..=0.60).contains(&density) {
                return LfsrHealth::Imbalanced { lane, density };
            }
        }
        LfsrHealth::Ok
    }

    /// The per-lane ones and transitions counts of the current window.
    fn window_counts(&mut self) -> (&Counter, &Counter) {
        if self.observed == 0 {
            // The window is empty: the monitors restart from here.
            self.monitor = Monitor::new(self.planes, self.head);
        }
        self.monitor.catch_up(self.observed);
        (&self.monitor.ones, &self.monitor.transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_rejects_zero_seed() {
        assert!(Lfsr::new(0, POLY_32_DEFAULT).is_err());
    }

    #[test]
    fn lfsr_never_reaches_zero_state() {
        let mut l = Lfsr::new(1, POLY_32_DEFAULT).unwrap();
        for _ in 0..100_000 {
            l.step();
            assert_ne!(l.state(), 0);
        }
    }

    #[test]
    fn lfsr_period_is_not_short() {
        // A maximal 32-bit LFSR must not return to its seed within any
        // window we can afford to check.
        let seed = 0xACE1_u32;
        let mut l = Lfsr::new(seed, POLY_32_DEFAULT).unwrap();
        for i in 0..200_000u32 {
            l.step();
            assert!(!(l.state() == seed && i < 199_999), "short period at {i}");
        }
    }

    #[test]
    fn bank_width_validation() {
        assert!(LfsrBank::new(0, 1).is_err());
        assert!(LfsrBank::new(65, 1).is_err());
        assert!(LfsrBank::new(64, 1).is_ok());
    }

    #[test]
    fn bank_bits_fit_width() {
        let mut bank = LfsrBank::new(5, 42).unwrap();
        for _ in 0..1000 {
            assert!(bank.next_bits() < 32);
        }
    }

    #[test]
    fn bank_lanes_are_decorrelated() {
        let mut bank = LfsrBank::new(2, 7).unwrap();
        let mut equal = 0;
        let n = 4096;
        for _ in 0..n {
            let w = bank.next_bits();
            if (w & 1) == ((w >> 1) & 1) {
                equal += 1;
            }
        }
        let frac = equal as f64 / n as f64;
        assert!(
            (0.45..0.55).contains(&frac),
            "lanes correlated: agreement {frac}"
        );
    }

    #[test]
    fn next_word_respects_bit_count() {
        let mut bank = LfsrBank::new(4, 3).unwrap();
        for bits in 1..=64u32 {
            let w = bank.next_word(bits);
            if bits < 64 {
                assert!(w < 1u64 << bits, "word {w} too wide for {bits} bits");
            }
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut bank = LfsrBank::new(8, 11).unwrap();
        let mut seen = [false; 7];
        for _ in 0..2000 {
            let v = bank.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "coverage: {seen:?}");
    }

    #[test]
    fn health_ok_for_good_bank() {
        let mut bank = LfsrBank::new(8, 1234).unwrap();
        for _ in 0..2048 {
            bank.next_bits();
        }
        assert_eq!(bank.health(), LfsrHealth::Ok);
    }

    #[test]
    fn ones_density_is_balanced() {
        let mut bank = LfsrBank::new(1, 99).unwrap();
        let n = 32_768u32;
        let mut ones = 0u32;
        for _ in 0..n {
            ones += (bank.next_bits() & 1) as u32;
        }
        let density = ones as f64 / n as f64;
        assert!((0.48..0.52).contains(&density), "density {density}");
    }

    /// The first 64 `next_bits` words of `LfsrBank::new(16, 2017)`, as the
    /// per-lane bank produced them.
    const STREAM_16_2017: [u64; 64] = [
        0xffff, 0x8b9d, 0x5349, 0xd79f, 0xf5e9, 0x5b3a, 0xc3bd, 0x4540, 0xe003, 0x3692, 0x4830,
        0x53a4, 0x677a, 0x50b9, 0x9c4a, 0x5c6b, 0x5fae, 0xfe64, 0xe810, 0x6bd6, 0xd6f0, 0x454b,
        0x90eb, 0xb2a1, 0x1b9b, 0x9efe, 0x5bac, 0x977d, 0x3530, 0x2ab3, 0x9685, 0x137c, 0x3236,
        0xf973, 0xff76, 0x8123, 0x17f6, 0x9184, 0x1a61, 0x30c1, 0x22b3, 0x4f36, 0xf345, 0xaa9c,
        0xae48, 0xe6cc, 0xcf55, 0xeb0c, 0x205b, 0xa24e, 0x5f35, 0xbc1e, 0xa35e, 0x4977, 0x48f4,
        0x4a51, 0xe648, 0xb3c4, 0x19d6, 0xaceb, 0x9a6c, 0x2cf5, 0x02af, 0x7210,
    ];

    #[test]
    fn bank_stream_is_pinned() {
        let mut bank = LfsrBank::new(16, 2017).unwrap();
        let stream: Vec<u64> = (0..64).map(|_| bank.next_bits()).collect();
        assert_eq!(stream, STREAM_16_2017);
    }

    /// The reference bank: one single-lane [`Lfsr`] per lane, seeded and
    /// monitored lane by lane.
    struct LaneOracle {
        lanes: Vec<Lfsr>,
        ones: Vec<u32>,
        transitions: Vec<u32>,
        last_bit: Vec<bool>,
        observed: u32,
    }

    impl LaneOracle {
        fn new(width: usize, seed: u64) -> Self {
            let mut s = seed;
            let lanes = (0..width)
                .map(|_| {
                    s = s
                        .wrapping_mul(0x2545_f491_4f6c_dd1d)
                        .wrapping_add(0x9e37_79b9_7f4a_7c15);
                    Lfsr::new(((s >> 32) as u32) | 1, POLY_32_DEFAULT).unwrap()
                })
                .collect();
            LaneOracle {
                lanes,
                ones: vec![0; width],
                transitions: vec![0; width],
                last_bit: vec![false; width],
                observed: 0,
            }
        }

        fn next_bits(&mut self) -> u64 {
            let mut word = 0u64;
            let first = self.observed == 0;
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let bit = lane.step();
                word |= u64::from(bit) << i;
                self.ones[i] += u32::from(bit);
                if !first && bit != self.last_bit[i] {
                    self.transitions[i] += 1;
                }
                self.last_bit[i] = bit;
            }
            self.observed += 1;
            if self.observed >= LfsrBank::HEALTH_WINDOW {
                self.observed = 0;
                self.ones.iter_mut().for_each(|c| *c = 0);
                self.transitions.iter_mut().for_each(|c| *c = 0);
            }
            word
        }

        fn next_word(&mut self, bits: u32) -> u64 {
            let w = self.lanes.len() as u32;
            let (mut acc, mut got) = (0u64, 0u32);
            while got < bits {
                let take = (bits - got).min(w);
                acc |= (self.next_bits() & (u64::MAX >> (64 - take))) << got;
                got += take;
            }
            acc
        }

        fn next_below(&mut self, n: u64) -> u64 {
            if n == 1 {
                return 0;
            }
            loop {
                let draw = self.next_word(64 - (n - 1).leading_zeros());
                if draw < n {
                    return draw;
                }
            }
        }

        fn health(&self) -> LfsrHealth {
            if self.observed < 256 {
                return LfsrHealth::Ok;
            }
            for lane in 0..self.lanes.len() {
                if self.transitions[lane] == 0 {
                    return LfsrHealth::StuckAt { lane };
                }
                let density = self.ones[lane] as f64 / self.observed as f64;
                if !(0.40..=0.60).contains(&density) {
                    return LfsrHealth::Imbalanced { lane, density };
                }
            }
            LfsrHealth::Ok
        }
    }

    /// Asserts the bank's monitor state (its window's replayed counts)
    /// equals the oracle's, lane by lane.
    fn assert_same_monitors(bank: &mut LfsrBank, oracle: &LaneOracle, at: &str) {
        assert_eq!(bank.observed, oracle.observed, "{at}");
        let (ones, transitions) = bank.window_counts();
        for lane in 0..oracle.lanes.len() {
            assert_eq!(
                lane_count(ones, lane),
                oracle.ones[lane],
                "{at}: ones of lane {lane}"
            );
            assert_eq!(
                lane_count(transitions, lane),
                oracle.transitions[lane],
                "{at}: transitions of lane {lane}"
            );
        }
        assert_eq!(bank.health(), oracle.health(), "{at}");
    }

    const ORACLE_WIDTHS: [usize; 6] = [1, 2, 5, 16, 63, 64];

    #[test]
    fn bank_matches_per_lane_oracle() {
        for width in ORACLE_WIDTHS {
            let seed = 0x5EED_0000 + width as u64;
            let mut bank = LfsrBank::new(width, seed).unwrap();
            let mut oracle = LaneOracle::new(width, seed);
            assert_eq!(bank.width(), width);
            // Three full health windows and then some, word by word; the
            // monitors are compared around every window reset.
            for step in 0..3 * LfsrBank::HEALTH_WINDOW + 300 {
                let at = format!("width {width}, step {step}");
                assert_eq!(bank.next_bits(), oracle.next_bits(), "{at}");
                if matches!(oracle.observed, 0 | 1 | 2 | 255 | 256 | 4095) || step % 97 == 0 {
                    assert_same_monitors(&mut bank, &oracle, &at);
                }
            }
            // The gathering draws continue the same stream.
            for round in 0..20 {
                for bits in 1..=64 {
                    let at = format!("width {width}, round {round}, next_word({bits})");
                    assert_eq!(bank.next_word(bits), oracle.next_word(bits), "{at}");
                }
                for n in [1, 2, 3, 7, 16, 17, 1 << 40] {
                    let at = format!("width {width}, round {round}, next_below({n})");
                    assert_eq!(bank.next_below(n), oracle.next_below(n), "{at}");
                }
                assert_same_monitors(&mut bank, &oracle, &format!("width {width}, round {round}"));
            }
        }
    }

    #[test]
    fn stuck_lane_verdicts_match_oracle() {
        // Zero one lane's state in both banks: the all-zero state is the
        // LFSR's fixed point, so that lane emits 0 forever.
        for width in ORACLE_WIDTHS {
            let lane = width / 2;
            let mut bank = LfsrBank::new(width, 77).unwrap();
            let mut oracle = LaneOracle::new(width, 77);
            for plane in &mut bank.planes {
                *plane &= !(1 << lane);
            }
            oracle.lanes[lane] = Lfsr {
                state: 0,
                poly: POLY_32_DEFAULT,
            };
            for step in 0..2 * LfsrBank::HEALTH_WINDOW + 300 {
                assert_eq!(bank.next_bits(), oracle.next_bits());
                let at = format!("width {width}, step {step}");
                assert_eq!(bank.health(), oracle.health(), "{at}");
                if oracle.observed >= 256 {
                    assert_eq!(bank.health(), LfsrHealth::StuckAt { lane }, "{at}");
                }
            }
            assert_same_monitors(&mut bank, &oracle, &format!("width {width}"));
        }
    }
}
