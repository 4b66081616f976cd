//! Random-permutations arbitration — the paper's baseline policy ("RP").

use crate::pending::Candidate;
use crate::policy::{ArbitrationPolicy, RandomSource};
use sim_core::{CoreId, Cycle};

/// Random-permutations arbitration (Jalle et al., DATE 2014).
///
/// Time is organized in *rounds*. At the start of each round a fresh uniform
/// random permutation of the cores is drawn (on the FPGA, from the
/// APRANDBANK random-bit bank); within the round, the bus is offered to
/// cores in permutation order and **each core is granted at most once per
/// round**. The implementation is work-conserving: cores without a pending
/// request are skipped, and a new round starts as soon as no not-yet-served
/// core has a pending request.
///
/// The once-per-round property is what makes RP MBPTA-friendly: the
/// probability that a request waits for `k` other cores is known and
/// independent across rounds, while the worst case (being last in the
/// permutation) stays close to the average. Like all slot-fair policies it
/// is still bandwidth-unfair for heterogeneous request durations — this is
/// the policy the paper pairs CBA with.
///
/// # Example
///
/// ```
/// use cba_bus::policies::RandomPermutation;
/// use cba_bus::{ArbitrationPolicy, Candidate};
/// use sim_core::{CoreId, rng::SimRng};
///
/// let mut rp = RandomPermutation::new(4);
/// let mut rng = SimRng::seed_from(7);
/// let all: Vec<Candidate> = (0..4)
///     .map(|i| Candidate { core: CoreId::from_index(i), issued_at: 0, duration: 5 })
///     .collect();
/// // One full round grants each core exactly once.
/// let mut served = [false; 4];
/// for t in 0..4 {
///     let w = rp.select(&all, t, &mut rng).unwrap();
///     rp.on_grant(w, t);
///     assert!(!served[w.index()], "core granted twice in a round");
///     served[w.index()] = true;
/// }
/// assert!(served.iter().all(|&s| s));
/// ```
#[derive(Debug, Clone)]
pub struct RandomPermutation {
    n_cores: usize,
    /// Current round's permutation (core indices).
    order: Vec<usize>,
    /// Cores already granted in this round (bit `i` = core `i`).
    served: u64,
    /// Whether a round is in progress.
    round_active: bool,
}

impl RandomPermutation {
    /// Creates a random-permutations arbiter for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0` or `n_cores > CoreId::MAX_CORES`.
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "n_cores must be positive");
        assert!(
            n_cores <= CoreId::MAX_CORES,
            "n_cores must be at most {}",
            CoreId::MAX_CORES
        );
        RandomPermutation {
            n_cores,
            order: (0..n_cores).collect(),
            served: 0,
            round_active: false,
        }
    }

    /// Draws a fresh permutation with Fisher–Yates using the arbiter's
    /// random source (bit-bank or software RNG).
    fn new_round<R: RandomSource + ?Sized>(&mut self, rng: &mut R) {
        for i in 0..self.n_cores {
            self.order[i] = i;
        }
        for i in (1..self.n_cores).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            self.order.swap(i, j);
        }
        self.served = 0;
        self.round_active = true;
    }

    /// The first not-yet-served core in permutation order that has a
    /// pending candidate.
    fn pick(&self, candidates: &[Candidate]) -> Option<CoreId> {
        let open = candidates
            .iter()
            .fold(0u64, |mask, c| mask | (1 << c.core.index()))
            & !self.served;
        if open == 0 {
            return None;
        }
        self.order
            .iter()
            .find(|&&idx| (open >> idx) & 1 == 1)
            .map(|&idx| CoreId::from_index(idx))
    }

    /// [`ArbitrationPolicy::select`], generic over the random source: the
    /// trait impl runs it on `dyn RandomSource`, the bus's
    /// [`BusPolicy`](crate::BusPolicy) on its own concrete source.
    #[inline]
    pub(crate) fn select_with<R: RandomSource + ?Sized>(
        &mut self,
        candidates: &[Candidate],
        rng: &mut R,
    ) -> Option<CoreId> {
        if candidates.is_empty() {
            return None;
        }
        if self.round_active {
            if let Some(core) = self.pick(candidates) {
                return Some(core);
            }
            // All pending cores were already served this round: start the
            // next round (work conservation).
        }
        self.new_round(rng);
        self.pick(candidates)
    }

    /// Cores already served in the current round, indexed by core (for
    /// tests/inspection).
    pub fn served(&self) -> Vec<bool> {
        (0..self.n_cores)
            .map(|i| (self.served >> i) & 1 == 1)
            .collect()
    }
}

impl ArbitrationPolicy for RandomPermutation {
    fn name(&self) -> &'static str {
        "RP"
    }

    fn select(
        &mut self,
        candidates: &[Candidate],
        _now: Cycle,
        rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        self.select_with(candidates, rng)
    }

    fn on_grant(&mut self, core: CoreId, _now: Cycle) {
        assert!(core.index() < self.n_cores, "grant to unknown {core:?}");
        self.served |= 1 << core.index();
        // The round is complete once every one of the `n_cores` bits is set.
        if self.served == u64::MAX >> (64 - self.n_cores) {
            self.round_active = false;
        }
    }

    fn reset(&mut self) {
        self.round_active = false;
        self.served = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::lfsr::LfsrBank;
    use sim_core::rng::SimRng;

    fn cands(cores: &[usize]) -> Vec<Candidate> {
        cores
            .iter()
            .map(|&i| Candidate {
                core: CoreId::from_index(i),
                issued_at: 0,
                duration: 5,
            })
            .collect()
    }

    #[test]
    fn each_round_grants_each_core_once() {
        let mut rp = RandomPermutation::new(4);
        let mut rng = SimRng::seed_from(11);
        let all = cands(&[0, 1, 2, 3]);
        for round in 0..50 {
            let mut seen = [false; 4];
            for k in 0..4 {
                let w = rp.select(&all, (round * 4 + k) as Cycle, &mut rng).unwrap();
                rp.on_grant(w, 0);
                assert!(!seen[w.index()], "double grant in round {round}");
                seen[w.index()] = true;
            }
        }
    }

    #[test]
    fn permutations_vary_across_rounds() {
        let mut rp = RandomPermutation::new(4);
        let mut rng = SimRng::seed_from(13);
        let all = cands(&[0, 1, 2, 3]);
        let mut first_winners = Vec::new();
        for _ in 0..64 {
            let mut round = Vec::new();
            for _ in 0..4 {
                let w = rp.select(&all, 0, &mut rng).unwrap();
                rp.on_grant(w, 0);
                round.push(w.index());
            }
            first_winners.push(round[0]);
        }
        // Every core should lead some round.
        for i in 0..4 {
            assert!(first_winners.contains(&i), "core {i} never first");
        }
    }

    #[test]
    fn work_conserving_when_only_served_cores_pend() {
        let mut rp = RandomPermutation::new(2);
        let mut rng = SimRng::seed_from(5);
        let only0 = cands(&[0]);
        // Core 0 is served, then immediately pends again; a new round must
        // start rather than leaving the bus idle.
        for t in 0..10 {
            let w = rp.select(&only0, t, &mut rng).unwrap();
            assert_eq!(w.index(), 0);
            rp.on_grant(w, t);
        }
    }

    #[test]
    fn skips_idle_cores_within_round() {
        let mut rp = RandomPermutation::new(4);
        let mut rng = SimRng::seed_from(17);
        let some = cands(&[1, 2]);
        let w1 = rp.select(&some, 0, &mut rng).unwrap();
        rp.on_grant(w1, 0);
        let w2 = rp.select(&some, 1, &mut rng).unwrap();
        assert_ne!(w1, w2);
        assert!(matches!(w2.index(), 1 | 2));
    }

    #[test]
    fn uniform_slot_shares_under_saturation() {
        let mut rp = RandomPermutation::new(4);
        let mut rng = SimRng::seed_from(23);
        let all = cands(&[0, 1, 2, 3]);
        let mut counts = [0u32; 4];
        for t in 0..4000 {
            let w = rp.select(&all, t, &mut rng).unwrap();
            rp.on_grant(w, t);
            counts[w.index()] += 1;
        }
        assert_eq!(counts.iter().sum::<u32>(), 4000);
        for &c in &counts {
            assert_eq!(c, 1000, "rounds guarantee exact slot fairness: {counts:?}");
        }
    }

    #[test]
    fn works_with_hardware_bit_bank() {
        let mut rp = RandomPermutation::new(4);
        let mut bank = LfsrBank::new(8, 0xBEEF).unwrap();
        let all = cands(&[0, 1, 2, 3]);
        let mut counts = [0u32; 4];
        for t in 0..400 {
            let w = rp.select(&all, t, &mut bank).unwrap();
            rp.on_grant(w, t);
            counts[w.index()] += 1;
        }
        assert_eq!(counts, [100, 100, 100, 100]);
    }

    #[test]
    fn reset_cancels_round() {
        let mut rp = RandomPermutation::new(2);
        let mut rng = SimRng::seed_from(31);
        let all = cands(&[0, 1]);
        let w = rp.select(&all, 0, &mut rng).unwrap();
        rp.on_grant(w, 0);
        rp.reset();
        assert!(rp.served().iter().all(|&s| !s));
    }

    /// The scan `pick` replaced: for each core in permutation order, search
    /// the candidates for it.
    fn scan_pick(order: &[usize], served: &[bool], candidates: &[Candidate]) -> Option<CoreId> {
        order
            .iter()
            .filter(|&&idx| !served[idx])
            .find_map(|&idx| candidates.iter().find(|c| c.core.index() == idx))
            .map(|c| c.core)
    }

    #[test]
    fn mask_pick_matches_scan_pick() {
        let mut rng = SimRng::seed_from(41);
        for n in [1usize, 2, 4, 16, 63, 64] {
            let mut rp = RandomPermutation::new(n);
            for trial in 0..2000 {
                // Random permutation, served set and candidate subset; every
                // 8th trial pins the highest core, the shift edge at n = 64.
                for i in (1..n).rev() {
                    let j = rng.gen_range_u64(0..i as u64 + 1) as usize;
                    rp.order.swap(i, j);
                }
                let served: Vec<bool> = (0..n).map(|_| rng.gen_range_u64(0..2) == 1).collect();
                rp.served = served
                    .iter()
                    .enumerate()
                    .fold(0, |m, (i, &s)| m | (u64::from(s) << i));
                let cores: Vec<usize> = if trial % 8 == 0 {
                    vec![n - 1]
                } else {
                    (0..n).filter(|_| rng.gen_range_u64(0..2) == 1).collect()
                };
                let c = cands(&cores);
                assert_eq!(
                    rp.pick(&c),
                    scan_pick(&rp.order, &served, &c),
                    "n={n} order={:?} served={served:?} cores={cores:?}",
                    rp.order
                );
                assert_eq!(rp.served(), served);
            }
        }
    }

    #[test]
    fn core_63_is_picked_and_completes_a_64_core_round() {
        let mut rp = RandomPermutation::new(64);
        let mut rng = SimRng::seed_from(43);
        let last = cands(&[63]);
        let w = rp.select(&last, 0, &mut rng).unwrap();
        assert_eq!(w.index(), 63);
        rp.on_grant(w, 0);
        assert!(rp.served()[63]);
        // Core 63 is served: only a new round can grant it again, and only
        // all 64 grants end a round.
        let all = cands(&(0..64).collect::<Vec<_>>());
        let mut seen = [false; 64];
        seen[63] = true;
        for t in 1..64 {
            let w = rp.select(&all, t, &mut rng).unwrap();
            assert!(!seen[w.index()], "core {} granted twice", w.index());
            seen[w.index()] = true;
            rp.on_grant(w, t);
        }
        assert!(!rp.round_active);
    }
}
