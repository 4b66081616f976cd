//! Lottery arbitration (LOTTERYBUS-style).

use crate::pending::Candidate;
use crate::policy::{ArbitrationPolicy, RandomSource};
use sim_core::{CoreId, Cycle};

/// Lottery arbitration: each arbitration, every candidate holds a number of
/// tickets and a uniformly random ticket picks the winner.
///
/// With equal tickets this is a memoryless uniform draw; with weighted
/// tickets bandwidth can be skewed toward specific cores (the LOTTERYBUS
/// design of Lahiri et al., DAC 2001, which the paper cites as an
/// MBPTA-compatible baseline). Note the skew controls *slot* probability,
/// not *cycle* share — that distinction is the paper's point.
///
/// # Example
///
/// ```
/// use cba_bus::policies::Lottery;
/// use cba_bus::ArbitrationPolicy;
///
/// let uniform = Lottery::uniform();
/// assert_eq!(uniform.name(), "LOT");
/// let weighted = Lottery::with_tickets(vec![3, 1, 1, 1]).unwrap();
/// assert_eq!(weighted.tickets(0), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Lottery {
    tickets: Option<Vec<u32>>,
}

impl Lottery {
    /// A lottery where every candidate holds exactly one ticket.
    pub fn uniform() -> Self {
        Lottery { tickets: None }
    }

    /// A lottery with per-core ticket counts (index = core index).
    ///
    /// # Errors
    ///
    /// Returns an error message if `tickets` is empty or any count is zero
    /// (a zero-ticket core could never be granted — that is starvation by
    /// configuration and almost certainly a bug).
    pub fn with_tickets(tickets: Vec<u32>) -> Result<Self, String> {
        if tickets.is_empty() {
            return Err("ticket vector must not be empty".into());
        }
        if tickets.contains(&0) {
            return Err("every core must hold at least one ticket".into());
        }
        Ok(Lottery {
            tickets: Some(tickets),
        })
    }

    /// Ticket count of `core` (1 for uniform lotteries).
    pub fn tickets(&self, core: usize) -> u32 {
        match &self.tickets {
            None => 1,
            Some(t) => t.get(core).copied().unwrap_or(1),
        }
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
        let weights = match &self.tickets {
            // One ticket each: the draw is the winner's position.
            None => {
                let draw = rng.next_below(candidates.len() as u64);
                return Some(candidates[draw as usize].core);
            }
            Some(weights) => weights,
        };
        let tickets = |c: &Candidate| weights.get(c.core.index()).map_or(1, |&t| u64::from(t));
        let total: u64 = candidates.iter().map(tickets).sum();
        let mut draw = rng.next_below(total);
        for c in candidates {
            let t = tickets(c);
            if draw < t {
                return Some(c.core);
            }
            draw -= t;
        }
        unreachable!("draw below total tickets always lands on a candidate")
    }
}

impl ArbitrationPolicy for Lottery {
    fn name(&self) -> &'static str {
        "LOT"
    }

    fn select(
        &mut self,
        candidates: &[Candidate],
        _now: Cycle,
        rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        self.select_with(candidates, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn uniform_covers_all_candidates() {
        let mut l = Lottery::uniform();
        let mut rng = SimRng::seed_from(1);
        let all = cands(&[0, 1, 2, 3]);
        let mut counts = [0u32; 4];
        for t in 0..4000 {
            let w = l.select(&all, t, &mut rng).unwrap();
            counts[w.index()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn weighted_skews_slot_probability() {
        let mut l = Lottery::with_tickets(vec![3, 1]).unwrap();
        let mut rng = SimRng::seed_from(2);
        let all = cands(&[0, 1]);
        let mut wins0 = 0u32;
        let n = 8000;
        for t in 0..n {
            if l.select(&all, t, &mut rng).unwrap().index() == 0 {
                wins0 += 1;
            }
        }
        let frac = wins0 as f64 / n as f64;
        assert!((0.70..0.80).contains(&frac), "expected ~0.75, got {frac}");
    }

    #[test]
    fn zero_tickets_rejected() {
        assert!(Lottery::with_tickets(vec![1, 0]).is_err());
        assert!(Lottery::with_tickets(vec![]).is_err());
    }

    #[test]
    fn empty_candidates_none() {
        let mut l = Lottery::uniform();
        let mut rng = SimRng::seed_from(3);
        assert_eq!(l.select(&[], 0, &mut rng), None);
    }

    #[test]
    fn single_candidate_always_wins() {
        let mut l = Lottery::uniform();
        let mut rng = SimRng::seed_from(4);
        let one = cands(&[2]);
        for t in 0..100 {
            assert_eq!(l.select(&one, t, &mut rng).unwrap().index(), 2);
        }
    }

    /// The select this policy had before the ticket total was summed once:
    /// `tickets()` twice per candidate.
    fn reference_select(l: &Lottery, candidates: &[Candidate], rng: &mut SimRng) -> CoreId {
        let total: u64 = candidates
            .iter()
            .map(|c| l.tickets(c.core.index()) as u64)
            .sum();
        let mut draw = rng.next_below(total);
        for c in candidates {
            let t = l.tickets(c.core.index()) as u64;
            if draw < t {
                return c.core;
            }
            draw -= t;
        }
        unreachable!()
    }

    #[test]
    fn select_matches_reference_draw_for_draw() {
        let mut subsets = SimRng::seed_from(5);
        for mut l in [
            Lottery::uniform(),
            Lottery::with_tickets(vec![3, 1, 4, 1, 5, 9, 2, 6]).unwrap(),
        ] {
            let (mut rng, mut oracle) = (SimRng::seed_from(6), SimRng::seed_from(6));
            for t in 0..2000 {
                // Cores 8..12 fall outside the weighted ticket vector.
                let cores: Vec<usize> = (0..12)
                    .filter(|_| subsets.gen_range_u64(0..3) > 0)
                    .collect();
                if cores.is_empty() {
                    continue;
                }
                let c = cands(&cores);
                assert_eq!(
                    l.select(&c, t, &mut rng).unwrap(),
                    reference_select(&l, &c, &mut oracle)
                );
            }
        }
    }
}
