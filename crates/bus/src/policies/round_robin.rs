//! Round-robin arbitration.

use crate::pending::Candidate;
use crate::policy::{ArbitrationPolicy, RandomSource};
use sim_core::{CoreId, Cycle};

/// Classic round-robin: after granting core `i`, the search for the next
/// winner starts at core `i + 1` (mod N), so under saturation every core is
/// granted exactly once per N grants.
///
/// Round-robin is *slot-fair*: with contenders issuing requests of unequal
/// duration it produces the bandwidth skew the paper's Section II
/// illustrates (a 5-cycle requester alternating with a 45-cycle requester
/// receives only 10% of the bus cycles).
///
/// # Example
///
/// ```
/// use cba_bus::policies::RoundRobin;
/// use cba_bus::{ArbitrationPolicy, Candidate};
/// use sim_core::CoreId;
/// use sim_core::rng::SimRng;
///
/// let mut rr = RoundRobin::new(4);
/// let mut rng = SimRng::seed_from(0);
/// let all: Vec<Candidate> = (0..4)
///     .map(|i| Candidate { core: CoreId::from_index(i), issued_at: 0, duration: 5 })
///     .collect();
/// let first = rr.select(&all, 0, &mut rng).unwrap();
/// rr.on_grant(first, 0);
/// let second = rr.select(&all, 5, &mut rng).unwrap();
/// assert_eq!(second.index(), (first.index() + 1) % 4);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n_cores: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin arbiter for `n_cores` cores, starting its
    /// search at core 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "n_cores must be positive");
        RoundRobin { n_cores, next: 0 }
    }

    /// The core index at which the next search will start.
    pub fn cursor(&self) -> usize {
        self.next
    }
}

impl ArbitrationPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn select(
        &mut self,
        candidates: &[Candidate],
        _now: Cycle,
        _rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        if candidates.is_empty() {
            return None;
        }
        // candidates are ordered by core index; find the first candidate at
        // or after the cursor, wrapping around.
        candidates
            .iter()
            .find(|c| c.core.index() >= self.next)
            .or_else(|| candidates.first())
            .map(|c| c.core)
    }

    fn on_grant(&mut self, core: CoreId, _now: Cycle) {
        self.next = (core.index() + 1) % self.n_cores;
    }

    fn reset(&mut self) {
        self.next = 0;
    }

    fn signature(&self, state: &mut Vec<u64>) -> bool {
        state.push(self.next as u64);
        true
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
    fn cycles_through_all_pending() {
        let mut rr = RoundRobin::new(4);
        let mut rng = SimRng::seed_from(0);
        let all = cands(&[0, 1, 2, 3]);
        let mut order = Vec::new();
        for t in 0..8 {
            let w = rr.select(&all, t, &mut rng).unwrap();
            rr.on_grant(w, t);
            order.push(w.index());
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_idle_cores() {
        let mut rr = RoundRobin::new(4);
        let mut rng = SimRng::seed_from(0);
        let some = cands(&[1, 3]);
        let w = rr.select(&some, 0, &mut rng).unwrap();
        assert_eq!(w.index(), 1);
        rr.on_grant(w, 0);
        let w = rr.select(&some, 1, &mut rng).unwrap();
        assert_eq!(w.index(), 3);
        rr.on_grant(w, 1);
        // wraps around
        let w = rr.select(&some, 2, &mut rng).unwrap();
        assert_eq!(w.index(), 1);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut rr = RoundRobin::new(4);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(rr.select(&[], 0, &mut rng), None);
    }

    #[test]
    fn slot_counts_differ_by_at_most_one_under_saturation() {
        let mut rr = RoundRobin::new(4);
        let mut rng = SimRng::seed_from(0);
        let all = cands(&[0, 1, 2, 3]);
        let mut counts = [0u32; 4];
        for t in 0..1003 {
            let w = rr.select(&all, t, &mut rng).unwrap();
            rr.on_grant(w, t);
            counts[w.index()] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "counts: {counts:?}");
    }

    #[test]
    fn reset_restores_cursor() {
        let mut rr = RoundRobin::new(2);
        rr.on_grant(CoreId::from_index(0), 0);
        assert_eq!(rr.cursor(), 1);
        rr.reset();
        assert_eq!(rr.cursor(), 0);
    }
}
