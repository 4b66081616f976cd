//! FIFO (arrival-order) arbitration.

use crate::pending::Candidate;
use crate::policy::{ArbitrationPolicy, RandomSource};
use sim_core::{CoreId, Cycle};

/// First-in-first-out arbitration: the pending request that became ready
/// earliest wins; ties (same issue cycle) break by core index, which makes
/// the policy fully deterministic.
///
/// FIFO is slot-fair under saturation (every waiting core is served before
/// any core is served twice) but, like round-robin, it is oblivious to
/// request *duration* and therefore bandwidth-unfair in the paper's sense.
#[derive(Debug, Clone, Default)]
pub struct Fifo;

impl Fifo {
    /// Creates the FIFO arbiter.
    pub fn new() -> Self {
        Fifo
    }
}

impl ArbitrationPolicy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn select(
        &mut self,
        candidates: &[Candidate],
        _now: Cycle,
        _rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        candidates
            .iter()
            .min_by_key(|c| (c.issued_at, c.core.index()))
            .map(|c| c.core)
    }

    fn signature(&self, _state: &mut Vec<u64>) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    fn cand(core: usize, at: Cycle) -> Candidate {
        Candidate {
            core: CoreId::from_index(core),
            issued_at: at,
            duration: 5,
        }
    }

    #[test]
    fn grants_oldest_request() {
        let mut f = Fifo::new();
        let mut rng = SimRng::seed_from(0);
        let cands = [cand(0, 30), cand(1, 10), cand(2, 20)];
        assert_eq!(f.select(&cands, 40, &mut rng).unwrap().index(), 1);
    }

    #[test]
    fn ties_break_by_core_index() {
        let mut f = Fifo::new();
        let mut rng = SimRng::seed_from(0);
        let cands = [cand(2, 10), cand(3, 10)];
        assert_eq!(f.select(&cands, 40, &mut rng).unwrap().index(), 2);
    }

    #[test]
    fn empty_yields_none() {
        let mut f = Fifo::new();
        let mut rng = SimRng::seed_from(0);
        assert_eq!(f.select(&[], 0, &mut rng), None);
    }

    #[test]
    fn serves_every_waiter_before_repeats() {
        // With all cores re-posting immediately, FIFO serves them in a
        // rotating order: each service makes that core's next request the
        // youngest.
        let mut f = Fifo::new();
        let mut rng = SimRng::seed_from(0);
        let mut issued = [0u64, 0, 0, 0];
        let mut order = Vec::new();
        let mut now = 0u64;
        for _ in 0..12 {
            let cands: Vec<Candidate> = (0..4).map(|i| cand(i, issued[i])).collect();
            let w = f.select(&cands, now, &mut rng).unwrap();
            order.push(w.index());
            now += 5;
            issued[w.index()] = now;
        }
        for window in order.chunks(4) {
            let mut sorted = window.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "order: {order:?}");
        }
    }
}
