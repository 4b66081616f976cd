//! Fixed-priority arbitration — the anti-example.

use crate::pending::Candidate;
use crate::policy::{ArbitrationPolicy, RandomSource};
use sim_core::{CoreId, Cycle};

/// Fixed-priority arbitration: the candidate with the lowest core index
/// always wins.
///
/// The paper's Section II rules this out for platforms where *all* cores run
/// real-time tasks: a high-priority core issuing requests back-to-back
/// starves everyone below it, so no WCET bound exists for low-priority
/// cores. It is included as a baseline to demonstrate exactly that (see the
/// starvation test below and the fairness sweep bench).
#[derive(Debug, Clone, Default)]
pub struct FixedPriority;

impl FixedPriority {
    /// Creates the fixed-priority arbiter (priority = core index order).
    pub fn new() -> Self {
        FixedPriority
    }
}

impl ArbitrationPolicy for FixedPriority {
    fn name(&self) -> &'static str {
        "PRI"
    }

    fn select(
        &mut self,
        candidates: &[Candidate],
        _now: Cycle,
        _rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        // candidates are ordered by core index, so the first is the winner.
        candidates.first().map(|c| c.core)
    }

    fn signature(&self, _state: &mut Vec<u64>) -> bool {
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
    fn lowest_index_always_wins() {
        let mut p = FixedPriority::new();
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            p.select(&cands(&[1, 2, 3]), 0, &mut rng).unwrap().index(),
            1
        );
        assert_eq!(p.select(&cands(&[0, 3]), 0, &mut rng).unwrap().index(), 0);
    }

    #[test]
    fn starves_lower_priorities_under_saturation() {
        // With core 0 always pending, no other core is ever granted: the
        // property that disqualifies fixed priority for real-time buses.
        let mut p = FixedPriority::new();
        let mut rng = SimRng::seed_from(0);
        let all = cands(&[0, 1, 2, 3]);
        for t in 0..1000 {
            assert_eq!(p.select(&all, t, &mut rng).unwrap().index(), 0);
        }
    }

    #[test]
    fn empty_yields_none() {
        let mut p = FixedPriority::new();
        let mut rng = SimRng::seed_from(0);
        assert_eq!(p.select(&[], 0, &mut rng), None);
    }
}
