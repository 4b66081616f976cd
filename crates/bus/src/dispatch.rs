//! The bus's own slots for its policy and random source.
//!
//! The bus consults its policy, filter and random source on every cycle
//! it visits. The built-in parts sit in the enums of this module, so those
//! calls are direct and can inline into [`Bus::end_cycle`](crate::Bus::end_cycle);
//! a `Custom(Box<dyn …>)` arm keeps any other implementation pluggable
//! (user policies, timing proxies). The filter is the bus's type parameter
//! instead, because the credit filter lives downstream of this crate:
//! `Bus<F>` runs any `F`, and the default `Bus` runs a boxed one.

use crate::pending::{Candidate, PendingSet};
use crate::policies::{Fifo, FixedPriority, Lottery, RandomPermutation, RoundRobin, Tdma};
use crate::policy::{ArbitrationPolicy, EligibilityFilter, FilterHorizon, RandomSource};
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{CoreId, Cycle};

/// The policy slot of a bus: one of the built-in policies of
/// [`PolicyKind`](crate::PolicyKind), or any boxed [`ArbitrationPolicy`].
///
/// Its methods mirror the trait's; [`BusPolicy::select`] is generic over
/// the random source, so the randomized built-ins (RP, lottery) draw from
/// the bus's concrete source without a virtual call.
#[derive(Debug)]
#[allow(missing_docs)] // one arm per built-in policy type
pub enum BusPolicy {
    Fifo(Fifo),
    RoundRobin(RoundRobin),
    Tdma(Tdma),
    Lottery(Lottery),
    RandomPermutation(RandomPermutation),
    FixedPriority(FixedPriority),
    /// Any other policy, called through its trait object.
    Custom(Box<dyn ArbitrationPolicy>),
}

/// Runs `$body` with `$p` bound to the policy inside any arm of `$policy`.
macro_rules! each_policy {
    ($policy:expr, $p:ident => $body:expr) => {
        match $policy {
            BusPolicy::Fifo($p) => $body,
            BusPolicy::RoundRobin($p) => $body,
            BusPolicy::Tdma($p) => $body,
            BusPolicy::Lottery($p) => $body,
            BusPolicy::RandomPermutation($p) => $body,
            BusPolicy::FixedPriority($p) => $body,
            BusPolicy::Custom($p) => $body,
        }
    };
}

impl BusPolicy {
    /// [`ArbitrationPolicy::name`].
    pub fn name(&self) -> &'static str {
        each_policy!(self, p => p.name())
    }

    /// [`ArbitrationPolicy::select`], drawing from the concrete `rng`.
    #[inline]
    pub fn select<R: RandomSource>(
        &mut self,
        candidates: &[Candidate],
        now: Cycle,
        rng: &mut R,
    ) -> Option<CoreId> {
        match self {
            BusPolicy::RandomPermutation(p) => p.select_with(candidates, rng),
            BusPolicy::Lottery(p) => p.select_with(candidates, rng),
            other => each_policy!(other, p => p.select(candidates, now, rng)),
        }
    }

    /// [`ArbitrationPolicy::on_grant`].
    #[inline]
    pub fn on_grant(&mut self, core: CoreId, now: Cycle) {
        each_policy!(self, p => p.on_grant(core, now))
    }

    /// [`ArbitrationPolicy::reset`].
    pub fn reset(&mut self) {
        each_policy!(self, p => p.reset())
    }

    /// [`ArbitrationPolicy::is_work_conserving`].
    #[inline]
    pub fn is_work_conserving(&self) -> bool {
        each_policy!(self, p => p.is_work_conserving())
    }

    /// [`ArbitrationPolicy::next_grant_at`].
    pub fn next_grant_at(&self, candidates: &[Candidate], now: Cycle) -> Option<Cycle> {
        each_policy!(self, p => p.next_grant_at(candidates, now))
    }

    /// [`ArbitrationPolicy::signature`].
    pub fn signature(&self, state: &mut Vec<u64>) -> bool {
        each_policy!(self, p => p.signature(state))
    }
}

/// The random-source slot of a bus: the APRANDBANK model, a software
/// stream, or any boxed [`RandomSource`].
#[derive(Debug)]
// The bank stays inline: a bus holds one source and draws from it on
// its per-visit path, where a box would add a pointer hop per draw.
#[allow(clippy::large_enum_variant)]
pub enum BusRng {
    /// The bit-sliced LFSR bank of the FPGA prototype.
    Lfsr(LfsrBank),
    /// A software xoshiro stream.
    Soft(SimRng),
    /// Any other source, called through its trait object.
    Custom(Box<dyn RandomSource>),
}

impl RandomSource for BusRng {
    #[inline]
    fn next_below(&mut self, n: u64) -> u64 {
        match self {
            BusRng::Lfsr(bank) => bank.next_below(n),
            BusRng::Soft(rng) => rng.gen_range_u64(0..n),
            BusRng::Custom(rng) => rng.next_below(n),
        }
    }
}

/// A boxed filter is a filter: every call forwards to the box's contents,
/// so the default `Bus` runs a `Box<dyn EligibilityFilter>` as its `F`.
impl<T: EligibilityFilter + ?Sized> EligibilityFilter for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn is_eligible(&self, core: CoreId, now: Cycle) -> bool {
        (**self).is_eligible(core, now)
    }

    fn on_grant(&mut self, core: CoreId, duration: u32, now: Cycle) {
        (**self).on_grant(core, duration, now)
    }

    fn tick(&mut self, now: Cycle, owner: Option<CoreId>, pending: &PendingSet) {
        (**self).tick(now, owner, pending)
    }

    fn advance(&mut self, now: Cycle, k: u64, owner: Option<CoreId>, pending: &PendingSet) {
        (**self).advance(now, k, owner, pending)
    }

    fn next_eligibility_flip(&self, now: Cycle, pending: &PendingSet) -> FilterHorizon {
        (**self).next_eligibility_flip(now, pending)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn signature(&self, state: &mut Vec<u64>) -> bool {
        (**self).signature(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    fn cands(cores: &[usize]) -> Vec<Candidate> {
        cores
            .iter()
            .map(|&i| Candidate {
                core: CoreId::from_index(i),
                issued_at: i as Cycle,
                duration: 5,
            })
            .collect()
    }

    /// Every built-in arm picks exactly what its boxed twin picks, draw
    /// for draw, over changing candidate sets.
    #[test]
    fn builtin_arms_match_boxed_policies() {
        for kind in PolicyKind::ALL {
            let mut fast = kind.bus_policy(4, 56);
            let mut boxed = BusPolicy::Custom(kind.build(4, 56));
            assert_eq!(fast.name(), boxed.name());
            assert_eq!(fast.is_work_conserving(), boxed.is_work_conserving());
            let mut a = BusRng::Lfsr(LfsrBank::new(16, 5).unwrap());
            let mut b = BusRng::Custom(Box::new(LfsrBank::new(16, 5).unwrap()));
            for now in 0..2_000u64 {
                let set = cands(&[0, 1, 2, 3][(now % 3) as usize..]);
                let pick = fast.select(&set, now, &mut a);
                assert_eq!(pick, boxed.select(&set, now, &mut b), "{kind} at {now}");
                if let Some(core) = pick {
                    fast.on_grant(core, now);
                    boxed.on_grant(core, now);
                }
            }
            assert_eq!(a.next_below(1 << 20), b.next_below(1 << 20), "{kind}");
        }
    }
}
