//! The open client side of the simulator: the [`SimAgent`] trait.
//!
//! PR 1 unified the *bus* side behind [`BusModel`](crate::BusModel); this
//! module mirrors that on the *client* side. A `SimAgent` is anything that
//! generates traffic against a request port `P` — a cycle-accurate core
//! model, a saturating contender, a periodic co-runner, a fixed-request
//! task, or a downstream user's custom workload — and every harness
//! (`Simulation`, the platform's `run_once`, the benches) drives agents
//! only through this trait, so new workload shapes plug in without
//! touching any harness code.
//!
//! The trait is generic over the port type `P` (kept `?Sized` so trait
//! objects like `dyn RequestPort` work) and the completion report type
//! `C`, because the kernel crate does not know the concrete bus types;
//! the bus workspace instantiates `C` with its completion report and `P`
//! with its client-side request port.
//!
//! # Contract
//!
//! An agent is a sequential state machine driven between the model's
//! `begin_cycle` and `end_cycle` of the cycles the engine executes:
//!
//! 1. [`tick`](SimAgent::tick) receives the cycle number, the cycle's
//!    completion report (if any) and the request port, may post traffic,
//!    and returns a [`Control`] verdict;
//! 2. [`wake_at`](SimAgent::wake_at), queried after the tick, bounds the
//!    next cycle at which ticking the agent can have any effect absent a
//!    completion addressed to it, and
//!    [`addressed`](SimAgent::addressed) says which completions are
//!    addressed to it;
//! 3. [`absorb_skipped`](SimAgent::absorb_skipped) replays per-cycle
//!    accounting for cycles in which the agent was not ticked, so
//!    statistics stay bit-identical to per-cycle execution;
//! 4. [`reset`](SimAgent::reset) must restore the agent to a
//!    fresh-construction state (the workspace's conformance suite asserts
//!    `reset` ≡ fresh construction for every shipped agent).
//!
//! Under [`Engine::Naive`](crate::sim::Engine::Naive) every agent is
//! ticked on every cycle. Under [`Engine::Events`](crate::sim::Engine::Events)
//! a sleeping agent is ticked only at its wake cycle or on a cycle whose
//! completion it is `addressed` by; on every other executed cycle it is
//! left alone, so one `absorb_skipped` call may span cycles in which
//! other agents were ticked. Hence the rule both hooks rest on: ticking
//! an agent before its wake, on a cycle that does not address it, must
//! change nothing but what `absorb_skipped(1)` would account. The default
//! `addressed` (every completion, and no completion, addresses the agent)
//! keeps an agent that does not override it ticked on every executed
//! cycle.

use crate::engine::Control;
use crate::rng::SimRng;
use crate::Cycle;

/// Snapshot of an agent's execution statistics, uniform across agent
/// kinds so harnesses can report on heterogeneous mixes.
///
/// Agents fill the fields they track and leave the rest at zero/`None`
/// (e.g. only the full core model accounts stall cycles); construct with
/// `AgentStats { ..Default::default() }` and set what you have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Bus transactions completed (grants absorbed) so far.
    pub completed: u64,
    /// Cycles spent on useful (non-stalled) work, if tracked.
    pub busy_cycles: u64,
    /// Cycles stalled waiting on the interconnect, if tracked.
    pub bus_stall_cycles: u64,
    /// Cycles stalled on a full store buffer, if tracked.
    pub store_stall_cycles: u64,
    /// Completion cycle, once the agent finished.
    pub done_at: Option<Cycle>,
    /// Memory-side counters, for agents that drive a cache hierarchy
    /// (miss-stream / coherence agents). `None` for every other kind, so
    /// harnesses can gate memory report columns on their presence.
    pub mem: Option<MemStats>,
}

/// Memory-side counters for agents whose bus traffic comes from a cache
/// hierarchy: the raw integer tallies a report layer needs to derive
/// miss rates and coherence-traffic fractions exactly (sums of `u64`s,
/// so campaign aggregation stays bit-deterministic across thread
/// counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Memory accesses executed (loads + stores, private and shared).
    pub accesses: u64,
    /// Accesses that required at least one bus transaction.
    pub misses: u64,
    /// Bus transactions posted (demand + coherence + writebacks).
    pub bus_txns: u64,
    /// Coherence transactions among `bus_txns` (read-exclusives,
    /// upgrades, invalidation acks, coherence writebacks).
    pub coherence: u64,
    /// Writebacks of modified data (dirty-victim evictions plus
    /// coherence-forced flushes).
    pub writebacks: u64,
}

impl MemStats {
    /// Accumulates another snapshot into this one (per-field sum), for
    /// summing per-agent counters into a per-run total.
    pub fn accumulate(&mut self, other: MemStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.bus_txns += other.bus_txns;
        self.coherence += other.coherence;
        self.writebacks += other.writebacks;
    }
}

/// One traffic-generating client of the simulated interconnect.
///
/// `P` is the request port the agent posts through (e.g. the bus
/// workspace's `RequestPort` trait object, or a concrete bus model); `C`
/// is the completion report delivered each cycle. See the [module
/// documentation](self) for the full contract and `sim_core::sim` for
/// the harness that drives agents.
pub trait SimAgent<P: ?Sized, C = ()> {
    /// Advances the agent by one cycle. `completed` is the model's
    /// completion report for this cycle (agents must ignore completions
    /// addressed to other agents). The returned [`Control`] is the
    /// agent's verdict for the *engine*: [`Control::Continue`] to be
    /// ticked on the next cycle, [`Control::Sleep`]`(t)` when nothing can
    /// happen before cycle `t` (mirroring [`SimAgent::wake_at`]), or
    /// [`Control::Stop`] to request that the whole simulation stop after
    /// this cycle (no shipped agent does; the hook exists for
    /// user-defined measurement agents).
    ///
    /// Under the events engine a sleeping agent is not ticked again
    /// before `t` unless a cycle's completion is
    /// [`addressed`](SimAgent::addressed) to it; the cycles in between
    /// reach it through [`absorb_skipped`](SimAgent::absorb_skipped)
    /// first.
    fn tick(&mut self, now: Cycle, completed: Option<&C>, port: &mut P) -> Control;

    /// The agent's sleep horizon, queried after its tick: the next cycle
    /// at which ticking it can have any effect, absent a completion
    /// addressed to it. `None` = must be ticked every cycle;
    /// `Some(Cycle::MAX)` = only a completion can wake it. The events
    /// engine ticks the agent at this cycle, on cycles it is
    /// [`addressed`](SimAgent::addressed) by, and on no other.
    fn wake_at(&self) -> Option<Cycle> {
        None
    }

    /// Whether the cycle's completion report `completion` (or its
    /// absence, `None`) can make a sleeping agent act: the events engine
    /// ticks an agent before its [`wake_at`](SimAgent::wake_at) cycle
    /// only on cycles where this returns `true`. The default, `true`
    /// for everything, ticks the agent on every executed cycle, which is
    /// always safe; an agent that reacts only to its own completions
    /// returns `completion.is_some_and(|c| c.core == my_core)`.
    fn addressed(&self, completion: Option<&C>) -> bool {
        let _ = completion;
        true
    }

    /// Whether the agent's workload has finished. Infinite agents
    /// (saturating/periodic contenders) return `false` forever.
    fn is_done(&self) -> bool;

    /// The cycle at which the workload finished, once done.
    fn done_at(&self) -> Option<Cycle> {
        None
    }

    /// Accounts `skipped` cycles in which the agent was not ticked, the
    /// ones right after the last cycle it was ticked at or accounted for
    /// (see [`SimAgent::wake_at`]): statistics must advance exactly as
    /// that many unchanged ticks would have advanced them. The events
    /// engine calls it lazily, before the agent's next tick, before a
    /// limit-cycle signature is captured and at the end of the run, so
    /// one call may span cycles the model skipped and executed cycles
    /// on which other agents were ticked. Agents whose state is already
    /// expressed in absolute cycles need nothing here.
    fn absorb_skipped(&mut self, skipped: u64) {
        let _ = skipped;
    }

    /// Whether the agent is **inert**: permanently done, with `tick` and
    /// `absorb_skipped` guaranteed no-ops forever. Harnesses may drop
    /// inert agents from their per-cycle loops entirely (the
    /// [`Simulation`](crate::sim::Simulation) facade does), so only
    /// return `true` when the agent can never act again — [`Idle`] is
    /// the canonical case. Returning `true` while not done breaks stop
    /// conditions; the default is `false`.
    fn is_inert(&self) -> bool {
        false
    }

    /// Restores the agent to a fresh-construction state for a new run.
    /// Agents with internal randomness must re-fork their streams from
    /// `rng` exactly as their constructor did; deterministic agents
    /// ignore it.
    fn reset(&mut self, rng: &mut SimRng);

    /// A uniform snapshot of the agent's execution statistics.
    fn stats(&self) -> AgentStats {
        AgentStats::default()
    }

    /// Limit-cycle hook of the events engine (see
    /// [`Simulation::run`](crate::sim::Simulation::run)): appends the
    /// agent's complete dynamic state after its tick at `now` to `state`,
    /// with every absolute cycle written as an offset from `now`, and its
    /// monotone counters to `counters` as `(value, ceiling)` pairs — the
    /// ceiling being the largest value a fast-forward may credit (e.g. one
    /// below a finite task's last completion, which must execute live).
    ///
    /// Returns whether the agent is **closed**: its future depends only on
    /// what it wrote and on the completions the model reports. The
    /// default, `false`, disables fast-forward for the whole run.
    fn signature(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<(u64, u64)>) -> bool {
        let _ = (now, state, counters);
        false
    }

    /// Limit-cycle hook: moves the agent `periods` whole periods ahead,
    /// `span` cycles in all. Every absolute cycle grows by `span`, every
    /// counter by `periods ×` its per-period growth in `deltas` (one
    /// entry per counter, in [`signature`](SimAgent::signature) order).
    /// Only called on agents whose `signature` returned `true`.
    fn shift(&mut self, periods: u64, span: Cycle, deltas: &[u64]) {
        let _ = (periods, span, deltas);
    }
}

/// The trivial agent: never posts, is always done, sleeps forever.
///
/// Stands in for an unloaded core so heterogeneous mixes can leave slots
/// empty without special-casing harness code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Idle;

impl Idle {
    /// Creates the idle agent.
    pub fn new() -> Self {
        Idle
    }
}

impl<P: ?Sized, C> SimAgent<P, C> for Idle {
    fn tick(&mut self, _now: Cycle, _completed: Option<&C>, _port: &mut P) -> Control {
        Control::Sleep(Cycle::MAX)
    }

    fn wake_at(&self) -> Option<Cycle> {
        Some(Cycle::MAX)
    }

    fn addressed(&self, _completion: Option<&C>) -> bool {
        false
    }

    fn is_done(&self) -> bool {
        true
    }

    fn is_inert(&self) -> bool {
        true
    }

    fn reset(&mut self, _rng: &mut SimRng) {}

    fn signature(
        &self,
        _now: Cycle,
        _state: &mut Vec<u64>,
        _counters: &mut Vec<(u64, u64)>,
    ) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_agent_is_inert() {
        let mut idle = Idle::new();
        let mut port = ();
        let verdict = SimAgent::<(), u32>::tick(&mut idle, 0, None, &mut port);
        assert_eq!(verdict, Control::Sleep(Cycle::MAX));
        assert!(SimAgent::<(), u32>::is_done(&idle));
        assert_eq!(SimAgent::<(), u32>::wake_at(&idle), Some(Cycle::MAX));
        assert!(!SimAgent::<(), u32>::addressed(&idle, Some(&3)));
        assert_eq!(SimAgent::<(), u32>::done_at(&idle), None);
        assert_eq!(SimAgent::<(), u32>::stats(&idle), AgentStats::default());
    }
}
