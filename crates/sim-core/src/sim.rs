//! The [`Simulation`] facade: model + agents + stop condition + engine +
//! probe, runnable as a library call.
//!
//! Before this facade, driving a simulation meant hand-rolling the
//! [`drive`](crate::drive) closure: tick every client, evaluate the stop
//! condition, aggregate sleep horizons, absorb skipped cycles. The
//! builder packages that loop once, for any [`BusModel`] and any set of
//! [`SimAgent`]s:
//!
//! ```
//! use sim_core::agent::{Idle, SimAgent};
//! use sim_core::sim::{Engine, Simulation, StopWhen};
//! use sim_core::{BusModel, Control, CoreId, Cycle};
//! # use sim_core::trace::GrantTrace;
//! #
//! # #[derive(Debug)]
//! # struct ToyBus { trace: GrantTrace, queue: u64, busy_until: Option<Cycle> }
//! # impl ToyBus { fn new() -> Self { ToyBus { trace: GrantTrace::counting(1), queue: 0, busy_until: None } } }
//! # impl BusModel for ToyBus {
//! #     type Request = u32;
//! #     type Completion = ();
//! #     type Error = ();
//! #     fn begin_cycle(&mut self, now: Cycle) -> Option<()> {
//! #         if self.busy_until == Some(now) { self.busy_until = None; return Some(()); }
//! #         None
//! #     }
//! #     fn post(&mut self, dur: u32) -> Result<(), ()> { self.queue += dur as u64; Ok(()) }
//! #     fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
//! #         if self.busy_until.is_none() && self.queue > 0 {
//! #             let d = self.queue.min(4); self.queue -= d;
//! #             self.busy_until = Some(now + d);
//! #             self.trace.record(now, CoreId::from_index(0), d as u32);
//! #             return Some(CoreId::from_index(0));
//! #         }
//! #         None
//! #     }
//! #     fn owner(&self) -> Option<CoreId> { self.busy_until.map(|_| CoreId::from_index(0)) }
//! #     fn trace(&self) -> &GrantTrace { &self.trace }
//! # }
//!
//! /// An agent that posts one 4-cycle request every 10 cycles, 5 times.
//! struct Pulser { left: u32, next: Cycle, done_at: Option<Cycle> }
//!
//! impl SimAgent<ToyBus> for Pulser {
//!     fn tick(&mut self, now: Cycle, _done: Option<&()>, bus: &mut ToyBus) -> Control {
//!         if self.left > 0 && now >= self.next {
//!             bus.post(4).unwrap();
//!             self.left -= 1;
//!             self.next += 10;
//!         }
//!         if self.left == 0 && self.done_at.is_none() {
//!             self.done_at = Some(now);
//!         }
//!         Control::Sleep(self.next)
//!     }
//!     fn wake_at(&self) -> Option<Cycle> { Some(self.next) }
//!     fn is_done(&self) -> bool { self.left == 0 }
//!     fn done_at(&self) -> Option<Cycle> { self.done_at }
//!     fn reset(&mut self, _rng: &mut sim_core::rng::SimRng) {
//!         *self = Pulser { left: 5, next: 0, done_at: None };
//!     }
//! }
//!
//! let mut sim = Simulation::builder()
//!     .model(ToyBus::new())
//!     .agent(Pulser { left: 5, next: 0, done_at: None })
//!     .agent(Idle::new())
//!     .stop(StopWhen::AllAgentsDone)
//!     .engine(Engine::Events)
//!     .max_cycles(1_000)
//!     .build();
//! let outcome = sim.run();
//! assert!(outcome.stopped, "all five pulses posted");
//! assert_eq!(sim.model().trace().total_slots(), 5);
//! ```
//!
//! The same loop runs [`drive`](crate::drive) /
//! [`drive_events`](crate::drive_events), with their callback as the
//! only agent, so the facade adds only agents, a stop condition and a
//! [`Probe`] on top of them; the workspace's identity tests pin naive ≡
//! events through the platform layer.

use crate::agent::SimAgent;
use crate::engine::{BusModel, Control, DriveOutcome};
use crate::probe::{ModelEvent, NoProbe, Probe};
use crate::{CoreId, Cycle};
use std::collections::HashMap;
use std::ops::DerefMut;

/// A boxed agent driving model `M` (the common currency of
/// [`SimulationBuilder::agent`]).
pub type BoxedAgent<M> = Box<dyn SimAgent<M, <M as BusModel>::Completion>>;

/// When a [`Simulation`] run stops (besides the `max_cycles` safety
/// limit, which always applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Stop when the agent at this index reports
    /// [`is_done`](SimAgent::is_done) (the platform's "TuA done", with
    /// index 0).
    AgentDone(usize),
    /// Stop when every agent reports done.
    AllAgentsDone,
    /// Run exactly this many cycles (for share/fairness measurements).
    Horizon(Cycle),
}

/// Which cycle loop executes the run. [`Engine::Events`] and
/// [`Engine::Naive`] produce bit-identical results; see
/// [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The fast path: skips provably uneventful cycle ranges and
    /// fast-forwards detected limit cycles. The default.
    #[default]
    Events,
    /// The per-cycle reference loop: visits every cycle.
    Naive,
}

/// A fully assembled simulation: one model, its agents, a stop
/// condition, an engine and a probe. Built by [`Simulation::builder`];
/// see the [module documentation](self) for an end-to-end example.
pub struct Simulation<M: BusModel, P: Probe<M::Completion> = NoProbe> {
    model: M,
    agents: Vec<BoxedAgent<M>>,
    stop: StopWhen,
    engine: Engine,
    max_cycles: Cycle,
    probe: P,
    outcome: Option<DriveOutcome>,
}

impl<M: BusModel> Simulation<M, NoProbe> {
    /// Starts assembling a simulation. The model type is inferred from
    /// the [`model`](SimulationBuilder::model) call.
    pub fn builder() -> SimulationBuilder<M, NoProbe> {
        SimulationBuilder {
            model: None,
            agents: Vec::new(),
            stop: StopWhen::AllAgentsDone,
            engine: Engine::default(),
            max_cycles: Cycle::MAX,
            probe: NoProbe,
        }
    }
}

impl<M: BusModel, P: Probe<M::Completion>> Simulation<M, P> {
    /// Drives the simulation to its stop condition (or the `max_cycles`
    /// safety limit) and returns the outcome.
    ///
    /// Each executed cycle runs the model's `begin_cycle`, ticks agents
    /// with the cycle's completion, runs `end_cycle` and checks the stop
    /// condition. [`Engine::Naive`] executes every cycle and ticks every
    /// agent on it; [`Engine::Events`] adds three shortcuts, all
    /// bit-identical to it:
    ///
    /// * **due-only ticking** — on an executed cycle, an agent is ticked
    ///   only if the cycle has reached its sleep horizon (its last tick's
    ///   [`Control::Sleep`] cycle; [`Control::Continue`] means the next
    ///   cycle) or the agent is [`addressed`](SimAgent::addressed) by the
    ///   cycle's completion. The others sleep through the cycle; the
    ///   cycles an agent was not ticked at reach it as one lazy
    ///   [`SimAgent::absorb_skipped`] call before its next tick, before a
    ///   limit-cycle signature is captured and at the end of the run;
    /// * **event-horizon skipping** — when every agent sleeps past the
    ///   next cycle and the model can bound its next event
    ///   ([`BusModel::next_event`]), the uneventful cycles in between are
    ///   bulk-advanced ([`BusModel::advance`]);
    /// * **limit-cycle fast-forward** — when the model and every agent
    ///   are closed (their `signature` hooks return `true`) and no active
    ///   probe is attached, decided once per run, the loop records the
    ///   run's state at each grant to a reference core. Once a state
    ///   recurs, the run is periodic, and as many whole periods as fit
    ///   before the stop horizon, `max_cycles` and every counter's
    ///   ceiling are applied through the `shift` hooks instead of being
    ///   executed.
    ///
    /// [`drive`](crate::drive) and [`drive_events`](crate::drive_events)
    /// run this same loop with their callback as the only agent.
    ///
    /// Running consumes the workload: call it once per assembled run
    /// (reset the model and agents before reusing the same `Simulation`).
    pub fn run(&mut self) -> DriveOutcome {
        let outcome = run_loop(
            &mut self.model,
            &mut self.agents,
            &mut self.probe,
            self.stop,
            self.engine,
            self.max_cycles,
        );
        self.outcome = Some(outcome);
        outcome
    }

    /// The model, for post-run extraction (traces, statistics).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to reset it between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The agents, in the order they were added.
    pub fn agents(&self) -> &[BoxedAgent<M>] {
        &self.agents
    }

    /// Mutable access to the agents (e.g. to reset them between runs).
    pub fn agents_mut(&mut self) -> &mut [BoxedAgent<M>] {
        &mut self.agents
    }

    /// The agent at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn agent(&self, index: usize) -> &dyn SimAgent<M, M::Completion> {
        &*self.agents[index]
    }

    /// The probe, for post-run extraction of its accumulated data.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The outcome of the last [`run`](Simulation::run), if any.
    pub fn outcome(&self) -> Option<DriveOutcome> {
        self.outcome
    }

    /// Decomposes the simulation into its parts (model, agents, probe).
    pub fn into_parts(self) -> (M, Vec<BoxedAgent<M>>, P) {
        (self.model, self.agents, self.probe)
    }
}

/// The one cycle loop behind [`Simulation::run`], [`drive`](crate::drive)
/// and [`drive_events`](crate::drive_events); see [`Simulation::run`] for
/// what it does.
pub(crate) fn run_loop<M, P, A, T>(
    model: &mut M,
    agents: &mut [A],
    probe: &mut P,
    stop_when: StopWhen,
    engine: Engine,
    max_cycles: Cycle,
) -> DriveOutcome
where
    M: BusModel,
    P: Probe<M::Completion>,
    A: DerefMut<Target = T>,
    T: SimAgent<M, M::Completion> + ?Sized,
{
    let events = engine == Engine::Events;
    // Inert agents (permanently-done no-ops, e.g. idle cores) are
    // dropped from the per-cycle loop up front: their tick/absorb
    // are no-ops and their sleep horizon is unbounded by contract.
    let mut slots: Vec<Slot> = (0..agents.len())
        .filter(|&i| !agents[i].is_inert())
        .map(|index| Slot {
            index,
            wake: 0,
            accounted: 0,
        })
        .collect();
    let active: Vec<usize> = slots.iter().map(|slot| slot.index).collect();
    // Whether the run can fast-forward at all is decided here, once: the
    // model and every active agent must be closed.
    let mut limit_cycle = (events && !P::ACTIVE)
        .then(LimitCycle::default)
        .and_then(|mut lc| lc.capture(0, model, agents, &active).then_some(lc));
    // A fast-forward may land on any cycle before the one that fires a
    // horizon stop (h - 1 must execute live) and before `max_cycles`.
    let ff_limit = match stop_when {
        StopWhen::Horizon(h) => h.saturating_sub(2),
        _ => Cycle::MAX,
    }
    .min(max_cycles.saturating_sub(1));
    let mut now: Cycle = 0;
    let mut stopped = false;
    while now < max_cycles {
        let completed = model.begin_cycle(now);
        if P::ACTIVE {
            if let Some(c) = &completed {
                probe.on_completion(now, c);
            }
        }
        // Tick the agents that are due or addressed, in insertion order;
        // the others sleep through this cycle and absorb it later. The
        // tick verdicts carry each ticked agent's sleep horizon (the
        // trait contract: the verdict mirrors `wake_at`), so one pass
        // ticks and aggregates.
        let mut agent_stop = false;
        let mut until = Cycle::MAX;
        for slot in &mut slots {
            let agent = &mut agents[slot.index];
            if events && slot.wake > now && !agent.addressed(completed.as_ref()) {
                until = until.min(slot.wake);
                continue;
            }
            slot.absorb_through(now, agent);
            slot.wake = match agent.tick(now, completed.as_ref(), model) {
                Control::Sleep(t) => t,
                Control::Continue => now + 1,
                Control::Stop => {
                    agent_stop = true;
                    now + 1
                }
            };
            slot.accounted = now + 1;
            until = until.min(slot.wake);
        }
        let granted = model.end_cycle(now);
        if P::ACTIVE {
            if let Some(core) = granted {
                probe.on_grant(now, core);
            }
            model.drain_events(&mut |event| forward_event(probe, event));
        }
        let stop = agent_stop
            || match stop_when {
                StopWhen::AgentDone(i) => agents[i].is_done(),
                // Inert agents are done by contract: checking the
                // active set is equivalent.
                StopWhen::AllAgentsDone => active.iter().all(|&i| agents[i].is_done()),
                StopWhen::Horizon(h) => now + 1 >= h,
            };
        if stop {
            now += 1;
            stopped = true;
            break;
        }
        if let (Some(lc), Some(core)) = (&mut limit_cycle, granted) {
            if *lc.core.get_or_insert(core) == core {
                // The signature reads every agent's counters as of the
                // end of this cycle.
                for slot in &mut slots {
                    slot.absorb_through(now + 1, &mut agents[slot.index]);
                }
                if let Some(span) = lc.sample(now, ff_limit, model, agents, &active) {
                    now += span;
                    // The shift accounted the jumped cycles, and the
                    // pre-jump sleep horizons are stale; an agent without
                    // one (`None`) forbids skipping.
                    until = Cycle::MAX;
                    for slot in &mut slots {
                        slot.accounted = now + 1;
                        slot.wake = agents[slot.index].wake_at().unwrap_or(now + 1);
                        until = until.min(slot.wake);
                    }
                }
            }
        }
        if events {
            if let StopWhen::Horizon(h) = stop_when {
                // The stop fires from the tick at cycle h - 1; never
                // skip it.
                until = until.min(h - 1);
            }
            if until > now + 1 {
                if let Some(event) = model.next_event(now) {
                    let jump = event.min(until).min(max_cycles);
                    if jump > now + 1 {
                        model.advance(now, jump);
                        now = jump;
                        continue;
                    }
                }
            }
        }
        now += 1;
    }
    // Agents account lazily: bring every one up to the end of the run so
    // its statistics equal the per-cycle loop's.
    for slot in &mut slots {
        slot.absorb_through(now, &mut agents[slot.index]);
    }
    if P::ACTIVE {
        // A run truncated mid-skip leaves events buffered by the
        // final `advance` (e.g. coalesced credit flips); drain them
        // before closing the stream.
        model.drain_events(&mut |event| forward_event(probe, event));
        probe.on_finish(now);
    }
    DriveOutcome {
        cycles: now,
        stopped,
    }
}

/// The events loop's book-keeping for one active agent.
struct Slot {
    /// The agent's index in the run's agent list.
    index: usize,
    /// The next cycle the agent is due: its last verdict's horizon.
    wake: Cycle,
    /// The first cycle not yet ticked or absorbed.
    accounted: Cycle,
}

impl Slot {
    /// Replays the cycles before `end` the agent was not ticked at.
    fn absorb_through<A: DerefMut<Target = T>, T: ?Sized + SimAgent<M, C>, M, C>(
        &mut self,
        end: Cycle,
        agent: &mut A,
    ) {
        if end > self.accounted {
            agent.absorb_skipped(end - self.accounted);
            self.accounted = end;
        }
    }
}

/// Cap on the limit-cycle signature table: a run whose state never recurs
/// (e.g. priority starvation with unboundedly aging requests) would
/// otherwise grow one entry per sample.
const MAX_SIGNATURES: usize = 4096;

/// The events engine's limit-cycle detector: recorded run signatures
/// (each active agent's state, then the model's, all relative to the
/// sampling cycle) with the cycle and the counter values at which each
/// was seen.
#[derive(Default)]
struct LimitCycle {
    /// The core whose grants are the sampling instants: the first core
    /// granted in the run. Sampling one core's grants sees every limit
    /// cycle at a fraction of the cost of sampling every grant.
    core: Option<CoreId>,
    table: HashMap<Vec<u64>, (Cycle, Vec<u64>)>,
    state: Vec<u64>,
    counters: Vec<(u64, u64)>,
    /// Start offset in `counters` of each active agent's counters, then
    /// of the model's (which run to the end).
    ends: Vec<usize>,
}

impl LimitCycle {
    /// Captures the run's signature after executed cycle `now`; `false`
    /// if a participant is not closed at the moment.
    fn capture<M: BusModel, A: DerefMut<Target = T>, T: SimAgent<M, M::Completion> + ?Sized>(
        &mut self,
        now: Cycle,
        model: &M,
        agents: &[A],
        active: &[usize],
    ) -> bool {
        self.state.clear();
        self.counters.clear();
        self.ends.clear();
        self.ends.push(0);
        // Agents first: an open agent (the usual case) settles the
        // verdict before the model does any work.
        for &i in active {
            let start = self.state.len();
            if !agents[i].signature(now, &mut self.state, &mut self.counters) {
                return false;
            }
            // Delimit each agent's part so two runs cannot collide by
            // splitting the same words differently between agents.
            self.state.push((self.state.len() - start) as u64);
            self.ends.push(self.counters.len());
        }
        model.signature(now, &mut self.state, &mut self.counters)
    }

    /// One sampling instant: records the run's signature or, when it
    /// recurs, fast-forwards as many whole periods as fit before `limit`
    /// and below every counter's ceiling. Returns the cycles skipped.
    #[inline(never)]
    fn sample<M: BusModel, A: DerefMut<Target = T>, T: SimAgent<M, M::Completion> + ?Sized>(
        &mut self,
        now: Cycle,
        limit: Cycle,
        model: &mut M,
        agents: &mut [A],
        active: &[usize],
    ) -> Option<Cycle> {
        if !self.capture(now, model, agents, active) {
            return None;
        }
        let Some((at, seen)) = self.table.get(self.state.as_slice()) else {
            if self.table.len() >= MAX_SIGNATURES {
                self.table.clear();
            }
            let values = self.counters.iter().map(|&(value, _)| value).collect();
            self.table.insert(self.state.clone(), (now, values));
            return None;
        };
        let period = now - at;
        let deltas: Vec<u64> = self
            .counters
            .iter()
            .zip(seen)
            .map(|(&(value, _), &old)| value - old)
            .collect();
        let headroom = self.counters.iter().zip(&deltas);
        let periods = headroom
            .filter_map(|(&(value, ceiling), &delta)| {
                ceiling.saturating_sub(value).checked_div(delta)
            })
            .fold(limit.saturating_sub(now) / period, u64::min);
        if periods == 0 {
            return None;
        }
        let span = periods * period;
        for (k, &i) in active.iter().enumerate() {
            agents[i].shift(periods, span, &deltas[self.ends[k]..self.ends[k + 1]]);
        }
        model.shift(periods, span, &deltas[self.ends[active.len()]..]);
        // The recorded signatures belong to the pre-jump timeline.
        self.table.clear();
        Some(span)
    }
}

/// Routes one drained [`ModelEvent`] to its probe callback (shared by
/// the per-cycle and end-of-run drains so a future event variant cannot
/// be wired into one and forgotten in the other).
fn forward_event<C, P: Probe<C>>(probe: &mut P, event: ModelEvent) {
    match event {
        ModelEvent::CreditFlip { at, core, eligible } => probe.on_credit_flip(at, core, eligible),
    }
}

/// Assembles a [`Simulation`]; created by [`Simulation::builder`].
pub struct SimulationBuilder<M: BusModel, P: Probe<M::Completion> = NoProbe> {
    model: Option<M>,
    agents: Vec<BoxedAgent<M>>,
    stop: StopWhen,
    engine: Engine,
    max_cycles: Cycle,
    probe: P,
}

impl<M: BusModel, P: Probe<M::Completion>> SimulationBuilder<M, P> {
    /// Sets the interconnect model (a flat bus, a split bus, a fabric —
    /// anything implementing [`BusModel`]). Required.
    pub fn model(mut self, model: M) -> Self {
        self.model = Some(model);
        self
    }

    /// Adds one agent. Agents are ticked in insertion order each cycle;
    /// index 0 is the platform's "task under analysis" slot.
    pub fn agent(mut self, agent: impl SimAgent<M, M::Completion> + 'static) -> Self {
        self.agents.push(Box::new(agent));
        self
    }

    /// Adds one already-boxed agent (the currency of agent registries).
    pub fn agent_boxed(mut self, agent: BoxedAgent<M>) -> Self {
        self.agents.push(agent);
        self
    }

    /// Adds a batch of boxed agents, in order.
    pub fn agents(mut self, agents: impl IntoIterator<Item = BoxedAgent<M>>) -> Self {
        self.agents.extend(agents);
        self
    }

    /// Sets the stop condition (default: [`StopWhen::AllAgentsDone`]).
    pub fn stop(mut self, stop: StopWhen) -> Self {
        self.stop = stop;
        self
    }

    /// Selects the cycle loop (default: [`Engine::Events`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the hard safety limit on simulated cycles (default:
    /// `Cycle::MAX`, i.e. effectively unlimited — set one whenever the
    /// stop condition could fail to fire).
    pub fn max_cycles(mut self, max_cycles: Cycle) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Attaches a streaming observer, replacing the zero-cost
    /// [`NoProbe`] default.
    pub fn observe<Q: Probe<M::Completion>>(self, probe: Q) -> SimulationBuilder<M, Q> {
        SimulationBuilder {
            model: self.model,
            agents: self.agents,
            stop: self.stop,
            engine: self.engine,
            max_cycles: self.max_cycles,
            probe,
        }
    }

    /// Finishes assembly.
    ///
    /// # Panics
    ///
    /// Panics if no model was set, or if the stop condition is
    /// [`StopWhen::AgentDone`] with an index past the last agent.
    pub fn build(self) -> Simulation<M, P> {
        if let StopWhen::AgentDone(i) = self.stop {
            let n = self.agents.len();
            assert!(
                i < n,
                "StopWhen::AgentDone({i}) names no agent: the simulation has {n} agent(s)"
            );
        }
        Simulation {
            model: self.model.expect("Simulation::builder needs a model"),
            agents: self.agents,
            stop: self.stop,
            engine: self.engine,
            max_cycles: self.max_cycles,
            probe: self.probe,
            outcome: None,
        }
    }

    /// Convenience: [`build`](SimulationBuilder::build) then
    /// [`run`](Simulation::run), returning the finished simulation for
    /// result extraction (its [`outcome`](Simulation::outcome) is set).
    pub fn run(self) -> Simulation<M, P> {
        let mut sim = self.build();
        sim.run();
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentStats, Idle};
    use crate::engine::tests::OneShot;
    use crate::rng::SimRng;
    use crate::CoreId;

    /// Posts `n` 7-cycle requests, one per 20-cycle period.
    struct Periodic {
        left: u32,
        next: Cycle,
        waiting: bool,
        done_at: Option<Cycle>,
        skipped_seen: u64,
        ticked: u64,
    }

    impl Periodic {
        fn new(n: u32) -> Self {
            Periodic {
                left: n,
                next: 0,
                waiting: false,
                done_at: None,
                skipped_seen: 0,
                ticked: 0,
            }
        }
    }

    impl SimAgent<OneShot, Cycle> for Periodic {
        fn tick(&mut self, now: Cycle, completed: Option<&Cycle>, bus: &mut OneShot) -> Control {
            self.ticked += 1;
            if completed.is_some() && self.waiting {
                self.waiting = false;
                if self.left == 0 && self.done_at.is_none() {
                    self.done_at = Some(now);
                }
            }
            if self.left > 0 && now >= self.next && !self.waiting {
                bus.post(7).unwrap();
                self.left -= 1;
                self.next = (now / 20 + 1) * 20;
                self.waiting = true;
            }
            Control::Sleep(self.wake_at().unwrap())
        }

        fn wake_at(&self) -> Option<Cycle> {
            if self.waiting || self.left == 0 {
                Some(Cycle::MAX)
            } else {
                Some(self.next)
            }
        }

        /// The only poster on the model: every completion is its own.
        fn addressed(&self, completion: Option<&Cycle>) -> bool {
            completion.is_some()
        }

        fn is_done(&self) -> bool {
            self.left == 0 && !self.waiting
        }

        fn done_at(&self) -> Option<Cycle> {
            self.done_at
        }

        fn absorb_skipped(&mut self, skipped: u64) {
            self.skipped_seen += skipped;
        }

        fn stats(&self) -> AgentStats {
            AgentStats {
                busy_cycles: self.ticked,
                bus_stall_cycles: self.skipped_seen,
                ..Default::default()
            }
        }

        fn reset(&mut self, _rng: &mut SimRng) {
            *self = Periodic::new(5);
        }
    }

    fn run_with(engine: Engine) -> (Simulation<OneShot>, DriveOutcome) {
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(5))
            .agent(Idle::new())
            .stop(StopWhen::AllAgentsDone)
            .engine(engine)
            .max_cycles(10_000)
            .build();
        let outcome = sim.run();
        (sim, outcome)
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        let (naive_sim, naive) = run_with(Engine::Naive);
        let (fast_sim, fast) = run_with(Engine::Events);
        assert_eq!(naive, fast);
        assert_eq!(
            naive_sim.model().trace().total_slots(),
            fast_sim.model().trace().total_slots()
        );
        assert_eq!(naive_sim.agent(0).done_at(), fast_sim.agent(0).done_at());
        assert!(fast_sim.model().skipped > 0, "fast path must skip");
        assert_eq!(naive_sim.model().skipped, 0, "naive path never skips");
        // Skipped-cycle accounting reaches the agents.
        assert!(fast_sim.outcome().is_some());
    }

    /// Ticked on every cycle, never done.
    struct Ticker;

    impl SimAgent<OneShot, Cycle> for Ticker {
        fn tick(&mut self, _now: Cycle, _completed: Option<&Cycle>, _bus: &mut OneShot) -> Control {
            Control::Continue
        }

        fn is_done(&self) -> bool {
            false
        }

        fn reset(&mut self, _rng: &mut SimRng) {}
    }

    #[test]
    fn sleeping_agents_absorb_every_cycle_they_sat_out() {
        for engine in [Engine::Naive, Engine::Events] {
            let mut sim = Simulation::builder()
                .model(OneShot::new())
                .agent(Periodic::new(5))
                .agent(Ticker)
                .stop(StopWhen::AgentDone(0))
                .engine(engine)
                .max_cycles(10_000)
                .build();
            let outcome = sim.run();
            // Ticked cycles and absorbed ones, as its stats report them.
            let seen = sim.agent(0).stats();
            assert_eq!(
                seen.busy_cycles + seen.bus_stall_cycles,
                outcome.cycles,
                "{engine:?}: every cycle of the run reaches the agent once"
            );
            if engine == Engine::Events {
                assert!(seen.bus_stall_cycles > 0, "it sat out cycles");
                assert_eq!(sim.model().skipped, 0, "the ticker allows no skip");
            }
        }
    }

    #[test]
    fn horizon_stop_is_exact() {
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(1_000))
            .stop(StopWhen::Horizon(137))
            .max_cycles(10_000)
            .build();
        let outcome = sim.run();
        assert!(outcome.stopped);
        assert_eq!(outcome.cycles, 137);
    }

    #[test]
    fn agent_done_stop_uses_the_indexed_agent() {
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(2))
            .stop(StopWhen::AgentDone(0))
            .max_cycles(10_000)
            .build();
        let outcome = sim.run();
        assert!(outcome.stopped);
        assert_eq!(sim.agent(0).done_at(), Some(27), "second grant at 20+7");
    }

    #[test]
    fn max_cycles_bounds_the_run() {
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(u32::MAX))
            .max_cycles(100)
            .build();
        let outcome = sim.run();
        assert!(!outcome.stopped);
        assert_eq!(outcome.cycles, 100);
    }

    #[derive(Default)]
    struct CountingProbe {
        grants: u64,
        completions: u64,
        finish: Option<Cycle>,
    }

    impl Probe<Cycle> for CountingProbe {
        fn on_grant(&mut self, _now: Cycle, _core: CoreId) {
            self.grants += 1;
        }
        fn on_completion(&mut self, _now: Cycle, _c: &Cycle) {
            self.completions += 1;
        }
        fn on_finish(&mut self, total: Cycle) {
            self.finish = Some(total);
        }
    }

    #[test]
    fn probe_sees_every_grant_and_completion() {
        let sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(5))
            .stop(StopWhen::AllAgentsDone)
            .max_cycles(10_000)
            .observe(CountingProbe::default())
            .run();
        let probe = sim.probe();
        assert_eq!(probe.grants, 5);
        assert_eq!(probe.completions, 5);
        assert_eq!(probe.finish, sim.outcome().map(|o| o.cycles));
        assert_eq!(sim.model().trace().total_slots(), 5);
    }

    #[test]
    #[should_panic(
        expected = "StopWhen::AgentDone(1) names no agent: the simulation has 1 agent(s)"
    )]
    fn agent_done_past_the_last_agent_is_rejected_at_build() {
        let _ = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(2))
            .stop(StopWhen::AgentDone(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "needs a model")]
    fn building_without_a_model_panics() {
        let _ = Simulation::<OneShot>::builder().build();
    }
}
