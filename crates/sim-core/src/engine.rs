//! The unified cycle-driving engine: one [`BusModel`] trait over every bus
//! variant, and one [`drive`] loop shared by the platform, the benchmark
//! harness and the examples.
//!
//! # Why
//!
//! The repository models two interconnect substrates — a non-split bus and
//! a split-transaction bus — and historically each exposed its own cycle
//! protocol (`tick(now)` versus `begin_cycle`/`end_cycle`), so every
//! harness hand-rolled its own drive loop. `BusModel` fixes the protocol
//! once:
//!
//! 1. [`BusModel::begin_cycle`]`(t)` — a transaction ending at `t`
//!    completes and is reported;
//! 2. clients post requests for cycle `t` via [`BusModel::post`];
//! 3. [`BusModel::end_cycle`]`(t)` — arbitration runs if the bus is free
//!    and per-cycle filter state (credit counters) advances.
//!
//! [`BusModel::tick`] bundles the phases for clients that post between
//! cycles, and [`drive`] owns the `while` loop, the stop condition and the
//! cycle counter, so a policy × filter × bus-variant scenario is expressed
//! as *one closure* that posts traffic.
//!
//! # Example
//!
//! ```
//! use sim_core::engine::{drive, BusModel, Control};
//! use sim_core::trace::GrantTrace;
//! use sim_core::{CoreId, Cycle};
//!
//! /// A one-core toy bus: every posted unit-length request is granted on
//! /// the next free cycle.
//! #[derive(Debug)]
//! struct ToyBus {
//!     trace: GrantTrace,
//!     queue: u64,
//!     busy: bool,
//! }
//!
//! impl ToyBus {
//!     fn new() -> Self {
//!         ToyBus { trace: GrantTrace::counting(1), queue: 0, busy: false }
//!     }
//! }
//!
//! impl BusModel for ToyBus {
//!     type Request = ();
//!     type Completion = ();
//!     type Error = ();
//!
//!     fn begin_cycle(&mut self, _now: Cycle) -> Option<()> {
//!         self.busy.then(|| self.busy = false)
//!     }
//!     fn post(&mut self, _req: ()) -> Result<(), ()> {
//!         self.queue += 1;
//!         Ok(())
//!     }
//!     fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
//!         if !self.busy && self.queue > 0 {
//!             self.queue -= 1;
//!             self.busy = true;
//!             self.trace.record(now, CoreId::from_index(0), 1);
//!             return Some(CoreId::from_index(0));
//!         }
//!         None
//!     }
//!     fn owner(&self) -> Option<CoreId> {
//!         self.busy.then(|| CoreId::from_index(0))
//!     }
//!     fn trace(&self) -> &GrantTrace {
//!         &self.trace
//!     }
//! }
//!
//! let mut bus = ToyBus::new();
//! let outcome = drive(&mut bus, 100, |bus, now, _completed| {
//!     if now % 2 == 0 {
//!         bus.post(()).unwrap();
//!     }
//!     Control::Continue
//! });
//! assert_eq!(outcome.cycles, 100);
//! assert!(!outcome.stopped);
//! assert_eq!(bus.trace().total_slots(), 50);
//! ```

use crate::agent::SimAgent;
use crate::probe::NoProbe;
use crate::rng::SimRng;
use crate::sim::{Engine, StopWhen};
use crate::trace::GrantTrace;
use crate::{CoreId, Cycle};

/// Combined result of one [`BusModel::tick`].
///
/// Iterating a `TickOutcome` yields the completion, if any, which keeps the
/// `for completed in bus.tick(now) { .. }` idiom of the split bus working
/// against the unified API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickOutcome<C> {
    /// Transaction that completed at this cycle, if any.
    pub completed: Option<C>,
    /// Core granted the bus at this cycle, if any.
    pub granted: Option<CoreId>,
}

impl<C> Default for TickOutcome<C> {
    fn default() -> Self {
        TickOutcome {
            completed: None,
            granted: None,
        }
    }
}

impl<C> IntoIterator for TickOutcome<C> {
    type Item = C;
    type IntoIter = std::option::IntoIter<C>;

    fn into_iter(self) -> Self::IntoIter {
        self.completed.into_iter()
    }
}

/// The cycle protocol shared by every bus variant.
///
/// Implementations advance in two phases per cycle so that a core whose
/// transaction completes at cycle `t` can post its next request *within*
/// cycle `t` and be re-arbitrated immediately (back-to-back transactions,
/// as on hardware where the request lines are already raised when a
/// transfer ends). See the [module documentation](self) for the full
/// protocol and an end-to-end example.
pub trait BusModel {
    /// What clients post (a plain request, or `(core, request)` for buses
    /// that address requests per core).
    type Request;
    /// The completion report of phase 1.
    type Completion;
    /// Rejection returned by [`BusModel::post`].
    type Error: std::fmt::Debug;

    /// Phase 1 of cycle `now`: reports a transaction ending at `now`.
    fn begin_cycle(&mut self, now: Cycle) -> Option<Self::Completion>;

    /// Phase 2 of cycle `now`: posts a request.
    ///
    /// # Errors
    ///
    /// Implementations reject malformed or duplicate requests.
    fn post(&mut self, req: Self::Request) -> Result<(), Self::Error>;

    /// Phase 3 of cycle `now`: arbitration (if the bus is free) and filter
    /// bookkeeping. Returns the freshly granted core, if any.
    fn end_cycle(&mut self, now: Cycle) -> Option<CoreId>;

    /// The core currently holding the bus, if any.
    fn owner(&self) -> Option<CoreId>;

    /// The grant trace accumulated so far.
    fn trace(&self) -> &GrantTrace;

    /// Convenience single-phase tick: [`begin_cycle`](BusModel::begin_cycle)
    /// immediately followed by [`end_cycle`](BusModel::end_cycle); any posts
    /// must happen between ticks.
    fn tick(&mut self, now: Cycle) -> TickOutcome<Self::Completion> {
        let completed = self.begin_cycle(now);
        let granted = self.end_cycle(now);
        TickOutcome { completed, granted }
    }

    /// The bus's **event horizon**: called after [`end_cycle`](
    /// BusModel::end_cycle)`(now)`, returns the earliest future cycle at
    /// which anything observable can happen on the bus side — a completion
    /// is reported, a grant becomes possible, or internal state stops
    /// evolving in the closed form applied by [`advance`](BusModel::advance)
    /// — **assuming no client interaction** (no posts or withdrawals) in
    /// between.
    ///
    /// Returning `Some(e)` is a guarantee: for every cycle `t` in
    /// `(now, e)`, `begin_cycle(t)` would report nothing and `end_cycle(t)`
    /// would grant nothing, so [`drive_events`] may replace those per-cycle
    /// calls with one `advance` and jump straight to `e` (or to any earlier
    /// cycle — resuming early is always safe). `Some(Cycle::MAX)` means "no
    /// bus-side event at all until a client acts".
    ///
    /// The default returns `None` — "cannot predict" — which disables
    /// skipping entirely, so implementations that never override this (or
    /// that compose unpredictable filters/policies) keep the exact
    /// per-cycle behaviour.
    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        None
    }

    /// Bulk-advances bus state over the uneventful cycle range
    /// `from + 1 ..= to - 1` (exclusive of both the already-executed cycle
    /// `from` and the about-to-be-executed cycle `to`), exactly as if each
    /// had been stepped through `begin_cycle`/`end_cycle` with no client
    /// interaction: cycle counters accumulate, credit/filter state evolves,
    /// and the internal cycle cursor moves so `begin_cycle(to)` is accepted
    /// next.
    ///
    /// Only called by [`drive_events`] for ranges validated by
    /// [`next_event`](BusModel::next_event); the default is a no-op, which
    /// pairs with the default `next_event` of `None` (never invoked).
    fn advance(&mut self, from: Cycle, to: Cycle) {
        let _ = (from, to);
    }

    /// Drains buffered observer events (see
    /// [`ModelEvent`](crate::probe::ModelEvent)) into `sink`, in
    /// occurrence order — internal state changes the protocol's return
    /// values cannot surface, such as credit-eligibility flips.
    ///
    /// Called by the [`Simulation`](crate::sim::Simulation) loop after
    /// each executed cycle **only when an active probe is attached**; the
    /// default no-op means models pay nothing unless they opt into event
    /// recording (e.g. the bus workspace's flip watcher, which is off
    /// until explicitly enabled).
    fn drain_events(&mut self, sink: &mut dyn FnMut(crate::probe::ModelEvent)) {
        let _ = sink;
    }

    /// Limit-cycle hook of the events engine (see
    /// [`Simulation::run`](crate::sim::Simulation::run)): appends the
    /// model's complete dynamic state at the end of executed cycle `now`
    /// to `state`, with every absolute cycle written as an offset from
    /// `now`, and its monotone counters (grants, busy and idle cycles,
    /// wait sums) to `counters` as `(value, ceiling)` pairs.
    ///
    /// Returns whether the model is **closed**: its future depends only
    /// on what it wrote and on the requests clients post — no random
    /// draws, no absolute-time rules, no observer that needs individual
    /// cycles. The default, `false`, disables fast-forward for the whole
    /// run.
    fn signature(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<(u64, u64)>) -> bool {
        let _ = (now, state, counters);
        false
    }

    /// Limit-cycle hook: moves the model `periods` whole periods ahead,
    /// `span` cycles in all, exactly as if the periods had been executed.
    /// Every absolute cycle (in-flight and pending timestamps, the cycle
    /// cursor) grows by `span`, every counter by `periods ×` its
    /// per-period growth in `deltas` (one entry per counter, in
    /// [`signature`](BusModel::signature) order). Only called on models
    /// whose `signature` returned `true`.
    fn shift(&mut self, periods: u64, span: Cycle, deltas: &[u64]) {
        let _ = (periods, span, deltas);
    }
}

/// Per-cycle verdict returned by the [`drive`] / [`drive_events`]
/// callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep simulating.
    Continue,
    /// Stop after finishing the current cycle.
    Stop,
    /// The clients guarantee they will not interact with the bus (no posts,
    /// no withdrawals) before cycle `until`, and do not need to observe any
    /// cycle before it either — [`drive_events`] may fast-forward to
    /// `min(until, bus event horizon)`. [`drive`] treats this exactly like
    /// [`Control::Continue`], so a callback written for the fast path runs
    /// unchanged (and bit-identically) under the naive loop.
    Sleep(Cycle),
}

/// Result of a [`drive`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Cycles simulated (the loop ran cycles `0..cycles`).
    pub cycles: Cycle,
    /// Whether the callback requested the stop (`false` means the
    /// `max_cycles` safety limit was hit first).
    pub stopped: bool,
}

/// Drives `bus` for up to `max_cycles` cycles from cycle 0, visiting
/// **every** cycle.
///
/// Each cycle, the engine runs phase 1 ([`BusModel::begin_cycle`]), hands
/// the completion report to `cycle_fn` — which posts client traffic (phase
/// 2) and decides whether to stop — then runs phase 3
/// ([`BusModel::end_cycle`]). [`Control::Sleep`] is treated as
/// [`Control::Continue`]: this is the naive reference loop that
/// [`drive_events`] must reproduce bit for bit, and the loop to force when
/// debugging a suspected fast-path divergence.
pub fn drive<M: BusModel>(
    bus: &mut M,
    max_cycles: Cycle,
    cycle_fn: impl FnMut(&mut M, Cycle, Option<&M::Completion>) -> Control,
) -> DriveOutcome {
    drive_with(bus, max_cycles, Engine::Naive, cycle_fn)
}

/// Drives `bus` like [`drive`], but jumps over provably uneventful cycle
/// ranges — the **event-horizon fast path**.
///
/// After each executed cycle, if the callback returned
/// [`Control::Sleep`]`(until)` *and* the bus can bound its own next event
/// via [`BusModel::next_event`], the engine bulk-advances the bus with
/// [`BusModel::advance`] and resumes the full three-phase protocol at
/// `min(until, event, max_cycles)`. Whenever either side declines — the
/// callback returns [`Control::Continue`], or `next_event` returns `None`
/// — the engine falls back to per-cycle stepping for that cycle, so the
/// fast path degrades gracefully to exactly [`drive`].
///
/// Because skipped ranges are ranges in which, by contract, no completion,
/// grant, post or RNG draw can occur, the observable outcome (grant trace,
/// wait statistics, cycle counters, stop cycle) is **bit-identical** to
/// [`drive`] with the same callback; the workspace's property tests assert
/// this across policies, filters and bus variants.
pub fn drive_events<M: BusModel>(
    bus: &mut M,
    max_cycles: Cycle,
    cycle_fn: impl FnMut(&mut M, Cycle, Option<&M::Completion>) -> Control,
) -> DriveOutcome {
    drive_with(bus, max_cycles, Engine::Events, cycle_fn)
}

/// Runs a [`drive`]/[`drive_events`] callback as the single agent of the
/// [`Simulation`](crate::sim::Simulation) cycle loop, which stops only on
/// [`Control::Stop`] or `max_cycles`.
fn drive_with<M: BusModel, F: FnMut(&mut M, Cycle, Option<&M::Completion>) -> Control>(
    bus: &mut M,
    max_cycles: Cycle,
    engine: Engine,
    cycle_fn: F,
) -> DriveOutcome {
    /// The callback as an agent that never finishes on its own.
    struct Callback<F>(F);

    impl<M: BusModel, F: FnMut(&mut M, Cycle, Option<&M::Completion>) -> Control>
        SimAgent<M, M::Completion> for Callback<F>
    {
        fn tick(&mut self, now: Cycle, completed: Option<&M::Completion>, bus: &mut M) -> Control {
            (self.0)(bus, now, completed)
        }

        fn is_done(&self) -> bool {
            false
        }

        fn reset(&mut self, _rng: &mut SimRng) {}
    }

    let mut agent = Callback(cycle_fn);
    crate::sim::run_loop(
        bus,
        &mut [&mut agent],
        &mut NoProbe,
        StopWhen::AllAgentsDone,
        engine,
        max_cycles,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Minimal in-crate model for the engine and simulation tests.
    #[derive(Debug)]
    pub(crate) struct OneShot {
        trace: GrantTrace,
        pub(crate) pending: Option<u32>,
        busy_until: Option<Cycle>,
        pub(crate) skipped: u64,
    }

    impl OneShot {
        pub(crate) fn new() -> Self {
            OneShot {
                trace: GrantTrace::counting(1),
                pending: None,
                busy_until: None,
                skipped: 0,
            }
        }
    }

    impl BusModel for OneShot {
        type Request = u32;
        type Completion = Cycle;
        type Error = &'static str;

        fn begin_cycle(&mut self, now: Cycle) -> Option<Cycle> {
            if self.busy_until == Some(now) {
                self.busy_until = None;
                return Some(now);
            }
            None
        }

        fn post(&mut self, req: u32) -> Result<(), &'static str> {
            if self.pending.is_some() {
                return Err("already pending");
            }
            self.pending = Some(req);
            Ok(())
        }

        fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
            if self.busy_until.is_none() {
                if let Some(dur) = self.pending.take() {
                    self.busy_until = Some(now + dur as Cycle);
                    self.trace.record(now, CoreId::from_index(0), dur);
                    return Some(CoreId::from_index(0));
                }
            }
            None
        }

        fn owner(&self) -> Option<CoreId> {
            self.busy_until.map(|_| CoreId::from_index(0))
        }

        fn trace(&self) -> &GrantTrace {
            &self.trace
        }

        fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
            match (self.busy_until, self.pending) {
                (Some(ends_at), _) => Some(ends_at),
                (None, Some(_)) => Some(now + 1),
                (None, None) => Some(Cycle::MAX),
            }
        }

        fn advance(&mut self, from: Cycle, to: Cycle) {
            self.skipped += to - from - 1;
        }
    }

    #[test]
    fn default_tick_bundles_phases() {
        let mut bus = OneShot::new();
        bus.post(3).unwrap();
        let out = bus.tick(0);
        assert_eq!(out.granted, Some(CoreId::from_index(0)));
        assert_eq!(out.completed, None);
        bus.tick(1);
        bus.tick(2);
        let out = bus.tick(3);
        assert_eq!(out.completed, Some(3));
        assert_eq!(bus.owner(), None);
    }

    #[test]
    fn tick_outcome_iterates_completion() {
        let none: TickOutcome<u32> = TickOutcome::default();
        assert_eq!(none.into_iter().count(), 0);
        let some = TickOutcome {
            completed: Some(7u32),
            granted: None,
        };
        assert_eq!(some.into_iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn drive_runs_to_horizon() {
        let mut bus = OneShot::new();
        let out = drive(&mut bus, 10, |bus, _now, _completed| {
            if bus.owner().is_none() {
                let _ = bus.post(2);
            }
            Control::Continue
        });
        assert_eq!(out.cycles, 10);
        assert!(!out.stopped);
        assert!(bus.trace().total_slots() >= 3);
    }

    #[test]
    fn drive_stops_on_request() {
        let mut bus = OneShot::new();
        let mut completions = 0;
        let out = drive(&mut bus, 1_000, |bus, _now, completed| {
            if completed.is_some() {
                completions += 1;
                return Control::Stop;
            }
            if bus.owner().is_none() {
                let _ = bus.post(5);
            }
            Control::Continue
        });
        assert!(out.stopped);
        assert_eq!(completions, 1);
        assert!(out.cycles < 1_000);
    }

    #[test]
    fn drive_on_empty_horizon_is_a_no_op() {
        let mut bus = OneShot::new();
        let out = drive(&mut bus, 0, |_, _, _| Control::Continue);
        assert_eq!(out.cycles, 0);
        assert!(!out.stopped);
    }

    #[test]
    fn drive_treats_sleep_as_continue() {
        let mut bus = OneShot::new();
        let mut visited = 0u64;
        let out = drive(&mut bus, 10, |_, _, _| {
            visited += 1;
            Control::Sleep(Cycle::MAX)
        });
        assert_eq!(out.cycles, 10);
        assert_eq!(visited, 10, "naive loop never skips");
        assert_eq!(bus.skipped, 0);
    }

    /// The periodic-poster closure used by the naive/fast equivalence
    /// tests: posts a 7-cycle request every 20 cycles.
    fn periodic(period: Cycle) -> impl FnMut(&mut OneShot, Cycle, Option<&Cycle>) -> Control {
        move |bus, now, _completed| {
            if now % period == 0 && bus.owner().is_none() && bus.pending.is_none() {
                bus.post(7).unwrap();
            }
            let next_issue = (now / period + 1) * period;
            Control::Sleep(next_issue)
        }
    }

    #[test]
    fn drive_events_skips_but_matches_drive() {
        let mut naive = OneShot::new();
        let a = drive(&mut naive, 200, periodic(20));
        let mut fast = OneShot::new();
        let b = drive_events(&mut fast, 200, periodic(20));
        assert_eq!(a, b);
        assert_eq!(naive.trace.total_slots(), fast.trace.total_slots());
        assert_eq!(
            naive.trace.busy_cycles(CoreId::from_index(0)),
            fast.trace.busy_cycles(CoreId::from_index(0))
        );
        assert!(fast.skipped > 100, "skipped only {}", fast.skipped);
    }

    #[test]
    fn drive_events_stops_at_the_same_cycle_as_drive() {
        let stopper = |bus: &mut OneShot, _now: Cycle, completed: Option<&Cycle>| {
            if completed.is_some() {
                return Control::Stop;
            }
            if bus.owner().is_none() && bus.pending.is_none() {
                bus.post(9).unwrap();
            }
            Control::Sleep(Cycle::MAX)
        };
        let mut naive = OneShot::new();
        let a = drive(&mut naive, 1_000, stopper);
        let mut fast = OneShot::new();
        let b = drive_events(&mut fast, 1_000, stopper);
        assert!(a.stopped && b.stopped);
        assert_eq!(a.cycles, b.cycles);
        assert!(fast.skipped > 0);
    }

    #[test]
    fn drive_events_respects_the_safety_limit() {
        let mut bus = OneShot::new();
        let out = drive_events(&mut bus, 50, |_, _, _| Control::Sleep(Cycle::MAX));
        assert_eq!(out.cycles, 50);
        assert!(!out.stopped);
        // One executed cycle + 49 bulk-advanced ones.
        assert_eq!(bus.skipped, 49);
    }

    #[test]
    fn drive_events_steps_when_the_bus_cannot_predict() {
        /// A model whose `next_event` keeps the default `None`.
        #[derive(Debug)]
        struct Opaque(OneShot);
        impl BusModel for Opaque {
            type Request = u32;
            type Completion = Cycle;
            type Error = &'static str;
            fn begin_cycle(&mut self, now: Cycle) -> Option<Cycle> {
                self.0.begin_cycle(now)
            }
            fn post(&mut self, req: u32) -> Result<(), &'static str> {
                self.0.post(req)
            }
            fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
                self.0.end_cycle(now)
            }
            fn owner(&self) -> Option<CoreId> {
                self.0.owner()
            }
            fn trace(&self) -> &GrantTrace {
                self.0.trace()
            }
        }
        let mut bus = Opaque(OneShot::new());
        let mut visited = 0u64;
        let out = drive_events(&mut bus, 30, |_, _, _| {
            visited += 1;
            Control::Sleep(Cycle::MAX)
        });
        assert_eq!(out.cycles, 30);
        assert_eq!(visited, 30, "default next_event must disable skipping");
        assert_eq!(bus.0.skipped, 0);
    }
}
