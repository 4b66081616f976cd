//! Contention generators for the maximum-contention (WCET-estimation)
//! scenarios.

use cba_bus::{BusRequest, CompletedTransaction, RequestKind, RequestPort};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::rng::SimRng;
use sim_core::{Control, CoreId, Cycle};

/// A worst-case contender: always has a `duration`-cycle request posted,
/// re-posting the same cycle the previous one completes.
///
/// This is the paper's WCET-estimation-mode core model (Table I: `REQi`
/// always set, the bus kept busy for `MaxL = 56` cycles per grant). Whether
/// the contender actually *competes* each cycle is decided by the bus's
/// eligibility filter: under plain RP it always does; under CBA its `COMP`
/// bit gates it (budget full ∧ TuA request pending).
///
/// The same type with `duration = 28` models the streaming applications of
/// the paper's Section II illustrative example.
///
/// # Example
///
/// ```
/// use cba_bus::{Bus, BusConfig, PolicyKind};
/// use cba_cpu::Contender;
/// use sim_core::CoreId;
///
/// let mut bus = Bus::new(BusConfig::new(2, 56)?, PolicyKind::RoundRobin.build(2, 56));
/// let mut contender = Contender::new(CoreId::from_index(1), 56);
/// for now in 0..1_000u64 {
///     let done = bus.begin_cycle(now);
///     contender.tick(now, done.as_ref(), &mut bus);
///     bus.end_cycle(now);
/// }
/// // Alone against nobody, it saturates the bus completely.
/// assert_eq!(bus.idle_cycles(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Contender {
    core: CoreId,
    duration: u32,
    grants: u64,
}

impl Contender {
    /// Creates a saturating contender issuing `duration`-cycle requests.
    ///
    /// # Panics
    ///
    /// Panics if `duration == 0`.
    pub fn new(core: CoreId, duration: u32) -> Self {
        assert!(duration > 0, "duration must be positive");
        Contender {
            core,
            duration,
            grants: 0,
        }
    }

    /// The contender's core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Requests granted so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Advances one cycle: keeps exactly one request posted at all times.
    /// Generic over the [`RequestPort`], so the same contender saturates a
    /// flat bus or one cluster of a hierarchical fabric.
    pub fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        bus: &mut (impl RequestPort + ?Sized),
    ) {
        if let Some(ct) = completed {
            if ct.core == self.core {
                self.grants += 1;
            }
        }
        if bus.can_accept(self.core) {
            bus.post(
                BusRequest::new(self.core, self.duration, RequestKind::Contender, now)
                    .expect("validated duration"),
            )
            .expect("contender posts at most one request");
        }
    }

    /// Resets grant statistics for a fresh run.
    pub fn reset(&mut self) {
        self.grants = 0;
    }

    /// Sleep horizon for the event-driven engine: after a tick the
    /// contender always has its one request posted (or in service), so
    /// only a completion — a bus event — can make it act. `Cycle::MAX`
    /// means "wake me only at bus events".
    pub fn wake_at(&self) -> Option<Cycle> {
        Some(Cycle::MAX)
    }
}

/// The open client-side interface: a saturating contender never
/// finishes, sleeps until bus events, and resets to zero grants.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for Contender {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        Contender::tick(self, now, completed, port);
        Control::Sleep(Cycle::MAX)
    }

    fn wake_at(&self) -> Option<Cycle> {
        Contender::wake_at(self)
    }

    fn addressed(&self, completion: Option<&CompletedTransaction>) -> bool {
        completion.is_some_and(|c| c.core == self.core)
    }

    fn is_done(&self) -> bool {
        false
    }

    fn reset(&mut self, _rng: &mut SimRng) {
        Contender::reset(self);
    }

    fn stats(&self) -> AgentStats {
        AgentStats {
            completed: self.grants,
            ..Default::default()
        }
    }

    /// Stateless between ticks (its one request is always posted or in
    /// service, which the bus captures); grants are its counter.
    fn signature(
        &self,
        _now: Cycle,
        _state: &mut Vec<u64>,
        counters: &mut Vec<(u64, u64)>,
    ) -> bool {
        counters.push((self.grants, u64::MAX));
        true
    }

    fn shift(&mut self, periods: u64, _span: Cycle, deltas: &[u64]) {
        self.grants += periods * deltas[0];
    }
}

/// A periodic contender: issues a `duration`-cycle request every `period`
/// cycles (models a real co-runner with known bandwidth demand rather than
/// the worst case).
///
/// If a request is still pending when the next period arrives, the new
/// request is skipped (the co-runner is blocking, like a real core).
#[derive(Debug, Clone)]
pub struct PeriodicContender {
    core: CoreId,
    duration: u32,
    period: Cycle,
    phase: Cycle,
    next_issue: Cycle,
    grants: u64,
}

impl PeriodicContender {
    /// Creates a contender issuing `duration`-cycle requests every
    /// `period` cycles, starting at `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `duration == 0` or `period == 0`.
    pub fn new(core: CoreId, duration: u32, period: Cycle, phase: Cycle) -> Self {
        assert!(duration > 0, "duration must be positive");
        assert!(period > 0, "period must be positive");
        PeriodicContender {
            core,
            duration,
            period,
            phase,
            next_issue: phase,
            grants: 0,
        }
    }

    /// The contender's core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Requests granted so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Advances one cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        bus: &mut (impl RequestPort + ?Sized),
    ) {
        if let Some(ct) = completed {
            if ct.core == self.core {
                self.grants += 1;
            }
        }
        if now >= self.next_issue {
            if bus.can_accept(self.core) {
                bus.post(
                    BusRequest::new(self.core, self.duration, RequestKind::Contender, now)
                        .expect("validated duration"),
                )
                .expect("periodic contender posts at most one request");
            }
            self.next_issue += self.period;
        }
    }

    /// Resets to issue from `phase` again.
    pub fn reset(&mut self, phase: Cycle) {
        self.next_issue = phase;
        self.grants = 0;
    }

    /// Sleep horizon for the event-driven engine: the contender must be
    /// ticked at its next issue boundary (the issue is *skipped*, not
    /// deferred, when its previous request is still pending — so the
    /// boundary matters either way); between boundaries only completions
    /// can make it act.
    pub fn wake_at(&self) -> Option<Cycle> {
        Some(self.next_issue)
    }
}

/// The open client-side interface: a periodic contender never finishes
/// and resets to its construction-time phase.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for PeriodicContender {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        PeriodicContender::tick(self, now, completed, port);
        Control::Sleep(self.next_issue)
    }

    fn wake_at(&self) -> Option<Cycle> {
        PeriodicContender::wake_at(self)
    }

    fn addressed(&self, completion: Option<&CompletedTransaction>) -> bool {
        completion.is_some_and(|c| c.core == self.core)
    }

    fn is_done(&self) -> bool {
        false
    }

    fn reset(&mut self, _rng: &mut SimRng) {
        PeriodicContender::reset(self, self.phase);
    }

    fn stats(&self) -> AgentStats {
        AgentStats {
            completed: self.grants,
            ..Default::default()
        }
    }

    /// The next issue cycle is the whole state; grants are its counter.
    fn signature(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<(u64, u64)>) -> bool {
        state.push(self.next_issue - now);
        counters.push((self.grants, u64::MAX));
        true
    }

    fn shift(&mut self, periods: u64, span: Cycle, deltas: &[u64]) {
        self.next_issue += span;
        self.grants += periods * deltas[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::{Bus, BusConfig, PolicyKind};

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    #[test]
    fn contender_saturates_alone() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut k = Contender::new(c(0), 56);
        for now in 0..5600u64 {
            let done = bus.begin_cycle(now);
            k.tick(now, done.as_ref(), &mut bus);
            bus.end_cycle(now);
        }
        assert_eq!(bus.idle_cycles(), 0);
        assert_eq!(k.grants(), 5600 / 56 - 1, "back-to-back MaxL grants");
    }

    #[test]
    fn three_contenders_share_slots_fairly_under_rr() {
        let mut bus = Bus::new(
            BusConfig::new(3, 56).unwrap(),
            PolicyKind::RoundRobin.build(3, 56),
        );
        let mut ks: Vec<Contender> = (0..3).map(|i| Contender::new(c(i), 28)).collect();
        for now in 0..8400u64 {
            let done = bus.begin_cycle(now);
            for k in &mut ks {
                k.tick(now, done.as_ref(), &mut bus);
            }
            bus.end_cycle(now);
        }
        assert_eq!(bus.idle_cycles(), 0);
        let slots: Vec<u64> = (0..3).map(|i| bus.trace().slots(c(i))).collect();
        let min = slots.iter().min().unwrap();
        let max = slots.iter().max().unwrap();
        assert!(max - min <= 1, "slots: {slots:?}");
    }

    #[test]
    fn periodic_contender_respects_period() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut k = PeriodicContender::new(c(0), 5, 100, 0);
        for now in 0..1000u64 {
            let done = bus.begin_cycle(now);
            k.tick(now, done.as_ref(), &mut bus);
            bus.end_cycle(now);
        }
        assert_eq!(bus.trace().slots(c(0)), 10, "one request per 100 cycles");
        assert_eq!(bus.trace().busy_cycles(c(0)), 50);
    }

    #[test]
    fn reset_clears_grants() {
        let mut k = Contender::new(c(0), 56);
        k.grants = 5;
        k.reset();
        assert_eq!(k.grants(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_rejected() {
        let _ = Contender::new(c(0), 0);
    }
}
