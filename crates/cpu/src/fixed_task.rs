//! A task with exactly-controlled bus behaviour, for analytic experiments.

use cba_bus::{BusRequest, CompletedTransaction, RequestKind, RequestPort};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::rng::SimRng;
use sim_core::{Control, CoreId, Cycle};

/// A task issuing exactly `n_requests` bus transactions of a fixed
/// `duration`, separated by fixed compute `gap`s — the task under analysis
/// of the paper's Section II illustrative example (1,000 requests of 6
/// cycles separated by 4 compute cycles: 10,000 cycles in isolation).
///
/// Unlike [`Core`](crate::Core) it bypasses the cache model so the request
/// stream is exactly the one the paper's arithmetic assumes; use it
/// wherever an experiment's analytic prediction must be checkable to the
/// cycle.
///
/// # Example
///
/// ```
/// use cba_bus::{Bus, BusConfig, PolicyKind};
/// use cba_cpu::FixedRequestTask;
/// use sim_core::CoreId;
///
/// // The paper's illustrative task under analysis, alone on the bus.
/// let mut bus = Bus::new(BusConfig::new(1, 56)?, PolicyKind::RoundRobin.build(1, 56));
/// let mut tua = FixedRequestTask::new(CoreId::from_index(0), 1_000, 6, 4);
/// let mut now = 0;
/// while !tua.is_done() {
///     let done = bus.begin_cycle(now);
///     tua.tick(now, done.as_ref(), &mut bus);
///     bus.end_cycle(now);
///     now += 1;
/// }
/// // 1,000 x (4 compute + 6 bus) = 10,000 cycles in isolation.
/// assert_eq!(tua.done_at(), Some(10_000));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FixedRequestTask {
    core: CoreId,
    n_requests: u64,
    duration: u32,
    gap: u32,
    state: FixedState,
    issued: u64,
    completed: u64,
    done_at: Option<Cycle>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FixedState {
    /// Computing until the next request posts at cycle `post_at`.
    ///
    /// Absolute time (rather than a per-tick countdown) makes the state
    /// machine gap-tolerant: the event-driven engine can skip the compute
    /// stretch entirely and tick the task exactly at `post_at`.
    Computing { post_at: Cycle },
    /// Request posted / in service.
    Waiting,
    /// All requests served.
    Done,
}

impl FixedRequestTask {
    /// Creates the task: `n_requests` transactions of `duration` cycles,
    /// each preceded by `gap` compute cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n_requests == 0` or `duration == 0`.
    pub fn new(core: CoreId, n_requests: u64, duration: u32, gap: u32) -> Self {
        assert!(n_requests > 0, "n_requests must be positive");
        assert!(duration > 0, "duration must be positive");
        FixedRequestTask {
            core,
            n_requests,
            duration,
            gap,
            state: FixedState::Computing {
                post_at: gap as Cycle,
            },
            issued: 0,
            completed: 0,
            done_at: None,
        }
    }

    /// The task's core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Whether all requests completed.
    pub fn is_done(&self) -> bool {
        matches!(self.state, FixedState::Done)
    }

    /// Completion cycle, once done.
    pub fn done_at(&self) -> Option<Cycle> {
        self.done_at
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Isolation execution time: `n_requests * (gap + duration)` — the
    /// analytic baseline of the paper's example.
    pub fn isolation_cycles(&self) -> u64 {
        self.n_requests * (self.gap as u64 + self.duration as u64)
    }

    /// Advances one cycle (tolerates gaps: ticking is only required at the
    /// cycles reported by [`FixedRequestTask::wake_at`] and at this task's
    /// completions). Generic over the [`RequestPort`], so the same task
    /// drives a flat bus or a hierarchical fabric.
    pub fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        bus: &mut (impl RequestPort + ?Sized),
    ) {
        if let Some(ct) = completed {
            if ct.core == self.core && matches!(self.state, FixedState::Waiting) {
                self.completed += 1;
                self.state = if self.completed == self.n_requests {
                    self.done_at = Some(now);
                    FixedState::Done
                } else {
                    FixedState::Computing {
                        post_at: now + self.gap as Cycle,
                    }
                };
            }
        }
        match self.state {
            FixedState::Done | FixedState::Waiting => {}
            FixedState::Computing { post_at } => {
                if now >= post_at {
                    bus.post(
                        BusRequest::new(self.core, self.duration, RequestKind::Synthetic, now)
                            .expect("validated duration"),
                    )
                    .expect("fixed task posts one request at a time");
                    self.issued += 1;
                    self.state = FixedState::Waiting;
                }
            }
        }
    }

    /// Sleep horizon for the event-driven engine: nothing happens until
    /// the next post cycle (while computing) or the next completion
    /// (while waiting or done — `Cycle::MAX`, a bus event wakes it).
    pub fn wake_at(&self) -> Option<Cycle> {
        match self.state {
            FixedState::Computing { post_at } => Some(post_at),
            FixedState::Waiting | FixedState::Done => Some(Cycle::MAX),
        }
    }

    /// Resets for a fresh run.
    pub fn reset(&mut self) {
        self.state = FixedState::Computing {
            post_at: self.gap as Cycle,
        };
        self.issued = 0;
        self.completed = 0;
        self.done_at = None;
    }
}

/// The open client-side interface: the fixed-request task sleeps through
/// its compute gaps and finishes after its last completion.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for FixedRequestTask {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        FixedRequestTask::tick(self, now, completed, port);
        match FixedRequestTask::wake_at(self) {
            Some(t) => Control::Sleep(t),
            None => Control::Continue,
        }
    }

    fn wake_at(&self) -> Option<Cycle> {
        FixedRequestTask::wake_at(self)
    }

    fn addressed(&self, completion: Option<&CompletedTransaction>) -> bool {
        completion.is_some_and(|c| c.core == self.core)
    }

    fn is_done(&self) -> bool {
        FixedRequestTask::is_done(self)
    }

    fn done_at(&self) -> Option<Cycle> {
        FixedRequestTask::done_at(self)
    }

    fn reset(&mut self, _rng: &mut SimRng) {
        FixedRequestTask::reset(self);
    }

    fn stats(&self) -> AgentStats {
        AgentStats {
            completed: self.completed,
            done_at: self.done_at,
            ..Default::default()
        }
    }

    /// The phase (with the next post cycle while computing) is the whole
    /// state; completions are the one counter, capped one below
    /// `n_requests` so the final completion — and `done_at` — execute
    /// live.
    fn signature(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<(u64, u64)>) -> bool {
        state.extend(match self.state {
            FixedState::Computing { post_at } => [0, post_at - now],
            FixedState::Waiting => [1, 0],
            FixedState::Done => [2, 0],
        });
        counters.push((self.completed, self.n_requests - 1));
        true
    }

    fn shift(&mut self, periods: u64, span: Cycle, deltas: &[u64]) {
        if let FixedState::Computing { post_at } = &mut self.state {
            *post_at += span;
        }
        let completions = periods * deltas[0];
        assert!(
            completions == 0 || self.completed + completions < self.n_requests,
            "the final completion must execute live"
        );
        // Each period issues as many requests as it completes.
        self.completed += completions;
        self.issued += completions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::{Bus, BusConfig, PolicyKind};

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    fn run(task: &mut FixedRequestTask, bus: &mut Bus, limit: Cycle) -> Cycle {
        let mut now = 0;
        while !task.is_done() && now < limit {
            let done = bus.begin_cycle(now);
            task.tick(now, done.as_ref(), bus);
            bus.end_cycle(now);
            now += 1;
        }
        now
    }

    #[test]
    fn isolation_time_matches_paper_arithmetic() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut tua = FixedRequestTask::new(c(0), 1000, 6, 4);
        assert_eq!(tua.isolation_cycles(), 10_000);
        run(&mut tua, &mut bus, 20_000);
        assert_eq!(tua.done_at(), Some(10_000));
    }

    #[test]
    fn zero_gap_posts_back_to_back() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut tua = FixedRequestTask::new(c(0), 10, 5, 0);
        run(&mut tua, &mut bus, 1_000);
        // 10 x 5 cycles, no gaps, no contention: 50 cycles.
        assert_eq!(tua.done_at(), Some(50));
    }

    #[test]
    fn completion_counting() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut tua = FixedRequestTask::new(c(0), 3, 7, 2);
        run(&mut tua, &mut bus, 100);
        assert_eq!(tua.completed(), 3);
        assert_eq!(tua.done_at(), Some(3 * 9));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut tua = FixedRequestTask::new(c(0), 5, 6, 4);
        run(&mut tua, &mut bus, 1_000);
        assert!(tua.is_done());
        tua.reset();
        assert!(!tua.is_done());
        assert_eq!(tua.completed(), 0);
        let mut bus2 = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        run(&mut tua, &mut bus2, 1_000);
        assert_eq!(tua.done_at(), Some(50));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_requests_rejected() {
        let _ = FixedRequestTask::new(c(0), 0, 6, 4);
    }

    #[test]
    fn wake_at_tracks_the_state_machine() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut tua = FixedRequestTask::new(c(0), 2, 6, 4);
        assert_eq!(tua.wake_at(), Some(4), "first post after the gap");
        for now in 0..4u64 {
            let done = bus.begin_cycle(now);
            tua.tick(now, done.as_ref(), &mut bus);
            bus.end_cycle(now);
        }
        let done = bus.begin_cycle(4);
        tua.tick(4, done.as_ref(), &mut bus);
        bus.end_cycle(4);
        assert_eq!(tua.wake_at(), Some(Cycle::MAX), "waiting for the grant");
        for now in 5..100u64 {
            let done = bus.begin_cycle(now);
            tua.tick(now, done.as_ref(), &mut bus);
            bus.end_cycle(now);
        }
        assert!(tua.is_done());
        assert_eq!(tua.wake_at(), Some(Cycle::MAX));
    }

    #[test]
    fn sparse_ticking_at_wake_cycles_matches_dense_ticking() {
        // Dense: tick every cycle. Sparse: tick only at wake_at cycles and
        // at completion cycles — the event engine's visiting pattern.
        let dense_done = {
            let mut bus = Bus::new(
                BusConfig::new(1, 56).unwrap(),
                PolicyKind::RoundRobin.build(1, 56),
            );
            let mut tua = FixedRequestTask::new(c(0), 5, 7, 3);
            run(&mut tua, &mut bus, 1_000);
            tua.done_at().unwrap()
        };
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut tua = FixedRequestTask::new(c(0), 5, 7, 3);
        let mut now = 0u64;
        let mut visited = 0u64;
        while !tua.is_done() && now < 1_000 {
            let done = bus.begin_cycle(now);
            tua.tick(now, done.as_ref(), &mut bus);
            bus.end_cycle(now);
            visited += 1;
            let next = match (tua.wake_at().unwrap(), bus.next_event(now)) {
                (Cycle::MAX, Some(ev)) => ev,
                (wake, Some(ev)) => wake.min(ev),
                (wake, None) => wake.min(now + 1),
            };
            now = next.max(now + 1).min(1_000);
        }
        assert_eq!(tua.done_at(), Some(dense_done));
        assert!(
            visited < dense_done / 2,
            "sparse ticking should visit far fewer cycles: {visited} of {dense_done}"
        );
    }
}
