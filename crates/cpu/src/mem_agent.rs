//! The miss-stream memory agent: synthetic address streams through the
//! real cache hierarchy (and optionally the MESI hub) driving the bus.
//!
//! Unlike the synthetic contenders (whose request streams are hand-tuned
//! profiles), a [`MemAgent`]'s bus traffic is *derived*: a seeded address
//! generator (working-set size, locality/stride mix, read/write ratio,
//! sharing degree) runs every access through a private
//! [`CoreMemory`] hierarchy — and, for shared-segment accesses, through
//! the run's [`CoherenceHub`](cba_mem::CoherenceHub) — and only the
//! resulting misses, write-throughs, coherence fetches, upgrades,
//! invalidation acks and writebacks reach the [`RequestPort`]. Burstiness
//! comes from working-set dynamics, not profile knobs.
//!
//! The agent follows the same engine contract as [`Core`](crate::Core):
//! absolute-time states, an exact [`MemAgent::wake_at`] horizon and
//! [`MemAgent::absorb_skipped`] replay, so the naive and event-horizon
//! engines agree bit for bit, and [`MemAgent::reset`] is seed-equivalent
//! to fresh construction.

use cba_bus::{BusRequest, CompletedTransaction, RequestKind, RequestPort};
use cba_mem::coherence::SHARED_LINE_BYTES;
use cba_mem::{BusTransaction, CoreMemory, LatencyModel, MemAccess, MemoryConfig, SharedHub};
use sim_core::agent::{AgentStats, MemStats, SimAgent};
use sim_core::rng::SimRng;
use sim_core::{Control, CoreId, Cycle};
use std::collections::VecDeque;

/// Base address of the private working-set region (the caches are
/// private, so cores may overlap without aliasing effects).
const DATA_BASE: u64 = 0x0010_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Generate the next access this cycle.
    Ready,
    /// Think gap through cycle `until - 1`; the next access starts at
    /// `until` (absolute, so the events engine can skip the stretch).
    Thinking { until: Cycle },
    /// The head of the transaction queue waits to be posted.
    AwaitPost,
    /// The head of the transaction queue is posted/in service.
    Blocked,
    /// All accesses performed and every transaction drained.
    Done,
}

/// A memory agent: one synthetic access stream, one private hierarchy,
/// at most one outstanding bus request (transactions of a multi-part
/// coherence access post sequentially).
///
/// Built by the platform's agent registry as kind `mem` (private stream
/// only) or `shared` (a fraction of accesses hits the coherent shared
/// segment through the run's hub).
#[derive(Debug)]
pub struct MemAgent {
    id: CoreId,
    config: MemoryConfig,
    lat: LatencyModel,
    /// The run's MESI directory; `None` for private-only `mem` agents.
    hub: Option<SharedHub>,
    mem: CoreMemory,
    state: State,
    /// Bus transactions of the in-flight access, posted head-first.
    queue: VecDeque<BusTransaction>,
    /// Accesses started so far.
    issued: u64,
    /// Sequential-walk position in the private working set.
    walk: u64,
    mstats: MemStats,
    busy_cycles: u64,
    bus_stall_cycles: u64,
    completed: u64,
    done_at: Option<Cycle>,
    rng: SimRng,
}

impl MemAgent {
    /// Creates the agent. Pass a [`SharedHub`] to make it coherent (kind
    /// `shared`); `None` keeps the whole stream private (kind `mem`).
    /// RNG streams for the hierarchy and the generator are forked off
    /// `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; validate with
    /// [`MemoryConfig::validate`] first when the configuration is
    /// user-supplied.
    pub fn new(
        id: CoreId,
        config: MemoryConfig,
        lat: LatencyModel,
        hub: Option<SharedHub>,
        rng: &mut SimRng,
    ) -> Self {
        config.validate().expect("invalid memory configuration");
        let mut mem_rng = rng.fork(0x11 + id.index() as u64);
        let gen_rng = rng.fork(0x2000 + id.index() as u64);
        MemAgent {
            id,
            mem: CoreMemory::new(&config.hierarchy(), &mut mem_rng),
            lat,
            hub,
            state: State::Ready,
            queue: VecDeque::new(),
            issued: 0,
            walk: 0,
            mstats: MemStats::default(),
            busy_cycles: 0,
            bus_stall_cycles: 0,
            completed: 0,
            done_at: None,
            rng: gen_rng,
            config,
        }
    }

    /// This agent's core identity.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Whether the stream has fully finished (all transactions drained).
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Completion cycle, once done.
    pub fn done_at(&self) -> Option<Cycle> {
        self.done_at
    }

    /// The memory-side counters.
    pub fn mem_stats(&self) -> MemStats {
        self.mstats
    }

    /// The private hierarchy (for inspection).
    pub fn memory(&self) -> &CoreMemory {
        &self.mem
    }

    /// Advances the agent by one cycle (same protocol as
    /// [`Core::tick`](crate::Core::tick)).
    ///
    /// # Panics
    ///
    /// Panics if the bus rejects a post — the agent never double-posts
    /// and never exceeds MaxL, so a rejection is a wiring bug.
    pub fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        bus: &mut (impl RequestPort + ?Sized),
    ) {
        // 1. Absorb a completion addressed to this agent.
        if let Some(ct) = completed {
            if ct.core == self.id {
                debug_assert!(matches!(self.state, State::Blocked));
                self.completed += 1;
                self.queue.pop_front();
                if self.queue.is_empty() {
                    self.after_access(now);
                } else {
                    self.state = State::AwaitPost;
                }
            }
        }

        // 2. Post the next queued transaction of the in-flight access.
        if matches!(self.state, State::AwaitPost) && bus.can_accept(self.id) {
            let tx = *self.queue.front().expect("AwaitPost implies a queued txn");
            bus.post(BusRequest::new(self.id, tx.duration, tx.kind, now).expect("valid duration"))
                .expect("mem agent never double-posts");
            self.state = State::Blocked;
        }

        // 3. Execute.
        match self.state {
            State::Done => {}
            State::Blocked | State::AwaitPost => {
                self.bus_stall_cycles += 1;
            }
            State::Thinking { until } => {
                if now >= until {
                    // The engine skipped the tail of the think stretch:
                    // this is the access cycle.
                    self.start_access(now);
                } else {
                    self.busy_cycles += 1;
                    if now + 1 >= until {
                        self.state = State::Ready;
                    }
                }
            }
            State::Ready => {
                self.start_access(now);
            }
        }
    }

    /// Draws and executes the next access of the stream.
    fn start_access(&mut self, now: Cycle) {
        if self.issued == self.config.accesses {
            self.finish(now);
            return;
        }
        self.issued += 1;
        self.mstats.accesses += 1;
        let is_write = self.rng.gen_bool(self.config.write_frac);
        let shared = self.hub.is_some() && self.rng.gen_bool(self.config.share_frac);
        let txns: Vec<BusTransaction> = if shared {
            let line = self.rng.gen_range_usize(0..self.config.shared_lines);
            let hub = self.hub.as_ref().expect("shared access implies a hub");
            let mut hub = hub.borrow_mut();
            if is_write {
                hub.write(self.id, line, &self.lat)
            } else {
                hub.read(self.id, line, &self.lat)
            }
        } else {
            let lines = self.config.working_set_lines();
            let line = if self.rng.gen_bool(self.config.locality) {
                self.walk = (self.walk + 1) % lines;
                self.walk
            } else {
                self.rng.gen_range_u64(0..lines)
            };
            let addr = DATA_BASE + line * SHARED_LINE_BYTES;
            let access = if is_write {
                MemAccess::store(addr)
            } else {
                MemAccess::load(addr)
            };
            let outcome = self.mem.access(access, &mut self.rng);
            outcome.bus_transaction(&self.lat).into_iter().collect()
        };
        if txns.is_empty() {
            // Cache/ownership hit: one busy cycle, no bus traffic.
            self.busy_cycles += 1;
            self.after_access(now);
        } else {
            self.mstats.misses += 1;
            self.mstats.bus_txns += txns.len() as u64;
            for tx in &txns {
                match tx.kind {
                    RequestKind::CohRead
                    | RequestKind::CohReadEx
                    | RequestKind::CohUpgrade
                    | RequestKind::CohInvAck => self.mstats.coherence += 1,
                    RequestKind::CohWriteback => {
                        self.mstats.coherence += 1;
                        self.mstats.writebacks += 1;
                    }
                    RequestKind::L2MissDirty => self.mstats.writebacks += 1,
                    _ => {}
                }
            }
            self.queue.extend(txns);
            self.state = State::AwaitPost;
            self.bus_stall_cycles += 1;
        }
    }

    /// An access finished (hit, or its last transaction completed):
    /// finish the run, think, or go straight to the next access.
    fn after_access(&mut self, now: Cycle) {
        if self.issued == self.config.accesses {
            self.finish(now);
        } else if self.config.think > 0 {
            self.state = State::Thinking {
                until: now + 1 + self.config.think as Cycle,
            };
        } else {
            self.state = State::Ready;
        }
    }

    fn finish(&mut self, now: Cycle) {
        self.state = State::Done;
        if self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }

    /// Sleep horizon for the event-driven engine: `Some(Cycle::MAX)` when
    /// only a bus completion can unblock the agent (or it is done),
    /// `Some(until)` through a think stretch, `None` when it must be
    /// ticked every cycle (about to generate or to post). In every `Some`
    /// state the per-cycle tick is pure stall/busy accounting;
    /// [`MemAgent::absorb_skipped`] replays it for skipped cycles.
    pub fn wake_at(&self) -> Option<Cycle> {
        match self.state {
            State::Done | State::Blocked => Some(Cycle::MAX),
            State::Thinking { until } => Some(until),
            State::AwaitPost | State::Ready => None,
        }
    }

    /// Accounts `k` cycles the engine skipped while this agent slept (see
    /// [`MemAgent::wake_at`]).
    pub fn absorb_skipped(&mut self, k: u64) {
        match self.state {
            State::Blocked => self.bus_stall_cycles += k,
            State::Thinking { .. } => self.busy_cycles += k,
            _ => {}
        }
    }

    /// Starts a fresh run: re-forks the RNG streams exactly as
    /// construction does, resets the hierarchy, drops this core's shared
    /// copies in the hub and clears all counters. Seed-equivalent to a
    /// fresh [`MemAgent::new`] given the same `rng` stream.
    pub fn reset(&mut self, rng: &mut SimRng) {
        let mut mem_rng = rng.fork(0x11 + self.id.index() as u64);
        self.mem.reset(&mut mem_rng);
        self.rng = rng.fork(0x2000 + self.id.index() as u64);
        if let Some(hub) = &self.hub {
            hub.borrow_mut().reset_core(self.id);
        }
        self.state = State::Ready;
        self.queue.clear();
        self.issued = 0;
        self.walk = 0;
        self.mstats = MemStats::default();
        self.busy_cycles = 0;
        self.bus_stall_cycles = 0;
        self.completed = 0;
        self.done_at = None;
    }
}

/// The open client-side interface: miss-stream traffic with exact
/// accounting under skipped stretches and an RNG-reseeding reset.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for MemAgent {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        MemAgent::tick(self, now, completed, port);
        match MemAgent::wake_at(self) {
            Some(t) => Control::Sleep(t),
            None => Control::Continue,
        }
    }

    fn wake_at(&self) -> Option<Cycle> {
        MemAgent::wake_at(self)
    }

    fn addressed(&self, completion: Option<&CompletedTransaction>) -> bool {
        completion.is_some_and(|c| c.core == self.id)
    }

    fn is_done(&self) -> bool {
        MemAgent::is_done(self)
    }

    fn done_at(&self) -> Option<Cycle> {
        MemAgent::done_at(self)
    }

    fn absorb_skipped(&mut self, skipped: u64) {
        MemAgent::absorb_skipped(self, skipped);
    }

    fn reset(&mut self, rng: &mut SimRng) {
        MemAgent::reset(self, rng);
    }

    fn stats(&self) -> AgentStats {
        AgentStats {
            completed: self.completed,
            busy_cycles: self.busy_cycles,
            bus_stall_cycles: self.bus_stall_cycles,
            store_stall_cycles: 0,
            done_at: self.done_at,
            mem: Some(self.mstats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::{Bus, BusConfig, PolicyKind};
    use cba_mem::shared_hub;

    fn small_config() -> MemoryConfig {
        MemoryConfig {
            working_set: 1024,
            accesses: 300,
            write_frac: 0.3,
            share_frac: 0.5,
            shared_lines: 16,
            locality: 0.8,
            think: 2,
            ..Default::default()
        }
    }

    fn run_solo(agent: &mut MemAgent, max_cycles: Cycle) -> (Bus, Cycle) {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut now = 0;
        while !agent.is_done() && now < max_cycles {
            let completed = bus.begin_cycle(now);
            agent.tick(now, completed.as_ref(), &mut bus);
            bus.end_cycle(now);
            now += 1;
        }
        (bus, now)
    }

    #[test]
    fn private_stream_finishes_and_accounts_every_access() {
        let mut rng = SimRng::seed_from(7);
        let mut agent = MemAgent::new(
            CoreId::from_index(0),
            small_config(),
            LatencyModel::paper(),
            None,
            &mut rng,
        );
        let (bus, _) = run_solo(&mut agent, 200_000);
        assert!(agent.is_done());
        let s = agent.mem_stats();
        assert_eq!(s.accesses, 300);
        assert!(s.misses > 0, "cold caches must miss");
        assert!(s.misses <= s.accesses);
        assert_eq!(s.coherence, 0, "private streams post no coherence traffic");
        assert_eq!(bus.trace().total_slots(), s.bus_txns);
    }

    #[test]
    fn coherent_stream_posts_coherence_traffic() {
        let mut rng = SimRng::seed_from(11);
        let hub = shared_hub(1, 16);
        let mut agent = MemAgent::new(
            CoreId::from_index(0),
            small_config(),
            LatencyModel::paper(),
            Some(hub.clone()),
            &mut rng,
        );
        run_solo(&mut agent, 200_000);
        assert!(agent.is_done());
        let s = agent.mem_stats();
        assert!(s.coherence > 0, "shared accesses must fetch coherently");
        assert!(s.coherence <= s.bus_txns);
        hub.borrow().check_invariants().expect("MESI safety");
    }

    #[test]
    fn smaller_working_set_lowers_the_miss_rate() {
        let lat = LatencyModel::paper();
        let miss_rate = |ws: u64| {
            let mut rng = SimRng::seed_from(3);
            let config = MemoryConfig {
                working_set: ws,
                accesses: 2000,
                write_frac: 0.2,
                locality: 0.7,
                think: 0,
                ..Default::default()
            };
            let mut agent = MemAgent::new(CoreId::from_index(0), config, lat, None, &mut rng);
            run_solo(&mut agent, 2_000_000);
            assert!(agent.is_done());
            let s = agent.mem_stats();
            s.misses as f64 / s.accesses as f64
        };
        let small = miss_rate(512);
        let large = miss_rate(64 * 1024);
        assert!(
            small < large,
            "fitting working set must hit more: {small} vs {large}"
        );
    }

    #[test]
    fn reset_is_seed_equivalent_to_fresh() {
        let config = small_config();
        let lat = LatencyModel::paper();
        let mut rng = SimRng::seed_from(42);
        let hub = shared_hub(1, 16);
        let mut agent = MemAgent::new(
            CoreId::from_index(0),
            config.clone(),
            lat,
            Some(hub),
            &mut rng,
        );
        let (_, cycles_a) = run_solo(&mut agent, 200_000);
        let stats_a = agent.mem_stats();

        let mut reset_rng = SimRng::seed_from(42);
        // Consume the same prefix a fresh construction would have.
        agent.reset(&mut reset_rng);
        let (_, cycles_b) = run_solo(&mut agent, 200_000);
        assert_eq!(cycles_a, cycles_b, "reset must reproduce the run");
        assert_eq!(stats_a, agent.mem_stats());
    }
}
