//! The in-order, blocking core model.

use crate::program::{Op, Program};
use crate::store_buffer::StoreBuffer;
use cba_bus::{BusRequest, CompletedTransaction, RequestPort};
use cba_mem::{AccessKind, BusTransaction, CoreMemory, HierarchyConfig, LatencyModel};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::rng::SimRng;
use sim_core::{Control, CoreId, Cycle};

/// Default store-buffer depth (two entries, LEON3-style single write buffer
/// plus one in flight).
pub const DEFAULT_STORE_BUFFER: usize = 2;

/// What the core's posted bus request represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingWhat {
    /// Draining the oldest store-buffer entry (core keeps executing).
    StoreDrain,
    /// A blocking access (load / ifetch miss / atomic): the pipeline waits.
    Blocking,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecState {
    /// Fetch the next operation this cycle.
    Ready,
    /// Busy with pipeline work (compute ops and L1 hits, run ahead on
    /// the core's private state) through cycle `until - 1`; at cycle
    /// `until` the stashed bus-visible op `then` takes effect. Absolute
    /// time, so the event-driven engine can skip the stretch.
    Computing { until: Cycle, then: Stashed },
    /// A blocking transaction waits to be posted (older stores drain
    /// first).
    AwaitPost(BusTransaction),
    /// A blocking transaction is posted/in service.
    Blocked,
    /// A store found the buffer full and retries.
    StoreStall(BusTransaction),
    /// Program exhausted; stores may still be draining.
    Draining,
    /// Fully finished.
    Done,
}

/// The first op of a run-ahead stretch whose effect other agents can
/// see, held back to its own cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stashed {
    /// A load, ifetch or atomic miss: its classify cycle starts the bus
    /// stall.
    Blocking(BusTransaction),
    /// A write-through store: it enters the store buffer, or stalls on a
    /// full one.
    Store(BusTransaction),
    /// The end of the program.
    End,
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Operations consumed from the program.
    pub ops: u64,
    /// Cycles spent on pipeline work (compute ops and L1 hits).
    pub busy_cycles: u64,
    /// Cycles stalled on the bus (waiting to post, posted, or in service),
    /// including the cycles spent draining the store buffer after the
    /// program's end.
    pub bus_stall_cycles: u64,
    /// Cycles stalled because the store buffer was full.
    pub store_stall_cycles: u64,
    /// Blocking bus transactions issued.
    pub blocking_transactions: u64,
    /// Store (write-through) transactions issued.
    pub store_transactions: u64,
}

/// An in-order core: one program, one private memory hierarchy, at most
/// one outstanding bus request.
///
/// Drive it once per cycle with [`Core::tick`] between the bus's
/// `begin_cycle` and `end_cycle` (see the [crate example](crate)), or
/// only at the cycles [`Core::wake_at`] names and at its completions.
///
/// Fetching runs ahead: compute ops and L1 hits touch only the core's
/// program, private hierarchy and RNG, so one tick executes them all up to
/// the next op another agent can see (a miss, a store or the program's
/// end), which takes effect at its own cycle. The draws happen in the
/// per-cycle order, so timing and results do not depend on the driver;
/// only [`CoreStats::ops`] and the hierarchy counters run ahead.
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    program: Box<dyn Program>,
    mem: CoreMemory,
    lat: LatencyModel,
    store_buffer: StoreBuffer,
    state: ExecState,
    pending: Option<PendingWhat>,
    stats: CoreStats,
    done_at: Option<Cycle>,
    rng: SimRng,
    /// The first cycle not yet ticked or absorbed.
    next: Cycle,
}

impl Core {
    /// Creates a core with the default store-buffer depth. RNG streams for
    /// the cache hierarchy and the program are forked off `rng`.
    pub fn new(
        id: CoreId,
        program: Box<dyn Program>,
        hierarchy: &HierarchyConfig,
        lat: LatencyModel,
        rng: &mut SimRng,
    ) -> Self {
        Self::with_store_buffer(id, program, hierarchy, lat, DEFAULT_STORE_BUFFER, rng)
    }

    /// Creates a core with an explicit store-buffer depth.
    pub fn with_store_buffer(
        id: CoreId,
        program: Box<dyn Program>,
        hierarchy: &HierarchyConfig,
        lat: LatencyModel,
        store_buffer: usize,
        rng: &mut SimRng,
    ) -> Self {
        let mut mem_rng = rng.fork(0x11 + id.index() as u64);
        let core_rng = rng.fork(0x1000 + id.index() as u64);
        Core {
            id,
            mem: CoreMemory::new(hierarchy, &mut mem_rng),
            lat,
            store_buffer: StoreBuffer::new(store_buffer),
            state: ExecState::Ready,
            pending: None,
            stats: CoreStats::default(),
            done_at: None,
            rng: core_rng,
            program,
            next: 0,
        }
    }

    /// This core's identity.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The program's benchmark name.
    pub fn program_name(&self) -> &str {
        self.program.name()
    }

    /// Whether the program has fully finished (including store drain).
    pub fn is_done(&self) -> bool {
        matches!(self.state, ExecState::Done)
    }

    /// Completion cycle, once done.
    pub fn done_at(&self) -> Option<Cycle> {
        self.done_at
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The private memory hierarchy (for inspection of hit/miss counts).
    pub fn memory(&self) -> &CoreMemory {
        &self.mem
    }

    /// Advances the core by one cycle.
    ///
    /// `completed` must be the bus's completion report for this cycle if
    /// (and only if) it belongs to this core. The core may post a new bus
    /// request during the call. A driver that skips cycles passes them to
    /// [`Core::absorb_skipped`] before the next tick.
    ///
    /// # Panics
    ///
    /// Panics if the bus rejects a post — by construction the core never
    /// double-posts and never exceeds MaxL, so a rejection is a wiring bug.
    pub fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        bus: &mut (impl RequestPort + ?Sized),
    ) {
        self.next = now + 1;

        // 1. Absorb a completion addressed to this core.
        if let Some(ct) = completed {
            if ct.core == self.id {
                match self.pending.take() {
                    Some(PendingWhat::StoreDrain) => {
                        self.store_buffer.pop();
                    }
                    Some(PendingWhat::Blocking) => {
                        debug_assert!(matches!(self.state, ExecState::Blocked));
                        self.state = ExecState::Ready;
                    }
                    None => panic!("completion without a pending request on {}", self.id),
                }
            }
        }

        // 2. Post the next bus request: oldest store first (TSO), then a
        //    waiting blocking access.
        if self.pending.is_none() {
            if let Some(tx) = self.store_buffer.front().copied() {
                self.post(bus, tx, now);
                self.pending = Some(PendingWhat::StoreDrain);
                self.stats.store_transactions += 1;
            } else if let ExecState::AwaitPost(tx) = self.state {
                self.post(bus, tx, now);
                self.pending = Some(PendingWhat::Blocking);
                self.state = ExecState::Blocked;
                self.stats.blocking_transactions += 1;
            }
        }

        self.execute(now);
    }

    /// Step 3 of [`Core::tick`]: accounts cycle `now` and acts in it.
    fn execute(&mut self, now: Cycle) {
        if self.state == ExecState::Ready {
            self.run_ahead(now);
        }
        if let ExecState::Computing { until, then } = self.state {
            if now < until {
                self.stats.busy_cycles += 1;
                return;
            }
            self.state = match then {
                Stashed::Blocking(tx) => ExecState::AwaitPost(tx),
                Stashed::End => ExecState::Draining,
                Stashed::Store(tx) => {
                    if self.store_buffer.push(tx) {
                        self.stats.busy_cycles += 1;
                        self.run_ahead(now + 1);
                        return;
                    }
                    ExecState::StoreStall(tx)
                }
            };
        }
        match self.state {
            ExecState::Done => {}
            ExecState::Blocked | ExecState::AwaitPost(_) => {
                self.stats.bus_stall_cycles += 1;
            }
            ExecState::Draining => {
                self.try_finish(now);
                if !self.is_done() {
                    self.stats.bus_stall_cycles += 1;
                }
            }
            ExecState::StoreStall(tx) => {
                self.stats.store_stall_cycles += 1;
                if self.store_buffer.push(tx) {
                    self.run_ahead(now + 1);
                }
            }
            ExecState::Ready | ExecState::Computing { .. } => {
                unreachable!("resolved above")
            }
        }
    }

    fn post(&mut self, bus: &mut (impl RequestPort + ?Sized), tx: BusTransaction, now: Cycle) {
        bus.post(BusRequest::new(self.id, tx.duration, tx.kind, now).expect("valid duration"))
            .expect("core never double-posts");
    }

    /// Fetches and executes ops from cycle `from` on, one busy cycle per
    /// L1 hit and `n` per `Compute(n)`, up to the first bus-visible op,
    /// which is stashed for the cycle it falls on.
    fn run_ahead(&mut self, from: Cycle) {
        let mut at = from;
        let then = loop {
            let Some(op) = self.program.next_op(&mut self.rng) else {
                break Stashed::End;
            };
            self.stats.ops += 1;
            match op {
                Op::Compute(n) => at += Cycle::from(n.max(1)),
                Op::Access(access) => {
                    let outcome = self.mem.access(access, &mut self.rng);
                    match outcome.bus_transaction(&self.lat) {
                        None => at += 1,
                        Some(tx) if access.kind() == AccessKind::Store => break Stashed::Store(tx),
                        Some(tx) => break Stashed::Blocking(tx),
                    }
                }
            }
        };
        self.state = ExecState::Computing { until: at, then };
    }

    fn try_finish(&mut self, now: Cycle) {
        if self.store_buffer.is_empty() && self.pending.is_none() {
            self.state = ExecState::Done;
            if self.done_at.is_none() {
                self.done_at = Some(now);
            }
        }
    }

    /// Sleep horizon for the event-driven engine: the next cycle at which
    /// ticking the core can have any effect, absent a bus completion
    /// addressed to it.
    ///
    /// * the next cycle, when a store or a blocking miss posts then;
    /// * `until + 1` when a run-ahead stretch ends in a blocking miss or a
    ///   store and no request is in flight: the miss's classify cycle and
    ///   the store's push into the empty buffer at `until` are pure
    ///   accounting, so the core sleeps straight to the cycle it posts;
    /// * `until` when it ends in a store behind an in-flight one, or in
    ///   the program's end: these take effect at their own cycle;
    /// * `Some(Cycle::MAX)` when only a completion can wake it: a
    ///   blocking miss behind an in-flight store drain, blocked, stalled
    ///   on a full store buffer, draining behind a posted store, or
    ///   finished;
    /// * `None` only in the fresh state, before the first tick.
    ///
    /// In every skipped cycle the per-cycle tick is pure accounting;
    /// [`Core::absorb_skipped`] replays it.
    pub fn wake_at(&self) -> Option<Cycle> {
        let idle_port = self.pending.is_none();
        if idle_port
            && (!self.store_buffer.is_empty() || matches!(self.state, ExecState::AwaitPost(_)))
        {
            return Some(self.next);
        }
        match self.state {
            ExecState::Ready => None,
            ExecState::Computing {
                until,
                then: Stashed::Blocking(_) | Stashed::Store(_),
            } if idle_port => Some(until + 1),
            ExecState::Computing {
                then: Stashed::Blocking(_),
                ..
            } => Some(Cycle::MAX),
            ExecState::Computing { until, .. } => Some(until),
            _ => Some(Cycle::MAX),
        }
    }

    /// Accounts `k` cycles in which the core was not ticked, right after
    /// the last one it was ticked at or accounted for (see
    /// [`Core::wake_at`]): the counters advance exactly as `k` unchanged
    /// ticks would have advanced them. A stashed blocking miss whose
    /// classify cycle falls in the span, or a store whose cycle ends it,
    /// takes effect here.
    ///
    /// # Panics
    ///
    /// Panics if the span passes the program's end, or a stashed store
    /// by more than the store's own cycle: those take effect in a tick.
    pub fn absorb_skipped(&mut self, k: u64) {
        let from = self.next;
        self.next += k;
        match self.state {
            ExecState::Blocked | ExecState::AwaitPost(_) | ExecState::Draining => {
                self.stats.bus_stall_cycles += k
            }
            ExecState::StoreStall(_) => self.stats.store_stall_cycles += k,
            ExecState::Computing { until, then } => {
                let busy = k.min(until.saturating_sub(from));
                self.stats.busy_cycles += busy;
                let rest = k - busy;
                match then {
                    _ if rest == 0 => {}
                    Stashed::Blocking(tx) => {
                        self.state = ExecState::AwaitPost(tx);
                        self.stats.bus_stall_cycles += rest;
                    }
                    Stashed::Store(tx) if rest == 1 => {
                        // Only an idle port lets the store's cycle go
                        // unticked, and then the buffer is empty.
                        let pushed = self.store_buffer.push(tx);
                        assert!(pushed, "{} skipped a store into a full buffer", self.id);
                        self.stats.busy_cycles += 1;
                        self.state = ExecState::Ready;
                    }
                    _ => panic!("{} skipped past its {then:?} at cycle {until}", self.id),
                }
            }
            ExecState::Ready | ExecState::Done => {}
        }
    }

    /// Starts a fresh run: resets program position, reseeds the caches,
    /// clears the store buffer and statistics.
    ///
    /// The caller must also reset/replace the bus; a pending request left
    /// on the old bus is forgotten by the core.
    pub fn reset(&mut self, rng: &mut SimRng) {
        let mut mem_rng = rng.fork(0x11 + self.id.index() as u64);
        self.mem.reseed(&mut mem_rng);
        self.rng = rng.fork(0x1000 + self.id.index() as u64);
        self.program.reset(&mut self.rng);
        self.store_buffer.clear();
        self.state = ExecState::Ready;
        self.pending = None;
        self.stats = CoreStats::default();
        self.done_at = None;
        self.next = 0;
    }
}

/// The open client-side interface: the full core model, with exact
/// stall accounting under skipped stretches and an RNG-reseeding reset.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for Core {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        Core::tick(self, now, completed, port);
        match Core::wake_at(self) {
            Some(t) => Control::Sleep(t),
            None => Control::Continue,
        }
    }

    fn wake_at(&self) -> Option<Cycle> {
        Core::wake_at(self)
    }

    fn addressed(&self, completion: Option<&CompletedTransaction>) -> bool {
        completion.is_some_and(|c| c.core == self.id)
    }

    fn is_done(&self) -> bool {
        Core::is_done(self)
    }

    fn done_at(&self) -> Option<Cycle> {
        Core::done_at(self)
    }

    fn absorb_skipped(&mut self, skipped: u64) {
        Core::absorb_skipped(self, skipped);
    }

    fn reset(&mut self, rng: &mut SimRng) {
        Core::reset(self, rng);
    }

    fn stats(&self) -> AgentStats {
        let s = &self.stats;
        AgentStats {
            completed: s.blocking_transactions + s.store_transactions,
            busy_cycles: s.busy_cycles,
            bus_stall_cycles: s.bus_stall_cycles,
            store_stall_cycles: s.store_stall_cycles,
            done_at: self.done_at,
            // The core's private hierarchy counters stay on `CoreStats` /
            // `HierarchyStats`; the uniform mem columns are reserved for
            // the dedicated memory agents so baseline reports keep their
            // exact column set.
            mem: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptProgram;
    use cba_bus::{Bus, BusConfig, PolicyKind};
    use cba_mem::MemAccess;

    fn run_solo(ops: Vec<Op>, max_cycles: Cycle) -> (Core, Bus, Cycle) {
        let mut rng = SimRng::seed_from(99);
        let mut core = Core::new(
            CoreId::from_index(0),
            Box::new(ScriptProgram::new("t", ops)),
            &HierarchyConfig::paper(),
            LatencyModel::paper(),
            &mut rng,
        );
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut now = 0;
        while !core.is_done() && now < max_cycles {
            let completed = bus.begin_cycle(now);
            core.tick(now, completed.as_ref(), &mut bus);
            bus.end_cycle(now);
            now += 1;
        }
        (core, bus, now)
    }

    #[test]
    fn pure_compute_timing_is_exact() {
        let (core, _bus, _) = run_solo(vec![Op::Compute(10), Op::Compute(5)], 100);
        assert!(core.is_done());
        // 15 compute cycles; done detected the cycle after the last one.
        assert_eq!(core.done_at(), Some(15));
        assert_eq!(core.stats().busy_cycles, 15);
        assert_eq!(core.stats().ops, 2);
    }

    #[test]
    fn cold_load_blocks_for_issue_plus_miss() {
        let (core, bus, _) = run_solo(vec![Op::Access(MemAccess::load(0x100))], 200);
        assert!(core.is_done());
        // Cycle 0: classify + AwaitPost. Cycle 1: post, granted same cycle.
        // Bus holds [1, 29); completion absorbed at cycle 29, where the core
        // also discovers the program is exhausted: done at 29.
        assert_eq!(core.done_at(), Some(29));
        assert_eq!(bus.trace().busy_cycles(CoreId::from_index(0)), 28);
        assert_eq!(core.stats().blocking_transactions, 1);
    }

    #[test]
    fn l1_hit_costs_one_cycle() {
        let (core, bus, _) = run_solo(
            vec![
                Op::Access(MemAccess::load(0x100)), // cold miss
                Op::Access(MemAccess::load(0x104)), // L1 hit
                Op::Access(MemAccess::load(0x108)), // L1 hit
            ],
            200,
        );
        assert!(core.is_done());
        assert_eq!(bus.trace().total_slots(), 1, "only the miss hits the bus");
        assert_eq!(core.memory().stats().l1_hits, 2);
        // 29 (miss, as above) + 2 hit cycles
        assert_eq!(core.done_at(), Some(31));
    }

    #[test]
    fn stores_drain_in_background() {
        // store then compute: the store's bus transaction overlaps compute.
        let (core, bus, _) = run_solo(
            vec![Op::Access(MemAccess::store(0x100)), Op::Compute(40)],
            300,
        );
        assert!(core.is_done());
        assert_eq!(core.stats().store_transactions, 1);
        assert_eq!(bus.trace().total_slots(), 1);
        // Store executes in 1 cycle, compute 40: the 28-cycle cold-store
        // transaction fully overlaps, so total ≈ 42, way below 1 + 28 + 40.
        assert!(
            core.done_at().unwrap() <= 44,
            "done at {:?}",
            core.done_at()
        );
    }

    #[test]
    fn blocking_load_waits_for_store_drain() {
        // TSO: a load miss posted after a store must not overtake it.
        let (core, bus, _) = run_solo(
            vec![
                Op::Access(MemAccess::store(0x100)),
                Op::Access(MemAccess::load(0x2000)),
            ],
            300,
        );
        assert!(core.is_done());
        let records_slots = bus.trace().total_slots();
        assert_eq!(records_slots, 2);
        // Serialized: ~1 + 28 (store) + 28 (load) + overheads.
        assert!(core.done_at().unwrap() >= 56);
    }

    #[test]
    fn store_buffer_full_stalls_pipeline() {
        // Depth-2 buffer: a third store back-to-back must stall.
        let ops = vec![
            Op::Access(MemAccess::store(0x1000)),
            Op::Access(MemAccess::store(0x2000)),
            Op::Access(MemAccess::store(0x3000)),
            Op::Access(MemAccess::store(0x4000)),
        ];
        let (core, _bus, _) = run_solo(ops, 500);
        assert!(core.is_done());
        assert!(
            core.stats().store_stall_cycles > 0,
            "expected SB-full stalls"
        );
        assert_eq!(core.stats().store_transactions, 4);
    }

    #[test]
    fn atomics_block_and_cost_two_memory_accesses() {
        let (core, bus, _) = run_solo(vec![Op::Access(MemAccess::atomic(0x100))], 200);
        assert!(core.is_done());
        assert_eq!(bus.trace().busy_cycles(CoreId::from_index(0)), 56);
        assert_eq!(core.done_at(), Some(57)); // 1 issue cycle + 56 on the bus
    }

    #[test]
    fn draining_completes_before_done() {
        let (core, _bus, _) = run_solo(vec![Op::Access(MemAccess::store(0x100))], 300);
        assert!(core.is_done());
        // Done only after the store's transaction completed: >= 28 cycles.
        assert!(core.done_at().unwrap() >= 28);
    }

    #[test]
    fn reset_reproduces_solo_runs_identically() {
        let ops = vec![
            Op::Compute(5),
            Op::Access(MemAccess::load(0x100)),
            Op::Access(MemAccess::store(0x200)),
            Op::Compute(3),
        ];
        let mut rng = SimRng::seed_from(123);
        let mut core = Core::new(
            CoreId::from_index(0),
            Box::new(ScriptProgram::new("t", ops)),
            &HierarchyConfig::paper(),
            LatencyModel::paper(),
            &mut rng,
        );
        let mut durations = Vec::new();
        for run in 0..2 {
            let mut bus = Bus::new(
                BusConfig::new(1, 56).unwrap(),
                PolicyKind::RoundRobin.build(1, 56),
            );
            if run > 0 {
                let mut run_rng = SimRng::seed_from(123);
                core.reset(&mut run_rng);
            }
            let mut now = 0;
            while !core.is_done() && now < 1000 {
                let completed = bus.begin_cycle(now);
                core.tick(now, completed.as_ref(), &mut bus);
                bus.end_cycle(now);
                now += 1;
            }
            durations.push(core.done_at().unwrap());
        }
        assert_eq!(durations[0], durations[1], "same seed, same timing");
    }

    #[test]
    fn stats_cycles_partition_execution() {
        let (core, _bus, _) = run_solo(
            vec![Op::Compute(7), Op::Access(MemAccess::load(0x500))],
            300,
        );
        let s = core.stats();
        // busy + bus stalls == done_at (store stalls zero here).
        assert_eq!(
            s.busy_cycles + s.bus_stall_cycles + s.store_stall_cycles,
            core.done_at().unwrap(),
            "cycle accounting: {s:?}"
        );
    }

    #[test]
    fn draining_cycles_count_as_bus_stall() {
        // The program ends right after its store: the core then waits on
        // the store's write-through, and those cycles are bus stalls.
        let (core, _bus, _) = run_solo(
            vec![Op::Compute(3), Op::Access(MemAccess::store(0x100))],
            300,
        );
        let s = core.stats();
        let done = core.done_at().unwrap();
        assert_eq!(s.busy_cycles, 4);
        assert_eq!(
            s.busy_cycles + s.bus_stall_cycles + s.store_stall_cycles,
            done
        );
        assert!(s.bus_stall_cycles > 20, "{s:?}");
    }
}
