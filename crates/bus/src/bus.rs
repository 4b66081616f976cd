//! The cycle-accurate non-split bus.
//!
//! # Cycle protocol
//!
//! The bus advances in two phases per cycle, so that a core whose
//! transaction completes at cycle `t` can post its next request *within*
//! cycle `t` and be re-arbitrated immediately (back-to-back transactions,
//! as on the FPGA where the request lines are already raised when a
//! transfer ends):
//!
//! 1. [`Bus::begin_cycle`]`(t)` — a transaction ending at `t` completes and
//!    is reported;
//! 2. clients post requests for cycle `t` via [`Bus::post`];
//! 3. [`Bus::end_cycle`]`(t)` — if the bus is free, the eligibility filter
//!    and arbitration policy pick a winner, which then holds the bus for
//!    cycles `[t, t + duration)`; finally the filter's per-cycle state
//!    (credit counters) advances.
//!
//! [`BusModel::tick`](sim_core::BusModel::tick) bundles both phases for
//! simple clients that post between ticks.

use crate::dispatch::{BusPolicy, BusRng};
use crate::pending::{Candidate, PendingSet};
use crate::policy::{ArbitrationPolicy, EligibilityFilter, NoFilter, RandomSource};
use crate::{BusError, BusRequest, RequestKind};
use sim_core::rng::SimRng;
use sim_core::trace::GrantTrace;
use sim_core::{CoreId, Cycle};
use std::collections::VecDeque;

/// Static configuration of a bus instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    n_cores: usize,
    max_latency: u32,
}

impl BusConfig {
    /// Creates a configuration for `n_cores` contenders whose longest
    /// transaction (MaxL) is `max_latency` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::InvalidConfig`] if `n_cores` is 0 or above
    /// [`CoreId::MAX_CORES`], or if `max_latency` is 0 or above
    /// [`BusRequest::MAX_DURATION`].
    pub fn new(n_cores: usize, max_latency: u32) -> Result<Self, BusError> {
        if n_cores == 0 || n_cores > CoreId::MAX_CORES {
            return Err(BusError::InvalidConfig(format!(
                "n_cores must be in 1..={}, got {n_cores}",
                CoreId::MAX_CORES
            )));
        }
        if max_latency == 0 || max_latency > BusRequest::MAX_DURATION {
            return Err(BusError::InvalidConfig(format!(
                "max_latency must be in 1..={}, got {max_latency}",
                BusRequest::MAX_DURATION
            )));
        }
        Ok(BusConfig {
            n_cores,
            max_latency,
        })
    }

    /// Number of contenders.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// MaxL: the longest transaction duration the bus accepts.
    pub fn max_latency(&self) -> u32 {
        self.max_latency
    }
}

/// Occupancy state of the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusState {
    /// No transaction in flight.
    Idle,
    /// A non-split transaction holds the bus for cycles
    /// `[started, ends_at)`.
    Busy {
        /// Core holding the bus.
        owner: CoreId,
        /// First cycle of the transaction.
        started: Cycle,
        /// First cycle *after* the transaction.
        ends_at: Cycle,
        /// Transaction classification (for the completion report).
        kind: RequestKind,
    },
}

/// Completion report returned by [`Bus::begin_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTransaction {
    /// Core whose transaction finished.
    pub core: CoreId,
    /// Classification of the finished transaction.
    pub kind: RequestKind,
    /// Its duration in cycles.
    pub duration: u32,
}

/// Combined result of one [`BusModel::tick`](sim_core::BusModel::tick) on a
/// [`Bus`].
pub type TickOutcome = sim_core::TickOutcome<CompletedTransaction>;

/// Per-core request waiting-time statistics (request-ready to grant).
#[derive(Debug, Clone, Default)]
pub struct WaitStats {
    granted: Vec<u64>,
    total_wait: Vec<u64>,
    max_wait: Vec<u64>,
}

impl WaitStats {
    fn new(n_cores: usize) -> Self {
        WaitStats {
            granted: vec![0; n_cores],
            total_wait: vec![0; n_cores],
            max_wait: vec![0; n_cores],
        }
    }

    fn record(&mut self, core: CoreId, wait: Cycle) {
        let i = core.index();
        self.granted[i] += 1;
        self.total_wait[i] += wait;
        self.max_wait[i] = self.max_wait[i].max(wait);
    }

    fn reset(&mut self) {
        self.granted.iter_mut().for_each(|x| *x = 0);
        self.total_wait.iter_mut().for_each(|x| *x = 0);
        self.max_wait.iter_mut().for_each(|x| *x = 0);
    }

    /// Requests granted to `core`.
    pub fn granted(&self, core: CoreId) -> u64 {
        self.granted[core.index()]
    }

    /// Mean grant latency of `core` in cycles (0 if no grants).
    pub fn mean_wait(&self, core: CoreId) -> f64 {
        let i = core.index();
        if self.granted[i] == 0 {
            0.0
        } else {
            self.total_wait[i] as f64 / self.granted[i] as f64
        }
    }

    /// Worst observed grant latency of `core` in cycles.
    pub fn max_wait(&self, core: CoreId) -> u64 {
        self.max_wait[core.index()]
    }
}

/// The shared non-split bus: pending slots, eligibility filter, arbitration
/// policy, occupancy state and statistics.
///
/// See the [module documentation](self) for the cycle protocol and the
/// [crate documentation](crate) for a usage example.
///
/// The eligibility filter is the type parameter `F`. The default, `Bus`,
/// holds a boxed filter that [`Bus::set_filter`] replaces at run time;
/// [`Bus::assemble`] builds a bus over any concrete filter type, whose
/// calls then need no virtual dispatch (see [`crate::dispatch`]).
#[derive(Debug)]
pub struct Bus<F = Box<dyn EligibilityFilter>> {
    config: BusConfig,
    state: BusState,
    pending: PendingSet,
    policy: BusPolicy,
    filter: F,
    rng: BusRng,
    trace: GrantTrace,
    wait: WaitStats,
    idle_cycles: u64,
    total_cycles: u64,
    scratch: Vec<Candidate>,
    privileged: VecDeque<BusRequest>,
    in_cycle: bool,
    last_cycle: Option<Cycle>,
    flip_watch: Option<FlipWatch>,
}

/// Observer state for credit-eligibility flips: the last verdict seen
/// per core and the buffered flip events awaiting a drain (see
/// [`Bus::enable_flip_probe`]).
#[derive(Debug)]
struct FlipWatch {
    last: Vec<bool>,
    events: Vec<(Cycle, CoreId, bool)>,
}

impl FlipWatch {
    /// Upper bound on buffered, undrained flips. A drained-per-cycle
    /// buffer (the `Simulation` loop with an active probe) holds at most
    /// `n_cores` entries; the cap only matters when flip probing is
    /// enabled but nothing drains, where the **oldest** flips are
    /// discarded so memory stays bounded over arbitrarily long runs.
    const MAX_BUFFERED: usize = 1 << 16;

    fn push(&mut self, event: (Cycle, CoreId, bool)) {
        if self.events.len() >= Self::MAX_BUFFERED {
            self.events.drain(..Self::MAX_BUFFERED / 2);
        }
        self.events.push(event);
    }
}

impl Bus {
    /// Creates a bus with the given arbitration policy, no eligibility
    /// filter, a deterministic default random source (seed 0) and a
    /// counting-only grant trace.
    pub fn new(config: BusConfig, policy: Box<dyn ArbitrationPolicy>) -> Self {
        Bus::assemble(
            config,
            BusPolicy::Custom(policy),
            Box::new(NoFilter::new()),
            BusRng::Soft(SimRng::seed_from(0)),
        )
    }

    /// Replaces the eligibility filter (e.g. with a CBA credit filter).
    pub fn set_filter(&mut self, filter: Box<dyn EligibilityFilter>) {
        self.filter = filter;
        if self.flip_watch.is_some() {
            // Re-baseline the flip watcher against the new filter.
            self.enable_flip_probe();
        }
    }
}

impl<F: EligibilityFilter> Bus<F> {
    /// Creates a bus from its parts: arbitration policy, eligibility
    /// filter and random source, with a counting-only grant trace.
    pub fn assemble(config: BusConfig, policy: BusPolicy, filter: F, rng: BusRng) -> Self {
        Bus {
            state: BusState::Idle,
            pending: PendingSet::new(config.n_cores),
            policy,
            filter,
            rng,
            trace: GrantTrace::counting(config.n_cores),
            wait: WaitStats::new(config.n_cores),
            idle_cycles: 0,
            total_cycles: 0,
            scratch: Vec::with_capacity(config.n_cores),
            privileged: VecDeque::new(),
            in_cycle: false,
            last_cycle: None,
            flip_watch: None,
            config,
        }
    }

    /// Starts watching the eligibility filter for verdict flips, to be
    /// streamed through [`BusModel::drain_events`](
    /// sim_core::BusModel::drain_events) as
    /// [`ModelEvent::CreditFlip`](sim_core::ModelEvent)s. Off by default
    /// (and then completely free); when enabled, every executed cycle
    /// diffs each core's verdict after the filter tick.
    ///
    /// Flips are exact under the naive engine; under the event-horizon
    /// engine, flips inside a skipped range are coalesced to the
    /// skip-resume cycle. The buffer is bounded: if flips are never
    /// drained, the oldest are discarded past ~65k entries — drain every
    /// executed cycle (as the `Simulation` loop does when an active
    /// probe is attached) to observe the complete stream.
    pub fn enable_flip_probe(&mut self) {
        let at = self.last_cycle.map_or(0, |t| t + 1);
        let last: Vec<bool> = (0..self.config.n_cores)
            .map(|i| self.filter.is_eligible(CoreId::from_index(i), at))
            .collect();
        match &mut self.flip_watch {
            // Already watching (filter swap / reset): re-baseline the
            // verdicts but keep any buffered, not-yet-drained events.
            Some(watch) => watch.last = last,
            None => {
                self.flip_watch = Some(FlipWatch {
                    last,
                    events: Vec::new(),
                })
            }
        }
    }

    /// Diffs every core's eligibility verdict for arbitration cycle `at`
    /// against the watcher's baseline, buffering the flips.
    fn record_flips(&mut self, at: Cycle) {
        if let Some(watch) = &mut self.flip_watch {
            for i in 0..watch.last.len() {
                let core = CoreId::from_index(i);
                let eligible = self.filter.is_eligible(core, at);
                if eligible != watch.last[i] {
                    watch.last[i] = eligible;
                    watch.push((at, core, eligible));
                }
            }
        }
    }

    /// Replaces the random-bit source used by randomized policies.
    pub fn set_random_source(&mut self, rng: Box<dyn RandomSource>) {
        self.rng = BusRng::Custom(rng);
    }

    /// Switches to a full recording trace (stores every grant).
    pub fn enable_recording_trace(&mut self) {
        self.trace = GrantTrace::recording(self.config.n_cores);
    }

    /// The static configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Current occupancy state.
    pub fn state(&self) -> BusState {
        self.state
    }

    /// The core currently holding the bus, if any.
    pub fn owner(&self) -> Option<CoreId> {
        match self.state {
            BusState::Busy { owner, .. } => Some(owner),
            BusState::Idle => None,
        }
    }

    /// Whether `core` has a posted, not-yet-granted request.
    pub fn has_pending(&self, core: CoreId) -> bool {
        self.pending.contains(core)
    }

    /// Number of posted, not-yet-granted requests.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The grant trace accumulated so far.
    pub fn trace(&self) -> &GrantTrace {
        &self.trace
    }

    /// Grant-latency statistics accumulated so far.
    pub fn wait_stats(&self) -> &WaitStats {
        &self.wait
    }

    /// Cycles (among those ticked) in which the bus carried no transaction.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Total cycles ticked.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// The arbitration policy's report name (e.g. "RP").
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The eligibility filter's report name (e.g. "CBA").
    pub fn filter_name(&self) -> &'static str {
        self.filter.name()
    }

    /// Posts a bus request (phase 2 of the cycle protocol).
    ///
    /// # Errors
    ///
    /// * [`BusError::UnknownCore`] — request core outside the platform;
    /// * [`BusError::DurationOutOfRange`] — duration above the platform
    ///   MaxL (the credit mechanism requires `duration <= MaxL`);
    /// * [`BusError::AlreadyPending`] — the core already has a pending
    ///   request.
    pub fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        if req.core().index() >= self.config.n_cores {
            return Err(BusError::UnknownCore(req.core()));
        }
        if req.duration() > self.config.max_latency {
            return Err(BusError::DurationOutOfRange {
                got: req.duration(),
                max: self.config.max_latency,
            });
        }
        self.pending.insert(req)
    }

    /// Withdraws the pending request of `core`, if any (used by
    /// WCET-estimation contender models when their compete window closes).
    pub fn withdraw(&mut self, core: CoreId) -> Option<BusRequest> {
        self.pending.remove(core)
    }

    /// Posts a **privileged** request: served FIFO before any arbitrated
    /// request, bypassing both the eligibility filter and the policy.
    ///
    /// This models transfers that have already won arbitration earlier and
    /// hold a reservation — on a split-transaction bus, the response phase
    /// of a split transfer. The grant still occupies the bus, appears in
    /// the trace and drains the owner's credit budget; it just cannot be
    /// vetoed or reordered. Use sparingly: ordinary traffic belongs in
    /// [`Bus::post`].
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as [`Bus::post`]; multiple
    /// privileged requests (even per core) are allowed and served in FIFO
    /// order.
    pub fn post_privileged(&mut self, req: BusRequest) -> Result<(), BusError> {
        if req.core().index() >= self.config.n_cores {
            return Err(BusError::UnknownCore(req.core()));
        }
        if req.duration() > self.config.max_latency {
            return Err(BusError::DurationOutOfRange {
                got: req.duration(),
                max: self.config.max_latency,
            });
        }
        self.privileged.push_back(req);
        Ok(())
    }

    /// Phase 1 of cycle `now`: reports a transaction ending at `now`.
    ///
    /// # Panics
    ///
    /// Panics if cycles are not visited in strictly increasing order or if
    /// the phases are called out of order.
    pub fn begin_cycle(&mut self, now: Cycle) -> Option<CompletedTransaction> {
        assert!(!self.in_cycle, "begin_cycle called twice for one cycle");
        if let Some(last) = self.last_cycle {
            assert!(
                now > last,
                "cycles must strictly increase ({last} -> {now})"
            );
        }
        self.in_cycle = true;
        self.last_cycle = Some(now);
        if let BusState::Busy {
            owner,
            started,
            ends_at,
            kind,
        } = self.state
        {
            if now >= ends_at {
                self.state = BusState::Idle;
                return Some(CompletedTransaction {
                    core: owner,
                    kind,
                    duration: (ends_at - started) as u32,
                });
            }
        }
        None
    }

    /// Phase 3 of cycle `now`: arbitration (if the bus is free) and filter
    /// bookkeeping. Returns the granted core, if any.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching [`Bus::begin_cycle`].
    pub fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
        self.end_cycle_gated(now, true)
    }

    /// [`Bus::end_cycle`] with an external grant gate: with
    /// `allow_grant == false` no transaction (privileged or arbitrated) may
    /// *start* this cycle, while completion, idle accounting and filter
    /// state advance exactly as usual.
    ///
    /// This is the backpressure hook of the hierarchical fabric
    /// ([`crate::fabric`]): a cluster bus must not begin a transfer whose
    /// completion would overflow its bridge's bounded request queue, and
    /// from the bus's own perspective a gated cycle is indistinguishable
    /// from a cycle with no eligible candidate.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching [`Bus::begin_cycle`].
    pub fn end_cycle_gated(&mut self, now: Cycle, allow_grant: bool) -> Option<CoreId> {
        assert!(self.in_cycle, "end_cycle without begin_cycle");
        assert_eq!(
            self.last_cycle,
            Some(now),
            "end_cycle for a different cycle"
        );
        self.in_cycle = false;
        self.total_cycles += 1;

        let mut granted = None;
        if allow_grant && matches!(self.state, BusState::Idle) {
            // Privileged reservations (split-transaction response phases)
            // are served FIFO ahead of arbitration; otherwise the filter
            // and the policy pick among the pending requests.
            if let Some(req) = self.privileged.pop_front() {
                self.grant(req, now);
                granted = Some(req.core());
            } else {
                self.pending.candidates_into(&mut self.scratch);
                let filter = &self.filter;
                self.scratch.retain(|c| filter.is_eligible(c.core, now));
                if let Some(winner) = self.policy.select(&self.scratch, now, &mut self.rng) {
                    let req = self
                        .pending
                        .remove(winner)
                        .expect("policy selected a core that is not pending");
                    self.grant(req, now);
                    self.policy.on_grant(winner, now);
                    granted = Some(winner);
                }
            }
        }

        let owner_now = self.owner();
        if owner_now.is_none() {
            self.idle_cycles += 1;
        }
        self.filter.tick(now, owner_now, &self.pending);
        if self.flip_watch.is_some() {
            self.record_flips(now + 1);
        }
        granted
    }

    /// Occupies the bus with `req` from cycle `now` and records the grant.
    fn grant(&mut self, req: BusRequest, now: Cycle) {
        self.state = BusState::Busy {
            owner: req.core(),
            started: now,
            ends_at: now + req.duration() as Cycle,
            kind: req.kind(),
        };
        self.trace.record(now, req.core(), req.duration());
        self.wait
            .record(req.core(), now.saturating_sub(req.issued_at()));
        self.filter.on_grant(req.core(), req.duration(), now);
    }

    /// The bus's event horizon for the fast-forward engine (see
    /// [`BusModel::next_event`](sim_core::BusModel::next_event) for the
    /// contract): assuming no client interaction,
    ///
    /// * a busy bus is silent until the in-flight transaction's `ends_at`;
    /// * an idle bus with a privileged reservation grants next cycle;
    /// * an idle bus with pending requests can only grant when the filter
    ///   flips a verdict or the policy opens a window (TDMA slot start) —
    ///   both reported by their event hooks, either of which can decline
    ///   (`None` here = step per cycle);
    /// * an idle, empty bus has no event at all (`Cycle::MAX`): credits
    ///   just recover, in closed form, inside [`Bus::advance`].
    pub fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        match self.state {
            BusState::Busy { ends_at, .. } => Some(ends_at),
            BusState::Idle => {
                if !self.privileged.is_empty() {
                    return Some(now + 1);
                }
                if self.pending.is_empty() {
                    return Some(Cycle::MAX);
                }
                // Which pending requests would pass the filter at the next
                // arbitration (cycle now + 1, i.e. after this cycle's
                // filter tick)?
                self.pending.candidates_into(&mut self.scratch);
                let filter = &self.filter;
                self.scratch.retain(|c| filter.is_eligible(c.core, now + 1));
                if !self.scratch.is_empty() && self.policy.is_work_conserving() {
                    // A work-conserving policy grants as soon as it sees an
                    // eligible candidate: no skipping.
                    return Some(now + 1);
                }
                let flip = match self.filter.next_eligibility_flip(now, &self.pending) {
                    crate::policy::FilterHorizon::Unknown => return None,
                    crate::policy::FilterHorizon::Static => Cycle::MAX,
                    crate::policy::FilterHorizon::At(t) => t,
                };
                let window = if self.scratch.is_empty() {
                    // Nobody to grant until a verdict flips.
                    Cycle::MAX
                } else {
                    // Non-work-conserving policy (TDMA): its next window
                    // over the frozen eligible set, if it can predict one.
                    self.policy.next_grant_at(&self.scratch, now)?
                };
                Some(flip.min(window))
            }
        }
    }

    /// Bulk-advances the uneventful cycles `from + 1 ..= to - 1` (see
    /// [`BusModel::advance`](sim_core::BusModel::advance)): cycle counters
    /// accumulate, the filter state evolves under fixed occupancy, and the
    /// monotonic-cycle cursor moves so the next [`Bus::begin_cycle`]`(to)`
    /// is accepted. Grants, completions and RNG draws cannot occur in such
    /// a range by the [`Bus::next_event`] contract, so traces and wait
    /// statistics are untouched.
    pub fn advance(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(!self.in_cycle, "advance between cycles only");
        let k = (to - from).saturating_sub(1);
        if k == 0 {
            return;
        }
        let owner = self.owner();
        self.total_cycles += k;
        if owner.is_none() {
            self.idle_cycles += k;
        }
        self.filter.advance(from + 1, k, owner, &self.pending);
        self.last_cycle = Some(to - 1);
        if self.flip_watch.is_some() {
            // Flips inside the skipped range coalesce to the resume cycle.
            self.record_flips(to);
        }
    }

    /// Resets the bus (state, pending requests, statistics, policy and
    /// filter state) for a fresh run, reusing the trace and statistics
    /// buffers instead of reallocating them. The random source is *not*
    /// reseeded — replace it via [`Bus::set_random_source`] for seed
    /// control.
    pub fn reset(&mut self) {
        self.state = BusState::Idle;
        self.pending.clear();
        self.privileged.clear();
        self.policy.reset();
        self.filter.reset();
        self.trace.clear();
        self.wait.reset();
        self.idle_cycles = 0;
        self.total_cycles = 0;
        self.in_cycle = false;
        self.last_cycle = None;
        if let Some(watch) = &mut self.flip_watch {
            // Stale events belong to the finished run; re-baseline
            // against the freshly reset filter.
            watch.events.clear();
            self.enable_flip_probe();
        }
    }
}

/// The non-split bus speaks the workspace-wide cycle protocol directly:
/// requests carry their own [`CoreId`], completions are
/// [`CompletedTransaction`]s.
impl<F: EligibilityFilter> sim_core::BusModel for Bus<F> {
    type Request = BusRequest;
    type Completion = CompletedTransaction;
    type Error = BusError;

    fn begin_cycle(&mut self, now: Cycle) -> Option<CompletedTransaction> {
        Bus::begin_cycle(self, now)
    }

    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        Bus::post(self, req)
    }

    fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
        Bus::end_cycle(self, now)
    }

    fn owner(&self) -> Option<CoreId> {
        Bus::owner(self)
    }

    fn trace(&self) -> &GrantTrace {
        Bus::trace(self)
    }

    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        Bus::next_event(self, now)
    }

    fn advance(&mut self, from: Cycle, to: Cycle) {
        Bus::advance(self, from, to)
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(sim_core::ModelEvent)) {
        if let Some(watch) = &mut self.flip_watch {
            for (at, core, eligible) in watch.events.drain(..) {
                sink(sim_core::ModelEvent::CreditFlip { at, core, eligible });
            }
        }
    }

    /// The bus is closed when its policy and filter are, it keeps a
    /// counting trace (a recording one needs every grant instant), no
    /// flip watcher observes it and no privileged reservation is queued.
    /// The state is the in-flight transaction and the pending slots; the
    /// counters are the trace totals, the per-core wait counts and sums,
    /// and the idle and total cycle counts. The worst wait needs no
    /// counter: a periodic regime only repeats waits already observed.
    fn signature(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<(u64, u64)>) -> bool {
        if self.trace.records().is_some()
            || self.flip_watch.is_some()
            || !self.privileged.is_empty()
        {
            return false;
        }
        match self.state {
            BusState::Idle => state.extend([0; 4]),
            BusState::Busy {
                owner,
                started,
                ends_at,
                kind,
            } => state.extend([
                owner.index() as u64 + 1,
                ends_at - now,
                ends_at - started,
                kind as u64,
            ]),
        }
        for slot in CoreId::all(self.config.n_cores).map(|c| self.pending.get(c)) {
            match slot {
                Some(r) => {
                    state.extend([r.duration() as u64, now - r.issued_at(), r.kind() as u64])
                }
                None => state.extend([0; 3]),
            }
        }
        if !self.policy.signature(state) || !self.filter.signature(state) {
            return false;
        }
        self.trace.push_counters(counters);
        let wait = self.wait.granted.iter().chain(&self.wait.total_wait);
        let cycles = [self.idle_cycles, self.total_cycles];
        counters.extend(wait.chain(&cycles).map(|&v| (v, u64::MAX)));
        true
    }

    fn shift(&mut self, periods: u64, span: Cycle, deltas: &[u64]) {
        if let BusState::Busy {
            started, ends_at, ..
        } = &mut self.state
        {
            *started += span;
            *ends_at += span;
        }
        self.pending.shift_issue_times(span);
        self.last_cycle = self.last_cycle.map(|t| t + span);
        let n = self.config.n_cores;
        let (trace, rest) = deltas.split_at(2 * n);
        self.trace.shift(periods, span, trace);
        let counts = self
            .wait
            .granted
            .iter_mut()
            .chain(&mut self.wait.total_wait);
        let cycles = counts.chain([&mut self.idle_cycles, &mut self.total_cycles]);
        for (count, &delta) in cycles.zip(rest) {
            *count += periods * delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{RoundRobin, Tdma};
    use crate::policy::EligibilityFilter;
    use sim_core::BusModel;

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    fn req(core: usize, dur: u32, at: Cycle) -> BusRequest {
        BusRequest::new(c(core), dur, RequestKind::Synthetic, at).unwrap()
    }

    fn rr_bus(n: usize) -> Bus {
        Bus::new(BusConfig::new(n, 56).unwrap(), Box::new(RoundRobin::new(n)))
    }

    #[test]
    fn config_validation() {
        assert!(BusConfig::new(0, 56).is_err());
        assert!(BusConfig::new(4, 0).is_err());
        assert!(BusConfig::new(65, 56).is_err());
        assert!(BusConfig::new(4, BusRequest::MAX_DURATION + 1).is_err());
        let ok = BusConfig::new(4, 56).unwrap();
        assert_eq!(ok.n_cores(), 4);
        assert_eq!(ok.max_latency(), 56);
    }

    #[test]
    fn single_request_lifecycle() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 5, 0)).unwrap();
        let out = bus.tick(0);
        assert_eq!(out.granted, Some(c(0)));
        assert_eq!(bus.owner(), Some(c(0)));
        for now in 1..5 {
            let out = bus.tick(now);
            assert_eq!(out.completed, None);
            assert_eq!(bus.owner(), Some(c(0)));
        }
        let out = bus.tick(5);
        assert_eq!(
            out.completed,
            Some(CompletedTransaction {
                core: c(0),
                kind: RequestKind::Synthetic,
                duration: 5
            })
        );
        assert_eq!(bus.owner(), None);
    }

    #[test]
    fn post_validation() {
        let mut bus = rr_bus(2);
        // duration above platform MaxL rejected even though BusRequest
        // itself allows it
        let too_long = BusRequest::new(c(0), 57, RequestKind::Atomic, 0).unwrap();
        assert!(matches!(
            bus.post(too_long),
            Err(BusError::DurationOutOfRange { got: 57, max: 56 })
        ));
        // unknown core
        let stranger = BusRequest::new(c(3), 5, RequestKind::Synthetic, 0).unwrap();
        assert!(matches!(bus.post(stranger), Err(BusError::UnknownCore(_))));
        // double post
        bus.post(req(0, 5, 0)).unwrap();
        assert!(matches!(
            bus.post(req(0, 5, 0)),
            Err(BusError::AlreadyPending(_))
        ));
    }

    #[test]
    fn back_to_back_grants_with_two_phase_protocol() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 5, 0)).unwrap();
        bus.begin_cycle(0);
        assert_eq!(bus.end_cycle(0), Some(c(0)));
        for now in 1..5 {
            bus.begin_cycle(now);
            assert_eq!(bus.end_cycle(now), None);
        }
        // At completion cycle 5, a new request posted in phase 2 is granted
        // the same cycle: zero idle cycles between transactions.
        let done = bus.begin_cycle(5);
        assert_eq!(done.unwrap().core, c(0));
        bus.post(req(1, 5, 5)).unwrap();
        assert_eq!(bus.end_cycle(5), Some(c(1)));
        assert_eq!(bus.idle_cycles(), 0);
    }

    #[test]
    fn saturating_cores_produce_zero_idle_cycles() {
        let mut bus = rr_bus(2);
        let mut completed = 0;
        for now in 0..1000u64 {
            bus.begin_cycle(now);
            for i in 0..2 {
                if !bus.has_pending(c(i)) && bus.owner() != Some(c(i)) {
                    bus.post(req(i, if i == 0 { 5 } else { 45 }, now)).unwrap();
                }
            }
            if bus.end_cycle(now).is_some() {
                completed += 1;
            }
        }
        assert!(completed > 20);
        assert_eq!(bus.idle_cycles(), 0);
        assert_eq!(bus.total_cycles(), 1000);
    }

    #[test]
    fn wait_stats_account_grant_latency() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 10, 0)).unwrap();
        bus.post(req(1, 5, 0)).unwrap();
        bus.tick(0); // grants core 0 (RR cursor at 0)
        for now in 1..=10 {
            bus.tick(now);
        } // completion at 10 grants core 1, which waited 10 cycles
        assert_eq!(bus.wait_stats().granted(c(0)), 1);
        assert_eq!(bus.wait_stats().mean_wait(c(0)), 0.0);
        assert_eq!(bus.wait_stats().granted(c(1)), 1);
        assert_eq!(bus.wait_stats().mean_wait(c(1)), 10.0);
        assert_eq!(bus.wait_stats().max_wait(c(1)), 10);
    }

    /// A filter that permanently vetoes one core (to test the filter hook).
    #[derive(Debug)]
    struct Veto(CoreId);

    impl EligibilityFilter for Veto {
        fn name(&self) -> &'static str {
            "veto"
        }
        fn is_eligible(&self, core: CoreId, _now: Cycle) -> bool {
            core != self.0
        }
    }

    #[test]
    fn filter_vetoes_candidates() {
        let mut bus = rr_bus(2);
        bus.set_filter(Box::new(Veto(c(0))));
        bus.post(req(0, 5, 0)).unwrap();
        bus.post(req(1, 5, 0)).unwrap();
        // RR would prefer core 0, but the filter blocks it.
        assert_eq!(bus.tick(0).granted, Some(c(1)));
        // Core 0 stays pending forever under this (pathological) filter.
        for now in 1..50 {
            bus.tick(now);
        }
        assert!(bus.has_pending(c(0)));
        assert_eq!(bus.trace().slots(c(0)), 0);
    }

    #[test]
    fn tdma_keeps_bus_idle_mid_slot() {
        let config = BusConfig::new(2, 10).unwrap();
        let mut bus = Bus::new(config, Box::new(Tdma::new(2, 10)));
        // Request from core 1 arrives during core 0's slot; it must wait
        // for cycle 10 (its own slot start).
        bus.post(req(1, 5, 0)).unwrap();
        for now in 0..10u64 {
            assert_eq!(bus.tick(now).granted, None, "granted at {now}");
        }
        assert_eq!(bus.tick(10).granted, Some(c(1)));
        assert_eq!(bus.idle_cycles(), 10);
    }

    #[test]
    fn withdraw_removes_pending() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 5, 0)).unwrap();
        assert!(bus.withdraw(c(0)).is_some());
        assert!(!bus.has_pending(c(0)));
        assert_eq!(bus.tick(0).granted, None);
    }

    #[test]
    fn reset_clears_everything() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 5, 0)).unwrap();
        bus.tick(0);
        bus.reset();
        assert_eq!(bus.owner(), None);
        assert_eq!(bus.pending_count(), 0);
        assert_eq!(bus.total_cycles(), 0);
        assert_eq!(bus.trace().total_slots(), 0);
        // Cycle counter restarts from anywhere after reset.
        bus.tick(0);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_monotonic_cycles_panic() {
        let mut bus = rr_bus(1);
        bus.tick(5);
        bus.tick(5);
    }

    #[test]
    #[should_panic(expected = "without begin_cycle")]
    fn end_without_begin_panics() {
        let mut bus = rr_bus(1);
        bus.end_cycle(0);
    }

    #[test]
    fn gated_end_cycle_defers_grants_but_keeps_accounting() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 5, 0)).unwrap();
        bus.post_privileged(req(1, 5, 0)).unwrap();
        bus.begin_cycle(0);
        assert_eq!(bus.end_cycle_gated(0, false), None);
        assert!(bus.has_pending(c(0)), "request survives the gate");
        assert_eq!(bus.idle_cycles(), 1, "a gated cycle is an idle cycle");
        assert_eq!(bus.total_cycles(), 1);
        // Opening the gate serves the privileged reservation first, as an
        // ungated cycle would.
        bus.begin_cycle(1);
        assert_eq!(bus.end_cycle_gated(1, true), Some(c(1)));
    }

    #[test]
    fn next_event_reports_the_completion_horizon() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 40, 0)).unwrap();
        bus.tick(0); // grant: busy over [0, 40)
        assert_eq!(bus.next_event(0), Some(40));
        // Idle and empty: no bus-side event at all.
        let mut empty = rr_bus(2);
        empty.tick(0);
        assert_eq!(empty.next_event(0), Some(u64::MAX));
    }

    #[test]
    fn next_event_refuses_to_skip_past_imminent_grants() {
        // A pending, eligible request under a work-conserving policy means
        // a grant can land next cycle.
        let mut bus = rr_bus(2);
        bus.begin_cycle(0);
        bus.end_cycle(0);
        bus.post(req(1, 5, 0)).unwrap();
        assert_eq!(bus.next_event(0), Some(1));
        // Same for a privileged reservation.
        let mut bus = rr_bus(2);
        bus.tick(0);
        bus.post_privileged(req(0, 5, 0)).unwrap();
        assert_eq!(bus.next_event(0), Some(1));
    }

    #[test]
    fn next_event_uses_the_tdma_window() {
        let config = BusConfig::new(2, 10).unwrap();
        let mut bus = Bus::new(config, Box::new(Tdma::new(2, 10)));
        bus.post(req(1, 5, 0)).unwrap();
        bus.tick(0); // core 1 waits: its slot starts at cycle 10
        assert_eq!(bus.next_event(0), Some(10));
        // Stepping up to the window never grants; the window cycle does.
        for now in 1..10 {
            assert_eq!(bus.tick(now).granted, None);
        }
        assert_eq!(bus.tick(10).granted, Some(c(1)));
    }

    #[test]
    fn next_event_declines_for_unpredictable_filters() {
        // `Veto` keeps the default `Unknown` horizon: with a pending
        // (ineligible) request the bus must refuse to skip.
        let mut bus = rr_bus(2);
        bus.set_filter(Box::new(Veto(c(0))));
        bus.post(req(0, 5, 0)).unwrap();
        bus.tick(0);
        assert_eq!(bus.next_event(0), None);
    }

    #[test]
    fn advance_accounts_skipped_cycles_like_stepping() {
        // Busy stretch: skip the whole transaction body.
        let mut fast = rr_bus(2);
        fast.post(req(0, 40, 0)).unwrap();
        fast.tick(0);
        fast.advance(0, 40);
        let done = fast.begin_cycle(40);
        assert_eq!(done.unwrap().core, c(0));
        assert_eq!(fast.end_cycle(40), None);

        let mut slow = rr_bus(2);
        slow.post(req(0, 40, 0)).unwrap();
        for now in 0..=40u64 {
            slow.tick(now);
        }
        assert_eq!(fast.total_cycles(), slow.total_cycles());
        assert_eq!(fast.idle_cycles(), slow.idle_cycles());

        // Idle stretch: idle cycles accumulate.
        let mut bus = rr_bus(2);
        bus.tick(0);
        bus.advance(0, 100);
        bus.tick(100);
        assert_eq!(bus.total_cycles(), 101);
        assert_eq!(bus.idle_cycles(), 101);
    }

    #[test]
    fn reset_keeps_the_recording_mode_without_reallocating() {
        let mut bus = rr_bus(2);
        bus.enable_recording_trace();
        bus.post(req(0, 5, 0)).unwrap();
        bus.tick(0);
        assert_eq!(bus.trace().records().unwrap().len(), 1);
        bus.reset();
        assert!(bus.trace().records().is_some(), "still recording");
        assert_eq!(bus.trace().records().unwrap().len(), 0);
        assert_eq!(bus.trace().total_slots(), 0);
    }

    #[test]
    fn trace_and_utilization() {
        let mut bus = rr_bus(1);
        bus.post(req(0, 25, 0)).unwrap();
        for now in 0..50u64 {
            bus.tick(now);
        }
        assert_eq!(bus.trace().slots(c(0)), 1);
        assert_eq!(bus.trace().busy_cycles(c(0)), 25);
        assert!((bus.trace().utilization(50) - 0.5).abs() < 1e-12);
    }
}
