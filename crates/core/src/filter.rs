//! The CBA eligibility filter — the arbiter-side implementation of the
//! mechanism, including the WCET-estimation-mode signal logic of Table I.
//!
//! [`CreditFilter`] plugs into the bus via
//! [`cba_bus::EligibilityFilter`]: every cycle the bus reports who held the
//! bus (budgets drain/recover), and during arbitration the filter vetoes
//! pending requests whose core lacks a full `MaxL` budget. Any slot-fair
//! policy then chooses among the eligible survivors, exactly as the paper
//! describes ("CBA acts as a filter to determine the pending requests that
//! are eligible to be arbitrated").

use crate::config::CreditConfig;
use crate::credit::CreditCounter;
use cba_bus::{EligibilityFilter, FilterHorizon, NoFilter, PendingSet};
use sim_core::{CoreId, Cycle};

/// Platform operating mode (paper, Section III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Normal operation: every core's pending request is eligible whenever
    /// its budget is full (`COMPi` signals "always set").
    Operation,
    /// WCET-estimation (analysis) mode: the task under analysis runs on
    /// `tua`; the other cores are contention generators whose requests
    /// compete only when (a) their budget is full and (b) the TuA has a
    /// request pending — the latched `COMPi` bit of Table I. The TuA's own
    /// budget starts at **zero** so that measurements capture the
    /// worst-case initial state.
    WcetEstimation {
        /// Core running the task under analysis (REQ1 in the paper's
        /// numbering).
        tua: CoreId,
    },
}

/// Credit-based arbitration as a bus eligibility filter.
///
/// Holds one [`CreditCounter`] per core plus, in WCET-estimation mode, one
/// latched `COMP` bit per contender core.
///
/// # Example
///
/// ```
/// use cba::{CreditConfig, CreditFilter, Mode};
/// use cba_bus::{EligibilityFilter, PendingSet};
/// use sim_core::CoreId;
///
/// let cfg = CreditConfig::homogeneous(4, 56)?;
/// let mut filter = CreditFilter::new(cfg);
/// let c0 = CoreId::from_index(0);
/// // Fresh operation-mode filter: everyone starts with a full budget.
/// assert!(filter.is_eligible(c0, 0));
///
/// // After a grant the core drains and is ineligible until recovered.
/// filter.on_grant(c0, 8, 0);
/// let empty = PendingSet::new(4);
/// for now in 0..8 { filter.tick(now, Some(c0), &empty); }
/// assert!(!filter.is_eligible(c0, 8));
/// for now in 8..32 { filter.tick(now, None, &empty); }
/// assert!(filter.is_eligible(c0, 32)); // (N-1)*8 = 24 cycles later
/// # Ok::<(), cba::CbaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CreditFilter {
    config: CreditConfig,
    counters: Vec<CreditCounter>,
    comp: Vec<bool>,
    mode: Mode,
    name: &'static str,
}

impl CreditFilter {
    /// Creates an operation-mode filter with all budgets full (the
    /// steady-state assumption for performance experiments).
    pub fn new(config: CreditConfig) -> Self {
        Self::with_mode(config, Mode::Operation)
    }

    /// Creates a filter in the given mode.
    ///
    /// Initial budgets follow the paper's measurement protocol: in
    /// operation mode all cores start full; in WCET-estimation mode the
    /// TuA starts at zero (worst case — its first request is maximally
    /// delayed) and contenders start full.
    pub fn with_mode(config: CreditConfig, mode: Mode) -> Self {
        let n = config.n_cores();
        let name = config.scheme_name();
        let counters = CoreId::all(n)
            .map(|core| {
                let initial = match mode {
                    Mode::WcetEstimation { tua } if core == tua => 0,
                    _ => config.scaled_cap(core),
                };
                CreditCounter::new(
                    config.numerator(core),
                    config.denominator(),
                    config.scaled_cap(core),
                    initial,
                )
            })
            .collect();
        CreditFilter {
            counters,
            comp: vec![false; n],
            mode,
            name,
            config,
        }
    }

    /// The filter's configuration.
    pub fn config(&self) -> &CreditConfig {
        &self.config
    }

    /// The operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Current scaled budget of `core` (the `BUDGi` register).
    pub fn budget(&self, core: CoreId) -> u64 {
        self.counters[core.index()].value()
    }

    /// Current latched `COMPi` bit of `core` (always `true` in operation
    /// mode, matching Table I's "Operation mode: 1").
    pub fn comp(&self, core: CoreId) -> bool {
        match self.mode {
            Mode::Operation => true,
            Mode::WcetEstimation { tua } => core == tua || self.comp[core.index()],
        }
    }

    /// Whether `core`'s budget has reached the `MaxL` eligibility
    /// threshold.
    pub fn budget_full(&self, core: CoreId) -> bool {
        self.counters[core.index()].is_at_least(self.config.scaled_threshold())
    }

    fn is_tua(&self, core: CoreId) -> bool {
        matches!(self.mode, Mode::WcetEstimation { tua } if tua == core)
    }

    /// The first arbitration cycle at which `core`'s budget test can pass,
    /// given only idle recovery from cycle `now + 1` on: arbitration at
    /// cycle `t` sees the counter after the tick of cycle `t - 1`, so a
    /// deficit needing `k` recovery ticks clears at cycle `now + 1 + k`.
    /// `None` when the budget already passes.
    fn budget_pass_at(&self, core: CoreId, now: Cycle) -> Option<Cycle> {
        self.counters[core.index()]
            .cycles_to_reach(self.config.scaled_threshold())
            .map(|k| now + 1 + k)
    }
}

impl EligibilityFilter for CreditFilter {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_eligible(&self, core: CoreId, _now: Cycle) -> bool {
        match self.mode {
            Mode::Operation => self.budget_full(core),
            Mode::WcetEstimation { tua } => {
                if core == tua {
                    self.budget_full(core)
                } else {
                    // Contenders compete only while their latched COMP bit
                    // is set (budget was full while the TuA had a request).
                    self.comp[core.index()]
                }
            }
        }
    }

    fn on_grant(&mut self, core: CoreId, _duration: u32, _now: Cycle) {
        // "COMPi is reset whenever core i is granted access to the bus."
        if !self.is_tua(core) {
            self.comp[core.index()] = false;
        }
    }

    fn tick(&mut self, _now: Cycle, owner: Option<CoreId>, pending: &PendingSet) {
        for (i, counter) in self.counters.iter_mut().enumerate() {
            counter.tick(owner.map(CoreId::index) == Some(i));
        }
        if let Mode::WcetEstimation { tua } = self.mode {
            // "The COMPi bit is set when BUDGi is [full] and REQ1 is set."
            // REQ1 = the TuA has a request pending (or currently in
            // service, which keeps contenders competing during its
            // transaction window as on the FPGA where REQ stays high until
            // served).
            let req1 = pending.contains(tua) || owner == Some(tua);
            if req1 {
                let threshold = self.config.scaled_threshold();
                for i in 0..self.comp.len() {
                    let core = CoreId::from_index(i);
                    if core != tua && self.counters[i].is_at_least(threshold) {
                        self.comp[i] = true;
                    }
                }
            }
        }
    }

    /// O(1) bulk tick: `k` cycles of unchanged occupancy. Counters move by
    /// their closed forms ([`CreditCounter::advance_idle`] /
    /// [`CreditCounter::advance_holding`]); WCET-mode `COMP` bits latch
    /// exactly when the per-cycle loop would have latched them, using the
    /// peak value each counter attains during the stretch (idle counters
    /// peak at the end, a draining owner peaks after its first tick).
    fn advance(&mut self, _now: Cycle, k: u64, owner: Option<CoreId>, pending: &PendingSet) {
        if k == 0 {
            return;
        }
        if let Mode::WcetEstimation { tua } = self.mode {
            let req1 = pending.contains(tua) || owner == Some(tua);
            if req1 {
                let threshold = self.config.scaled_threshold();
                for i in 0..self.comp.len() {
                    let core = CoreId::from_index(i);
                    if core == tua || self.comp[i] {
                        continue;
                    }
                    let mut peak = self.counters[i];
                    if owner == Some(core) {
                        peak.advance_holding(1);
                    } else {
                        peak.advance_idle(k);
                    }
                    if peak.is_at_least(threshold) {
                        self.comp[i] = true;
                    }
                }
            }
        }
        for (i, counter) in self.counters.iter_mut().enumerate() {
            if owner.map(CoreId::index) == Some(i) {
                counter.advance_holding(k);
            } else {
                counter.advance_idle(k);
            }
        }
    }

    /// During an idle stretch with a frozen pending set, every pending
    /// core's counter only recovers, so verdicts flip monotonically from
    /// ineligible to eligible; the earliest such flip is the horizon. In
    /// WCET-estimation mode a contender's verdict is its latched `COMP`
    /// bit, which (with `REQ1` frozen) latches exactly when its budget
    /// test first passes — the same arithmetic — and never flips at all
    /// while `REQ1` is low.
    fn next_eligibility_flip(&self, now: Cycle, pending: &PendingSet) -> FilterHorizon {
        let mut earliest: Option<Cycle> = None;
        for req in pending.iter() {
            let core = req.core();
            if self.is_eligible(core, now + 1) {
                continue;
            }
            let flip = match self.mode {
                Mode::Operation => self.budget_pass_at(core, now),
                Mode::WcetEstimation { tua } => {
                    if core == tua {
                        self.budget_pass_at(core, now)
                    } else if pending.contains(tua) {
                        // REQ1 high: COMP latches when the budget fills —
                        // or, if the budget is already full but COMP was
                        // never latched (REQ1 was low until now), at the
                        // stretch's very first tick.
                        Some(self.budget_pass_at(core, now).unwrap_or(now + 2))
                    } else {
                        // REQ1 low: COMP cannot latch during this stretch.
                        None
                    }
                }
            };
            if let Some(t) = flip {
                earliest = Some(earliest.map_or(t, |e: Cycle| e.min(t)));
            }
        }
        match earliest {
            Some(t) => FilterHorizon::At(t),
            None => FilterHorizon::Static,
        }
    }

    fn reset(&mut self) {
        let config = self.config.clone();
        let mode = self.mode;
        *self = CreditFilter::with_mode(config, mode);
    }

    /// Budgets and `COMP` latches are the whole state: the counters
    /// evolve per cycle of occupancy, never by the absolute cycle.
    fn signature(&self, state: &mut Vec<u64>) -> bool {
        let cells = self.counters.iter().zip(&self.comp);
        state.extend(cells.flat_map(|(counter, &comp)| [counter.value(), comp as u64]));
        true
    }
}

/// The filter slot of a platform bus: no filter (the "RP" baseline) or
/// the credit filter.
///
/// The credit filter lives in this crate, downstream of `cba-bus`, so the
/// bus cannot hold it in an enum of its own; it takes its filter as a type
/// parameter instead, and `Bus<BusFilter>` runs either setup with direct,
/// inlinable calls.
///
/// # Example
///
/// ```
/// use cba::{BusFilter, CreditConfig, CreditFilter};
/// use cba_bus::{Bus, BusConfig, BusRng, PolicyKind};
/// use sim_core::rng::SimRng;
///
/// let cfg = CreditConfig::homogeneous(4, 56)?;
/// let bus = Bus::assemble(
///     BusConfig::new(4, 56).unwrap(),
///     PolicyKind::RandomPermutation.bus_policy(4, 56),
///     BusFilter::Credit(CreditFilter::new(cfg)),
///     BusRng::Soft(SimRng::seed_from(1)),
/// );
/// assert_eq!(bus.filter_name(), "CBA");
/// # Ok::<(), cba::CbaError>(())
/// ```
#[derive(Debug, Clone)]
pub enum BusFilter {
    /// Every pending request is eligible.
    Unfiltered(NoFilter),
    /// Credit-based arbitration.
    Credit(CreditFilter),
}

/// Runs `$body` with `$f` bound to the filter inside either arm.
macro_rules! each_filter {
    ($filter:expr, $f:ident => $body:expr) => {
        match $filter {
            BusFilter::Unfiltered($f) => $body,
            BusFilter::Credit($f) => $body,
        }
    };
}

impl EligibilityFilter for BusFilter {
    fn name(&self) -> &'static str {
        each_filter!(self, f => f.name())
    }

    #[inline]
    fn is_eligible(&self, core: CoreId, now: Cycle) -> bool {
        each_filter!(self, f => f.is_eligible(core, now))
    }

    #[inline]
    fn on_grant(&mut self, core: CoreId, duration: u32, now: Cycle) {
        each_filter!(self, f => f.on_grant(core, duration, now))
    }

    #[inline]
    fn tick(&mut self, now: Cycle, owner: Option<CoreId>, pending: &PendingSet) {
        each_filter!(self, f => f.tick(now, owner, pending))
    }

    #[inline]
    fn advance(&mut self, now: Cycle, k: u64, owner: Option<CoreId>, pending: &PendingSet) {
        each_filter!(self, f => f.advance(now, k, owner, pending))
    }

    fn next_eligibility_flip(&self, now: Cycle, pending: &PendingSet) -> FilterHorizon {
        each_filter!(self, f => f.next_eligibility_flip(now, pending))
    }

    fn reset(&mut self) {
        each_filter!(self, f => f.reset())
    }

    fn signature(&self, state: &mut Vec<u64>) -> bool {
        each_filter!(self, f => f.signature(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::{BusRequest, RequestKind};

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    fn pending_with(n: usize, cores: &[usize]) -> PendingSet {
        let mut p = PendingSet::new(n);
        for &i in cores {
            p.insert(BusRequest::new(c(i), 5, RequestKind::Synthetic, 0).unwrap())
                .unwrap();
        }
        p
    }

    #[test]
    fn operation_mode_initially_all_eligible() {
        let f = CreditFilter::new(CreditConfig::homogeneous(4, 56).unwrap());
        for i in 0..4 {
            assert!(f.is_eligible(c(i), 0));
            assert!(f.comp(c(i)), "operation mode: COMP always 1");
        }
    }

    #[test]
    fn budget_drains_and_blocks_until_recovered() {
        let mut f = CreditFilter::new(CreditConfig::homogeneous(4, 56).unwrap());
        let empty = PendingSet::new(4);
        // Core 0 holds the bus for 10 cycles.
        for now in 0..10 {
            f.tick(now, Some(c(0)), &empty);
        }
        assert_eq!(f.budget(c(0)), 224 - 30);
        assert!(!f.is_eligible(c(0), 10));
        // Others untouched.
        for i in 1..4 {
            assert!(f.is_eligible(c(i), 10));
            assert_eq!(f.budget(c(i)), 224);
        }
        // Recovery takes (N-1)*10 = 30 idle cycles.
        for now in 10..39 {
            f.tick(now, None, &empty);
            assert!(!f.is_eligible(c(0), now + 1), "eligible too early at {now}");
        }
        f.tick(39, None, &empty);
        assert!(f.is_eligible(c(0), 40));
    }

    #[test]
    fn wcet_mode_tua_starts_with_zero_budget() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let f = CreditFilter::with_mode(cfg, Mode::WcetEstimation { tua: c(0) });
        assert_eq!(f.budget(c(0)), 0);
        assert!(!f.is_eligible(c(0), 0));
        for i in 1..4 {
            assert_eq!(f.budget(c(i)), 224, "contenders start full");
        }
    }

    #[test]
    fn wcet_mode_comp_requires_req1() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let mut f = CreditFilter::with_mode(cfg, Mode::WcetEstimation { tua: c(0) });
        let no_tua = pending_with(4, &[1, 2, 3]);
        // Contenders pending, budgets full, but the TuA has no request:
        // COMP stays clear, contenders ineligible.
        for now in 0..50 {
            f.tick(now, None, &no_tua);
        }
        for i in 1..4 {
            assert!(!f.is_eligible(c(i), 50), "contender {i} must wait for REQ1");
            assert!(!f.comp(c(i)));
        }
        // The TuA posts a request: COMP latches for full-budget contenders.
        let with_tua = pending_with(4, &[0, 1, 2, 3]);
        f.tick(50, None, &with_tua);
        for i in 1..4 {
            assert!(f.is_eligible(c(i), 51), "contender {i} competes now");
            assert!(f.comp(c(i)));
        }
    }

    #[test]
    fn wcet_mode_comp_clears_on_grant_and_stays_latched_otherwise() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let mut f = CreditFilter::with_mode(cfg, Mode::WcetEstimation { tua: c(0) });
        let with_tua = pending_with(4, &[0, 1, 2, 3]);
        f.tick(0, None, &with_tua);
        assert!(f.comp(c(1)));
        // COMP latches even if the TuA's request disappears...
        let no_tua = pending_with(4, &[1, 2, 3]);
        f.tick(1, None, &no_tua);
        assert!(f.comp(c(1)), "COMP is latched, not combinational");
        // ...and clears exactly on grant.
        f.on_grant(c(1), 56, 2);
        assert!(!f.comp(c(1)));
        assert!(!f.is_eligible(c(1), 2));
    }

    #[test]
    fn wcet_mode_tua_grant_does_not_clear_its_eligibility_logic() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let mut f = CreditFilter::with_mode(cfg, Mode::WcetEstimation { tua: c(0) });
        let empty = PendingSet::new(4);
        // Fill the TuA's budget: 224 idle cycles.
        for now in 0..224 {
            f.tick(now, None, &empty);
        }
        assert!(f.is_eligible(c(0), 224));
        f.on_grant(c(0), 6, 224);
        // TuA eligibility is budget-based; on_grant must not latch anything
        // weird for it.
        assert!(
            f.budget_full(c(0)),
            "budget drains during ticks, not at grant"
        );
    }

    #[test]
    fn wcet_mode_req1_includes_tua_in_service() {
        // While the TuA's own transaction is in flight the contenders keep
        // latching COMP (REQ stays asserted until served on the FPGA).
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let mut f = CreditFilter::with_mode(cfg, Mode::WcetEstimation { tua: c(0) });
        let empty = PendingSet::new(4);
        f.tick(0, Some(c(0)), &empty); // TuA holds the bus, nothing pending
        assert!(f.comp(c(1)), "COMP latched while TuA in service");
    }

    #[test]
    fn hcba_weighted_recovery_rates() {
        let cfg = CreditConfig::paper_hcba(56).unwrap();
        let mut f = CreditFilter::new(cfg);
        let empty = PendingSet::new(4);
        // Drain everyone by one 56-cycle transaction each (sequentially).
        for core in 0..4 {
            for _ in 0..56 {
                f.tick_helper(Some(c(core)), &empty);
            }
        }
        // TuA (num=3): drained 3*56 = 168 below cap while holding, then
        // recovered 3/cycle over the 3*56 = 168 cycles the others held:
        // back to full.
        assert!(f.budget_full(c(0)));
        // The last contender (num=1) is still recovering.
        assert!(!f.budget_full(c(3)));
    }

    impl CreditFilter {
        /// Test helper: tick without tracking cycle numbers.
        fn tick_helper(&mut self, owner: Option<CoreId>, pending: &PendingSet) {
            // Safe: `tick` ignores `now`.
            EligibilityFilter::tick(self, 0, owner, pending);
        }
    }

    #[test]
    fn cap_multiplier_allows_back_to_back() {
        let cfg = CreditConfig::homogeneous(4, 56)
            .unwrap()
            .with_cap_multipliers(vec![2, 1, 1, 1])
            .unwrap();
        let mut f = CreditFilter::new(cfg);
        let empty = PendingSet::new(4);
        // Let core 0 bank up to 2*MaxL: 224 extra cycles idle.
        for _ in 0..448 {
            f.tick_helper(None, &empty);
        }
        assert_eq!(f.budget(c(0)), 448);
        // One full MaxL transaction drains 3*56 = 168; still >= 224:
        for _ in 0..56 {
            f.tick_helper(Some(c(0)), &empty);
        }
        assert!(
            f.is_eligible(c(0), 0),
            "banked budget permits a back-to-back MaxL transaction"
        );
        // A second one in a row exhausts the bank below the threshold.
        for _ in 0..56 {
            f.tick_helper(Some(c(0)), &empty);
        }
        assert!(!f.is_eligible(c(0), 0));
    }

    #[test]
    fn reset_restores_mode_specific_initial_budgets() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let mut f = CreditFilter::with_mode(cfg, Mode::WcetEstimation { tua: c(0) });
        let with_tua = pending_with(4, &[0]);
        for now in 0..300 {
            f.tick(now, None, &with_tua);
        }
        assert!(f.budget_full(c(0)));
        f.reset();
        assert_eq!(f.budget(c(0)), 0, "TuA back to zero budget");
        assert_eq!(f.budget(c(1)), 224);
        assert!(!f.comp(c(1)));
    }

    /// Bulk advance must equal iterated ticks — budgets *and* COMP bits —
    /// across modes, owners, pending sets and stretch lengths.
    #[test]
    fn bulk_advance_matches_iterated_ticks() {
        use sim_core::rng::SimRng;
        let configs = [
            CreditConfig::homogeneous(4, 56).unwrap(),
            CreditConfig::paper_hcba(56).unwrap(),
        ];
        for (ci, config) in configs.iter().enumerate() {
            for mode in [Mode::Operation, Mode::WcetEstimation { tua: c(0) }] {
                let mut rng = SimRng::seed_from(0x5eed ^ ci as u64);
                let mut bulk = CreditFilter::with_mode(config.clone(), mode);
                let mut steps = CreditFilter::with_mode(config.clone(), mode);
                let mut now: Cycle = 0;
                for _ in 0..64 {
                    let owner = match rng.gen_range_u64(0..6) {
                        0..=3 => Some(c(rng.gen_range_usize(0..4))),
                        _ => None,
                    };
                    let mut cores = Vec::new();
                    for i in 0..4 {
                        if Some(c(i)) != owner && rng.gen_bool(0.5) {
                            cores.push(i);
                        }
                    }
                    let pending = pending_with(4, &cores);
                    let k = rng.gen_range_u64(0..300);
                    bulk.advance(now, k, owner, &pending);
                    for j in 0..k {
                        EligibilityFilter::tick(&mut steps, now + j, owner, &pending);
                    }
                    now += k.max(1);
                    for i in 0..4 {
                        assert_eq!(
                            bulk.budget(c(i)),
                            steps.budget(c(i)),
                            "budget of core {i} after k={k}, owner={owner:?}, mode={mode:?}"
                        );
                        assert_eq!(
                            bulk.comp(c(i)),
                            steps.comp(c(i)),
                            "COMP of core {i} after k={k}, owner={owner:?}, mode={mode:?}"
                        );
                    }
                }
            }
        }
    }

    /// The flip prediction is exact: no pending core's verdict changes
    /// strictly before the predicted cycle, and (when one is predicted)
    /// some verdict changes exactly there.
    #[test]
    fn next_eligibility_flip_is_exact() {
        use cba_bus::FilterHorizon;
        use sim_core::rng::SimRng;
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from(seed ^ 0xf11b);
            let cfg = CreditConfig::homogeneous(4, 56).unwrap();
            let mode = if seed % 2 == 0 {
                Mode::Operation
            } else {
                Mode::WcetEstimation { tua: c(0) }
            };
            let mut f = CreditFilter::with_mode(cfg, mode);
            // Random warm-up to scatter the budgets.
            let empty = PendingSet::new(4);
            for now in 0..rng.gen_range_u64(0..400) {
                let owner = match rng.gen_range_u64(0..5) {
                    0..=2 => Some(c(rng.gen_range_usize(0..4))),
                    _ => None,
                };
                EligibilityFilter::tick(&mut f, now, owner, &empty);
            }
            let mut cores = Vec::new();
            for i in 0..4 {
                if rng.gen_bool(0.7) {
                    cores.push(i);
                }
            }
            let pending = pending_with(4, &cores);
            let now = 1000u64;
            let verdicts = |f: &CreditFilter, t: Cycle| -> Vec<bool> {
                (0..4).map(|i| f.is_eligible(c(i), t)).collect()
            };
            match f.next_eligibility_flip(now, &pending) {
                FilterHorizon::Unknown => panic!("credit filter must predict"),
                FilterHorizon::Static => {
                    // Nothing may change over a long idle stretch.
                    let before = verdicts(&f, now + 1);
                    for t in now + 1..now + 2000 {
                        EligibilityFilter::tick(&mut f, t, None, &pending);
                        for &i in &cores {
                            assert_eq!(
                                f.is_eligible(c(i), t + 1),
                                before[i],
                                "seed {seed}: pending core {i} flipped at {t} under Static"
                            );
                        }
                    }
                }
                FilterHorizon::At(flip) => {
                    // A flip needs at least one recovery tick: >= now + 2.
                    assert!(flip >= now + 2, "seed {seed}: flip {flip} too early");
                    let before = verdicts(&f, now + 1);
                    // Tick cycles now+1 .. flip-2; arbitration at each
                    // following cycle (still before `flip`) is unchanged.
                    for cyc in now + 1..flip - 1 {
                        EligibilityFilter::tick(&mut f, cyc, None, &pending);
                        for &i in &cores {
                            assert_eq!(
                                f.is_eligible(c(i), cyc + 1),
                                before[i],
                                "seed {seed}: pending core {i} flipped early at {}",
                                cyc + 1
                            );
                        }
                    }
                    // The tick of cycle flip-1 makes the flip visible to
                    // the arbitration of cycle `flip`.
                    EligibilityFilter::tick(&mut f, flip - 1, None, &pending);
                    let changed = cores
                        .iter()
                        .any(|&i| f.is_eligible(c(i), flip) != before[i]);
                    assert!(changed, "seed {seed}: no verdict changed at {flip}");
                }
            }
        }
    }

    #[test]
    fn filter_names_follow_scheme() {
        let base = CreditFilter::new(CreditConfig::homogeneous(4, 56).unwrap());
        assert_eq!(base.name(), "CBA");
        let hetero = CreditFilter::new(CreditConfig::paper_hcba(56).unwrap());
        assert_eq!(hetero.name(), "H-CBA");
    }
}
