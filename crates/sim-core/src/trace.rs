//! Bus grant traces and the fairness metrics built on them.
//!
//! The paper's whole argument is about the difference between two fairness
//! notions for a shared bus:
//!
//! * **slot fairness** — each contender gets the same *number of grants*;
//! * **cycle (bandwidth) fairness** — each contender gets the same *number
//!   of bus cycles*.
//!
//! A [`GrantTrace`] records every grant `(cycle, core, duration)` of a run.
//! From it, [`ShareReport`] computes both the slot shares and the cycle
//! shares per core, plus the Jain fairness index of each — the quantitative
//! form of the paper's Section II example (two alternating cores with 5- and
//! 45-cycle requests have slot shares 50%/50% but cycle shares 10%/90%).

use crate::{CoreId, Cycle};

/// One bus grant: which core obtained the bus, when, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantRecord {
    /// Cycle at which the transaction started occupying the bus.
    pub start: Cycle,
    /// The core that was granted the bus.
    pub core: CoreId,
    /// Bus hold time in cycles (the transaction is non-split).
    pub duration: u32,
}

/// A record of all grants issued during a run.
///
/// Recording can be disabled (the default for large Monte-Carlo campaigns);
/// a disabled trace cheaply counts per-core totals without storing records.
///
/// # Example
///
/// ```
/// use sim_core::{CoreId, trace::GrantTrace};
///
/// let mut t = GrantTrace::counting(2);
/// t.record(0, CoreId::from_index(0), 5);
/// t.record(5, CoreId::from_index(1), 45);
/// let report = t.share_report();
/// assert_eq!(report.slot_share(CoreId::from_index(0)), 0.5);
/// assert!((report.cycle_share(CoreId::from_index(0)) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct GrantTrace {
    records: Option<Vec<GrantRecord>>,
    slots: Vec<u64>,
    busy_cycles: Vec<u64>,
    first_start: Option<Cycle>,
    last_end: Cycle,
}

impl GrantTrace {
    /// A trace that stores every [`GrantRecord`] (use in tests/analysis).
    pub fn recording(n_cores: usize) -> Self {
        GrantTrace {
            records: Some(Vec::new()),
            slots: vec![0; n_cores],
            busy_cycles: vec![0; n_cores],
            first_start: None,
            last_end: 0,
        }
    }

    /// A trace that only keeps per-core totals (cheap; use in campaigns).
    pub fn counting(n_cores: usize) -> Self {
        GrantTrace {
            records: None,
            slots: vec![0; n_cores],
            busy_cycles: vec![0; n_cores],
            first_start: None,
            last_end: 0,
        }
    }

    /// Number of cores this trace was sized for.
    pub fn n_cores(&self) -> usize {
        self.slots.len()
    }

    /// Records a grant.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the trace's core range.
    pub fn record(&mut self, start: Cycle, core: CoreId, duration: u32) {
        let idx = core.index();
        self.slots[idx] += 1;
        self.busy_cycles[idx] += duration as u64;
        if self.first_start.is_none() {
            self.first_start = Some(start);
        }
        self.last_end = self.last_end.max(start + duration as Cycle);
        if let Some(records) = &mut self.records {
            records.push(GrantRecord {
                start,
                core,
                duration,
            });
        }
    }

    /// The stored records, if this trace is recording.
    pub fn records(&self) -> Option<&[GrantRecord]> {
        self.records.as_deref()
    }

    /// Clears all recorded grants and totals while keeping the allocated
    /// buffers (and the recording/counting mode), so a trace can be reused
    /// across Monte-Carlo runs without reallocating.
    pub fn clear(&mut self) {
        if let Some(records) = &mut self.records {
            records.clear();
        }
        self.slots.fill(0);
        self.busy_cycles.fill(0);
        self.first_start = None;
        self.last_end = 0;
    }

    /// Appends the per-core slot and busy-cycle totals to `counters`, as
    /// the uncapped `(value, ceiling)` pairs of the
    /// [`BusModel::signature`](crate::BusModel::signature) hook.
    pub fn push_counters(&self, counters: &mut Vec<(u64, u64)>) {
        let totals = self.slots.iter().chain(&self.busy_cycles);
        counters.extend(totals.map(|&v| (v, u64::MAX)));
    }

    /// Credits `periods` more repetitions of a periodic grant pattern
    /// ending `span` cycles later (the
    /// [`BusModel::shift`](crate::BusModel::shift) hook): each total grows
    /// by `periods ×` its per-period growth in `deltas`, laid out as
    /// [`push_counters`](GrantTrace::push_counters) wrote them, and the
    /// latest grant end moves by `span`.
    ///
    /// # Panics
    ///
    /// Panics on a recording trace, whose individual grants cannot be
    /// extrapolated.
    pub fn shift(&mut self, periods: u64, span: Cycle, deltas: &[u64]) {
        assert!(
            self.records.is_none(),
            "a recording trace cannot be shifted"
        );
        let totals = self.slots.iter_mut().chain(&mut self.busy_cycles);
        for (total, &delta) in totals.zip(deltas) {
            *total += periods * delta;
        }
        self.last_end += span;
    }

    /// Grants issued to `core`.
    pub fn slots(&self, core: CoreId) -> u64 {
        self.slots[core.index()]
    }

    /// Bus cycles consumed by `core`.
    pub fn busy_cycles(&self, core: CoreId) -> u64 {
        self.busy_cycles[core.index()]
    }

    /// Total grants across cores.
    pub fn total_slots(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Total bus-busy cycles across cores.
    pub fn total_busy_cycles(&self) -> u64 {
        self.busy_cycles.iter().sum()
    }

    /// Cycle of the first grant start, if any grant was recorded.
    pub fn first_start(&self) -> Option<Cycle> {
        self.first_start
    }

    /// End cycle of the latest-ending grant (0 if none).
    pub fn last_end(&self) -> Cycle {
        self.last_end
    }

    /// Bus utilization over `total_cycles` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `total_cycles == 0`.
    pub fn utilization(&self, total_cycles: Cycle) -> f64 {
        assert!(total_cycles > 0, "utilization over zero cycles");
        self.total_busy_cycles() as f64 / total_cycles as f64
    }

    /// Computes the slot/cycle share report.
    pub fn share_report(&self) -> ShareReport {
        ShareReport {
            slots: self.slots.clone(),
            busy_cycles: self.busy_cycles.clone(),
        }
    }

    /// Longest gap (in cycles) between consecutive grants to `core`,
    /// measured start-to-start. Requires a recording trace.
    ///
    /// Returns `None` if the trace is not recording or `core` received
    /// fewer than two grants. This is the "temporal starvation" metric the
    /// paper mentions when discussing budget caps above MaxL.
    pub fn max_grant_gap(&self, core: CoreId) -> Option<Cycle> {
        let records = self.records.as_ref()?;
        let mut prev: Option<Cycle> = None;
        let mut max_gap: Option<Cycle> = None;
        for r in records.iter().filter(|r| r.core == core) {
            if let Some(p) = prev {
                let gap = r.start - p;
                max_gap = Some(max_gap.map_or(gap, |m: Cycle| m.max(gap)));
            }
            prev = Some(r.start);
        }
        max_gap
    }

    /// Longest run of back-to-back grants to the same core (count of
    /// consecutive grants). Requires a recording trace.
    pub fn max_burst_len(&self, core: CoreId) -> Option<u64> {
        let records = self.records.as_ref()?;
        let mut best = 0u64;
        let mut cur = 0u64;
        for r in records {
            if r.core == core {
                cur += 1;
                best = best.max(cur);
            } else {
                cur = 0;
            }
        }
        Some(best)
    }
}

/// Slot and cycle shares per core, with Jain fairness indices.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareReport {
    slots: Vec<u64>,
    busy_cycles: Vec<u64>,
}

impl ShareReport {
    /// Fraction of all grants that went to `core` (0 if no grants at all).
    pub fn slot_share(&self, core: CoreId) -> f64 {
        let total: u64 = self.slots.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.slots[core.index()] as f64 / total as f64
        }
    }

    /// Fraction of all bus-busy cycles consumed by `core` (0 if none).
    pub fn cycle_share(&self, core: CoreId) -> f64 {
        let total: u64 = self.busy_cycles.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.busy_cycles[core.index()] as f64 / total as f64
        }
    }

    /// Jain fairness index of the slot distribution, in `(0, 1]`.
    ///
    /// `J = (Σx)² / (n·Σx²)`; 1 means perfectly equal, `1/n` means one core
    /// monopolizes.
    pub fn slot_fairness(&self) -> f64 {
        jain(&self.slots)
    }

    /// Jain fairness index of the cycle distribution, in `(0, 1]`.
    pub fn cycle_fairness(&self) -> f64 {
        jain(&self.busy_cycles)
    }

    /// Per-core slot counts.
    pub fn slot_counts(&self) -> &[u64] {
        &self.slots
    }

    /// Per-core busy-cycle counts.
    pub fn cycle_counts(&self) -> &[u64] {
        &self.busy_cycles
    }
}

fn jain(xs: &[u64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sq_sum: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq_sum == 0.0 {
        1.0 // no traffic: vacuously fair
    } else {
        sum * sum / (n * sq_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    #[test]
    fn paper_section_ii_example_shares() {
        // Two cores alternating: 5-cycle vs 45-cycle requests.
        let mut t = GrantTrace::counting(2);
        let mut now = 0;
        for _ in 0..100 {
            t.record(now, c(0), 5);
            now += 5;
            t.record(now, c(1), 45);
            now += 45;
        }
        let r = t.share_report();
        assert!((r.slot_share(c(0)) - 0.5).abs() < 1e-12);
        assert!((r.slot_share(c(1)) - 0.5).abs() < 1e-12);
        assert!((r.cycle_share(c(0)) - 0.10).abs() < 1e-12);
        assert!((r.cycle_share(c(1)) - 0.90).abs() < 1e-12);
        // Slot-fair but cycle-unfair, numerically:
        assert!(r.slot_fairness() > 0.999);
        assert!(r.cycle_fairness() < 0.65);
    }

    #[test]
    fn recording_trace_stores_records() {
        let mut t = GrantTrace::recording(2);
        t.record(3, c(1), 7);
        t.record(10, c(0), 2);
        let recs = t.records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs[0],
            GrantRecord {
                start: 3,
                core: c(1),
                duration: 7
            }
        );
        assert_eq!(t.first_start(), Some(3));
        assert_eq!(t.last_end(), 12);
    }

    #[test]
    fn clear_resets_totals_but_keeps_the_mode() {
        let mut t = GrantTrace::recording(2);
        t.record(0, c(0), 5);
        t.record(5, c(1), 45);
        t.clear();
        assert_eq!(t.records().unwrap().len(), 0, "still recording");
        assert_eq!(t.total_slots(), 0);
        assert_eq!(t.total_busy_cycles(), 0);
        assert_eq!(t.first_start(), None);
        assert_eq!(t.last_end(), 0);
        t.record(3, c(1), 7);
        assert_eq!(t.records().unwrap().len(), 1);

        let mut counting = GrantTrace::counting(2);
        counting.record(0, c(0), 4);
        counting.clear();
        assert!(counting.records().is_none(), "still counting-only");
        assert_eq!(counting.slots(c(0)), 0);
    }

    #[test]
    fn counting_trace_has_no_records() {
        let mut t = GrantTrace::counting(2);
        t.record(0, c(0), 4);
        assert!(t.records().is_none());
        assert_eq!(t.slots(c(0)), 1);
        assert_eq!(t.busy_cycles(c(0)), 4);
    }

    #[test]
    fn utilization_counts_busy_fraction() {
        let mut t = GrantTrace::counting(1);
        t.record(0, c(0), 25);
        t.record(50, c(0), 25);
        assert!((t.utilization(100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_grant_gap_measures_starvation() {
        let mut t = GrantTrace::recording(2);
        t.record(0, c(0), 5);
        t.record(5, c(1), 5);
        t.record(100, c(0), 5);
        t.record(110, c(0), 5);
        assert_eq!(t.max_grant_gap(c(0)), Some(100));
        assert_eq!(t.max_grant_gap(c(1)), None); // only one grant
    }

    #[test]
    fn max_burst_len_counts_back_to_back() {
        let mut t = GrantTrace::recording(2);
        for (core, _) in [(0, 0); 3] {
            t.record(0, c(core), 1);
        }
        t.record(3, c(1), 1);
        t.record(4, c(0), 1);
        assert_eq!(t.max_burst_len(c(0)), Some(3));
        assert_eq!(t.max_burst_len(c(1)), Some(1));
    }

    #[test]
    fn jain_index_extremes() {
        assert!((jain(&[1, 1, 1, 1]) - 1.0).abs() < 1e-12);
        assert!((jain(&[4, 0, 0, 0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain(&[0, 0]), 1.0);
    }

    #[test]
    fn empty_report_is_neutral() {
        let t = GrantTrace::counting(4);
        let r = t.share_report();
        assert_eq!(r.slot_share(c(0)), 0.0);
        assert_eq!(r.cycle_share(c(3)), 0.0);
        assert_eq!(r.slot_fairness(), 1.0);
    }
}
