//! The set of pending (posted, not yet granted) bus requests.
//!
//! Cores on the modeled platform are in-order and blocking: each core has at
//! most one arbitrable request outstanding. [`PendingSet`] is therefore a
//! fixed per-core slot array, and candidate lists handed to arbitration
//! policies are small (`<= n_cores`) and ordered by core index.

use crate::{BusError, BusRequest};
use sim_core::{CoreId, Cycle};

/// A lightweight view of one arbitrable request, handed to
/// [`ArbitrationPolicy::select`](crate::ArbitrationPolicy::select).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The requesting core.
    pub core: CoreId,
    /// When the request became ready (FIFO arbitration orders by this).
    pub issued_at: Cycle,
    /// Bus hold time of the transaction.
    pub duration: u32,
}

impl From<&BusRequest> for Candidate {
    fn from(req: &BusRequest) -> Self {
        Candidate {
            core: req.core(),
            issued_at: req.issued_at(),
            duration: req.duration(),
        }
    }
}

/// Per-core pending-request slots (at most one per core).
#[derive(Debug, Clone, Default)]
pub struct PendingSet {
    slots: Vec<Option<BusRequest>>,
}

impl PendingSet {
    /// Creates an empty set for `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        PendingSet {
            slots: vec![None; n_cores],
        }
    }

    /// Number of cores this set was sized for.
    pub fn n_cores(&self) -> usize {
        self.slots.len()
    }

    /// Inserts a request.
    ///
    /// # Errors
    ///
    /// * [`BusError::UnknownCore`] if the core is out of range;
    /// * [`BusError::AlreadyPending`] if the core already has a request.
    pub fn insert(&mut self, req: BusRequest) -> Result<(), BusError> {
        let idx = req.core().index();
        let slot = self
            .slots
            .get_mut(idx)
            .ok_or(BusError::UnknownCore(req.core()))?;
        if slot.is_some() {
            return Err(BusError::AlreadyPending(req.core()));
        }
        *slot = Some(req);
        Ok(())
    }

    /// Removes and returns the pending request of `core`, if any.
    pub fn remove(&mut self, core: CoreId) -> Option<BusRequest> {
        self.slots.get_mut(core.index()).and_then(Option::take)
    }

    /// The pending request of `core`, if any.
    pub fn get(&self, core: CoreId) -> Option<&BusRequest> {
        self.slots.get(core.index()).and_then(Option::as_ref)
    }

    /// Whether `core` has a pending request.
    pub fn contains(&self, core: CoreId) -> bool {
        self.get(core).is_some()
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no request is pending.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Iterates over pending requests in core-index order.
    pub fn iter(&self) -> impl Iterator<Item = &BusRequest> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Collects candidates (core-index order) into `out`, clearing it first.
    ///
    /// Taking a scratch buffer keeps the per-cycle arbitration loop
    /// allocation-free.
    pub fn candidates_into(&self, out: &mut Vec<Candidate>) {
        out.clear();
        out.extend(self.iter().map(Candidate::from));
    }

    /// Moves every pending request's issue cycle `span` cycles later (a
    /// limit-cycle fast-forward relocating the bus in time).
    pub(crate) fn shift_issue_times(&mut self, span: Cycle) {
        for req in self.slots.iter_mut().flatten() {
            req.issued_at += span;
        }
    }

    /// Clears all pending requests (used when resetting a platform between
    /// Monte-Carlo runs).
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestKind;

    fn req(core: usize, dur: u32, at: Cycle) -> BusRequest {
        BusRequest::new(CoreId::from_index(core), dur, RequestKind::Synthetic, at).unwrap()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut p = PendingSet::new(4);
        assert!(p.is_empty());
        p.insert(req(2, 5, 10)).unwrap();
        assert!(p.contains(CoreId::from_index(2)));
        assert_eq!(p.len(), 1);
        let r = p.remove(CoreId::from_index(2)).unwrap();
        assert_eq!(r.duration(), 5);
        assert!(p.is_empty());
        assert!(p.remove(CoreId::from_index(2)).is_none());
    }

    #[test]
    fn double_insert_rejected() {
        let mut p = PendingSet::new(4);
        p.insert(req(1, 5, 0)).unwrap();
        assert_eq!(
            p.insert(req(1, 6, 1)),
            Err(BusError::AlreadyPending(CoreId::from_index(1)))
        );
    }

    #[test]
    fn unknown_core_rejected() {
        let mut p = PendingSet::new(2);
        assert_eq!(
            p.insert(req(2, 5, 0)),
            Err(BusError::UnknownCore(CoreId::from_index(2)))
        );
    }

    #[test]
    fn candidates_are_core_ordered() {
        let mut p = PendingSet::new(4);
        p.insert(req(3, 7, 30)).unwrap();
        p.insert(req(0, 5, 50)).unwrap();
        p.insert(req(2, 6, 10)).unwrap();
        let mut out = Vec::new();
        p.candidates_into(&mut out);
        let cores: Vec<usize> = out.iter().map(|c| c.core.index()).collect();
        assert_eq!(cores, vec![0, 2, 3]);
        assert_eq!(out[1].issued_at, 10);
        assert_eq!(out[2].duration, 7);
    }

    #[test]
    fn clear_empties() {
        let mut p = PendingSet::new(2);
        p.insert(req(0, 5, 0)).unwrap();
        p.insert(req(1, 5, 0)).unwrap();
        p.clear();
        assert!(p.is_empty());
    }
}
