#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod engine;
pub mod export;
pub mod lfsr;
pub mod probe;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod trace;

pub use agent::{AgentStats, MemStats, SimAgent};
pub use engine::{drive, drive_events, BusModel, Control, DriveOutcome, TickOutcome};
pub use probe::{ModelEvent, NoProbe, Probe};
pub use sim::{BoxedAgent, Engine, Simulation, SimulationBuilder, StopWhen};

use std::fmt;

/// Simulated time, measured in clock cycles since the start of a run.
///
/// A plain `u64` alias (rather than a newtype) because cycle arithmetic
/// saturates every hot loop of the simulator; the alias keeps call sites
/// readable without obscuring arithmetic.
pub type Cycle = u64;

/// Identity of one core (bus contender) in an `n`-core platform.
///
/// A `CoreId` is always valid for the platform size it was created with:
/// [`CoreId::new`] validates `index < n_cores`. Core 0 is, by the paper's
/// convention, the core running the task under analysis (TuA) in WCET
/// estimation mode.
///
/// # Example
///
/// ```
/// use sim_core::CoreId;
///
/// let c = CoreId::new(2, 4).unwrap();
/// assert_eq!(c.index(), 2);
/// assert_eq!(c.to_string(), "core2");
/// assert!(CoreId::new(4, 4).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(u8);

impl CoreId {
    /// Maximum number of cores any platform model supports.
    ///
    /// The paper targets 4 cores and notes buses stop scaling at ~8; 64 is a
    /// generous margin that keeps per-core state in fixed arrays cheap.
    pub const MAX_CORES: usize = 64;

    /// Creates the identity of core `index` on an `n_cores`-core platform.
    ///
    /// Returns `None` if `index >= n_cores` or `n_cores > MAX_CORES`.
    #[inline]
    pub fn new(index: usize, n_cores: usize) -> Option<Self> {
        if index < n_cores && n_cores <= Self::MAX_CORES {
            Some(CoreId(index as u8))
        } else {
            None
        }
    }

    /// Creates a `CoreId` without a platform-size check.
    ///
    /// Useful in tests and in contexts where the platform size is enforced
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_CORES`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        assert!(
            index < Self::MAX_CORES,
            "core index {index} exceeds MAX_CORES {}",
            Self::MAX_CORES
        );
        CoreId(index as u8)
    }

    /// The zero-based index of this core.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all core identities of an `n_cores` platform.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores > MAX_CORES`.
    pub fn all(n_cores: usize) -> impl Iterator<Item = CoreId> + Clone {
        assert!(n_cores <= Self::MAX_CORES);
        (0..n_cores).map(|i| CoreId(i as u8))
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<CoreId> for usize {
    #[inline]
    fn from(id: CoreId) -> usize {
        id.index()
    }
}

/// Errors reported by simulation-kernel constructors and components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A configuration value was outside its documented domain.
    InvalidConfig {
        /// Which parameter was rejected.
        what: &'static str,
        /// Human-readable explanation of the constraint that failed.
        why: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { what, why } => {
                write!(f, "invalid configuration for {what}: {why}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_bounds() {
        assert!(CoreId::new(0, 1).is_some());
        assert!(CoreId::new(3, 4).is_some());
        assert!(CoreId::new(4, 4).is_none());
        assert!(CoreId::new(0, CoreId::MAX_CORES + 1).is_none());
    }

    #[test]
    fn core_id_display_and_index() {
        let c = CoreId::new(3, 4).unwrap();
        assert_eq!(c.index(), 3);
        assert_eq!(format!("{c}"), "core3");
        assert_eq!(usize::from(c), 3);
    }

    #[test]
    fn core_id_all_enumerates_in_order() {
        let ids: Vec<usize> = CoreId::all(4).map(|c| c.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CORES")]
    fn from_index_panics_past_max() {
        let _ = CoreId::from_index(CoreId::MAX_CORES);
    }

    #[test]
    fn sim_error_displays() {
        let e = SimError::InvalidConfig {
            what: "n_cores",
            why: "must be at least 2".into(),
        };
        assert!(e.to_string().contains("n_cores"));
        assert!(e.to_string().contains("at least 2"));
    }
}
