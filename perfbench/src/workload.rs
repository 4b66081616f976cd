//! The benchmark's workloads: its own copies of two shipped scenarios.

use cba_platform::ScenarioDef;
use std::path::PathBuf;

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The scenario copy under `workloads/`.
    pub file: &'static str,
    /// Cells the copy expands to (checked by the self-test and at run
    /// time, so an edited copy cannot pass unnoticed).
    pub cells: usize,
    /// Runs the campaign with a checkpoint journal.
    pub checkpoint: bool,
    /// `(cell, run)` pairs re-run under the naive loop by the output
    /// check.
    pub naive_samples: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fig1",
        file: "fig1.scn",
        cells: 24,
        checkpoint: false,
        naive_samples: 6,
    },
    Workload {
        name: "coherence",
        file: "coherence.scn",
        cells: 12,
        checkpoint: true,
        naive_samples: 8,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Worker threads every campaign runs with: the machine's, capped at two
/// so figures taken on larger machines stay comparable.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Directory the benchmark writes its journals and span files to.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Workload {
    /// Path of the scenario copy.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("workloads")
            .join(self.file)
    }

    /// Reads and parses the scenario copy, with the workload seed and the
    /// benchmark's thread count in place of the file's.
    ///
    /// # Errors
    ///
    /// An unreadable or unparsable copy.
    pub fn load(&self, seed: u64) -> Result<ScenarioDef, String> {
        let path = self.path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut def = ScenarioDef::parse(&text).map_err(|e| format!("{}: {e}", self.file))?;
        def.seed = seed;
        def.threads = Some(threads());
        Ok(def)
    }
}
