//! Naive ≡ events on every shipped scenario.
//!
//! Every cell of every `scenarios/*.scn`, at its run-0 seed, must give
//! the same [`RunResult`] under the per-cycle reference loop and under
//! the events engine — bit for bit, every counter, wait statistic, trace
//! metric and windowed-fairness sample. On the steady-state cells (the
//! round-robin cells of `fairness_sweep` and `scaling_16core`) this pins
//! the events engine's limit-cycle fast-forward against the naive loop.
//!
//! A fast-forwarding campaign must also be independent of the worker
//! pool size: the full `fairness_sweep` report is compared across 1, 2
//! and 8 threads.

use std::path::{Path, PathBuf};

use cba_platform::campaign::run_seed;
use cba_platform::scenario::ScenarioDef;
use cba_platform::{run_once, run_scenario, DriveMode, RunResult, RunSpec};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn load(path: &Path) -> ScenarioDef {
    let text = std::fs::read_to_string(path).expect("scenario readable");
    ScenarioDef::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn shipped_scenarios() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ exists")
        .filter_map(|e| {
            let p = e.expect("readable dir entry").path();
            (p.extension().map(|x| x == "scn") == Some(true)).then_some(p)
        })
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no shipped scenarios found");
    paths
}

fn run_with(spec: &RunSpec, drive: DriveMode, seed: u64) -> RunResult {
    let mut spec = spec.clone();
    spec.drive = drive;
    run_once(&spec, seed)
}

#[test]
fn naive_and_events_agree_on_every_shipped_cell() {
    for path in shipped_scenarios() {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let cells = load(&path)
            .expand()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for cell in &cells {
            let seed = run_seed(cell.seed, 0);
            assert_eq!(
                run_with(&cell.spec, DriveMode::Naive, seed),
                run_with(&cell.spec, DriveMode::Events, seed),
                "{name} {:?}: naive and events diverged",
                cell.labels
            );
        }
    }
}

#[test]
fn fairness_sweep_campaign_is_identical_on_1_2_8_threads() {
    let report = |threads: usize| {
        let mut def = load(&scenarios_dir().join("fairness_sweep.scn"));
        def.threads = Some(threads);
        run_scenario(&def).expect("fairness_sweep runs").to_json()
    };
    let reference = report(1);
    for threads in [2, 8] {
        assert!(
            reference == report(threads),
            "fairness_sweep report differs between 1 and {threads} threads"
        );
    }
}
