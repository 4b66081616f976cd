//! The end-to-end run: one workload's campaign through the public user
//! path, repeated for the run's duration with tracing off, followed by
//! the untimed output checks.

use crate::calibrate;
use crate::workload::{out_dir, threads, Workload};
use crate::{median, percentile, Metric};
use cba_platform::executor::{run_indexed, run_indexed_streamed};
use cba_platform::{
    default_registry, run_once, run_scenario_controlled, run_seed, DriveMode, Journal, RunControls,
    RunResult, ScenarioDef, ScenarioReport,
};
use sim_core::export::fnv1a_64;
use sim_core::rng::SimRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Campaign repetitions a run makes even when `--seconds` is short.
const MIN_REPS: usize = 3;

/// Fresh processes a run sets the workload up in, for `setup_s`.
const SETUP_PROBES: usize = 21;

/// What the end-to-end run measured and checked.
#[derive(Debug)]
pub struct E2eOutcome {
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Runs attempted over every repetition.
    pub attempted: u64,
    /// Runs that panicked, tripped a budget or did not finish.
    pub failed: u64,
    /// FNV-1a digest of the workload's JSON report.
    pub digest: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

/// Runs workload `w` under `seed` for `seconds`.
///
/// # Errors
///
/// A scenario or journal error from the program, or a set-up probe that
/// failed.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<E2eOutcome, String> {
    let journal_dir = journal_dir(w);
    let result = measure(w, seed, seconds, &journal_dir);
    if w.checkpoint {
        let _ = std::fs::remove_dir_all(&journal_dir);
    }
    result
}

/// The set-up probe, run in a fresh process: sets `w` up cold and returns
/// the seconds since `started`, the start of `main`.
///
/// # Errors
///
/// A scenario or journal error from the program.
pub fn setup_probe(w: &Workload, seed: u64, started: Instant) -> Result<f64, String> {
    let journal_dir = journal_dir(w);
    let result = set_up(w, seed, &journal_dir).map(|_| started.elapsed().as_secs_f64());
    if w.checkpoint {
        let _ = std::fs::remove_dir_all(&journal_dir);
    }
    result
}

/// This process's journal directory for workload `w`.
fn journal_dir(w: &Workload) -> PathBuf {
    out_dir().join(format!("journal-{}-{}", w.name, std::process::id()))
}

/// What a user's campaign does before its first run task is dispatched:
/// reads, parses and expands the scenario, builds the agent registry and,
/// for checkpointed workloads, creates a fresh journal in `journal_dir`.
fn set_up(w: &Workload, seed: u64, journal_dir: &Path) -> Result<ScenarioDef, String> {
    let def = w.load(seed)?;
    let cells = def.expand().map_err(|e| e.to_string())?;
    let _ = default_registry();
    if w.checkpoint {
        let _ = std::fs::remove_dir_all(journal_dir);
        Journal::create(journal_dir, def.scenario_hash(), cells.len(), def.runs)?;
    }
    if cells.len() != w.cells {
        return Err(format!(
            "{} expands to {} cells, the benchmark records {}",
            w.file,
            cells.len(),
            w.cells
        ));
    }
    if cells.iter().any(|c| c.spec.drive != DriveMode::Events) {
        return Err(format!("{} selects an engine other than events", w.file));
    }
    Ok(def)
}

/// One `setup_s` sample: a fresh process of this program runs
/// [`setup_probe`], so the sample pays the cold costs a user pays once
/// (the registry, first touches of code and data).
fn probe_setup(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--setup-probe", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!("set-up probe failed ({}): {text}", out.status)),
    }
}

fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    journal_dir: &Path,
) -> Result<E2eOutcome, String> {
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    let mut campaigns = Vec::new();
    // Calibration-kernel times, one before each repetition.
    let mut kernels = Vec::new();
    let mut digest: Option<u64> = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut last_report: Option<ScenarioReport> = None;
    let start = Instant::now();
    while campaigns.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        // Probes are spread over the run, like the repetitions, so that
        // `setup_s` and the campaign times see the same phases of the
        // host.
        let due = SETUP_PROBES as f64 * start.elapsed().as_secs_f64() / seconds;
        while setups.len() < SETUP_PROBES && setups.len() as f64 <= due {
            setups.push(probe_setup(w, seed)?);
        }
        let def = set_up(w, seed, journal_dir)?;

        // The journal `set_up` created is fresh, so resuming it runs
        // every cell: the same work as a plain `--checkpoint` campaign,
        // with the journal's creation counted in set-up.
        let controls = RunControls {
            checkpoint: w.checkpoint.then_some(journal_dir),
            resume: w.checkpoint,
            faults: None,
        };
        kernels.push(calibrate::kernel_s(threads()));
        let t1 = Instant::now();
        let report =
            run_scenario_controlled(&def, &controls, |_, _, _| {}).map_err(|e| e.to_string())?;
        campaigns.push(t1.elapsed().as_secs_f64());

        let d = fnv1a_64(report.to_json().as_bytes());
        if digest.is_some_and(|first| first != d) {
            problems.push(format!(
                "repetition {} reported digest {d:#018x}, the first {:#018x}",
                campaigns.len(),
                digest.unwrap_or_default()
            ));
        }
        digest.get_or_insert(d);
        attempted += (report.cells.len() * report.runs) as u64;
        failed += report
            .cells
            .iter()
            .map(|c| (c.panicked + c.budget_trips + c.unfinished) as u64)
            .sum::<u64>();
        last_report = Some(report);
    }
    while setups.len() < SETUP_PROBES {
        setups.push(probe_setup(w, seed)?);
    }
    let peak_rss_mb = crate::peak_rss_mb();
    // The ratio of medians: the host's speed drifts over minutes, not
    // between one repetition and the next, and a run's medians carry
    // less noise than per-repetition ratios.
    let campaign_norm_s = median(&campaigns) * calibrate::REFERENCE_S / median(&kernels);

    let report = last_report.expect("at least one repetition ran");
    let check = check_outputs(w, seed, &report)?;
    problems.extend(check.problems);
    let metrics = metrics(
        median(&setups),
        campaign_norm_s,
        check.total_cycles,
        peak_rss_mb,
    );
    eprintln!(
        "perfbench: {} seed {seed}: {} repetitions, {} simulated cycles per campaign, \
         campaign wall s min {:.4} median {:.4} max {:.4}, calibration kernel s min {:.4} \
         median {:.4} max {:.4}, setup_s min {:.6} median {:.6} max {:.6}",
        w.name,
        campaigns.len(),
        check.total_cycles,
        percentile(&campaigns, 0.0),
        median(&campaigns),
        percentile(&campaigns, 1.0),
        percentile(&kernels, 0.0),
        median(&kernels),
        percentile(&kernels, 1.0),
        percentile(&setups, 0.0),
        median(&setups),
        percentile(&setups, 1.0),
    );
    Ok(E2eOutcome {
        metrics,
        attempted,
        failed,
        digest: digest.expect("at least one repetition ran"),
        problems,
    })
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn metrics(setup_s: f64, campaign_norm_s: f64, sim_cycles: u64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("campaign_norm_s", campaign_norm_s, "s"),
        Metric::new(
            "sim_cycles_per_norm_s",
            sim_cycles as f64 / campaign_norm_s,
            "cycles/s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

struct Check {
    total_cycles: u64,
    problems: Vec<String>,
}

/// The untimed output check: re-runs every `(cell, run)` through
/// `run_once` to count simulated cycles and finished runs against the
/// report, and re-runs a seeded sample under the naive loop, which must
/// reproduce the events loop's `RunResult` bit for bit.
fn check_outputs(w: &Workload, seed: u64, report: &ScenarioReport) -> Result<Check, String> {
    let def = w.load(seed)?;
    let cells = def.expand().map_err(|e| e.to_string())?;
    let runs = def.runs;
    let n_tasks = cells.len() * runs;
    let mut pick = SimRng::seed_from(seed ^ 0x6e61_6976_6521);
    let sample: Vec<usize> = (0..w.naive_samples.min(n_tasks))
        .map(|_| pick.gen_range_u64(0..n_tasks as u64) as usize)
        .collect();
    let task = |i: usize| -> (usize, u64) {
        let cell = &cells[i / runs];
        (i / runs, run_seed(cell.seed, i % runs))
    };

    let mut problems = Vec::new();
    let mut total_cycles = 0u64;
    let mut unfinished = 0usize;
    let mut events: BTreeMap<usize, RunResult> = BTreeMap::new();
    run_indexed_streamed(
        n_tasks,
        threads(),
        |i| {
            let (ci, s) = task(i);
            run_once(&cells[ci].spec, s)
        },
        |i, r| {
            total_cycles += r.total_cycles;
            unfinished += usize::from(!r.finished);
            if sample.contains(&i) {
                events.insert(i, r);
            }
        },
    );
    let reported: usize = report.cells.iter().map(|c| c.unfinished).sum();
    if unfinished != reported {
        problems.push(format!(
            "re-run found {unfinished} unfinished runs, the report {reported}"
        ));
    }
    let naive = run_indexed(sample.len(), threads(), |k| {
        let (ci, s) = task(sample[k]);
        let mut spec = cells[ci].spec.clone();
        spec.drive = DriveMode::Naive;
        run_once(&spec, s)
    });
    for (k, r) in naive.iter().enumerate() {
        let i = sample[k];
        if events.get(&i) != Some(r) {
            problems.push(format!(
                "cell {} run {}: naive and events results differ",
                i / runs,
                i % runs
            ));
        }
    }
    Ok(Check {
        total_cycles,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let names: Vec<String> = metrics(1.0, 1.0, 1, 1.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, crate::listed_metrics("end_to_end"));
    }
}
