//! The traced run: per-layer metrics, each timed around calls into one
//! layer's public functions from the benchmark's own code.
//!
//! One repetition makes these passes over the workload's `(cell, run)`
//! tasks, all on the program's executor:
//!
//! 1. untraced: `run_once` per task, each task timed — the executor
//!    split, per-run host time and the untraced side of the tracing
//!    overhead;
//! 2. traced: the proxy-assembled twin of every run ([`run_traced`]),
//!    which must reproduce pass 1's `RunResult` — the drive loop, model,
//!    policy, RNG, filter and agent split;
//! 3. the report side: per-cell aggregation, pWCET fits, the JSON/CSV
//!    writers and, for checkpointed workloads, journal appends and the
//!    read-back.

use crate::proxies::run_traced;
use crate::trace::{self, AgentKind, Layer, SpanRecord, Totals};
use crate::workload::{out_dir, threads, Workload};
use crate::{median, Metric};
use cba_mbpta::pwcet::{MbptaConfig, PWcetModel};
use cba_platform::executor::run_indexed_streamed;
use cba_platform::{
    run_once, run_scenario_controlled, run_seed, CampaignResult, CellReport, Journal, RunControls,
    RunResult, ScenarioDef, ScenarioReport,
};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;

/// Parse/expand repetitions behind the scenario-layer medians.
const SCENARIO_REPS: usize = 21;

/// What the traced run measured and checked.
#[derive(Debug)]
pub struct LayerOutcome {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Runs attempted (untraced and traced passes).
    pub attempted: u64,
    /// Traced runs whose result differed from `run_once`'s.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

/// Runs the traced measurement of workload `w` under `seed` for
/// `seconds` (at least one repetition).
///
/// # Errors
///
/// A scenario or journal error from the program, or an unwritable span
/// file.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<LayerOutcome, String> {
    let journal_dir = out_dir().join(format!("trace-journal-{}-{}", w.name, std::process::id()));
    let result = measure(w, seed, seconds, &journal_dir);
    if w.checkpoint {
        let _ = std::fs::remove_dir_all(&journal_dir);
    }
    result
}

fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    journal_dir: &Path,
) -> Result<LayerOutcome, String> {
    let start = Instant::now();
    let text = std::fs::read_to_string(w.path()).map_err(|e| e.to_string())?;
    let mut parse_us = Vec::new();
    let mut expand_us = Vec::new();
    let mut parsed = None;
    for _ in 0..SCENARIO_REPS {
        let t = Instant::now();
        let mut def = ScenarioDef::parse(&text).map_err(|e| e.to_string())?;
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        def.seed = seed;
        def.threads = Some(threads());
        let t = Instant::now();
        let cells = def.expand().map_err(|e| e.to_string())?;
        expand_us.push(t.elapsed().as_secs_f64() * 1e6);
        parsed = Some((def, cells));
    }
    let (def, cells) = parsed.expect("SCENARIO_REPS > 0");
    if cells.len() != w.cells {
        return Err(format!(
            "{} expands to {} cells, the benchmark records {}",
            w.file,
            cells.len(),
            w.cells
        ));
    }

    let mut reps: Vec<BTreeMap<String, (f64, &'static str)>> = Vec::new();
    let mut problems = Vec::new();
    let mut spans = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut rep = Repetition::run(w, &def, &cells, journal_dir, reps.is_empty())?;
        attempted += 2 * rep.tasks as u64;
        failed += rep.mismatches as u64;
        problems.append(&mut rep.problems);
        if spans.is_empty() {
            spans = std::mem::take(&mut rep.spans);
        }
        reps.push(rep.metrics(median(&parse_us), median(&expand_us), cells.len()));
    }
    problems.dedup();

    let span_file = out_dir().join(format!("spans-{}-{seed}.tsv", w.name));
    trace::write_spans(&span_file, &spans)
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;
    let metrics = reps[0]
        .iter()
        .map(|(name, &(_, unit))| {
            let values: Vec<f64> = reps.iter().map(|m| m[name].0).collect();
            Metric::new(name, median(&values), unit)
        })
        .collect();
    eprintln!(
        "perfbench: {} seed {seed}: {} traced repetitions, spans in {}",
        w.name,
        reps.len(),
        span_file.display()
    );
    Ok(LayerOutcome {
        metrics,
        attempted,
        failed,
        problems,
    })
}

/// One timed task of the untraced pass.
struct Timed {
    result: RunResult,
    start: Instant,
    end: Instant,
    thread: ThreadId,
}

/// The figures of one repetition.
#[derive(Default)]
struct Repetition {
    tasks: usize,
    // Untraced pass.
    untraced_ns: f64,
    busy_frac: f64,
    tail_s: f64,
    run_us: Vec<f64>,
    sim_cycles: u64,
    mem: sim_core::agent::MemStats,
    // Traced pass.
    traced_ns: f64,
    totals: Totals,
    build_us: Vec<f64>,
    spans: Vec<SpanRecord>,
    /// Traced runs whose result differed from `run_once`'s.
    mismatches: usize,
    // Report side.
    aggregate_us: f64,
    fit_ms: f64,
    fit_samples: u64,
    to_json_us: f64,
    to_csv_us: f64,
    json_bytes: usize,
    util_over_1: usize,
    journal_records: usize,
    append_ms: Vec<f64>,
    resume_ms: f64,
    /// One line per failed check.
    problems: Vec<String>,
}

impl Repetition {
    fn run(
        w: &Workload,
        def: &ScenarioDef,
        cells: &[cba_platform::scenario::Cell],
        journal_dir: &Path,
        keep_spans: bool,
    ) -> Result<Repetition, String> {
        let runs = def.runs;
        let n = cells.len() * runs;
        let threads = threads();
        let task = |i: usize| (&cells[i / runs], run_seed(cells[i / runs].seed, i % runs));

        // Pass 1: untraced, each task timed on the executor.
        let mut untraced: Vec<Option<Timed>> = (0..n).map(|_| None).collect();
        let batch = Instant::now();
        run_indexed_streamed(
            n,
            threads,
            |i| {
                let (cell, seed) = task(i);
                let start = Instant::now();
                let result = run_once(&cell.spec, seed);
                Timed {
                    result,
                    start,
                    end: Instant::now(),
                    thread: std::thread::current().id(),
                }
            },
            |i, t| untraced[i] = Some(t),
        );
        let wall = batch.elapsed().as_secs_f64();
        let untraced: Vec<Timed> = untraced
            .into_iter()
            .map(|t| t.expect("every task delivered"))
            .collect();
        let task_s: Vec<f64> = untraced
            .iter()
            .map(|t| t.end.duration_since(t.start).as_secs_f64())
            .collect();
        let mut last_end: HashMap<ThreadId, Instant> = HashMap::new();
        for t in &untraced {
            let e = last_end.entry(t.thread).or_insert(t.end);
            *e = (*e).max(t.end);
        }
        let end = last_end.values().max().copied().unwrap_or(batch);
        let first_idle = last_end.values().min().copied().unwrap_or(batch);
        let sim_cycles: u64 = untraced.iter().map(|t| t.result.total_cycles).sum();
        let mut mem = sim_core::agent::MemStats::default();
        for t in &untraced {
            if let Some(m) = t.result.mem {
                mem.accumulate(m);
            }
        }

        // Pass 2: traced, checked against pass 1 run by run.
        let mut totals = Totals::default();
        let mut build_us = Vec::with_capacity(n);
        let mut spans = Vec::new();
        let mut problems = Vec::new();
        let mut mismatches = 0;
        let mut traced_ns = 0.0;
        run_indexed_streamed(
            n,
            threads,
            |i| {
                let (cell, seed) = task(i);
                trace::begin_run(((i / runs) as u32, (i % runs) as u32), keep_spans && i == 0);
                let start = Instant::now();
                let result = run_traced(&cell.spec, seed);
                let ns = start.elapsed().as_nanos() as f64;
                let (t, s) = trace::end_run();
                (result, ns, t, s)
            },
            |i, (result, ns, t, s)| {
                if result != untraced[i].result {
                    mismatches += 1;
                    problems.push(format!(
                        "cell {} run {}: traced run differs from run_once",
                        i / runs,
                        i % runs
                    ));
                }
                traced_ns += ns;
                build_us.push(t.total_ns(Layer::Build) as f64 / 1e3);
                totals.merge(&t);
                spans.extend(s);
            },
        );

        // Report side: per-cell aggregation and pWCET fits over the
        // untraced results, then the writers on the real report.
        let mut aggregate_us = 0.0;
        let mut fit_ms = 0.0;
        let mut fit_samples = 0u64;
        for (ci, cell) in cells.iter().enumerate() {
            let results = &untraced[ci * runs..(ci + 1) * runs];
            let campaign = CampaignResult::from_runs(results.iter().map(|t| t.result.clone()));
            let t = Instant::now();
            let report = CellReport::from_campaign(
                cell.labels.clone(),
                cell.seed,
                &campaign,
                &def.report.percentiles,
                &cell.spec,
            );
            aggregate_us += t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(report);
            if !def.report.pwcet.is_empty() {
                let samples: Vec<u64> = results
                    .iter()
                    .filter_map(|t| match (t.result.finished, t.result.tua_cycles) {
                        (true, Some(c)) => Some(c),
                        (true, None) => Some(t.result.total_cycles),
                        _ => None,
                    })
                    .collect();
                let t = Instant::now();
                let fit = PWcetModel::analyze_u64(&samples, MbptaConfig::default());
                fit_ms += t.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(fit.is_ok());
                fit_samples += samples.len() as u64;
            }
        }
        let report = run_scenario_controlled(def, &RunControls::default(), |_, _, _| {})
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let json = report.to_json();
        let to_json_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let csv = report.to_csv();
        let to_csv_us = t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(csv);
        let util_over_1 = report.cells.iter().filter(|c| c.utilization > 1.0).count();

        let (journal_records, append_ms, resume_ms) = if w.checkpoint {
            journal_round_trip(def, &report, &json, journal_dir, &mut problems)?
        } else {
            (0, Vec::new(), 0.0)
        };
        Ok(Repetition {
            tasks: n,
            untraced_ns: task_s.iter().sum::<f64>() * 1e9,
            busy_frac: task_s.iter().sum::<f64>() / (threads as f64 * wall),
            tail_s: end.duration_since(first_idle).as_secs_f64(),
            run_us: task_s.iter().map(|s| s * 1e6).collect(),
            sim_cycles,
            mem,
            traced_ns,
            totals,
            build_us,
            spans,
            mismatches,
            aggregate_us,
            fit_ms,
            fit_samples,
            to_json_us,
            to_csv_us,
            json_bytes: json.len(),
            util_over_1,
            journal_records,
            append_ms,
            resume_ms,
            problems,
        })
    }

    /// Every per-layer metric of this repetition, given the scenario
    /// layer's parse and expand medians (µs) and cell count.
    fn metrics(
        &self,
        parse_us: f64,
        expand_us: f64,
        cells: usize,
    ) -> BTreeMap<String, (f64, &'static str)> {
        let t = &self.totals;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let iterations = t.calls(Layer::BeginCycle) as f64;
        let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
        let mut put = |name: &str, value: f64, unit: &'static str| {
            m.insert(name.to_string(), (value, unit));
        };

        put("scenario.parse_us", parse_us, "us");
        put("scenario.expand_us", expand_us, "us");
        put("scenario.cells", cells as f64, "count");

        put("executor.tasks", self.tasks as f64, "count");
        put("executor.busy_frac", self.busy_frac, "frac");
        put("executor.tail_s", self.tail_s, "s");

        put("run.us_p50", crate::percentile(&self.run_us, 0.50), "us");
        put("run.us_p99", crate::percentile(&self.run_us, 0.99), "us");
        put("run.build_us_p50", median(&self.build_us), "us");
        put(
            "run.ns_per_sim_cycle",
            ratio(self.untraced_ns, self.sim_cycles as f64),
            "ns/cycle",
        );

        put("engine.iterations", iterations, "count");
        put(
            "engine.visit_frac",
            ratio(iterations, self.sim_cycles as f64),
            "frac",
        );
        put(
            "engine.ns_per_iteration",
            ratio(t.total_ns(Layer::Engine) as f64, iterations),
            "ns",
        );
        put("engine.self_ns", t.self_ns(Layer::Engine) as f64, "ns");

        for (label, layer) in [
            ("begin_cycle", Layer::BeginCycle),
            ("end_cycle", Layer::EndCycle),
            ("next_event", Layer::NextEvent),
            ("advance", Layer::Advance),
            ("post", Layer::Post),
        ] {
            put(&format!("model.{label}_ns"), t.self_ns(layer) as f64, "ns");
            put(
                &format!("model.{label}_calls"),
                t.calls(layer) as f64,
                "count",
            );
        }

        put("policy.calls", t.calls(Layer::Policy) as f64, "count");
        put("policy.self_ns", t.self_ns(Layer::Policy) as f64, "ns");
        put("rng.draws", t.calls(Layer::Rng) as f64, "count");
        put("rng.self_ns", t.self_ns(Layer::Rng) as f64, "ns");
        put("bus.grants", t.grants as f64, "count");
        put(
            "bus.grants_per_end_cycle",
            ratio(t.grants as f64, t.calls(Layer::EndCycle) as f64),
            "frac",
        );

        let filter_calls = t.calls(Layer::Filter) + t.calls(Layer::FilterAdvance);
        let filter_ns = t.self_ns(Layer::Filter) + t.self_ns(Layer::FilterAdvance);
        put("filter.calls", filter_calls as f64, "count");
        put("filter.self_ns", filter_ns as f64, "ns");
        put(
            "filter.advance_ns",
            t.self_ns(Layer::FilterAdvance) as f64,
            "ns",
        );

        let sum = |f: &dyn Fn(AgentKind) -> u64| AgentKind::ALL.iter().map(|&k| f(k)).sum::<u64>();
        put(
            "agents.tick_calls",
            sum(&|k| t.calls(Layer::Tick(k))) as f64,
            "count",
        );
        put(
            "agents.tick_ns",
            sum(&|k| t.self_ns(Layer::Tick(k))) as f64,
            "ns",
        );
        put(
            "agents.absorb_skipped_ns",
            sum(&|k| t.self_ns(Layer::Absorb(k))) as f64,
            "ns",
        );
        put(
            "agents.wake_at_ns",
            sum(&|k| t.self_ns(Layer::WakeAt(k))) as f64,
            "ns",
        );
        for k in [
            AgentKind::Core,
            AgentKind::Shared,
            AgentKind::Fixed,
            AgentKind::Sat,
        ] {
            let l = k.label();
            put(
                &format!("agents.{l}.tick_calls"),
                t.calls(Layer::Tick(k)) as f64,
                "count",
            );
            put(
                &format!("agents.{l}.tick_ns"),
                t.self_ns(Layer::Tick(k)) as f64,
                "ns",
            );
            put(
                &format!("agents.{l}.absorb_skipped_ns"),
                t.self_ns(Layer::Absorb(k)) as f64,
                "ns",
            );
            put(
                &format!("agents.{l}.wake_at_ns"),
                t.self_ns(Layer::WakeAt(k)) as f64,
                "ns",
            );
        }

        let mem = &self.mem;
        put("mem.accesses", mem.accesses as f64, "count");
        put(
            "mem.miss_rate",
            ratio(mem.misses as f64, mem.accesses as f64),
            "frac",
        );
        put("mem.bus_txns", mem.bus_txns as f64, "count");
        put("mem.coherence_txns", mem.coherence as f64, "count");

        put("mbpta.fit_ms", self.fit_ms, "ms");
        put("mbpta.samples", self.fit_samples as f64, "count");

        put("report.aggregate_us", self.aggregate_us, "us");
        put("report.to_json_us", self.to_json_us, "us");
        put("report.to_csv_us", self.to_csv_us, "us");
        put("report.json_bytes", self.json_bytes as f64, "bytes");
        put("report.util_over_1_cells", self.util_over_1 as f64, "count");

        put("journal.records", self.journal_records as f64, "count");
        put("journal.append_ms_p50", median(&self.append_ms), "ms");
        put(
            "journal.append_ms_max",
            self.append_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        put("journal.resume_ms", self.resume_ms, "ms");

        put(
            "trace.overhead_frac",
            ratio(self.traced_ns, self.untraced_ns) - 1.0,
            "frac",
        );
        m
    }
}

/// Appends every cell of `report` to a fresh journal, timing each
/// fsynced append, then resumes the journal and checks that the read-back
/// reproduces the report.
fn journal_round_trip(
    def: &ScenarioDef,
    report: &ScenarioReport,
    json: &str,
    dir: &Path,
    problems: &mut Vec<String>,
) -> Result<(usize, Vec<f64>, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let hash = def.scenario_hash();
    let mut journal = Journal::create(dir, hash, report.cells.len(), def.runs)?;
    let mut append_ms = Vec::with_capacity(report.cells.len());
    for (ci, cell) in report.cells.iter().enumerate() {
        let t = Instant::now();
        journal.append(ci, cell)?;
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let records = journal.records();
    drop(journal);
    let t = Instant::now();
    let (_journal, replay) = Journal::resume(dir, hash, report.cells.len(), def.runs)?;
    let resume_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut cells = replay.cells;
    cells.sort_by_key(|(ci, _)| *ci);
    let replayed = ScenarioReport {
        name: report.name.clone(),
        seed: report.seed,
        runs: report.runs,
        cells: cells.into_iter().map(|(_, c)| c).collect(),
    };
    if replayed.to_json() != json {
        problems.push("the journal read-back differs from the report".into());
    }
    Ok((records, append_ms, resume_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let names: Vec<String> = Repetition::default()
            .metrics(0.0, 0.0, 0)
            .into_keys()
            .collect();
        let mut listed = crate::listed_metrics("per_layer");
        listed.sort();
        assert_eq!(names, listed);
    }
}
