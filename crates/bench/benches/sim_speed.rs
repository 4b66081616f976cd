//! End-to-end simulator throughput on the shipped scenarios: the naive
//! per-cycle loop against the events engine (event-horizon skipping plus
//! limit-cycle fast-forward), in simulated **cycles per second**.
//!
//! Every `scenarios/*.scn` expands to its full sweep grid; the same seeded
//! runs execute under each engine listed in `CBA_ENGINES` (comma-separated,
//! default `naive,events`). Listing an engine that does not exist is
//! a hard error — the bench panics with the parser's message instead of
//! emitting null columns for a backend nobody ran. A cross-check rides
//! along: naive and events results are asserted bit-identical.
//!
//! A machine-readable summary is written to `BENCH_sim_speed.json` (via
//! `sim_core::export`) so CI can record the perf trajectory. `CBA_RUNS`
//! scales the per-spec run count (smoke mode in CI); `CBA_SEED` sets the
//! master seed.
//!
//! Expected shape: the events engine wins multi-× wherever the bus idles
//! for long stretches, and an order of magnitude or two wherever a run
//! settles into a steady limit cycle it can fast-forward
//! (`fairness_sweep`, `scaling_16core`).

use cba_bench::{print_row, rule, runs_from_env, seed_from_env};
use cba_platform::scenario::{parse_engine, ScenarioDef};
use cba_platform::{run_once, DriveMode, RunResult, RunSpec};
use sim_core::export::Json;
use std::time::Instant;

/// One benchmark scenario: a label and the specs of its expanded grid.
struct Case {
    name: String,
    specs: Vec<RunSpec>,
}

/// Every shipped `scenarios/*.scn`, expanded.
fn cases() -> Vec<Case> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .filter_map(|e| {
            let p = e.expect("readable dir entry").path();
            (p.extension().map(|x| x == "scn") == Some(true)).then_some(p)
        })
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no shipped scenarios under {dir}");
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().to_string();
            let text = std::fs::read_to_string(&path).expect("scenario readable");
            let specs = ScenarioDef::parse(&text)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .expand()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .into_iter()
                .map(|cell| cell.spec)
                .collect();
            Case { name, specs }
        })
        .collect()
}

/// The engine list under measurement. Unknown names are a hard error so a
/// stale `CBA_ENGINES` (or a removed backend) fails loudly instead of
/// producing a JSON row full of nulls.
fn engines_from_env() -> Vec<DriveMode> {
    let raw = std::env::var("CBA_ENGINES").unwrap_or_else(|_| "naive,events".into());
    let engines: Vec<DriveMode> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            parse_engine(name)
                .unwrap_or_else(|e| panic!("CBA_ENGINES: {e}; no columns were emitted"))
        })
        .collect();
    assert!(!engines.is_empty(), "CBA_ENGINES selected no engines");
    engines
}

/// Executes every (spec, run) of a case under `mode`; returns (simulated
/// cycles, elapsed seconds, the full run results for the cross-checks).
fn measure(case: &Case, runs: usize, seed: u64, mode: DriveMode) -> (u64, f64, Vec<RunResult>) {
    let mut cycles = 0u64;
    let mut results = Vec::with_capacity(case.specs.len() * runs);
    let start = Instant::now();
    for (si, spec) in case.specs.iter().enumerate() {
        let mut spec = spec.clone();
        spec.drive = mode;
        for run in 0..runs {
            let result = run_once(&spec, seed ^ ((si as u64) << 32 | run as u64));
            cycles += result.total_cycles;
            results.push(result);
        }
    }
    (cycles, start.elapsed().as_secs_f64(), results)
}

fn main() {
    let runs = runs_from_env(20);
    let seed = seed_from_env();
    let engines = engines_from_env();
    let labels: Vec<String> = engines.iter().map(|e| e.to_string()).collect();
    println!(
        "sim_speed: {runs} runs per spec, seed {seed}, engines {}",
        labels.join(",")
    );
    rule(74);
    print_row(&[
        ("scenario", 20),
        ("sim cycles", 12),
        ("naive cyc/s", 13),
        ("events cyc/s", 13),
        ("ev/naive", 9),
    ]);
    rule(74);

    let mut rows = Vec::new();
    for case in cases() {
        // (seconds, cycles/sec, results) per engine, in naive/events
        // slots; engines not listed in CBA_ENGINES simply leave their slot
        // empty and their JSON keys absent (never null).
        let mut slots: [Option<(f64, f64, Vec<RunResult>)>; 2] = [None, None];
        let mut cycles = 0u64;
        for &engine in &engines {
            let (c, secs, results) = measure(&case, runs, seed, engine);
            cycles = c;
            let slot = match engine {
                DriveMode::Naive => 0,
                DriveMode::Events => 1,
                other => panic!("sim_speed has no column for engine '{other}'"),
            };
            slots[slot] = Some((secs, c as f64 / secs, results));
        }
        let [naive, events] = &slots;

        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::str(&case.name)),
            ("specs".into(), Json::Num(case.specs.len() as f64)),
            ("simulated_cycles".into(), Json::Num(cycles as f64)),
        ];
        for (label, slot) in [("naive", naive), ("events", events)] {
            if let Some((secs, rate, _)) = slot {
                fields.push((format!("{label}_seconds"), Json::Num(*secs)));
                fields.push((format!("{label}_cycles_per_sec"), Json::Num(*rate)));
            }
        }

        if let (Some((_, _, n)), Some((_, _, e))) = (naive, events) {
            assert_eq!(n, e, "{}: naive and events engines disagree", case.name);
        }
        let speedup = match (naive, events) {
            (Some((_, nr, _)), Some((_, er, _))) => {
                let s = er / nr;
                fields.push(("speedup".into(), Json::Num(s)));
                Some(s)
            }
            _ => None,
        };
        let fmt_rate = |slot: &Option<(f64, f64, Vec<RunResult>)>| {
            slot.as_ref()
                .map(|(_, r, _)| format!("{r:.3e}"))
                .unwrap_or_else(|| "-".into())
        };
        print_row(&[
            (&case.name, 20),
            (&format!("{cycles}"), 12),
            (&fmt_rate(naive), 13),
            (&fmt_rate(events), 13),
            (
                &speedup.map(|s| format!("{s:.2}x")).unwrap_or("-".into()),
                9,
            ),
        ]);
        rows.push(Json::obj(fields));
    }
    rule(74);

    let doc = Json::obj([
        ("bench", Json::str("sim_speed")),
        ("runs_per_spec", Json::Num(runs as f64)),
        ("seed", Json::Num(seed as f64)),
        ("engines", Json::Arr(labels.iter().map(Json::str).collect())),
        ("scenarios", Json::Arr(rows)),
    ]);
    // Cargo runs benches with the package directory as CWD; anchor the
    // artifact at the workspace root so CI finds it in one place.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_speed.json");
    std::fs::write(path, doc.render()).expect("write BENCH_sim_speed.json");
    println!("sim_speed: wrote {path}");
}
