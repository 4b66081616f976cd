//! `cba-sim` — the scenario CLI: run custom platform campaigns without
//! writing Rust.
//!
//! Two modes:
//!
//! * **Scenario-file mode** (`--scenario-file grid.scn`): parse a
//!   declarative scenario file, expand its `[sweep]` grid into cells, run
//!   every cell as a Monte-Carlo campaign and print/export the per-cell
//!   statistics. The shipped grids live in `scenarios/` at the repository
//!   root; `scenarios/README.md` documents every key of the format.
//! * **Flag mode** (`--bench`/`--loads`): a single ad-hoc configuration
//!   from command-line flags, as before.
//!
//! Both modes accept `--out results.json|csv` for structured export.
//!
//! Scenario-file mode is crash-safe: `--checkpoint DIR` journals every
//! finished cell (fsynced) and `--resume` skips the journaled cells after
//! a crash, producing a report bit-identical to an uninterrupted run. The
//! `CBA_CRASH_AFTER_RECORDS=N` environment variable aborts the process
//! right after the `N`-th journal record — the hook the crash-resume CI
//! job and local reproductions use to die at a deterministic point.

use cba_platform::checkpoint::FaultPlan;
use cba_platform::report::{run_scenario_controlled, CellReport, RunControls, ScenarioReport};
use cba_platform::scenario::{
    parse_cba_spec, parse_engine, parse_load_spec, parse_policy, section_key_names, ScenarioDef,
};
use cba_platform::{Campaign, CoreLoad, PlatformConfig, RunSpec, Scenario};
use std::path::Path;

const USAGE: &str = "\
usage: cba_sim --scenario-file FILE [--runs N] [--seed S] [--threads N]
               [--engine events|naive] [--out FILE] [--format json|csv]
               [--checkpoint DIR] [--resume]
       cba_sim [--policy fifo|rr|tdma|lot|rp|pri] [--cba none|homog|hcba|w:a,b,..]
               [--bench NAME | --loads SPEC] [--scenario iso|con] [--wcet]
               [--runs N] [--seed S] [--cores N] [--engine events|naive]
               [--out FILE] [--format json|csv]

--threads N   worker threads for the grid-wide run executor (0 = one per
              hardware thread); every (cell x run) task of a campaign is
              scheduled on one shared pool
--engine      cycle loop: 'events' (event-horizon skipping and
              limit-cycle fast-forward, default) or 'naive' (per-cycle
              reference loop, for debugging; results are bit-identical
              to events)
--checkpoint  journal each finished cell to DIR/campaign.journal, fsynced
              per record, so a crashed campaign loses at most the cells
              in flight (scenario-file mode only)
--resume      skip the cells already journaled in the --checkpoint DIR;
              the resumed report is bit-identical to an uninterrupted run
              at any thread count (the journal refuses to resume a
              different scenario)

load SPEC entries (comma-separated, first entry = core 0, the TuA):
    bench:NAME             catalog benchmark through the core model
    fixed:REQS:DUR:GAP     fixed-request task
    sat:DUR                saturating contender
    per:DUR:PERIOD:PHASE   periodic contender
    stream:ACCESSES        streaming loads
    idle                   nothing
";

const EXAMPLES: &str = "\
examples:
    cba_sim --scenario-file scenarios/paper_fig1.scn --runs 50 --out /tmp/fig1.json
    cba_sim --bench matrix --scenario con --cba homog --runs 100
    cba_sim --loads fixed:1000:6:4,sat:28,sat:28,sat:28 --policy rr
";

/// The usage text. Its scenario-file part lists every key per section
/// straight from the scenario format's key table.
fn usage_text() -> String {
    let mut text = format!(
        "{USAGE}\nscenario-file keys by [section] ('#' starts a comment; each [sweep] key\n\
         is one grid axis, values comma-separated; scenarios/README.md explains\n\
         every key in one commented example):\n"
    );
    for (section, keys) in section_key_names() {
        let mut line = format!("    {:<14}", format!("[{section}]"));
        for (i, key) in keys.iter().enumerate() {
            let sep = if i + 1 < keys.len() { "," } else { "" };
            if line.len() + key.len() + sep.len() > 78 {
                text.push_str(line.trim_end());
                text.push('\n');
                line = " ".repeat(18);
            }
            line.push_str(&format!("{key}{sep} "));
        }
        text.push_str(line.trim_end());
        text.push('\n');
    }
    text + "\n" + EXAMPLES
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

/// Runtime failure (unreadable scenario, unwritable path, interrupted or
/// mismatched journal): one clear line, exit 1, no usage dump and no
/// panic backtrace.
fn die(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut policy: Option<String> = None;
    let mut cba: Option<String> = None;
    let mut bench: Option<String> = None;
    let mut loads: Option<String> = None;
    let mut scenario: Option<String> = None;
    let mut wcet = false;
    // `(section, key, value)` lines applied on top of the scenario (or,
    // in flag mode, of the defaults) through the scenario format's setters.
    let mut overrides: Vec<(&str, &str, String)> = Vec::new();
    let mut cores: Option<usize> = None;
    let mut scenario_file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut format: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut resume = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--policy" => policy = Some(val("--policy")),
            "--cba" => cba = Some(val("--cba")),
            "--bench" => bench = Some(val("--bench")),
            "--loads" => loads = Some(val("--loads")),
            "--scenario" => scenario = Some(val("--scenario")),
            "--scenario-file" => scenario_file = Some(val("--scenario-file")),
            "--out" => out = Some(val("--out")),
            "--format" => format = Some(val("--format")),
            "--wcet" => wcet = true,
            // --threads 0 = auto, like the file's `threads` key.
            "--runs" | "--seed" | "--threads" => overrides.push(("campaign", &arg[2..], val(arg))),
            "--engine" => overrides.push(("platform", "engine", val(arg))),
            "--cores" => {
                cores = Some(
                    val("--cores")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --cores")),
                )
            }
            "--checkpoint" => checkpoint = Some(val("--checkpoint")),
            "--resume" => resume = true,
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0)
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }

    let apply_overrides = |def: &mut ScenarioDef| {
        for (section, key, value) in &overrides {
            def.set(section, key, value)
                .unwrap_or_else(|e| usage(&format!("--{key}: {e}")));
        }
    };

    // Resolve the export format BEFORE running anything: a typo must not
    // discard a long campaign.
    let export = out.map(|path| {
        let format = format.unwrap_or_else(|| {
            if path.ends_with(".csv") {
                "csv".into()
            } else {
                "json".into()
            }
        });
        if format != "json" && format != "csv" {
            usage(&format!("unknown format '{format}' (expected json, csv)"));
        }
        (path, format)
    });
    // Probe writability BEFORE running anything, for the same reason: an
    // unwritable path must not discard a long campaign at export time.
    if let Some((path, _)) = &export {
        let existed = Path::new(path).exists();
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            die(&format!("cannot write {path}: {e}"));
        }
        if !existed {
            // The probe only proves writability; don't leave an empty
            // file behind if the campaign is interrupted.
            let _ = std::fs::remove_file(path);
        }
    }

    let report = match scenario_file {
        Some(path) => {
            // Flag-mode options don't apply to a scenario file; reject
            // them loudly instead of silently running the file as-is.
            let ignored: Vec<&str> = [
                ("--bench", bench.is_some()),
                ("--loads", loads.is_some()),
                ("--policy", policy.is_some()),
                ("--cba", cba.is_some()),
                ("--scenario", scenario.is_some()),
                ("--cores", cores.is_some()),
                ("--wcet", wcet),
            ]
            .iter()
            .filter(|(_, set)| *set)
            .map(|(flag, _)| *flag)
            .collect();
            if !ignored.is_empty() {
                usage(&format!(
                    "{} cannot be combined with --scenario-file (set the equivalent keys \
                     in the file; only --runs/--seed/--threads/--engine override it)",
                    ignored.join(", ")
                ));
            }
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            let mut def =
                ScenarioDef::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            apply_overrides(&mut def);
            run_scenario_file(&path, &def, checkpoint, resume)
        }
        None => {
            if checkpoint.is_some() || resume {
                usage("--checkpoint/--resume require --scenario-file (flag mode has one cell)");
            }
            let mut campaign = ScenarioDef::default();
            apply_overrides(&mut campaign);
            run_flag_mode(
                policy.as_deref().unwrap_or("rp"),
                cba.as_deref().unwrap_or("none"),
                &bench,
                &loads,
                scenario.as_deref().unwrap_or("con"),
                wcet,
                cores.unwrap_or(4),
                &campaign,
            )
        }
    };

    print!("{}", report.render_table());
    if let Some((path, format)) = export {
        let body = match format.as_str() {
            "json" => report.to_json(),
            "csv" => report.to_csv(),
            _ => unreachable!("validated before the run"),
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("cba-sim: wrote {format} report to {path}");
    }
}

/// Silences the default panic report for the executor's worker threads:
/// a panicking run is contained by the engine and surfaced as its cell's
/// `outcome = panicked` row, so the raw backtrace line is pure noise on a
/// campaign's progress output. Panics on any *other* thread still print.
fn quiet_worker_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let in_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("cba-worker"));
        if !in_worker {
            default_hook(info);
        }
    }));
}

/// Scenario-file mode: run every cell of the (overridden) scenario.
fn run_scenario_file(
    path: &str,
    def: &ScenarioDef,
    checkpoint: Option<String>,
    resume: bool,
) -> ScenarioReport {
    if resume && checkpoint.is_none() && def.checkpoint.dir.is_none() {
        usage("--resume needs --checkpoint DIR (or a [checkpoint] dir key in the scenario)");
    }
    // Test/CI hook: abort the process (SIGKILL semantics) right after the
    // N-th journal record has been fsynced.
    let faults = match std::env::var("CBA_CRASH_AFTER_RECORDS") {
        Ok(v) => {
            let n: usize = v.parse().unwrap_or_else(|_| {
                die(&format!(
                    "bad CBA_CRASH_AFTER_RECORDS '{v}' (expected a record count)"
                ))
            });
            Some(FaultPlan::new().hard_kill_after(n))
        }
        Err(_) => None,
    };
    eprintln!(
        "cba-sim: scenario '{}' from {path}: {} cells x {} runs, seed {}",
        def.name,
        def.n_cells(),
        def.runs,
        def.seed
    );
    quiet_worker_panics();
    let controls = RunControls {
        checkpoint: checkpoint.as_deref().map(Path::new),
        resume,
        faults: faults.as_ref(),
    };
    run_scenario_controlled(def, &controls, |done, total, cell| {
        let label: Vec<&str> = cell.labels.iter().map(|(_, v)| v.as_str()).collect();
        eprintln!(
            "cba-sim: [{done}/{total}] {} mean {:.1} cycles",
            label.join(" · "),
            cell.mean
        );
    })
    .unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// Flag mode: one ad-hoc cell from command-line flags, reported in the
/// same structure as a one-cell scenario so `--out` works identically.
/// `campaign` carries the runs, seed, threads and engine.
#[allow(clippy::too_many_arguments)]
fn run_flag_mode(
    policy: &str,
    cba: &str,
    bench: &Option<String>,
    loads: &Option<String>,
    scenario: &str,
    wcet: bool,
    cores: usize,
    campaign: &ScenarioDef,
) -> ScenarioReport {
    let (runs, seed) = (campaign.runs, campaign.seed);
    let drive = parse_engine(&campaign.template.engine).unwrap_or_else(|e| usage(&e));
    let policy_kind = parse_policy(policy).unwrap_or_else(|e| usage(&e));
    let setup = cba_platform::BusSetup::Custom {
        policy: policy_kind,
        cba: parse_cba_spec(cba, cores, 56).unwrap_or_else(|e| usage(&e)),
    };
    let mut platform = PlatformConfig::paper_n_cores(&setup, cores);
    platform.policy = policy_kind;

    let mut spec = match (bench, loads) {
        (Some(_), Some(_)) => usage("--bench and --loads are mutually exclusive"),
        (Some(name), None) => {
            let scen = match scenario {
                "iso" => Scenario::Isolation,
                "con" => Scenario::MaxContention,
                other => usage(&format!("unknown scenario '{other}'")),
            };
            RunSpec::with_platform(platform, scen, CoreLoad::named(name))
        }
        (None, Some(spec_str)) => {
            let all: Vec<CoreLoad> = spec_str
                .split(',')
                .map(|s| parse_load_spec(s.trim()).unwrap_or_else(|e| usage(&e)))
                .collect();
            if all.is_empty() {
                usage("--loads needs at least one entry");
            }
            let tua = all[0].clone();
            let rest = all[1..].to_vec();
            RunSpec::with_platform(platform, Scenario::Custom(rest), tua)
        }
        (None, None) => usage("one of --scenario-file, --bench or --loads is required"),
    };
    spec.wcet_mode = wcet;
    spec.drive = drive;
    if let Err(e) = spec.validate() {
        usage(&e);
    }

    eprintln!(
        "cba-sim: {} cores, policy {}, filter {}, {} runs, seed {seed}",
        spec.platform.n_cores,
        spec.platform.policy.name(),
        spec.platform
            .cba
            .as_ref()
            .map(|c| c.scheme_name())
            .unwrap_or("none"),
        runs
    );
    let mut runner = Campaign::new(spec.clone(), runs, seed);
    if let Some(t) = campaign.threads {
        runner = runner.with_threads(t);
    }
    let result = runner.run();
    // Bus-side view of the first run.
    let first = &result.results()[0];
    eprintln!(
        "cba-sim: bus (run 0): utilization {:.1}%, TuA mean wait {:.1} cycles, max wait {}",
        100.0 * first.utilization(),
        first.tua_mean_wait,
        first.tua_max_wait
    );
    let config_label = match (bench, loads) {
        (Some(name), _) => format!("bench:{name}:{scenario}"),
        (_, Some(spec_str)) => spec_str.clone(),
        _ => unreachable!("validated above"),
    };
    let cell = CellReport::from_campaign(
        vec![
            ("policy".into(), policy.to_string()),
            ("cba".into(), cba.to_string()),
            ("config".into(), config_label),
        ],
        seed,
        &result,
        &[0.50, 0.95, 0.99],
        &spec,
    );
    ScenarioReport {
        name: "cli".into(),
        seed,
        runs,
        cells: vec![cell],
    }
}
