//! Scenario-file error paths — every class of malformed `.scn` input
//! produces the *intended* `Display` error, pinned by a golden snapshot.
//!
//! The contract under test: errors are part of the scenario format's
//! public surface (the CLI prints them verbatim; EXPERIMENTS.md tells
//! users to read them), so their wording and line attribution may only
//! change deliberately. Each case below feeds a malformed scenario to
//! `ScenarioDef::parse` (or, for grid-time errors, `expand`) and the
//! collected messages are compared against
//! `tests/data/scn_errors.golden.txt`. Regenerate after an intentional
//! wording change with `UPDATE_GOLDENS=1 cargo test --test scn_errors`.

use std::path::Path;

use cba_platform::scenario::ScenarioDef;

/// One malformed scenario: a stable case name and the input text.
/// The error may surface at parse or at expansion — both are "the
/// scenario failed with this message" from the user's point of view.
const CASES: &[(&str, &str)] = &[
    // -- malformed sections ------------------------------------------------
    (
        "unterminated_section_header",
        "[campaign]\nname = x\n[platform\ncores = 4\n",
    ),
    (
        "unknown_section",
        "[campaign]\nname = x\n[engine]\nkind = fluid\n",
    ),
    (
        "key_before_any_section",
        "cores = 4\n[campaign]\nname = x\n",
    ),
    (
        "not_a_key_value_line",
        "[campaign]\nname = x\n[platform]\nfast\n",
    ),
    // -- unknown keys, one per section -------------------------------------
    ("unknown_campaign_key", "[campaign]\nrepeat = 3\n"),
    (
        "unknown_platform_key",
        "[campaign]\nname = x\n[platform]\nspeed = 9\n",
    ),
    (
        "unknown_topology_key",
        "[campaign]\nname = x\n[topology]\nrings = 2\n",
    ),
    (
        "unknown_contenders_key",
        "[campaign]\nname = x\n[contenders]\nshape = burst\n",
    ),
    (
        "unknown_report_key",
        "[campaign]\nname = x\n[report]\nformat = csv\n",
    ),
    // -- invalid engine selectors ------------------------------------------
    (
        "unknown_engine",
        "[campaign]\nname = x\n[platform]\nengine = warp\n",
    ),
    (
        "engine_not_a_policy",
        "[campaign]\nname = x\n[platform]\nengine = rr\n",
    ),
    // -- out-of-range windows ----------------------------------------------
    (
        "windows_zero",
        "[campaign]\nname = x\n[report]\nwindows = 0\n",
    ),
    (
        "windows_without_horizon_stop",
        "[campaign]\nname = x\n[tua]\nload = fixed:10:6:4\n[report]\nwindows = 8\n",
    ),
    (
        "windows_not_dividing_horizon",
        "[campaign]\nname = x\n[tua]\nload = sat:28\n[contenders]\nstop = horizon:1000\n\
         [report]\nwindows = 7\n",
    ),
    // -- bad [sweep] axes ---------------------------------------------------
    (
        "unknown_sweep_key",
        "[campaign]\nname = x\n[sweep]\nwarp = 1,2\n",
    ),
    (
        "duplicate_sweep_axis",
        "[campaign]\nname = x\n[sweep]\ncores = 2,4\ncores = 8,16\n",
    ),
    (
        "empty_sweep_value",
        "[campaign]\nname = x\n[sweep]\npolicy = rr,,fifo\n",
    ),
    (
        "invalid_sweep_axis_value",
        "[campaign]\nname = x\n[sweep]\npolicy = rr,warp\n",
    ),
    // -- bad [checkpoint] keys ----------------------------------------------
    (
        "unknown_checkpoint_key",
        "[campaign]\nname = x\n[checkpoint]\nflush = always\n",
    ),
    (
        "zero_cell_budget_ms",
        "[campaign]\nname = x\n[checkpoint]\ncell_budget_ms = 0\n",
    ),
    (
        "zero_run_budget_cycles",
        "[campaign]\nname = x\n[checkpoint]\nrun_budget_cycles = 0\n",
    ),
    // -- bad [memory] sections ----------------------------------------------
    (
        "unknown_memory_key",
        "[campaign]\nname = x\n[memory]\nline_bytes = 32\n",
    ),
    (
        "zero_working_set",
        "[campaign]\nname = x\n[memory]\nworking_set = 0\n",
    ),
    (
        "share_frac_out_of_range",
        "[campaign]\nname = x\n[memory]\nshare_frac = 1.5\n",
    ),
    (
        "memory_axis_without_memory_section",
        "[campaign]\nname = x\n[tua]\nload = fixed:10:6:4\n[sweep]\nmem_working_set = 512,4096\n",
    ),
    (
        "mem_agent_without_memory_section",
        "[campaign]\nname = x\n[tua]\nload = agent:mem\n[contenders]\nstop = horizon:1000\n",
    ),
    (
        "shared_agent_on_fabric_topology",
        "[campaign]\nname = x\n[memory]\nworking_set = 1024\n\
         [topology]\nclusters = 2\ncores_per_cluster = 2\n\
         [tua]\nload = agent:shared\n[contenders]\nstop = horizon:1000\n",
    ),
    // -- assorted out-of-range scalars --------------------------------------
    ("zero_runs", "[campaign]\nname = x\nruns = 0\n"),
    (
        "unknown_policy",
        "[campaign]\nname = x\n[platform]\npolicy = lifo\n",
    ),
    (
        "zero_topology_clusters",
        "[campaign]\nname = x\n[topology]\nclusters = 0\n",
    ),
    (
        "unknown_wcet_mode",
        "[campaign]\nname = x\n[contenders]\nwcet = maybe\n",
    ),
];

/// The error a case produces: the parse error if parsing fails, else the
/// expansion error. Panics (test failure) if the input is accepted.
fn error_of(name: &str, text: &str) -> String {
    match ScenarioDef::parse(text) {
        Err(e) => e.to_string(),
        Ok(def) => match def.expand() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("case '{name}': malformed scenario was accepted\n{text}"),
        },
    }
}

#[test]
fn every_malformed_scenario_fails_with_its_pinned_message() {
    let mut snapshot = String::new();
    for (name, text) in CASES {
        let err = error_of(name, text);
        assert!(!err.is_empty(), "case '{name}': empty error message");
        snapshot.push_str(name);
        snapshot.push('\n');
        snapshot.push_str("  ");
        snapshot.push_str(&err);
        snapshot.push('\n');
    }

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/scn_errors.golden.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&golden_path, &snapshot).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{golden_path:?}: {e}\nrun UPDATE_GOLDENS=1 cargo test --test scn_errors to create it"
        )
    });
    assert_eq!(
        snapshot, golden,
        "scenario error messages drifted; if intentional, regenerate with \
         UPDATE_GOLDENS=1 cargo test --test scn_errors"
    );
}

/// Error messages carry the offending 1-based line number whenever the
/// error is attributable to a line — the CLI leans on this for usability.
#[test]
fn parse_errors_carry_line_numbers() {
    for (name, text) in CASES {
        if let Err(e) = ScenarioDef::parse(text) {
            assert!(
                e.line.is_some(),
                "case '{name}': parse error lost its line number: {e}"
            );
        }
    }
}

/// A valid scenario with every section exercises the same code paths and
/// parses cleanly — the error cases above fail for the stated reason, not
/// because the harness miswrites scenarios.
#[test]
fn control_scenario_with_every_section_parses() {
    let text = "[campaign]\nname = ok\nruns = 2\nseed = 7\n\
                [platform]\ncores = 4\npolicy = rr\ncba = homog\nengine = naive\n\
                [memory]\nworking_set = 1024\nshare_frac = 0.5\n\
                [tua]\nload = fixed:20:6:4\n\
                [contenders]\nscenario = con\nstop = tua\n\
                [sweep]\npolicy = rr,fifo\n\
                [report]\npercentiles = 50,90\n\
                [checkpoint]\ndir = /tmp/unused\nrun_budget_cycles = 200000\n";
    let def = ScenarioDef::parse(text).expect("control scenario parses");
    let cells = def.expand().expect("control scenario expands");
    assert_eq!(cells.len(), 2);
}
