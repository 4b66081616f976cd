//! Seeded mutation fuzzer for the load-spec mini-language.
//!
//! The load specs of every shipped `scenarios/*.scn` file (the `load`,
//! `loads` and `fill` keys), plus one spec of every built-in kind, are
//! mutated with fixed seeds: a field is replaced with a hostile value,
//! dropped, duplicated or emptied, a `:` is added, the kind is swapped
//! for another, or the text is cut at a random byte. Every mutant goes the
//! way a `.scn` value or a `cba_sim --loads` entry goes: `parse_load_spec`,
//! then `RunSpec::validate` with the load on the TuA's core and on a
//! co-runner's, then `AgentRegistry::build` for every core. For every
//! mutant:
//!
//! * no stage panics;
//! * every error names the spec, as written or as the parsed load
//!   renders.
//!
//! The seeds are fixed, so a failure reproduces exactly; the message
//! prints the mutant.

use cba_mem::MemoryConfig;
use cba_platform::scenario::parse_load_spec;
use cba_platform::{
    default_registry, BusSetup, CoreLoad, PlatformConfig, RunSpec, Scenario, StopCondition,
};
use sim_core::rng::SimRng;
use sim_core::CoreId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Mutants per seed spec.
const MUTANTS: u64 = 300;

/// Field values that probe parser and constructor limits: zero, negative,
/// just past `u32`, the `u64` maximum, past `u64`, empty, a word.
const HOSTILE: [&str; 7] = [
    "0",
    "-1",
    "4294967352",
    "18446744073709551615",
    "18446744073709551616",
    "",
    "x",
];

/// The kinds a mutant's first field may be swapped for.
const KINDS: [&str; 8] = [
    "bench", "fixed", "sat", "per", "stream", "idle", "agent", "mem",
];

/// One spec of every built-in kind.
const BUILTIN: [&str; 8] = [
    "bench:rspeed",
    "fixed:2000:6:4",
    "sat:56",
    "per:28:90:0",
    "stream:500",
    "idle",
    "agent:mem",
    "agent:shared",
];

/// splitmix64: a tiny, fixed-seed generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The load specs the shipped scenarios write, in file order.
fn shipped_specs() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    let mut specs = Vec::new();
    for file in files {
        for line in std::fs::read_to_string(file).unwrap().lines() {
            let code = line.split('#').next().unwrap_or_default();
            let Some((key, value)) = code.split_once('=') else {
                continue;
            };
            if matches!(key.trim(), "load" | "loads" | "fill") {
                specs.extend(
                    value
                        .split([',', ' '])
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
        }
    }
    specs
}

fn mutate(spec: &str, rng: &mut Rng) -> String {
    let mut fields: Vec<String> = spec.split(':').map(str::to_string).collect();
    for _ in 0..1 + rng.below(2) {
        let n = fields.len();
        match rng.below(6) {
            0 => fields[rng.below(n)] = HOSTILE[rng.below(HOSTILE.len())].to_string(),
            1 if n > 1 => {
                fields.remove(rng.below(n));
            }
            2 => {
                let i = rng.below(n);
                fields.insert(i, fields[i].clone());
            }
            3 => fields.push(HOSTILE[rng.below(HOSTILE.len())].to_string()),
            4 => fields[0] = KINDS[rng.below(KINDS.len())].to_string(),
            _ => {
                let text = fields.join(":");
                let cut = rng.below(text.len() + 1);
                let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap();
                fields = text[..cut].split(':').map(str::to_string).collect();
            }
        }
    }
    fields.join(":")
}

/// The platform the mutants run on: the paper's four cores under CBA,
/// with a memory section so the memory kinds can build.
fn platform() -> PlatformConfig {
    let mut platform = PlatformConfig::paper(&BusSetup::Cba);
    platform.memory = Some(MemoryConfig::default());
    platform
}

/// Run specs with `load` on core 0 (the TuA, idle co-runners) and on
/// core 1 (a fixed-request TuA), each with the core that runs `load`.
fn placements(load: &CoreLoad) -> [(RunSpec, usize); 2] {
    let mut on_tua = RunSpec::with_platform(platform(), Scenario::Isolation, load.clone());
    if !load.is_finite() {
        on_tua.stop = StopCondition::Horizon(10_000);
    }
    let tua = CoreLoad::FixedTask {
        n_requests: 10,
        duration: 6,
        gap: 4,
    };
    let rest = vec![load.clone(), CoreLoad::Idle, CoreLoad::Idle];
    let as_co_runner = RunSpec::with_platform(platform(), Scenario::Custom(rest), tua);
    [(on_tua, 0), (as_co_runner, 1)]
}

/// Checks one mutant through every stage; returns how many stages it
/// passed (parse, validate, build), or the reason it broke the contract.
fn check(text: &str) -> Result<usize, String> {
    let names = |err: &str, load: Option<&CoreLoad>| {
        err.contains(&format!("'{text}'")) || load.is_some_and(|l| err.contains(&format!("'{l}'")))
    };
    let stage = |what: &str, f: &mut dyn FnMut() -> Result<(), String>| {
        catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("{what} panicked"))
    };
    let mut parsed = None;
    match stage("parse_load_spec", &mut || {
        parsed = Some(parse_load_spec(text)?);
        Ok(())
    })? {
        Err(e) if names(&e, None) => return Ok(0),
        Err(e) => return Err(format!("parse error does not name the spec: {e}")),
        Ok(()) => {}
    }
    let load = parsed.unwrap();
    let mut passed = 1;
    for (spec, mutant_core) in placements(&load) {
        match stage("RunSpec::validate", &mut || spec.validate())? {
            Err(e) if names(&e, Some(&load)) => continue,
            Err(e) => return Err(format!("validate error does not name the spec: {e}")),
            Ok(()) => passed = passed.max(2),
        }
        for (i, core_load) in spec.loads.iter().enumerate() {
            let built = stage("AgentRegistry::build", &mut || {
                let mut rng = SimRng::seed_from(i as u64);
                let core = CoreId::from_index(i);
                default_registry()
                    .build(core_load, core, &spec.platform, &mut rng)
                    .map(drop)
            })?;
            match built {
                Err(e) if names(&e, Some(core_load)) => {}
                Err(e) => return Err(format!("build error does not name the spec: {e}")),
                Ok(()) if i == mutant_core => passed = 3,
                Ok(()) => {}
            }
        }
    }
    Ok(passed)
}

#[test]
fn load_spec_mutants_never_panic_and_errors_name_their_spec() {
    let mut seeds = shipped_specs();
    assert!(seeds.len() >= 10, "found only {seeds:?}");
    seeds.extend(BUILTIN.map(String::from));
    // Quiet the panic hook: a caught panic is reported below, once.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = Vec::new();
    let mut reached = [0usize; 4];
    for (k, seed) in seeds.iter().enumerate() {
        let mut rng = Rng(0x10AD_5EED ^ k as u64);
        let mutants = (0..MUTANTS).map(|_| mutate(seed, &mut rng));
        for text in std::iter::once(seed.clone()).chain(mutants) {
            match check(&text) {
                Ok(stages) => reached[stages] += 1,
                Err(why) => failures.push(format!("{text:?}: {why}")),
            }
        }
    }
    std::panic::set_hook(hook);
    assert!(
        failures.is_empty(),
        "{} of the mutants broke the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Every stage saw mutants both fail and pass.
    assert!(
        reached.iter().all(|&n| n > 0),
        "stages reached: {reached:?}"
    );
}
