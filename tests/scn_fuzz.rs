//! Seeded mutation fuzzer for the scenario format.
//!
//! Every shipped `scenarios/*.scn` file is mutated many times over with
//! fixed seeds: lines are dropped, duplicated or swapped, a key is
//! replaced with another key of its section, a value with one of a few
//! hostile values, or the text is cut at a random byte. For every mutant:
//!
//! * `parse` and `expand` never panic;
//! * every parse error carries its line number;
//! * a mutant that parses renders back to itself: `parse(render(d)) == d`;
//! * and `render` is a fixed point.
//!
//! The seeds are fixed, so a failure reproduces exactly; the message
//! prints the mutant text.

use cba_platform::scenario::ScenarioDef;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Mutants per shipped file.
const MUTANTS: u64 = 400;

/// Values that probe parser limits: zero, negative, just past `u32`, the
/// `u64` maximum, a float that is no number, and a keyword.
const HOSTILE: [&str; 6] = [
    "0",
    "-1",
    "4294967352",
    "18446744073709551615",
    "nan",
    "custom",
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

/// The `key = value` lines: index, section and key.
fn key_lines(lines: &[String]) -> Vec<(usize, String, String)> {
    let mut section = String::new();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = line.split('#').next().unwrap_or_default().trim();
        if let Some(name) = code.strip_prefix('[') {
            section = name.trim_end_matches(']').trim().to_ascii_lowercase();
        } else if let Some((key, _)) = code.split_once('=') {
            out.push((i, section.clone(), key.trim().to_string()));
        }
    }
    out
}

/// Keys by section, as the shipped files use them.
type KeysBySection = BTreeMap<String, Vec<String>>;

fn mutate(text: &str, keys: &KeysBySection, rng: &mut Rng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut truncate = false;
    for _ in 0..1 + rng.below(3) {
        let n = lines.len();
        let kv = key_lines(&lines);
        match rng.below(6) {
            0 if n > 0 => {
                lines.remove(rng.below(n));
            }
            1 if n > 0 => {
                let i = rng.below(n);
                lines.insert(i, lines[i].clone());
            }
            2 if n > 0 => lines.swap(rng.below(n), rng.below(n)),
            3 if !kv.is_empty() => {
                let (i, section, _) = &kv[rng.below(kv.len())];
                let Some(peers) = keys.get(section) else {
                    continue;
                };
                let (_, value) = lines[*i].split_once('=').expect("a key line");
                lines[*i] = format!("{} ={value}", peers[rng.below(peers.len())]);
            }
            4 | 5 if !kv.is_empty() => {
                let (i, _, _) = kv[rng.below(kv.len())];
                let code = lines[i].split('#').next().unwrap_or_default();
                let (key, value) = code.split_once('=').expect("a key line");
                // Replace the whole value or one item of a list.
                let mut items: Vec<&str> = value.split(',').collect();
                let at = rng.below(items.len());
                items[at] = HOSTILE[rng.below(HOSTILE.len())];
                lines[i] = format!("{key}= {}", items.join(","));
            }
            _ => truncate = true,
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    if truncate {
        let mut cut = rng.below(out.len() + 1);
        while !out.is_char_boundary(cut) {
            cut -= 1;
        }
        out.truncate(cut);
    }
    out
}

/// Runs `f`, turning a panic into `None` without printing its report.
fn quietly<T>(f: impl FnOnce() -> T) -> Option<T> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    std::panic::set_hook(hook);
    out
}

/// Checks one mutant; returns a description of the first violation.
fn check(text: &str) -> Result<(), String> {
    let parsed = quietly(|| ScenarioDef::parse(text)).ok_or("parse panicked")?;
    let def = match parsed {
        Ok(def) => def,
        Err(e) if e.line.is_some() => return Ok(()),
        Err(e) => return Err(format!("parse error without a line number: {e}")),
    };
    // Expansion may fail with a message, but must not panic.
    let _ = quietly(|| def.expand()).ok_or("expand panicked")?;
    let rendered = def.render();
    let reparsed = ScenarioDef::parse(&rendered)
        .map_err(|e| format!("render does not re-parse: {e}\n--- render\n{rendered}"))?;
    if reparsed != def {
        return Err(format!("parse(render(d)) != d\n--- render\n{rendered}"));
    }
    if reparsed.render() != rendered {
        return Err(format!(
            "render is not a fixed point\n--- render\n{rendered}"
        ));
    }
    Ok(())
}

#[test]
fn mutated_shipped_scenarios_never_panic_and_round_trip() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("scn"))
        .collect();
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable scenario"))
        .collect();
    let mut keys = KeysBySection::new();
    for text in &texts {
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        for (_, section, key) in key_lines(&lines) {
            let peers = keys.entry(section).or_default();
            if !peers.contains(&key) {
                peers.push(key);
            }
        }
    }
    let mut failures = Vec::new();
    for (f, (path, text)) in files.iter().zip(&texts).enumerate() {
        for m in 0..MUTANTS {
            let seed = (f as u64) << 32 | m;
            let mutant = mutate(text, &keys, &mut Rng(seed));
            if let Err(why) = check(&mutant) {
                failures.push(format!("{path:?} seed {seed}: {why}\n--- mutant\n{mutant}"));
            }
        }
    }
    assert_eq!(files.len(), 11, "expected the 11 shipped scenarios");
    assert!(
        failures.is_empty(),
        "{} of {} mutants failed; first:\n{}",
        failures.len(),
        files.len() as u64 * MUTANTS,
        failures[0]
    );
}
