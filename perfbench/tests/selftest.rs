//! The benchmark's own checks: its workload copies are the ones it
//! records, and its traced assembly reproduces `run_once`.

use cba_platform::{run_once, run_seed, DriveMode};
use perfbench::proxies::run_traced;
use perfbench::trace;
use perfbench::workload::WORKLOADS;

#[test]
fn workload_copies_parse_expand_and_honour_the_seed() {
    for w in &WORKLOADS {
        let text = std::fs::read_to_string(w.path()).unwrap();
        assert!(
            text.contains("# Why this workload:"),
            "{} must say why the workload was chosen",
            w.file
        );
        let a = w.load(11).unwrap();
        let b = w.load(12).unwrap();
        assert_eq!((a.seed, b.seed), (11, 12), "{}", w.name);
        assert!(a.threads.is_some_and(|t| (1..=2).contains(&t)));
        assert!(
            a.checkpoint.is_default(),
            "{}: no budgets or journal dir",
            w.name
        );
        let cells_a = a.expand().unwrap();
        let cells_b = b.expand().unwrap();
        let again = w.load(11).unwrap().expand().unwrap();
        assert_eq!(cells_a.len(), w.cells, "{} cell count", w.name);
        assert!(cells_a.iter().all(|c| c.spec.drive == DriveMode::Events));
        for ((x, y), z) in cells_a.iter().zip(&cells_b).zip(&again) {
            assert_ne!(x.seed, y.seed, "{}: the seed must reach every cell", w.name);
            assert_eq!(x.seed, z.seed, "{}: same seed, same cells", w.name);
        }
    }
}

#[test]
fn traced_runs_reproduce_run_once_on_one_cell_of_each_workload() {
    for w in &WORKLOADS {
        let def = w.load(5).unwrap();
        // The last cell is the most loaded one of every grid: WCET-mode
        // H-CBA over the LFSR bank (fig1), and CBA with the widest shared
        // working set (coherence).
        let cell = def.expand().unwrap().pop().unwrap();
        let seed = run_seed(cell.seed, 1);
        trace::begin_run((0, 1), false);
        let traced = run_traced(&cell.spec, seed);
        let (totals, _) = trace::end_run();
        let untraced = run_once(&cell.spec, seed);
        assert_eq!(traced, untraced, "{}: traced run differs", w.name);
        assert!(untraced.finished, "{}", w.name);
        assert!(
            totals.calls(trace::Layer::BeginCycle) > 0,
            "{}: the proxies recorded the drive loop",
            w.name
        );
        if w.name == "coherence" {
            assert!(untraced.mem.is_some_and(|m| m.accesses > 0));
        }
    }
}
