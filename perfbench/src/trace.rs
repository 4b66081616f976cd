//! The traced run's span recorder.
//!
//! Every call the benchmark wraps opens a span on a thread-local stack:
//! name (a [`Layer`]), start, end and parent. Closing a span adds its
//! duration to the parent's child coverage, so a layer's self time is
//! its span duration minus the part its child spans cover. Per-layer
//! sums stay in memory as [`Totals`]; the full span records of a bounded
//! sample of runs are kept too and written out when the benchmark ends.
//!
//! Spans are recorded only from the benchmark's own proxies around calls
//! into the program's public traits, never from inside the program.

use std::cell::RefCell;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Load kinds the agent spans are split by. `Other` holds every kind
/// without a column of its own (periodic contenders, custom kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentKind {
    /// The full core model (`bench`, `profile`, `stream`).
    Core,
    /// Miss-stream memory agents (`shared`, `mem`).
    Shared,
    /// Fixed-request tasks.
    Fixed,
    /// Saturating contenders.
    Sat,
    /// Everything else.
    Other,
}

impl AgentKind {
    /// Every kind, in column order.
    pub const ALL: [AgentKind; 5] = [
        AgentKind::Core,
        AgentKind::Shared,
        AgentKind::Fixed,
        AgentKind::Sat,
        AgentKind::Other,
    ];

    /// The kind of an agent-registry load kind name.
    pub fn of(load_kind: &str) -> AgentKind {
        match load_kind {
            "bench" | "profile" | "stream" => AgentKind::Core,
            "shared" | "mem" => AgentKind::Shared,
            "fixed" => AgentKind::Fixed,
            "sat" => AgentKind::Sat,
            _ => AgentKind::Other,
        }
    }

    /// The metric-name segment of this kind.
    pub fn label(self) -> &'static str {
        match self {
            AgentKind::Core => "core",
            AgentKind::Shared => "shared",
            AgentKind::Fixed => "fixed",
            AgentKind::Sat => "sat",
            AgentKind::Other => "other",
        }
    }
}

/// One layer boundary the traced run records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole `(cell, run)`: assembly, drive loop and extraction.
    Run,
    /// Model + agent assembly.
    Build,
    /// `Simulation::run`, the drive loop.
    Engine,
    /// `BusModel::begin_cycle`.
    BeginCycle,
    /// `BusModel::end_cycle`.
    EndCycle,
    /// `BusModel::next_event`.
    NextEvent,
    /// `BusModel::advance`.
    Advance,
    /// Request posts, through `BusModel::post` or `RequestPort::post`.
    Post,
    /// Every `ArbitrationPolicy` call.
    Policy,
    /// `RandomSource::next_below`.
    Rng,
    /// Every `EligibilityFilter` call except `advance`.
    Filter,
    /// `EligibilityFilter::advance`.
    FilterAdvance,
    /// `SimAgent::tick`, by load kind.
    Tick(AgentKind),
    /// `SimAgent::absorb_skipped`, by load kind.
    Absorb(AgentKind),
    /// `SimAgent::wake_at`, by load kind.
    WakeAt(AgentKind),
}

const FIXED_LAYERS: usize = 12;
const KINDS: usize = AgentKind::ALL.len();
/// Number of distinct span slots.
pub const N_LAYERS: usize = FIXED_LAYERS + 3 * KINDS;

impl Layer {
    /// The slot of this layer in [`Totals`].
    pub fn index(self) -> usize {
        let kind = |k: AgentKind| AgentKind::ALL.iter().position(|&x| x == k).unwrap_or(0);
        match self {
            Layer::Run => 0,
            Layer::Build => 1,
            Layer::Engine => 2,
            Layer::BeginCycle => 3,
            Layer::EndCycle => 4,
            Layer::NextEvent => 5,
            Layer::Advance => 6,
            Layer::Post => 7,
            Layer::Policy => 8,
            Layer::Rng => 9,
            Layer::Filter => 10,
            Layer::FilterAdvance => 11,
            Layer::Tick(k) => FIXED_LAYERS + kind(k),
            Layer::Absorb(k) => FIXED_LAYERS + KINDS + kind(k),
            Layer::WakeAt(k) => FIXED_LAYERS + 2 * KINDS + kind(k),
        }
    }

    /// The span name written to the span file.
    pub fn name(self) -> String {
        match self {
            Layer::Run => "run".into(),
            Layer::Build => "run.build".into(),
            Layer::Engine => "engine".into(),
            Layer::BeginCycle => "model.begin_cycle".into(),
            Layer::EndCycle => "model.end_cycle".into(),
            Layer::NextEvent => "model.next_event".into(),
            Layer::Advance => "model.advance".into(),
            Layer::Post => "model.post".into(),
            Layer::Policy => "policy".into(),
            Layer::Rng => "rng".into(),
            Layer::Filter => "filter".into(),
            Layer::FilterAdvance => "filter.advance".into(),
            Layer::Tick(k) => format!("agents.{}.tick", k.label()),
            Layer::Absorb(k) => format!("agents.{}.absorb_skipped", k.label()),
            Layer::WakeAt(k) => format!("agents.{}.wake_at", k.label()),
        }
    }

    /// Every layer, in slot order.
    pub fn all() -> Vec<Layer> {
        let mut all = vec![
            Layer::Run,
            Layer::Build,
            Layer::Engine,
            Layer::BeginCycle,
            Layer::EndCycle,
            Layer::NextEvent,
            Layer::Advance,
            Layer::Post,
            Layer::Policy,
            Layer::Rng,
            Layer::Filter,
            Layer::FilterAdvance,
        ];
        for wrap in [Layer::Tick, Layer::Absorb, Layer::WakeAt] {
            all.extend(AgentKind::ALL.iter().map(|&k| wrap(k)));
        }
        all
    }
}

/// Per-layer sums over one or more runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed, per layer slot.
    pub calls: [u64; N_LAYERS],
    /// Summed span durations (ns), per layer slot.
    pub total_ns: [u64; N_LAYERS],
    /// Summed self times (ns): duration minus child coverage.
    pub self_ns: [u64; N_LAYERS],
    /// `end_cycle` calls that granted the bus.
    pub grants: u64,
}

impl Default for Totals {
    fn default() -> Self {
        Totals::new()
    }
}

impl Totals {
    const fn new() -> Totals {
        Totals {
            calls: [0; N_LAYERS],
            total_ns: [0; N_LAYERS],
            self_ns: [0; N_LAYERS],
            grants: 0,
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Totals) {
        for i in 0..N_LAYERS {
            self.calls[i] += other.calls[i];
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
        }
        self.grants += other.grants;
    }

    /// Calls of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Summed duration of `layer` (ns).
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer.index()]
    }

    /// Summed self time of `layer` (ns).
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }
}

/// One kept span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The `(cell, run)` the span belongs to.
    pub run: (u32, u32),
    /// Span id, unique within its run.
    pub id: u32,
    /// The enclosing span's id; `None` for the run's root span.
    pub parent: Option<u32>,
    /// What the span covers.
    pub layer: Layer,
    /// Start, in ns since the process's trace epoch.
    pub start_ns: u64,
    /// End, in ns since the process's trace epoch.
    pub end_ns: u64,
}

struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    id: u32,
    parent: Option<u32>,
}

/// Spans a kept run records beyond its root span and the root's
/// children, which are always kept; deeper spans past the cap are summed
/// but not kept.
const MAX_KEPT: usize = 100_000;

struct Recorder {
    stack: Vec<Open>,
    totals: Totals,
    keep: bool,
    run: (u32, u32),
    next_id: u32,
    spans: Vec<SpanRecord>,
}

impl Recorder {
    const fn new() -> Recorder {
        Recorder {
            stack: Vec::new(),
            totals: Totals::new(),
            keep: false,
            run: (0, 0),
            next_id: 0,
            spans: Vec::new(),
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const { RefCell::new(Recorder::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Starts recording run `(cell, run)` on this thread, discarding any
/// state a previous run left. With `keep`, every span of the run is kept
/// as a [`SpanRecord`] besides being summed.
pub fn begin_run(run: (u32, u32), keep: bool) {
    epoch();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        *r = Recorder {
            keep,
            run,
            ..Recorder::new()
        };
    });
}

/// Ends the current run and hands back its sums and kept spans.
///
/// # Panics
///
/// Panics if a span is still open (a proxy bug).
pub fn end_run() -> (Totals, Vec<SpanRecord>) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "a span is still open at end of run");
        let r = std::mem::replace(&mut *r, Recorder::new());
        (r.totals, r.spans)
    })
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    enter(layer);
    let out = f();
    exit();
    out
}

/// Counts one bus grant.
pub fn count_grant() {
    RECORDER.with(|r| r.borrow_mut().totals.grants += 1);
}

fn enter(layer: Layer) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.stack.last().map(|o| o.id);
        r.stack.push(Open {
            layer,
            start: Instant::now(),
            child_ns: 0,
            id,
            parent,
        });
    });
}

fn exit() {
    let end = Instant::now();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let open = r.stack.pop().expect("span exit without enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let l = open.layer.index();
        r.totals.calls[l] += 1;
        r.totals.total_ns[l] += dur;
        r.totals.self_ns[l] += dur.saturating_sub(open.child_ns);
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur;
        }
        if r.keep && (r.stack.len() <= 1 || r.spans.len() < MAX_KEPT) {
            let base = epoch();
            let run = r.run;
            r.spans.push(SpanRecord {
                run,
                id: open.id,
                parent: open.parent,
                layer: open.layer,
                start_ns: open.start.duration_since(base).as_nanos() as u64,
                end_ns: end.duration_since(base).as_nanos() as u64,
            });
        }
    });
}

/// Writes `spans` as tab-separated lines (`cell run id parent name
/// start_ns end_ns`, parent `-` for a root) to `path`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "cell\trun\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.run.0,
            s.run.1,
            s.id,
            parent,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        begin_run((3, 1), true);
        span(Layer::Run, || {
            span(Layer::Engine, || {
                span(Layer::BeginCycle, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                span(Layer::Post, || ());
            });
        });
        let (t, spans) = end_run();
        assert_eq!(t.calls(Layer::Run), 1);
        assert_eq!(t.calls(Layer::BeginCycle), 1);
        let engine_children = t.total_ns(Layer::BeginCycle) + t.total_ns(Layer::Post);
        assert_eq!(
            t.self_ns(Layer::Engine),
            t.total_ns(Layer::Engine) - engine_children
        );
        assert!(t.total_ns(Layer::BeginCycle) >= 2_000_000);
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.layer == Layer::Run).unwrap();
        assert_eq!(root.parent, None);
        assert!(spans
            .iter()
            .all(|s| s.run == (3, 1) && s.end_ns >= s.start_ns));
        let engine = spans.iter().find(|s| s.layer == Layer::Engine).unwrap();
        assert_eq!(engine.parent, Some(root.id));
    }

    #[test]
    fn layer_slots_are_distinct() {
        let all = Layer::all();
        assert_eq!(all.len(), N_LAYERS);
        for (i, l) in all.iter().enumerate() {
            assert_eq!(l.index(), i, "{}", l.name());
        }
    }
}
