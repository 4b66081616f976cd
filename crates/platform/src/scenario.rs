//! Scenario files: declarative campaign grids.
//!
//! The paper's evaluation is a grid — {RP, CBA, H-CBA} × {ISO, CON} ×
//! benchmarks × 1,000 runs — and the north star asks for "as many
//! scenarios as you can imagine". Hand-writing a Rust driver per grid
//! point does not scale, so this module turns a **scenario file** (a
//! dependency-free, line-oriented text format; see `scenarios/README.md`
//! at the repository root) into a batch of [`RunSpec`]s:
//!
//! * [`ScenarioDef::parse`] reads the format: `[section]` headers with
//!   `key = value` lines, `#` comments;
//! * the `[sweep]` section declares **axes** whose cross-product is
//!   materialized by [`ScenarioDef::expand`] into [`Cell`]s, each with a
//!   stable per-cell seed derived from the master seed and the axis
//!   indices;
//! * [`crate::report::run_scenario`] runs every (cell, run) task on one
//!   shared executor pool and aggregates the per-cell reports.
//!
//! Every key of the format is one entry of a single key table: its
//! section and name, its sweep-axis name if it can be swept, one setter
//! that parses, checks and stores a value, and one renderer of its
//! canonical line. Parsing, [`ScenarioDef::render`] (and so the journal
//! key [`ScenarioDef::scenario_hash`]), sweep axes, unknown-key messages
//! and [`section_key_names`] all read that table, so a swept value goes
//! through the same setter as a file line. Only `[sweep]` itself and the
//! axis-only shorthands `setup` and `weights` are dedicated code.
//!
//! The format is deliberately not TOML/YAML/JSON: the workspace builds
//! offline with zero external crates (the same constraint that motivated
//! the in-tree RNG), and the subset needed here — sections, scalar keys,
//! comma-separated sweep lists — fits in a small hand-rolled parser with
//! line-accurate error messages.
//!
//! # Example
//!
//! ```
//! use cba_platform::scenario::ScenarioDef;
//!
//! let def = ScenarioDef::parse(
//!     "[campaign]\n\
//!      name = demo\n\
//!      runs = 3\n\
//!      seed = 7\n\
//!      [tua]\n\
//!      load = fixed:100:6:4\n\
//!      [contenders]\n\
//!      scenario = con\n\
//!      wcet = off\n\
//!      [sweep]\n\
//!      setup = rp,cba\n\
//!      duration = 5,56\n",
//! )?;
//! let cells = def.expand()?;
//! assert_eq!(cells.len(), 4); // 2 setups x 2 durations
//! assert_eq!(cells[0].labels, vec![
//!     ("setup".to_string(), "RP".to_string()),
//!     ("duration".to_string(), "5".to_string()),
//! ]);
//! # Ok::<(), cba_platform::scenario::ScenarioError>(())
//! ```

use crate::config::{FabricTopology, PlatformConfig};
use crate::platform::{CoreLoad, DriveMode, RunSpec, Scenario, StopCondition};
use cba::CreditConfig;
use cba_bus::PolicyKind;
use cba_mem::coherence::SHARED_LINE_BYTES;
use cba_mem::{HierarchyConfig, LatencyModel, MemoryConfig};
use cba_workloads::{profile_by_name, EembcProfile};
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// A parse, expansion or execution error, with the scenario-file line
/// number when one is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number in the scenario file, if attributable.
    pub line: Option<usize>,
    /// What went wrong.
    pub msg: String,
}

impl ScenarioError {
    fn at(line: usize, msg: impl Into<String>) -> Self {
        ScenarioError {
            line: Some(line),
            msg: msg.into(),
        }
    }

    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ScenarioError {
            line: None,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// What runs on core 0 (the task under analysis).
#[derive(Debug, Clone, PartialEq)]
pub enum TuaSpec {
    /// A load in the spec mini-language (`bench:NAME`, `fixed:R:D:G`,
    /// `sat:D`, `per:D:P:PH`, `stream:A`, `idle`).
    Load(String),
    /// A catalog benchmark profile with optional knob overrides
    /// (`accesses`, `burst`, `gap`, `between`, `p_store`, ...), applied in
    /// order at build time.
    Profile {
        /// Catalog benchmark name (see `cba_workloads::suite`).
        name: String,
        /// `(knob, raw value)` overrides.
        overrides: Vec<(String, String)>,
    },
    /// An explicit profile, for programmatic definitions (the experiment
    /// drivers); not produced by the parser.
    Inline(EembcProfile),
}

/// Co-runner placement for cores `1..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContenderSpec {
    /// Every other core idle.
    Isolation,
    /// WCET-style maximum contention: saturating contenders (duration
    /// `MaxL`, or the template's `duration` override) on every other core.
    MaxContention,
    /// Explicit load specs for cores `1..n`, in order.
    Custom(Vec<String>),
    /// One load spec replicated onto every other core (sweep-friendly:
    /// stays valid when a `cores` axis changes `n`).
    Fill(String),
}

/// WCET-estimation-mode selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcetSpec {
    /// On exactly when the contender scenario is `con` (the paper's
    /// convention: maximum contention is the WCET-estimation setup).
    Auto,
    /// Force WCET-estimation mode.
    On,
    /// Force operation mode.
    Off,
}

/// The `[topology]` section: a hierarchical multi-bus fabric instead of
/// the flat shared bus (see `cba_bus::fabric`). The core count is derived
/// (`clusters * cores_per_cluster`); the `[platform]` `policy` is the
/// default for both segment policies and the `[platform]` `cba` the
/// default for the backbone filter, so `setup`/`cba`/`weights` sweep axes
/// reshape the *backbone* sharing of a fabric scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyTemplate {
    /// Number of cluster buses (default 2).
    pub clusters: usize,
    /// Cores on each cluster bus (default 4).
    pub cores_per_cluster: usize,
    /// Bridge store-and-forward delay per direction (default 2).
    pub bridge_latency: u32,
    /// Bridge request/response queue capacity (default 2).
    pub bridge_depth: usize,
    /// Cluster-bus policy override (default: the `[platform]` policy).
    pub cluster_policy: Option<String>,
    /// Cluster-bus credit-filter spec, sized for `cores_per_cluster`
    /// (default `none`).
    pub cluster_cba: String,
    /// Per-core budget-cap multipliers for the cluster filters
    /// (`2:1:1:1` style).
    pub cluster_caps: Option<String>,
    /// Backbone policy override (default: the `[platform]` policy).
    pub backbone_policy: Option<String>,
    /// Backbone credit-filter spec, sized for `clusters` (default: the
    /// `[platform]` cba spec).
    pub backbone_cba: Option<String>,
    /// Per-bridge budget-cap multipliers for the backbone filter. Cap
    /// headroom lets a heavy cluster bank credit and reclaim scheduling
    /// slots it would otherwise lose to quantization (see
    /// `scenarios/fabric_fairness.scn`).
    pub backbone_caps: Option<String>,
}

impl Default for TopologyTemplate {
    fn default() -> Self {
        TopologyTemplate {
            clusters: 2,
            cores_per_cluster: 4,
            bridge_latency: 2,
            bridge_depth: 2,
            cluster_policy: None,
            cluster_cba: "none".into(),
            cluster_caps: None,
            backbone_policy: None,
            backbone_cba: None,
            backbone_caps: None,
        }
    }
}

/// The per-cell run template: every scenario key with its default. Sweep
/// axes override fields of a clone of this template per grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Core count (default 4, the paper's platform).
    pub cores: usize,
    /// Arbitration policy name (default `rp`).
    pub policy: String,
    /// Credit-filter spec: `none`, `homog`, `hcba`, or `w:3:1:1:1`
    /// (default `none`).
    pub cba: String,
    /// Optional per-core budget-cap multipliers, `2:1:1:1` style.
    pub caps: Option<String>,
    /// Drive arbitration randomness from the LFSR bank (default on).
    pub lfsr: bool,
    /// Cycle engine: `events` (fast path with limit-cycle fast-forward,
    /// default) or `naive` (per-cycle reference loop, for debugging —
    /// results are bit-identical).
    pub engine: String,
    /// Core-0 load (default `bench:rspeed`).
    pub tua: TuaSpec,
    /// Co-runner placement (default `con`).
    pub contenders: ContenderSpec,
    /// Saturating-contender duration override for `con` (default: MaxL).
    pub duration: Option<u32>,
    /// WCET-estimation-mode selection (default auto).
    pub wcet: WcetSpec,
    /// Stop condition: `tua`, `all` or `horizon:N` (default `tua`).
    pub stop: String,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Record the full grant trace (burst/starvation metrics).
    pub trace: bool,
    /// Hierarchical-fabric topology (`[topology]` section); `None` = the
    /// flat shared bus. With a topology, `cores` is derived from it.
    pub topology: Option<TopologyTemplate>,
    /// Miss-stream configuration (`[memory]` section) for the `mem` /
    /// `shared` agent kinds; `None` = no memory agents allowed.
    pub memory: Option<MemoryConfig>,
}

impl Default for Template {
    fn default() -> Self {
        Template {
            cores: 4,
            policy: "rp".into(),
            cba: "none".into(),
            caps: None,
            lfsr: true,
            engine: "events".into(),
            tua: TuaSpec::Load("bench:rspeed".into()),
            contenders: ContenderSpec::MaxContention,
            duration: None,
            wcet: WcetSpec::Auto,
            stop: "tua".into(),
            max_cycles: 50_000_000,
            trace: false,
            topology: None,
            memory: None,
        }
    }
}

/// One sweep-axis value.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// A raw string from the file, interpreted per axis key.
    Raw(String),
    /// An explicit benchmark profile (programmatic definitions only; used
    /// by the experiment drivers to sweep ad-hoc profiles).
    Profile(EembcProfile),
}

impl AxisValue {
    /// The raw text of this value (a profile renders as its name).
    pub fn raw(&self) -> &str {
        match self {
            AxisValue::Raw(s) => s,
            AxisValue::Profile(p) => p.name,
        }
    }
}

/// One sweep axis: a key and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Sweep key (the `[sweep]` entry of [`section_key_names`]).
    pub key: String,
    /// The axis values, in declaration order.
    pub values: Vec<AxisValue>,
}

/// Report shaping: normalization baseline, percentiles, and windowed
/// fairness.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// Axis selector of the normalization baseline, e.g.
    /// `[("setup", "rp"), ("scenario", "iso")]`: within each group of
    /// cells agreeing on every *other* axis, means are divided by the
    /// mean of the cell matching this selector. Empty = no normalization.
    pub baseline: Vec<(String, String)>,
    /// Report quantiles, as fractions in `[0, 1]`.
    pub percentiles: Vec<f64>,
    /// Attach a windowed-fairness probe splitting each run's horizon
    /// into this many equal windows (`windows = N`; requires a
    /// `horizon:` stop it divides evenly). Per-window Jain indices and
    /// core shares surface as extra report columns.
    pub windows: Option<u32>,
    /// Per-run exceedance probabilities for pWCET tail columns
    /// (`pwcet = 1e-9,1e-12`): each cell's latency samples get the full
    /// MBPTA treatment (iid battery + Gumbel block-maxima fit) and the
    /// report grows `pwcet@P`, Gumbel-fit, and iid-verdict columns.
    /// Empty = no pWCET analysis.
    pub pwcet: Vec<f64>,
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            baseline: Vec::new(),
            percentiles: vec![0.50, 0.95, 0.99],
            windows: None,
            pwcet: Vec::new(),
        }
    }
}

/// The `[checkpoint]` section: crash-safety knobs for long campaigns.
///
/// `dir` names where the journal of completed cells lives (overridable by
/// `cba_sim --checkpoint`); the budgets bound runaway cells. The cycle
/// budget is deterministic (it caps the simulated-cycle count, so it
/// trips identically on every host and thread count); the wall-clock
/// budget is inherently host-dependent and therefore breaks the
/// bit-identical determinism contract — reach for it only when a
/// campaign must survive truly pathological cells.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointSpec {
    /// Default checkpoint directory (`None` = checkpointing off unless
    /// the CLI passes `--checkpoint DIR`).
    pub dir: Option<String>,
    /// Wall-clock budget per cell, in milliseconds: once a cell has been
    /// executing this long, its remaining runs are skipped and the cell
    /// reports [`CellOutcome::Budget`](crate::report::CellOutcome).
    /// **Non-deterministic** — see the type docs.
    pub cell_budget_ms: Option<u64>,
    /// Simulated-cycle budget per run: caps each run's `max_cycles`, so a
    /// run that would exceed it stops there, counts as unfinished, and
    /// marks the cell [`CellOutcome::Budget`](crate::report::CellOutcome).
    /// Deterministic.
    pub run_budget_cycles: Option<u64>,
}

impl CheckpointSpec {
    /// True when every key is at its default (the section renders only
    /// when this is false, keeping pre-checkpoint scenario renders
    /// byte-identical).
    pub fn is_default(&self) -> bool {
        *self == CheckpointSpec::default()
    }
}

/// A parsed (or programmatically built) scenario: campaign metadata, the
/// run template, the sweep axes and the report shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDef {
    /// Campaign name (report label).
    pub name: String,
    /// Monte-Carlo runs per cell.
    pub runs: usize,
    /// Master seed; per-cell seeds derive from it and the axis indices.
    pub seed: u64,
    /// Worker threads per campaign (`None` = auto).
    pub threads: Option<usize>,
    /// The per-cell run template.
    pub template: Template,
    /// Sweep axes, outermost first (the last axis varies fastest).
    pub axes: Vec<Axis>,
    /// Report shaping.
    pub report: ReportSpec,
    /// Crash-safety knobs (`[checkpoint]` section).
    pub checkpoint: CheckpointSpec,
}

/// One materialized grid point.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `(axis key, canonical value label)` pairs, in axis order.
    pub labels: Vec<(String, String)>,
    /// Axis indices of this point.
    pub indices: Vec<usize>,
    /// The campaign seed for this cell.
    pub seed: u64,
    /// The fully built run specification.
    pub spec: RunSpec,
}

impl Cell {
    /// The label of axis `key`, if this cell has that axis.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl Default for ScenarioDef {
    fn default() -> Self {
        ScenarioDef {
            name: "unnamed".into(),
            runs: 30,
            seed: 2017,
            threads: None,
            template: Template::default(),
            axes: Vec::new(),
            report: ReportSpec::default(),
            checkpoint: CheckpointSpec::default(),
        }
    }
}

/// How a key's value is stored. A setter gets the key name, for its
/// messages, and the value text.
#[derive(Clone, Copy)]
enum Set {
    /// A campaign-wide key of the [`ScenarioDef`]; never swept.
    Def(fn(&mut ScenarioDef, &str, &str) -> Result<(), String>),
    /// A per-cell [`Template`] key.
    Tpl(fn(&mut Template, &str, &str) -> Result<(), String>),
    /// A `[tua]` profile knob: applied to the TuA's profile (see
    /// [`set_knob`]).
    Knob(KnobFn),
}

type KnobFn = fn(&mut EembcProfile, &str, &str) -> Result<(), String>;
use Set::{Def, Knob, Tpl};

/// One `.scn` key: the single place that says what it is and means.
struct Key {
    /// `(section, key name, sweep-axis name)`; the axis is `None` for a
    /// key that cannot be swept.
    at: (&'static str, &'static str, Option<&'static str>),
    /// Parses, checks and stores a value. A file line and a swept value
    /// go through the same setter.
    set: Set,
    /// Writes the key's canonical `key = value` line, or nothing when the
    /// value is unset (knob lines are written by `profile`, in file order).
    render: fn(&ScenarioDef, &str, &mut String),
}

impl Key {
    /// Stores a value of a per-cell key on `t`.
    fn set_cell(&self, t: &mut Template, value: &str) -> Result<(), String> {
        match self.set {
            Def(_) => unreachable!("campaign-wide keys have no template field"),
            Tpl(set) => set(t, self.at.1, value),
            Knob(apply) => set_knob(t, self.at.1, value, apply),
        }
    }
}

/// The sections, in canonical render order.
const SECTIONS: [&str; 9] = [
    "campaign",
    "platform",
    "topology",
    "memory",
    "tua",
    "contenders",
    "sweep",
    "report",
    "checkpoint",
];

/// The key table: every `.scn` key once, grouped by section in
/// [`SECTIONS`] order and in canonical render order within a section.
/// `[sweep]` has no entries: its keys are the axis names below plus the
/// shorthands `setup` and `weights`.
static KEYS: &[Key] = &[
    Key {
        at: ("campaign", "name", None),
        set: Def(|d, _, v| text(v).map(|s| d.name = s)),
        render: |d, k, o| put(o, k, Some(&d.name)),
    },
    Key {
        at: ("campaign", "runs", None),
        set: Def(|d, k, v| positive(v, k).map(|n| d.runs = n)),
        render: |d, k, o| put(o, k, Some(d.runs)),
    },
    Key {
        at: ("campaign", "seed", None),
        set: Def(|d, k, v| num(v, k).map(|n| d.seed = n)),
        render: |d, k, o| put(o, k, Some(d.seed)),
    },
    Key {
        // 0 = auto.
        at: ("campaign", "threads", None),
        set: Def(|d, k, v| num(v, k).map(|n: usize| d.threads = (n > 0).then_some(n))),
        render: |d, k, o| put(o, k, Some(d.threads.unwrap_or(0))),
    },
    Key {
        at: ("platform", "cores", Some("cores")),
        set: Tpl(|t, k, v| num(v, k).map(|n| t.cores = n)),
        render: |d, k, o| put(o, k, Some(d.template.cores)),
    },
    Key {
        at: ("platform", "policy", Some("policy")),
        set: Tpl(|t, _, v| parse_policy(v).map(|_| t.policy = v.into())),
        render: |d, k, o| put(o, k, Some(&d.template.policy)),
    },
    Key {
        at: ("platform", "cba", Some("cba")),
        set: Tpl(|t, _, v| text(v).map(|s| t.cba = s)),
        render: |d, k, o| put(o, k, Some(&d.template.cba)),
    },
    Key {
        at: ("platform", "caps", Some("caps")),
        set: Tpl(|t, _, v| text(v).map(|s| t.caps = Some(s))),
        render: |d, k, o| put(o, k, d.template.caps.as_ref()),
    },
    Key {
        at: ("platform", "lfsr", None),
        set: Tpl(|t, k, v| switch(v, k).map(|b| t.lfsr = b)),
        render: |d, k, o| put(o, k, Some(on_off(d.template.lfsr))),
    },
    Key {
        at: ("platform", "engine", None),
        set: Tpl(|t, _, v| parse_engine(v).map(|_| t.engine = v.into())),
        render: |d, k, o| put(o, k, Some(&d.template.engine)),
    },
    Key {
        at: ("topology", "clusters", Some("clusters")),
        set: Tpl(|t, k, v| positive(v, k).map(|n| topo(t).clusters = n)),
        render: |d, k, o| put(o, k, topo_of(d).map(|x| x.clusters)),
    },
    Key {
        at: ("topology", "cores_per_cluster", None),
        set: Tpl(|t, k, v| positive(v, k).map(|n| topo(t).cores_per_cluster = n)),
        render: |d, k, o| put(o, k, topo_of(d).map(|x| x.cores_per_cluster)),
    },
    Key {
        at: ("topology", "bridge_latency", Some("bridge_latency")),
        set: Tpl(|t, k, v| nonzero(v, k, "be at least 1").map(|n| topo(t).bridge_latency = n)),
        render: |d, k, o| put(o, k, topo_of(d).map(|x| x.bridge_latency)),
    },
    Key {
        at: ("topology", "bridge_depth", Some("bridge_depth")),
        set: Tpl(|t, k, v| nonzero(v, k, "be at least 1").map(|n| topo(t).bridge_depth = n)),
        render: |d, k, o| put(o, k, topo_of(d).map(|x| x.bridge_depth)),
    },
    Key {
        at: ("topology", "cluster_policy", None),
        set: Tpl(|t, _, v| parse_policy(v).map(|_| topo(t).cluster_policy = Some(v.into()))),
        render: |d, k, o| put(o, k, topo_of(d).and_then(|x| x.cluster_policy.as_ref())),
    },
    Key {
        at: ("topology", "cluster_cba", Some("cluster_cba")),
        set: Tpl(|t, _, v| text(v).map(|s| topo(t).cluster_cba = s)),
        render: |d, k, o| put(o, k, topo_of(d).map(|x| &x.cluster_cba)),
    },
    Key {
        at: ("topology", "cluster_caps", None),
        set: Tpl(|t, _, v| text(v).map(|s| topo(t).cluster_caps = Some(s))),
        render: |d, k, o| put(o, k, topo_of(d).and_then(|x| x.cluster_caps.as_ref())),
    },
    Key {
        at: ("topology", "backbone_policy", None),
        set: Tpl(|t, _, v| parse_policy(v).map(|_| topo(t).backbone_policy = Some(v.into()))),
        render: |d, k, o| put(o, k, topo_of(d).and_then(|x| x.backbone_policy.as_ref())),
    },
    Key {
        at: ("topology", "backbone_cba", Some("backbone_cba")),
        set: Tpl(|t, _, v| text(v).map(|s| topo(t).backbone_cba = Some(s))),
        render: |d, k, o| put(o, k, topo_of(d).and_then(|x| x.backbone_cba.as_ref())),
    },
    Key {
        at: ("topology", "backbone_caps", None),
        set: Tpl(|t, _, v| text(v).map(|s| topo(t).backbone_caps = Some(s))),
        render: |d, k, o| put(o, k, topo_of(d).and_then(|x| x.backbone_caps.as_ref())),
    },
    Key {
        at: ("memory", "working_set", Some("mem_working_set")),
        set: Tpl(|t, k, v| {
            let bytes = num(v, k)?;
            if bytes < SHARED_LINE_BYTES {
                return Err(format!(
                    "{k} must be at least one {SHARED_LINE_BYTES}-byte line"
                ));
            }
            mem(t).working_set = bytes;
            Ok(())
        }),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.working_set)),
    },
    Key {
        at: ("memory", "accesses", None),
        set: Tpl(|t, k, v| positive(v, k).map(|n| mem(t).accesses = n)),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.accesses)),
    },
    Key {
        at: ("memory", "write_frac", Some("write_frac")),
        set: Tpl(|t, k, v| frac(v, k).map(|f| mem(t).write_frac = f)),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.write_frac)),
    },
    Key {
        at: ("memory", "share_frac", Some("share_frac")),
        set: Tpl(|t, k, v| frac(v, k).map(|f| mem(t).share_frac = f)),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.share_frac)),
    },
    Key {
        at: ("memory", "shared_lines", None),
        set: Tpl(|t, k, v| positive(v, k).map(|n| mem(t).shared_lines = n)),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.shared_lines)),
    },
    Key {
        at: ("memory", "locality", None),
        set: Tpl(|t, k, v| frac(v, k).map(|f| mem(t).locality = f)),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.locality)),
    },
    Key {
        at: ("memory", "think", None),
        set: Tpl(|t, k, v| num(v, k).map(|n| mem(t).think = n)),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.think)),
    },
    Key {
        at: ("memory", "l1_sets", Some("l1_sets")),
        set: Tpl(|t, k, v| num(v, k).map(|n| mem(t).l1_sets = n)),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.l1_sets)),
    },
    Key {
        at: ("memory", "l1_ways", None),
        set: Tpl(|t, k, v| num(v, k).map(|n| mem(t).l1_ways = n)),
        render: |d, k, o| put(o, k, mem_of(d).map(|m| m.l1_ways)),
    },
    Key {
        at: ("tua", "load", Some("tua")),
        set: Tpl(|t, _, v| parse_load_spec(v).map(|_| t.tua = TuaSpec::Load(v.into()))),
        render: |d, k, o| {
            if let TuaSpec::Load(spec) = &d.template.tua {
                put(o, k, Some(spec))
            }
        },
    },
    Key {
        at: ("tua", "profile", Some("bench")),
        set: Tpl(|t, _, v| {
            profile_by_name(v).ok_or_else(|| format!("unknown benchmark profile '{v}'"))?;
            // Keep the knob overrides set so far.
            let overrides = match &mut t.tua {
                TuaSpec::Profile { overrides, .. } => std::mem::take(overrides),
                _ => Vec::new(),
            };
            let name = v.into();
            t.tua = TuaSpec::Profile { name, overrides };
            Ok(())
        }),
        render: |d, k, o| match &d.template.tua {
            TuaSpec::Profile { name, overrides } => {
                put(o, k, Some(name));
                for (knob, value) in overrides {
                    put(o, knob, Some(value));
                }
            }
            TuaSpec::Inline(profile) => put(o, k, Some(profile.name)),
            TuaSpec::Load(_) => {}
        },
    },
    Key {
        at: ("tua", "accesses", Some("accesses")),
        set: Knob(|p, k, v| num(v, k).map(|n| p.accesses = n)),
        render: |_, _, _| {},
    },
    Key {
        at: ("tua", "working_set", Some("working_set")),
        set: Knob(|p, k, v| num(v, k).map(|n| p.working_set = n)),
        render: |_, _, _| {},
    },
    Key {
        at: ("tua", "p_random", Some("p_random")),
        set: Knob(|p, k, v| num(v, k).map(|f| p.p_random = f)),
        render: |_, _, _| {},
    },
    Key {
        at: ("tua", "p_store", Some("p_store")),
        set: Knob(|p, k, v| num(v, k).map(|f| p.p_store = f)),
        render: |_, _, _| {},
    },
    Key {
        at: ("tua", "p_atomic", Some("p_atomic")),
        set: Knob(|p, k, v| num(v, k).map(|f| p.p_atomic = f)),
        render: |_, _, _| {},
    },
    Key {
        at: ("tua", "p_ifetch", Some("p_ifetch")),
        set: Knob(|p, k, v| num(v, k).map(|f| p.p_ifetch = f)),
        render: |_, _, _| {},
    },
    Key {
        at: ("tua", "burst", Some("burst")),
        set: Knob(|p, k, v| range(v, k).map(|r| p.burst_len = r)),
        render: |_, _, _| {},
    },
    Key {
        at: ("tua", "gap", Some("gap")),
        set: Knob(|p, k, v| range(v, k).map(|r| p.within_gap = r)),
        render: |_, _, _| {},
    },
    Key {
        at: ("tua", "between", Some("between")),
        set: Knob(|p, k, v| num(v, k).map(|f| p.between_gap_mean = f)),
        render: |_, _, _| {},
    },
    Key {
        at: ("contenders", "scenario", Some("scenario")),
        set: Tpl(|t, _, v| {
            t.contenders = match v.to_ascii_lowercase().as_str() {
                "iso" => ContenderSpec::Isolation,
                "con" => ContenderSpec::MaxContention,
                // `loads =` may already have set the list.
                "custom" if matches!(t.contenders, ContenderSpec::Custom(_)) => return Ok(()),
                "custom" => ContenderSpec::Custom(Vec::new()),
                other => {
                    return Err(format!(
                        "unknown scenario '{other}' (expected iso, con, custom)"
                    ))
                }
            };
            Ok(())
        }),
        render: |d, k, o| {
            let scenario = match &d.template.contenders {
                ContenderSpec::Isolation => Some("iso"),
                ContenderSpec::MaxContention => Some("con"),
                // A non-empty custom list is the `loads` line.
                ContenderSpec::Custom(specs) if specs.is_empty() => Some("custom"),
                _ => None,
            };
            put(o, k, scenario)
        },
    },
    Key {
        at: ("contenders", "loads", None),
        set: Tpl(|t, _, v| {
            let specs: Vec<String> = v.split(',').map(|s| s.trim().to_string()).collect();
            for s in &specs {
                parse_load_spec(s)?;
            }
            t.contenders = ContenderSpec::Custom(specs);
            Ok(())
        }),
        render: |d, k, o| {
            if let ContenderSpec::Custom(specs) = &d.template.contenders {
                put(o, k, joined(specs))
            }
        },
    },
    Key {
        at: ("contenders", "fill", Some("fill")),
        set: Tpl(|t, _, v| {
            parse_load_spec(v).map(|_| t.contenders = ContenderSpec::Fill(v.into()))
        }),
        render: |d, k, o| {
            if let ContenderSpec::Fill(spec) = &d.template.contenders {
                put(o, k, Some(spec))
            }
        },
    },
    Key {
        at: ("contenders", "duration", Some("duration")),
        set: Tpl(|t, k, v| num(v, k).map(|n| t.duration = Some(n))),
        render: |d, k, o| put(o, k, d.template.duration),
    },
    Key {
        at: ("contenders", "wcet", None),
        set: Tpl(|t, _, v| {
            t.wcet = match v.to_ascii_lowercase().as_str() {
                "auto" => WcetSpec::Auto,
                "on" | "true" => WcetSpec::On,
                "off" | "false" => WcetSpec::Off,
                other => {
                    return Err(format!(
                        "unknown wcet mode '{other}' (expected auto, on, off)"
                    ))
                }
            };
            Ok(())
        }),
        render: |d, k, o| {
            let mode = match d.template.wcet {
                WcetSpec::Auto => "auto",
                WcetSpec::On => "on",
                WcetSpec::Off => "off",
            };
            put(o, k, Some(mode))
        },
    },
    Key {
        at: ("contenders", "stop", None),
        set: Tpl(|t, _, v| parse_stop(v).map(|_| t.stop = v.into())),
        render: |d, k, o| put(o, k, Some(&d.template.stop)),
    },
    Key {
        at: ("contenders", "max_cycles", None),
        set: Tpl(|t, k, v| num(v, k).map(|n| t.max_cycles = n)),
        render: |d, k, o| put(o, k, Some(d.template.max_cycles)),
    },
    Key {
        at: ("contenders", "trace", None),
        set: Tpl(|t, k, v| switch(v, k).map(|b| t.trace = b)),
        render: |d, k, o| put(o, k, Some(on_off(d.template.trace))),
    },
    Key {
        at: ("report", "windows", None),
        set: Def(|d, k, v| positive(v, k).map(|n| d.report.windows = Some(n))),
        render: |d, k, o| put(o, k, d.report.windows),
    },
    Key {
        at: ("report", "baseline", None),
        set: Def(|d, _, v| {
            let pair = |p: &str| match p.split_once('=') {
                Some((axis, value)) => Ok((axis.trim().to_string(), value.trim().to_string())),
                None => Err(format!("baseline entry '{p}' is not 'axis=value'")),
            };
            list(v, pair).map(|pairs| d.report.baseline = pairs)
        }),
        render: |d, k, o| {
            let pairs = d.report.baseline.iter().map(|(a, v)| format!("{a}={v}"));
            put(o, k, joined(pairs))
        },
    },
    Key {
        at: ("report", "percentiles", None),
        set: Def(|d, _, v| {
            let quantile = |p: &str| match p.parse::<f64>() {
                Ok(pct) if (0.0..=100.0).contains(&pct) => Ok(pct / 100.0),
                Ok(pct) => Err(format!("percentile {pct} outside [0, 100]")),
                Err(_) => Err(format!("bad percentile '{p}'")),
            };
            list(v, quantile).map(|qs| d.report.percentiles = qs)
        }),
        render: |d, k, o| {
            let pcts = d.report.percentiles.iter().map(|q| q * 100.0);
            put(o, k, Some(joined(pcts).unwrap_or_default()))
        },
    },
    Key {
        at: ("report", "pwcet", None),
        set: Def(|d, _, v| {
            let probability = |p: &str| match p.parse::<f64>() {
                Ok(prob) if prob > 0.0 && prob < 1.0 => Ok(prob),
                Ok(prob) => Err(format!("pwcet probability {prob} outside (0, 1)")),
                Err(_) => Err(format!("bad pwcet probability '{p}'")),
            };
            list(v, probability).map(|ps| d.report.pwcet = ps)
        }),
        render: |d, k, o| {
            let probabilities = d.report.pwcet.iter().map(|p| format!("{p:e}"));
            put(o, k, joined(probabilities))
        },
    },
    Key {
        at: ("checkpoint", "dir", None),
        set: Def(|d, _, v| text(v).map(|s| d.checkpoint.dir = Some(s))),
        render: |d, k, o| put(o, k, d.checkpoint.dir.as_ref()),
    },
    Key {
        at: ("checkpoint", "cell_budget_ms", None),
        set: Def(|d, k, v| positive(v, k).map(|n| d.checkpoint.cell_budget_ms = Some(n))),
        render: |d, k, o| put(o, k, d.checkpoint.cell_budget_ms),
    },
    Key {
        at: ("checkpoint", "run_budget_cycles", None),
        set: Def(|d, k, v| positive(v, k).map(|n| d.checkpoint.run_budget_cycles = Some(n))),
        render: |d, k, o| put(o, k, d.checkpoint.run_budget_cycles),
    },
];

/// The table entries of `section`: a contiguous run of [`KEYS`].
fn section_keys(section: &str) -> &'static [Key] {
    let mut runs = KEYS.chunk_by(|a, b| a.at.0 == b.at.0);
    runs.find(|run| run[0].at.0 == section).unwrap_or_default()
}

/// Every section of the scenario format with its keys, in canonical
/// order; `[sweep]` lists the sweepable keys.
pub fn section_key_names() -> Vec<(&'static str, Vec<&'static str>)> {
    let names = |s| match s {
        "sweep" => sweep_keys(),
        _ => section_keys(s).iter().map(|k| k.at.1).collect(),
    };
    SECTIONS.into_iter().map(|s| (s, names(s))).collect()
}

/// The sweepable keys: the shorthands `setup` and `weights`, then the
/// axis name of every sweepable table key, in table order.
fn sweep_keys() -> Vec<&'static str> {
    let axes = KEYS.iter().filter_map(|k| k.at.2);
    ["setup", "weights"].into_iter().chain(axes).collect()
}

fn unknown_sweep_key(key: &str) -> String {
    let keys = sweep_keys().join(", ");
    format!("unknown sweep key '{key}' (sweepable keys: {keys})")
}

/// How one sweep axis sets its value on a cell's template, resolved once
/// per [`ScenarioDef::expand`].
#[derive(Clone, Copy)]
enum AxisOp {
    /// `setup = rp|cba|hcba|POLICY[+CBA]`: the policy and filter together.
    Setup,
    /// `weights = 3:1:1:1`: shorthand for `cba = w:3:1:1:1`.
    Weights,
    /// A table key, through the setter its file line uses.
    Key(&'static Key),
}

impl AxisOp {
    fn of(axis: &str) -> Option<AxisOp> {
        match axis {
            "setup" => Some(AxisOp::Setup),
            "weights" => Some(AxisOp::Weights),
            _ => KEYS.iter().find(|k| k.at.2 == Some(axis)).map(AxisOp::Key),
        }
    }

    /// Applies one axis value to a template clone; returns the value's
    /// canonical label for reports and baseline matching.
    fn apply(self, t: &mut Template, axis: &str, value: &AxisValue) -> Result<String, String> {
        // The benchmark axis is the only one accepting explicit profiles.
        if let AxisValue::Profile(profile) = value {
            if axis != "bench" {
                return Err(format!("axis '{axis}' cannot take a profile value"));
            }
            t.tua = TuaSpec::Inline(profile.clone());
            return Ok(profile.name.to_string());
        }
        let v = value.raw();
        let key = match self {
            AxisOp::Setup => return apply_setup(t, v),
            AxisOp::Weights => {
                t.cba = format!("w:{v}");
                return Ok(v.into());
            }
            AxisOp::Key(key) => key,
        };
        let section = key.at.0;
        let missing = match section {
            "topology" => t.topology.is_none(),
            "memory" => t.memory.is_none(),
            _ => false,
        };
        if missing {
            return Err(format!(
                "axis '{axis}' requires a [{section}] section in the scenario"
            ));
        }
        key.set_cell(t, v)?;
        Ok(match axis {
            "scenario" => v.to_ascii_uppercase(),
            "policy" => parse_policy(v)?.name().into(),
            _ => v.into(),
        })
    }
}

/// The `setup` axis: the paper's bus setups by name, or `POLICY` /
/// `POLICY+CBASPEC` (`rr`, `rr+homog`, `lot+w:3:1:1:1`). Returns the label.
fn apply_setup(t: &mut Template, v: &str) -> Result<String, String> {
    let lower = v.to_ascii_lowercase();
    let (policy, cba, label) = match lower.as_str() {
        "rp" => ("rp", "none", "RP"),
        "cba" => ("rp", "homog", "CBA"),
        "hcba" => ("rp", "hcba", "H-CBA"),
        custom => {
            let (policy, cba) = custom.split_once('+').unwrap_or((custom, "none"));
            parse_policy(policy)?;
            (policy, cba, v)
        }
    };
    t.policy = policy.into();
    t.cba = cba.into();
    Ok(label.into())
}

impl ScenarioDef {
    /// Parses the scenario-file format.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] with the offending 1-based line number
    /// for unknown sections/keys, malformed values, or duplicate axes.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut def = ScenarioDef::default();
        let mut section: Option<(&str, &[Key])> = None;
        for (i, raw_line) in text.lines().enumerate() {
            let at = |msg: String| ScenarioError::at(i + 1, msg);
            // Strip comments ('#' to end of line) and whitespace.
            let line = raw_line.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| at("unterminated section header".into()))?
                    .trim()
                    .to_ascii_lowercase();
                let s = SECTIONS.into_iter().find(|s| *s == name).ok_or_else(|| {
                    let (last, rest) = SECTIONS.split_last().expect("sections exist");
                    let rest: Vec<String> = rest.iter().map(|s| format!("[{s}]")).collect();
                    at(format!(
                        "unknown section '[{name}]' (expected {} or [{last}])",
                        rest.join(", ")
                    ))
                })?;
                // An empty [topology] or [memory] section still declares it.
                match s {
                    "topology" => _ = topo(&mut def.template),
                    "memory" => _ = mem(&mut def.template),
                    _ => {}
                }
                section = Some((s, section_keys(s)));
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected 'key = value', got '{line}'")))?;
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            if value.is_empty() {
                return Err(at(format!("key '{key}' has no value")));
            }
            match section {
                None => Err(format!("key '{key}' before any [section] header")),
                Some(("sweep", _)) => def.parse_sweep_key(&key, value),
                Some((s, keys)) => def.set_in(s, keys, &key, value),
            }
            .map_err(at)?;
        }
        Ok(def)
    }

    /// Applies `key = value` as a line of `[section]` would (the CLI's
    /// scenario-file overrides use this).
    ///
    /// # Errors
    ///
    /// The message a scenario file would get for that line, without the
    /// line number.
    pub fn set(&mut self, section: &str, key: &str, value: &str) -> Result<(), String> {
        self.set_in(section, section_keys(section), key, value)
    }

    fn set_in(&mut self, section: &str, keys: &[Key], key: &str, v: &str) -> Result<(), String> {
        let Some(entry) = keys.iter().find(|k| k.at.1 == key) else {
            let names: Vec<&str> = keys.iter().map(|k| k.at.1).collect();
            return Err(format!(
                "unknown [{section}] key '{key}' (expected {})",
                names.join(", ")
            ));
        };
        match entry.set {
            Def(set) => set(self, key, v),
            _ => entry.set_cell(&mut self.template, v),
        }
    }

    fn parse_sweep_key(&mut self, key: &str, value: &str) -> Result<(), String> {
        if AxisOp::of(key).is_none() {
            return Err(unknown_sweep_key(key));
        }
        if self.axes.iter().any(|a| a.key == key) {
            return Err(format!("duplicate sweep axis '{key}'"));
        }
        let values: Vec<AxisValue> = value
            .split(',')
            .map(|v| AxisValue::Raw(v.trim().to_string()))
            .collect();
        if values.iter().any(|v| v.raw().is_empty()) {
            return Err(format!("sweep axis '{key}' has an empty value"));
        }
        self.axes.push(Axis {
            key: key.to_string(),
            values,
        });
        Ok(())
    }

    /// Renders the definition back to canonical scenario-file text:
    /// `parse(render(def)) == def` for any parser-produced definition.
    /// (Programmatic [`TuaSpec::Inline`] / [`AxisValue::Profile`] values
    /// render as their catalog names, which is lossy for ad-hoc profiles.)
    ///
    /// A section is written only when one of its keys emits a line, so
    /// scenarios without the optional sections keep their renders (and
    /// scenario hashes) byte-identical.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for section in SECTIONS {
            let mut body = String::new();
            if section == "sweep" {
                for axis in &self.axes {
                    let values: Vec<&str> = axis.values.iter().map(AxisValue::raw).collect();
                    put(&mut body, &axis.key, Some(values.join(",")));
                }
            }
            for key in section_keys(section) {
                (key.render)(self, key.at.1, &mut body);
            }
            if !body.is_empty() {
                if !out.is_empty() {
                    out.push('\n');
                }
                let _ = write!(out, "[{section}]\n{body}");
            }
        }
        out
    }

    /// A stable content hash of the scenario, keying the checkpoint
    /// journal: resuming validates that the journal on disk was written
    /// by *this* grid before skipping any cell.
    ///
    /// Hashed over the canonical [`render`](Self::render) with `threads`
    /// and the checkpoint `dir` cleared — neither affects results, so a
    /// resume may legitimately change them (`--threads 8` after an
    /// interrupted `--threads 1` run must pick the journal up). Everything
    /// that *does* shape results — seed, runs, template, axes, report
    /// shape, budgets — is included.
    pub fn scenario_hash(&self) -> u64 {
        let mut canon = self.clone();
        canon.threads = None;
        canon.checkpoint.dir = None;
        sim_core::export::fnv1a_64(canon.render().as_bytes())
    }

    /// Number of grid points (product of axis sizes; 1 with no sweep).
    pub fn n_cells(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// The campaign seed for the grid point at `indices`: the master seed
    /// XOR the axis indices packed into 20-bit fields, innermost axis in
    /// the low bits (matching the hand-written experiment drivers' seed
    /// derivation; indices above 2^20 would alias, far beyond any real
    /// grid). Axes beyond the three low fields are mixed in with a
    /// splitmix64 hash of `(axis, index)` instead of a shift, so deep
    /// grids cannot systematically collide with the packed fields.
    pub fn cell_seed(&self, indices: &[usize]) -> u64 {
        let a = indices.len();
        let mut packed = 0u64;
        for (k, &i) in indices.iter().enumerate() {
            let shift = (20 * (a - 1 - k)) as u32;
            if shift <= 40 {
                packed ^= (i as u64) << shift;
            } else {
                let mut z = ((k as u64) << 32) | i as u64;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                packed ^= z ^ (z >> 31);
            }
        }
        self.seed ^ packed
    }

    /// Materializes the cross-product of the sweep axes into run-ready
    /// [`Cell`]s, in row-major order (last axis varies fastest).
    ///
    /// # Errors
    ///
    /// Returns the first axis-application or spec-validation error, named
    /// with the offending cell's labels.
    pub fn expand(&self) -> Result<Vec<Cell>, ScenarioError> {
        let ops = self
            .axes
            .iter()
            .map(|axis| {
                if axis.values.is_empty() {
                    return Err(format!("sweep axis '{}' is empty", axis.key));
                }
                AxisOp::of(&axis.key).ok_or_else(|| unknown_sweep_key(&axis.key))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(ScenarioError::new)?;
        let sizes: Vec<usize> = self.axes.iter().map(|a| a.values.len()).collect();
        let total: usize = sizes.iter().product();
        let mut cells = Vec::with_capacity(total);
        for flat in 0..total {
            let mut indices = vec![0usize; sizes.len()];
            let mut rem = flat;
            for k in (0..sizes.len()).rev() {
                indices[k] = rem % sizes[k];
                rem /= sizes[k];
            }
            let mut template = self.template.clone();
            let mut labels = Vec::with_capacity(sizes.len());
            for ((axis, op), &i) in self.axes.iter().zip(&ops).zip(&indices) {
                let value = &axis.values[i];
                let label = op.apply(&mut template, &axis.key, value).map_err(|e| {
                    ScenarioError::new(format!("axis '{}' value '{}': {e}", axis.key, value.raw()))
                })?;
                labels.push((axis.key.clone(), label));
            }
            let cell_error = |e: String| {
                let cell: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                ScenarioError::new(format!("cell [{}]: {e}", cell.join(", ")))
            };
            let mut spec = template.build().map_err(cell_error)?;
            if self.report.windows.is_some() {
                spec.windows = self.report.windows;
                spec.validate()
                    .map_err(|e| cell_error(format!("[report] windows: {e}")))?;
            }
            cells.push(Cell {
                seed: self.cell_seed(&indices),
                labels,
                indices,
                spec,
            });
        }
        Ok(cells)
    }
}

fn topo(t: &mut Template) -> &mut TopologyTemplate {
    t.topology.get_or_insert_with(Default::default)
}

fn topo_of(d: &ScenarioDef) -> Option<&TopologyTemplate> {
    d.template.topology.as_ref()
}

fn mem(t: &mut Template) -> &mut MemoryConfig {
    t.memory.get_or_insert_with(Default::default)
}

fn mem_of(d: &ScenarioDef) -> Option<&MemoryConfig> {
    d.template.memory.as_ref()
}

/// Writes `key = value` when there is a value.
fn put(out: &mut String, key: &str, value: Option<impl fmt::Display>) {
    if let Some(value) = value {
        let _ = writeln!(out, "{key} = {value}");
    }
}

/// `items` joined with commas, or `None` when there are none.
fn joined<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> Option<String> {
    let parts: Vec<String> = items.into_iter().map(|x| x.to_string()).collect();
    (!parts.is_empty()).then(|| parts.join(","))
}

fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

fn text(value: &str) -> Result<String, String> {
    Ok(value.to_string())
}

fn num<T: FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad number '{value}' for '{what}'"))
}

fn positive<T: FromStr + Default + PartialEq>(value: &str, what: &str) -> Result<T, String> {
    nonzero(value, what, "be positive")
}

/// A number that must not be zero; `rule` words the error ("be positive").
fn nonzero<T: FromStr + Default + PartialEq>(
    value: &str,
    what: &str,
    rule: &str,
) -> Result<T, String> {
    let n = num(value, what)?;
    if n == T::default() {
        return Err(format!("{what} must {rule}"));
    }
    Ok(n)
}

fn frac(value: &str, what: &str) -> Result<f64, String> {
    let f: f64 = value
        .parse()
        .map_err(|_| format!("bad fraction '{value}' for '{what}'"))?;
    if !(0.0..=1.0).contains(&f) {
        return Err(format!("{what} must be within [0, 1], got {f}"));
    }
    Ok(f)
}

fn switch(value: &str, what: &str) -> Result<bool, String> {
    match value.to_ascii_lowercase().as_str() {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        other => Err(format!(
            "bad switch '{other}' for '{what}' (expected on/off)"
        )),
    }
}

/// Parses a comma-separated list, one trimmed item at a time.
fn list<T>(value: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    value.split(',').map(|p| item(p.trim())).collect()
}

/// A `LO:HI` profile-knob range.
fn range(value: &str, what: &str) -> Result<(u32, u32), String> {
    let (lo, hi) = value
        .split_once(':')
        .ok_or_else(|| format!("'{what}' expects 'LO:HI', got '{value}'"))?;
    Ok((num(lo, what)?, num(hi, what)?))
}

/// The setter of a `[tua]` profile knob: on a catalog profile, checks the
/// value and records it as an override (re-applied in order at build
/// time); on an explicit profile, applies it.
fn set_knob(t: &mut Template, knob: &str, value: &str, apply: KnobFn) -> Result<(), String> {
    match &mut t.tua {
        TuaSpec::Profile { name, overrides } => {
            let mut profile = profile_by_name(name)
                .ok_or_else(|| format!("unknown benchmark profile '{name}'"))?;
            apply(&mut profile, knob, value)?;
            overrides.push((knob.to_string(), value.to_string()));
            Ok(())
        }
        TuaSpec::Inline(profile) => apply(profile, knob, value),
        TuaSpec::Load(_) => Err(format!(
            "knob '{knob}' requires a profile-based TuA ('profile = NAME' first in [tua], \
             or a 'bench' axis)"
        )),
    }
}

/// Parses a cycle-engine selector: `events` (the fast path) or `naive`
/// (the per-cycle reference loop), case-insensitively.
pub fn parse_engine(s: &str) -> Result<DriveMode, String> {
    match s.to_ascii_lowercase().as_str() {
        "events" | "fast" => Ok(DriveMode::Events),
        "naive" | "cycle" => Ok(DriveMode::Naive),
        other => Err(format!("unknown engine '{other}' (expected events, naive)")),
    }
}

/// Parses a policy name. Accepts the short CLI forms and the spelled-out
/// aliases (`lottery`, `randperm`, `priority`), case-insensitively.
pub fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "fifo" => Ok(PolicyKind::Fifo),
        "rr" | "roundrobin" => Ok(PolicyKind::RoundRobin),
        "tdma" => Ok(PolicyKind::Tdma),
        "lot" | "lottery" => Ok(PolicyKind::Lottery),
        "rp" | "randperm" => Ok(PolicyKind::RandomPermutation),
        "pri" | "priority" => Ok(PolicyKind::FixedPriority),
        other => Err(format!(
            "unknown policy '{other}' (expected fifo, rr, tdma, lot, rp, pri)"
        )),
    }
}

/// Parses a credit-filter spec for an `n_cores`-core platform:
/// `none`, `homog`, `hcba`, or `w:` followed by `:`- or `,`-separated
/// per-core weight numerators (denominator = their sum).
pub fn parse_cba_spec(
    s: &str,
    n_cores: usize,
    max_latency: u32,
) -> Result<Option<CreditConfig>, String> {
    match s.to_ascii_lowercase().as_str() {
        "none" => Ok(None),
        "homog" => CreditConfig::homogeneous(n_cores, max_latency)
            .map(Some)
            .map_err(|e| e.to_string()),
        "hcba" => {
            if n_cores != 4 {
                return Err(format!(
                    "'hcba' is the paper's 4-core configuration; use 'w:...' weights for \
                     {n_cores} cores"
                ));
            }
            CreditConfig::paper_hcba(max_latency)
                .map(Some)
                .map_err(|e| e.to_string())
        }
        other => {
            let weights = other.strip_prefix("w:").ok_or_else(|| {
                format!("unknown cba spec '{s}' (expected none, homog, hcba, w:...)")
            })?;
            let numerators: Vec<u32> = weights
                .split([':', ','])
                .map(|w| {
                    w.trim()
                        .parse()
                        .map_err(|_| format!("bad weight '{w}' in cba spec '{s}'"))
                })
                .collect::<Result<_, String>>()?;
            if numerators.len() != n_cores {
                return Err(format!(
                    "cba spec '{s}' has {} weights for a {n_cores}-core platform",
                    numerators.len()
                ));
            }
            let denominator = numerators
                .iter()
                .try_fold(0u32, |sum, &w| sum.checked_add(w))
                .ok_or_else(|| format!("weights in cba spec '{s}' overflow their sum"))?;
            CreditConfig::weighted(max_latency, numerators, denominator)
                .map(Some)
                .map_err(|e| e.to_string())
        }
    }
}

/// Parses one load spec of the per-core mini-language shared with
/// `cba_sim --loads`:
///
/// ```text
/// bench:NAME             catalog benchmark through the core model
/// fixed:REQS:DUR:GAP     fixed-request task
/// sat:DUR                saturating contender
/// per:DUR:PERIOD:PHASE   periodic contender
/// stream:ACCESSES        streaming loads
/// idle                   nothing
/// agent:KIND:ARGS...     a user-registered agent kind (resolved against
///                        the AgentRegistry at run-build time)
/// ```
pub fn parse_load_spec(s: &str) -> Result<CoreLoad, String> {
    let parts: Vec<&str> = s.split(':').collect();
    fn field<T: FromStr>(p: &str, what: &str, s: &str) -> Result<T, String> {
        p.parse()
            .map_err(|_| format!("bad {what} '{p}' in load '{s}'"))
    }
    match parts.as_slice() {
        ["idle"] => Ok(CoreLoad::Idle),
        ["bench", name] => Ok(CoreLoad::named(name)),
        ["agent", kind, args @ ..] if !kind.is_empty() => Ok(CoreLoad::Custom {
            kind: kind.to_string(),
            args: args.iter().map(|a| a.to_string()).collect(),
        }),
        ["fixed", r, d, g] => Ok(CoreLoad::FixedTask {
            n_requests: field(r, "request count", s)?,
            duration: field(d, "duration", s)?,
            gap: field(g, "gap", s)?,
        }),
        ["sat", d] => Ok(CoreLoad::Saturating {
            duration: field(d, "duration", s)?,
        }),
        ["per", d, p, ph] => Ok(CoreLoad::Periodic {
            duration: field(d, "duration", s)?,
            period: field(p, "period", s)?,
            phase: field(ph, "phase", s)?,
        }),
        ["stream", a] => Ok(CoreLoad::Streaming {
            accesses: field(a, "access count", s)?,
        }),
        _ => Err(format!(
            "unknown load spec '{s}' (expected bench:NAME, fixed:R:D:G, sat:D, per:D:P:PH, \
             stream:A, idle, agent:KIND:ARGS...)"
        )),
    }
}

fn parse_stop(s: &str) -> Result<StopCondition, String> {
    match s.to_ascii_lowercase().as_str() {
        "tua" => Ok(StopCondition::TuaDone),
        "all" => Ok(StopCondition::AllDone),
        other => {
            let h = other.strip_prefix("horizon:").ok_or_else(|| {
                format!("unknown stop condition '{s}' (expected tua, all, horizon:N)")
            })?;
            let cycles: u64 = h
                .parse()
                .map_err(|_| format!("bad horizon '{h}' in stop condition '{s}'"))?;
            Ok(StopCondition::Horizon(cycles))
        }
    }
}

/// Applies a `2:1:1:1`-style cap-multiplier spec to a segment's credit
/// config (which must exist: caps without a filter are meaningless).
fn apply_caps(cba: Option<CreditConfig>, caps: &str, what: &str) -> Result<CreditConfig, String> {
    let multipliers: Vec<u32> = caps
        .split([':', ','])
        .map(|c| {
            c.trim()
                .parse()
                .map_err(|_| format!("bad cap multiplier '{c}' in {what}"))
        })
        .collect::<Result<_, String>>()?;
    let config = cba.ok_or_else(|| format!("{what} require a credit filter on that segment"))?;
    config
        .with_cap_multipliers(multipliers)
        .map_err(|e| e.to_string())
}

impl TuaSpec {
    /// Resolves this spec into a core-0 [`CoreLoad`].
    pub fn build(&self) -> Result<CoreLoad, String> {
        match self {
            TuaSpec::Load(spec) => parse_load_spec(spec),
            TuaSpec::Profile { name, overrides } => {
                let mut profile = profile_by_name(name)
                    .ok_or_else(|| format!("unknown benchmark profile '{name}'"))?;
                for (knob, value) in overrides {
                    let key = section_keys("tua").iter().find(|k| k.at.1 == knob);
                    match key.map(|k| k.set) {
                        Some(Knob(apply)) => apply(&mut profile, knob, value)?,
                        _ => return Err(format!("unknown profile knob '{knob}'")),
                    }
                }
                profile
                    .validate()
                    .map_err(|e| format!("profile '{name}' invalid after overrides: {e}"))?;
                Ok(CoreLoad::Profile(profile))
            }
            TuaSpec::Inline(profile) => {
                profile
                    .validate()
                    .map_err(|e| format!("inline profile '{}' invalid: {e}", profile.name))?;
                Ok(CoreLoad::Profile(profile.clone()))
            }
        }
    }
}

impl Template {
    /// Builds and validates the full [`RunSpec`] this template describes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field combination
    /// (unknown policy, weight/core-count mismatch, infinite TuA with a
    /// `tua` stop condition, ...).
    pub fn build(&self) -> Result<RunSpec, String> {
        let latency = LatencyModel::paper();
        let maxl = latency.max_latency();
        // With a [topology] the core count is derived from it; the flat
        // `cores` key is ignored (axes reshape the topology directly).
        let max = sim_core::CoreId::MAX_CORES;
        let n = match &self.topology {
            Some(topo) => topo
                .clusters
                .checked_mul(topo.cores_per_cluster)
                .ok_or_else(|| {
                    format!(
                        "core count {} x {} outside 1..={max}",
                        topo.clusters, topo.cores_per_cluster
                    )
                })?,
            None => self.cores,
        };
        if n == 0 || n > max {
            return Err(format!("core count {n} outside 1..={max}"));
        }
        let policy = parse_policy(&self.policy)?;
        let topology = match &self.topology {
            None => None,
            Some(topo) => {
                if self.caps.is_some() {
                    return Err(
                        "caps apply to the flat bus; fabric filters are configured per \
                         segment (cluster_cba / backbone_cba)"
                            .into(),
                    );
                }
                let cluster_policy =
                    parse_policy(topo.cluster_policy.as_deref().unwrap_or(&self.policy))?;
                let backbone_policy =
                    parse_policy(topo.backbone_policy.as_deref().unwrap_or(&self.policy))?;
                let mut cluster_cba =
                    parse_cba_spec(&topo.cluster_cba, topo.cores_per_cluster, maxl)?;
                let mut backbone_cba = parse_cba_spec(
                    topo.backbone_cba.as_deref().unwrap_or(&self.cba),
                    topo.clusters,
                    maxl,
                )?;
                if let Some(caps) = &topo.cluster_caps {
                    cluster_cba = Some(apply_caps(cluster_cba, caps, "cluster_caps")?);
                }
                if let Some(caps) = &topo.backbone_caps {
                    backbone_cba = Some(apply_caps(backbone_cba, caps, "backbone_caps")?);
                }
                Some(FabricTopology {
                    clusters: topo.clusters,
                    cores_per_cluster: topo.cores_per_cluster,
                    bridge_latency: topo.bridge_latency,
                    bridge_depth: topo.bridge_depth,
                    cluster_policy,
                    cluster_cba,
                    backbone_policy,
                    backbone_cba,
                })
            }
        };
        let mut cba = match topology {
            // The flat filter would be ambiguous on a fabric; the backbone
            // filter (defaulted from the same `cba` key) replaces it.
            Some(_) => None,
            None => parse_cba_spec(&self.cba, n, maxl)?,
        };
        if let Some(caps) = &self.caps {
            cba = Some(apply_caps(cba, caps, "caps")?);
        }
        if let Some(mem) = &self.memory {
            mem.validate().map_err(|e| e.to_string())?;
        }
        let platform = PlatformConfig {
            n_cores: n,
            latency,
            hierarchy: HierarchyConfig::paper(),
            policy,
            cba,
            store_buffer: cba_cpu::core::DEFAULT_STORE_BUFFER,
            lfsr_randbank: self.lfsr,
            topology,
            memory: self.memory.clone(),
        };
        let tua = self.tua.build()?;
        let scenario = match &self.contenders {
            ContenderSpec::Isolation => Scenario::Isolation,
            ContenderSpec::MaxContention => match self.duration {
                // Plain `con` delegates to the canonical MaxL contenders.
                None => Scenario::MaxContention,
                Some(d) => {
                    if d > maxl {
                        return Err(format!("contender duration {d} exceeds MaxL {maxl}"));
                    }
                    Scenario::Custom(vec![CoreLoad::Saturating { duration: d }; n - 1])
                }
            },
            ContenderSpec::Custom(specs) => {
                let loads: Vec<CoreLoad> = specs
                    .iter()
                    .map(|s| parse_load_spec(s))
                    .collect::<Result<_, String>>()?;
                Scenario::Custom(loads)
            }
            ContenderSpec::Fill(spec) => {
                let load = parse_load_spec(spec)?;
                Scenario::Custom(vec![load; n - 1])
            }
        };
        let declared_con = matches!(self.contenders, ContenderSpec::MaxContention);
        let mut spec = RunSpec::with_platform(platform, scenario, tua);
        spec.wcet_mode = match self.wcet {
            WcetSpec::Auto => declared_con,
            WcetSpec::On => true,
            WcetSpec::Off => false,
        };
        spec.stop = parse_stop(&self.stop)?;
        spec.max_cycles = self.max_cycles;
        spec.record_trace = self.trace;
        spec.drive = parse_engine(&self.engine)?;
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::StopCondition;

    const MINIMAL: &str = "\
[campaign]
name = mini
runs = 2
seed = 11

[tua]
load = fixed:10:6:4
";

    #[test]
    fn key_table_is_grouped_by_section_without_duplicates() {
        // `section_keys` and `render` rely on each section being one run
        // of the table, in `SECTIONS` order.
        let order: Vec<&str> = KEYS.iter().map(|k| k.at.0).collect();
        let mut sections = order.clone();
        sections.dedup();
        let expected: Vec<&str> = SECTIONS.into_iter().filter(|s| *s != "sweep").collect();
        assert_eq!(sections, expected);
        let mut keys: Vec<_> = KEYS.iter().map(|k| (k.at.0, k.at.1)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), KEYS.len(), "a key appears twice");
        for key in KEYS {
            let campaign_wide = matches!(key.set, Def(_));
            assert!(
                !(campaign_wide && key.at.2.is_some()),
                "{:?} is swept",
                key.at
            );
        }
        let mut axes = sweep_keys();
        axes.sort();
        axes.dedup();
        assert_eq!(axes.len(), sweep_keys().len(), "an axis name appears twice");
    }

    #[test]
    fn minimal_file_gets_defaults() {
        let def = ScenarioDef::parse(MINIMAL).unwrap();
        assert_eq!(def.name, "mini");
        assert_eq!(def.runs, 2);
        assert_eq!(def.seed, 11);
        assert_eq!(def.threads, None);
        assert_eq!(def.template.cores, 4);
        assert_eq!(def.template.policy, "rp");
        assert_eq!(def.template.cba, "none");
        assert!(def.template.lfsr);
        assert_eq!(def.template.contenders, ContenderSpec::MaxContention);
        assert_eq!(def.n_cells(), 1);
        let cells = def.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seed, 11);
        assert!(cells[0].labels.is_empty());
        assert!(cells[0].spec.wcet_mode, "con defaults to WCET mode");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header comment\n\n[campaign]\nname = c # trailing comment\nruns = 1\n\n[tua]\nload = idle # idle TuA\n[contenders]\nstop = horizon:100\n";
        let def = ScenarioDef::parse(text).unwrap();
        assert_eq!(def.name, "c");
        let cells = def.expand().unwrap();
        assert_eq!(cells[0].spec.stop, StopCondition::Horizon(100));
    }

    #[test]
    fn sweep_cross_product_order_and_seeds() {
        let text = "\
[campaign]
seed = 0
[tua]
load = fixed:10:6:4
[sweep]
setup = rp,cba,hcba
scenario = iso,con
";
        let def = ScenarioDef::parse(text).unwrap();
        let cells = def.expand().unwrap();
        assert_eq!(cells.len(), 6);
        // Last axis varies fastest.
        let labels: Vec<(String, String)> = cells
            .iter()
            .map(|c| {
                (
                    c.label("setup").unwrap().to_string(),
                    c.label("scenario").unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(labels[0], ("RP".to_string(), "ISO".to_string()));
        assert_eq!(labels[1], ("RP".to_string(), "CON".to_string()));
        assert_eq!(labels[2], ("CBA".to_string(), "ISO".to_string()));
        assert_eq!(labels[5], ("H-CBA".to_string(), "CON".to_string()));
        // Seeds pack indices into 20-bit fields, innermost low.
        assert_eq!(cells[0].seed, 0);
        assert_eq!(cells[1].seed, 1);
        assert_eq!(cells[2].seed, 1 << 20);
        assert_eq!(cells[5].seed, (2 << 20) | 1);
        // The setup axis actually changes the platform.
        assert!(cells[0].spec.platform.cba.is_none());
        assert!(cells[2].spec.platform.cba.is_some());
    }

    #[test]
    fn three_axis_seed_matches_fig1_packing() {
        let def = ScenarioDef {
            seed: 2017,
            ..ScenarioDef::default()
        };
        assert_eq!(
            def.cell_seed(&[3, 2, 1]),
            2017 ^ ((3u64 << 40) | (2 << 20) | 1)
        );
    }

    #[test]
    fn deep_grids_do_not_alias_cell_seeds() {
        let def = ScenarioDef {
            seed: 0,
            ..ScenarioDef::default()
        };
        // 4 axes: the outermost would shift past 2^60 and wrap; the hash
        // path must keep all seeds distinct.
        let mut seen = std::collections::HashSet::new();
        for outer in 0..20usize {
            for inner in 0..4usize {
                assert!(
                    seen.insert(def.cell_seed(&[outer, 0, 0, inner])),
                    "seed collision at outer={outer} inner={inner}"
                );
            }
        }
        // 5 axes: two hashed fields must not cancel into a packed one.
        assert_ne!(
            def.cell_seed(&[16, 0, 0, 0, 0]),
            def.cell_seed(&[0, 0, 0, 1, 0])
        );
        // The 3-axis fast path is unchanged by the deep-grid handling.
        assert_eq!(def.cell_seed(&[1, 2, 3]), (1 << 40) | (2 << 20) | 3);
    }

    #[test]
    fn weights_cores_and_duration_axes() {
        let text = "\
[campaign]
runs = 1
[platform]
policy = rr
[tua]
load = fixed:10:5:0
[contenders]
wcet = off
[sweep]
cores = 2,4
weights = 1:1,3:1
duration = 5,56
";
        let def = ScenarioDef::parse(text).unwrap();
        // weights 1:1 / 3:1 are 2-core configs: 4-core cells must fail.
        let err = def.expand().unwrap_err();
        assert!(err.msg.contains("weights"), "{err}");
        let text2 = text.replace("cores = 2,4", "cores = 2");
        let cells = ScenarioDef::parse(&text2).unwrap().expand().unwrap();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert_eq!(cell.spec.platform.n_cores, 2);
            assert!(cell.spec.platform.cba.is_some());
            assert!(!cell.spec.wcet_mode);
        }
        // The duration axis replaces MaxL contenders.
        match &cells[0].spec.loads[1] {
            CoreLoad::Saturating { duration } => assert_eq!(*duration, 5),
            other => panic!("expected saturating contender, got {other:?}"),
        }
    }

    #[test]
    fn profile_knobs_apply_in_order() {
        let text = "\
[campaign]
runs = 1
[tua]
profile = matrix
accesses = 500
burst = 2:4
[contenders]
scenario = iso
";
        let def = ScenarioDef::parse(text).unwrap();
        let cells = def.expand().unwrap();
        match &cells[0].spec.loads[0] {
            CoreLoad::Profile(p) => {
                assert_eq!(p.name, "matrix");
                assert_eq!(p.accesses, 500);
                assert_eq!(p.burst_len, (2, 4));
            }
            other => panic!("expected profile TuA, got {other:?}"),
        }
    }

    #[test]
    fn bench_axis_preserves_tua_knobs() {
        let text = "\
[campaign]
runs = 1
[tua]
profile = matrix
accesses = 300
[sweep]
bench = rspeed,tblook
";
        let cells = ScenarioDef::parse(text).unwrap().expand().unwrap();
        for (cell, name) in cells.iter().zip(["rspeed", "tblook"]) {
            match &cell.spec.loads[0] {
                CoreLoad::Profile(p) => {
                    assert_eq!(p.name, name);
                    assert_eq!(p.accesses, 300, "knob override must survive the bench axis");
                }
                other => panic!("expected profile, got {other:?}"),
            }
        }
    }

    #[test]
    fn fill_replicates_across_cores() {
        let text = "\
[campaign]
runs = 1
[tua]
load = fixed:10:5:0
[contenders]
fill = per:28:90:0
wcet = off
[sweep]
cores = 2,8
";
        let cells = ScenarioDef::parse(text).unwrap().expand().unwrap();
        assert_eq!(cells[0].spec.loads.len(), 2);
        assert_eq!(cells[1].spec.loads.len(), 8);
        assert!(matches!(
            cells[1].spec.loads[7],
            CoreLoad::Periodic { duration: 28, .. }
        ));
    }

    #[test]
    fn caps_require_a_filter_and_apply() {
        let text = "\
[campaign]
runs = 1
[platform]
cba = homog
caps = 2:1:1:1
[tua]
load = fixed:10:5:0
";
        let cells = ScenarioDef::parse(text).unwrap().expand().unwrap();
        let cba = cells[0].spec.platform.cba.as_ref().unwrap();
        assert_eq!(cba.scheme_name(), "CBA-cap");

        let text2 = text.replace("cba = homog\n", "");
        let err = ScenarioDef::parse(&text2).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("caps require a credit filter"), "{err}");
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = ScenarioDef::parse("[campaign]\nruns = many\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("bad number 'many'"), "{err}");

        let err = ScenarioDef::parse("[nope]\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.msg.contains("unknown section"), "{err}");

        let err = ScenarioDef::parse("[campaign]\nname= x\n[sweep]\nwarp = 1,2\n").unwrap_err();
        assert_eq!(err.line, Some(4));
        assert!(err.msg.contains("unknown sweep key 'warp'"), "{err}");

        let err = ScenarioDef::parse("runs = 3\n").unwrap_err();
        assert!(err.msg.contains("before any [section]"), "{err}");

        let err = ScenarioDef::parse("[sweep]\ncores = 2,4\ncores = 8\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.msg.contains("duplicate sweep axis"), "{err}");

        let err = ScenarioDef::parse("[campaign]\nname\n").unwrap_err();
        assert!(err.msg.contains("expected 'key = value'"), "{err}");

        let err = ScenarioDef::parse("[campaign]\nruns = 0\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("runs must be positive"), "{err}");

        let err = ScenarioDef::parse("[tua]\nload = warp:9\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("unknown load spec"), "{err}");
    }

    #[test]
    fn render_round_trips() {
        let text = "\
[campaign]
name = rt
runs = 7
seed = 3
threads = 2
[platform]
cores = 8
policy = rr
cba = w:1:1:1:1:1:1:1:1
lfsr = off
[tua]
profile = matrix
accesses = 500
[contenders]
fill = sat:28
wcet = off
stop = horizon:5000
max_cycles = 100000
trace = on
[sweep]
policy = rr,lot
duration = 5,28,56
[report]
baseline = policy=rr
percentiles = 50,95,99.9
";
        let def = ScenarioDef::parse(text).unwrap();
        let rendered = def.render();
        let reparsed = ScenarioDef::parse(&rendered)
            .unwrap_or_else(|e| panic!("render must re-parse: {e}\n{rendered}"));
        assert_eq!(def, reparsed, "canonical render must round-trip");
        // And a second render is a fixed point.
        assert_eq!(rendered, reparsed.render());

        // A custom contender list with no loads renders as `scenario =
        // custom`; on a one-core platform it is a valid one-cell grid.
        let custom = "[platform]\ncores = 1\n[tua]\nload = fixed:10:6:4\n\
                      [contenders]\nscenario = custom\n";
        let def = ScenarioDef::parse(custom).unwrap();
        assert_eq!(def.template.contenders, ContenderSpec::Custom(Vec::new()));
        let rendered = def.render();
        assert!(rendered.contains("scenario = custom\n"), "{rendered}");
        let reparsed = ScenarioDef::parse(&rendered)
            .unwrap_or_else(|e| panic!("render must re-parse: {e}\n{rendered}"));
        assert_eq!(def, reparsed);
        assert_eq!(rendered, reparsed.render());
        assert_eq!(reparsed.expand().unwrap().len(), 1);
    }

    #[test]
    fn memory_section_round_trips_and_sweeps() {
        let text = "\
[campaign]
name = mem
runs = 2
[platform]
cores = 4
[memory]
working_set = 2048
accesses = 300
write_frac = 0.4
share_frac = 0.5
shared_lines = 32
locality = 0.7
think = 2
l1_sets = 16
l1_ways = 2
[tua]
load = agent:shared
[contenders]
fill = agent:mem
[sweep]
mem_working_set = 512,2048
share_frac = 0.1,0.9
[report]
percentiles = 50,95
";
        let def = ScenarioDef::parse(text).unwrap();
        let mem = def.template.memory.as_ref().expect("[memory] parsed");
        assert_eq!(mem.working_set, 2048);
        assert_eq!(mem.l1_sets, 16);
        let rendered = def.render();
        let reparsed = ScenarioDef::parse(&rendered)
            .unwrap_or_else(|e| panic!("render must re-parse: {e}\n{rendered}"));
        assert_eq!(def, reparsed, "canonical render must round-trip");
        assert_eq!(rendered, reparsed.render());

        let cells = def.expand().unwrap();
        assert_eq!(cells.len(), 4);
        let m = |c: &super::Cell| c.spec.platform.memory.clone().unwrap();
        assert_eq!(m(&cells[0]).working_set, 512);
        assert_eq!(m(&cells[0]).share_frac, 0.1);
        assert_eq!(m(&cells[3]).working_set, 2048);
        assert_eq!(m(&cells[3]).share_frac, 0.9);
    }

    #[test]
    fn memory_axes_require_a_memory_section() {
        let text = "\
[campaign]
runs = 1
[tua]
load = fixed:10:6:4
[sweep]
share_frac = 0.1,0.5
";
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("requires a [memory] section"), "{err}");
    }

    #[test]
    fn swept_memory_values_hit_domain_validation() {
        // A swept value goes through the [memory] key's own setter, so it
        // fails with the file line's range message, naming the axis value.
        let text = "\
[campaign]
runs = 1
[memory]
working_set = 1024
[tua]
load = agent:mem
[sweep]
share_frac = 0.5,1.5
";
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert_eq!(
            err.msg,
            "axis 'share_frac' value '1.5': share_frac must be within [0, 1], got 1.5"
        );
    }

    #[test]
    fn validation_failures_name_the_cell() {
        let text = "\
[campaign]
runs = 1
[tua]
load = sat:5
[sweep]
scenario = iso,con
";
        // A saturating TuA never finishes: TuaDone stop is invalid.
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("cell [scenario=ISO]"), "{err}");
        assert!(err.msg.contains("finite"), "{err}");
    }

    const FABRIC: &str = "\
[campaign]
runs = 1
[platform]
policy = rr
[topology]
clusters = 2
cores_per_cluster = 3
bridge_latency = 3
bridge_depth = 2
cluster_cba = homog
backbone_cba = w:3:1
backbone_caps = 2:2
[tua]
load = fixed:10:5:0
[contenders]
fill = sat:28
wcet = off
stop = horizon:1000
";

    #[test]
    fn topology_section_builds_a_fabric_platform() {
        let def = ScenarioDef::parse(FABRIC).unwrap();
        let cells = def.expand().unwrap();
        let spec = &cells[0].spec;
        assert_eq!(spec.platform.n_cores, 6, "derived from the topology");
        assert_eq!(spec.loads.len(), 6);
        assert!(spec.platform.cba.is_none(), "filters live per segment");
        let topo = spec.platform.topology.as_ref().expect("fabric platform");
        assert_eq!(topo.clusters, 2);
        assert_eq!(topo.cores_per_cluster, 3);
        assert_eq!(topo.bridge_latency, 3);
        assert_eq!(topo.bridge_depth, 2);
        assert_eq!(topo.cluster_policy.name(), "RR", "defaults to [platform]");
        assert_eq!(topo.backbone_policy.name(), "RR");
        let cluster = topo.cluster_cba.as_ref().expect("cluster filter");
        assert_eq!(cluster.n_cores(), 3);
        let backbone = topo.backbone_cba.as_ref().expect("backbone filter");
        assert_eq!(backbone.n_cores(), 2);
        assert_eq!(backbone.scheme_name(), "H-CBA-cap", "weights + caps");
        spec.validate().expect("fabric spec validates");
    }

    #[test]
    fn topology_render_round_trips() {
        let def = ScenarioDef::parse(FABRIC).unwrap();
        let rendered = def.render();
        let reparsed = ScenarioDef::parse(&rendered)
            .unwrap_or_else(|e| panic!("render must re-parse: {e}\n{rendered}"));
        assert_eq!(def, reparsed);
        assert_eq!(
            rendered,
            reparsed.render(),
            "second render is a fixed point"
        );
    }

    #[test]
    fn topology_axes_reshape_the_fabric() {
        // A homogeneous backbone filter stays valid as the cluster count
        // sweeps (per-cluster `w:` weights would be sized for one count).
        let base = FABRIC.replace(
            "backbone_cba = w:3:1\nbackbone_caps = 2:2\n",
            "backbone_cba = homog\n",
        );
        let text = format!("{base}[sweep]\nclusters = 2,4\nbridge_latency = 1,8\n");
        let cells = ScenarioDef::parse(&text).unwrap().expand().unwrap();
        assert_eq!(cells.len(), 4);
        let topo = cells[0].spec.platform.topology.as_ref().unwrap();
        assert_eq!((topo.clusters, topo.bridge_latency), (2, 1));
        let topo = cells[1].spec.platform.topology.as_ref().unwrap();
        assert_eq!((topo.clusters, topo.bridge_latency), (2, 8));
        let topo = cells[2].spec.platform.topology.as_ref().unwrap();
        assert_eq!((topo.clusters, topo.bridge_latency), (4, 1));
        assert_eq!(cells[2].spec.platform.n_cores, 12, "4 clusters x 3 cores");
        assert_eq!(
            topo.backbone_cba.as_ref().unwrap().n_cores(),
            4,
            "homog filter re-derived per cluster count"
        );
    }

    #[test]
    fn topology_errors_are_specific() {
        // Axis without a [topology] section.
        let text = "[campaign]\nruns = 1\n[tua]\nload = idle\n[contenders]\nstop = horizon:10\n[sweep]\nclusters = 2,4\n";
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("requires a [topology]"), "{err}");

        // Unknown key, with the line number.
        let err = ScenarioDef::parse("[topology]\nwarp = 9\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("unknown [topology] key"), "{err}");

        // Zero bridge latency rejected at parse time.
        let err = ScenarioDef::parse("[topology]\nbridge_latency = 0\n").unwrap_err();
        assert!(err.msg.contains("at least 1"), "{err}");

        // A swept value goes through the same setter as the file line.
        let text = format!("{FABRIC}[sweep]\nclusters = 2,0\n");
        let err = ScenarioDef::parse(&text).unwrap().expand().unwrap_err();
        assert_eq!(
            err.msg,
            "axis 'clusters' value '0': clusters must be positive"
        );

        // Backbone weights sized for the wrong cluster count.
        let text = FABRIC.replace("clusters = 2", "clusters = 4");
        let err = ScenarioDef::parse(&text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("weights"), "{err}");

        // Caps without a filter on that segment.
        let text = FABRIC.replace("backbone_cba = w:3:1\n", "");
        let err = ScenarioDef::parse(&text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("require a credit filter"), "{err}");
    }

    #[test]
    fn huge_fabric_reports_the_core_count_instead_of_overflowing() {
        let text = "[topology]\nclusters = 18446744073709551615\ncores_per_cluster = 2\n";
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert_eq!(
            err.msg,
            "cell []: core count 18446744073709551615 x 2 outside 1..=64"
        );
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(parse_load_spec("sat").is_err());
        assert!(parse_load_spec("fixed:1:2").is_err());
        // Durations and gaps are u32: larger values are errors naming the
        // field, not silently truncated.
        assert_eq!(
            parse_load_spec("sat:4294967352").unwrap_err(),
            "bad duration '4294967352' in load 'sat:4294967352'"
        );
        assert_eq!(
            parse_load_spec("fixed:1:4294967302:4294967300").unwrap_err(),
            "bad duration '4294967302' in load 'fixed:1:4294967302:4294967300'"
        );
        assert_eq!(
            parse_load_spec("fixed:1:6:4294967300").unwrap_err(),
            "bad gap '4294967300' in load 'fixed:1:6:4294967300'"
        );
        assert!(parse_load_spec("per:4294967296:90:0").is_err());
        assert!(
            parse_cba_spec("w:4294967295:1", 2, 56).is_err(),
            "sum overflow"
        );
        assert!(parse_cba_spec("w:1:2", 4, 56).is_err(), "length mismatch");
        assert!(parse_cba_spec("hcba", 8, 56).is_err(), "hcba is 4-core");
        assert!(parse_policy("best").is_err());
        assert!(parse_stop("never").is_err());
    }

    #[test]
    fn agent_load_spec_parses_to_custom_kinds() {
        match parse_load_spec("agent:burst:3:5").unwrap() {
            CoreLoad::Custom { kind, args } => {
                assert_eq!(kind, "burst");
                assert_eq!(args, vec!["3".to_string(), "5".to_string()]);
            }
            other => panic!("expected custom load, got {other:?}"),
        }
        match parse_load_spec("agent:noop").unwrap() {
            CoreLoad::Custom { kind, args } => {
                assert_eq!(kind, "noop");
                assert!(args.is_empty());
            }
            other => panic!("expected custom load, got {other:?}"),
        }
        assert!(parse_load_spec("agent:").is_err(), "empty kind rejected");
        // Display renders back to the spec syntax.
        assert_eq!(
            parse_load_spec("agent:burst:3:5").unwrap().to_string(),
            "agent:burst:3:5"
        );
        assert_eq!(parse_load_spec("idle").unwrap().to_string(), "idle");
        assert_eq!(
            parse_load_spec("per:28:90:0").unwrap().to_string(),
            "per:28:90:0"
        );
    }

    const WINDOWED: &str = "\
[campaign]
runs = 1
[tua]
load = sat:5
[contenders]
fill = sat:28
wcet = off
stop = horizon:8000
[report]
windows = 8
";

    #[test]
    fn report_windows_key_parses_renders_and_reaches_the_spec() {
        let def = ScenarioDef::parse(WINDOWED).unwrap();
        assert_eq!(def.report.windows, Some(8));
        let cells = def.expand().unwrap();
        assert_eq!(cells[0].spec.windows, Some(8));

        let rendered = def.render();
        assert!(rendered.contains("windows = 8"), "{rendered}");
        let reparsed = ScenarioDef::parse(&rendered).unwrap();
        assert_eq!(def, reparsed, "windows key must round-trip");
    }

    #[test]
    fn report_pwcet_key_parses_validates_and_round_trips() {
        let text = "\
[campaign]
runs = 2
[tua]
load = fixed:10:5:0
[report]
pwcet = 1e-9,1e-12
";
        let def = ScenarioDef::parse(text).unwrap();
        assert_eq!(def.report.pwcet, vec![1e-9, 1e-12]);

        let rendered = def.render();
        assert!(rendered.contains("pwcet = 1e-9,1e-12"), "{rendered}");
        let reparsed = ScenarioDef::parse(&rendered).unwrap();
        assert_eq!(def, reparsed, "pwcet key must round-trip");

        // Probabilities are per-run exceedances: (0, 1) exclusive.
        for bad in ["pwcet = 0", "pwcet = 1", "pwcet = -1e-9", "pwcet = nope"] {
            let err = ScenarioDef::parse(&text.replace("pwcet = 1e-9,1e-12", bad)).unwrap_err();
            assert!(
                err.msg.contains("pwcet"),
                "'{bad}' must name the key: {err}"
            );
        }

        // A pwcet-free scenario renders without the key, so pre-pwcet
        // scenario hashes (and their journals) are untouched.
        let plain = ScenarioDef::parse("[campaign]\nruns = 2\n[tua]\nload = fixed:10:5:0\n")
            .unwrap()
            .render();
        assert!(!plain.contains("pwcet"), "{plain}");
    }

    #[test]
    fn report_windows_require_a_dividing_horizon() {
        let finite_tua = WINDOWED
            .replace("load = sat:5", "load = fixed:10:5:0")
            .replace("stop = horizon:8000\n", "");
        let err = ScenarioDef::parse(&finite_tua)
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(err.msg.contains("require a horizon stop"), "{err}");

        let err = ScenarioDef::parse(&WINDOWED.replace("horizon:8000", "horizon:8001"))
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(err.msg.contains("divide the horizon"), "{err}");

        let err = ScenarioDef::parse(&WINDOWED.replace("windows = 8", "windows = 0")).unwrap_err();
        assert!(err.msg.contains("windows must be positive"), "{err}");
    }
}
