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
//! * [`crate::report::run_scenario`] executes the cells as Monte-Carlo
//!   [`Campaign`](crate::Campaign)s and aggregates the results.
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
use cba_mem::{HierarchyConfig, LatencyModel, MemoryConfig};
use cba_workloads::{profile_by_name, EembcProfile};
use std::fmt;

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
    /// Sweep key (see [`SWEEP_KEYS`]).
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

/// The sweepable axis keys, in documentation order.
pub const SWEEP_KEYS: &[&str] = &[
    "bench",
    "setup",
    "scenario",
    "cores",
    "policy",
    "cba",
    "weights",
    "caps",
    "duration",
    "tua",
    "fill",
    "clusters",
    "bridge_latency",
    "bridge_depth",
    "cluster_cba",
    "backbone_cba",
    "mem_working_set",
    "share_frac",
    "write_frac",
    "l1_sets",
    "accesses",
    "working_set",
    "p_random",
    "p_store",
    "p_atomic",
    "p_ifetch",
    "burst",
    "gap",
    "between",
];

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

impl ScenarioDef {
    /// Parses the scenario-file format.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] with the offending 1-based line number
    /// for unknown sections/keys, malformed values, or duplicate axes.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut def = ScenarioDef::default();
        let mut section = String::new();
        for (i, raw_line) in text.lines().enumerate() {
            let lineno = i + 1;
            // Strip comments ('#' to end of line) and whitespace.
            let line = match raw_line.find('#') {
                Some(pos) => &raw_line[..pos],
                None => raw_line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| ScenarioError::at(lineno, "unterminated section header"))?
                    .trim()
                    .to_ascii_lowercase();
                match name.as_str() {
                    "campaign" | "platform" | "tua" | "contenders" | "sweep" | "report"
                    | "checkpoint" => {
                        section = name;
                    }
                    "topology" => {
                        def.template.topology.get_or_insert_with(Default::default);
                        section = name;
                    }
                    "memory" => {
                        def.template.memory.get_or_insert_with(Default::default);
                        section = name;
                    }
                    other => {
                        return Err(ScenarioError::at(
                            lineno,
                            format!(
                                "unknown section '[{other}]' (expected [campaign], [platform], \
                                 [topology], [memory], [tua], [contenders], [sweep], [report] or \
                                 [checkpoint])"
                            ),
                        ))
                    }
                }
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                ScenarioError::at(lineno, format!("expected 'key = value', got '{line}'"))
            })?;
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            if value.is_empty() {
                return Err(ScenarioError::at(
                    lineno,
                    format!("key '{key}' has no value"),
                ));
            }
            match section.as_str() {
                "" => {
                    return Err(ScenarioError::at(
                        lineno,
                        format!("key '{key}' before any [section] header"),
                    ))
                }
                "campaign" => def.parse_campaign_key(&key, value, lineno)?,
                "platform" => def.parse_platform_key(&key, value, lineno)?,
                "topology" => def.parse_topology_key(&key, value, lineno)?,
                "memory" => def.parse_memory_key(&key, value, lineno)?,
                "tua" => def.parse_tua_key(&key, value, lineno)?,
                "contenders" => def.parse_contenders_key(&key, value, lineno)?,
                "sweep" => def.parse_sweep_key(&key, value, lineno)?,
                "report" => def.parse_report_key(&key, value, lineno)?,
                "checkpoint" => def.parse_checkpoint_key(&key, value, lineno)?,
                _ => unreachable!("sections are validated above"),
            }
        }
        Ok(def)
    }

    fn parse_campaign_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        match key {
            "name" => self.name = value.to_string(),
            "runs" => {
                self.runs = parse_num(value, "runs", lineno)?;
                if self.runs == 0 {
                    return Err(ScenarioError::at(lineno, "runs must be positive"));
                }
            }
            "seed" => self.seed = parse_num(value, "seed", lineno)?,
            "threads" => {
                let n: usize = parse_num(value, "threads", lineno)?;
                self.threads = if n == 0 { None } else { Some(n) };
            }
            other => {
                return Err(ScenarioError::at(
                    lineno,
                    format!(
                        "unknown [campaign] key '{other}' (expected name, runs, seed, threads)"
                    ),
                ))
            }
        }
        Ok(())
    }

    fn parse_platform_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        let t = &mut self.template;
        match key {
            "cores" => t.cores = parse_num(value, "cores", lineno)?,
            "policy" => {
                parse_policy(value).map_err(|e| ScenarioError::at(lineno, e))?;
                t.policy = value.to_string();
            }
            "cba" => t.cba = value.to_string(),
            "caps" => t.caps = Some(value.to_string()),
            "lfsr" => t.lfsr = parse_switch(value, "lfsr", lineno)?,
            "engine" => {
                parse_engine(value).map_err(|e| ScenarioError::at(lineno, e))?;
                t.engine = value.to_string();
            }
            other => {
                return Err(ScenarioError::at(
                    lineno,
                    format!(
                        "unknown [platform] key '{other}' (expected cores, policy, cba, caps, \
                         lfsr, engine)"
                    ),
                ))
            }
        }
        Ok(())
    }

    fn parse_topology_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        let topo = self
            .template
            .topology
            .as_mut()
            .expect("[topology] section initializes the template");
        match key {
            "clusters" => {
                topo.clusters = parse_num(value, "clusters", lineno)?;
                if topo.clusters == 0 {
                    return Err(ScenarioError::at(lineno, "clusters must be positive"));
                }
            }
            "cores_per_cluster" => {
                topo.cores_per_cluster = parse_num(value, "cores_per_cluster", lineno)?;
                if topo.cores_per_cluster == 0 {
                    return Err(ScenarioError::at(
                        lineno,
                        "cores_per_cluster must be positive",
                    ));
                }
            }
            "bridge_latency" => {
                topo.bridge_latency = parse_num(value, "bridge_latency", lineno)?;
                if topo.bridge_latency == 0 {
                    return Err(ScenarioError::at(
                        lineno,
                        "bridge_latency must be at least 1",
                    ));
                }
            }
            "bridge_depth" => {
                topo.bridge_depth = parse_num(value, "bridge_depth", lineno)?;
                if topo.bridge_depth == 0 {
                    return Err(ScenarioError::at(lineno, "bridge_depth must be at least 1"));
                }
            }
            "cluster_policy" => {
                parse_policy(value).map_err(|e| ScenarioError::at(lineno, e))?;
                topo.cluster_policy = Some(value.to_string());
            }
            "backbone_policy" => {
                parse_policy(value).map_err(|e| ScenarioError::at(lineno, e))?;
                topo.backbone_policy = Some(value.to_string());
            }
            "cluster_cba" => topo.cluster_cba = value.to_string(),
            "cluster_caps" => topo.cluster_caps = Some(value.to_string()),
            "backbone_cba" => topo.backbone_cba = Some(value.to_string()),
            "backbone_caps" => topo.backbone_caps = Some(value.to_string()),
            other => {
                return Err(ScenarioError::at(
                    lineno,
                    format!(
                        "unknown [topology] key '{other}' (expected clusters, \
                         cores_per_cluster, bridge_latency, bridge_depth, cluster_policy, \
                         cluster_cba, cluster_caps, backbone_policy, backbone_cba, \
                         backbone_caps)"
                    ),
                ))
            }
        }
        Ok(())
    }

    fn parse_memory_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        let mem = self
            .template
            .memory
            .as_mut()
            .expect("[memory] section initializes the template");
        let frac = |value: &str, what: &str| -> Result<f64, ScenarioError> {
            let f: f64 = value.parse().map_err(|_| {
                ScenarioError::at(lineno, format!("bad fraction '{value}' for '{what}'"))
            })?;
            if !(0.0..=1.0).contains(&f) {
                return Err(ScenarioError::at(
                    lineno,
                    format!("{what} must be within [0, 1], got {f}"),
                ));
            }
            Ok(f)
        };
        match key {
            "working_set" => {
                mem.working_set = parse_num(value, "working_set", lineno)?;
                if mem.working_set < cba_mem::coherence::SHARED_LINE_BYTES {
                    return Err(ScenarioError::at(
                        lineno,
                        format!(
                            "working_set must be at least one {}-byte line",
                            cba_mem::coherence::SHARED_LINE_BYTES
                        ),
                    ));
                }
            }
            "accesses" => {
                mem.accesses = parse_num(value, "accesses", lineno)?;
                if mem.accesses == 0 {
                    return Err(ScenarioError::at(lineno, "accesses must be positive"));
                }
            }
            "write_frac" => mem.write_frac = frac(value, "write_frac")?,
            "share_frac" => mem.share_frac = frac(value, "share_frac")?,
            "locality" => mem.locality = frac(value, "locality")?,
            "shared_lines" => {
                mem.shared_lines = parse_num(value, "shared_lines", lineno)?;
                if mem.shared_lines == 0 {
                    return Err(ScenarioError::at(lineno, "shared_lines must be positive"));
                }
            }
            "think" => mem.think = parse_num(value, "think", lineno)?,
            "l1_sets" => {
                mem.l1_sets = parse_num(value, "l1_sets", lineno)?;
            }
            "l1_ways" => {
                mem.l1_ways = parse_num(value, "l1_ways", lineno)?;
            }
            other => {
                return Err(ScenarioError::at(
                    lineno,
                    format!(
                        "unknown [memory] key '{other}' (expected working_set, accesses, \
                         write_frac, share_frac, shared_lines, locality, think, l1_sets, \
                         l1_ways)"
                    ),
                ))
            }
        }
        Ok(())
    }

    fn parse_tua_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        let t = &mut self.template;
        match key {
            "load" => {
                parse_load_spec(value).map_err(|e| ScenarioError::at(lineno, e))?;
                t.tua = TuaSpec::Load(value.to_string());
            }
            "profile" => {
                profile_by_name(value).ok_or_else(|| {
                    ScenarioError::at(lineno, format!("unknown benchmark profile '{value}'"))
                })?;
                // Keep overrides set by earlier knob lines.
                let overrides = match &t.tua {
                    TuaSpec::Profile { overrides, .. } => overrides.clone(),
                    _ => Vec::new(),
                };
                t.tua = TuaSpec::Profile {
                    name: value.to_string(),
                    overrides,
                };
            }
            knob if PROFILE_KNOBS.contains(&knob) => match &mut t.tua {
                TuaSpec::Profile { overrides, .. } => {
                    overrides.push((knob.to_string(), value.to_string()));
                }
                _ => {
                    return Err(ScenarioError::at(
                        lineno,
                        format!("knob '{knob}' requires 'profile = NAME' first in [tua]"),
                    ))
                }
            },
            other => {
                return Err(ScenarioError::at(
                    lineno,
                    format!(
                        "unknown [tua] key '{other}' (expected load, profile, or a profile knob: \
                         {})",
                        PROFILE_KNOBS.join(", ")
                    ),
                ))
            }
        }
        Ok(())
    }

    fn parse_contenders_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        let t = &mut self.template;
        match key {
            "scenario" => {
                t.contenders = match value.to_ascii_lowercase().as_str() {
                    "iso" => ContenderSpec::Isolation,
                    "con" => ContenderSpec::MaxContention,
                    "custom" => match &t.contenders {
                        // `loads =` may already have set the list.
                        c @ ContenderSpec::Custom(_) => c.clone(),
                        _ => ContenderSpec::Custom(Vec::new()),
                    },
                    other => {
                        return Err(ScenarioError::at(
                            lineno,
                            format!("unknown scenario '{other}' (expected iso, con, custom)"),
                        ))
                    }
                };
            }
            "loads" => {
                let specs: Vec<String> = value.split(',').map(|s| s.trim().to_string()).collect();
                for s in &specs {
                    parse_load_spec(s).map_err(|e| ScenarioError::at(lineno, e))?;
                }
                t.contenders = ContenderSpec::Custom(specs);
            }
            "fill" => {
                parse_load_spec(value).map_err(|e| ScenarioError::at(lineno, e))?;
                t.contenders = ContenderSpec::Fill(value.to_string());
            }
            "duration" => t.duration = Some(parse_num(value, "duration", lineno)?),
            "wcet" => {
                t.wcet = match value.to_ascii_lowercase().as_str() {
                    "auto" => WcetSpec::Auto,
                    "on" | "true" => WcetSpec::On,
                    "off" | "false" => WcetSpec::Off,
                    other => {
                        return Err(ScenarioError::at(
                            lineno,
                            format!("unknown wcet mode '{other}' (expected auto, on, off)"),
                        ))
                    }
                };
            }
            "stop" => {
                parse_stop(value).map_err(|e| ScenarioError::at(lineno, e))?;
                t.stop = value.to_string();
            }
            "max_cycles" => t.max_cycles = parse_num(value, "max_cycles", lineno)?,
            "trace" => t.trace = parse_switch(value, "trace", lineno)?,
            other => {
                return Err(ScenarioError::at(
                    lineno,
                    format!(
                        "unknown [contenders] key '{other}' (expected scenario, loads, fill, \
                         duration, wcet, stop, max_cycles, trace)"
                    ),
                ))
            }
        }
        Ok(())
    }

    fn parse_sweep_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        if !SWEEP_KEYS.contains(&key) {
            return Err(ScenarioError::at(
                lineno,
                format!(
                    "unknown sweep key '{key}' (sweepable keys: {})",
                    SWEEP_KEYS.join(", ")
                ),
            ));
        }
        if self.axes.iter().any(|a| a.key == key) {
            return Err(ScenarioError::at(
                lineno,
                format!("duplicate sweep axis '{key}'"),
            ));
        }
        let values: Vec<AxisValue> = value
            .split(',')
            .map(|v| AxisValue::Raw(v.trim().to_string()))
            .collect();
        if values.iter().any(|v| v.raw().is_empty()) {
            return Err(ScenarioError::at(
                lineno,
                format!("sweep axis '{key}' has an empty value"),
            ));
        }
        self.axes.push(Axis {
            key: key.to_string(),
            values,
        });
        Ok(())
    }

    fn parse_report_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        match key {
            "baseline" => {
                let mut selector = Vec::new();
                for pair in value.split(',') {
                    let (k, v) = pair.trim().split_once('=').ok_or_else(|| {
                        ScenarioError::at(
                            lineno,
                            format!("baseline entry '{}' is not 'axis=value'", pair.trim()),
                        )
                    })?;
                    selector.push((k.trim().to_string(), v.trim().to_string()));
                }
                self.report.baseline = selector;
            }
            "percentiles" => {
                let mut qs = Vec::new();
                for p in value.split(',') {
                    let pct: f64 = p.trim().parse().map_err(|_| {
                        ScenarioError::at(lineno, format!("bad percentile '{}'", p.trim()))
                    })?;
                    if !(0.0..=100.0).contains(&pct) {
                        return Err(ScenarioError::at(
                            lineno,
                            format!("percentile {pct} outside [0, 100]"),
                        ));
                    }
                    qs.push(pct / 100.0);
                }
                self.report.percentiles = qs;
            }
            "windows" => {
                let n: u32 = parse_num(value, "windows", lineno)?;
                if n == 0 {
                    return Err(ScenarioError::at(lineno, "windows must be positive"));
                }
                self.report.windows = Some(n);
            }
            "pwcet" => {
                let mut ps = Vec::new();
                for p in value.split(',') {
                    let prob: f64 = p.trim().parse().map_err(|_| {
                        ScenarioError::at(lineno, format!("bad pwcet probability '{}'", p.trim()))
                    })?;
                    if !(prob > 0.0 && prob < 1.0) {
                        return Err(ScenarioError::at(
                            lineno,
                            format!("pwcet probability {prob} outside (0, 1)"),
                        ));
                    }
                    ps.push(prob);
                }
                self.report.pwcet = ps;
            }
            other => {
                return Err(ScenarioError::at(
                    lineno,
                    format!(
                        "unknown [report] key '{other}' (expected baseline, percentiles, windows, pwcet)"
                    ),
                ))
            }
        }
        Ok(())
    }

    fn parse_checkpoint_key(
        &mut self,
        key: &str,
        value: &str,
        lineno: usize,
    ) -> Result<(), ScenarioError> {
        match key {
            "dir" => self.checkpoint.dir = Some(value.to_string()),
            "cell_budget_ms" => {
                let ms: u64 = parse_num(value, "cell_budget_ms", lineno)?;
                if ms == 0 {
                    return Err(ScenarioError::at(lineno, "cell_budget_ms must be positive"));
                }
                self.checkpoint.cell_budget_ms = Some(ms);
            }
            "run_budget_cycles" => {
                let cycles: u64 = parse_num(value, "run_budget_cycles", lineno)?;
                if cycles == 0 {
                    return Err(ScenarioError::at(
                        lineno,
                        "run_budget_cycles must be positive",
                    ));
                }
                self.checkpoint.run_budget_cycles = Some(cycles);
            }
            other => {
                return Err(ScenarioError::at(
                    lineno,
                    format!(
                        "unknown [checkpoint] key '{other}' (expected dir, cell_budget_ms, \
                         run_budget_cycles)"
                    ),
                ))
            }
        }
        Ok(())
    }

    /// Renders the definition back to canonical scenario-file text:
    /// `parse(render(def)) == def` for any parser-produced definition.
    /// (Programmatic [`TuaSpec::Inline`] / [`AxisValue::Profile`] values
    /// render as their catalog names, which is lossy for ad-hoc profiles.)
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = &self.template;
        let _ = writeln!(out, "[campaign]");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "runs = {}", self.runs);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "threads = {}", self.threads.unwrap_or(0));
        let _ = writeln!(out, "\n[platform]");
        let _ = writeln!(out, "cores = {}", t.cores);
        let _ = writeln!(out, "policy = {}", t.policy);
        let _ = writeln!(out, "cba = {}", t.cba);
        if let Some(caps) = &t.caps {
            let _ = writeln!(out, "caps = {caps}");
        }
        let _ = writeln!(out, "lfsr = {}", switch(t.lfsr));
        let _ = writeln!(out, "engine = {}", t.engine);
        if let Some(topo) = &t.topology {
            let _ = writeln!(out, "\n[topology]");
            let _ = writeln!(out, "clusters = {}", topo.clusters);
            let _ = writeln!(out, "cores_per_cluster = {}", topo.cores_per_cluster);
            let _ = writeln!(out, "bridge_latency = {}", topo.bridge_latency);
            let _ = writeln!(out, "bridge_depth = {}", topo.bridge_depth);
            if let Some(p) = &topo.cluster_policy {
                let _ = writeln!(out, "cluster_policy = {p}");
            }
            let _ = writeln!(out, "cluster_cba = {}", topo.cluster_cba);
            if let Some(c) = &topo.cluster_caps {
                let _ = writeln!(out, "cluster_caps = {c}");
            }
            if let Some(p) = &topo.backbone_policy {
                let _ = writeln!(out, "backbone_policy = {p}");
            }
            if let Some(c) = &topo.backbone_cba {
                let _ = writeln!(out, "backbone_cba = {c}");
            }
            if let Some(c) = &topo.backbone_caps {
                let _ = writeln!(out, "backbone_caps = {c}");
            }
        }
        // Emitted only when configured, so scenarios predating the
        // [memory] section keep byte-identical canonical renders (and
        // stable scenario hashes).
        if let Some(mem) = &t.memory {
            let _ = writeln!(out, "\n[memory]");
            let _ = writeln!(out, "working_set = {}", mem.working_set);
            let _ = writeln!(out, "accesses = {}", mem.accesses);
            let _ = writeln!(out, "write_frac = {}", mem.write_frac);
            let _ = writeln!(out, "share_frac = {}", mem.share_frac);
            let _ = writeln!(out, "shared_lines = {}", mem.shared_lines);
            let _ = writeln!(out, "locality = {}", mem.locality);
            let _ = writeln!(out, "think = {}", mem.think);
            let _ = writeln!(out, "l1_sets = {}", mem.l1_sets);
            let _ = writeln!(out, "l1_ways = {}", mem.l1_ways);
        }
        let _ = writeln!(out, "\n[tua]");
        match &t.tua {
            TuaSpec::Load(spec) => {
                let _ = writeln!(out, "load = {spec}");
            }
            TuaSpec::Profile { name, overrides } => {
                let _ = writeln!(out, "profile = {name}");
                for (k, v) in overrides {
                    let _ = writeln!(out, "{k} = {v}");
                }
            }
            TuaSpec::Inline(profile) => {
                let _ = writeln!(out, "profile = {}", profile.name);
            }
        }
        let _ = writeln!(out, "\n[contenders]");
        match &t.contenders {
            ContenderSpec::Isolation => {
                let _ = writeln!(out, "scenario = iso");
            }
            ContenderSpec::MaxContention => {
                let _ = writeln!(out, "scenario = con");
            }
            ContenderSpec::Custom(specs) => {
                let _ = writeln!(out, "loads = {}", specs.join(","));
            }
            ContenderSpec::Fill(spec) => {
                let _ = writeln!(out, "fill = {spec}");
            }
        }
        if let Some(d) = t.duration {
            let _ = writeln!(out, "duration = {d}");
        }
        let wcet = match t.wcet {
            WcetSpec::Auto => "auto",
            WcetSpec::On => "on",
            WcetSpec::Off => "off",
        };
        let _ = writeln!(out, "wcet = {wcet}");
        let _ = writeln!(out, "stop = {}", t.stop);
        let _ = writeln!(out, "max_cycles = {}", t.max_cycles);
        let _ = writeln!(out, "trace = {}", switch(t.trace));
        if !self.axes.is_empty() {
            let _ = writeln!(out, "\n[sweep]");
            for axis in &self.axes {
                let values: Vec<&str> = axis.values.iter().map(AxisValue::raw).collect();
                let _ = writeln!(out, "{} = {}", axis.key, values.join(","));
            }
        }
        let _ = writeln!(out, "\n[report]");
        if let Some(w) = self.report.windows {
            let _ = writeln!(out, "windows = {w}");
        }
        if !self.report.baseline.is_empty() {
            let pairs: Vec<String> = self
                .report
                .baseline
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(out, "baseline = {}", pairs.join(","));
        }
        let pcts: Vec<String> = self
            .report
            .percentiles
            .iter()
            .map(|q| format!("{}", q * 100.0))
            .collect();
        let _ = writeln!(out, "percentiles = {}", pcts.join(","));
        // Only when configured: pre-pwcet scenarios keep byte-identical
        // canonical renders (and scenario hashes, so their checkpoint
        // journals stay resumable).
        if !self.report.pwcet.is_empty() {
            let ps: Vec<String> = self.report.pwcet.iter().map(|p| format!("{p:e}")).collect();
            let _ = writeln!(out, "pwcet = {}", ps.join(","));
        }
        // Emitted only when configured, so scenarios predating the
        // [checkpoint] section keep byte-identical canonical renders.
        if !self.checkpoint.is_default() {
            let _ = writeln!(out, "\n[checkpoint]");
            if let Some(dir) = &self.checkpoint.dir {
                let _ = writeln!(out, "dir = {dir}");
            }
            if let Some(ms) = self.checkpoint.cell_budget_ms {
                let _ = writeln!(out, "cell_budget_ms = {ms}");
            }
            if let Some(cycles) = self.checkpoint.run_budget_cycles {
                let _ = writeln!(out, "run_budget_cycles = {cycles}");
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
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(ScenarioError::new(format!(
                    "sweep axis '{}' is empty",
                    axis.key
                )));
            }
        }
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
            for (k, axis) in self.axes.iter().enumerate() {
                let label = apply_axis(&mut template, &axis.key, &axis.values[indices[k]])
                    .map_err(|e| {
                        ScenarioError::new(format!(
                            "axis '{}' value '{}': {e}",
                            axis.key,
                            axis.values[indices[k]].raw()
                        ))
                    })?;
                labels.push((axis.key.clone(), label));
            }
            let mut spec = template.build().map_err(|e| {
                let cell: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                ScenarioError::new(format!("cell [{}]: {e}", cell.join(", ")))
            })?;
            if self.report.windows.is_some() {
                spec.windows = self.report.windows;
                spec.validate().map_err(|e| {
                    let cell: Vec<String> =
                        labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    ScenarioError::new(format!("cell [{}]: [report] windows: {e}", cell.join(", ")))
                })?;
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

fn switch(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

fn parse_num<T: std::str::FromStr>(
    value: &str,
    what: &str,
    lineno: usize,
) -> Result<T, ScenarioError> {
    value
        .parse()
        .map_err(|_| ScenarioError::at(lineno, format!("bad number '{value}' for '{what}'")))
}

fn parse_switch(value: &str, what: &str, lineno: usize) -> Result<bool, ScenarioError> {
    match value.to_ascii_lowercase().as_str() {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        other => Err(ScenarioError::at(
            lineno,
            format!("bad switch '{other}' for '{what}' (expected on/off)"),
        )),
    }
}

/// Profile knobs overridable in `[tua]` and sweepable as axes.
const PROFILE_KNOBS: &[&str] = &[
    "accesses",
    "working_set",
    "p_random",
    "p_store",
    "p_atomic",
    "p_ifetch",
    "burst",
    "gap",
    "between",
];

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
            let denominator: u32 = numerators.iter().sum();
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
    let num = |p: &str| -> Result<u64, String> {
        p.parse()
            .map_err(|_| format!("bad number '{p}' in load '{s}'"))
    };
    match parts.as_slice() {
        ["idle"] => Ok(CoreLoad::Idle),
        ["bench", name] => Ok(CoreLoad::named(name)),
        ["agent", kind, args @ ..] if !kind.is_empty() => Ok(CoreLoad::Custom {
            kind: kind.to_string(),
            args: args.iter().map(|a| a.to_string()).collect(),
        }),
        ["fixed", r, d, g] => Ok(CoreLoad::FixedTask {
            n_requests: num(r)?,
            duration: num(d)? as u32,
            gap: num(g)? as u32,
        }),
        ["sat", d] => Ok(CoreLoad::Saturating {
            duration: num(d)? as u32,
        }),
        ["per", d, p, ph] => Ok(CoreLoad::Periodic {
            duration: num(d)? as u32,
            period: num(p)?,
            phase: num(ph)?,
        }),
        ["stream", a] => Ok(CoreLoad::Streaming { accesses: num(a)? }),
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

/// Applies one sweep-axis value to a template clone; returns the value's
/// canonical label for reports and baseline matching.
fn apply_axis(t: &mut Template, key: &str, value: &AxisValue) -> Result<String, String> {
    // The benchmark axis is the only one accepting explicit profiles.
    if let AxisValue::Profile(profile) = value {
        if key != "bench" {
            return Err(format!("axis '{key}' cannot take a profile value"));
        }
        t.tua = TuaSpec::Inline(profile.clone());
        return Ok(profile.name.to_string());
    }
    let v = value.raw();
    match key {
        "bench" => {
            profile_by_name(v).ok_or_else(|| format!("unknown benchmark profile '{v}'"))?;
            // Keep knob overrides from the [tua] section, if any.
            let overrides = match &t.tua {
                TuaSpec::Profile { overrides, .. } => overrides.clone(),
                _ => Vec::new(),
            };
            t.tua = TuaSpec::Profile {
                name: v.to_string(),
                overrides,
            };
            Ok(v.to_string())
        }
        "setup" => match v.to_ascii_lowercase().as_str() {
            "rp" => {
                t.policy = "rp".into();
                t.cba = "none".into();
                Ok("RP".into())
            }
            "cba" => {
                t.policy = "rp".into();
                t.cba = "homog".into();
                Ok("CBA".into())
            }
            "hcba" => {
                t.policy = "rp".into();
                t.cba = "hcba".into();
                Ok("H-CBA".into())
            }
            custom => {
                // `POLICY` or `POLICY+CBASPEC`, e.g. `rr`, `fifo`,
                // `rr+homog`, `lot+w:3:1:1:1`.
                let (policy, cba) = match custom.split_once('+') {
                    Some((p, c)) => (p, c),
                    None => (custom, "none"),
                };
                parse_policy(policy)?;
                t.policy = policy.to_string();
                t.cba = cba.to_string();
                Ok(v.to_string())
            }
        },
        "scenario" => match v.to_ascii_lowercase().as_str() {
            "iso" => {
                t.contenders = ContenderSpec::Isolation;
                Ok("ISO".into())
            }
            "con" => {
                t.contenders = ContenderSpec::MaxContention;
                Ok("CON".into())
            }
            other => Err(format!("unknown scenario '{other}' (expected iso, con)")),
        },
        "cores" => {
            t.cores = v.parse().map_err(|_| format!("bad core count '{v}'"))?;
            Ok(v.to_string())
        }
        "policy" => {
            let kind = parse_policy(v)?;
            t.policy = v.to_string();
            Ok(kind.name().to_string())
        }
        "cba" => {
            t.cba = v.to_string();
            Ok(v.to_string())
        }
        "weights" => {
            t.cba = format!("w:{v}");
            Ok(v.to_string())
        }
        "caps" => {
            t.caps = Some(v.to_string());
            Ok(v.to_string())
        }
        "duration" => {
            t.duration = Some(v.parse().map_err(|_| format!("bad duration '{v}'"))?);
            Ok(v.to_string())
        }
        "tua" => {
            parse_load_spec(v)?;
            t.tua = TuaSpec::Load(v.to_string());
            Ok(v.to_string())
        }
        "fill" => {
            parse_load_spec(v)?;
            t.contenders = ContenderSpec::Fill(v.to_string());
            Ok(v.to_string())
        }
        "clusters" | "bridge_latency" | "bridge_depth" | "cluster_cba" | "backbone_cba" => {
            let topo = t.topology.as_mut().ok_or_else(|| {
                format!("axis '{key}' requires a [topology] section in the scenario")
            })?;
            match key {
                "clusters" => topo.clusters = v.parse().map_err(|_| bad_topo_num(key, v))?,
                "bridge_latency" => {
                    topo.bridge_latency = v.parse().map_err(|_| bad_topo_num(key, v))?
                }
                "bridge_depth" => {
                    topo.bridge_depth = v.parse().map_err(|_| bad_topo_num(key, v))?
                }
                "cluster_cba" => topo.cluster_cba = v.to_string(),
                "backbone_cba" => topo.backbone_cba = Some(v.to_string()),
                _ => unreachable!("matched above"),
            }
            Ok(v.to_string())
        }
        "mem_working_set" | "share_frac" | "write_frac" | "l1_sets" => {
            let mem = t.memory.as_mut().ok_or_else(|| {
                format!("axis '{key}' requires a [memory] section in the scenario")
            })?;
            let bad = |what: &str| format!("bad {what} '{v}' for memory axis '{key}'");
            match key {
                "mem_working_set" => {
                    mem.working_set = v.parse().map_err(|_| bad("size"))?;
                }
                "share_frac" => mem.share_frac = v.parse().map_err(|_| bad("fraction"))?,
                "write_frac" => mem.write_frac = v.parse().map_err(|_| bad("fraction"))?,
                "l1_sets" => mem.l1_sets = v.parse().map_err(|_| bad("count"))?,
                _ => unreachable!("matched above"),
            }
            // Domain errors surface with the cell label via
            // MemoryConfig::validate in Template::build.
            Ok(v.to_string())
        }
        knob if PROFILE_KNOBS.contains(&knob) => {
            match &mut t.tua {
                TuaSpec::Profile { overrides, .. } => {
                    overrides.push((knob.to_string(), v.to_string()));
                }
                TuaSpec::Inline(profile) => apply_profile_knob(profile, knob, v)?,
                TuaSpec::Load(_) => {
                    return Err(format!(
                        "knob '{knob}' requires a profile-based TuA (set 'profile = NAME' in [tua] \
                         or add a 'bench' axis)"
                    ))
                }
            }
            Ok(v.to_string())
        }
        other => Err(format!("unknown sweep key '{other}'")),
    }
}

fn bad_topo_num(key: &str, value: &str) -> String {
    format!("bad number '{value}' for topology axis '{key}'")
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

fn apply_profile_knob(p: &mut EembcProfile, knob: &str, value: &str) -> Result<(), String> {
    let bad = |what: &str| format!("bad {what} '{value}' for knob '{knob}'");
    let parse_range = |value: &str| -> Result<(u32, u32), String> {
        let (lo, hi) = value
            .split_once(':')
            .ok_or_else(|| format!("knob '{knob}' expects 'LO:HI', got '{value}'"))?;
        Ok((
            lo.parse().map_err(|_| bad("bound"))?,
            hi.parse().map_err(|_| bad("bound"))?,
        ))
    };
    match knob {
        "accesses" => p.accesses = value.parse().map_err(|_| bad("count"))?,
        "working_set" => p.working_set = value.parse().map_err(|_| bad("size"))?,
        "p_random" => p.p_random = value.parse().map_err(|_| bad("fraction"))?,
        "p_store" => p.p_store = value.parse().map_err(|_| bad("fraction"))?,
        "p_atomic" => p.p_atomic = value.parse().map_err(|_| bad("fraction"))?,
        "p_ifetch" => p.p_ifetch = value.parse().map_err(|_| bad("fraction"))?,
        "burst" => p.burst_len = parse_range(value)?,
        "gap" => p.within_gap = parse_range(value)?,
        "between" => p.between_gap_mean = value.parse().map_err(|_| bad("mean"))?,
        other => return Err(format!("unknown profile knob '{other}'")),
    }
    Ok(())
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
                    apply_profile_knob(&mut profile, knob, value)?;
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
        let n = match &self.topology {
            Some(topo) => topo.clusters * topo.cores_per_cluster,
            None => self.cores,
        };
        if n == 0 || n > sim_core::CoreId::MAX_CORES {
            return Err(format!(
                "core count {n} outside 1..={}",
                sim_core::CoreId::MAX_CORES
            ));
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
        // The axis parser accepts any f64; MemoryConfig::validate catches
        // out-of-domain values at cell-build time with the cell named.
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
        assert!(err.msg.contains("share_frac"), "{err}");
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
    fn bad_specs_rejected() {
        assert!(parse_load_spec("sat").is_err());
        assert!(parse_load_spec("fixed:1:2").is_err());
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
