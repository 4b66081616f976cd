//! One deterministic platform run: assembly, cycle loop, result
//! extraction.

use crate::agents::{default_registry, AgentRegistry, PortAgent};
use crate::config::{FabricTopology, PlatformConfig};
use crate::probes::{WindowedFairness, WindowedFairnessProbe};
use cba::{BusFilter, CreditFilter, Mode};
use cba_bus::fabric::{Fabric, FabricConfig};
use cba_bus::{
    Bus, BusConfig, BusError, BusRequest, BusRng, CompletedTransaction, EligibilityFilter,
    NoFilter, RequestPort,
};
use cba_mem::shared_hub;
use cba_workloads::EembcProfile;
use sim_core::agent::MemStats;
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{BusModel, CoreId, Cycle, Engine, Probe, Simulation, SimulationBuilder, StopWhen};
use std::fmt;

/// What one core runs during a run.
///
/// Each variant corresponds to an agent **kind** in the
/// [`AgentRegistry`]; [`CoreLoad::Custom`]
/// names a user-registered kind, so downstream crates can add workload
/// shapes without touching this enum (which is why it is
/// `#[non_exhaustive]`).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CoreLoad {
    /// A synthetic benchmark profile through the full core + cache model.
    Profile(EembcProfile),
    /// A catalog benchmark by name (see [`cba_workloads::by_name`]).
    Named(String),
    /// The streaming workload (sequential always-missing loads).
    Streaming {
        /// Number of loads.
        accesses: u64,
    },
    /// A saturating contender: always one `duration`-cycle request posted
    /// (the WCET-mode contention generator; duration is clamped nowhere —
    /// it must not exceed the platform MaxL).
    Saturating {
        /// Bus hold time per request.
        duration: u32,
    },
    /// A periodic co-runner.
    Periodic {
        /// Bus hold time per request.
        duration: u32,
        /// Issue period in cycles.
        period: Cycle,
        /// First issue cycle.
        phase: Cycle,
    },
    /// A fixed-request task (exact request stream, no cache model).
    FixedTask {
        /// Number of requests.
        n_requests: u64,
        /// Bus hold time per request.
        duration: u32,
        /// Compute cycles before each request.
        gap: u32,
    },
    /// Nothing runs on this core.
    Idle,
    /// A user-registered agent kind (scenario syntax
    /// `agent:KIND:ARGS...`): resolved against the
    /// [`AgentRegistry`] at build time, so
    /// new workload shapes need no edit to this crate.
    Custom {
        /// Registered kind name.
        kind: String,
        /// Raw `:`-separated arguments, interpreted by the kind's
        /// builder.
        args: Vec<String>,
    },
}

impl CoreLoad {
    /// Convenience constructor for a catalog benchmark.
    pub fn named(name: &str) -> Self {
        CoreLoad::Named(name.to_string())
    }

    /// Whether this load finishes on its own. [`CoreLoad::Custom`] kinds
    /// are assumed finite (an infinite custom agent under a `TuaDone` /
    /// `AllDone` stop runs into the `max_cycles` safety limit).
    pub fn is_finite(&self) -> bool {
        !matches!(
            self,
            CoreLoad::Saturating { .. } | CoreLoad::Periodic { .. }
        )
    }

    /// Checks the load's own parameters against a platform whose longest
    /// transaction is `max_latency` cycles: counts, periods and durations
    /// must be positive, durations at most `max_latency`, and a profile
    /// must pass [`EembcProfile::validate`]. Registered custom kinds check
    /// their arguments in their builders.
    ///
    /// # Errors
    ///
    /// Returns a description that names the load.
    pub fn validate(&self, max_latency: u32) -> Result<(), String> {
        let positive = |v: u64, what: &str| match v {
            0 => Err(format!("load '{self}': {what} must be positive")),
            _ => Ok(()),
        };
        let duration = |d: u32| match d {
            0 => Err(format!("load '{self}': duration must be positive")),
            d if d > max_latency => Err(format!(
                "load '{self}': duration {d} exceeds MaxL {max_latency}"
            )),
            _ => Ok(()),
        };
        match self {
            CoreLoad::Profile(p) => p.validate().map_err(|why| format!("load '{self}': {why}")),
            CoreLoad::Streaming { accesses } => positive(*accesses, "access count"),
            CoreLoad::Saturating { duration: d } => duration(*d),
            CoreLoad::Periodic {
                duration: d,
                period,
                ..
            } => duration(*d).and_then(|()| positive(*period, "period")),
            CoreLoad::FixedTask {
                n_requests,
                duration: d,
                ..
            } => positive(*n_requests, "request count").and_then(|()| duration(*d)),
            CoreLoad::Named(_) | CoreLoad::Idle | CoreLoad::Custom { .. } => Ok(()),
        }
    }

    /// The agent-registry kind name this load resolves through.
    pub fn kind(&self) -> &str {
        match self {
            CoreLoad::Profile(_) => "profile",
            CoreLoad::Named(_) => "bench",
            CoreLoad::Streaming { .. } => "stream",
            CoreLoad::Saturating { .. } => "sat",
            CoreLoad::Periodic { .. } => "per",
            CoreLoad::FixedTask { .. } => "fixed",
            CoreLoad::Idle => "idle",
            CoreLoad::Custom { kind, .. } => kind,
        }
    }
}

/// Renders in the scenario load-spec mini-language (`bench:NAME`,
/// `fixed:R:D:G`, `sat:D`, `per:D:P:PH`, `stream:A`, `idle`,
/// `agent:KIND:ARGS...`), so error messages read like scenario files.
impl fmt::Display for CoreLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreLoad::Profile(p) => write!(f, "bench:{}", p.name),
            CoreLoad::Named(name) => write!(f, "bench:{name}"),
            CoreLoad::Streaming { accesses } => write!(f, "stream:{accesses}"),
            CoreLoad::Saturating { duration } => write!(f, "sat:{duration}"),
            CoreLoad::Periodic {
                duration,
                period,
                phase,
            } => write!(f, "per:{duration}:{period}:{phase}"),
            CoreLoad::FixedTask {
                n_requests,
                duration,
                gap,
            } => write!(f, "fixed:{n_requests}:{duration}:{gap}"),
            CoreLoad::Idle => f.write_str("idle"),
            CoreLoad::Custom { kind, args } => {
                write!(f, "agent:{kind}")?;
                for a in args {
                    write!(f, ":{a}")?;
                }
                Ok(())
            }
        }
    }
}

/// Workload placement patterns for the paper's experiments.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Scenario {
    /// The task under analysis runs alone.
    Isolation,
    /// WCET-estimation maximum contention: every other core is a
    /// saturating MaxL contender (gated by `COMP` when a CBA filter is
    /// present and the spec enables WCET mode).
    MaxContention,
    /// Explicit loads for cores `1..n`.
    Custom(Vec<CoreLoad>),
}

/// Renders with the scenario-file vocabulary (`iso`, `con`, or the
/// custom load list).
impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scenario::Isolation => f.write_str("iso"),
            Scenario::MaxContention => f.write_str("con"),
            Scenario::Custom(loads) => {
                f.write_str("custom[")?;
                for (i, load) in loads.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{load}")?;
                }
                f.write_str("]")
            }
        }
    }
}

/// Which cycle loop executes a run.
///
/// Both produce **bit-identical** results (asserted by the workspace's
/// property tests); the naive loop exists as the reference implementation
/// and as the debugging fallback when a fast-path divergence is suspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum DriveMode {
    /// The events engine ([`sim_core::Engine::Events`]): skips provably
    /// uneventful cycle ranges (mid-transaction stretches, idle TDMA
    /// slots, credit-recovery waits) and fast-forwards runs that settle
    /// into a limit cycle (flat RR/FIFO/fixed-priority buses under
    /// synthetic loads). The default.
    #[default]
    Events,
    /// The per-cycle reference loop ([`sim_core::Engine::Naive`]): visits
    /// every cycle. Selectable per scenario (`engine = naive`) or via
    /// `cba_sim --engine naive`.
    Naive,
}

/// Renders as the scenario `engine` key's vocabulary (`events`,
/// `naive`).
impl fmt::Display for DriveMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DriveMode::Events => "events",
            DriveMode::Naive => "naive",
        })
    }
}

/// When the run loop stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopCondition {
    /// Stop when core 0 (the TuA) finishes.
    TuaDone,
    /// Stop when every finite load finishes.
    AllDone,
    /// Run exactly this many cycles (for share/fairness measurements).
    Horizon(Cycle),
}

/// Renders as the scenario `stop` key's vocabulary (`tua`, `all`,
/// `horizon:N`).
impl fmt::Display for StopCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCondition::TuaDone => f.write_str("tua"),
            StopCondition::AllDone => f.write_str("all"),
            StopCondition::Horizon(h) => write!(f, "horizon:{h}"),
        }
    }
}

/// Full specification of one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Platform assembly.
    pub platform: PlatformConfig,
    /// Per-core loads (`loads[0]` is the TuA).
    pub loads: Vec<CoreLoad>,
    /// Put the credit filter in WCET-estimation mode (TuA budget starts at
    /// zero; contenders gated by the latched `COMP` bits). Ignored when the
    /// platform has no CBA filter.
    pub wcet_mode: bool,
    /// Stop condition.
    pub stop: StopCondition,
    /// Hard safety limit on simulated cycles.
    pub max_cycles: Cycle,
    /// Record the full grant trace (burst/starvation metrics).
    pub record_trace: bool,
    /// Which cycle loop to use (fast path by default; results are
    /// bit-identical either way).
    pub drive: DriveMode,
    /// Attach a [`WindowedFairnessProbe`] splitting the run into this
    /// many equal windows (scenario key `[report] windows = N`).
    /// Requires a [`StopCondition::Horizon`] stop whose horizon the
    /// window count divides evenly; `None` = no windowed measurement.
    /// Attribution is completion-based — on a fabric it lags wire-level
    /// service by up to two bridge crossings, so keep windows much
    /// longer than the bridge latency (see [`crate::probes`]).
    pub windows: Option<u32>,
}

impl RunSpec {
    /// The paper's canonical specs: `tua` on core 0 of the 4-core paper
    /// platform under `setup`, with the scenario's co-runners.
    pub fn paper(setup: crate::BusSetup, scenario: Scenario, tua: CoreLoad) -> Self {
        let platform = PlatformConfig::paper(&setup);
        Self::with_platform(platform, scenario, tua)
    }

    /// Like [`RunSpec::paper`] with an explicit platform configuration.
    pub fn with_platform(platform: PlatformConfig, scenario: Scenario, tua: CoreLoad) -> Self {
        let n = platform.n_cores;
        let maxl = platform.latency.max_latency();
        let mut loads = Vec::with_capacity(n);
        loads.push(tua);
        match &scenario {
            Scenario::Isolation => loads.extend((1..n).map(|_| CoreLoad::Idle)),
            Scenario::MaxContention => {
                loads.extend((1..n).map(|_| CoreLoad::Saturating { duration: maxl }))
            }
            Scenario::Custom(rest) => loads.extend(rest.iter().cloned()),
        }
        RunSpec {
            platform,
            loads,
            wcet_mode: matches!(scenario, Scenario::MaxContention),
            stop: StopCondition::TuaDone,
            max_cycles: 50_000_000,
            record_trace: false,
            drive: DriveMode::default(),
            windows: None,
        }
    }

    /// Validates the spec (load count and parameters, stop-condition
    /// finiteness).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.loads.len() != self.platform.n_cores {
            return Err(format!(
                "expected {} loads, got {}",
                self.platform.n_cores,
                self.loads.len()
            ));
        }
        for load in &self.loads {
            load.validate(self.platform.latency.max_latency())?;
        }
        match self.stop {
            StopCondition::TuaDone => {
                if !self.loads[0].is_finite() {
                    return Err(format!(
                        "stop condition '{}' requires a finite load on core 0, got '{}'",
                        self.stop, self.loads[0]
                    ));
                }
            }
            StopCondition::AllDone => {
                if let Some(infinite) = self.loads.iter().find(|l| !l.is_finite()) {
                    return Err(format!(
                        "stop condition '{}' requires every load to be finite, got '{infinite}'",
                        self.stop
                    ));
                }
            }
            StopCondition::Horizon(h) => {
                if h == 0 {
                    return Err("horizon must be positive".into());
                }
            }
        }
        if let Some(w) = self.windows {
            if w == 0 {
                return Err("windows must be positive".into());
            }
            match self.stop {
                StopCondition::Horizon(h) => {
                    if h % w as u64 != 0 {
                        return Err(format!("windows = {w} must divide the horizon {h} evenly"));
                    }
                    if self.max_cycles < h {
                        // A truncated run would report its never-reached
                        // windows as perfectly fair.
                        return Err(format!(
                            "windows require max_cycles >= the horizon ({} < {h})",
                            self.max_cycles
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "windows require a horizon stop (run length must be known \
                         up front), got stop condition '{}'",
                        self.stop
                    ))
                }
            }
        }
        if let Some(cba) = &self.platform.cba {
            if cba.n_cores() != self.platform.n_cores {
                return Err(format!(
                    "credit config sized for {} cores on a {}-core platform",
                    cba.n_cores(),
                    self.platform.n_cores
                ));
            }
            if cba.max_latency() != self.platform.latency.max_latency() {
                return Err("credit MaxL differs from the latency model's MaxL".into());
            }
        }
        if let Some(mem) = &self.platform.memory {
            mem.validate().map_err(|e| e.to_string())?;
        }
        for load in &self.loads {
            let kind = load.kind();
            if kind != "mem" && kind != "shared" {
                continue;
            }
            if self.platform.memory.is_none() {
                return Err(format!(
                    "load 'agent:{kind}' requires a [memory] section on the platform"
                ));
            }
            if kind == "shared" && self.platform.topology.is_some() {
                return Err(
                    "load 'agent:shared' requires the flat snooped bus; a fabric topology \
                     has no shared coherent segment"
                        .into(),
                );
            }
        }
        if let Some(topo) = &self.platform.topology {
            let maxl = self.platform.latency.max_latency();
            if topo.clusters == 0 || topo.cores_per_cluster == 0 {
                return Err("topology needs at least one cluster and one core each".into());
            }
            if topo.n_cores() != Some(self.platform.n_cores) {
                return Err(format!(
                    "topology has {} x {} cores but the platform declares {}",
                    topo.clusters, topo.cores_per_cluster, self.platform.n_cores
                ));
            }
            if topo.bridge_latency == 0 || topo.bridge_depth == 0 {
                return Err("bridge latency and depth must be positive".into());
            }
            if self.platform.cba.is_some() {
                return Err(
                    "a fabric platform configures filters per segment (cluster_cba / \
                     backbone_cba), not via the flat cba field"
                        .into(),
                );
            }
            if let Some(c) = &topo.cluster_cba {
                if c.n_cores() != topo.cores_per_cluster {
                    return Err(format!(
                        "cluster credit config sized for {} cores, clusters have {}",
                        c.n_cores(),
                        topo.cores_per_cluster
                    ));
                }
                if c.max_latency() != maxl {
                    return Err("cluster credit MaxL differs from the platform MaxL".into());
                }
            }
            if let Some(c) = &topo.backbone_cba {
                if c.n_cores() != topo.clusters {
                    return Err(format!(
                        "backbone credit config sized for {} bridges, fabric has {}",
                        c.n_cores(),
                        topo.clusters
                    ));
                }
                if c.max_latency() != maxl {
                    return Err("backbone credit MaxL differs from the platform MaxL".into());
                }
            }
        }
        Ok(())
    }
}

/// Result of one run.
///
/// `PartialEq` is exact (no float tolerance): the naive and event-driven
/// cycle loops are required to agree **bit for bit**, and the property
/// tests compare whole results with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Core 0's completion cycle (None if it did not finish).
    pub tua_cycles: Option<Cycle>,
    /// Whether the stop condition was met within `max_cycles`.
    pub finished: bool,
    /// Cycles simulated.
    pub total_cycles: Cycle,
    /// Grants per core.
    pub bus_slots: Vec<u64>,
    /// Bus-busy cycles per core.
    pub bus_busy: Vec<u64>,
    /// Idle bus cycles.
    pub bus_idle: u64,
    /// Mean grant latency of core 0's requests.
    pub tua_mean_wait: f64,
    /// Worst grant latency of core 0's requests.
    pub tua_max_wait: u64,
    /// Per-core longest start-to-start grant gap (recording runs only).
    pub max_grant_gap: Vec<Option<Cycle>>,
    /// Per-core longest back-to-back grant burst (recording runs only).
    pub max_burst: Vec<Option<u64>>,
    /// Windowed fairness measurement (runs with [`RunSpec::windows`]
    /// only): per-window core shares and Jain indices, streamed by the
    /// [`WindowedFairnessProbe`]. Completion-attributed, so bit-identical
    /// between the naive and events engines.
    pub windows: Option<WindowedFairness>,
    /// Memory-side counters summed over every memory agent in the run
    /// (`None` when no load placed one, so baseline reports keep their
    /// exact column set). Exact integer sums, so thread-count-independent.
    pub mem: Option<MemStats>,
}

impl RunResult {
    /// Cycle share of `core` relative to the whole run (busy / total).
    pub fn absolute_cycle_share(&self, core: usize) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.bus_busy[core] as f64 / self.total_cycles as f64
        }
    }

    /// Bus utilization (busy cycles / total).
    pub fn utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.bus_busy.iter().sum::<u64>() as f64 / self.total_cycles as f64
        }
    }
}

/// The simulation models [`run_once`] can drive: the workspace-wide cycle
/// protocol plus the client request port and the per-run statistics the
/// result extraction needs. Implemented by the flat [`Bus`] and the
/// hierarchical [`Fabric`].
trait SimModel:
    BusModel<Request = BusRequest, Completion = CompletedTransaction, Error = BusError> + RequestPort
{
    /// Idle cycles of the shared resource (the bus / the backbone).
    fn model_idle_cycles(&self) -> u64;
    /// `(mean, max)` grant latency of core 0's requests at its first
    /// arbitration point.
    fn tua_wait(&self) -> (f64, u64);
}

impl<F: EligibilityFilter> SimModel for Bus<F> {
    fn model_idle_cycles(&self) -> u64 {
        self.idle_cycles()
    }

    fn tua_wait(&self) -> (f64, u64) {
        let c0 = CoreId::from_index(0);
        (
            self.wait_stats().mean_wait(c0),
            self.wait_stats().max_wait(c0),
        )
    }
}

impl SimModel for Fabric {
    fn model_idle_cycles(&self) -> u64 {
        self.idle_cycles()
    }

    fn tua_wait(&self) -> (f64, u64) {
        // Core 0 lives on cluster 0 as local core 0: its first arbitration
        // point is that cluster bus.
        let c0 = CoreId::from_index(0);
        let stats = self.local_wait_stats(c0);
        let local = self.local_id(c0);
        (stats.mean_wait(local), stats.max_wait(local))
    }
}

/// Executes one run of `spec` under `seed`, fully deterministically,
/// building agents through the shared
/// [`default_registry`].
///
/// # Panics
///
/// Panics if the spec fails [`RunSpec::validate`] (specs are constructed
/// programmatically; an invalid one is a harness bug, not an input error).
pub fn run_once(spec: &RunSpec, seed: u64) -> RunResult {
    run_once_with(spec, seed, default_registry())
}

/// [`run_once`] with an explicit [`AgentRegistry`], for callers that
/// register custom agent kinds ([`CoreLoad::Custom`]).
///
/// # Panics
///
/// Panics if the spec fails [`RunSpec::validate`] or names an agent kind
/// the registry cannot build.
pub fn run_once_with(spec: &RunSpec, seed: u64, registry: &AgentRegistry) -> RunResult {
    if let Err(why) = spec.validate() {
        panic!("invalid run spec: {why}");
    }
    let rng = SimRng::seed_from(seed);
    match &spec.platform.topology {
        None => execute(build_bus(spec, &rng), spec, &rng, registry),
        Some(topo) => execute(build_fabric(spec, topo, &rng), spec, &rng, registry),
    }
}

/// Assembles the flat shared bus: policy, filter, random source, trace.
/// Every part sits in its static slot, so the bus's per-visit calls need
/// no virtual dispatch.
fn build_bus(spec: &RunSpec, rng: &SimRng) -> Bus<BusFilter> {
    let platform = &spec.platform;
    let n = platform.n_cores;
    let maxl = platform.latency.max_latency();
    let filter = match &platform.cba {
        Some(credit) => {
            let mode = if spec.wcet_mode {
                Mode::WcetEstimation {
                    tua: CoreId::from_index(0),
                }
            } else {
                Mode::Operation
            };
            BusFilter::Credit(CreditFilter::with_mode(credit.clone(), mode))
        }
        None => BusFilter::Unfiltered(NoFilter::new()),
    };
    let source = if platform.lfsr_randbank {
        let bank_seed = rng.fork(0xA9).next_u64();
        BusRng::Lfsr(LfsrBank::new(16, bank_seed).expect("valid width"))
    } else {
        BusRng::Soft(rng.fork(0xA9))
    };
    let mut bus = Bus::assemble(
        BusConfig::new(n, maxl).expect("validated platform"),
        platform.policy.bus_policy(n, maxl),
        filter,
        source,
    );
    if spec.record_trace {
        bus.enable_recording_trace();
    }
    bus
}

/// Assembles the hierarchical fabric: per-cluster policies and filters,
/// the backbone's, and one random source per segment. In WCET-estimation
/// mode the TuA's cluster (cluster 0, local core 0) runs its filter in
/// `WcetEstimation` mode; every other segment arbitrates in operation
/// mode — contenders on remote clusters never share the TuA's segment, so
/// the COMP gating applies exactly where the TuA competes.
fn build_fabric(spec: &RunSpec, topo: &FabricTopology, rng: &SimRng) -> Fabric {
    let maxl = spec.platform.latency.max_latency();
    let config = FabricConfig::new(
        topo.clusters,
        topo.cores_per_cluster,
        maxl,
        topo.bridge_latency,
        topo.bridge_depth,
    )
    .expect("validated topology");
    let cluster_policies = (0..topo.clusters)
        .map(|_| topo.cluster_policy.build(topo.cores_per_cluster, maxl))
        .collect();
    let mut fabric = Fabric::new(
        config,
        cluster_policies,
        topo.backbone_policy.build(topo.clusters, maxl),
    )
    .expect("validated topology");
    if let Some(credit) = &topo.cluster_cba {
        for k in 0..topo.clusters {
            let mode = if spec.wcet_mode && k == 0 {
                Mode::WcetEstimation {
                    tua: CoreId::from_index(0),
                }
            } else {
                Mode::Operation
            };
            fabric.set_cluster_filter(k, Box::new(CreditFilter::with_mode(credit.clone(), mode)));
        }
    }
    if let Some(credit) = &topo.backbone_cba {
        fabric.set_backbone_filter(Box::new(CreditFilter::new(credit.clone())));
    }
    // One independent random stream per arbitration point, all forked off
    // the run seed (segment 0 = backbone, 1.. = clusters).
    let arb = rng.fork(0xA9);
    let segment_seed = |i: u64| arb.fork(i).next_u64();
    if spec.platform.lfsr_randbank {
        fabric.set_backbone_random_source(Box::new(
            LfsrBank::new(16, segment_seed(0)).expect("valid width"),
        ));
        for k in 0..topo.clusters {
            fabric.set_cluster_random_source(
                k,
                Box::new(LfsrBank::new(16, segment_seed(1 + k as u64)).expect("valid width")),
            );
        }
    } else {
        fabric.set_backbone_random_source(Box::new(SimRng::seed_from(segment_seed(0))));
        for k in 0..topo.clusters {
            fabric.set_cluster_random_source(
                k,
                Box::new(SimRng::seed_from(segment_seed(1 + k as u64))),
            );
        }
    }
    if spec.record_trace {
        fabric.enable_recording_trace();
    }
    fabric
}

/// Assembles a [`Simulation`] over `bus`, runs it and extracts the
/// [`RunResult`] — shared verbatim by the flat-bus and fabric paths, so
/// both run the exact same engine and accounting.
fn execute<M: SimModel + 'static>(
    bus: M,
    spec: &RunSpec,
    rng: &SimRng,
    registry: &AgentRegistry,
) -> RunResult {
    let builder = assemble(bus, spec, rng, registry);
    match spec.windows {
        None => {
            let sim = builder.run();
            extract(&sim, spec, None)
        }
        Some(w) => {
            let StopCondition::Horizon(h) = spec.stop else {
                unreachable!("validated: windows require a horizon stop");
            };
            let window_len = h / w as Cycle;
            let probe = WindowedFairnessProbe::new(spec.platform.n_cores, window_len, w as usize);
            let sim = builder.observe(probe).run();
            let windows = sim.probe().snapshot();
            extract(&sim, spec, Some(windows))
        }
    }
}

/// Builds the agents through the registry and assembles the
/// [`Simulation`] over `bus`: stop condition, engine and safety limit
/// from `spec`.
fn assemble<M: SimModel + 'static>(
    bus: M,
    spec: &RunSpec,
    rng: &SimRng,
    registry: &AgentRegistry,
) -> SimulationBuilder<M> {
    let platform = &spec.platform;
    // One coherence hub per run, shared by every `shared` agent so their
    // snoops see each other (validated: such loads imply `memory`).
    let hub = spec.loads.iter().any(|l| l.kind() == "shared").then(|| {
        let mem = platform
            .memory
            .as_ref()
            .expect("validated: shared loads require a memory configuration");
        shared_hub(platform.n_cores, mem.shared_lines)
    });
    let agents: Vec<sim_core::BoxedAgent<M>> = spec
        .loads
        .iter()
        .enumerate()
        .map(|(i, load)| {
            let mut agent_rng = rng.fork(0xC0 + i as u64);
            let agent = registry
                .build_shared(
                    load,
                    CoreId::from_index(i),
                    platform,
                    hub.clone(),
                    &mut agent_rng,
                )
                .unwrap_or_else(|why| panic!("cannot build agent '{load}' for core {i}: {why}"));
            Box::new(PortAgent::new(agent)) as sim_core::BoxedAgent<M>
        })
        .collect();
    Simulation::builder()
        .model(bus)
        .agents(agents)
        .stop(match spec.stop {
            StopCondition::TuaDone => StopWhen::AgentDone(0),
            StopCondition::AllDone => StopWhen::AllAgentsDone,
            StopCondition::Horizon(h) => StopWhen::Horizon(h),
        })
        .engine(match spec.drive {
            DriveMode::Events => Engine::Events,
            DriveMode::Naive => Engine::Naive,
        })
        .max_cycles(spec.max_cycles)
}

/// Pulls the [`RunResult`] out of a finished [`Simulation`].
fn extract<M: SimModel, P: Probe<CompletedTransaction>>(
    sim: &Simulation<M, P>,
    spec: &RunSpec,
    windows: Option<WindowedFairness>,
) -> RunResult {
    let outcome = sim.outcome().expect("simulation ran");
    let bus = sim.model();
    let trace = bus.trace();
    let ids: Vec<CoreId> = (0..spec.platform.n_cores).map(CoreId::from_index).collect();
    let (tua_mean_wait, tua_max_wait) = bus.tua_wait();
    let mut mem: Option<MemStats> = None;
    for i in 0..spec.platform.n_cores {
        if let Some(m) = sim.agent(i).stats().mem {
            mem.get_or_insert_with(MemStats::default).accumulate(m);
        }
    }
    RunResult {
        tua_cycles: sim.agent(0).done_at(),
        finished: outcome.stopped,
        total_cycles: outcome.cycles,
        bus_slots: ids.iter().map(|&c| trace.slots(c)).collect(),
        bus_busy: ids.iter().map(|&c| trace.busy_cycles(c)).collect(),
        bus_idle: bus.model_idle_cycles(),
        tua_mean_wait,
        tua_max_wait,
        max_grant_gap: ids.iter().map(|&c| trace.max_grant_gap(c)).collect(),
        max_burst: ids.iter().map(|&c| trace.max_burst_len(c)).collect(),
        windows,
        mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BusSetup;
    use sim_core::AgentStats;

    #[test]
    fn isolation_run_finishes_deterministically() {
        let spec = RunSpec::paper(BusSetup::Rp, Scenario::Isolation, CoreLoad::named("rspeed"));
        let a = run_once(&spec, 7);
        let b = run_once(&spec, 7);
        assert!(a.finished);
        assert_eq!(a.tua_cycles, b.tua_cycles, "same seed, same cycles");
        assert_eq!(a.bus_slots, b.bus_slots);
        let c = run_once(&spec, 8);
        assert_ne!(
            a.tua_cycles, c.tua_cycles,
            "different seeds should perturb the run (randomized caches)"
        );
    }

    #[test]
    fn contention_slows_the_tua_down() {
        let iso = RunSpec::paper(BusSetup::Rp, Scenario::Isolation, CoreLoad::named("matrix"));
        let con = RunSpec::paper(
            BusSetup::Rp,
            Scenario::MaxContention,
            CoreLoad::named("matrix"),
        );
        let iso_t = run_once(&iso, 1).tua_cycles.unwrap();
        let con_t = run_once(&con, 1).tua_cycles.unwrap();
        assert!(
            con_t > iso_t + iso_t / 2,
            "contention must hurt: iso {iso_t}, con {con_t}"
        );
    }

    #[test]
    fn fixed_task_isolation_matches_analytic_time() {
        let spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::FixedTask {
                n_requests: 100,
                duration: 6,
                gap: 4,
            },
        );
        let r = run_once(&spec, 3);
        assert_eq!(r.tua_cycles, Some(1_000));
    }

    #[test]
    fn horizon_runs_exactly_that_long() {
        let mut spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::MaxContention,
            CoreLoad::FixedTask {
                n_requests: 1,
                duration: 5,
                gap: 0,
            },
        );
        spec.loads[0] = CoreLoad::Saturating { duration: 5 };
        spec.stop = StopCondition::Horizon(10_000);
        let r = run_once(&spec, 1);
        assert!(r.finished);
        assert_eq!(r.total_cycles, 10_000);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut spec = RunSpec::paper(BusSetup::Rp, Scenario::Isolation, CoreLoad::named("rspeed"));
        spec.loads.pop();
        assert!(spec.validate().is_err());

        let mut spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::Saturating { duration: 5 },
        );
        assert!(spec.validate().is_err(), "TuaDone with infinite TuA");
        spec.stop = StopCondition::Horizon(100);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn unknown_benchmark_panics_with_context() {
        let spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::named("not-a-benchmark"),
        );
        let result = std::panic::catch_unwind(|| run_once(&spec, 0));
        assert!(result.is_err());
    }

    #[test]
    fn shares_accounting_consistent() {
        let mut spec = RunSpec::paper(
            BusSetup::Cba,
            Scenario::MaxContention,
            CoreLoad::named("matrix"),
        );
        spec.record_trace = true;
        let r = run_once(&spec, 5);
        assert!(r.finished);
        let busy: u64 = r.bus_busy.iter().sum();
        // Busy cycles are recorded at grant time for the full transaction,
        // so a transaction in flight when the TuA finishes can overhang the
        // simulated horizon by up to MaxL cycles.
        assert!(busy + r.bus_idle >= r.total_cycles);
        assert!(busy + r.bus_idle <= r.total_cycles + 56);
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
        // Recording traces expose burst metrics.
        assert!(r.max_burst.iter().any(|b| b.is_some()));
    }

    /// Runs `spec` under both cycle loops on seeds 1 and 7 and asserts
    /// the whole `RunResult`s agree: traces, wait statistics, cycle
    /// counters and windowed fairness.
    fn assert_naive_matches_events(spec: &RunSpec, what: &str) {
        for seed in [1, 7] {
            let mut naive = spec.clone();
            naive.drive = DriveMode::Naive;
            let mut events = spec.clone();
            events.drive = DriveMode::Events;
            assert_eq!(
                run_once(&naive, seed),
                run_once(&events, seed),
                "{what} seed {seed}"
            );
        }
    }

    /// The two cycle loops must agree exactly — whole `RunResult`s,
    /// including traces, wait statistics and cycle counters.
    #[test]
    fn naive_and_event_loops_are_bit_identical() {
        let specs = [
            RunSpec::paper(BusSetup::Rp, Scenario::Isolation, CoreLoad::named("rspeed")),
            RunSpec::paper(
                BusSetup::Cba,
                Scenario::MaxContention,
                CoreLoad::named("matrix"),
            ),
            RunSpec::paper(
                BusSetup::HCba,
                Scenario::MaxContention,
                CoreLoad::FixedTask {
                    n_requests: 200,
                    duration: 6,
                    gap: 4,
                },
            ),
        ];
        for (i, spec) in specs.iter().enumerate() {
            assert_naive_matches_events(spec, &format!("spec {i}"));
        }
    }

    /// RP, CBA and H-CBA under maximum contention.
    #[test]
    fn naive_matches_events_on_paper_cells() {
        for setup in [BusSetup::Rp, BusSetup::Cba, BusSetup::HCba] {
            let spec = RunSpec::paper(
                setup.clone(),
                Scenario::MaxContention,
                CoreLoad::FixedTask {
                    n_requests: 200,
                    duration: 6,
                    gap: 4,
                },
            );
            assert_naive_matches_events(&spec, &format!("{setup:?}"));
        }
    }

    /// A horizon-stopped run with windowed fairness.
    #[test]
    fn naive_matches_events_on_horizon_and_windows() {
        let mut spec = RunSpec::paper(
            BusSetup::Cba,
            Scenario::MaxContention,
            CoreLoad::Saturating { duration: 5 },
        );
        spec.wcet_mode = false;
        spec.stop = StopCondition::Horizon(24_000);
        spec.windows = Some(8);
        assert_naive_matches_events(&spec, "windowed");
    }

    /// A run that records its grant trace (burst metrics included).
    #[test]
    fn naive_matches_events_on_recording_runs() {
        let mut spec = RunSpec::paper(
            BusSetup::Cba,
            Scenario::MaxContention,
            CoreLoad::named("matrix"),
        );
        spec.record_trace = true;
        assert_naive_matches_events(&spec, "recording");
    }

    /// A 4x4 round-robin fabric.
    #[test]
    fn naive_matches_events_on_a_fabric() {
        let mut platform = PlatformConfig::paper(&BusSetup::Rp);
        platform.n_cores = 16;
        platform.cba = None;
        platform.topology = Some(FabricTopology {
            clusters: 4,
            cores_per_cluster: 4,
            bridge_latency: 4,
            bridge_depth: 2,
            cluster_policy: cba_bus::PolicyKind::RoundRobin,
            cluster_cba: None,
            backbone_policy: cba_bus::PolicyKind::RoundRobin,
            backbone_cba: None,
        });
        let sat = CoreLoad::Saturating { duration: 28 };
        let mut spec =
            RunSpec::with_platform(platform, Scenario::Custom(vec![sat.clone(); 15]), sat);
        spec.wcet_mode = false;
        spec.stop = StopCondition::Horizon(50_000);
        assert_naive_matches_events(&spec, "fabric");
    }

    #[test]
    fn event_loop_handles_horizon_and_trace_runs() {
        let mut spec = RunSpec::paper(
            BusSetup::Cba,
            Scenario::MaxContention,
            CoreLoad::Saturating { duration: 56 },
        );
        spec.loads[0] = CoreLoad::Saturating { duration: 5 };
        spec.stop = StopCondition::Horizon(20_000);
        spec.wcet_mode = false;
        spec.record_trace = true;
        let mut naive = spec.clone();
        naive.drive = DriveMode::Naive;
        let a = run_once(&naive, 3);
        let b = run_once(&spec, 3);
        assert_eq!(a, b);
        assert!(a.finished);
        assert_eq!(a.total_cycles, 20_000, "horizon must not be overshot");
    }

    /// A [`Bus`] that counts its `begin_cycle` calls (the cycles the
    /// engine executes) and forwards the limit-cycle hooks only when
    /// `hooks` is set.
    struct CountingBus {
        bus: Bus<BusFilter>,
        begins: u64,
        hooks: bool,
    }

    impl BusModel for CountingBus {
        type Request = BusRequest;
        type Completion = CompletedTransaction;
        type Error = BusError;

        fn begin_cycle(&mut self, now: Cycle) -> Option<CompletedTransaction> {
            self.begins += 1;
            self.bus.begin_cycle(now)
        }
        fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
            self.bus.post(req)
        }
        fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
            self.bus.end_cycle(now)
        }
        fn owner(&self) -> Option<CoreId> {
            self.bus.owner()
        }
        fn trace(&self) -> &sim_core::trace::GrantTrace {
            self.bus.trace()
        }
        fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
            self.bus.next_event(now)
        }
        fn advance(&mut self, from: Cycle, to: Cycle) {
            self.bus.advance(from, to)
        }
        fn drain_events(&mut self, sink: &mut dyn FnMut(sim_core::ModelEvent)) {
            self.bus.drain_events(sink)
        }
        fn signature(
            &self,
            now: Cycle,
            state: &mut Vec<u64>,
            counters: &mut Vec<(u64, u64)>,
        ) -> bool {
            self.hooks && self.bus.signature(now, state, counters)
        }
        fn shift(&mut self, periods: u64, span: Cycle, deltas: &[u64]) {
            self.bus.shift(periods, span, deltas)
        }
    }

    impl RequestPort for CountingBus {
        fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
            self.bus.post(req)
        }
        fn withdraw(&mut self, core: CoreId) -> Option<BusRequest> {
            self.bus.withdraw(core)
        }
        fn can_accept(&self, core: CoreId) -> bool {
            RequestPort::can_accept(&self.bus, core)
        }
    }

    impl SimModel for CountingBus {
        fn model_idle_cycles(&self) -> u64 {
            self.bus.model_idle_cycles()
        }
        fn tua_wait(&self) -> (f64, u64) {
            self.bus.tua_wait()
        }
    }

    /// What a run on a [`CountingBus`] must reproduce exactly: the
    /// result, every agent's statistics and every core's wait statistics
    /// (grants, mean and worst wait).
    type Observed = (RunResult, Vec<AgentStats>, Vec<(u64, f64, u64)>);

    /// Runs `spec` on a [`CountingBus`]: what it observed and the number
    /// of executed cycles.
    fn run_counting(spec: &RunSpec, hooks: bool) -> (Observed, u64) {
        let rng = SimRng::seed_from(3);
        let bus = CountingBus {
            bus: build_bus(spec, &rng),
            begins: 0,
            hooks,
        };
        let sim = assemble(bus, spec, &rng, default_registry()).run();
        let stats = sim.agents().iter().map(|a| a.stats()).collect();
        let wait = sim.model().bus.wait_stats();
        let waits = CoreId::all(spec.platform.n_cores)
            .map(|c| (wait.granted(c), wait.mean_wait(c), wait.max_wait(c)))
            .collect();
        let observed = (extract(&sim, spec, None), stats, waits);
        (observed, sim.model().begins)
    }

    /// The limit-cycle fast-forward must fire on its eligible shape (RR,
    /// synthetic loads) and stay exact: a broken eligibility check would
    /// otherwise pass every identity test silently.
    ///
    /// This mix repeats every 4,500 cycles. The detection period and the
    /// final partial period (up to the TuA's last completion, which runs
    /// live) always execute, so the saving grows with the run: about 6x
    /// fewer executed cycles at 500 TuA requests (~11 periods), well over
    /// 10x at 5,000.
    #[test]
    fn fast_forward_fires_and_matches_naive() {
        for (n_requests, min_saving) in [(500, 4), (5_000, 10)] {
            let rr = BusSetup::Custom {
                policy: cba_bus::PolicyKind::RoundRobin,
                cba: None,
            };
            let mut spec = RunSpec::paper(
                rr,
                Scenario::Custom(vec![
                    CoreLoad::Saturating { duration: 28 },
                    CoreLoad::Saturating { duration: 56 },
                    CoreLoad::Periodic {
                        duration: 8,
                        period: 100,
                        phase: 13,
                    },
                ]),
                CoreLoad::FixedTask {
                    n_requests,
                    duration: 6,
                    gap: 0,
                },
            );
            spec.wcet_mode = false;
            let mut naive_spec = spec.clone();
            naive_spec.drive = DriveMode::Naive;
            let (naive, _) = run_counting(&naive_spec, true);
            let (fast, fast_cycles) = run_counting(&spec, true);
            let (stepped, stepped_cycles) = run_counting(&spec, false);
            assert_eq!(fast, naive, "{n_requests}");
            assert_eq!(stepped, naive, "{n_requests}");
            assert!(
                fast_cycles * min_saving <= stepped_cycles,
                "{n_requests} requests: fast-forward executed {fast_cycles} cycles, \
                 events without it {stepped_cycles}"
            );
        }
    }

    #[test]
    fn lfsr_and_software_rng_both_work() {
        for lfsr in [true, false] {
            let mut spec = RunSpec::paper(
                BusSetup::Rp,
                Scenario::MaxContention,
                CoreLoad::named("rspeed"),
            );
            spec.platform.lfsr_randbank = lfsr;
            let r = run_once(&spec, 11);
            assert!(r.finished, "lfsr={lfsr}");
        }
    }
}
