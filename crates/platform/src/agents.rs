//! The name-keyed [`AgentRegistry`]: how [`CoreLoad`]s become live
//! [`SimAgent`]s.
//!
//! PR 1 unified the bus side behind `sim_core::BusModel`; this module
//! opens the *client* side the same way. Every workload kind the
//! platform can place on a core — the full core model running a
//! benchmark, saturating/periodic contenders, fixed-request tasks, the
//! idle slot — is registered under a **kind name** (the prefix of the
//! scenario load-spec mini-language: `bench`, `profile`, `stream`,
//! `sat`, `per`, `fixed`, `idle`), and `run_once` builds agents purely
//! through the registry. Downstream users register new kinds with
//! [`AgentRegistry::register`] and reference them from scenario files as
//! `agent:KIND:ARGS...` ([`CoreLoad::Custom`]) — no edit to
//! `cba-platform` required.
//!
//! Agents are built against the *port* trait object
//! (`dyn RequestPort`), so one registration drives the flat [`Bus`](cba_bus::Bus)
//! and the hierarchical [`Fabric`](cba_bus::fabric::Fabric) alike;
//! [`PortAgent`] bridges the boxed port-generic agent into the
//! model-generic [`Simulation`](sim_core::Simulation) facade.

use crate::config::PlatformConfig;
use crate::platform::CoreLoad;
use cba_bus::{CompletedTransaction, RequestPort};
use cba_cpu::{Contender, Core, FixedRequestTask, MemAgent, PeriodicContender};
use cba_mem::{shared_hub, SharedHub};
use cba_workloads::{Streaming, SyntheticEembc};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::rng::SimRng;
use sim_core::{Control, CoreId, Cycle};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A boxed agent posting through the workspace's client port — the
/// currency of the registry.
pub type BoxedPortAgent = Box<dyn SimAgent<dyn RequestPort, CompletedTransaction>>;

/// Everything an agent builder may consult.
pub struct AgentCtx<'a> {
    /// The core the agent will drive.
    pub core: CoreId,
    /// The load being built (builders for custom kinds usually only need
    /// [`AgentCtx::args`]).
    pub load: &'a CoreLoad,
    /// Raw `:`-separated arguments, for [`CoreLoad::Custom`] kinds
    /// (empty for built-ins, whose parameters live in the enum variant).
    pub args: &'a [String],
    /// The platform being assembled (latency model, cache geometry,
    /// store-buffer depth).
    pub platform: &'a PlatformConfig,
    /// This agent's private random stream, already forked per core from
    /// the run seed. Fork sub-streams from it; never reseed it.
    pub rng: &'a mut SimRng,
    /// The run's MESI coherence hub, present when the run spec placed at
    /// least one `shared` load (the engines create one hub per run).
    /// When a `shared` agent is built with `None` here — e.g. in a
    /// single-agent conformance harness — the builder makes a private
    /// per-call hub.
    pub hub: Option<SharedHub>,
}

type Builder = Box<dyn Fn(&mut AgentCtx<'_>) -> Result<BoxedPortAgent, String> + Send + Sync>;

/// A name-keyed table of agent builders.
///
/// [`AgentRegistry::builtin`] covers every load kind the scenario format
/// ships; [`AgentRegistry::register`] adds (or overrides) kinds. Pass a
/// custom registry to [`run_once_with`](crate::platform::run_once_with)
/// — the plain [`run_once`](crate::platform::run_once) uses the shared
/// [`default_registry`].
pub struct AgentRegistry {
    builders: BTreeMap<String, Builder>,
}

impl std::fmt::Debug for AgentRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl Default for AgentRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl AgentRegistry {
    /// An empty registry (no kinds at all).
    pub fn empty() -> Self {
        AgentRegistry {
            builders: BTreeMap::new(),
        }
    }

    /// The built-in kinds: `bench`, `profile`, `stream` (the full core
    /// model), `sat`, `per`, `fixed` (the synthetic clients), `idle`, and
    /// the miss-stream memory agents `mem` (private hierarchy only) and
    /// `shared` (coherent through the run's MESI hub).
    pub fn builtin() -> Self {
        let mut reg = Self::empty();
        for kind in ["bench", "profile", "stream"] {
            reg.register(kind, build_core_agent);
        }
        for kind in ["mem", "shared"] {
            reg.register(kind, build_mem_agent);
        }
        reg.register("sat", |ctx: &mut AgentCtx<'_>| {
            let CoreLoad::Saturating { duration } = ctx.load else {
                return Err(format!("kind 'sat' cannot build '{}'", ctx.load));
            };
            Ok(Box::new(Contender::new(ctx.core, *duration)))
        });
        reg.register("per", |ctx: &mut AgentCtx<'_>| {
            let CoreLoad::Periodic {
                duration,
                period,
                phase,
            } = ctx.load
            else {
                return Err(format!("kind 'per' cannot build '{}'", ctx.load));
            };
            Ok(Box::new(PeriodicContender::new(
                ctx.core, *duration, *period, *phase,
            )))
        });
        reg.register("fixed", |ctx: &mut AgentCtx<'_>| {
            let CoreLoad::FixedTask {
                n_requests,
                duration,
                gap,
            } = ctx.load
            else {
                return Err(format!("kind 'fixed' cannot build '{}'", ctx.load));
            };
            Ok(Box::new(FixedRequestTask::new(
                ctx.core,
                *n_requests,
                *duration,
                *gap,
            )))
        });
        reg.register("idle", |_ctx: &mut AgentCtx<'_>| {
            Ok(Box::new(sim_core::agent::Idle::new()) as BoxedPortAgent)
        });
        reg
    }

    /// Registers (or overrides) the builder for `kind`.
    pub fn register(
        &mut self,
        kind: &str,
        builder: impl Fn(&mut AgentCtx<'_>) -> Result<BoxedPortAgent, String> + Send + Sync + 'static,
    ) {
        self.builders.insert(kind.to_string(), Box::new(builder));
    }

    /// The registered kind names, sorted.
    pub fn kinds(&self) -> Vec<&str> {
        self.builders.keys().map(String::as_str).collect()
    }

    /// Whether `kind` is registered.
    pub fn contains(&self, kind: &str) -> bool {
        self.builders.contains_key(kind)
    }

    /// Builds the agent for `load` on `core`.
    ///
    /// # Errors
    ///
    /// Returns a description when the load's kind is unregistered or its
    /// arguments are invalid.
    pub fn build(
        &self,
        load: &CoreLoad,
        core: CoreId,
        platform: &PlatformConfig,
        rng: &mut SimRng,
    ) -> Result<BoxedPortAgent, String> {
        self.build_shared(load, core, platform, None, rng)
    }

    /// Builds the agent for `load` on `core`, handing shared-state
    /// builders (the `shared` memory kind) the run's coherence hub. The
    /// load's parameters are checked first ([`CoreLoad::validate`]), so a
    /// built-in kind never reaches its constructor with a value it
    /// rejects.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AgentRegistry::build`]; every message names
    /// the load.
    pub fn build_shared(
        &self,
        load: &CoreLoad,
        core: CoreId,
        platform: &PlatformConfig,
        hub: Option<SharedHub>,
        rng: &mut SimRng,
    ) -> Result<BoxedPortAgent, String> {
        load.validate(platform.latency.max_latency())?;
        let kind = load.kind();
        let builder = self.builders.get(kind).ok_or_else(|| {
            format!(
                "load '{load}': no agent kind '{kind}' registered (available: {})",
                self.kinds().join(", ")
            )
        })?;
        let empty: &[String] = &[];
        let args = match load {
            CoreLoad::Custom { args, .. } => args.as_slice(),
            _ => empty,
        };
        let mut ctx = AgentCtx {
            core,
            load,
            args,
            platform,
            rng,
            hub,
        };
        builder(&mut ctx)
    }
}

/// Builds a miss-stream [`MemAgent`] for the `mem` (private) and
/// `shared` (coherent) kinds. The stream parameters come from the
/// platform's `[memory]` configuration, not from load-spec arguments.
fn build_mem_agent(ctx: &mut AgentCtx<'_>) -> Result<BoxedPortAgent, String> {
    let kind = ctx.load.kind();
    if !ctx.args.is_empty() {
        return Err(format!(
            "load '{}': kind '{kind}' takes no arguments; its parameters live in the \
             [memory] section",
            ctx.load
        ));
    }
    let config = ctx.platform.memory.clone().ok_or_else(|| {
        format!("load 'agent:{kind}' requires the platform's [memory] configuration")
    })?;
    config.validate().map_err(|e| e.to_string())?;
    let hub = if kind == "shared" {
        Some(match &ctx.hub {
            Some(hub) => hub.clone(),
            // Single-agent harnesses (conformance, unit tests) build
            // without a run-wide hub; a private one is behaviorally
            // identical when no sibling shares the segment.
            None => shared_hub(ctx.platform.n_cores, config.shared_lines),
        })
    } else {
        None
    };
    Ok(Box::new(MemAgent::new(
        ctx.core,
        config,
        ctx.platform.latency,
        hub,
        ctx.rng,
    )))
}

/// Builds the full core model for the `bench` / `profile` / `stream`
/// kinds (one builder: they differ only in the program fed to the core).
fn build_core_agent(ctx: &mut AgentCtx<'_>) -> Result<BoxedPortAgent, String> {
    let program: Box<dyn cba_cpu::Program> = match ctx.load {
        CoreLoad::Profile(profile) => Box::new(SyntheticEembc::new(profile.clone())),
        CoreLoad::Named(name) => cba_workloads::by_name(name)
            .ok_or_else(|| format!("load '{}': unknown benchmark '{name}'", ctx.load))?,
        CoreLoad::Streaming { accesses } => Box::new(Streaming::new(*accesses)),
        other => return Err(format!("core-model kinds cannot build '{other}'")),
    };
    let platform = ctx.platform;
    Ok(Box::new(Core::with_store_buffer(
        ctx.core,
        program,
        &platform.hierarchy,
        platform.latency,
        platform.store_buffer,
        ctx.rng,
    )))
}

/// The shared built-in registry used by
/// [`run_once`](crate::platform::run_once).
pub fn default_registry() -> &'static AgentRegistry {
    static REGISTRY: OnceLock<AgentRegistry> = OnceLock::new();
    REGISTRY.get_or_init(AgentRegistry::builtin)
}

/// Bridges a port-generic boxed agent into the model-generic
/// [`Simulation`](sim_core::Simulation) facade: the registry builds
/// agents against `dyn RequestPort`, the facade drives a concrete model
/// `M`, and this adapter unsizes `&mut M` per call. Every call costs two
/// virtual hops: the facade's boxed `PortAgent`, then the wrapped agent.
pub struct PortAgent(BoxedPortAgent);

impl PortAgent {
    /// Wraps a registry-built agent.
    pub fn new(inner: BoxedPortAgent) -> Self {
        PortAgent(inner)
    }

    /// The wrapped agent.
    pub fn inner(&self) -> &dyn SimAgent<dyn RequestPort, CompletedTransaction> {
        &*self.0
    }
}

impl<M: RequestPort + 'static> SimAgent<M, CompletedTransaction> for PortAgent {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut M,
    ) -> Control {
        self.0.tick(now, completed, port as &mut dyn RequestPort)
    }

    fn wake_at(&self) -> Option<Cycle> {
        self.0.wake_at()
    }

    fn addressed(&self, completion: Option<&CompletedTransaction>) -> bool {
        self.0.addressed(completion)
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn is_inert(&self) -> bool {
        self.0.is_inert()
    }

    fn signature(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<(u64, u64)>) -> bool {
        self.0.signature(now, state, counters)
    }

    fn shift(&mut self, periods: u64, span: Cycle, deltas: &[u64]) {
        self.0.shift(periods, span, deltas)
    }

    fn done_at(&self) -> Option<Cycle> {
        self.0.done_at()
    }

    fn absorb_skipped(&mut self, skipped: u64) {
        self.0.absorb_skipped(skipped);
    }

    fn reset(&mut self, rng: &mut SimRng) {
        self.0.reset(rng);
    }

    fn stats(&self) -> AgentStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BusSetup;
    use cba_bus::{Bus, BusConfig, BusRequest, PolicyKind, RequestKind};

    fn ctx_platform() -> PlatformConfig {
        PlatformConfig::paper(&BusSetup::Rp)
    }

    #[test]
    fn builtin_registry_covers_every_shipped_kind() {
        let reg = AgentRegistry::builtin();
        for kind in [
            "bench", "profile", "stream", "sat", "per", "fixed", "idle", "mem", "shared",
        ] {
            assert!(reg.contains(kind), "missing builtin kind '{kind}'");
        }
        let mut platform = ctx_platform();
        platform.memory = Some(cba_mem::MemoryConfig::default());
        let mut rng = SimRng::seed_from(7);
        let loads = [
            CoreLoad::named("rspeed"),
            CoreLoad::Streaming { accesses: 10 },
            CoreLoad::Saturating { duration: 56 },
            CoreLoad::Periodic {
                duration: 5,
                period: 100,
                phase: 0,
            },
            CoreLoad::FixedTask {
                n_requests: 10,
                duration: 6,
                gap: 4,
            },
            CoreLoad::Idle,
            CoreLoad::Custom {
                kind: "mem".into(),
                args: vec![],
            },
            CoreLoad::Custom {
                kind: "shared".into(),
                args: vec![],
            },
        ];
        for load in &loads {
            reg.build(load, CoreId::from_index(0), &platform, &mut rng)
                .unwrap_or_else(|e| panic!("{load}: {e}"));
        }
    }

    #[test]
    fn mem_kinds_require_a_memory_configuration() {
        let reg = AgentRegistry::builtin();
        let platform = ctx_platform();
        assert!(platform.memory.is_none());
        for kind in ["mem", "shared"] {
            let load = CoreLoad::Custom {
                kind: kind.into(),
                args: vec![],
            };
            let err = match reg.build(
                &load,
                CoreId::from_index(0),
                &platform,
                &mut SimRng::seed_from(1),
            ) {
                Err(e) => e,
                Ok(_) => panic!("must demand [memory]"),
            };
            assert!(err.contains("[memory]"), "{err}");
        }
        // Arguments on the load spec are rejected: parameters live in
        // [memory], not in the spec.
        let mut with_mem = ctx_platform();
        with_mem.memory = Some(cba_mem::MemoryConfig::default());
        let load = CoreLoad::Custom {
            kind: "mem".into(),
            args: vec!["64".into()],
        };
        let err = match reg.build(
            &load,
            CoreId::from_index(0),
            &with_mem,
            &mut SimRng::seed_from(1),
        ) {
            Err(e) => e,
            Ok(_) => panic!("args must be rejected"),
        };
        assert!(err.contains("takes no arguments"), "{err}");
    }

    #[test]
    fn unknown_kind_is_a_build_error_naming_the_alternatives() {
        let reg = AgentRegistry::builtin();
        let load = CoreLoad::Custom {
            kind: "warp".into(),
            args: vec!["9".into()],
        };
        let err = match reg.build(
            &load,
            CoreId::from_index(0),
            &ctx_platform(),
            &mut SimRng::seed_from(0),
        ) {
            Err(e) => e,
            Ok(_) => panic!("unknown kind must not build"),
        };
        assert!(err.contains("no agent kind 'warp'"), "{err}");
        assert!(err.contains("idle"), "alternatives listed: {err}");
    }

    #[test]
    fn custom_kinds_register_and_build_without_touching_the_platform() {
        /// A burst agent: posts `count` back-to-back `duration`-cycle
        /// requests, then goes silent.
        struct Burst {
            core: CoreId,
            left: u64,
            duration: u32,
            done_at: Option<Cycle>,
        }

        impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for Burst {
            fn tick(
                &mut self,
                now: Cycle,
                _completed: Option<&CompletedTransaction>,
                port: &mut P,
            ) -> Control {
                if self.left > 0 && port.can_accept(self.core) {
                    port.post(
                        BusRequest::new(self.core, self.duration, RequestKind::Synthetic, now)
                            .unwrap(),
                    )
                    .unwrap();
                    self.left -= 1;
                    if self.left == 0 {
                        self.done_at = Some(now);
                    }
                }
                Control::Sleep(Cycle::MAX)
            }
            fn wake_at(&self) -> Option<Cycle> {
                Some(Cycle::MAX)
            }
            fn is_done(&self) -> bool {
                self.left == 0
            }
            fn done_at(&self) -> Option<Cycle> {
                self.done_at
            }
            fn reset(&mut self, _rng: &mut SimRng) {}
        }

        let mut reg = AgentRegistry::builtin();
        reg.register("burst", |ctx: &mut AgentCtx<'_>| {
            let [count, duration] = ctx.args else {
                return Err("burst expects COUNT:DURATION".into());
            };
            Ok(Box::new(Burst {
                core: ctx.core,
                left: count.parse().map_err(|_| "bad count".to_string())?,
                duration: duration.parse().map_err(|_| "bad duration".to_string())?,
                done_at: None,
            }))
        });
        let load = CoreLoad::Custom {
            kind: "burst".into(),
            args: vec!["3".into(), "5".into()],
        };
        let mut agent = reg
            .build(
                &load,
                CoreId::from_index(0),
                &ctx_platform(),
                &mut SimRng::seed_from(1),
            )
            .expect("custom kind builds");

        // Drive it on a real bus through the port object.
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        for now in 0..100u64 {
            let done = sim_core::BusModel::begin_cycle(&mut bus, now);
            agent.tick(now, done.as_ref(), &mut bus as &mut dyn RequestPort);
            sim_core::BusModel::end_cycle(&mut bus, now);
        }
        assert!(agent.is_done());
        assert_eq!(bus.trace().total_slots(), 3);
    }
}
