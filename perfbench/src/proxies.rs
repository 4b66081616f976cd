//! Timing proxies around the program's public traits, and the traced
//! assembly of one run.
//!
//! [`run_traced`] rebuilds what `cba_platform::run_once` builds, from
//! public constructors only, with every policy, filter, random source,
//! model and agent wrapped in a proxy that forwards each call unchanged
//! and records a span around it. The traced ≡ untraced check compares
//! its [`RunResult`] with `run_once`'s for the same spec and seed.

use crate::trace::{count_grant, span, AgentKind, Layer};
use cba::{CreditFilter, Mode};
use cba_bus::pending::{Candidate, PendingSet};
use cba_bus::{
    ArbitrationPolicy, Bus, BusConfig, BusError, BusRequest, CompletedTransaction,
    EligibilityFilter, FilterHorizon, RandomSource, RequestPort,
};
use cba_mem::shared_hub;
use cba_platform::agents::BoxedPortAgent;
use cba_platform::{
    default_registry, DriveMode, PortAgent, RunResult, RunSpec, StopCondition, WindowedFairness,
    WindowedFairnessProbe,
};
use sim_core::agent::{AgentStats, MemStats, SimAgent};
use sim_core::lfsr::LfsrBank;
use sim_core::probe::ModelEvent;
use sim_core::rng::SimRng;
use sim_core::trace::GrantTrace;
use sim_core::{BusModel, Control, CoreId, Cycle, Engine, Probe, Simulation, StopWhen};

/// Times every [`ArbitrationPolicy`] call.
#[derive(Debug)]
pub struct TimedPolicy(pub Box<dyn ArbitrationPolicy>);

impl ArbitrationPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn select(
        &mut self,
        candidates: &[Candidate],
        now: Cycle,
        rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        span(Layer::Policy, || self.0.select(candidates, now, rng))
    }

    fn on_grant(&mut self, core: CoreId, now: Cycle) {
        span(Layer::Policy, || self.0.on_grant(core, now));
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn is_work_conserving(&self) -> bool {
        span(Layer::Policy, || self.0.is_work_conserving())
    }

    fn next_grant_at(&self, candidates: &[Candidate], now: Cycle) -> Option<Cycle> {
        span(Layer::Policy, || self.0.next_grant_at(candidates, now))
    }
}

/// Times every [`EligibilityFilter`] call (`advance` under its own span).
#[derive(Debug)]
pub struct TimedFilter(pub Box<dyn EligibilityFilter>);

impl EligibilityFilter for TimedFilter {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_eligible(&self, core: CoreId, now: Cycle) -> bool {
        span(Layer::Filter, || self.0.is_eligible(core, now))
    }

    fn on_grant(&mut self, core: CoreId, duration: u32, now: Cycle) {
        span(Layer::Filter, || self.0.on_grant(core, duration, now));
    }

    fn tick(&mut self, now: Cycle, owner: Option<CoreId>, pending: &PendingSet) {
        span(Layer::Filter, || self.0.tick(now, owner, pending));
    }

    fn advance(&mut self, now: Cycle, k: u64, owner: Option<CoreId>, pending: &PendingSet) {
        span(Layer::FilterAdvance, || {
            self.0.advance(now, k, owner, pending)
        });
    }

    fn next_eligibility_flip(&self, now: Cycle, pending: &PendingSet) -> FilterHorizon {
        span(Layer::Filter, || self.0.next_eligibility_flip(now, pending))
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Times every random draw.
#[derive(Debug)]
pub struct TimedRng(pub Box<dyn RandomSource>);

impl RandomSource for TimedRng {
    fn next_below(&mut self, n: u64) -> u64 {
        span(Layer::Rng, || self.0.next_below(n))
    }
}

/// Times the drive loop's calls into the model, and the agents' posts.
#[derive(Debug)]
pub struct TimedModel(pub Bus);

impl BusModel for TimedModel {
    type Request = BusRequest;
    type Completion = CompletedTransaction;
    type Error = BusError;

    fn begin_cycle(&mut self, now: Cycle) -> Option<CompletedTransaction> {
        span(Layer::BeginCycle, || self.0.begin_cycle(now))
    }

    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        span(Layer::Post, || BusModel::post(&mut self.0, req))
    }

    fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
        let granted = span(Layer::EndCycle, || self.0.end_cycle(now));
        if granted.is_some() {
            count_grant();
        }
        granted
    }

    fn owner(&self) -> Option<CoreId> {
        self.0.owner()
    }

    fn trace(&self) -> &GrantTrace {
        self.0.trace()
    }

    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        span(Layer::NextEvent, || self.0.next_event(now))
    }

    fn advance(&mut self, from: Cycle, to: Cycle) {
        span(Layer::Advance, || self.0.advance(from, to));
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(ModelEvent)) {
        self.0.drain_events(sink);
    }
}

impl RequestPort for TimedModel {
    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        span(Layer::Post, || RequestPort::post(&mut self.0, req))
    }

    fn withdraw(&mut self, core: CoreId) -> Option<BusRequest> {
        self.0.withdraw(core)
    }

    fn can_accept(&self, core: CoreId) -> bool {
        self.0.can_accept(core)
    }
}

/// Times an agent's `tick`, `absorb_skipped` and `wake_at`, split by its
/// load kind.
pub struct TimedAgent {
    inner: BoxedPortAgent,
    kind: AgentKind,
}

impl TimedAgent {
    /// Wraps a registry-built agent of `kind`.
    pub fn new(inner: BoxedPortAgent, kind: AgentKind) -> Self {
        TimedAgent { inner, kind }
    }
}

impl SimAgent<dyn RequestPort, CompletedTransaction> for TimedAgent {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut (dyn RequestPort + 'static),
    ) -> Control {
        span(Layer::Tick(self.kind), || {
            self.inner.tick(now, completed, port)
        })
    }

    fn wake_at(&self) -> Option<Cycle> {
        span(Layer::WakeAt(self.kind), || self.inner.wake_at())
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn done_at(&self) -> Option<Cycle> {
        self.inner.done_at()
    }

    fn absorb_skipped(&mut self, skipped: u64) {
        span(Layer::Absorb(self.kind), || {
            self.inner.absorb_skipped(skipped)
        });
    }

    fn is_inert(&self) -> bool {
        self.inner.is_inert()
    }

    fn reset(&mut self, rng: &mut SimRng) {
        self.inner.reset(rng);
    }

    fn stats(&self) -> AgentStats {
        self.inner.stats()
    }
}

/// One run of `spec` under `seed`, assembled from proxies through
/// `Simulation::builder()`: the traced twin of `run_once`. Call it between
/// [`crate::trace::begin_run`] and [`crate::trace::end_run`].
///
/// # Panics
///
/// Panics on an invalid spec, like `run_once` does, and on a spec the
/// benchmark's workloads never produce: a non-events engine or a fabric
/// topology.
pub fn run_traced(spec: &RunSpec, seed: u64) -> RunResult {
    if let Err(why) = spec.validate() {
        panic!("invalid run spec: {why}");
    }
    assert_eq!(
        spec.drive,
        DriveMode::Events,
        "the traced run drives the events loop"
    );
    assert!(
        spec.platform.topology.is_none(),
        "the traced run assembles the flat bus"
    );
    span(Layer::Run, || {
        let rng = SimRng::seed_from(seed);
        execute(spec, &rng)
    })
}

fn credit_mode(spec: &RunSpec) -> Mode {
    if spec.wcet_mode {
        Mode::WcetEstimation {
            tua: CoreId::from_index(0),
        }
    } else {
        Mode::Operation
    }
}

fn build_bus(spec: &RunSpec, rng: &SimRng) -> Bus {
    let platform = &spec.platform;
    let n = platform.n_cores;
    let maxl = platform.latency.max_latency();
    let mut bus = Bus::new(
        BusConfig::new(n, maxl).expect("validated platform"),
        Box::new(TimedPolicy(platform.policy.build(n, maxl))),
    );
    if let Some(credit) = &platform.cba {
        let filter = CreditFilter::with_mode(credit.clone(), credit_mode(spec));
        bus.set_filter(Box::new(TimedFilter(Box::new(filter))));
    }
    let source: Box<dyn RandomSource> = if platform.lfsr_randbank {
        let bank_seed = rng.fork(0xA9).next_u64();
        Box::new(LfsrBank::new(16, bank_seed).expect("valid width"))
    } else {
        Box::new(rng.fork(0xA9))
    };
    bus.set_random_source(Box::new(TimedRng(source)));
    if spec.record_trace {
        bus.enable_recording_trace();
    }
    bus
}

fn execute(spec: &RunSpec, rng: &SimRng) -> RunResult {
    let platform = &spec.platform;
    let builder = span(Layer::Build, || {
        let model = TimedModel(build_bus(spec, rng));
        let hub = spec.loads.iter().any(|l| l.kind() == "shared").then(|| {
            let mem = platform
                .memory
                .as_ref()
                .expect("validated: shared loads require a memory configuration");
            shared_hub(platform.n_cores, mem.shared_lines)
        });
        let agents: Vec<sim_core::BoxedAgent<TimedModel>> = spec
            .loads
            .iter()
            .enumerate()
            .map(|(i, load)| {
                let mut agent_rng = rng.fork(0xC0 + i as u64);
                let agent = default_registry()
                    .build_shared(
                        load,
                        CoreId::from_index(i),
                        platform,
                        hub.clone(),
                        &mut agent_rng,
                    )
                    .unwrap_or_else(|why| {
                        panic!("cannot build agent '{load}' for core {i}: {why}")
                    });
                let timed = TimedAgent::new(agent, AgentKind::of(load.kind()));
                Box::new(PortAgent::new(Box::new(timed))) as sim_core::BoxedAgent<TimedModel>
            })
            .collect();
        Simulation::builder()
            .model(model)
            .agents(agents)
            .stop(match spec.stop {
                StopCondition::TuaDone => StopWhen::AgentDone(0),
                StopCondition::AllDone => StopWhen::AllAgentsDone,
                StopCondition::Horizon(h) => StopWhen::Horizon(h),
                other => panic!("unsupported stop condition '{other}'"),
            })
            .engine(Engine::Events)
            .max_cycles(spec.max_cycles)
    });
    match spec.windows {
        None => {
            let sim = span(Layer::Engine, || builder.run());
            extract(&sim, spec, None)
        }
        Some(w) => {
            let StopCondition::Horizon(h) = spec.stop else {
                unreachable!("validated: windows require a horizon stop");
            };
            let probe = WindowedFairnessProbe::new(platform.n_cores, h / w as Cycle, w as usize);
            let sim = span(Layer::Engine, || builder.observe(probe).run());
            let windows = sim.probe().snapshot();
            extract(&sim, spec, Some(windows))
        }
    }
}

fn extract<P: Probe<CompletedTransaction>>(
    sim: &Simulation<TimedModel, P>,
    spec: &RunSpec,
    windows: Option<WindowedFairness>,
) -> RunResult {
    let outcome = sim.outcome().expect("simulation ran");
    let model = &sim.model().0;
    let trace = model.trace();
    let ids: Vec<CoreId> = (0..spec.platform.n_cores).map(CoreId::from_index).collect();
    let tua = CoreId::from_index(0);
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
        bus_idle: model.idle_cycles(),
        tua_mean_wait: model.wait_stats().mean_wait(tua),
        tua_max_wait: model.wait_stats().max_wait(tua),
        max_grant_gap: ids.iter().map(|&c| trace.max_grant_gap(c)).collect(),
        max_burst: ids.iter().map(|&c| trace.max_burst_len(c)).collect(),
        windows,
        mem,
    }
}
