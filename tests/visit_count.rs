//! How often the events loop visits a cycle, counted exactly.
//!
//! Wall time is noisy; the number of cycles the events engine executes
//! is not. On the paper's Figure 1 grid (4 benchmarks x RP/CBA/H-CBA x
//! ISO/CON, two runs per cell) the loop must execute at most 1.6 cycles
//! per bus grant: the core model runs ahead through compute ops and L1
//! hits, sleeps through the classify cycle of a miss and the push of a
//! store into an empty buffer, and sleeping agents are ticked only when
//! due or addressed. The exact count is pinned, so a change that adds
//! visits shows up here even when it stays under the bound.
//!
//! The runs are assembled from public parts exactly as `run_once`
//! assembles them, around a bus that counts its `begin_cycle` calls (one
//! per executed cycle); each run's TuA time must equal `run_once`'s, and
//! its grant count the naive engine's.

use std::path::Path;

use cba::{CreditFilter, Mode};
use cba_bus::{Bus, BusConfig, BusError, BusRequest, CompletedTransaction, RequestPort};
use cba_platform::campaign::run_seed;
use cba_platform::scenario::ScenarioDef;
use cba_platform::{default_registry, run_once, PortAgent, RunSpec, StopCondition};
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::trace::GrantTrace;
use sim_core::{BoxedAgent, BusModel, CoreId, Cycle, Engine, ModelEvent, Simulation, StopWhen};

/// Cycles the events loop executes on the grid, pinned.
const VISITS: u64 = 425_867;

/// A [`Bus`] that counts the cycles the engine executes.
struct CountingBus {
    bus: Bus,
    visits: u64,
}

impl BusModel for CountingBus {
    type Request = BusRequest;
    type Completion = CompletedTransaction;
    type Error = BusError;

    fn begin_cycle(&mut self, now: Cycle) -> Option<CompletedTransaction> {
        self.visits += 1;
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
    fn trace(&self) -> &GrantTrace {
        self.bus.trace()
    }
    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        self.bus.next_event(now)
    }
    fn advance(&mut self, from: Cycle, to: Cycle) {
        self.bus.advance(from, to)
    }
    fn drain_events(&mut self, sink: &mut dyn FnMut(ModelEvent)) {
        self.bus.drain_events(sink)
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

/// The flat bus `run_once` builds for `spec` under the run stream `rng`.
fn build_bus(spec: &RunSpec, rng: &SimRng) -> Bus {
    let platform = &spec.platform;
    let n = platform.n_cores;
    let maxl = platform.latency.max_latency();
    let mut bus = Bus::new(
        BusConfig::new(n, maxl).unwrap(),
        platform.policy.build(n, maxl),
    );
    if let Some(credit) = &platform.cba {
        let mode = if spec.wcet_mode {
            Mode::WcetEstimation {
                tua: CoreId::from_index(0),
            }
        } else {
            Mode::Operation
        };
        bus.set_filter(Box::new(CreditFilter::with_mode(credit.clone(), mode)));
    }
    if platform.lfsr_randbank {
        let bank_seed = rng.fork(0xA9).next_u64();
        bus.set_random_source(Box::new(LfsrBank::new(16, bank_seed).unwrap()));
    } else {
        bus.set_random_source(Box::new(rng.fork(0xA9)));
    }
    bus
}

/// One run of `spec` under `seed`: `(executed cycles, grants, TuA time)`.
fn run(spec: &RunSpec, seed: u64, engine: Engine) -> (u64, u64, Option<Cycle>) {
    assert_eq!(
        spec.stop,
        StopCondition::TuaDone,
        "fig1 runs stop on the TuA"
    );
    let rng = SimRng::seed_from(seed);
    let agents = spec.loads.iter().enumerate().map(|(i, load)| {
        let mut agent_rng = rng.fork(0xC0 + i as u64);
        let agent = default_registry()
            .build_shared(
                load,
                CoreId::from_index(i),
                &spec.platform,
                None,
                &mut agent_rng,
            )
            .unwrap();
        Box::new(PortAgent::new(agent)) as BoxedAgent<CountingBus>
    });
    let sim = Simulation::builder()
        .model(CountingBus {
            bus: build_bus(spec, &rng),
            visits: 0,
        })
        .agents(agents)
        .stop(StopWhen::AgentDone(0))
        .engine(engine)
        .max_cycles(spec.max_cycles)
        .run();
    let model = sim.model();
    (
        model.visits,
        model.trace().total_slots(),
        sim.agent(0).done_at(),
    )
}

#[test]
fn fig1_grid_visits_at_most_1_6_cycles_per_grant() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/paper_fig1.scn");
    let def = ScenarioDef::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let cells = def.expand().unwrap();
    assert_eq!(cells.len(), 24, "4 benchmarks x rp/cba/hcba x iso/con");
    let (mut visits, mut grants) = (0, 0);
    for cell in &cells {
        for i in 0..2 {
            let seed = run_seed(cell.seed, i);
            let (v, g, done) = run(&cell.spec, seed, Engine::Events);
            let (_, naive_grants, naive_done) = run(&cell.spec, seed, Engine::Naive);
            let what = format!("{:?} run {i}", cell.labels);
            assert_eq!(
                g, naive_grants,
                "{what}: grants differ from the naive engine's"
            );
            assert_eq!(
                done, naive_done,
                "{what}: TuA time differs from the naive engine's"
            );
            assert_eq!(
                done,
                run_once(&cell.spec, seed).tua_cycles,
                "{what}: the assembly differs from run_once's"
            );
            visits += v;
            grants += g;
        }
    }
    let per_grant = visits as f64 / grants as f64;
    println!("{visits} visits for {grants} grants: {per_grant:.4} per grant");
    assert!(per_grant <= 1.6, "{per_grant:.4} visits per grant");
    assert_eq!(visits, VISITS, "visit count moved ({grants} grants)");
}
