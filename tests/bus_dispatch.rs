//! The platform's static bus against the boxed bus, cell by cell.
//!
//! `run_once` assembles its flat bus from static parts: the policy and the
//! random source in the bus's own enums, the filter as its type parameter
//! (`Bus<cba::BusFilter>`). The boxed assembly, `Bus::new` +
//! `set_filter` + `set_random_source`, is the one user code and timing
//! proxies build. For every built-in policy, under no filter, CBA, H-CBA
//! and CBA in WCET-estimation mode, drawing from the LFSR bank and from
//! the software stream, one short run through each assembly must grant
//! the same cores the same cycles and wait the same time.

use cba::{CreditFilter, Mode};
use cba_bus::{Bus, BusConfig, PolicyKind};
use cba_platform::{
    default_registry, run_once, BusSetup, CoreLoad, PlatformConfig, PortAgent, RunSpec, Scenario,
};
use cba_workloads::{suite, EembcProfile};
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{BoxedAgent, CoreId, Cycle, Engine, Simulation, StopWhen};

/// What both assemblies must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Grants per core.
    slots: Vec<u64>,
    /// Bus cycles held per core.
    busy: Vec<u64>,
    idle: u64,
    total: u64,
    tua_mean_wait: f64,
    tua_max_wait: u64,
    tua_cycles: Option<Cycle>,
}

/// The filter setups of the grid.
#[derive(Debug, Clone, Copy)]
enum FilterSetup {
    None,
    Cba,
    HCba,
    CbaWcet,
}

/// A short four-core run: a cut-down profile on the TuA against a
/// saturating, a fixed-request and a periodic co-runner.
fn spec(policy: PolicyKind, filter: FilterSetup, lfsr: bool) -> RunSpec {
    let setup = match filter {
        FilterSetup::None => BusSetup::Rp,
        FilterSetup::Cba | FilterSetup::CbaWcet => BusSetup::Cba,
        FilterSetup::HCba => BusSetup::HCba,
    };
    let mut platform = PlatformConfig::paper(&setup);
    platform.policy = policy;
    platform.lfsr_randbank = lfsr;
    let tua = CoreLoad::Profile(EembcProfile {
        accesses: 300,
        working_set: 2048,
        ..suite::rspeed()
    });
    let co_runners = vec![
        CoreLoad::Saturating { duration: 56 },
        CoreLoad::FixedTask {
            n_requests: 150,
            duration: 5,
            gap: 3,
        },
        CoreLoad::Periodic {
            duration: 28,
            period: 97,
            phase: 11,
        },
    ];
    let mut spec = RunSpec::with_platform(platform, Scenario::Custom(co_runners), tua);
    spec.wcet_mode = matches!(filter, FilterSetup::CbaWcet);
    spec
}

/// The run through the platform's static bus.
fn static_run(spec: &RunSpec, seed: u64) -> Observed {
    let r = run_once(spec, seed);
    Observed {
        slots: r.bus_slots,
        busy: r.bus_busy,
        idle: r.bus_idle,
        total: r.total_cycles,
        tua_mean_wait: r.tua_mean_wait,
        tua_max_wait: r.tua_max_wait,
        tua_cycles: r.tua_cycles,
    }
}

/// The same run through a boxed bus, assembled like `run_once`'s.
fn boxed_run(spec: &RunSpec, seed: u64) -> Observed {
    let rng = SimRng::seed_from(seed);
    let platform = &spec.platform;
    let (n, maxl) = (platform.n_cores, platform.latency.max_latency());
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
    let agents = spec.loads.iter().enumerate().map(|(i, load)| {
        let mut agent_rng = rng.fork(0xC0 + i as u64);
        let agent = default_registry()
            .build_shared(load, CoreId::from_index(i), platform, None, &mut agent_rng)
            .unwrap();
        Box::new(PortAgent::new(agent)) as BoxedAgent<Bus>
    });
    let sim = Simulation::builder()
        .model(bus)
        .agents(agents)
        .stop(StopWhen::AgentDone(0))
        .engine(Engine::Events)
        .max_cycles(spec.max_cycles)
        .run();
    let bus = sim.model();
    let trace = bus.trace();
    let tua = CoreId::from_index(0);
    Observed {
        slots: CoreId::all(n).map(|c| trace.slots(c)).collect(),
        busy: CoreId::all(n).map(|c| trace.busy_cycles(c)).collect(),
        idle: bus.idle_cycles(),
        total: sim.outcome().unwrap().cycles,
        tua_mean_wait: bus.wait_stats().mean_wait(tua),
        tua_max_wait: bus.wait_stats().max_wait(tua),
        tua_cycles: sim.agent(0).done_at(),
    }
}

#[test]
fn static_and_boxed_buses_grant_alike() {
    let filters = [
        FilterSetup::None,
        FilterSetup::Cba,
        FilterSetup::HCba,
        FilterSetup::CbaWcet,
    ];
    let mut grants = 0;
    for policy in PolicyKind::ALL {
        for filter in filters {
            for lfsr in [true, false] {
                let spec = spec(policy, filter, lfsr);
                let seed = 0xB05 + grants;
                let fast = static_run(&spec, seed);
                let boxed = boxed_run(&spec, seed);
                let what = format!("{policy} / {filter:?} / lfsr {lfsr}");
                assert!(fast.tua_cycles.is_some(), "{what}: the TuA did not finish");
                assert_eq!(fast, boxed, "{what}");
                grants += fast.slots.iter().sum::<u64>();
            }
        }
    }
    // 48 cells of a few hundred grants each: the runs did arbitrate.
    assert!(grants > 48 * 300, "only {grants} grants");
}
