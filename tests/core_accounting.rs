//! The full core model's cycle counters partition its lifetime.
//!
//! Every cycle before `done_at` is exactly one of: pipeline work
//! (`busy_cycles`), a bus stall (waiting to post, posted, in service, or
//! draining the store buffer after the program's end) or a full store
//! buffer (`store_stall_cycles`). The core runs ahead through compute ops
//! and L1 hits and the events engine ticks it only when it is due or
//! addressed, so the counters are filled lazily; they must still add up
//! to `done_at` exactly, and equal the per-cycle reference loop's.

use cba_bus::{Bus, BusConfig, PolicyKind};
use cba_cpu::Core;
use cba_mem::{HierarchyConfig, LatencyModel};
use cba_platform::PortAgent;
use cba_workloads::{all_profiles, SyntheticEembc};
use sim_core::rng::SimRng;
use sim_core::{AgentStats, CoreId, Engine, Simulation, StopWhen};

/// One solo run of `profile` under `seed`: the core's statistics.
fn solo(profile: &cba_workloads::EembcProfile, seed: u64, engine: Engine) -> AgentStats {
    let mut rng = SimRng::seed_from(seed);
    let core = Core::new(
        CoreId::from_index(0),
        Box::new(SyntheticEembc::new(profile.clone())),
        &HierarchyConfig::paper(),
        LatencyModel::paper(),
        &mut rng,
    );
    let maxl = LatencyModel::paper().max_latency();
    let bus = Bus::new(
        BusConfig::new(1, maxl).unwrap(),
        PolicyKind::RoundRobin.build(1, maxl),
    );
    let sim = Simulation::builder()
        .model(bus)
        .agent(PortAgent::new(Box::new(core)))
        .stop(StopWhen::AgentDone(0))
        .engine(engine)
        .max_cycles(100_000_000)
        .run();
    assert!(sim.outcome().is_some_and(|o| o.stopped));
    sim.agent(0).stats()
}

#[test]
fn core_cycle_counters_partition_its_lifetime() {
    for profile in all_profiles() {
        for seed in 0..3 {
            let naive = solo(&profile, seed, Engine::Naive);
            let events = solo(&profile, seed, Engine::Events);
            assert_eq!(
                naive, events,
                "{} seed {seed}: engines diverged",
                profile.name
            );
            let done = events.done_at.expect("the run stopped on the core");
            assert_eq!(
                events.busy_cycles + events.bus_stall_cycles + events.store_stall_cycles,
                done,
                "{} seed {seed}: {events:?}",
                profile.name
            );
        }
    }
}
