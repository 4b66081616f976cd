//! `SimAgent` conformance suite: every shipped agent implementation must
//! honor the two contracts the open client API rests on.
//!
//! 1. **Wake honesty** — an agent sleeping until its declared
//!    [`wake_at`](sim_core::SimAgent::wake_at) never posts earlier:
//!    ticking it only at wake cycles and on cycles whose completion it is
//!    [`addressed`](sim_core::SimAgent::addressed) by produces the
//!    *exact* post stream and statistics of ticking it every cycle, even
//!    while a saturating neighbour fills the bus with foreign
//!    completions. This is the property the events engine's due-only
//!    ticking and bit-identity guarantee reduce to on the client side.
//! 2. **Reset ≡ fresh** — [`reset`](sim_core::SimAgent::reset) through
//!    the trait restores a fresh-construction agent: re-running the same
//!    workload yields identical post streams and statistics.
//!
//! Agents are built through the [`AgentRegistry`], so the suite also
//! pins the registry's kind coverage.

use cba_bus::{
    Bus, BusConfig, BusError, BusRequest, CompletedTransaction, PolicyKind, RequestKind,
    RequestPort,
};
use cba_cpu::Contender;
use cba_platform::agents::{default_registry, BoxedPortAgent};
use cba_platform::{BusSetup, CoreLoad, PlatformConfig};
use sim_core::rng::SimRng;
use sim_core::{AgentStats, Control, CoreId, Cycle, SimAgent};

/// A request port that records every accepted post before forwarding it
/// to the real bus.
struct SpyPort {
    bus: Bus,
    posts: Vec<(Cycle, usize, u32)>,
}

impl SpyPort {
    fn new(n_cores: usize) -> Self {
        SpyPort {
            bus: Bus::new(
                BusConfig::new(n_cores, 56).unwrap(),
                PolicyKind::RoundRobin.build(n_cores, 56),
            ),
            posts: Vec::new(),
        }
    }
}

impl RequestPort for SpyPort {
    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        self.bus.post(req)?;
        self.posts
            .push((req.issued_at(), req.core().index(), req.duration()));
        Ok(())
    }

    fn withdraw(&mut self, core: CoreId) -> Option<BusRequest> {
        self.bus.withdraw(core)
    }

    fn can_accept(&self, core: CoreId) -> bool {
        self.bus.can_accept(core)
    }
}

/// Every shipped agent kind, as the load that builds it.
fn shipped_loads() -> Vec<CoreLoad> {
    let agent = |kind: &str| CoreLoad::Custom {
        kind: kind.into(),
        args: Vec::new(),
    };
    vec![
        CoreLoad::named("rspeed"),
        CoreLoad::Streaming { accesses: 60 },
        CoreLoad::Saturating { duration: 28 },
        CoreLoad::Periodic {
            duration: 11,
            period: 73,
            phase: 9,
        },
        CoreLoad::FixedTask {
            n_requests: 40,
            duration: 6,
            gap: 4,
        },
        CoreLoad::Idle,
        agent("mem"),
        agent("shared"),
    ]
}

/// A small synthetic-stream config so the memory agents finish inside
/// the conformance horizons.
fn memory_config() -> cba_mem::MemoryConfig {
    cba_mem::MemoryConfig {
        working_set: 1024,
        accesses: 120,
        think: 3,
        l1_sets: 16,
        l1_ways: 2,
        share_frac: 0.4,
        ..Default::default()
    }
}

fn build(load: &CoreLoad, seed: u64) -> BoxedPortAgent {
    let mut platform = PlatformConfig::paper(&BusSetup::Rp);
    platform.memory = Some(memory_config());
    let mut rng = SimRng::seed_from(seed).fork(0xC0);
    default_registry()
        .build(load, CoreId::from_index(0), &platform, &mut rng)
        .unwrap_or_else(|e| panic!("{load}: {e}"))
}

/// The agent under test posts as core 0; a saturating contender on core
/// 1 keeps the bus busy with foreign completions.
const NEIGHBOUR: usize = 1;

/// The posts of the agent under test, as `(cycle, core, duration)`.
fn own_posts(port: SpyPort) -> Vec<(Cycle, usize, u32)> {
    let mut posts = port.posts;
    posts.retain(|&(_, core, _)| core != NEIGHBOUR);
    posts
}

/// Ticks `agent` and the neighbour every cycle for `horizon` cycles;
/// returns the agent's post log and its final stats.
fn drive_dense(
    agent: &mut BoxedPortAgent,
    horizon: Cycle,
) -> (Vec<(Cycle, usize, u32)>, AgentStats) {
    let mut port = SpyPort::new(2);
    let mut neighbour = Contender::new(CoreId::from_index(NEIGHBOUR), 56);
    for now in 0..horizon {
        let done = port.bus.begin_cycle(now);
        agent.tick(now, done.as_ref(), &mut port);
        neighbour.tick(now, done.as_ref(), &mut port);
        port.bus.end_cycle(now);
    }
    (own_posts(port), agent.stats())
}

/// The next cycle a client ticked at `now` is due, from its verdict: an
/// agent demanding every cycle gets every cycle.
fn due_after(verdict: Control, now: Cycle) -> Cycle {
    match verdict {
        Control::Sleep(t) => t,
        Control::Continue | Control::Stop => now + 1,
    }
}

/// Visits cycles the way the events engine does: the next wake of
/// either client or the bus's next event. On a visited cycle the agent
/// is ticked only when it is due or `addressed` by the cycle's
/// completion, after absorbing the cycles since its last tick. Returns
/// the agent's post log and how many times it was ticked.
fn drive_sparse(agent: &mut BoxedPortAgent, horizon: Cycle) -> (Vec<(Cycle, usize, u32)>, u64) {
    let mut port = SpyPort::new(2);
    let mut neighbour: Box<dyn SimAgent<SpyPort, CompletedTransaction>> =
        Box::new(Contender::new(CoreId::from_index(NEIGHBOUR), 56));
    let (mut wake, mut accounted, mut ticked) = (0, 0, 0u64);
    let mut neighbour_wake = 0;
    let mut now: Cycle = 0;
    while now < horizon {
        let done = port.bus.begin_cycle(now);
        if wake <= now || agent.addressed(done.as_ref()) {
            if now > accounted {
                agent.absorb_skipped(now - accounted);
            }
            wake = due_after(agent.tick(now, done.as_ref(), &mut port), now);
            accounted = now + 1;
            ticked += 1;
        }
        if neighbour_wake <= now || neighbour.addressed(done.as_ref()) {
            neighbour_wake = due_after(neighbour.tick(now, done.as_ref(), &mut port), now);
        }
        port.bus.end_cycle(now);
        let next = wake.min(neighbour_wake).max(now + 1);
        // A bus that cannot predict forces per-cycle stepping.
        now = match port.bus.next_event(now) {
            Some(event) => next.min(event),
            None => now + 1,
        }
        .max(now + 1)
        .min(horizon);
    }
    if horizon > accounted {
        agent.absorb_skipped(horizon - accounted);
    }
    (own_posts(port), ticked)
}

/// Contract 1: sleeping until `wake_at`, ticked early only when a
/// completion addresses it, loses nothing — and in particular the agent
/// never needed a cycle before its declared wake.
#[test]
fn sleeping_until_wake_at_never_changes_the_post_stream() {
    const HORIZON: Cycle = 6_000;
    for load in shipped_loads() {
        let mut dense = build(&load, 11);
        let (dense_posts, dense_stats) = drive_dense(&mut dense, HORIZON);
        let mut sparse = build(&load, 11);
        let (sparse_posts, ticked) = drive_sparse(&mut sparse, HORIZON);
        assert_eq!(
            dense_posts, sparse_posts,
            "'{load}': due-only ticking must reproduce the dense post stream"
        );
        assert_eq!(
            dense_stats,
            sparse.stats(),
            "'{load}': stats must survive lazily absorbed cycles"
        );
        if !matches!(load, CoreLoad::Saturating { .. }) {
            assert!(
                ticked < HORIZON / 2,
                "'{load}': ticked on {ticked} of {HORIZON} cycles"
            );
        }
    }
}

/// Every shipped kind overrides `addressed`: a sleeping agent is woken
/// by its own completions only, never by a neighbour's or by a cycle
/// without one.
#[test]
fn every_shipped_kind_is_addressed_by_its_own_completions_only() {
    let completion = |core: usize| CompletedTransaction {
        core: CoreId::from_index(core),
        kind: RequestKind::Synthetic,
        duration: 6,
    };
    for load in shipped_loads() {
        let agent = build(&load, 3);
        assert!(
            !agent.addressed(None),
            "'{load}': woken without a completion"
        );
        assert!(
            !agent.addressed(Some(&completion(NEIGHBOUR))),
            "'{load}': woken by a foreign completion"
        );
        assert_eq!(
            agent.addressed(Some(&completion(0))),
            !agent.is_inert(),
            "'{load}': its own completion must wake it"
        );
    }
}

/// Contract 2: `reset` through the trait ≡ fresh construction.
#[test]
fn reset_under_the_trait_equals_fresh_construction() {
    const HORIZON: Cycle = 4_000;
    for load in shipped_loads() {
        let mut fresh = build(&load, 77);
        let expected = drive_dense(&mut fresh, HORIZON);

        let mut reused = build(&load, 77);
        for round in 0..2 {
            let got = drive_dense(&mut reused, HORIZON);
            assert_eq!(
                got, expected,
                "'{load}': round {round} diverged from a fresh agent"
            );
            // Reset with the same stream the registry consumed at build
            // time, exactly as a fresh run would seed it.
            let mut rng = SimRng::seed_from(77).fork(0xC0);
            reused.reset(&mut rng);
        }
    }
}

/// The wake horizon is honest about *passivity* too: an agent reporting
/// `Cycle::MAX` while waiting must not act when ticked anyway.
#[test]
fn agents_waiting_on_completions_ignore_spurious_ticks() {
    let load = CoreLoad::FixedTask {
        n_requests: 3,
        duration: 6,
        gap: 10,
    };
    let mut agent = build(&load, 5);
    let mut port = SpyPort::new(1);
    // Tick to the first post (gap 10 -> posts at cycle 10).
    for now in 0..=10u64 {
        let done = port.bus.begin_cycle(now);
        agent.tick(now, done.as_ref(), &mut port);
        port.bus.end_cycle(now);
    }
    assert_eq!(port.posts.len(), 1);
    assert_eq!(
        agent.wake_at(),
        Some(Cycle::MAX),
        "in service: only a completion wakes it"
    );
    // Spurious ticks while the request is in flight must be no-ops.
    for now in 11..14u64 {
        let done = port.bus.begin_cycle(now);
        agent.tick(now, done.as_ref(), &mut port);
        port.bus.end_cycle(now);
        assert_eq!(port.posts.len(), 1, "no post while waiting");
    }
}
