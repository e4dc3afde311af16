//! End-to-end: measure real profiles with the single-machine trial
//! harness, replay a Pareto trace through the fleet, and check that a
//! prebake-gear policy beats the vanilla baseline — plus the gateway
//! frontier: admission conservation, result-cache short-circuiting,
//! and byte-identical reruns with the frontier enabled.

use prebake_fleet::{
    CacheConfig, FleetConfig, FleetSim, FunctionProfile, GatewayConfig, Gear, KeepAlive, Policy,
    StartSelection,
};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_platform::loadgen::Schedule;
use prebake_sim::time::{SimDuration, SimInstant};

fn measured_mix() -> Vec<FunctionProfile> {
    [SyntheticSize::Small, SyntheticSize::Medium]
        .into_iter()
        .map(|size| {
            let spec = FunctionSpec::synthetic(size);
            FunctionProfile::measure(&spec, &[Gear::Vanilla, Gear::Prefetch], 2, 1)
                .expect("profiling succeeds")
        })
        .collect()
}

fn trace(profiles: &[FunctionProfile]) -> Schedule {
    let mut schedule = Schedule::default();
    for (i, p) in profiles.iter().enumerate() {
        schedule = schedule.merge(
            Schedule::pareto(p.name(), 40, SimInstant::EPOCH, 2_000.0, 1.5, 11 + i as u64)
                .expect("valid pareto args"),
        );
    }
    schedule
}

fn run(policy: Policy, profiles: &[FunctionProfile], schedule: &Schedule) -> (f64, f64) {
    let mut sim = FleetSim::new(FleetConfig {
        workers: 2,
        mem_budget_bytes: 2 << 30,
        policy,
        ..FleetConfig::default()
    });
    for p in profiles {
        sim.register(p.clone());
    }
    sim.run(schedule).expect("all functions registered");
    let mut latencies: Vec<f64> = sim.completed().iter().map(|r| r.latency_ms()).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = latencies[((latencies.len() as f64 * 0.99) as usize).min(latencies.len() - 1)];
    (sim.metrics().cold_fraction(), p99)
}

#[test]
fn measured_prefetch_policy_beats_vanilla_ttl_on_a_replayed_trace() {
    let profiles = measured_mix();
    let schedule = trace(&profiles);
    assert_eq!(schedule.len(), 80);

    // Short fixed TTL + vanilla starts: the keep-alive literature's
    // baseline. Bursty Pareto gaps routinely outlive the TTL.
    let baseline = Policy {
        keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(10)),
        start: StartSelection::Fixed(Gear::Vanilla),
    };
    // Same TTL, prebake prefetch starts: cold starts still happen, they
    // just cost milliseconds instead of a full boot.
    let challenger = Policy {
        keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(10)),
        start: StartSelection::Fixed(Gear::Prefetch),
    };

    let (cold_base, p99_base) = run(baseline, &profiles, &schedule);
    let (cold_chal, p99_chal) = run(challenger, &profiles, &schedule);

    assert!(cold_base > 0.0, "trace must exercise cold starts");
    assert!(
        cold_chal <= cold_base,
        "prefetch never increases cold fraction: {cold_chal} vs {cold_base}"
    );
    assert!(
        p99_chal < p99_base,
        "prefetch cuts p99: {p99_chal} vs {p99_base}"
    );
}

#[test]
fn fleet_runs_are_deterministic_across_processes() {
    // Fixed synthetic profiles (measurement itself is covered above);
    // byte-identical metrics across two fresh sims.
    let profile = FunctionProfile::synthetic(
        "det",
        &[(
            Gear::Eager,
            prebake_fleet::GearCost {
                cold_ms: 25.0,
                first_service_ms: 3.0,
                warm_service_ms: 1.0,
                replica_mem_bytes: 64 << 20,
                image_bytes: 64 << 20,
            },
        )],
    );
    let schedule = Schedule::pareto("det", 100, SimInstant::EPOCH, 500.0, 1.2, 42).unwrap();
    let render = || {
        let mut sim = FleetSim::new(FleetConfig {
            policy: Policy {
                keep_alive: KeepAlive::Histogram {
                    floor: SimDuration::from_secs(1),
                    cap: SimDuration::from_secs(60),
                    quantile: 0.99,
                    prewarm: true,
                },
                start: StartSelection::Adaptive,
            },
            ..FleetConfig::default()
        });
        sim.register(profile.clone());
        sim.run(&schedule).unwrap();
        sim.render_metrics()
    };
    assert_eq!(render(), render());
}

fn det_profile(name: &str) -> FunctionProfile {
    FunctionProfile::synthetic(
        name,
        &[(
            Gear::Prefetch,
            prebake_fleet::GearCost {
                cold_ms: 18.0,
                first_service_ms: 3.0,
                warm_service_ms: 1.0,
                replica_mem_bytes: 64 << 20,
                image_bytes: 64 << 20,
            },
        )],
    )
}

fn gateway_fleet(gateway: GatewayConfig, workers: usize) -> FleetSim {
    let mut sim = FleetSim::new(FleetConfig {
        workers,
        policy: Policy {
            keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(30)),
            start: StartSelection::Fixed(Gear::Prefetch),
        },
        gateway: Some(gateway),
        ..FleetConfig::default()
    });
    sim.register(det_profile("gw"));
    sim
}

#[test]
fn gateway_frontier_conserves_and_reruns_byte_identically() {
    let schedule = Schedule::pareto("gw", 200, SimInstant::EPOCH, 200.0, 1.3, 7).unwrap();
    let run = || {
        let mut sim = gateway_fleet(
            GatewayConfig {
                inflight_per_worker: 2,
                queue_per_worker: 2,
                ..GatewayConfig::default()
            },
            3,
        );
        sim.run(&schedule).unwrap();
        assert!(sim.gateway_conserved(), "conservation after the run");
        let stats = sim.gateway_admission();
        assert_eq!(stats.offered, 200, "every arrival is offered");
        let gm = sim.gateway_metrics().expect("frontier enabled");
        assert_eq!(gm.arrivals.get(), 200);
        assert_eq!(
            gm.arrivals.get(),
            gm.admitted.get() + gm.shed() + gm.cache_hits.get(),
            "no cache: arrivals split into admitted and shed"
        );
        assert!(gm.ttfc_ms.count() > 0, "TTFC observed for served requests");
        let render = sim.render_metrics();
        assert!(render.contains("gateway_arrivals_total"));
        assert!(render.contains("gateway_ttfc_ms"));
        render
    };
    assert_eq!(run(), run(), "frontier runs are byte-identical");
}

#[test]
fn gateway_cache_short_circuits_repeat_invocations() {
    let schedule =
        Schedule::constant("gw", 100, SimInstant::EPOCH, SimDuration::from_millis(50)).unwrap();
    let mut sim = gateway_fleet(
        GatewayConfig {
            cache: CacheConfig {
                default_ttl: Some(SimDuration::from_secs(10)),
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        },
        2,
    );
    sim.run(&schedule).unwrap();
    assert!(sim.gateway_conserved());
    let gm = sim.gateway_metrics().expect("frontier enabled");
    assert_eq!(gm.arrivals.get(), 100);
    assert!(
        gm.cache_hits.get() > 50,
        "steady repeats of one function mostly hit the cache: {} hits",
        gm.cache_hits.get()
    );
    assert!(
        gm.cached_serve_max_ms < 10.0,
        "cached path stays under the 10ms bar: {}",
        gm.cached_serve_max_ms
    );
    assert_eq!(
        sim.completed().len() as u64,
        gm.admitted.get(),
        "cache hits never reach the backend"
    );
}
