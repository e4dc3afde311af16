//! Ablation 7: fleet scheduling — keep-alive policy × restore gear ×
//! fleet shape.
//!
//! The paper measures how fast one prebaked replica starts; this harness
//! asks what that buys a *cluster*. It profiles the Fig. 5 synthetic mix
//! under every restore gear with the single-machine trial harness, then
//! replays a heavy-tailed multi-tenant arrival trace through the fleet
//! scheduler for each point of a policy × fleet-size × memory-budget
//! grid. The baseline is the fixed-TTL, vanilla-start configuration the
//! keep-alive literature measures real platforms with; challengers swap
//! in prebake gears (fixed or adaptively chosen from the profile) and
//! smarter keep-alive (LRU-under-pressure, histogram-adaptive TTL with
//! predictive pre-warm).
//!
//! Besides the human-readable table the harness writes
//! `BENCH_fleet.json` (cold-start fraction, p50/p99 latency, queueing
//! and memory counters per grid point); with the default `--seed` the
//! file is bit-reproducible.

use super::*;
use prebake_bench::fleetmix::workload;
use prebake_fleet::{
    FleetConfig, FleetSim, FunctionProfile, Gear, KeepAlive, Policy, StartSelection,
};
use prebake_platform::loadgen::Schedule;

/// One grid point's outcome.
struct Outcome {
    workers: usize,
    budget_mb: u64,
    policy_label: String,
    cold_fraction: f64,
    p50_ms: f64,
    p99_ms: f64,
    queue_p99_ms: f64,
    evictions: u64,
    expirations: u64,
    prewarms: u64,
    shed: u64,
    high_water_mb: u64,
}

fn run_point(
    profiles: &[FunctionProfile],
    schedule: &Schedule,
    workers: usize,
    budget: u64,
    policy: Policy,
    seed: u64,
) -> Outcome {
    let mut sim = FleetSim::new(FleetConfig {
        workers,
        mem_budget_bytes: budget,
        policy,
        seed,
        ..FleetConfig::default()
    });
    for p in profiles {
        sim.register(p.clone());
    }
    sim.run(schedule).expect("all functions registered");
    assert_eq!(
        sim.completed().len() as u64,
        sim.metrics().requests.get(),
        "every admitted request must be served ({} {:?})",
        policy.label(),
        (workers, budget >> 20),
    );
    let latency: Vec<f64> = sim.completed().iter().map(|r| r.latency_ms()).collect();
    let queue: Vec<f64> = sim.completed().iter().map(|r| r.queue_delay_ms()).collect();
    let m = sim.metrics();
    Outcome {
        workers,
        budget_mb: budget >> 20,
        policy_label: policy.label(),
        cold_fraction: m.cold_fraction(),
        p50_ms: quantile(&latency, 0.5),
        p99_ms: quantile(&latency, 0.99),
        queue_p99_ms: quantile(&queue, 0.99),
        evictions: m.evictions.get(),
        expirations: m.expirations.get(),
        prewarms: m.prewarm_starts.get(),
        shed: m.shed.get(),
        high_water_mb: sim.worker_high_water().into_iter().max().unwrap_or(0) >> 20,
    }
}

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    let reps = args.capped_reps();
    // Profiling medians stabilise quickly; the sweep itself is exact.
    let profile_reps = (reps / 8).clamp(2, 5);
    out.line(format_args!(
        "Ablation — fleet scheduling, Fig. 5 mix ({profile_reps} profiling reps, seed {})",
        args.seed
    ));
    out.hr();

    // -- part 1: profile the mix under every gear ----------------------
    let profiles = memo.fig5_profiles(profile_reps, args.seed);

    out.line(format_args!(
        "{:<10} {:<9} {:>10} {:>9} {:>9} {:>10} {:>9}",
        "function", "gear", "cold", "first", "warm", "replica", "image"
    ));
    out.hr();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {},\n  \"profile_reps\": {},\n  \"profiles\": [\n",
        args.seed, profile_reps
    ));
    for (fi, p) in profiles.iter().enumerate() {
        for (gi, gear) in p.gears().enumerate() {
            let c = p.cost(gear).expect("measured");
            out.line(format_args!(
                "{:<10} {:<9} {:>8.2}ms {:>7.2}ms {:>7.2}ms {:>8.1}MB {:>7.1}MB",
                if gi == 0 { p.name() } else { "" },
                gear.label(),
                c.cold_ms,
                c.first_service_ms,
                c.warm_service_ms,
                c.replica_mem_bytes as f64 / 1e6,
                c.image_bytes as f64 / 1e6,
            ));
            json.push_str(&format!(
                "    {{\"function\": \"{}\", \"gear\": \"{}\", \"cold_ms\": {:.4}, \
                 \"first_service_ms\": {:.4}, \"warm_service_ms\": {:.4}, \
                 \"replica_mem_bytes\": {}, \"image_bytes\": {}, \"best\": {}}}{}\n",
                p.name(),
                gear.label(),
                c.cold_ms,
                c.first_service_ms,
                c.warm_service_ms,
                c.replica_mem_bytes,
                c.image_bytes,
                p.best_gear() == gear,
                if fi == profiles.len() - 1 && gi == p.gears().count() - 1 {
                    ""
                } else {
                    ","
                },
            ));
        }
    }
    out.hr();

    // -- part 2: policy x fleet shape sweep ----------------------------
    // Budgets scale with the mix's biggest replica footprint so "tight"
    // genuinely forces eviction decisions.
    let unit: u64 = profiles
        .iter()
        .map(|p| {
            let c = p.cost(Gear::Eager).expect("measured");
            c.replica_mem_bytes + c.image_bytes
        })
        .max()
        .expect("non-empty mix");
    // Tight shapes hold barely one big replica per worker; the generous
    // one fits the whole mix eagerly.
    let shapes: [(usize, u64); 3] = [(2, unit / 2), (4, unit / 2), (4, unit * 4)];
    let ttl = SimDuration::from_secs(60);
    let hist = |prewarm| KeepAlive::Histogram {
        floor: SimDuration::from_secs(1),
        cap: SimDuration::from_secs(120),
        quantile: 0.99,
        prewarm,
    };
    let policy = |keep_alive, start| Policy { keep_alive, start };
    let policies = [
        Policy::vanilla_baseline(ttl),
        policy(
            KeepAlive::FixedTtl(ttl),
            StartSelection::Fixed(Gear::Prefetch),
        ),
        policy(KeepAlive::FixedTtl(ttl), StartSelection::Adaptive),
        policy(KeepAlive::LruPressure { ttl }, StartSelection::Adaptive),
        policy(hist(false), StartSelection::Adaptive),
        policy(hist(true), StartSelection::Adaptive),
    ];
    let schedule = workload(&profiles, args.seed);

    out.line(format_args!(
        "\nPolicy sweep — {} arrivals, heavy-tailed 4-tenant trace",
        schedule.len()
    ));
    out.header(format_args!(
        "{:<3} {:>7} {:<24} {:>6} {:>9} {:>10} {:>6} {:>5} {:>5}",
        "wrk", "budget", "policy", "cold%", "p50", "p99", "evict", "pre", "shed"
    ));
    json.push_str("  ],\n  \"sweep\": [\n");
    let mut outcomes = Vec::new();
    for (si, &(workers, budget)) in shapes.iter().enumerate() {
        for (pi, &policy) in policies.iter().enumerate() {
            let o = run_point(&profiles, &schedule, workers, budget, policy, args.seed);
            out.line(format_args!(
                "{:<3} {:>5}MB {:<24} {:>5.1}% {:>7.2}ms {:>8.2}ms {:>6} {:>5} {:>5}",
                o.workers,
                o.budget_mb,
                o.policy_label,
                o.cold_fraction * 100.0,
                o.p50_ms,
                o.p99_ms,
                o.evictions,
                o.prewarms,
                o.shed,
            ));
            json.push_str(&format!(
                "    {{\"workers\": {}, \"mem_budget_mb\": {}, \"policy\": \"{}\", \
                 \"cold_fraction\": {:.6}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
                 \"queue_p99_ms\": {:.4}, \"evictions\": {}, \"expirations\": {}, \
                 \"prewarm_starts\": {}, \"shed\": {}, \"mem_high_water_mb\": {}}}{}\n",
                o.workers,
                o.budget_mb,
                o.policy_label,
                o.cold_fraction,
                o.p50_ms,
                o.p99_ms,
                o.queue_p99_ms,
                o.evictions,
                o.expirations,
                o.prewarms,
                o.shed,
                o.high_water_mb,
                if si == shapes.len() - 1 && pi == policies.len() - 1 {
                    ""
                } else {
                    ","
                },
            ));
            outcomes.push(o);
        }
        if si < shapes.len() - 1 {
            out.hr();
        }
    }
    out.hr();

    // -- acceptance: some policy must beat the baseline on BOTH axes ---
    let baseline_label = policies[0].label();
    let reference = outcomes
        .iter()
        .filter(|o| o.workers == shapes[2].0 && o.budget_mb == shapes[2].1 >> 20)
        .collect::<Vec<_>>();
    let base = reference
        .iter()
        .find(|o| o.policy_label == baseline_label)
        .expect("baseline ran");
    assert!(
        base.cold_fraction > 0.0,
        "the trace must exercise cold starts under the baseline"
    );
    let winner = reference
        .iter()
        .filter(|o| o.policy_label != baseline_label)
        .filter(|o| o.cold_fraction < base.cold_fraction && o.p99_ms < base.p99_ms)
        .min_by(|a, b| {
            (a.cold_fraction, a.p99_ms)
                .partial_cmp(&(b.cold_fraction, b.p99_ms))
                .expect("finite")
        })
        .unwrap_or_else(|| {
            panic!(
                "no policy beat the vanilla-TTL baseline on both cold fraction \
                 ({:.3}) and p99 ({:.2}ms)",
                base.cold_fraction, base.p99_ms
            )
        });
    json.push_str(&format!(
        "  ],\n  \"baseline\": {{\"policy\": \"{}\", \"cold_fraction\": {:.6}, \
         \"p99_ms\": {:.4}}},\n  \"winner\": {{\"policy\": \"{}\", \
         \"cold_fraction\": {:.6}, \"p99_ms\": {:.4}}}\n}}\n",
        base.policy_label,
        base.cold_fraction,
        base.p99_ms,
        winner.policy_label,
        winner.cold_fraction,
        winner.p99_ms,
    ));

    let path = args.artifact_path("BENCH_fleet.json");
    out.line(format_args!(
        "take-away: on a 4-worker fleet with headroom, {} cuts the cold-start fraction \
         from {:.1}% to {:.1}% and p99 latency from {:.2}ms to {:.2}ms versus the \
         fixed-TTL vanilla baseline — prebaked gears make the unavoidable cold starts \
         cheap, and the adaptive TTL plus pre-warm makes fewer of them. Wrote {path}.",
        winner.policy_label,
        base.cold_fraction * 100.0,
        winner.cold_fraction * 100.0,
        base.p99_ms,
        winner.p99_ms,
    ));
    Some(json)
}
