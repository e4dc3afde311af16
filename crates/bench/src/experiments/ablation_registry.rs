//! Ablation 8: the snapshot-registry tier — pull mode × placement on a
//! multi-node fleet.
//!
//! The paper keeps every prebaked image on the machine that restores
//! it; at fleet scale images live in a shared registry and cold starts
//! pay the network. This harness replays a heavy-tailed multi-tenant
//! trace through a 6-node fleet where every cold start pulls its
//! snapshot image through the placed node's cache, and sweeps the
//! distribution strategy:
//!
//! - `local` — no registry tier (the single-machine fiction): the
//!   lower bound everything is measured against.
//! - `naive-full-pull` — fetch the full image on every placement,
//!   cache nothing (the "pull the container image" baseline).
//! - `pull-through` — image-granular node caches: repeat placements of
//!   a function on a node are free, cross-function bytes are not.
//! - `dedup-pull-through` — frame-granular caches keyed by
//!   `page_content_hash`: frames any resident image already holds
//!   (the shared runtime base) never cross the wire again.
//! - `dedup+affinity` — same, plus placement prefers the node that
//!   would fetch the fewest bytes ("schedule where the image is warm").
//! - `dedup+affinity+prepull` — same, plus the histogram pre-warm
//!   engine pre-pulls images to the predicted node ahead of demand.
//!
//! Every variant runs the same arrivals, profiles, and seed; the only
//! degrees of freedom are the pull mode and placement. The harness
//! asserts the full stack (`dedup+affinity`) beats `naive-full-pull`
//! on both cold-start p99 latency and total registry egress, and
//! writes `BENCH_registry.json` (bit-reproducible under the default
//! seed).

use super::*;
use prebake_fleet::{
    FleetConfig, FleetSim, FunctionProfile, Gear, GearCost, KeepAlive, Policy, RegistryConfig,
    StartSelection,
};
use prebake_platform::loadgen::Schedule;
use prebake_registry::{PullMode, RegistryCost};

/// Fraction of each image's frames drawn from the shared runtime base
/// (the warm JLVM pages every function carries).
const SHARED_FRACTION: f64 = 0.6;

/// Fleet shape: a 6-node cluster with room for the whole mix.
const WORKERS: usize = 6;
const MEM_BUDGET: u64 = 768 << 20;

/// Name of the timer-driven tenant (strict 3-minute cadence).
const CRON_FUNCTION: &str = "synthetic-cron";

/// One variant's outcome on the shared trace.
struct Outcome {
    label: &'static str,
    cold_fraction: f64,
    cold_p99_ms: f64,
    p99_ms: f64,
    egress_bytes: u64,
    dedup_bytes: u64,
    pulls: u64,
    cache_hits: u64,
    prepulls: u64,
    prewarms: u64,
}

/// The tenant mix: three size classes, two tenants each, plus the cron
/// function. Costs are synthetic (this ablation isolates the *network*
/// term, which the registry charges exactly) and shaped like the
/// measured Fig. 5 profiles: prebaked restore is fast, vanilla boot is
/// the expensive fallback, and image size scales with the function.
fn profiles() -> Vec<FunctionProfile> {
    let class = |cold_vanilla: f64, cold_prefetch: f64, mem: u64, image: u64| {
        [
            (
                Gear::Vanilla,
                GearCost {
                    cold_ms: cold_vanilla,
                    first_service_ms: 10.0,
                    warm_service_ms: 2.0,
                    replica_mem_bytes: mem,
                    image_bytes: 0,
                },
            ),
            (
                Gear::Prefetch,
                GearCost {
                    cold_ms: cold_prefetch,
                    first_service_ms: 4.0,
                    warm_service_ms: 2.0,
                    replica_mem_bytes: mem,
                    image_bytes: image,
                },
            ),
        ]
    };
    let small = class(150.0, 18.0, 64 << 20, 24 << 20);
    let medium = class(250.0, 30.0, 128 << 20, 48 << 20);
    let big = class(400.0, 45.0, 256 << 20, 96 << 20);
    vec![
        FunctionProfile::synthetic("small-a", &small),
        FunctionProfile::synthetic("small-b", &small),
        FunctionProfile::synthetic("medium-a", &medium),
        FunctionProfile::synthetic("medium-b", &medium),
        FunctionProfile::synthetic("big-a", &big),
        FunctionProfile::synthetic("big-b", &big),
        FunctionProfile::synthetic(CRON_FUNCTION, &medium),
    ]
}

/// The shared trace: heavy-tailed (Pareto) gaps per tenant straddling
/// the keep-alive horizon, plus the cron tenant's strict cadence.
fn workload(seed: u64) -> Schedule {
    let mix: [(&str, usize, f64, f64); 6] = [
        ("small-a", 120, 400.0, 1.3),    // hot: ~2s mean gap
        ("small-b", 120, 700.0, 1.3),    // warmish
        ("medium-a", 60, 8_000.0, 1.3),  // tail past the TTL
        ("medium-b", 60, 12_000.0, 1.3), // mostly past it
        ("big-a", 30, 25_000.0, 1.2),    // mostly cold
        ("big-b", 30, 40_000.0, 1.2),    // cold, rare, expensive
    ];
    let mut schedule = Schedule::default();
    for (i, (name, n, scale_ms, alpha)) in mix.into_iter().enumerate() {
        schedule = schedule.merge(
            Schedule::pareto(name, n, SimInstant::EPOCH, scale_ms, alpha, seed + i as u64)
                .expect("valid pareto parameters"),
        );
    }
    schedule.merge(
        Schedule::constant(
            CRON_FUNCTION,
            20,
            SimInstant::EPOCH,
            SimDuration::from_secs(180),
        )
        .expect("valid constant schedule"),
    )
}

fn run_variant(
    label: &'static str,
    registry: Option<RegistryConfig>,
    profiles: &[FunctionProfile],
    schedule: &Schedule,
    seed: u64,
) -> Outcome {
    // Histogram keep-alive with pre-warm for every variant: the
    // predictive engine is what the prepull row piggybacks on, and
    // holding the policy fixed isolates the registry axis.
    let policy = Policy {
        keep_alive: KeepAlive::Histogram {
            floor: SimDuration::from_secs(1),
            cap: SimDuration::from_secs(60),
            quantile: 0.99,
            prewarm: true,
        },
        start: StartSelection::Fixed(Gear::Prefetch),
    };
    let mut sim = FleetSim::new(FleetConfig {
        workers: WORKERS,
        mem_budget_bytes: MEM_BUDGET,
        policy,
        seed,
        registry,
        ..FleetConfig::default()
    });
    for p in profiles {
        sim.register(p.clone());
    }
    sim.run(schedule).expect("all functions registered");
    assert_eq!(
        sim.completed().len() as u64,
        sim.metrics().requests.get(),
        "every admitted request must be served ({})",
        label,
    );
    let latency: Vec<f64> = sim.completed().iter().map(|r| r.latency_ms()).collect();
    let cold: Vec<f64> = sim
        .completed()
        .iter()
        .filter(|r| r.cold)
        .map(|r| r.latency_ms())
        .collect();
    assert!(
        !cold.is_empty(),
        "the trace must exercise cold starts ({})",
        label
    );
    let m = sim.metrics();
    let (pulls, cache_hits) = sim
        .registry()
        .map_or((0, 0), |r| (r.pulls(), r.cache_hits()));
    Outcome {
        label,
        cold_fraction: m.cold_fraction(),
        cold_p99_ms: quantile(&cold, 0.99),
        p99_ms: quantile(&latency, 0.99),
        egress_bytes: m.registry_egress_bytes.get(),
        dedup_bytes: m.registry_dedup_bytes.get(),
        pulls,
        cache_hits,
        prepulls: m.prepulls.get(),
        prewarms: m.prewarm_starts.get(),
    }
}

pub(crate) fn run(args: &HarnessArgs, _memo: &Memo, out: &mut Report) -> Option<String> {
    out.line(format_args!(
        "Ablation — snapshot registry tier: {WORKERS}-node fleet, \
         shared fraction {SHARED_FRACTION}, seed {}",
        args.seed
    ));
    out.hr();

    let cost = RegistryCost::default();
    let rc = |mode, affinity, prepull| RegistryConfig {
        cost,
        mode,
        affinity_placement: affinity,
        prepull,
        shared_fraction: SHARED_FRACTION,
    };
    let variants = [
        ("local", None),
        ("naive-full-pull", Some(rc(PullMode::Naive, false, false))),
        (
            "pull-through",
            Some(rc(PullMode::PullThrough, false, false)),
        ),
        (
            "dedup-pull-through",
            Some(rc(PullMode::DedupPullThrough, false, false)),
        ),
        (
            "dedup+affinity",
            Some(rc(PullMode::DedupPullThrough, true, false)),
        ),
        (
            "dedup+affinity+prepull",
            Some(rc(PullMode::DedupPullThrough, true, true)),
        ),
    ];

    let profiles = profiles();
    let schedule = workload(args.seed);
    out.line(format_args!(
        "{} arrivals, {} tenants; image sizes 24/48/96 MB behind a \
         12ms + 10 Gbit/s registry link",
        schedule.len(),
        profiles.len(),
    ));
    out.header(format_args!(
        "{:<23} {:>6} {:>10} {:>10} {:>9} {:>9} {:>5} {:>5}",
        "variant", "cold%", "cold p99", "p99", "egress", "dedup", "hit", "pre"
    ));

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {},\n  \"workers\": {},\n  \"mem_budget_mb\": {},\n  \
         \"shared_fraction\": {},\n  \"registry_latency_ms\": 12,\n  \
         \"registry_gbps\": 10,\n  \"arrivals\": {},\n  \"sweep\": [\n",
        args.seed,
        WORKERS,
        MEM_BUDGET >> 20,
        SHARED_FRACTION,
        schedule.len(),
    ));
    let mut outcomes = Vec::new();
    for (i, (label, registry)) in variants.iter().cloned().enumerate() {
        let o = run_variant(label, registry, &profiles, &schedule, args.seed);
        out.line(format_args!(
            "{:<23} {:>5.1}% {:>8.1}ms {:>8.1}ms {:>7.1}MB {:>7.1}MB {:>5} {:>5}",
            o.label,
            o.cold_fraction * 100.0,
            o.cold_p99_ms,
            o.p99_ms,
            o.egress_bytes as f64 / 1e6,
            o.dedup_bytes as f64 / 1e6,
            o.cache_hits,
            o.prepulls,
        ));
        json.push_str(&format!(
            "    {{\"variant\": \"{}\", \"cold_fraction\": {:.6}, \
             \"cold_p99_ms\": {:.4}, \"p99_ms\": {:.4}, \"egress_bytes\": {}, \
             \"dedup_bytes\": {}, \"pulls\": {}, \"cache_hits\": {}, \
             \"prepulls\": {}, \"prewarm_starts\": {}}}{}\n",
            o.label,
            o.cold_fraction,
            o.cold_p99_ms,
            o.p99_ms,
            o.egress_bytes,
            o.dedup_bytes,
            o.pulls,
            o.cache_hits,
            o.prepulls,
            o.prewarms,
            if i == variants.len() - 1 { "" } else { "," },
        ));
        outcomes.push(o);
    }
    out.hr();

    // -- acceptance: the full stack must beat the naive baseline on
    // both cold-start p99 and total registry egress ---------------------
    let find = |label: &str| {
        outcomes
            .iter()
            .find(|o| o.label == label)
            .expect("variant ran")
    };
    let naive = find("naive-full-pull");
    let pull_through = find("pull-through");
    let dedup = find("dedup-pull-through");
    let winner = find("dedup+affinity");
    assert!(
        pull_through.egress_bytes <= naive.egress_bytes,
        "caching whole images must not add egress"
    );
    assert!(
        dedup.egress_bytes < pull_through.egress_bytes,
        "frame dedup must ship fewer bytes than whole-image caching"
    );
    assert!(
        winner.egress_bytes < naive.egress_bytes,
        "dedup+affinity egress {} !< naive {}",
        winner.egress_bytes,
        naive.egress_bytes
    );
    assert!(
        winner.cold_p99_ms < naive.cold_p99_ms,
        "dedup+affinity cold p99 {} !< naive {}",
        winner.cold_p99_ms,
        naive.cold_p99_ms
    );
    json.push_str(&format!(
        "  ],\n  \"baseline\": {{\"variant\": \"{}\", \"cold_p99_ms\": {:.4}, \
         \"egress_bytes\": {}}},\n  \"winner\": {{\"variant\": \"{}\", \
         \"cold_p99_ms\": {:.4}, \"egress_bytes\": {}}}\n}}\n",
        naive.label,
        naive.cold_p99_ms,
        naive.egress_bytes,
        winner.label,
        winner.cold_p99_ms,
        winner.egress_bytes,
    ));

    let path = args.artifact_path("BENCH_registry.json");
    out.line(format_args!(
        "take-away: dedup-aware pull-through caching with image-affinity placement \
         cuts cold-start p99 from {:.1}ms to {:.1}ms ({:.1}% better) and total \
         registry egress from {:.1}MB to {:.1}MB ({:.1}% fewer bytes) versus \
         pulling the full image on every placement — the shared runtime base \
         crosses the wire once per node, and placement keeps it that way. \
         Wrote {path}.",
        naive.cold_p99_ms,
        winner.cold_p99_ms,
        improvement_pct(naive.cold_p99_ms, winner.cold_p99_ms),
        naive.egress_bytes as f64 / 1e6,
        winner.egress_bytes as f64 / 1e6,
        improvement_pct(naive.egress_bytes as f64, winner.egress_bytes as f64),
    ));
    Some(json)
}
