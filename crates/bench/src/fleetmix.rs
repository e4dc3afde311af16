//! The shared multi-tenant fleet workloads: the Fig. 5 synthetic mix
//! profiled under every restore gear, plus the heavy-tailed arrival
//! trace both fleet-level ablations (`ablation_fleet`, `ablation_obs`)
//! replay, and the six-tenant streamed Poisson mix of the trace-scale
//! ablations (`ablation_scale`, `ablation_gateway`). Kept in the library
//! so ablations that share a workload observe *exactly* the same trace.

use prebake_fleet::{FunctionProfile, Gear, GearCost};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_platform::loadgen::{ArrivalGen, MergedArrivals, Schedule};
use prebake_sim::time::{SimDuration, SimInstant};

/// Name of the timer-driven tenant (profiled like the medium function).
pub(crate) const CRON_FUNCTION: &str = "synthetic-cron";

/// Profiles the Fig. 5 synthetic mix (small/medium/big) under every
/// gear, and appends the cron tenant sharing the medium function's
/// measured costs under its own name (same binary, different trigger).
///
/// # Panics
///
/// Panics if profiling fails — the synthetic specs are always valid.
pub fn fig5_profiles(profile_reps: usize, seed: u64) -> Vec<FunctionProfile> {
    let mut profiles: Vec<FunctionProfile> = [
        SyntheticSize::Small,
        SyntheticSize::Medium,
        SyntheticSize::Big,
    ]
    .into_iter()
    .map(|size| {
        let spec = FunctionSpec::synthetic(size);
        FunctionProfile::measure(&spec, &Gear::ALL, profile_reps, seed).expect("profiling succeeds")
    })
    .collect();
    let cron_costs: Vec<_> = profiles[1]
        .gears()
        .map(|g| (g, *profiles[1].cost(g).expect("measured")))
        .collect();
    profiles.push(FunctionProfile::synthetic(CRON_FUNCTION, &cron_costs));
    profiles
}

/// The multi-tenant trace: a hot small function, a steady medium one,
/// and a rarely-invoked big one with heavy-tailed (Pareto) gaps — the
/// shape production FaaS traces show — plus a timer-driven tenant on a
/// strict 3-minute cadence.
///
/// Gaps are tuned so the tenants straddle the baseline's 60s TTL: the
/// small function stays hot, the medium one's tail occasionally outlives
/// the TTL, and the big one usually does — the regime where keep-alive
/// policy (and the price of the resulting cold starts) decides tail
/// latency. The cron tenant's gap outlives every TTL in the sweep, so
/// only predictive pre-warm can serve it warm.
///
/// # Panics
///
/// Panics if the distribution parameters are rejected — they are
/// compile-time constants, so they never are.
pub fn workload(profiles: &[FunctionProfile], seed: u64) -> Schedule {
    let mix: [(usize, f64, f64); 3] = [
        (150, 400.0, 1.3),   // small: ~2s mean gap, always warm
        (80, 8_000.0, 1.3),  // medium: ~35s mean gap, tail past the TTL
        (40, 25_000.0, 1.2), // big: ~150s mean gap, mostly cold
    ];
    let mut schedule = Schedule::default();
    for (i, (p, (n, scale_ms, alpha))) in profiles.iter().zip(mix).enumerate() {
        schedule = schedule.merge(
            Schedule::pareto(
                p.name(),
                n,
                SimInstant::EPOCH,
                scale_ms,
                alpha,
                seed + i as u64,
            )
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

/// The six-tenant synthetic mix of the streamed ablations: service
/// times and footprints spread across the range the Fig. 5 functions
/// cover. Every tenant has the prefetch gear (the paper's ~18 ms band);
/// `more_gears(t, prefetch)` adds the gears one ablation compares it
/// against, derived from tenant `t`'s prefetch cost.
pub fn six_tenants(
    more_gears: impl Fn(usize, GearCost) -> Vec<(Gear, GearCost)>,
) -> Vec<FunctionProfile> {
    (0..6)
        .map(|t| {
            let prefetch = GearCost {
                cold_ms: 18.0 + 6.0 * t as f64,
                first_service_ms: 3.0 + 0.5 * t as f64,
                warm_service_ms: 1.5 + 0.5 * t as f64,
                replica_mem_bytes: (64 + 24 * t as u64) << 20,
                image_bytes: (24 + 12 * t as u64) << 20,
            };
            let mut costs = more_gears(t, prefetch);
            costs.push((Gear::Prefetch, prefetch));
            FunctionProfile::synthetic(&format!("tenant-{t}"), &costs)
        })
        .collect()
}

/// The lazy six-way merged Poisson stream over [`six_tenants`]:
/// `per_tenant` arrivals per tenant, tenant-specific rates and phases,
/// deterministic in `seed`.
///
/// # Panics
///
/// Panics if the generator parameters are rejected — they are
/// compile-time constants, so they never are.
pub fn six_tenant_stream(per_tenant: usize, seed: u64) -> MergedArrivals<ArrivalGen> {
    let gens = (0..6)
        .map(|t| {
            ArrivalGen::poisson(
                &format!("tenant-{t}"),
                per_tenant,
                SimInstant::EPOCH + SimDuration::from_millis(13 * t as u64),
                SimDuration::from_millis(14 + 4 * t as u64),
                seed.wrapping_add(t as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
            .expect("valid generator")
        })
        .collect();
    MergedArrivals::new(gens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_all_four_tenants() {
        let profiles = fig5_profiles(2, 1);
        let names: Vec<&str> = profiles.iter().map(FunctionProfile::name).collect();
        assert_eq!(
            names,
            vec![
                "synthetic-small",
                "synthetic-medium",
                "synthetic-big",
                CRON_FUNCTION
            ]
        );
        // The cron tenant shares the medium function's cost table.
        for g in profiles[1].gears() {
            assert_eq!(profiles[3].cost(g), profiles[1].cost(g));
        }
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let profiles = fig5_profiles(2, 1);
        let a = workload(&profiles, 5);
        let b = workload(&profiles, 5);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 150 + 80 + 40 + 20);
        let arrivals = |s: &Schedule| {
            s.arrivals()
                .iter()
                .map(|x| (x.at.as_nanos(), x.function.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(arrivals(&a), arrivals(&b));
        assert_ne!(arrivals(&a), arrivals(&workload(&profiles, 6)));
    }
}
