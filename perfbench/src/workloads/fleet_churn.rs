//! `fleet_churn`: the same `fleet` layer as `fleet_stream`, used
//! differently — the cold / evict / expire / pull / shed path, with
//! `gateway`, `obs` and `registry` switched on. An expiry or dispatch
//! rewrite that speeds `fleet_stream` up but changes scheduling
//! behaviour, or slows the cold path, shows here.
//!
//! Open loop in virtual time. 36 synthetic tenants (`ablation_scale`'s
//! six cost shapes x 6) on 4 workers x 1 GiB under
//! `LruPressure{ttl: 30 s}` x `Adaptive`, two concurrent cold starts
//! per worker, queue cap 8, at most 8 replicas per function; default
//! registry; gateway frontier with 8 in flight and 32 queued per worker
//! and a 200 ms result cache; the standard fleet telemetry stack with
//! span tracing on. Each tenant sends Pareto arrivals (alpha 1.2, scale
//! `1.5 s x (1 + 0.5 (t mod 6))`), and one tenant takes a burst at
//! t = 600 s to force shedding. An op is one arrival.
//!
//! The sizes were tuned only until every round landed inside the bands
//! [`Bands`] checks — cold share 15–40%, evictions and expirations
//! above zero, shed share 0.5–10%, result-cache hits above zero — and
//! are frozen here.

use prebake_fleet::{
    default_fleet_obs, CacheConfig, FleetConfig, FleetSim, FunctionProfile, GatewayConfig, Gear,
    KeepAlive, Policy, RegistryConfig, StartSelection,
};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_gateway::{AdmissionController, AdmissionOutcome, Gateway, GatewayClient, ResultCache};
use prebake_obs::{Recorder, SeriesKey};
use prebake_platform::loadgen::{ArrivalGen, MergedArrivals};
use prebake_platform::{FunctionBuilder, Platform, PlatformConfig, Registry, Template};
use prebake_registry::{ImageManifest, NodeCache, PullMode, RegistryCost, SnapshotRegistry};
use prebake_sim::time::{SimDuration, SimInstant};

use super::fleet_common::{self, shared_layers, tenant_profile, Finished, KERNEL_OPS};
use super::{fastest, fastest_call_ms, Round, Workload, CALLS};
use crate::report::LayerValues;
use crate::span::Tracer;

const TENANTS: u64 = 36;
/// The last tenant sends nothing but the burst, so what the burst meets
/// (no warm replica, no cached result) does not depend on the seed.
const BURST_TENANT: u64 = TENANTS - 1;
const PER_TENANT: usize = 170;
const BURST: usize = 400;
const BURST_AT_S: u64 = 600;
const ARRIVALS: u64 = BURST_TENANT * PER_TENANT as u64 + BURST as u64;
/// Rounds the telemetry-off variant runs.
const VARIANT_ROUNDS: usize = 3;

/// The workload has no state between rounds: every round builds its
/// fleet from the seed.
pub struct FleetChurn;

fn tenant(t: u64) -> String {
    format!("tenant-{}-{}", t % 6, t / 6)
}

fn stream(seed: u64) -> MergedArrivals<ArrivalGen> {
    let mut gens: Vec<ArrivalGen> = (0..BURST_TENANT)
        .map(|t| {
            ArrivalGen::pareto(
                &tenant(t),
                PER_TENANT,
                SimInstant::EPOCH + SimDuration::from_millis(13 * t),
                1500.0 * (1.0 + 0.5 * (t % 6) as f64),
                1.2,
                seed.wrapping_add(t).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
            .expect("valid generator")
        })
        .collect();
    // The burst comes in two halves 100 ms apart: the first overruns
    // admission and sheds, the second finds the first's results still
    // inside the 200 ms cache TTL and is served at the edge.
    let burst_at = SimInstant::EPOCH + SimDuration::from_secs(BURST_AT_S);
    for at in [burst_at, burst_at + SimDuration::from_millis(100)] {
        gens.push(ArrivalGen::burst(&tenant(BURST_TENANT), BURST / 2, at).expect("valid burst"));
    }
    MergedArrivals::new(gens)
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        inflight_per_worker: 8,
        queue_per_worker: 32,
        cache: CacheConfig {
            default_ttl: Some(SimDuration::from_millis(200)),
            ..CacheConfig::default()
        },
        ..GatewayConfig::default()
    }
}

fn run(seed: u64, telemetry: bool, tracer: &mut Tracer) -> Result<Finished, String> {
    let config = FleetConfig {
        workers: 4,
        mem_budget_bytes: 1 << 30,
        cold_start_concurrency: 2,
        queue_cap: 8,
        max_replicas_per_function: 8,
        policy: Policy {
            keep_alive: KeepAlive::LruPressure {
                ttl: SimDuration::from_secs(30),
            },
            start: StartSelection::Adaptive,
        },
        seed,
        span_tracing: telemetry,
        registry: Some(RegistryConfig::default()),
        obs: telemetry.then(|| default_fleet_obs(0.05, seed)),
        shards: 1,
        threads: false,
        retain_completed: true,
        gateway: Some(gateway_config()),
        ..FleetConfig::default()
    };
    let profiles = (0..TENANTS).map(|t| tenant_profile(&tenant(t), t % 6));
    fleet_common::run(config, profiles, stream(seed), tracer)
}

fn run_round(seed: u64, tracer: &mut Tracer) -> (Round, Option<Finished>) {
    fleet_common::round(run(seed, true, tracer), ARRIVALS, tracer, |sim| {
        Bands::of(sim).violation()
    })
}

/// The shape a churn round must have to be worth timing.
#[derive(Debug, Clone, Copy)]
pub struct Bands {
    cold_share: f64,
    shed_share: f64,
    evictions: u64,
    expirations: u64,
    cache_hits: u64,
}

impl Bands {
    fn of(sim: &FleetSim) -> Bands {
        let m = sim.metrics();
        let gm = sim.gateway_metrics().expect("gateway on");
        Bands {
            cold_share: m.cold_starts.get() as f64 / m.requests.get().max(1) as f64,
            shed_share: (m.shed.get() + gm.shed()) as f64 / ARRIVALS as f64,
            evictions: m.evictions.get(),
            expirations: m.expirations.get(),
            cache_hits: gm.cache_hits.get(),
        }
    }

    /// What is out of band, if anything.
    fn violation(&self) -> Option<String> {
        let ok = (0.15..=0.40).contains(&self.cold_share)
            && (0.005..=0.10).contains(&self.shed_share)
            && self.evictions > 0
            && self.expirations > 0
            && self.cache_hits > 0;
        (!ok).then(|| format!("round out of its bands: {self:?}"))
    }
}

impl Workload for FleetChurn {
    const NAME: &'static str = "fleet_churn";
    const NOMINAL_ROUND_S: f64 = 2.25;
    const SLO_MS: f64 = 250.0;
    const TRACE_ROUNDS: usize = 3;

    fn setup(_seed: u64) -> FleetChurn {
        FleetChurn
    }

    fn round(&mut self, seed: u64, tracer: &mut Tracer) -> Round {
        run_round(seed, tracer).0
    }

    fn layers(&mut self, seed: u64, traced: &[Round], tracer: &mut Tracer, out: &mut LayerValues) {
        let finished = run_round(seed, tracer).1.expect("round ran");
        let host_s = shared_layers(&finished, traced, ARRIVALS, || stream(seed), out);

        let sim = &finished.sim;
        let gm = sim.gateway_metrics().expect("gateway on");
        let n = ARRIVALS as usize;
        out.set(
            "gateway.cache_hit_share",
            gm.cache_hits.get() as f64 / ARRIVALS as f64,
            n,
        );
        out.set(
            "gateway.deferred_share",
            gm.deferred.get() as f64 / ARRIVALS as f64,
            n,
        );
        let obs = sim.obs().expect("obs on");
        let sampled = obs.sampling;
        out.set(
            "obs.spans_kept_share",
            sampled.spans_kept as f64 / (sampled.spans_kept + sampled.spans_dropped).max(1) as f64,
            (sampled.trees_kept + sampled.trees_dropped) as usize,
        );
        out.set("obs.late_drops", obs.recorder.late_drops as f64, 1);

        // The same round with the telemetry stack and span tracing off.
        let mut off = Tracer::new(false);
        let without: Vec<f64> = (0..VARIANT_ROUNDS)
            .map(|_| run(seed, false, &mut off).expect("obs-off round").host_s)
            .collect();
        out.set(
            "obs.fleet_overhead_share",
            fastest(&host_s) / fastest(&without) - 1.0,
            VARIANT_ROUNDS,
        );

        frontier_kernels(seed, out);
    }
}

/// Micro-kernels and guards of the layers `fleet_churn` switches on:
/// the telemetry recorder, the gateway's admission controller and
/// result cache, a registry pull, profile measurement, and the
/// standalone gateway's cached path.
fn frontier_kernels(seed: u64, out: &mut LayerValues) {
    let per_op_ns = |ms: f64| ms * 1e6 / KERNEL_OPS as f64;

    let ms = fastest_call_ms(CALLS, || {
        let mut recorder = Recorder::new(default_fleet_obs(0.05, seed).recorder);
        let requests = recorder.intern(&SeriesKey::new("fleet_requests_total").tenant("t"));
        let latency = recorder.intern(&SeriesKey::new("fleet_latency_ms").tenant("t"));
        for i in 0..KERNEL_OPS as u64 / 2 {
            let at = SimInstant::from_nanos(i * 1_000_000);
            recorder.inc_id(at, requests, 1);
            recorder.observe_exemplar_id(at, latency, (i % 997) as f64, None);
        }
        std::hint::black_box(recorder.late_drops);
    });
    out.set("obs.recorder_observe_host_ns", per_op_ns(ms), CALLS);

    let ms = fastest_call_ms(CALLS, || {
        let mut admission: AdmissionController<u64> = AdmissionController::new(8, 32);
        let mut shed = 0u64;
        // Waves of 48 offers against 8 slots and 32 queue places, then
        // a full drain: every wave admits, queues, sheds and promotes.
        for wave in 0..KERNEL_OPS as u64 / 48 {
            for i in 0..48 {
                if let AdmissionOutcome::Shed(_) = admission.offer(std::hint::black_box(wave + i)) {
                    shed += 1;
                }
            }
            for _ in 0..40 {
                std::hint::black_box(admission.release());
            }
        }
        assert!(admission.conserved() && shed > 0);
    });
    out.set("gateway.admission_host_ns_per_offer", per_op_ns(ms), CALLS);

    let ms = fastest_call_ms(CALLS, || {
        let mut cache: ResultCache<()> = ResultCache::new(gateway_config().cache);
        let keys: Vec<String> = (0..36).map(tenant).collect();
        let mut hits = 0u64;
        for i in 0..KERNEL_OPS as u64 {
            // 50 ms apart over 36 keys: every entry is looked up a few
            // times inside its 200 ms TTL, then found stale.
            let now = SimInstant::from_nanos(i * 50_000_000 / 36);
            let key = &keys[(i % 36) as usize];
            if matches!(
                cache.lookup(key, key, now),
                prebake_gateway::CacheLookup::Hit { .. }
            ) {
                hits += 1;
            } else {
                cache.insert(key, key, (), now);
            }
        }
        std::hint::black_box(hits);
    });
    out.set("gateway.cache_host_ns_per_lookup", per_op_ns(ms), CALLS);

    {
        let mut registry = SnapshotRegistry::new(RegistryCost::default());
        let manifest = ImageManifest::synthetic("perfbench@prefetch", 48 << 20, 0.5, seed);
        let total = manifest.total_bytes();
        registry.publish(manifest);
        let ms = fastest_call_ms(CALLS, || {
            let mut node = NodeCache::new();
            let receipt = registry
                .pull("perfbench@prefetch", &mut node, PullMode::DedupPullThrough)
                .expect("published");
            // Conservation on a receipt the public API does hand out.
            assert_eq!(receipt.stats.total_bytes(), total);
        });
        out.set("registry.pull_host_us", ms * 1e3, CALLS);
    }

    {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let gears = [Gear::Eager, Gear::Cow, Gear::Prefetch];
        let calls = 3;
        let ms = fastest_call_ms(calls, || {
            std::hint::black_box(
                FunctionProfile::measure(&spec, &gears, 2, seed).expect("profile"),
            );
        });
        out.set("fleet.profile_measure_host_s", ms / 1e3, calls);
    }

    // The standalone gateway has no workload of its own; its cached
    // path is guarded here.
    {
        let spec = FunctionSpec::markdown();
        let request = spec.sample_request();
        let name = spec.name().to_owned();
        let registry = Registry::new();
        registry.push(
            FunctionBuilder
                .build(spec, &Template::java11_criu_prefetch())
                .expect("build image"),
        );
        let config = GatewayConfig {
            cache: CacheConfig {
                default_ttl: Some(SimDuration::from_secs(3600)),
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        };
        let platform = Platform::new(PlatformConfig::default(), registry);
        let mut client = GatewayClient::new(Gateway::new(platform, config));
        client.deploy(&name).expect("deploy");
        let first = client.invoke(&name, request.clone()).expect("cold invoke");
        assert!(!first.cached);
        let invokes = 1000;
        let ms = fastest_call_ms(CALLS, || {
            for _ in 0..invokes {
                let reply = client
                    .invoke(&name, request.clone())
                    .expect("cached invoke");
                assert!(reply.cached && reply.body == first.body);
            }
        });
        out.set(
            "gateway.invoke_cached_host_us",
            ms * 1e3 / invokes as f64,
            CALLS,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_rounds_stay_inside_their_bands_at_seeds_1_and_2() {
        for seed in [1, 2] {
            let (round, finished) = run_round(seed, &mut Tracer::new(false));
            let bands = Bands::of(&finished.expect("round runs").sim);
            assert_eq!(bands.violation(), None, "seed {seed}");
            assert!(
                round.failures.is_empty(),
                "seed {seed}: {:?}",
                round.failures
            );
            assert_eq!(round.ops.len() as u64, ARRIVALS);
        }
    }
}
