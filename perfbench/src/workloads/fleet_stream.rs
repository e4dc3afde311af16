//! `fleet_stream`: the million-invocation regime in miniature. The
//! `fleet` event loop on its warm path, `sim::event` and
//! `platform::loadgen` do all the work; `criu` does none.
//!
//! Open loop in virtual time; on the host a single-threaded batch. A
//! round is exactly `ablation_scale --quick` at one shard: six
//! synthetic tenants on 200 workers x 4 GiB under `FixedTtl(60 s)` x
//! `Adaptive` with the default registry, fed six merged Poisson streams
//! of 9,000 arrivals each (mean gaps 14–34 ms, about 146 req/s for 371
//! virtual seconds). An op is one arrival: 54,000 per round, about 2 s.
//!
//! Latency runs from the scheduled arrival instant to completion, so
//! queueing counts. The generator lives in virtual time and is never
//! late, so no generator lag is reported.

use prebake_fleet::{
    FleetConfig, GatewayConfig, KeepAlive, Policy, RegistryConfig, StartSelection,
};
use prebake_platform::loadgen::{ArrivalGen, MergedArrivals};
use prebake_sim::time::{SimDuration, SimInstant};

use super::fleet_common::{self, shared_layers, tenant_profile, Finished};
use super::{fastest, Round, Workload};
use crate::report::LayerValues;
use crate::span::Tracer;

const TENANTS: u64 = 6;
const PER_TENANT: usize = 9_000;
const ARRIVALS: u64 = TENANTS * PER_TENANT as u64;
/// Events `ablation_scale --quick` prints for one shard at seed 1.
const EVENTS_AT_SEED_1: u64 = 1_028_337;
/// Rounds the gateway-overhead variant runs.
const VARIANT_ROUNDS: usize = 3;

/// The workload has no state between rounds: every round builds its
/// fleet from the seed.
pub struct FleetStream;

fn stream(seed: u64) -> MergedArrivals<ArrivalGen> {
    let gens = (0..TENANTS)
        .map(|t| {
            ArrivalGen::poisson(
                &format!("tenant-{t}"),
                PER_TENANT,
                SimInstant::EPOCH + SimDuration::from_millis(13 * t),
                SimDuration::from_millis(14 + 4 * t),
                seed.wrapping_add(t).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
            .expect("valid generator")
        })
        .collect();
    MergedArrivals::new(gens)
}

fn run(seed: u64, gateway: Option<GatewayConfig>, tracer: &mut Tracer) -> Result<Finished, String> {
    let config = FleetConfig {
        workers: 200,
        mem_budget_bytes: 4 << 30,
        cold_start_concurrency: 4,
        queue_cap: 4096,
        max_replicas_per_function: 64,
        policy: Policy {
            keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(60)),
            start: StartSelection::Adaptive,
        },
        seed,
        registry: Some(RegistryConfig::default()),
        shards: 1,
        threads: false,
        retain_completed: true,
        gateway,
        ..FleetConfig::default()
    };
    let profiles = (0..TENANTS).map(|t| tenant_profile(&format!("tenant-{t}"), t));
    fleet_common::run(config, profiles, stream(seed), tracer)
}

fn run_round(seed: u64, tracer: &mut Tracer) -> (Round, Option<Finished>) {
    fleet_common::round(run(seed, None, tracer), ARRIVALS, tracer, |sim| {
        let events = sim.events_processed();
        (seed == 1 && events != EVENTS_AT_SEED_1).then(|| {
            format!("{events} events at seed 1; ablation_scale --quick prints {EVENTS_AT_SEED_1}")
        })
    })
}

impl Workload for FleetStream {
    const NAME: &'static str = "fleet_stream";
    const NOMINAL_ROUND_S: f64 = 1.55;
    const SLO_MS: f64 = 250.0;
    const TRACE_ROUNDS: usize = 3;

    fn setup(_seed: u64) -> FleetStream {
        FleetStream
    }

    fn round(&mut self, seed: u64, tracer: &mut Tracer) -> Round {
        run_round(seed, tracer).0
    }

    fn layers(&mut self, seed: u64, traced: &[Round], tracer: &mut Tracer, out: &mut LayerValues) {
        let finished = run_round(seed, tracer).1.expect("round ran");
        let host_s = shared_layers(&finished, traced, ARRIVALS, || stream(seed), out);

        // The same round behind the gateway frontier (admission only:
        // no function is declared cacheable), against the rounds above.
        let mut off = Tracer::new(false);
        let with_gateway: Vec<f64> = (0..VARIANT_ROUNDS)
            .map(|_| {
                run(seed, Some(GatewayConfig::default()), &mut off)
                    .expect("gateway round")
                    .host_s
            })
            .collect();
        out.set(
            "gateway.fleet_overhead_share",
            fastest(&with_gateway) / fastest(&host_s) - 1.0,
            VARIANT_ROUNDS,
        );
    }
}
