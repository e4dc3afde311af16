//! Ablation 12: the streaming gateway frontier at trace scale — a
//! million invocations through admission control, the TTL result cache,
//! and chunked-response TTFC accounting.
//!
//! Four arms stream the same six-tenant Poisson mix through a sharded
//! fleet fronted by the gateway. Three arms fix the restore gear
//! (eager / lazy / prefetch) with the result cache off, so the
//! gateway-side *time to first chunk* isolates what the restore path
//! costs the caller's first byte: eager restores pay the full image
//! before the replica serves, while lazy and prefetch replicas start
//! serving — and streaming — orders of magnitude sooner. The fourth arm
//! re-runs prefetch with a per-function TTL cache, collapsing repeat
//! invocations onto the sub-millisecond edge path.
//!
//! Every arm is conservation-checked (`offered == admitted + shed +
//! queued` plus the arrivals-level identity with cache hits), and the
//! prefetch arm is re-drained serially to prove the threaded drain is
//! bit-identical. The JSON carries virtual-domain fields only, so with
//! the default seed the file is bit-reproducible: CI runs the quick
//! sweep twice and `cmp`s the outputs.
//!
//! Full-run gates: cold-TTFC p50 of prefetch and lazy beat eager, and
//! the cached path serves strictly under 10 virtual milliseconds.

use super::*;
use prebake_bench::fleetmix::{six_tenant_stream, six_tenants};
use prebake_fleet::{
    CacheConfig, FleetConfig, FleetSim, FunctionProfile, GatewayConfig, Gear, GearCost, KeepAlive,
    Policy, StartSelection,
};

/// The six-tenant mix, profiled for all three fixed gears. Eager pays
/// the full image up front (large `cold_ms`), lazy restores a sliver
/// and faults the rest into its first service, prefetch overlaps the
/// fault-in and lands in the paper's ~18 ms band.
fn tenants() -> Vec<FunctionProfile> {
    six_tenants(|t, prefetch| {
        vec![
            (
                Gear::Eager,
                GearCost {
                    cold_ms: 110.0 + 25.0 * t as f64,
                    ..prefetch
                },
            ),
            (
                Gear::Lazy,
                GearCost {
                    cold_ms: 7.0 + 1.5 * t as f64,
                    first_service_ms: 26.0 + 4.0 * t as f64,
                    image_bytes: (4 + 2 * t as u64) << 20,
                    ..prefetch
                },
            ),
        ]
    })
}

fn config(gear: Gear, cached: bool, threads: bool, seed: u64) -> FleetConfig {
    let cache = if cached {
        CacheConfig {
            default_ttl: Some(SimDuration::from_secs(30)),
            ..CacheConfig::default()
        }
    } else {
        CacheConfig::default()
    };
    FleetConfig {
        workers: 64,
        mem_budget_bytes: 4 << 30,
        cold_start_concurrency: 4,
        queue_cap: 4096,
        max_replicas_per_function: 64,
        policy: Policy {
            keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(60)),
            start: StartSelection::Fixed(gear),
        },
        seed,
        shards: 4,
        threads,
        retain_completed: false,
        gateway: Some(GatewayConfig {
            inflight_per_worker: 8,
            queue_per_worker: 32,
            cache,
            ..GatewayConfig::default()
        }),
        ..FleetConfig::default()
    }
}

/// One arm's outcome — virtual-domain fields only.
struct Outcome {
    label: &'static str,
    arrivals: u64,
    admitted: u64,
    deferred: u64,
    shed: u64,
    cache_hits: u64,
    ttfc_p50_ms: f64,
    ttfc_p99_ms: f64,
    ttfc_cold_p50_ms: f64,
    cached_serve_max_ms: f64,
    chunks: u64,
    /// Served invocations per virtual second.
    vthroughput: f64,
    conserved: bool,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -1.0
    }
}

fn run_arm(label: &'static str, gear: Gear, cached: bool, per_tenant: usize, seed: u64) -> Outcome {
    let mut sim = FleetSim::new(config(gear, cached, true, seed));
    for p in tenants() {
        sim.register(p);
    }
    sim.run_stream(six_tenant_stream(per_tenant, seed))
        .expect("stream runs clean");

    let stats = sim.gateway_admission();
    let gm = sim.gateway_metrics().expect("frontier enabled");
    let secs = sim.now().as_nanos() as f64 / 1e9;
    Outcome {
        label,
        arrivals: gm.arrivals.get(),
        admitted: gm.admitted.get(),
        deferred: stats.deferred,
        shed: gm.shed(),
        cache_hits: gm.cache_hits.get(),
        ttfc_p50_ms: finite(gm.ttfc_ms.quantile(0.5)),
        ttfc_p99_ms: finite(gm.ttfc_ms.quantile(0.99)),
        ttfc_cold_p50_ms: finite(gm.ttfc_cold_ms.quantile(0.5)),
        cached_serve_max_ms: gm.cached_serve_max_ms,
        chunks: gm.chunks.get(),
        vthroughput: sim.metrics().requests.get() as f64 / secs.max(1e-9),
        conserved: sim.gateway_conserved(),
    }
}

/// Threaded-vs-serial cross-check on one arm: the drain mode is an
/// execution detail and must not show up in any byte of the metrics.
fn serial_identical(gear: Gear, per_tenant: usize, seed: u64) -> bool {
    let run = |threads: bool| {
        let mut sim = FleetSim::new(config(gear, false, threads, seed));
        for p in tenants() {
            sim.register(p);
        }
        sim.run_stream(six_tenant_stream(per_tenant, seed))
            .expect("stream runs clean");
        (
            sim.render_metrics(),
            sim.events_processed(),
            sim.now().as_nanos(),
        )
    };
    run(true) == run(false)
}

pub(crate) fn run(args: &HarnessArgs, _memo: &Memo, out: &mut Report) -> Option<String> {
    let quick = !args.is_full();
    // The full run streams 1.008M invocations (4 arms x 6 tenants x
    // 42k); quick replays 12k per arm for the tier-1 golden check.
    let per_tenant: usize = if quick { 2_000 } else { 42_000 };
    let per_arm = per_tenant * 6;
    out.line(format_args!(
        "Ablation — streaming gateway frontier: 4 arms x {per_arm} streamed arrivals, \
         6 tenants, 64 workers (seed {})",
        args.seed
    ));
    out.header(format_args!(
        "{:<10} {:>9} {:>9} {:>8} {:>7} {:>8} {:>9} {:>9} {:>11} {:>9} {:>10}",
        "arm",
        "arrivals",
        "admitted",
        "deferred",
        "shed",
        "hits",
        "ttfc-p50",
        "ttfc-p99",
        "coldttfc50",
        "cachedmax",
        "vthru/s"
    ));

    let arms: [(&'static str, Gear, bool); 4] = [
        ("eager", Gear::Eager, false),
        ("lazy", Gear::Lazy, false),
        ("prefetch", Gear::Prefetch, false),
        ("cached", Gear::Prefetch, true),
    ];
    let mut outcomes = Vec::new();
    for &(label, gear, cached) in &arms {
        let o = run_arm(label, gear, cached, per_tenant, args.seed);
        out.line(format_args!(
            "{:<10} {:>9} {:>9} {:>8} {:>7} {:>8} {:>7.2}ms {:>7.2}ms {:>9.2}ms {:>7.3}ms {:>10.0}",
            o.label,
            o.arrivals,
            o.admitted,
            o.deferred,
            o.shed,
            o.cache_hits,
            o.ttfc_p50_ms,
            o.ttfc_p99_ms,
            o.ttfc_cold_p50_ms,
            o.cached_serve_max_ms,
            o.vthroughput,
        ));
        outcomes.push(o);
    }
    out.hr();

    for o in &outcomes {
        assert!(o.conserved, "{} arm broke admission conservation", o.label);
        assert_eq!(
            o.arrivals, per_arm as u64,
            "{} arm offered every arrival",
            o.label
        );
        assert_eq!(
            o.arrivals,
            o.admitted + o.shed + o.cache_hits,
            "{} arm: arrivals split into admitted, shed and cache hits",
            o.label
        );
    }
    let identical = serial_identical(Gear::Prefetch, per_tenant, args.seed);
    assert!(identical, "threaded drain diverged on the prefetch arm");

    let by_label = |l: &str| outcomes.iter().find(|o| o.label == l).expect("arm present");
    let (eager, lazy, prefetch, cached) = (
        by_label("eager"),
        by_label("lazy"),
        by_label("prefetch"),
        by_label("cached"),
    );
    assert!(
        prefetch.ttfc_cold_p50_ms < eager.ttfc_cold_p50_ms,
        "prefetch cold TTFC p50 must beat eager: {} vs {}",
        prefetch.ttfc_cold_p50_ms,
        eager.ttfc_cold_p50_ms
    );
    assert!(
        lazy.ttfc_cold_p50_ms < eager.ttfc_cold_p50_ms,
        "lazy cold TTFC p50 must beat eager: {} vs {}",
        lazy.ttfc_cold_p50_ms,
        eager.ttfc_cold_p50_ms
    );
    assert!(
        cached.cache_hits > 0 && cached.cached_serve_max_ms < 10.0,
        "cached path must serve under 10 virtual ms (max {} over {} hits)",
        cached.cached_serve_max_ms,
        cached.cache_hits
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {},\n  \"arrivals_per_arm\": {},\n  \"tenants\": 6,\n  \
         \"workers\": 64,\n  \"threaded_serial_identical\": {},\n  \"arms\": [\n",
        args.seed, per_arm, identical
    ));
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"arm\": \"{}\", \"arrivals\": {}, \"admitted\": {}, \"deferred\": {}, \
             \"shed\": {}, \"cache_hits\": {}, \"ttfc_p50_ms\": {:.4}, \"ttfc_p99_ms\": {:.4}, \
             \"ttfc_cold_p50_ms\": {:.4}, \"cached_serve_max_ms\": {:.4}, \"chunks\": {}, \
             \"virtual_throughput_per_sec\": {:.4}, \"conserved\": {}}}{}\n",
            o.label,
            o.arrivals,
            o.admitted,
            o.deferred,
            o.shed,
            o.cache_hits,
            o.ttfc_p50_ms,
            o.ttfc_p99_ms,
            o.ttfc_cold_p50_ms,
            o.cached_serve_max_ms,
            o.chunks,
            o.vthroughput,
            o.conserved,
            if i == outcomes.len() - 1 { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = args.artifact_path("BENCH_gateway.json");
    out.line(format_args!(
        "take-away: fronting the fleet with the streaming gateway, prefetch restores hand the \
         caller a first chunk at {:.1}ms cold p50 vs {:.1}ms eager ({:.1}x), and the TTL cache \
         answers {} repeat invocations at the edge in at most {:.3} virtual ms. Wrote {path}.",
        prefetch.ttfc_cold_p50_ms,
        eager.ttfc_cold_p50_ms,
        eager.ttfc_cold_p50_ms / prefetch.ttfc_cold_p50_ms.max(1e-9),
        cached.cache_hits,
        cached.cached_serve_max_ms,
    ));
    Some(json)
}
