//! Ablation 11: sharded event-loop scale — a million invocations
//! through the fleet without materialising the trace.
//!
//! The fleet ablations replay tens of thousands of arrivals through a
//! single event loop; this harness asks what happens at production
//! trace scale. A six-tenant Poisson mix is *streamed* — six lazy
//! [`ArrivalGen`]s under a deterministic k-way merge feeding
//! [`FleetSim::run_stream`] — against a 200-node fleet, so the
//! million-arrival schedule never exists in memory, and the per-request
//! log is dropped ([`FleetConfig::retain_completed`]) so the run's
//! footprint stays flat while the histograms keep every distribution.
//!
//! The sweep runs the same workload at 1, 2, 4 and 8 event-loop shards.
//! For each point it measures events/sec (printed, never written to the
//! JSON — wall time is machine noise), and re-runs the shard count with
//! threading disabled to prove the threaded drain is bit-identical to
//! the serial one. On full runs the harness asserts the sharded engine
//! clears 3x the unsharded events/sec — the scan-domain reduction the
//! cells buy (each shard walks only its own workers and replicas), not
//! a parallelism dividend, so it holds on a single core.
//!
//! Shard counts partition placement domains differently, so each S row
//! is its own deterministic model variant; the cross-checks compare
//! executions of the *same* S. Besides the table the harness writes
//! `BENCH_scale.json` (virtual-domain fields only; with the default
//! `--seed` the file is bit-reproducible).
//!
//! [`ArrivalGen`]: prebake_platform::loadgen::ArrivalGen

use super::*;
use std::time::Instant;

use prebake_bench::fleetmix::{six_tenant_stream, six_tenants};
use prebake_fleet::{
    FleetConfig, FleetSim, FunctionProfile, Gear, GearCost, KeepAlive, Policy, RegistryConfig,
    StartSelection,
};

/// The six-tenant mix, every tenant prebaked (vanilla fallback kept
/// for the adaptive policy to reject).
fn tenants() -> Vec<FunctionProfile> {
    six_tenants(|t, prefetch| {
        vec![(
            Gear::Vanilla,
            GearCost {
                cold_ms: 150.0 + 40.0 * t as f64,
                first_service_ms: 8.0 + t as f64,
                image_bytes: 0,
                ..prefetch
            },
        )]
    })
}

fn config(shards: usize, threads: bool, seed: u64) -> FleetConfig {
    FleetConfig {
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
        shards,
        threads,
        retain_completed: false,
        ..FleetConfig::default()
    }
}

/// One shard count's outcome — virtual-domain fields only, so the row
/// is bit-reproducible; wall time stays on stdout.
struct Outcome {
    shards: usize,
    requests: u64,
    shed: u64,
    cold_starts: u64,
    cold_p99_ms: f64,
    egress_bytes: u64,
    dedup_bytes: u64,
    replicas_started: u64,
    events_processed: u64,
    /// Threaded drain matched the serial drain bit-for-bit.
    identical: bool,
    events_per_sec: f64,
}

/// Everything the threaded-vs-serial cross-check compares.
fn fingerprint(sim: &FleetSim) -> (String, u64, u64, u64, u64) {
    (
        sim.render_metrics(),
        sim.registry().map_or(0, |r| r.egress_bytes()),
        sim.registry().map_or(0, |r| r.dedup_bytes()),
        sim.events_processed(),
        sim.now().as_nanos(),
    )
}

fn run_point(shards: usize, per_tenant: usize, seed: u64) -> Outcome {
    let mut sim = FleetSim::new(config(shards, true, seed));
    for p in tenants() {
        sim.register(p);
    }
    let wall = Instant::now();
    sim.run_stream(six_tenant_stream(per_tenant, seed))
        .expect("stream runs clean");
    let elapsed = wall.elapsed().as_secs_f64();

    // Execution cross-check: the same shard count drained serially must
    // be bit-identical (threading is an execution detail, not a model
    // input). One shard always drains serially, so the re-run would
    // compare the engine against itself.
    let identical = if shards > 1 {
        let mut serial = FleetSim::new(config(shards, false, seed));
        for p in tenants() {
            serial.register(p);
        }
        serial
            .run_stream(six_tenant_stream(per_tenant, seed))
            .expect("stream runs clean");
        fingerprint(&serial) == fingerprint(&sim)
    } else {
        true
    };

    let m = sim.metrics();
    let cold_p99 = m.cold_latency.quantile(0.99);
    Outcome {
        shards,
        requests: m.requests.get(),
        shed: m.shed.get(),
        cold_starts: m.cold_starts.get(),
        cold_p99_ms: if cold_p99.is_finite() { cold_p99 } else { -1.0 },
        egress_bytes: sim.registry().map_or(0, |r| r.egress_bytes()),
        dedup_bytes: sim.registry().map_or(0, |r| r.dedup_bytes()),
        replicas_started: m.replicas_started.get(),
        events_processed: sim.events_processed(),
        identical,
        events_per_sec: sim.events_processed() as f64 / elapsed.max(1e-9),
    }
}

pub(crate) fn run(args: &HarnessArgs, _memo: &Memo, out: &mut Report) -> Option<String> {
    let quick = !args.is_full();
    // Quick gates replay a 54k-arrival trace at the sweep's endpoints;
    // the full run is the paper-scale point: a million-plus invocations
    // across every shard count.
    let (per_tenant, sweep): (usize, &[usize]) = if quick {
        (9_000, &[1, 4])
    } else {
        (170_000, &[1, 2, 4, 8])
    };
    let total = per_tenant * 6;
    out.line(format_args!(
        "Ablation — sharded event-loop scale: {total} streamed arrivals, 6 tenants, \
         200 workers (seed {})",
        args.seed
    ));
    out.header(format_args!(
        "{:<6} {:>9} {:>6} {:>7} {:>9} {:>9} {:>9} {:>10} {:>10} {:>5}",
        "shards",
        "requests",
        "shed",
        "cold",
        "coldp99",
        "egress",
        "dedup",
        "events",
        "events/s",
        "ident"
    ));

    let mut outcomes = Vec::new();
    for &s in sweep {
        let o = run_point(s, per_tenant, args.seed);
        out.line(format_args!(
            "{:<6} {:>9} {:>6} {:>7} {:>7.1}ms {:>7.1}MB {:>7.1}MB {:>10} {:>10.0} {:>5}",
            o.shards,
            o.requests,
            o.shed,
            o.cold_starts,
            o.cold_p99_ms,
            o.egress_bytes as f64 / 1e6,
            o.dedup_bytes as f64 / 1e6,
            o.events_processed,
            o.events_per_sec,
            o.identical,
        ));
        outcomes.push(o);
    }
    out.hr();

    for o in &outcomes {
        assert!(
            o.identical,
            "threaded drain diverged at {} shards",
            o.shards
        );
        assert_eq!(
            o.requests + o.shed,
            total as u64,
            "every arrival admitted or shed at {} shards",
            o.shards
        );
    }
    let base = outcomes.first().expect("sweep non-empty");
    let best_speedup = outcomes
        .iter()
        .filter(|o| o.shards >= 4)
        .map(|o| o.events_per_sec / base.events_per_sec)
        .fold(0.0, f64::max);
    out.line(format_args!(
        "speedup: best {:.2}x events/sec over the unsharded loop ({} shard sweep)",
        best_speedup,
        sweep.len()
    ));

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {},\n  \"arrivals\": {},\n  \"tenants\": 6,\n  \"workers\": 200,\n  \"sweep\": [\n",
        args.seed, total
    ));
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"requests\": {}, \"shed\": {}, \"cold_starts\": {}, \
             \"cold_p99_ms\": {:.4}, \"registry_egress_bytes\": {}, \
             \"registry_dedup_bytes\": {}, \"replicas_started\": {}, \
             \"events_processed\": {}, \"threaded_serial_identical\": {}}}{}\n",
            o.shards,
            o.requests,
            o.shed,
            o.cold_starts,
            o.cold_p99_ms,
            o.egress_bytes,
            o.dedup_bytes,
            o.replicas_started,
            o.events_processed,
            o.identical,
            if i == outcomes.len() - 1 { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = args.artifact_path("BENCH_scale.json");
    out.line(format_args!(
        "take-away: the sharded event loop pushes {total} streamed invocations through a \
         200-node fleet at {:.0} events/sec — {best_speedup:.2}x the unsharded loop — with \
         threaded and serial drains bit-identical at every shard count. Wrote {path}.",
        outcomes.last().expect("non-empty").events_per_sec,
    ));

    // The throughput bar is checked on full runs only: a loaded machine
    // can depress wall-clock events/sec (and fail this check), and the
    // golden comparison runs quick.
    if !quick {
        assert!(
            best_speedup >= 3.0,
            "sharding must clear 3x the serial events/sec (got {best_speedup:.2}x)"
        );
    }
    Some(json)
}
