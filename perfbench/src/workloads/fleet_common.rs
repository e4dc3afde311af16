//! What the two fleet workloads share: the tenant cost shapes, turning
//! a finished `FleetSim` into ops, the per-layer numbers any fleet
//! round can state, and the micro-kernels of the layers under the
//! event loop.

use std::time::Instant;

use prebake_fleet::{FleetConfig, FleetRequest, FleetSim, FunctionProfile, Gear, GearCost};
use prebake_platform::loadgen::{Arrival, LoadResult};
use prebake_platform::metrics::Histogram;
use prebake_sim::event::EventQueue;
use prebake_sim::time::SimInstant;

use super::{fastest, fastest_call_ms, Op, Outcome, Round, CALLS};
use crate::report::LayerValues;
use crate::span::Tracer;
use crate::stats::{median, sorted};

/// Ops a micro-kernel times per call.
pub const KERNEL_OPS: usize = 1_000_000;

/// One of `ablation_scale`'s six tenant cost shapes: service times and
/// footprints spread across the range the Fig. 5 functions cover,
/// prebaked with a vanilla fallback for the adaptive policy to reject.
pub fn tenant_profile(name: &str, shape: u64) -> FunctionProfile {
    let t = shape as f64;
    FunctionProfile::synthetic(
        name,
        &[
            (
                Gear::Vanilla,
                GearCost {
                    cold_ms: 150.0 + 40.0 * t,
                    first_service_ms: 8.0 + t,
                    warm_service_ms: 1.5 + 0.5 * t,
                    replica_mem_bytes: (64 + 24 * shape) << 20,
                    image_bytes: 0,
                },
            ),
            (
                Gear::Prefetch,
                GearCost {
                    cold_ms: 18.0 + 6.0 * t,
                    first_service_ms: 3.0 + 0.5 * t,
                    warm_service_ms: 1.5 + 0.5 * t,
                    replica_mem_bytes: (64 + 24 * shape) << 20,
                    image_bytes: (24 + 12 * shape) << 20,
                },
            ),
        ],
    )
}

/// One finished round, as the checks and metrics see it.
pub struct Finished {
    /// The simulator after `run_stream`.
    pub sim: FleetSim,
    /// Wall seconds `run_stream` took.
    pub host_s: f64,
}

/// One fleet op batch: builds the fleet (fixture work), then runs
/// `stream` through it, timing `run_stream` alone.
pub fn run<I>(
    config: FleetConfig,
    profiles: impl IntoIterator<Item = FunctionProfile>,
    stream: I,
    tracer: &mut Tracer,
) -> Result<Finished, String>
where
    I: IntoIterator<Item = LoadResult<Arrival>>,
{
    tracer.next_op();
    let s = tracer.begin("fleet", "FleetSim::new");
    let mut sim = FleetSim::new(config);
    tracer.end(s);
    let s = tracer.begin("fleet", "register");
    for profile in profiles {
        sim.register(profile);
    }
    tracer.end(s);
    let s = tracer.begin("fleet", "run_stream");
    let started = Instant::now();
    let result = sim.run_stream(stream);
    let host_s = started.elapsed().as_secs_f64();
    tracer.end(s);
    result.map_err(|err| err.to_string())?;
    Ok(Finished { sim, host_s })
}

/// Turns a run into a round: the shared conservation checks of
/// [`collect`], then the workload's own `check` (`Some(why)` fails the
/// round).
pub fn round(
    run: Result<Finished, String>,
    arrivals: u64,
    tracer: &mut Tracer,
    check: impl FnOnce(&FleetSim) -> Option<String>,
) -> (Round, Option<Finished>) {
    match run {
        Ok(finished) => {
            let s = tracer.begin("perfbench", "collect");
            let mut round = collect(&finished, arrivals);
            tracer.end(s);
            if let Some(why) = check(&finished.sim) {
                round.fail(why);
            }
            (round, Some(finished))
        }
        Err(err) => {
            let mut round = Round::default();
            round.failures.push(err);
            (round, None)
        }
    }
}

/// Turns a finished simulation into the round's ops: one `Ok` per
/// completed request with its arrival → completion latency (queueing
/// counts: the clock starts at the scheduled arrival instant), one `Ok`
/// per result-cache hit at the edge's serve time, one `Refused` per
/// shed arrival. Also runs the conservation checks every fleet round
/// shares.
fn collect(finished: &Finished, arrivals: u64) -> Round {
    let sim = &finished.sim;
    let mut round = Round {
        host_s: finished.host_s,
        ..Round::default()
    };
    round.ops.extend(sim.completed().iter().map(|r| Op {
        sim_ms: r.latency_ms(),
        outcome: Outcome::Ok,
    }));
    let (hits, gateway_shed, serve_ms) = sim.gateway_metrics().map_or((0, 0, 0.0), |gm| {
        (gm.cache_hits.get(), gm.shed(), gm.cached_serve_max_ms)
    });
    round.ops.extend((0..hits).map(|_| Op {
        sim_ms: serve_ms,
        outcome: Outcome::Ok,
    }));
    let shed = sim.metrics().shed.get() + gateway_shed;
    round.ops.extend((0..shed).map(|_| Op {
        sim_ms: 0.0,
        outcome: Outcome::Refused,
    }));

    let completed = sim.completed().len() as u64;
    if sim.metrics().requests.get() != completed {
        round.fail(format!(
            "{} requests admitted but {completed} completed",
            sim.metrics().requests.get()
        ));
    }
    if completed + hits + shed != arrivals {
        round.fail(format!(
            "{arrivals} arrivals != {completed} completed + {hits} cache hits + {shed} shed"
        ));
    }
    let mut ids: Vec<u64> = sim.completed().iter().map(|r| r.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        round.fail("completed request ids are not unique".to_owned());
    }
    if !sim.gateway_conserved() {
        round.fail("gateway admission ledger does not balance".to_owned());
    }
    if let Some(registry) = sim.registry() {
        // No receipt is reachable through the fleet's public API; what
        // is reachable are both sides' totals, which must agree.
        let m = sim.metrics();
        if registry.egress_bytes() != m.registry_egress_bytes.get()
            || registry.dedup_bytes() != m.registry_dedup_bytes.get()
        {
            round.fail("registry byte totals disagree with the fleet's counters".to_owned());
        }
    }
    round
}

/// The per-layer numbers one fleet round states about itself.
fn round_layers(finished: &Finished, arrivals: u64, out: &mut LayerValues) {
    let sim = &finished.sim;
    let m = sim.metrics();
    let ops = arrivals as f64;
    let kops = ops / 1e3;
    let n = arrivals as usize;
    let requests = m.requests.get().max(1) as f64;
    out.set(
        "fleet.events_per_op",
        sim.events_processed() as f64 / ops,
        n,
    );
    out.set("fleet.cold_share", m.cold_starts.get() as f64 / requests, n);
    let gateway_shed = sim.gateway_metrics().map_or(0, |gm| gm.shed());
    out.set(
        "fleet.shed_share",
        (m.shed.get() + gateway_shed) as f64 / ops,
        n,
    );
    out.set(
        "fleet.evictions_per_kop",
        m.evictions.get() as f64 / kops,
        n,
    );
    out.set(
        "fleet.expirations_per_kop",
        m.expirations.get() as f64 / kops,
        n,
    );
    out.set(
        "fleet.replicas_started_per_kop",
        m.replicas_started.get() as f64 / kops,
        n,
    );
    let delays = sorted(
        &sim.completed()
            .iter()
            .map(FleetRequest::queue_delay_ms)
            .collect::<Vec<_>>(),
    );
    out.set("fleet.queue_delay_p50_ms", median(&delays), delays.len());
    out.set(
        "fleet.pull_wait_p50_ms",
        finite(m.pull_wait.quantile(0.5)),
        m.pull_wait.count() as usize,
    );
    if let Some(registry) = sim.registry() {
        let (egress, dedup) = (
            registry.egress_bytes() as f64,
            registry.dedup_bytes() as f64,
        );
        out.set(
            "registry.egress_mib_per_kop",
            egress / (1 << 20) as f64 / kops,
            n,
        );
        out.set(
            "registry.dedup_share",
            dedup / (egress + dedup).max(1.0),
            registry.pulls() as usize,
        );
        out.set(
            "registry.pull_cache_hit_share",
            registry.cache_hits() as f64 / registry.pulls().max(1) as f64,
            registry.pulls() as usize,
        );
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Everything a fleet workload's traced pass reports whatever its
/// configuration: the round's own counts, the loop's host cost over the
/// traced rounds plus `finished`, and the micro-kernels underneath.
/// Returns the wall times it used, for variant comparisons.
pub fn shared_layers<I>(
    finished: &Finished,
    traced: &[Round],
    arrivals: u64,
    stream: impl FnMut() -> I,
    out: &mut LayerValues,
) -> Vec<f64>
where
    I: Iterator<Item = LoadResult<Arrival>>,
{
    round_layers(finished, arrivals, out);
    let mut host_s: Vec<f64> = traced.iter().map(|r| r.host_s).collect();
    host_s.push(finished.host_s);
    loop_layers(
        &host_s,
        finished.sim.events_processed(),
        arrivals,
        stream,
        out,
    );
    kernel_layers(out);
    host_s
}

/// Host cost per event and the loop's self time, from the rounds timed.
fn loop_layers<I>(
    host_s: &[f64],
    events: u64,
    arrivals: u64,
    mut stream: impl FnMut() -> I,
    out: &mut LayerValues,
) where
    I: Iterator<Item = LoadResult<Arrival>>,
{
    let round_s = fastest(host_s);
    out.set(
        "fleet.host_ns_per_event",
        round_s * 1e9 / events as f64,
        host_s.len(),
    );
    // The load generator runs inside `run_stream`; drained alone it
    // gives the share of a round that is not the event loop's.
    let drain_ms = fastest_call_ms(CALLS, || {
        let n = stream().filter(Result::is_ok).count() as u64;
        assert_eq!(n, arrivals, "generator yields every arrival");
    });
    out.set(
        "platform.loadgen_host_ns_per_arrival",
        drain_ms * 1e6 / arrivals as f64,
        CALLS,
    );
    out.set(
        "fleet.run_self_host_s",
        round_s - drain_ms / 1e3,
        host_s.len(),
    );
}

/// Micro-kernels of the layers under every fleet event: the event
/// queue and the latency histogram.
fn kernel_layers(out: &mut LayerValues) {
    // A steady queue of 1024 pending events: pop the earliest, schedule
    // one later — the loop's own access pattern.
    let ms = fastest_call_ms(CALLS, || {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let at = |i: u64| SimInstant::from_nanos(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20);
        for i in 0..1024 {
            queue.schedule(at(i), i);
        }
        for i in 0..KERNEL_OPS as u64 {
            let (t, payload) = queue.pop().expect("never empty");
            queue.schedule(
                SimInstant::from_nanos(t.as_nanos() + (at(i).as_nanos() >> 8)),
                payload,
            );
        }
        std::hint::black_box(queue.len());
    });
    out.set(
        "sim.event_queue_host_ns_per_event",
        ms * 1e6 / KERNEL_OPS as f64,
        CALLS,
    );

    let ms = fastest_call_ms(CALLS, || {
        let mut h = Histogram::new(&prebake_fleet::metrics::LATENCY_BOUNDS_MS);
        for i in 0..KERNEL_OPS as u64 {
            // Spread over every bucket, as fleet latencies are.
            h.observe(((i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) as f64) * 0.75);
        }
        std::hint::black_box(h.count());
    });
    out.set(
        "platform.histogram_observe_host_ns",
        ms * 1e6 / KERNEL_OPS as f64,
        CALLS,
    );
}
