//! Ablation 10: fleet telemetry — SLO burst localization under
//! tail-sampled tracing.
//!
//! `ablation_fleet` (abl7) established that the adaptive prebake policy
//! serves the heavy-tailed four-tenant trace with a ~53ms p99 — every
//! request comfortably inside the 250ms latency SLO. This harness
//! replays *that same trace* with the telemetry stack attached and
//! injects a fault: a burst of invocations at t+600s on a canary tenant
//! whose only profiled gear is the vanilla fork-exec path, so each of
//! its cold starts costs ~1.6s. The questions the telemetry must
//! answer, bit-reproducibly:
//!
//! 1. **Localization** — does the SLO burn engine attribute the breach
//!    to the right tenant and the right 60s window, and only there?
//! 2. **Tail sampling** — with a 2% keep fraction, is the retained span
//!    volume ≥10× smaller than full tracing while *every* SLO-breaching
//!    request keeps its complete span tree?
//!
//! Writes `BENCH_obs.json`; with the default `--seed` the file (and the
//! dashboard and exemplar-annotated trace export under `results/`) is
//! bit-reproducible — the tier-1 gate double-runs `--quick` and `cmp`s.

use prebake_bench::fleetmix::{fig5_profiles, workload};
use prebake_bench::{hr, HarnessArgs};
use prebake_fleet::{
    default_fleet_obs, FleetConfig, FleetSim, FunctionProfile, Gear, KeepAlive, Policy,
    StartSelection,
};
use prebake_obs::{DashboardSpec, SloEventKind};
use prebake_platform::loadgen::Schedule;
use prebake_sim::time::{SimDuration, SimInstant};

/// The injected-fault tenant: profiled with the vanilla gear only, so
/// the adaptive start selection has nothing cheap to pick.
const BURST_FUNCTION: &str = "synthetic-burst";
/// Burst instant — the middle of recorder window 10.
const BURST_AT_S: u64 = 600;
/// Burst size: enough to cold-start well past the canary's share.
const BURST_SIZE: usize = 24;

fn main() {
    let args = HarnessArgs::parse();
    let reps = args.capped_reps();
    let profile_reps = (reps / 8).clamp(2, 5);
    println!(
        "Ablation — fleet telemetry: SLO burst localization \
         ({profile_reps} profiling reps, seed {})",
        args.seed
    );
    hr();

    // -- the abl7 trace + the injected burst ---------------------------
    let mut profiles = fig5_profiles(profile_reps, args.seed);
    let vanilla_cost = *profiles[2]
        .cost(Gear::Vanilla)
        .expect("big function profiled under vanilla");
    profiles.push(FunctionProfile::synthetic(
        BURST_FUNCTION,
        &[(Gear::Vanilla, vanilla_cost)],
    ));
    let schedule = workload(&profiles, args.seed).merge(
        Schedule::burst(
            BURST_FUNCTION,
            BURST_SIZE,
            SimInstant::EPOCH + SimDuration::from_secs(BURST_AT_S),
        )
        .expect("valid burst"),
    );

    // The abl7 winner configuration (histogram keep-alive with pre-warm,
    // adaptive gear selection) with the standard telemetry shape on top:
    // 60s windows, the 250ms latency SLO, the 10% cold-fraction SLO, 2%
    // tail sampling.
    let obs_config = default_fleet_obs(0.02, args.seed);
    let window_s = obs_config.recorder.width.as_secs_f64();
    let burst_window = (BURST_AT_S as f64 / window_s) as u64;
    let mut sim = FleetSim::new(FleetConfig {
        policy: Policy {
            keep_alive: KeepAlive::Histogram {
                floor: SimDuration::from_secs(1),
                cap: SimDuration::from_secs(120),
                quantile: 0.99,
                prewarm: true,
            },
            start: StartSelection::Adaptive,
        },
        seed: args.seed,
        span_tracing: true,
        obs: Some(obs_config),
        ..FleetConfig::default()
    });
    for p in &profiles {
        sim.register(p.clone());
    }
    sim.run(&schedule).expect("all functions registered");
    let spans = sim.take_spans();
    let requests = sim.metrics().requests.get();
    let cold_starts = sim.metrics().cold_starts.get();
    let breaching: Vec<_> = sim
        .completed()
        .iter()
        .filter(|r| r.latency_ms() > 250.0)
        .collect();
    let obs = sim.obs().expect("configured");
    let report = obs.report();

    // -- 1: the burn engine localizes the burst ------------------------
    let latency_breaches: Vec<_> = report
        .events_of("fleet-latency")
        .filter_map(|e| match &e.kind {
            SloEventKind::WindowBreach { burn, bad, total } => {
                Some((e.tenant.clone(), e.window_index, *burn, *bad, *total))
            }
            SloEventKind::BurnAlert { .. } => None,
        })
        .collect();
    assert!(
        !latency_breaches.is_empty(),
        "the injected burst must breach the latency SLO"
    );
    for (tenant, window, ..) in &latency_breaches {
        assert_eq!(
            (tenant.as_str(), *window),
            (BURST_FUNCTION, burst_window),
            "latency breaches must localize to the burst tenant/window only"
        );
    }
    let worst = report
        .worst_offender("fleet-latency")
        .expect("a worst offender exists");
    assert_eq!(worst.tenant, BURST_FUNCTION);
    assert_eq!(worst.window_index, burst_window);
    assert_eq!(worst.bad as usize, breaching.len());

    // -- 2: tail sampling keeps breaches, drops the bulk ---------------
    let st = obs.sampling;
    let spans_total = st.spans_kept + st.spans_dropped;
    assert!(
        spans_total >= 10 * st.spans_kept,
        "tail sampling must cut span volume >=10x ({} of {spans_total} kept)",
        st.spans_kept
    );
    assert_eq!(
        st.interesting_kept as usize,
        breaching.len(),
        "every SLO-breaching request is interesting-kept"
    );
    for r in &breaching {
        let root = spans
            .iter()
            .find(|sp| {
                sp.name == "sched_invocation"
                    && sp
                        .attrs
                        .iter()
                        .any(|(k, v)| *k == "id" && *v == r.id.to_string())
            })
            .unwrap_or_else(|| panic!("breaching request {} lost its span tree", r.id));
        let children = spans.iter().filter(|sp| sp.parent == Some(root.id)).count();
        assert_eq!(
            children, 4,
            "breaching request {} must keep its full tree",
            r.id
        );
    }

    // -- report --------------------------------------------------------
    let spec = DashboardSpec {
        counters: vec![
            "fleet_requests_total".to_owned(),
            "fleet_cold_starts_total".to_owned(),
        ],
        quantiles: vec![("fleet_latency_ms".to_owned(), 0.99)],
    };
    println!("{}", obs.dashboard(&spec));
    hr();

    let lat = report.status("fleet-latency").expect("evaluated");
    let cold = report.status("fleet-cold-fraction").expect("evaluated");
    let count_events = |name: &str| -> (usize, usize) {
        report
            .events_of(name)
            .fold((0, 0), |(b, a), e| match e.kind {
                SloEventKind::WindowBreach { .. } => (b + 1, a),
                SloEventKind::BurnAlert { .. } => (b, a + 1),
            })
    };
    let (lat_breaches, lat_alerts) = count_events("fleet-latency");
    let (cold_breaches, cold_alerts) = count_events("fleet-cold-fraction");
    let reduction = spans_total as f64 / st.spans_kept.max(1) as f64;

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {},\n  \"profile_reps\": {profile_reps},\n",
        args.seed
    ));
    json.push_str(&format!(
        "  \"trace\": {{\"arrivals\": {}, \"requests\": {requests}, \
         \"cold_starts\": {cold_starts}, \"burst_at_s\": {BURST_AT_S}, \
         \"burst_size\": {BURST_SIZE}}},\n",
        schedule.len(),
    ));
    json.push_str(&format!(
        "  \"slo\": [\n    {{\"objective\": \"fleet-latency\", \"bad\": {}, \
         \"total\": {}, \"burn\": {:.4}, \"window_breaches\": {lat_breaches}, \
         \"burn_alerts\": {lat_alerts}}},\n    {{\"objective\": \
         \"fleet-cold-fraction\", \"bad\": {}, \"total\": {}, \"burn\": {:.4}, \
         \"window_breaches\": {cold_breaches}, \"burn_alerts\": {cold_alerts}}}\n  ],\n",
        lat.bad, lat.total, lat.burn, cold.bad, cold.total, cold.burn,
    ));
    json.push_str(&format!(
        "  \"burst\": {{\"tenant\": \"{BURST_FUNCTION}\", \"window\": {burst_window}, \
         \"breaching_requests\": {}, \"worst_burn\": {:.4}}},\n",
        breaching.len(),
        worst.burn,
    ));
    json.push_str(&format!(
        "  \"sampling\": {{\"trees_kept\": {}, \"trees_dropped\": {}, \
         \"spans_kept\": {}, \"spans_dropped\": {}, \"interesting_kept\": {}, \
         \"reduction_x\": {reduction:.4}}}\n}}\n",
        st.trees_kept, st.trees_dropped, st.spans_kept, st.spans_dropped, st.interesting_kept,
    ));

    let path = args.write_artifact("BENCH_obs.json", &json);
    // The exemplar-annotated trace export always lands in results/ (it
    // holds every retained span — useful for Perfetto, too big to
    // commit).
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/TRACE_obs.json", obs.chrome_trace(&spans))
        .expect("write results/TRACE_obs.json");

    println!(
        "take-away: the burn engine pins the injected fault to tenant \"{BURST_FUNCTION}\" \
         in window {burst_window} (burn {:.1}x) with zero false localizations, while \
         tail sampling keeps {} of {spans_total} spans ({reduction:.1}x reduction) — \
         and all {} SLO-breaching invocations retain complete span trees. Wrote {path}.",
        worst.burn,
        st.spans_kept,
        breaching.len(),
    );
}
