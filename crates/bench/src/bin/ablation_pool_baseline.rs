//! Ablation 3 (paper §1/§6 related work): prebaking vs the pool-based
//! cold-start mitigation (Lin & Glikson, the paper's reference \[14\])
//! under bursty load.
//!
//! Three platform configurations serve the same Poisson-with-bursts
//! trace of the Markdown function:
//!
//! 1. **vanilla**      — scale-to-zero, fork-exec cold starts
//! 2. **prebake**      — scale-to-zero, snapshot-restore cold starts
//! 3. **warm pool** — vanilla starts + a 2-replica warm pool (idle
//!    replicas the provider pays for)
//!
//! Reported: p50/p95/p99 latency, cold-start count, and replicas started
//! (an operating-cost proxy). Expectation: the pool hides cold starts at
//! standing cost; prebaking narrows the gap without idle replicas —
//! exactly the paper's motivation.

use prebake_bench::{hr, HarnessArgs};
use prebake_functions::FunctionSpec;
use prebake_platform::builder::{FunctionBuilder, Template};
use prebake_platform::loadgen;
use prebake_platform::platform::{Platform, PlatformConfig};
use prebake_platform::registry::Registry;
use prebake_runtime::http::Request;
use prebake_sim::time::{SimDuration, SimInstant};
use prebake_stats::summary::quantile;

struct Scenario {
    name: &'static str,
    template: Template,
    min_warm_pool: usize,
}

fn main() {
    let args = HarnessArgs::parse();
    let n_requests = (args.reps * 2).max(100);
    println!(
        "Ablation — prebaking vs warm-pool baseline, bursty Markdown trace ({n_requests} requests)"
    );
    hr();
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>7} {:>9} {:>9}",
        "scenario", "p50", "p95", "p99", "cold", "started", "reaped"
    );
    hr();

    let scenarios = [
        Scenario {
            name: "vanilla",
            template: Template::java11(),
            min_warm_pool: 0,
        },
        Scenario {
            name: "prebake",
            template: Template::java11_criu_warm(),
            min_warm_pool: 0,
        },
        Scenario {
            name: "warm-pool",
            template: Template::java11(),
            min_warm_pool: 2,
        },
    ];

    for sc in scenarios {
        let registry = Registry::new();
        registry.push(
            FunctionBuilder
                .build(FunctionSpec::markdown(), &sc.template)
                .expect("build image"),
        );
        let config = PlatformConfig {
            idle_timeout: SimDuration::from_secs(10),
            min_warm_pool: sc.min_warm_pool,
            seed: args.seed,
            ..PlatformConfig::default()
        };
        let mut platform = Platform::new(config, registry);
        platform.deploy_function("markdown-render").expect("deploy");

        // Trace: steady Poisson traffic with bursts every 30 s — each
        // burst lands after the idle GC reaped the replicas, forcing
        // cold starts in the scale-to-zero scenarios.
        let body = prebake_functions::sample_markdown().into_bytes();
        let make = |_i: usize| Request::with_body(body.clone());
        let steady = n_requests * 2 / 3;
        let burst_total = n_requests - steady;
        loadgen::poisson(
            &mut platform,
            "markdown-render",
            steady,
            SimInstant::EPOCH,
            SimDuration::from_millis(400),
            args.seed,
            make,
        )
        .expect("poisson load");
        let bursts = 4usize;
        for b in 0..bursts {
            let at = SimInstant::EPOCH + SimDuration::from_secs(30 * (b as u64 + 1));
            loadgen::burst(
                &mut platform,
                "markdown-render",
                burst_total / bursts,
                at,
                make,
            )
            .expect("burst load");
        }
        platform.run().expect("platform run");

        let latencies: Vec<f64> = platform
            .completed()
            .iter()
            .map(|r| r.latency_ms())
            .collect();
        let m = platform.metrics().get("markdown-render").expect("metrics");
        println!(
            "{:<12} {:>7.1}ms {:>7.1}ms {:>7.1}ms {:>7} {:>9} {:>9}",
            sc.name,
            quantile(&latencies, 0.50),
            quantile(&latencies, 0.95),
            quantile(&latencies, 0.99),
            m.cold_starts.get(),
            m.replicas_started.get(),
            m.replicas_reaped.get()
        );
    }
    hr();
    println!(
        "take-away: warm pools erase tail latency by paying for idle replicas; \
         prebaking attacks the same tail by making each cold start cheap instead."
    );
}
