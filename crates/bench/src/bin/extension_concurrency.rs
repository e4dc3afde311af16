//! Extension (paper §7 future work): concurrent snapshots.
//!
//! "We plan to evaluate the checkpoint/restore as a service including
//! aspects such as the performance to deal with ... concurrent
//! snapshots." A multi-tenant burst — twelve *distinct* functions cold
//! starting at once — makes the starts contend for the node's I/O and
//! CPU. This harness sweeps the node's cold-start concurrency, vanilla
//! vs prebaked. Prebaking helps twice: each start is shorter *and* the
//! convoy behind a saturated node drains proportionally faster.

use prebake_bench::{hr, HarnessArgs};
use prebake_functions::FunctionSpec;
use prebake_platform::builder::{FunctionBuilder, Template};
use prebake_platform::platform::{Platform, PlatformConfig};
use prebake_platform::registry::Registry;
use prebake_runtime::http::Request;
use prebake_sim::time::SimInstant;
use prebake_stats::summary::quantile;

fn run(template: &Template, concurrency: usize, tenants: usize, seed: u64) -> (f64, f64) {
    let registry = Registry::new();
    let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i}")).collect();
    for name in &names {
        let spec = FunctionSpec::markdown().with_name(name.clone());
        registry.push(FunctionBuilder.build(spec, template).expect("build"));
    }
    let config = PlatformConfig {
        cold_start_concurrency: concurrency,
        seed,
        ..PlatformConfig::default()
    };
    let mut platform = Platform::new(config, registry);
    let body = prebake_functions::sample_markdown().into_bytes();
    for name in &names {
        platform.deploy_function(name).expect("deploy");
        platform
            .submit(SimInstant::EPOCH, name, Request::with_body(body.clone()))
            .expect("submit");
    }
    platform.run().expect("run");
    let lat: Vec<f64> = platform
        .completed()
        .iter()
        .map(|r| r.latency_ms())
        .collect();
    (quantile(&lat, 0.5), quantile(&lat, 1.0))
}

fn main() {
    let args = HarnessArgs::parse();
    let tenants = 12;
    println!("Extension — concurrent cold starts, {tenants} distinct functions at t=0 (markdown)");
    hr();
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "concurrency", "vanilla p50", "vanilla max", "prebake p50", "prebake max"
    );
    hr();
    for concurrency in [1usize, 2, 4, 8, 16] {
        let (v50, vmax) = run(&Template::java11(), concurrency, tenants, args.seed);
        let (p50, pmax) = run(
            &Template::java11_criu_warm(),
            concurrency,
            tenants,
            args.seed,
        );
        println!("{concurrency:<12} {v50:>10.1}ms {vmax:>10.1}ms {p50:>10.1}ms {pmax:>10.1}ms");
    }
    hr();
    println!(
        "take-away: with few slots the multi-tenant burst convoys behind cold \
         starts; prebaking shortens every position in the convoy, so the \
         worst-case gap widens as concurrency shrinks."
    );
}
