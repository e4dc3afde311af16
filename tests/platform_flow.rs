//! Cross-crate platform integration: the full OpenFaaS-style flow with
//! mixed functions and traffic over one gateway.

use prebake_functions::FunctionSpec;
use prebake_platform::openfaas::{FaasGateway, ProviderConfig};
use prebake_platform::platform::PlatformConfig;
use prebake_runtime::http::Request;
use prebake_sim::time::{SimDuration, SimInstant};

fn gateway() -> FaasGateway {
    FaasGateway::new(PlatformConfig::default(), ProviderConfig::default())
}

#[test]
fn mixed_functions_share_one_platform() {
    let mut gw = gateway();
    for (spec, template) in [
        (FunctionSpec::noop(), "java11"),
        (FunctionSpec::markdown(), "java11-criu-warm1"),
    ] {
        let project = gw.new_project(spec, template).unwrap();
        let image = gw.build(&project).unwrap();
        gw.push(image);
    }
    gw.deploy("noop").unwrap();
    gw.deploy("markdown-render").unwrap();

    let md_body = prebake_functions::sample_markdown().into_bytes();
    let t0 = SimInstant::EPOCH;
    gw.invoke_at(t0, "noop", Request::empty()).unwrap();
    gw.invoke_at(t0, "markdown-render", Request::with_body(md_body.clone()))
        .unwrap();
    gw.invoke_at(t0 + SimDuration::from_secs(1), "noop", Request::empty())
        .unwrap();
    gw.invoke_at(
        t0 + SimDuration::from_secs(1),
        "markdown-render",
        Request::with_body(md_body),
    )
    .unwrap();
    gw.run().unwrap();

    let completed = gw.platform().completed();
    assert_eq!(completed.len(), 4);

    // First request per function is cold; second is warm.
    let mut cold_noop = Vec::new();
    let mut cold_md = Vec::new();
    for r in completed {
        match (r.function.as_str(), r.cold) {
            ("noop", cold) => cold_noop.push(cold),
            ("markdown-render", cold) => cold_md.push(cold),
            other => panic!("unexpected record {other:?}"),
        }
    }
    assert_eq!(cold_noop, vec![true, false]);
    assert_eq!(cold_md, vec![true, false]);

    // The prebaked markdown cold start beats the vanilla noop cold start
    // despite markdown being the heavier function.
    let latency = |function: &str, cold: bool| {
        completed
            .iter()
            .find(|r| r.function == function && r.cold == cold)
            .map(|r| r.latency_ms())
            .unwrap()
    };
    assert!(
        latency("markdown-render", true) < latency("noop", true),
        "prebaked markdown {} !< vanilla noop {}",
        latency("markdown-render", true),
        latency("noop", true)
    );
}

#[test]
fn constant_rate_trace_keeps_single_replica_busy() {
    let mut gw = gateway();
    let project = gw.new_project(FunctionSpec::noop(), "java11").unwrap();
    let image = gw.build(&project).unwrap();
    gw.push(image);
    gw.deploy("noop").unwrap();

    for i in 0..50 {
        let at = SimInstant::EPOCH + SimDuration::from_millis(200 * i);
        gw.invoke_at(at, "noop", Request::empty()).unwrap();
    }
    gw.run().unwrap();

    assert_eq!(gw.platform().completed().len(), 50);
    let m = gw.platform().metrics().get("noop").unwrap();
    assert_eq!(m.replicas_started.get(), 1, "paced load needs one replica");
    assert_eq!(m.cold_starts.get(), 1);
}

#[test]
fn scale_to_zero_and_second_cold_start() {
    let mut gw = FaasGateway::new(
        PlatformConfig {
            idle_timeout: SimDuration::from_secs(5),
            ..PlatformConfig::default()
        },
        ProviderConfig::default(),
    );
    let project = gw.new_project(FunctionSpec::noop(), "java11-criu").unwrap();
    let image = gw.build(&project).unwrap();
    gw.push(image);
    gw.deploy("noop").unwrap();

    gw.invoke_at(SimInstant::EPOCH, "noop", Request::empty())
        .unwrap();
    gw.invoke_at(
        SimInstant::EPOCH + SimDuration::from_secs(120),
        "noop",
        Request::empty(),
    )
    .unwrap();
    gw.run().unwrap();

    let m = gw.platform().metrics().get("noop").unwrap();
    assert_eq!(m.cold_starts.get(), 2, "idle GC forces a second cold start");
    assert_eq!(m.replicas_started.get(), 2);
    assert_eq!(m.replicas_reaped.get(), 2);
    // Both cold starts are prebaked-fast.
    for r in gw.platform().completed() {
        assert!(
            r.latency_ms() < 90.0,
            "prebaked cold start {}ms",
            r.latency_ms()
        );
    }
}

#[test]
fn registry_versioning_through_gateway() {
    let mut gw = gateway();
    let project = gw.new_project(FunctionSpec::noop(), "java11").unwrap();
    let image = gw.build(&project).unwrap();
    assert_eq!(gw.push(image), 1);
    let project = gw.new_project(FunctionSpec::noop(), "java11-criu").unwrap();
    let image = gw.build(&project).unwrap();
    assert_eq!(gw.push(image), 2, "new build bumps the version");
    gw.deploy("noop").unwrap();
    // The deployed version is the prebaked build: its cold start
    // restores instead of booting.
    let cold_ms = gw.invoke_and_wait("noop", Request::empty()).unwrap();
    assert!(cold_ms < 90.0, "prebaked cold start {cold_ms}ms");
}
