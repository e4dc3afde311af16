//! End-to-end tests: the standalone [`Gateway`] and typed
//! [`GatewayClient`] over a real [`Platform`], exercising streaming,
//! the result cache, admission backpressure, and open-loop determinism.

use prebake_functions::FunctionSpec;
use prebake_gateway::{
    ArrivalOutcome, CacheConfig, Gateway, GatewayClient, GatewayConfig, GatewayError, StreamConfig,
};
use prebake_platform::{
    FunctionBuilder, Platform, PlatformConfig, PoissonProcess, Registry, Template,
};
use prebake_runtime::http::Request;
use prebake_sim::time::{SimDuration, SimInstant};

/// Builds a gateway fronting a one-function platform.
fn gateway_with(spec: FunctionSpec, template: &Template, config: GatewayConfig) -> Gateway {
    let name = spec.name().to_owned();
    let registry = Registry::new();
    let image = FunctionBuilder.build(spec, template).unwrap();
    registry.push(image);
    let platform = Platform::new(PlatformConfig::default(), registry);
    let mut gw = Gateway::new(platform, config);
    gw.deploy(&name).unwrap();
    gw
}

/// A config with a 60s result-cache TTL and small chunks so the
/// markdown body streams in many pieces.
fn caching_config() -> GatewayConfig {
    GatewayConfig {
        stream: StreamConfig {
            chunks: 8,
            chunk_bytes: 1024,
        },
        cache: CacheConfig {
            default_ttl: Some(SimDuration::from_secs(60)),
            ..CacheConfig::default()
        },
        ..GatewayConfig::default()
    }
}

#[test]
fn invoke_streams_chunks_then_serves_from_cache() {
    let spec = FunctionSpec::markdown();
    let req = spec.sample_request();
    let gw = gateway_with(spec, &Template::java11_criu_prefetch(), caching_config());
    let mut client = GatewayClient::new(gw);

    let first = client.invoke("markdown-render", req.clone()).unwrap();
    assert!(first.cold, "first invocation pays the cold start");
    assert!(!first.cached);
    assert!(!first.body.is_empty(), "markdown render returns HTML");
    assert!(
        first.chunks.len() > 1,
        "a {}-byte body must stream in >1 chunks",
        first.body.len()
    );
    assert_eq!(
        first.chunks.last().unwrap().at,
        first.completed,
        "last chunk lands exactly at completion"
    );
    assert!(
        first.ttfc_ms() < first.latency_ms(),
        "TTFC ({:.3}ms) must beat completion ({:.3}ms)",
        first.ttfc_ms(),
        first.latency_ms()
    );

    let second = client.invoke("markdown-render", req).unwrap();
    assert!(second.cached, "identical request within TTL hits the cache");
    assert!(!second.cold);
    assert_eq!(second.body, first.body, "cache returns the stored body");
    assert!(
        second.latency_ms() < 10.0,
        "cached path must serve in <10ms, got {:.3}ms",
        second.latency_ms()
    );

    let m = client.gateway().metrics();
    assert_eq!(m.cache_hits.get(), 1);
    assert_eq!(m.cache_misses.get(), 1);
    assert_eq!(m.cache_insertions.get(), 1);
    assert!(m.cached_serve_max_ms < 10.0);
    assert!(client.gateway().conserved());
}

#[test]
fn backpressure_sheds_past_the_bounded_queue() {
    let config = GatewayConfig {
        inflight_per_worker: 1,
        queue_per_worker: 1,
        ..GatewayConfig::default()
    };
    let mut gw = gateway_with(FunctionSpec::noop(), &Template::java11(), config);

    let at = SimInstant::EPOCH;
    assert_eq!(
        gw.arrive(at, "noop", Request::empty()).unwrap(),
        ArrivalOutcome::Admitted
    );
    assert_eq!(
        gw.arrive(at, "noop", Request::empty()).unwrap(),
        ArrivalOutcome::Queued
    );
    assert_eq!(
        gw.arrive(at, "noop", Request::empty()).unwrap(),
        ArrivalOutcome::Shed
    );
    assert!(gw.conserved(), "conserved with an arrival still queued");

    let report = gw.finish().unwrap();
    assert_eq!(report.replies.len(), 2, "admitted + promoted both answer");
    assert_eq!(report.admission.offered, 3);
    assert_eq!(report.admission.admitted, 2);
    assert_eq!(report.admission.deferred, 1);
    assert_eq!(report.admission.shed, 1);
    assert!(
        report.replies[1].dispatched >= report.replies[0].completed,
        "the queued arrival dispatches only after the slot frees"
    );
    assert!(gw.conserved());
}

#[test]
fn shed_invocation_is_a_typed_client_error() {
    let config = GatewayConfig {
        inflight_per_worker: 1,
        queue_per_worker: 0,
        ..GatewayConfig::default()
    };
    let gw = gateway_with(FunctionSpec::noop(), &Template::java11(), config);
    let mut client = GatewayClient::new(gw);

    // Fill the only slot without draining, then the next invoke sheds.
    client
        .gateway_mut()
        .arrive(SimInstant::EPOCH, "noop", Request::empty())
        .unwrap();
    let err = client.invoke("noop", Request::empty()).unwrap_err();
    assert_eq!(
        err,
        GatewayError::Shed {
            function: "noop".to_owned()
        }
    );
}

#[test]
fn closed_loop_pays_cold_once_then_stays_warm() {
    let gw = gateway_with(
        FunctionSpec::noop(),
        &Template::java11_criu_prefetch(),
        GatewayConfig::default(),
    );
    let mut client = GatewayClient::new(gw);
    let replies: Vec<_> = (0..5)
        .map(|_| client.invoke("noop", Request::empty()).unwrap())
        .collect();
    assert_eq!(replies.len(), 5);
    assert!(replies[0].cold);
    assert!(replies[1..].iter().all(|r| !r.cold), "replica stays warm");
    let warm_max = replies[1..]
        .iter()
        .map(InvokeReplyExt::latency)
        .fold(0.0f64, f64::max);
    assert!(
        replies[0].latency_ms() > warm_max,
        "cold invocation is the slowest"
    );
}

/// Small helper so the fold above reads cleanly.
trait InvokeReplyExt {
    fn latency(&self) -> f64;
}

impl InvokeReplyExt for prebake_gateway::InvokeReply {
    fn latency(&self) -> f64 {
        self.latency_ms()
    }
}

#[test]
fn open_loop_poisson_is_deterministic() {
    let run = || {
        let mut gw = gateway_with(
            FunctionSpec::noop(),
            &Template::java11_criu_lazy(),
            GatewayConfig {
                inflight_per_worker: 2,
                queue_per_worker: 4,
                ..GatewayConfig::default()
            },
        );
        let stream = PoissonProcess::new(
            "noop",
            200.0,
            SimInstant::EPOCH,
            SimDuration::from_secs(2),
            7,
        )
        .unwrap();
        for arrival in stream {
            let arrival = arrival.unwrap();
            gw.arrive(arrival.at, &arrival.function, Request::empty())
                .unwrap();
        }
        let report = gw.finish().unwrap();
        assert!(gw.conserved());
        (report, gw.metrics().render())
    };

    let (a, render_a) = run();
    let (b, render_b) = run();
    assert_eq!(a.admission, b.admission, "identical admission ledger");
    assert_eq!(a.replies.len(), b.replies.len());
    for (x, y) in a.replies.iter().zip(&b.replies) {
        assert_eq!(x.arrived, y.arrived);
        assert_eq!(x.completed, y.completed);
        assert_eq!(x.cold, y.cold);
    }
    assert_eq!(render_a, render_b, "bit-identical metrics text");
    assert!(
        a.admission.offered >= 300,
        "200/s over 2s should offer ~400 arrivals, got {}",
        a.admission.offered
    );
}
