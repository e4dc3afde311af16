//! The paper's §5 feasibility study: integrating prebaking with an
//! OpenFaaS-style platform.
//!
//! Walks the exact CLI flow the paper lists — `faas-cli new` from a CRIU
//! template, `build` (which boots, warms and checkpoints the function
//! into the container image), `push`, `deploy` (requiring privileged
//! restore), then compares gateway-observed cold starts against the same
//! function deployed from the plain template.
//!
//! Run with: `cargo run --release --example openfaas_integration`

use prebake_functions::FunctionSpec;
use prebake_platform::openfaas::{FaasGateway, ProviderConfig};
use prebake_platform::platform::PlatformConfig;

fn main() {
    // --- plain template ------------------------------------------------
    let mut plain = FaasGateway::new(PlatformConfig::default(), ProviderConfig::default());
    let project = plain
        .new_project(FunctionSpec::markdown(), "java11")
        .expect("faas-cli new");
    let image = plain.build(&project).expect("faas-cli build");
    println!(
        "[java11]          built image (prebaked: {})",
        image.is_prebaked()
    );
    plain.push(image);
    plain.deploy("markdown-render").expect("faas-cli deploy");
    let request = FunctionSpec::markdown().sample_request();
    let cold_plain = plain
        .invoke_and_wait("markdown-render", request.clone())
        .expect("invoke");
    println!("[java11]          cold start via gateway: {cold_plain:.2} ms");

    // --- CRIU template ---------------------------------------------------
    let mut criu = FaasGateway::new(PlatformConfig::default(), ProviderConfig::default());
    let project = criu
        .new_project(FunctionSpec::markdown(), "java11-criu-warm1")
        .expect("faas-cli new");
    let image = criu
        .build(&project)
        .expect("faas-cli build (bakes snapshot)");
    println!(
        "[java11-criu]     built image (prebaked: {}, snapshot {:.1} MB)",
        image.is_prebaked(),
        image.snapshot_bytes() as f64 / 1e6
    );
    criu.push(image);
    criu.deploy("markdown-render").expect("faas-cli deploy");
    let cold_criu = criu
        .invoke_and_wait("markdown-render", request.clone())
        .expect("invoke");
    println!("[java11-criu]     cold start via gateway: {cold_criu:.2} ms");

    // --- privileged requirement -----------------------------------------
    let mut locked_down = FaasGateway::new(
        PlatformConfig::default(),
        ProviderConfig {
            allow_privileged: false,
        },
    );
    let project = locked_down
        .new_project(FunctionSpec::markdown(), "java11-criu")
        .expect("faas-cli new");
    let image = locked_down.build(&project).expect("faas-cli build");
    locked_down.push(image);
    match locked_down.deploy("markdown-render") {
        Err(e) => println!("[locked-down]     deploy refused as expected: {e}"),
        Ok(()) => panic!("privileged restore must be refused when disallowed"),
    }

    // --- warm traffic ------------------------------------------------------
    let warm = criu
        .invoke_and_wait("markdown-render", request)
        .expect("invoke warm");
    println!("[java11-criu]     warm request          : {warm:.2} ms");
    println!("{}", criu.platform().metrics().render());

    let improvement = (cold_plain - cold_criu) / cold_plain * 100.0;
    println!(
        "prebaking cut the gateway-observed cold start by {improvement:.0}% \
         (paper reports 47% for Markdown Render)"
    );
}
