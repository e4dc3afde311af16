//! The OpenFaaS-style integration surface (paper §5).
//!
//! Reproduces the feasibility story end to end: a `faas-cli` with the
//! four operations the paper lists (`new`, `build`, `push`, `deploy`),
//! a template repository including the CRIU templates, a gateway that
//! fronts the platform, and the privileged-restore requirement (CRIU
//! templates need the provider to grant `CAP_CHECKPOINT_RESTORE`, the
//! paper's `docker run --privileged`).

use prebake_functions::FunctionSpec;
use prebake_runtime::http::Request;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::time::SimInstant;

use crate::builder::{FunctionBuilder, Template};
use crate::platform::{Platform, PlatformConfig};
use crate::registry::{ContainerImage, Registry};

/// A function project created by `faas-cli new`: the source the
/// developer edits plus the chosen template.
#[derive(Debug, Clone)]
pub struct FunctionProject {
    /// The function's business logic and resources.
    pub spec: FunctionSpec,
    /// The template the project was created from.
    pub template: Template,
}

/// Errors surfaced by the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaasError {
    /// Unknown template name.
    UnknownTemplate(String),
    /// The function is not registered/deployed.
    UnknownFunction(String),
    /// CRIU templates require privileged deployment and the provider
    /// configuration does not allow it.
    PrivilegeRequired(String),
    /// Underlying platform error.
    Sys(Errno),
}

impl std::fmt::Display for FaasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaasError::UnknownTemplate(t) => write!(f, "unknown template {t}"),
            FaasError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            FaasError::PrivilegeRequired(n) => write!(
                f,
                "function {n} uses a CRIU template; enable privileged deployments"
            ),
            FaasError::Sys(e) => write!(f, "platform error: {e}"),
        }
    }
}

impl std::error::Error for FaasError {}

impl From<Errno> for FaasError {
    fn from(e: Errno) -> Self {
        FaasError::Sys(e)
    }
}

/// Provider configuration: which container backend runs replicas and
/// whether privileged (CRIU-capable) deployments are allowed.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// Backend label (`kubernetes`, `docker-swarm`) — informational, as
    /// in the paper's FaaS-Provider indirection.
    pub backend: String,
    /// Whether CRIU templates may deploy (models `--privileged` /
    /// granting `CAP_CHECKPOINT_RESTORE`).
    pub allow_privileged: bool,
}

impl Default for ProviderConfig {
    fn default() -> Self {
        ProviderConfig {
            backend: "kubernetes".to_owned(),
            allow_privileged: true,
        }
    }
}

/// The OpenFaaS-style gateway: CLI operations + request ingress over one
/// [`Platform`].
#[derive(Debug)]
pub struct FaasGateway {
    registry: Registry,
    platform: Platform,
    provider: ProviderConfig,
    builder: FunctionBuilder,
}

impl FaasGateway {
    /// Creates a gateway with the given platform and provider settings.
    pub fn new(config: PlatformConfig, provider: ProviderConfig) -> FaasGateway {
        let registry = Registry::new();
        FaasGateway {
            platform: Platform::new(config, registry.clone()),
            registry,
            provider,
            builder: FunctionBuilder,
        }
    }

    /// `faas-cli new`: creates a project from a template.
    ///
    /// # Errors
    ///
    /// [`FaasError::UnknownTemplate`] if the template does not exist.
    pub fn new_project(
        &self,
        spec: FunctionSpec,
        template_name: &str,
    ) -> Result<FunctionProject, FaasError> {
        let template = Template::lookup(template_name)
            .ok_or_else(|| FaasError::UnknownTemplate(template_name.to_owned()))?;
        Ok(FunctionProject { spec, template })
    }

    /// `faas-cli build`: transforms the project into a container image.
    /// CRIU templates boot + (optionally) warm + checkpoint the function
    /// here, at build time.
    ///
    /// # Errors
    ///
    /// Propagates build errors.
    pub fn build(&self, project: &FunctionProject) -> Result<ContainerImage, FaasError> {
        Ok(self
            .builder
            .build(project.spec.clone(), &project.template)?)
    }

    /// `faas-cli push`: stores the image in the Function Registry.
    pub fn push(&self, image: ContainerImage) -> u32 {
        self.registry.push(image)
    }

    /// `faas-cli deploy`: makes the function routable. Enforces the
    /// privileged-deployment requirement for prebaked images.
    ///
    /// # Errors
    ///
    /// [`FaasError::UnknownFunction`] if never pushed;
    /// [`FaasError::PrivilegeRequired`] if the image is prebaked and the
    /// provider forbids privileged containers.
    pub fn deploy(&mut self, name: &str) -> Result<(), FaasError> {
        let image = self
            .registry
            .pull(name)
            .ok_or_else(|| FaasError::UnknownFunction(name.to_owned()))?;
        if image.is_prebaked() && !self.provider.allow_privileged {
            return Err(FaasError::PrivilegeRequired(name.to_owned()));
        }
        self.platform.deploy_function(name)?;
        Ok(())
    }

    /// Invokes a function through the gateway at time `at`.
    ///
    /// # Errors
    ///
    /// Propagates routing errors.
    pub fn invoke_at(
        &mut self,
        at: SimInstant,
        name: &str,
        req: Request,
    ) -> Result<u64, FaasError> {
        Ok(self.platform.submit(at, name, req)?)
    }

    /// Drives the platform until quiescence.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run(&mut self) -> SysResult<()> {
        self.platform.run()
    }

    /// One-shot convenience: invoke now, run to quiescence, return the
    /// last completion's latency in milliseconds.
    ///
    /// # Errors
    ///
    /// Propagates routing/platform errors.
    pub fn invoke_and_wait(&mut self, name: &str, req: Request) -> Result<f64, FaasError> {
        let at = self.platform.now();
        self.invoke_at(at, name, req)?;
        self.platform.run()?;
        Ok(self
            .platform
            .completed()
            .last()
            .map(CompletedLatency::latency_ms_of)
            .unwrap_or(0.0))
    }

    /// The underlying platform (metrics, completions, time).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Mutable platform access (for load generators).
    pub fn platform_mut(&mut self) -> &mut Platform {
        &mut self.platform
    }

    /// The function registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// Helper trait alias to keep `invoke_and_wait` readable.
trait CompletedLatency {
    fn latency_ms_of(&self) -> f64;
}

impl CompletedLatency for crate::platform::CompletedRequest {
    fn latency_ms_of(&self) -> f64 {
        self.latency_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gateway(allow_privileged: bool) -> FaasGateway {
        FaasGateway::new(
            PlatformConfig::default(),
            ProviderConfig {
                backend: "kubernetes".into(),
                allow_privileged,
            },
        )
    }

    #[test]
    fn full_cli_flow_plain_template() {
        let mut gw = gateway(true);
        let project = gw.new_project(FunctionSpec::noop(), "java11").unwrap();
        let image = gw.build(&project).unwrap();
        assert!(!image.is_prebaked());
        assert_eq!(gw.push(image), 1);
        gw.deploy("noop").unwrap();
        let latency = gw.invoke_and_wait("noop", Request::empty()).unwrap();
        assert!(latency > 50.0, "cold vanilla start, got {latency}ms");
    }

    #[test]
    fn full_cli_flow_criu_template() {
        let mut gw = gateway(true);
        let project = gw
            .new_project(FunctionSpec::noop(), "java11-criu-warm1")
            .unwrap();
        let image = gw.build(&project).unwrap();
        assert!(image.is_prebaked());
        gw.push(image);
        gw.deploy("noop").unwrap();
        let latency = gw.invoke_and_wait("noop", Request::empty()).unwrap();
        assert!(
            latency < 90.0,
            "prebaked cold start must be fast, got {latency}ms"
        );
    }

    #[test]
    fn unknown_template_rejected() {
        let gw = gateway(true);
        assert_eq!(
            gw.new_project(FunctionSpec::noop(), "node18").unwrap_err(),
            FaasError::UnknownTemplate("node18".into())
        );
    }

    #[test]
    fn deploy_requires_push() {
        let mut gw = gateway(true);
        assert_eq!(
            gw.deploy("noop").unwrap_err(),
            FaasError::UnknownFunction("noop".into())
        );
    }

    #[test]
    fn privileged_requirement_enforced() {
        let mut gw = gateway(false);
        let project = gw.new_project(FunctionSpec::noop(), "java11-criu").unwrap();
        let image = gw.build(&project).unwrap();
        gw.push(image);
        assert_eq!(
            gw.deploy("noop").unwrap_err(),
            FaasError::PrivilegeRequired("noop".into())
        );
        // plain templates still deploy fine
        let project = gw.new_project(FunctionSpec::noop(), "java11").unwrap();
        let image = gw.build(&project).unwrap();
        gw.push(image);
        gw.deploy("noop").unwrap();
    }

    #[test]
    fn error_display() {
        for e in [
            FaasError::UnknownTemplate("x".into()),
            FaasError::UnknownFunction("y".into()),
            FaasError::PrivilegeRequired("z".into()),
            FaasError::Sys(Errno::Enoent),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
