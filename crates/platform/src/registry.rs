//! The Function Registry (SPEC-RG): metadata and deployable artifacts.
//!
//! After the Function Builder turns source into a deployable container
//! image, the image is pushed here; the Function Deployer later pulls it
//! to create replicas. For prebaked functions the image additionally
//! carries the checkpoint files (paper §5.2: "CRIU triggers the process
//! checkpoint and stores the Function Snapshot data inside the Function
//! Container Image").
//!
//! Not to be confused with the *snapshot image* registry in the
//! `prebake-registry` crate: this module stores *what* to run (function
//! specs, templates, built container images, versions), while
//! `prebake_registry::SnapshotRegistry` is the content-addressed
//! artifact tier the fleet pulls snapshot bytes from, charging network
//! latency and bandwidth per pull. The deploy path reads *this*
//! registry to pick an image; the multi-node scheduler (DESIGN.md §13)
//! pays *that* one to materialise it on a worker.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use prebake_core::SnapshotPolicy;
use prebake_criu::RestoreMode;
use prebake_functions::FunctionSpec;

/// A built, pushable container image for one function version.
#[derive(Debug, Clone)]
pub struct ContainerImage {
    /// The function it packages.
    pub spec: FunctionSpec,
    /// Template the image was built from (e.g. `java11`, `java11-criu`).
    pub template: String,
    /// Snapshot image files baked into the container image, if the
    /// template prebakes.
    pub snapshot_files: Vec<(String, Bytes)>,
    /// The snapshot policy used at build time, if any.
    pub policy: Option<SnapshotPolicy>,
    /// How replicas reinstate snapshot memory (from the build template;
    /// meaningless for plain images).
    pub restore_mode: RestoreMode,
    /// Install shards replicas restore with (from the build template;
    /// values below 2 restore serially).
    pub restore_threads: usize,
    /// Monotonic version, bumped on every push.
    pub version: u32,
}

impl ContainerImage {
    /// Returns `true` if the image carries a prebaked snapshot.
    pub fn is_prebaked(&self) -> bool {
        !self.snapshot_files.is_empty()
    }

    /// Total bytes of the baked snapshot.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_files
            .iter()
            .map(|(_, d)| d.len() as u64)
            .sum()
    }
}

#[derive(Debug, Default)]
struct Inner {
    images: BTreeMap<String, ContainerImage>,
}

/// A shared, thread-safe function registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RwLock<Inner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Pushes an image, bumping the stored version. Returns the version.
    pub fn push(&self, mut image: ContainerImage) -> u32 {
        let mut inner = self.inner.write();
        let version = inner
            .images
            .get(image.spec.name())
            .map_or(1, |old| old.version + 1);
        image.version = version;
        inner.images.insert(image.spec.name().to_owned(), image);
        version
    }

    /// Pulls the latest image for `name`.
    pub fn pull(&self, name: &str) -> Option<ContainerImage> {
        self.inner.read().images.get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(template: &str) -> ContainerImage {
        ContainerImage {
            spec: FunctionSpec::noop(),
            template: template.to_owned(),
            snapshot_files: Vec::new(),
            policy: None,
            restore_mode: RestoreMode::Eager,
            restore_threads: 1,
            version: 0,
        }
    }

    #[test]
    fn push_bumps_versions() {
        let reg = Registry::new();
        assert_eq!(reg.push(image("java11")), 1);
        assert_eq!(reg.push(image("java11")), 2);
        assert_eq!(reg.pull("noop").unwrap().version, 2);
        assert_eq!(reg.inner.read().images.len(), 1);
    }

    #[test]
    fn pull_missing_is_none() {
        let reg = Registry::new();
        assert!(reg.pull("ghost").is_none());
        assert!(reg.inner.read().images.is_empty());
    }

    #[test]
    fn prebaked_predicate() {
        let mut img = image("java11-criu");
        assert!(!img.is_prebaked());
        img.snapshot_files
            .push(("pages.img".into(), Bytes::from(vec![0u8; 100])));
        assert!(img.is_prebaked());
        assert_eq!(img.snapshot_bytes(), 100);
    }

    #[test]
    fn registry_is_shared() {
        let a = Registry::new();
        let b = a.clone();
        a.push(image("java11"));
        assert_eq!(b.inner.read().images.len(), 1, "clones share state");
    }
}
