//! Machine provisioning shared by experiments and the platform.
//!
//! Each cold-start trial runs on a fresh machine ([`prebake_sim::kernel::Kernel`])
//! modelling a freshly provisioned container: the runtime layer of the
//! container image is pre-pulled (warm), the function artifact is not.

use bytes::Bytes;
use prebake_sim::error::SysResult;
use prebake_sim::fs::join_path;
use prebake_sim::kernel::{Kernel, INIT_PID};
use prebake_sim::proc::Pid;

use prebake_functions::FunctionSpec;
use prebake_runtime::gen::SplitMix64;
use prebake_runtime::JlvmConfig;

/// Guest path of the runtime launcher binary.
pub const RUNTIME_BIN: &str = "/bin/jlvm";

/// Size of the runtime binary (kept small and pre-warmed: the paper's
/// EXEC phase is ≈1 ms).
pub(crate) const RUNTIME_BIN_LEN: usize = 512 << 10;

/// Installs the runtime binary and spawns the supervisor (watchdog)
/// process that starts replicas and runs CRIU. The supervisor inherits
/// init's full capability set (the paper's §5 `--privileged` /
/// `CAP_CHECKPOINT_RESTORE` requirement).
///
/// # Errors
///
/// Propagates filesystem and process errors.
pub fn provision_machine(kernel: &mut Kernel) -> SysResult<Pid> {
    kernel.fs_create_dir_all("/bin")?;
    kernel.fs_write_file(
        RUNTIME_BIN,
        SplitMix64::new(0x4A4C_564D).nonzero_bytes(RUNTIME_BIN_LEN),
    )?;
    let watchdog = kernel.sys_clone(INIT_PID)?;
    kernel.process_mut(watchdog)?.comm = "watchdog".to_owned();
    Ok(watchdog)
}

/// Models "fresh container, pre-pulled base image": evicts the page
/// cache, then re-warms the runtime binary and any snapshot images under
/// `warm_paths` (they ship in the container image and were paged in when
/// the image was pulled). The function's own artifact stays cold.
/// Absent paths are skipped: `ws.img` only exists for prefetch-recorded
/// functions.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn fresh_container(kernel: &mut Kernel, warm_paths: &[String]) -> SysResult<()> {
    kernel.drop_caches();
    kernel.fs_read_file(RUNTIME_BIN)?;
    for path in warm_paths {
        if kernel.fs_exists(path) {
            kernel.fs_read_file(path)?;
        }
    }
    Ok(())
}

/// A function deployed on a machine: artifacts installed under a
/// directory, with the port its replicas bind.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The function.
    pub spec: FunctionSpec,
    /// Directory the artifacts were installed under.
    pub app_dir: String,
    /// Port replicas bind.
    pub port: u16,
}

impl Deployment {
    /// Installs `spec` under `/app/<name>` and returns the deployment.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn install(kernel: &mut Kernel, spec: FunctionSpec, port: u16) -> SysResult<Deployment> {
        let app_dir = format!("/app/{}", spec.name());
        spec.install(kernel, &app_dir)?;
        Ok(Deployment {
            spec,
            app_dir,
            port,
        })
    }

    /// Runtime configuration for a replica of this deployment.
    pub fn jlvm_config(&self) -> JlvmConfig {
        self.spec.jlvm_config(&self.app_dir, self.port)
    }

    /// Directory where this deployment's snapshot images live.
    pub fn images_dir(&self) -> String {
        join_path(&self.app_dir, "snapshot")
    }

    /// Paths of the snapshot image files (for cache pre-warming).
    pub fn image_paths(&self) -> Vec<String> {
        use prebake_criu::ImageSet;
        let dir = self.images_dir();
        [
            ImageSet::CORE_NAME,
            ImageSet::MM_NAME,
            ImageSet::PAGEMAP_NAME,
            ImageSet::PAGES_NAME,
            ImageSet::FILES_NAME,
            ImageSet::WS_NAME,
        ]
        .iter()
        .map(|name| join_path(&dir, name))
        .collect()
    }
}

/// Copies a directory of snapshot images out of a (builder) machine so
/// they can ship inside the function's container image. Uncharged: image
/// distribution happens outside any measured start-up path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_images(kernel: &mut Kernel, dir: &str) -> SysResult<Vec<(String, Bytes)>> {
    let names = kernel.fs().list_dir(dir)?;
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let path = join_path(dir, &name);
        let (data, _) = kernel.fs_mut().read_file(&path)?;
        out.push((name, data));
    }
    Ok(out)
}

/// Installs exported snapshot images into a (replica) machine's
/// filesystem. Uncharged, same rationale as [`export_images`].
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn import_images(kernel: &mut Kernel, dir: &str, files: &[(String, Bytes)]) -> SysResult<()> {
    kernel.fs_mut().create_dir_all(dir)?;
    for (name, data) in files {
        kernel
            .fs_mut()
            .write_file(&join_path(dir, name), data.clone())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provision_creates_runtime_and_watchdog() {
        let mut k = Kernel::free(1);
        let watchdog = provision_machine(&mut k).unwrap();
        assert!(k.fs_exists(RUNTIME_BIN));
        let proc = k.process(watchdog).unwrap();
        assert_eq!(proc.comm, "watchdog");
        assert!(proc.caps.can_checkpoint());
    }

    #[test]
    fn fresh_container_warms_selected_paths() {
        let mut k = Kernel::free(2);
        provision_machine(&mut k).unwrap();
        k.fs_create_dir_all("/app").unwrap();
        k.fs_write_file("/app/fn.jlar", vec![1u8; 100]).unwrap();
        k.fs_write_file("/app/snap.img", vec![2u8; 100]).unwrap();
        fresh_container(&mut k, &["/app/snap.img".to_owned()]).unwrap();
        let mut cached = |path: &str| k.fs_mut().read_file(path).unwrap().1;
        assert!(cached(RUNTIME_BIN));
        assert!(cached("/app/snap.img"));
        assert!(!cached("/app/fn.jlar"), "jar stays cold");
    }

    #[test]
    fn deployment_install_layout() {
        let mut k = Kernel::free(3);
        let dep = Deployment::install(&mut k, FunctionSpec::noop(), 8080).unwrap();
        assert_eq!(dep.app_dir, "/app/noop");
        assert!(k.fs_exists("/app/noop/fn.jlar"));
        assert_eq!(dep.images_dir(), "/app/noop/snapshot");
        assert_eq!(dep.image_paths().len(), 6);
        assert_eq!(dep.jlvm_config().port, 8080);
    }

    #[test]
    fn image_export_import_roundtrip() {
        let mut src = Kernel::free(4);
        src.fs_create_dir_all("/snap").unwrap();
        src.fs_write_file("/snap/core.img", vec![1, 2, 3]).unwrap();
        src.fs_write_file("/snap/pages.img", vec![4; 1000]).unwrap();
        let files = export_images(&mut src, "/snap").unwrap();
        assert_eq!(files.len(), 2);

        let mut dst = Kernel::free(5);
        import_images(&mut dst, "/app/fn/snapshot", &files).unwrap();
        assert!(dst.fs_exists("/app/fn/snapshot/core.img"));
        let (data, cached) = dst
            .fs_mut()
            .read_file("/app/fn/snapshot/pages.img")
            .unwrap();
        assert_eq!(data.len(), 1000);
        assert!(cached, "imported images are page-cache resident");
    }
}
