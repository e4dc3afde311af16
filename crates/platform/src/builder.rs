//! The Function Builder (SPEC-RG) and template repository.
//!
//! Templates hide setup complexity (paper §5.2): ordinary language
//! templates package the archive into a runnable image; the CRIU
//! templates additionally boot the function during `build`, run an
//! optional warm-up script, and checkpoint the process into the image.

use prebake_core::env::{export_images, provision_machine, Deployment};
use prebake_core::prebaker::{bake, record_working_set, SnapshotPolicy};
use prebake_criu::{repack, RepackOptions, RestoreMode};
use prebake_functions::FunctionSpec;
use prebake_sim::error::SysResult;
use prebake_sim::kernel::Kernel;

use crate::registry::ContainerImage;

/// A build template from the Templates Repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Template name (`java11`, `java11-criu`, ...).
    pub name: String,
    /// Snapshot policy the build applies; `None` builds a plain image.
    pub prebake: Option<SnapshotPolicy>,
    /// How replicas of the built image reinstate snapshot memory
    /// (ignored for plain templates). Prefetch templates additionally
    /// run the working-set record pass at build time.
    pub restore: RestoreMode,
    /// Install shards replicas restore with; values below 2 take the
    /// serial path bit-for-bit.
    pub(crate) restore_threads: usize,
    /// Rewrite the baked images into recorded fault order at build time
    /// (runs a record pass first when the restore mode has none).
    pub fault_order: bool,
    /// Additionally compact never-faulted pages into the fallback layer
    /// at build time (implies the fault-order rewrite).
    pub compact: bool,
}

impl Template {
    /// A template with the default restore knobs (serial install, dump
    /// order, no compaction).
    fn base(name: String, prebake: Option<SnapshotPolicy>, restore: RestoreMode) -> Template {
        Template {
            name,
            prebake,
            restore,
            restore_threads: 1,
            fault_order: false,
            compact: false,
        }
    }

    /// The plain Java-like template.
    pub fn java11() -> Template {
        Template::base("java11".to_owned(), None, RestoreMode::Eager)
    }

    /// The CRIU template without warm-up (snapshot right after ready).
    pub fn java11_criu() -> Template {
        Template::base(
            "java11-criu".to_owned(),
            Some(SnapshotPolicy::AfterReady),
            RestoreMode::Eager,
        )
    }

    /// The CRIU template with a warm-up script of one request (the
    /// paper's PB-Warmup).
    pub fn java11_criu_warm() -> Template {
        Template::base(
            "java11-criu-warm1".to_owned(),
            Some(SnapshotPolicy::AfterWarmup(1)),
            RestoreMode::Eager,
        )
    }

    /// The lazy-restore CRIU template: the 1-warm-up snapshot restored
    /// with demand paging only (`prebake-lazy`, no prefetch).
    pub fn java11_criu_lazy() -> Template {
        Template::base(
            "java11-criu-lazy".to_owned(),
            Some(SnapshotPolicy::AfterWarmup(1)),
            RestoreMode::Lazy,
        )
    }

    /// The prefetching CRIU template: the 1-warm-up snapshot plus a
    /// build-time working-set record pass; replicas bulk-load `ws.img`
    /// and demand-fault the rest (`prebake-lazy`, REAP-style).
    pub fn java11_criu_prefetch() -> Template {
        Template::base(
            "java11-criu-prefetch".to_owned(),
            Some(SnapshotPolicy::AfterWarmup(1)),
            RestoreMode::Prefetch,
        )
    }

    /// The copy-on-write CRIU template: the 1-warm-up snapshot restored
    /// by mapping shared frames from the machine's content-addressed
    /// page store; replicas pay the page copy on first write only.
    pub(crate) fn java11_criu_cow() -> Template {
        Template::base(
            "java11-criu-cow".to_owned(),
            Some(SnapshotPolicy::AfterWarmup(1)),
            RestoreMode::Cow,
        )
    }

    /// The CoW-prefetch CRIU template: the recorded working set maps
    /// copy-on-write, residual pages demand-fault (page store + `ws.img`,
    /// both produced at build time).
    pub(crate) fn java11_criu_cow_prefetch() -> Template {
        Template::base(
            "java11-criu-cow-prefetch".to_owned(),
            Some(SnapshotPolicy::AfterWarmup(1)),
            RestoreMode::CowPrefetch,
        )
    }

    /// The parallel-restore CRIU template: the 1-warm-up snapshot
    /// restored with four install shards working disjoint extent ranges
    /// (DESIGN.md §14).
    pub(crate) fn java11_criu_parallel() -> Template {
        let mut t = Template::base(
            "java11-criu-par4".to_owned(),
            Some(SnapshotPolicy::AfterWarmup(1)),
            RestoreMode::Eager,
        );
        t.restore_threads = 4;
        t
    }

    /// The fault-order CRIU template: prefetch restore over images the
    /// build repacked into recorded fault order, so the working-set read
    /// streams sequentially instead of seeking.
    pub(crate) fn java11_criu_ordered() -> Template {
        let mut t = Template::base(
            "java11-criu-ordered".to_owned(),
            Some(SnapshotPolicy::AfterWarmup(1)),
            RestoreMode::Prefetch,
        );
        t.fault_order = true;
        t
    }

    /// The compacted CRIU template: eager restore of a hot image holding
    /// only the pages the recorded first invocation touched; the rest sit
    /// in the fallback layer behind the fault handler.
    pub(crate) fn java11_criu_compact() -> Template {
        let mut t = Template::base(
            "java11-criu-compact".to_owned(),
            Some(SnapshotPolicy::AfterWarmup(1)),
            RestoreMode::Eager,
        );
        t.fault_order = true;
        t.compact = true;
        t
    }

    /// The built-in template repository.
    pub(crate) fn repository() -> Vec<Template> {
        vec![
            Template::java11(),
            Template::java11_criu(),
            Template::java11_criu_warm(),
            Template::java11_criu_lazy(),
            Template::java11_criu_prefetch(),
            Template::java11_criu_cow(),
            Template::java11_criu_cow_prefetch(),
            Template::java11_criu_parallel(),
            Template::java11_criu_ordered(),
            Template::java11_criu_compact(),
        ]
    }

    /// Looks a template up by name.
    pub(crate) fn lookup(name: &str) -> Option<Template> {
        Template::repository().into_iter().find(|t| t.name == name)
    }
}

/// The Function Builder: turns a [`FunctionSpec`] + [`Template`] into a
/// pushable [`ContainerImage`].
#[derive(Debug, Default)]
pub struct FunctionBuilder;

impl FunctionBuilder {
    /// Builds an image. For CRIU templates this boots the function on a
    /// throwaway builder machine, optionally warms it, and checkpoints it
    /// into the image — exactly the paper's build-phase flow.
    ///
    /// # Errors
    ///
    /// Propagates build/bake errors.
    pub fn build(&self, spec: FunctionSpec, template: &Template) -> SysResult<ContainerImage> {
        let snapshot_files = match template.prebake {
            None => Vec::new(),
            Some(policy) => {
                let mut kernel = Kernel::new(0xB17D);
                let builder_proc = provision_machine(&mut kernel)?;
                let dep = Deployment::install(&mut kernel, spec.clone(), 8080)?;
                bake(&mut kernel, builder_proc, &dep, policy, &dep.images_dir())?;
                // `criu check`: validate the snapshot before it ships in
                // the image — a corrupt bake must fail the build, not a
                // production restore.
                prebake_criu::check(&mut kernel, &dep.images_dir())
                    .map_err(|_| prebake_sim::Errno::Einval)?;
                let repacks = template.fault_order || template.compact;
                if template.restore.needs_ws() || repacks {
                    // Record pass: `ws.img` ships in the image alongside
                    // the other snapshot files (and drives the repack).
                    record_working_set(&mut kernel, builder_proc, &dep, &dep.images_dir())?;
                }
                if repacks {
                    let mut opts = RepackOptions::new(dep.images_dir());
                    opts.compact = template.compact;
                    repack(&mut kernel, &opts)?;
                }
                export_images(&mut kernel, &dep.images_dir())?
            }
        };
        Ok(ContainerImage {
            spec,
            snapshot_files,
            restore_mode: template.restore,
            restore_threads: template.restore_threads,
            version: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_repository_and_lookup() {
        assert_eq!(Template::repository().len(), 10);
        assert_eq!(
            Template::lookup("java11-criu-par4")
                .unwrap()
                .restore_threads,
            4
        );
        assert_eq!(
            Template::lookup("java11-criu-ordered"),
            Some(Template::java11_criu_ordered())
        );
        assert!(Template::lookup("java11-criu-compact").unwrap().compact);
        assert_eq!(Template::lookup("java11"), Some(Template::java11()));
        assert_eq!(
            Template::lookup("java11-criu").unwrap().prebake,
            Some(SnapshotPolicy::AfterReady)
        );
        assert_eq!(
            Template::lookup("java11-criu-warm1").unwrap().prebake,
            Some(SnapshotPolicy::AfterWarmup(1))
        );
        assert_eq!(
            Template::lookup("java11-criu-lazy").unwrap().restore,
            RestoreMode::Lazy
        );
        assert_eq!(
            Template::lookup("java11-criu-prefetch").unwrap().restore,
            RestoreMode::Prefetch
        );
        assert_eq!(
            Template::lookup("java11-criu-cow").unwrap().restore,
            RestoreMode::Cow
        );
        assert_eq!(
            Template::lookup("java11-criu-cow-prefetch")
                .unwrap()
                .restore,
            RestoreMode::CowPrefetch
        );
        assert!(Template::lookup("go").is_none());
    }

    #[test]
    fn cow_builds_ship_the_page_store() {
        let cow = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu_cow())
            .unwrap();
        let names: Vec<&str> = cow.snapshot_files.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"pagestore.img"), "dedup view ships");
        assert!(
            !names.contains(&"ws.img"),
            "plain CoW skips the record pass"
        );

        // CoW-prefetch additionally records the working set.
        let cowpf = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu_cow_prefetch())
            .unwrap();
        let names: Vec<&str> = cowpf
            .snapshot_files
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&"pagestore.img"));
        assert!(names.contains(&"ws.img"));
    }

    #[test]
    fn prefetch_build_ships_the_working_set() {
        let image = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu_prefetch())
            .unwrap();
        assert_eq!(image.restore_mode, RestoreMode::Prefetch);
        let names: Vec<&str> = image
            .snapshot_files
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&"ws.img"), "record pass output ships");

        // Lazy (no prefetch) builds skip the record pass.
        let lazy = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu_lazy())
            .unwrap();
        assert!(!lazy.snapshot_files.iter().any(|(n, _)| n == "ws.img"));
    }

    #[test]
    fn ordered_and_compact_builds_repack_at_build_time() {
        // The ordered template records a ws and rewrites the layout; all
        // pages stay in the hot image.
        let ordered = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu_ordered())
            .unwrap();
        let names: Vec<&str> = ordered
            .snapshot_files
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&"ws.img"), "repack needs the record pass");
        assert!(!names.contains(&"fallback-pages.img"));

        // The compact template additionally splits off the fallback
        // layer, and its hot pages.img shrinks against the plain warm
        // build.
        let warm = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu_warm())
            .unwrap();
        let compact = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu_compact())
            .unwrap();
        let pages_len = |img: &ContainerImage| {
            img.snapshot_files
                .iter()
                .find(|(n, _)| n == "pages.img")
                .map(|(_, d)| d.len())
                .unwrap()
        };
        assert!(compact
            .snapshot_files
            .iter()
            .any(|(n, _)| n == "fallback-pages.img"));
        assert!(
            pages_len(&compact) < pages_len(&warm),
            "compaction shrinks the hot image: {} !< {}",
            pages_len(&compact),
            pages_len(&warm)
        );

        // The parallel template changes no image bytes, only the restore
        // fan-out the replicas run with.
        let par = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu_parallel())
            .unwrap();
        assert_eq!(par.restore_threads, 4);
        assert_eq!(pages_len(&par), pages_len(&warm));
    }

    #[test]
    fn plain_build_has_no_snapshot() {
        let image = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11())
            .unwrap();
        assert!(!image.is_prebaked());
    }

    #[test]
    fn criu_build_bakes_snapshot_into_image() {
        let image = FunctionBuilder
            .build(FunctionSpec::noop(), &Template::java11_criu())
            .unwrap();
        assert!(image.is_prebaked());
        assert!(
            image.snapshot_bytes() > 10_000_000,
            "NOOP snapshot ≈13MB, got {}",
            image.snapshot_bytes()
        );
        let names: Vec<&str> = image
            .snapshot_files
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&"pages.img"));
        assert!(names.contains(&"core.img"));
    }

    #[test]
    fn warm_build_is_larger() {
        let cold = FunctionBuilder
            .build(
                FunctionSpec::synthetic(prebake_functions::SyntheticSize::Small),
                &Template::java11_criu(),
            )
            .unwrap();
        let warm = FunctionBuilder
            .build(
                FunctionSpec::synthetic(prebake_functions::SyntheticSize::Small),
                &Template::java11_criu_warm(),
            )
            .unwrap();
        assert!(warm.snapshot_bytes() > cold.snapshot_bytes());
    }
}
