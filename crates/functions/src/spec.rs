//! Deployable function specifications.
//!
//! A [`FunctionSpec`] bundles everything the platform's Function Builder
//! needs: the class archive, auxiliary resources, runtime configuration
//! and a handler factory. The four constructors mirror the paper's
//! workloads.

use prebake_runtime::archive::Archive;
use prebake_runtime::gen::{synth_class, synth_class_set};
use prebake_runtime::jvm::{Handler, JlvmConfig};
use prebake_runtime::profile::RuntimeProfile;
use prebake_sim::error::SysResult;
use prebake_sim::fs::join_path;
use prebake_sim::kernel::Kernel;

use crate::handlers::{ImageResizerHandler, MarkdownHandler, NoopHandler, SyntheticHandler};
use crate::image::CompressedImage;

/// The paper's synthetic-function sizes (§4.2.2): class count and total
/// archive bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyntheticSize {
    /// 374 classes, ≈2.8 MB.
    Small,
    /// 574 classes, ≈9.2 MB.
    Medium,
    /// 1574 classes, ≈41 MB.
    Big,
}

impl SyntheticSize {
    /// Number of classes.
    pub fn class_count(self) -> usize {
        match self {
            SyntheticSize::Small => 374,
            SyntheticSize::Medium => 574,
            SyntheticSize::Big => 1574,
        }
    }

    /// Target total archive bytes.
    pub(crate) fn total_bytes(self) -> usize {
        match self {
            SyntheticSize::Small => 2_800_000,
            SyntheticSize::Medium => 9_200_000,
            SyntheticSize::Big => 41_000_000,
        }
    }

    /// Label used in reports ("small"/"medium"/"big").
    pub fn label(self) -> &'static str {
        match self {
            SyntheticSize::Small => "small",
            SyntheticSize::Medium => "medium",
            SyntheticSize::Big => "big",
        }
    }

    /// All three sizes in the paper's order.
    pub fn all() -> [SyntheticSize; 3] {
        [
            SyntheticSize::Small,
            SyntheticSize::Medium,
            SyntheticSize::Big,
        ]
    }
}

#[derive(Debug, Clone)]
enum Kind {
    Noop,
    Markdown,
    ImageResizer,
    Synthetic,
}

/// A ~6 KB Markdown document in the shape of the project README the
/// paper embeds in each Markdown Render request.
pub fn sample_markdown() -> String {
    let mut doc = String::with_capacity(6500);
    doc.push_str("# OpenCore Processor Framework\n\n");
    doc.push_str(
        "An **open-source** research framework for building manycore \
         processors, with [documentation](https://example.org/docs) and a \
         *modular* verification flow.\n\n",
    );
    doc.push_str("## Quick start\n\n```sh\nmake build\nmake test\nmake fpga\n```\n\n");
    doc.push_str("> Tested on the reference configurations only.\n\n---\n\n");
    for section in 1..=10 {
        doc.push_str(&format!("## Subsystem {section}\n\n"));
        doc.push_str(&format!(
            "The subsystem {section} integrates with the **crossbar** and \
             exposes `cfg_reg_{section}` for tuning. It participates in the \
             coherence protocol, forwards *uncacheable* accesses to the \
             memory controller, and reports occupancy counters through the \
             [telemetry bus](https://example.org/telemetry). Typical flows:\n\n",
        ));
        doc.push_str("1. elaborate the design\n2. run the *unit* suite\n3. synthesize\n4. inspect the timing report\n\n");
        doc.push_str(
            "Key properties:\n\n- deterministic resets\n- `O(n log n)` routing\n\
             - validated against the golden model\n- **zero** combinational loops\n\n",
        );
        doc.push_str(&format!(
            "```verilog\nmodule sub{section}(input clk, input rst, output [63:0] out);\n\
             // behavioural stub for documentation purposes\n\
             reg [63:0] counter_q;\n\
             always @(posedge clk) counter_q <= rst ? 64'd0 : counter_q + 64'd{section};\n\
             assign out = counter_q;\nendmodule\n```\n\n",
        ));
        doc.push_str(&format!(
            "> Errata {section}: see the **known issues** list before taping out.\n\n",
        ));
    }
    doc.push_str(
        "## License\n\nReleased under a **permissive** license; see [LICENSE](LICENSE).\n",
    );
    doc
}

/// A deployable function: archive + resources + runtime configuration +
/// handler factory.
#[derive(Debug, Clone)]
pub struct FunctionSpec {
    name: String,
    archive: Archive,
    resources: Vec<(String, Vec<u8>)>,
    lazy_link: bool,
    kind: Kind,
    class_names: Vec<String>,
    runtime: RuntimeProfile,
}

impl FunctionSpec {
    /// The paper's NOOP function.
    pub fn noop() -> FunctionSpec {
        let classes = vec![
            synth_class("noop.Main", 0xA0, 4_000),
            synth_class("noop.Http", 0xA1, 5_000),
        ];
        FunctionSpec {
            name: "noop".into(),
            class_names: classes.iter().map(|c| c.name.clone()).collect(),
            archive: Archive::from_classes(&classes),
            resources: Vec::new(),
            lazy_link: false,
            kind: Kind::Noop,
            runtime: RuntimeProfile::JavaLike,
        }
    }

    /// The paper's Markdown Render function (≈600 KB of library classes).
    pub fn markdown() -> FunctionSpec {
        let mut classes = synth_class_set("md.lib", 0xB0, 12, 580_000);
        classes.push(synth_class("md.Main", 0xB1, 6_000));
        FunctionSpec {
            name: "markdown-render".into(),
            class_names: classes.iter().map(|c| c.name.clone()).collect(),
            archive: Archive::from_classes(&classes),
            resources: Vec::new(),
            lazy_link: false,
            kind: Kind::Markdown,
            runtime: RuntimeProfile::JavaLike,
        }
    }

    /// The paper's Image Resizer: small archive plus the ~1 MB compressed
    /// 3440×1440 source image.
    pub fn image_resizer() -> FunctionSpec {
        let mut classes = synth_class_set("img.lib", 0xC0, 3, 42_000);
        classes.push(synth_class("img.Main", 0xC1, 8_000));
        FunctionSpec {
            name: "image-resizer".into(),
            class_names: classes.iter().map(|c| c.name.clone()).collect(),
            archive: Archive::from_classes(&classes),
            resources: vec![(
                "source.pbic".to_owned(),
                CompressedImage::paper_source(0xD5).encode(),
            )],
            lazy_link: false,
            kind: Kind::ImageResizer,
            runtime: RuntimeProfile::JavaLike,
        }
    }

    /// A synthetic function of the given size (classes load on first
    /// invocation; linking is lazy).
    pub fn synthetic(size: SyntheticSize) -> FunctionSpec {
        let name = format!("synthetic-{}", size.label());
        let classes = synth_class_set(
            &format!("synth.{}", size.label()),
            0xE0 ^ size.class_count() as u64,
            size.class_count(),
            size.total_bytes(),
        );
        FunctionSpec {
            class_names: classes.iter().map(|c| c.name.clone()).collect(),
            archive: Archive::from_classes(&classes),
            resources: Vec::new(),
            lazy_link: true,
            kind: Kind::Synthetic,
            runtime: RuntimeProfile::JavaLike,
            name,
        }
    }

    /// Function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The class archive.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// Re-targets the function at a different runtime flavour (the §7
    /// future-work exploration: Node.JS- and Python-like runtimes).
    pub fn with_runtime(mut self, runtime: RuntimeProfile) -> FunctionSpec {
        self.runtime = runtime;
        self
    }

    /// The runtime flavour this function starts on.
    pub fn runtime(&self) -> RuntimeProfile {
        self.runtime
    }

    /// Renames the function (deploying many copies of one workload under
    /// distinct names, e.g. for multi-tenant platform experiments).
    pub fn with_name(mut self, name: impl Into<String>) -> FunctionSpec {
        self.name = name.into();
        self
    }

    /// Installs the function's artifacts under `app_dir` on a guest
    /// filesystem: `fn.jlar` plus `assets/*`. Returns the archive path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn install(&self, kernel: &mut Kernel, app_dir: &str) -> SysResult<String> {
        kernel.fs_create_dir_all(app_dir)?;
        let archive_path = join_path(app_dir, "fn.jlar");
        kernel.fs_write_file(&archive_path, self.archive.encode())?;
        if !self.resources.is_empty() {
            let assets = join_path(app_dir, "assets");
            kernel.fs_create_dir_all(&assets)?;
            for (name, data) in &self.resources {
                kernel.fs_write_file(&join_path(&assets, name), data.clone())?;
            }
        }
        Ok(archive_path)
    }

    /// Builds the runtime configuration for a replica of this function.
    pub fn jlvm_config(&self, app_dir: &str, port: u16) -> JlvmConfig {
        let mut config = JlvmConfig::new(join_path(app_dir, "fn.jlar"), port);
        config.lazy_link = self.lazy_link;
        config.costs = self.runtime.costs();
        config
    }

    /// Instantiates the handler for a replica living under `app_dir`.
    pub fn make_handler(&self, app_dir: &str) -> Box<dyn Handler> {
        match &self.kind {
            Kind::Noop => Box::new(NoopHandler::new(self.class_names.clone())),
            Kind::Markdown => Box::new(MarkdownHandler::new(self.class_names.clone())),
            Kind::ImageResizer => Box::new(ImageResizerHandler::new(
                self.class_names.clone(),
                join_path(&join_path(app_dir, "assets"), "source.pbic"),
            )),
            Kind::Synthetic => Box::new(SyntheticHandler::new(
                self.name.clone(),
                self.class_names.clone(),
            )),
        }
    }

    /// A representative request for this function (the paper embeds a
    /// markdown document in Markdown Render requests; others ping `/`).
    pub fn sample_request(&self) -> prebake_runtime::http::Request {
        match self.kind {
            Kind::Markdown => {
                prebake_runtime::http::Request::with_body(sample_markdown().into_bytes())
            }
            _ => prebake_runtime::http::Request::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sizes_match_paper() {
        assert_eq!(SyntheticSize::Small.class_count(), 374);
        assert_eq!(SyntheticSize::Medium.class_count(), 574);
        assert_eq!(SyntheticSize::Big.class_count(), 1574);
        assert_eq!(SyntheticSize::all().len(), 3);
    }

    #[test]
    fn small_synthetic_archive_close_to_2_8mb() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let bytes = spec.archive().payload_bytes() as f64;
        let ratio = bytes / 2_800_000.0;
        assert!((0.85..1.15).contains(&ratio), "archive {bytes} bytes");
        assert_eq!(spec.class_names.len(), 374);
        assert!(spec.lazy_link);
    }

    #[test]
    fn noop_is_tiny() {
        let spec = FunctionSpec::noop();
        assert!(spec.archive().payload_bytes() < 32_000);
        assert!(!spec.lazy_link);
        assert_eq!(spec.name(), "noop");
    }

    #[test]
    fn markdown_archive_about_600kb() {
        let spec = FunctionSpec::markdown();
        let bytes = spec.archive().payload_bytes();
        assert!((450_000..750_000).contains(&bytes), "{bytes}");
    }

    #[test]
    fn image_resizer_ships_1mb_source() {
        let spec = FunctionSpec::image_resizer();
        let (name, data) = &spec.resources[0];
        assert_eq!(name, "source.pbic");
        assert!(
            (1_000_000..1_100_000).contains(&data.len()),
            "{}",
            data.len()
        );
    }

    #[test]
    fn install_writes_artifacts() {
        let mut kernel = Kernel::free(1);
        let spec = FunctionSpec::image_resizer();
        let archive_path = spec.install(&mut kernel, "/app/image-resizer").unwrap();
        assert_eq!(archive_path, "/app/image-resizer/fn.jlar");
        assert!(kernel.fs_exists("/app/image-resizer/fn.jlar"));
        assert!(kernel.fs_exists("/app/image-resizer/assets/source.pbic"));
    }

    #[test]
    fn jlvm_config_carries_lazy_link() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let config = spec.jlvm_config("/app/s", 8080);
        assert!(config.lazy_link);
        assert_eq!(config.archive_path, "/app/s/fn.jlar");
        assert_eq!(config.port, 8080);
    }

    #[test]
    fn sample_markdown_is_a_realistic_document() {
        let doc = sample_markdown();
        assert!(doc.len() > 4_000, "doc is {} bytes", doc.len());
        assert!(doc.contains("# OpenCore"));
        assert!(doc.contains("```"));
        let html = crate::markdown::render(&doc);
        assert!(html.contains("<h1>"));
        assert!(html.contains("<pre><code"));
    }

    #[test]
    fn sample_request_shapes() {
        assert!(FunctionSpec::noop().sample_request().body.is_empty());
        assert!(!FunctionSpec::markdown().sample_request().body.is_empty());
    }

    #[test]
    fn make_handler_names_match() {
        let noop = FunctionSpec::noop();
        assert_eq!(noop.make_handler("/app/noop").name(), "noop");
        let synth = FunctionSpec::synthetic(SyntheticSize::Medium);
        assert_eq!(synth.make_handler("/app/s").name(), "synthetic-medium");
    }
}
