//! # prebake-runtime
//!
//! "JLVM" — a managed-runtime model in the spirit of the paper's JVM 1.8,
//! running on the [`prebake-sim`](prebake_sim) substrate.
//!
//! The paper's core observation is that runtime start-up (RTS ≈ 70 ms) and
//! application initialisation — class loading, verification and lazy JIT
//! compilation — dominate serverless cold starts, and that a CRIU snapshot
//! taken at the right lifecycle point removes them. For that observation
//! to be *reproduced* rather than merely asserted, this runtime does real
//! work over real state:
//!
//! - [`classfile`] — a binary class format with an actual parser and a
//!   structural bytecode verifier (stack discipline, jump targets, pool
//!   indices)
//! - [`gen`] — a deterministic generator of verifier-clean classes of
//!   controlled size (the paper's synthetic functions)
//! - [`archive`] — the JLAR deployable artifact
//! - [`jvm`] — the runtime itself: RTS bootstrap touching a ≈13 MB base
//!   footprint, a memory-mapped archive, lazy class loading into a
//!   metaspace, a lazy JIT writing a code cache, and request serving
//! - [`state`] — the in-guest state record that snapshots carry; restored
//!   replicas rebuild themselves *only* from these bytes
//! - [`http`] — request/response shapes
//! - [`costs`] — the runtime cost table calibrated to the paper's Table 1
//!
//! ## Example
//!
//! ```
//! use prebake_runtime::archive::Archive;
//! use prebake_runtime::gen::synth_class_set;
//! use prebake_runtime::http::{Request, Response};
//! use prebake_runtime::jvm::{Ctx, Handler, JlvmConfig, Replica};
//! use prebake_sim::kernel::{Kernel, INIT_PID};
//! use prebake_sim::error::SysResult;
//!
//! struct Echo;
//! impl Handler for Echo {
//!     fn name(&self) -> &str { "echo" }
//!     fn init(&mut self, _ctx: &mut Ctx<'_>) -> SysResult<()> { Ok(()) }
//!     fn handle(&mut self, _ctx: &mut Ctx<'_>, req: &Request) -> SysResult<Response> {
//!         Ok(Response::ok(req.body.clone()))
//!     }
//! }
//!
//! let mut kernel = Kernel::new(1);
//! let archive = Archive::from_classes(&synth_class_set("echo", 1, 4, 16_000));
//! kernel.fs_create_dir_all("/app").unwrap();
//! kernel.fs_write_file("/app/echo.jlar", archive.encode()).unwrap();
//!
//! let pid = kernel.sys_clone(INIT_PID).unwrap();
//! let mut replica = Replica::boot(
//!     &mut kernel, pid, JlvmConfig::new("/app/echo.jlar", 8080), Box::new(Echo),
//! ).unwrap();
//! let resp = replica.handle(&mut kernel, &Request::with_body(&b"hi"[..])).unwrap();
//! assert_eq!(&resp.body[..], b"hi");
//! ```

#![warn(missing_docs)]

pub mod archive;
pub mod classfile;
pub mod costs;
pub mod gen;
pub mod http;
pub mod jvm;
pub mod profile;
pub mod state;

pub use jvm::{Ctx, Handler, Jlvm, JlvmConfig, Replica};
pub use profile::RuntimeProfile;
