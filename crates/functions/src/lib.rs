//! # prebake-functions
//!
//! The paper's workload functions, implemented as real programs over the
//! JLVM runtime:
//!
//! - **NOOP** — returns success to every request (the paper's lower bound
//!   for prebaking gains: ≈40 %).
//! - **Markdown Render** — converts a Markdown document into an HTML page
//!   with a from-scratch [`markdown`] renderer (paper: ≈47 % gain).
//! - **Image Resizer** — decodes a ~1 MB 3440×1440 source into ≈86 MB of
//!   guest buffers at start-up and box-filters it to 10 % per request
//!   ([`image`]; paper: ≈71 % gain, 99.2 MB snapshot).
//! - **Synthetic functions** — small/medium/big class sets (374/574/1574
//!   classes, 2.8/9.2/41 MB) loaded lazily on the first invocation, for
//!   the paper's sensitivity analysis (Fig. 5/6, Table 1).
//!
//! [`FunctionSpec`] packages each one into a deployable unit the platform
//! and benches consume.

#![warn(missing_docs)]

pub mod handlers;
pub mod image;
pub mod markdown;
pub mod spec;

pub use spec::{sample_markdown, FunctionSpec, SyntheticSize};
