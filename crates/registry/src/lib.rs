//! Snapshot registry tier: content-addressed image distribution with
//! per-node pull-through caches.
//!
//! The paper stores function snapshots inside the container image and
//! assumes they are local at restore time. At production scale the
//! dominant cold-start cost shifts to *getting the image to the node*:
//! vHive-style measurements show remote snapshot fetch dwarfing restore,
//! and HotSwap motivates sharing image bytes across functions and
//! nodes. This crate models that tier deterministically over the
//! virtual clock:
//!
//! - [`ImageManifest`] — one image as the registry stores it: unique
//!   page-frame content hashes (the same XXH64 `page_content_hash` keys
//!   `pagestore.img` uses) plus non-page metadata bytes.
//! - [`SnapshotRegistry`] — published manifests, a
//!   [`RegistryCost`] network model (round-trip latency + per-byte
//!   bandwidth), and fleet-wide egress/dedup accounting.
//! - [`NodeCache`] — one node's pull-through cache. Admission is
//!   frame-granular under [`PullMode::DedupPullThrough`]: frames any
//!   resident image already holds are never re-fetched, so
//!   cross-function dedup translates directly into egress savings.
//!   Accounting mirrors the dedup-aware charging of
//!   [`prebake_criu::cache::ImageCache`] (each distinct frame charged
//!   once node-wide).
//!
//! **Naming note:** this crate is the *snapshot image distribution*
//! registry — where image **bytes** live and what pulling them costs.
//! It is distinct from [`prebake_platform::registry`]
//! (`crates/platform/src/registry.rs`), the SPEC-RG *function registry*
//! that tracks build **metadata** (specs, templates, versions) for the
//! deploy pipeline. The fleet scheduler (`prebake-fleet`) consumes this
//! crate for placement-time pulls; the platform consumes the function
//! registry at build/deploy time.
//!
//! [`prebake_platform::registry`]: ../prebake_platform/registry/index.html

#![warn(missing_docs)]

pub mod cache;
pub mod manifest;
pub mod registry;

pub use cache::{NodeCache, PullMode, PullStats};
pub use manifest::ImageManifest;
pub use registry::{PullReceipt, RegistryCost, RegistryError, SnapshotRegistry};
