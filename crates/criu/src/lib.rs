//! # prebake-criu
//!
//! Checkpoint/Restore In Userspace over the [`prebake-sim`](prebake_sim)
//! kernel — the mechanism at the heart of *"Prebaking Functions to Warm
//! the Serverless Cold Start"*.
//!
//! The implementation follows the pipeline the paper describes in §3.2:
//!
//! 1. **Freeze** — `PTRACE_SEIZE` + interrupt of every target thread;
//! 2. **Parasite injection** — a blob mapped and poked into the target's
//!    address space performs the memory reads "from inside";
//! 3. **Pagemap walk** — `/proc/<pid>/pagemap` reveals resident pages;
//!    all-zero pages are deduplicated (never stored);
//! 4. **Page transfer** — page contents stream through a pipe to the
//!    dumper, which writes checksummed image files (`core.img`, `mm.img`,
//!    `pagemap.img`, `pages.img`, `files.img`);
//! 5. **Cure** — the parasite unmaps itself and the target resumes (or is
//!    killed, as the prebaking builder does);
//! 6. **Restore** — a privileged process re-creates the task: mappings at
//!    their dumped addresses, page contents, descriptors (listeners
//!    re-bound), registers, then resumes it.
//!
//! Restore honours the `CAP_CHECKPOINT_RESTORE` capability model the
//! paper highlights, and [`cache::ImageCache`] implements the §7
//! future-work in-memory restore optimisation.
//!
//! ## Example
//!
//! ```
//! use prebake_criu::{dump, restore, DumpOptions, RestoreOptions};
//! use prebake_sim::kernel::{Kernel, INIT_PID};
//! use prebake_sim::mem::{Prot, VmaKind};
//!
//! let mut k = Kernel::new(11);
//! let worker = k.sys_clone(INIT_PID).unwrap();
//! let addr = k.sys_mmap(worker, 1 << 16, Prot::RW, VmaKind::RuntimeHeap).unwrap();
//! k.mem_write(worker, addr, b"warm state worth keeping").unwrap();
//!
//! dump(&mut k, INIT_PID, &DumpOptions::new(worker, "/snapshots/fn")).unwrap();
//! let restored = restore(&mut k, INIT_PID, &RestoreOptions::new("/snapshots/fn")).unwrap();
//! let bytes = k.mem_read(restored.pid, addr, 24).unwrap();
//! assert_eq!(&bytes, b"warm state worth keeping");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod check;
mod costs;
pub mod dump;
pub mod image;
pub mod restore;

pub use cache::ImageCache;
pub use check::check;
pub use dump::{
    dump, pre_dump, read_images, read_images_lazy, repack, DumpOptions, DumpStats, RepackOptions,
    RepackStats,
};
pub use image::{page_content_hash, ImageSet, WsImage};
pub use restore::{restore, restore_set, RestoreMode, RestoreOptions, RestoreStats};
