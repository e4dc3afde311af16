//! # prebake-sim
//!
//! A deterministic, in-memory operating-system substrate for reproducing
//! *"Prebaking Functions to Warm the Serverless Cold Start"*
//! (Middleware '20).
//!
//! The paper's prebaking technique is defined in terms of Linux kernel
//! facilities — `clone`/`execve`, virtual memory areas,
//! `/proc/<pid>/pagemap`, ptrace parasite injection, pipes, the page
//! cache and the `CAP_CHECKPOINT_RESTORE` capability. This crate models
//! exactly those facilities over **real state** (byte-level pages, a real
//! filesystem tree, real descriptor tables) while charging **virtual
//! time** from a cost table calibrated to the paper's measurements, so
//! 200-repetition experiments run deterministically in milliseconds of
//! host time.
//!
//! ## Layout
//!
//! - [`time`] — virtual instants, durations and the per-machine clock
//! - [`noise`] — seeded log-normal measurement jitter
//! - [`cost`] — the calibrated OS cost table
//! - [`mem`] — pages, VMAs and address spaces
//! - [`fs`] — an in-memory filesystem with a page-cache model
//! - [`proc`] — processes, threads, descriptors, capabilities
//! - [`kernel`] — the machine: syscall surface, ptrace, `/proc`, probes
//! - [`event`] — a discrete-event queue for the platform layer
//! - [`probe`] — syscall/marker trace events (the `bpftrace` analogue)
//! - [`uffd`] — demand-paging fault backends (the `userfaultfd` analogue)
//! - [`pagestore`] — the content-addressed shared frame pool behind
//!   copy-on-write restore
//! - [`hash`] — XXH64, the content hash behind every snapshot checksum
//!   and page-frame key
//! - [`trace`] — nested span recording + Chrome-trace/critical-path exporters
//! - [`error`] — POSIX-style error numbers
//!
//! ## Example
//!
//! ```
//! use prebake_sim::kernel::{Kernel, INIT_PID};
//! use prebake_sim::mem::{Prot, VmaKind};
//!
//! let mut k = Kernel::new(7);
//! k.fs_create_dir_all("/app").unwrap();
//! k.fs_write_file("/app/bin", vec![0u8; 4096]).unwrap();
//!
//! let pid = k.sys_clone(INIT_PID).unwrap();
//! k.sys_execve(pid, "/app/bin", &["bin".into()]).unwrap();
//! let heap = k.sys_mmap(pid, 1 << 20, Prot::RW, VmaKind::RuntimeHeap).unwrap();
//! k.mem_write(pid, heap, b"state the snapshot will capture").unwrap();
//!
//! assert_eq!(k.mem_read(pid, heap, 5).unwrap(), b"state");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod error;
pub mod event;
pub mod fs;
pub mod hash;
pub mod kernel;
pub mod mem;
pub mod noise;
pub mod pagestore;
pub mod probe;
pub mod proc;
pub mod time;
pub mod trace;
pub mod uffd;

pub use error::{Errno, SysResult};
