//! A `criu`-compatible command-line front-end.
//!
//! The paper's prototype (and its OpenFaaS templates) drive CRIU through
//! its CLI — `criu dump -t <pid> -D <dir> [--leave-running]` and
//! `criu restore -D <dir>`. This module parses exactly that surface, so
//! those command lines run unchanged against the simulated kernel. The
//! platform and the starters call the library functions (`dump`,
//! `restore`) directly; only the tests and the crate example drive the
//! CLI.

use std::fmt;

use prebake_sim::error::{Errno, SysResult};
use prebake_sim::kernel::Kernel;
use prebake_sim::proc::Pid;

use crate::costs::CriuCosts;
use crate::dump::{dump, repack, DumpOptions, DumpStats, RepackOptions, RepackStats};
use crate::restore::{restore, RestoreMode, RestoreOptions, RestorePid, RestoreStats};

/// Outcome of a CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliOutcome {
    /// A dump (or pre-dump) completed.
    Dumped(DumpStats),
    /// A restore completed.
    Restored(RestoreStats),
    /// An image check completed.
    Checked(crate::check::CheckReport),
    /// An offline image repack completed.
    Repacked(RepackStats),
}

/// A CLI usage error (bad flags), distinct from runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "usage error: {}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Errors from [`CriuCli::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The arguments did not parse.
    Usage(UsageError),
    /// The operation itself failed.
    Sys(Errno),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(u) => u.fmt(f),
            CliError::Sys(e) => write!(f, "criu failed: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<Errno> for CliError {
    fn from(e: Errno) -> Self {
        CliError::Sys(e)
    }
}

/// The CLI front-end: holds the identity the commands run as.
#[derive(Debug, Clone)]
pub struct CriuCli {
    caller: Pid,
    costs: CriuCosts,
}

impl CriuCli {
    /// Creates a CLI running as `caller` with paper-calibrated costs.
    pub fn new(caller: Pid) -> CriuCli {
        CriuCli {
            caller,
            costs: CriuCosts::paper_calibrated(),
        }
    }

    /// Runs one `criu ...` command line.
    ///
    /// Supported:
    /// - `dump -t <pid> -D <dir> [--leave-running]`
    /// - `restore -D <dir> [--same-pid] [--fault-around <pages>]` plus
    ///   either a memory-mode flag (`--lazy-pages`, `--ws-record`,
    ///   `--ws-prefetch`, `--cow`, `--cow-prefetch`) or the eager-only
    ///   install flags `[--page-granular] [--threads <n>]`; combining
    ///   the two fails with `Errno::Einval`
    /// - `repack -D <dir> [--no-fault-order] [--compact]` — rewrite the
    ///   image into recorded fault order and/or compact it to the hot
    ///   working set with a fallback layer
    ///
    /// (A leading literal `criu` argv\[0\] is accepted and skipped.)
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for malformed flags, [`CliError::Sys`] for
    /// operational failures.
    pub fn run(&self, kernel: &mut Kernel, argv: &[&str]) -> Result<CliOutcome, CliError> {
        let args: Vec<&str> = if argv.first() == Some(&"criu") {
            argv[1..].to_vec()
        } else {
            argv.to_vec()
        };
        let usage = |msg: &str| CliError::Usage(UsageError(msg.to_owned()));
        match args.first() {
            Some(&verb) if verb == "dump" || verb == "pre-dump" => {
                let mut target: Option<Pid> = None;
                let mut dir: Option<String> = None;
                let mut leave_running = verb == "pre-dump";
                let mut parent: Option<String> = None;
                let mut track_mem = false;
                let mut i = 1;
                while i < args.len() {
                    match args[i] {
                        "-t" | "--tree" => {
                            let v = args.get(i + 1).ok_or_else(|| usage("-t needs a pid"))?;
                            target = Some(Pid(v
                                .parse()
                                .map_err(|_| usage("-t pid must be a number"))?));
                            i += 2;
                        }
                        "-D" | "--images-dir" => {
                            dir = Some(
                                (*args.get(i + 1).ok_or_else(|| usage("-D needs a dir"))?)
                                    .to_owned(),
                            );
                            i += 2;
                        }
                        "--leave-running" | "-R" => {
                            leave_running = true;
                            i += 1;
                        }
                        "--track-mem" => {
                            track_mem = true;
                            i += 1;
                        }
                        "--prev-images-dir" => {
                            parent = Some(
                                (*args
                                    .get(i + 1)
                                    .ok_or_else(|| usage("--prev-images-dir needs a dir"))?)
                                .to_owned(),
                            );
                            i += 2;
                        }
                        other => return Err(usage(&format!("unknown {verb} flag {other}"))),
                    }
                }
                let target = target.ok_or_else(|| usage("dump requires -t <pid>"))?;
                let dir = dir.ok_or_else(|| usage("dump requires -D <dir>"))?;
                if parent.is_some() && !track_mem {
                    return Err(usage("--prev-images-dir requires --track-mem"));
                }
                let opts = DumpOptions {
                    target,
                    images_dir: dir,
                    leave_running,
                    parent,
                    costs: self.costs.clone(),
                };
                if verb == "pre-dump" {
                    Ok(CliOutcome::Dumped(crate::dump::pre_dump(
                        kernel,
                        self.caller,
                        &opts,
                    )?))
                } else {
                    Ok(CliOutcome::Dumped(dump(kernel, self.caller, &opts)?))
                }
            }
            Some(&"restore") => {
                let mut dir: Option<String> = None;
                let mut pid_policy = RestorePid::Fresh;
                let mut mode = RestoreMode::Eager;
                let mut vectored = true;
                let mut fault_around = 1usize;
                let mut threads = 1usize;
                let mut i = 1;
                while i < args.len() {
                    match args[i] {
                        "-D" | "--images-dir" => {
                            dir = Some(
                                (*args.get(i + 1).ok_or_else(|| usage("-D needs a dir"))?)
                                    .to_owned(),
                            );
                            i += 2;
                        }
                        "--same-pid" => {
                            pid_policy = RestorePid::Same;
                            i += 1;
                        }
                        "--page-granular" => {
                            vectored = false;
                            i += 1;
                        }
                        "--fault-around" => {
                            let v = args
                                .get(i + 1)
                                .ok_or_else(|| usage("--fault-around needs a window"))?;
                            fault_around = v
                                .parse()
                                .map_err(|_| usage("--fault-around window must be a number"))?;
                            i += 2;
                        }
                        "--threads" => {
                            let v = args
                                .get(i + 1)
                                .ok_or_else(|| usage("--threads needs a count"))?;
                            threads = v
                                .parse()
                                .map_err(|_| usage("--threads count must be a number"))?;
                            i += 2;
                        }
                        "--lazy-pages" => {
                            mode = RestoreMode::Lazy;
                            i += 1;
                        }
                        "--ws-record" => {
                            mode = RestoreMode::Record;
                            i += 1;
                        }
                        "--ws-prefetch" => {
                            mode = RestoreMode::Prefetch;
                            i += 1;
                        }
                        "--cow" => {
                            mode = RestoreMode::Cow;
                            i += 1;
                        }
                        "--cow-prefetch" => {
                            mode = RestoreMode::CowPrefetch;
                            i += 1;
                        }
                        other => return Err(usage(&format!("unknown restore flag {other}"))),
                    }
                }
                let dir = dir.ok_or_else(|| usage("restore requires -D <dir>"))?;
                let opts = RestoreOptions {
                    images_dir: dir,
                    pid: pid_policy,
                    mode,
                    costs: self.costs.clone(),
                    vectored,
                    fault_around,
                    threads,
                };
                Ok(CliOutcome::Restored(restore(kernel, self.caller, &opts)?))
            }
            Some(&"repack") => {
                let mut dir: Option<String> = None;
                let mut fault_order = true;
                let mut compact = false;
                let mut i = 1;
                while i < args.len() {
                    match args[i] {
                        "-D" | "--images-dir" => {
                            dir = Some(
                                (*args.get(i + 1).ok_or_else(|| usage("-D needs a dir"))?)
                                    .to_owned(),
                            );
                            i += 2;
                        }
                        "--no-fault-order" => {
                            fault_order = false;
                            i += 1;
                        }
                        "--compact" => {
                            compact = true;
                            i += 1;
                        }
                        other => return Err(usage(&format!("unknown repack flag {other}"))),
                    }
                }
                let dir = dir.ok_or_else(|| usage("repack requires -D <dir>"))?;
                let opts = RepackOptions {
                    images_dir: dir,
                    fault_order,
                    compact,
                    costs: self.costs.clone(),
                };
                Ok(CliOutcome::Repacked(repack(kernel, &opts)?))
            }
            Some(&"check") => {
                let mut dir: Option<String> = None;
                let mut i = 1;
                while i < args.len() {
                    match args[i] {
                        "-D" | "--images-dir" => {
                            dir = Some(
                                (*args.get(i + 1).ok_or_else(|| usage("-D needs a dir"))?)
                                    .to_owned(),
                            );
                            i += 2;
                        }
                        other => return Err(usage(&format!("unknown check flag {other}"))),
                    }
                }
                let dir = dir.ok_or_else(|| usage("check requires -D <dir>"))?;
                Ok(CliOutcome::Checked(crate::check::check(kernel, &dir)?))
            }
            Some(other) => Err(usage(&format!("unknown subcommand {other}"))),
            None => Err(usage("expected dump, pre-dump, restore, repack or check")),
        }
    }
}

/// Convenience: run a dump for `target` into `dir` as `caller`.
///
/// # Errors
///
/// As [`dump`].
pub fn criu_dump(kernel: &mut Kernel, caller: Pid, target: Pid, dir: &str) -> SysResult<DumpStats> {
    dump(kernel, caller, &DumpOptions::new(target, dir))
}

/// Convenience: run a restore from `dir` as `caller`.
///
/// # Errors
///
/// As [`restore`].
pub fn criu_restore(kernel: &mut Kernel, caller: Pid, dir: &str) -> SysResult<RestoreStats> {
    restore(kernel, caller, &RestoreOptions::new(dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_sim::kernel::INIT_PID;
    use prebake_sim::mem::{Prot, VmaKind, PAGE_SIZE};

    fn setup() -> (Kernel, Pid, Pid) {
        let mut k = Kernel::free(8);
        let caller = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let a = k
            .sys_mmap(target, 2 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        k.mem_write(target, a, &[1u8; 64]).unwrap();
        (k, caller, target)
    }

    /// A CLI that charges nothing for criu's own work.
    fn free_cli(caller: Pid) -> CriuCli {
        CriuCli {
            caller,
            costs: CriuCosts::free(),
        }
    }

    #[test]
    fn cli_dump_then_restore() {
        let (mut k, caller, target) = setup();
        let cli = free_cli(caller);
        let pid_str = target.0.to_string();
        let out = cli
            .run(&mut k, &["criu", "dump", "-t", &pid_str, "-D", "/img"])
            .unwrap();
        assert!(matches!(out, CliOutcome::Dumped(s) if s.pages_stored == 1));
        let out = cli.run(&mut k, &["restore", "-D", "/img"]).unwrap();
        match out {
            CliOutcome::Restored(s) => {
                assert!(k.process(s.pid).is_ok());
            }
            other => panic!("expected restore, got {other:?}"),
        }
    }

    #[test]
    fn cli_usage_errors() {
        let (mut k, caller, _) = setup();
        let cli = CriuCli::new(caller);
        for argv in [
            &["frobnicate"][..],
            &["dump", "-D", "/img"][..],
            &["dump", "-t", "abc", "-D", "/img"][..],
            &["dump", "-t", "3"][..],
            &["restore"][..],
            &["dump", "--wat"][..],
            &[][..],
        ] {
            assert!(
                matches!(cli.run(&mut k, argv), Err(CliError::Usage(_))),
                "argv {argv:?} should be a usage error"
            );
        }
    }

    #[test]
    fn cli_surfaces_sys_errors() {
        let (mut k, caller, _) = setup();
        let cli = CriuCli::new(caller);
        let err = cli.run(&mut k, &["restore", "-D", "/missing"]).unwrap_err();
        assert_eq!(err, CliError::Sys(Errno::Enoent));
        assert!(err.to_string().contains("criu failed"));
    }

    #[test]
    fn leave_running_flag_parsed() {
        let (mut k, caller, target) = setup();
        let cli = free_cli(caller);
        let pid_str = target.0.to_string();
        cli.run(
            &mut k,
            &["dump", "-t", &pid_str, "-D", "/img", "--leave-running"],
        )
        .unwrap();
        assert!(k.process(target).is_ok(), "target still alive");
    }

    #[test]
    fn cli_check_validates_images() {
        let (mut k, caller, target) = setup();
        let cli = free_cli(caller);
        let pid_str = target.0.to_string();
        cli.run(&mut k, &["dump", "-t", &pid_str, "-D", "/img"])
            .unwrap();
        let out = cli.run(&mut k, &["check", "-D", "/img"]).unwrap();
        assert!(matches!(out, CliOutcome::Checked(r) if r.pages_stored == 1));
        assert!(matches!(
            cli.run(&mut k, &["check", "-D", "/ghost"]).unwrap_err(),
            CliError::Sys(Errno::Enoent)
        ));
        assert!(matches!(
            cli.run(&mut k, &["check"]).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn cow_flag_parsed() {
        let (mut k, caller, target) = setup();
        let cli = free_cli(caller);
        let pid_str = target.0.to_string();
        cli.run(&mut k, &["dump", "-t", &pid_str, "-D", "/img"])
            .unwrap();
        let out = cli
            .run(&mut k, &["restore", "-D", "/img", "--cow"])
            .unwrap();
        match out {
            CliOutcome::Restored(s) => {
                assert_eq!(s.pages_cow, 1);
                assert_eq!(s.pages_installed, 0);
            }
            other => panic!("expected restore, got {other:?}"),
        }
        // --cow-prefetch without a recorded working set is an error the
        // CLI surfaces, not a parse failure.
        assert!(matches!(
            cli.run(&mut k, &["restore", "-D", "/img", "--cow-prefetch"])
                .unwrap_err(),
            CliError::Sys(Errno::Einval)
        ));
    }

    #[test]
    fn extent_flags_parsed() {
        let (mut k, caller, target) = setup();
        let cli = free_cli(caller);
        let pid_str = target.0.to_string();
        cli.run(&mut k, &["dump", "-t", &pid_str, "-D", "/img"])
            .unwrap();
        let out = cli
            .run(&mut k, &["restore", "-D", "/img", "--page-granular"])
            .unwrap();
        match out {
            CliOutcome::Restored(s) => {
                assert_eq!(s.pages_installed, 1);
                assert_eq!(s.extents, 0, "page-granular path issues no extents");
            }
            other => panic!("expected restore, got {other:?}"),
        }
        let out = cli
            .run(
                &mut k,
                &[
                    "restore",
                    "-D",
                    "/img",
                    "--lazy-pages",
                    "--fault-around",
                    "8",
                ],
            )
            .unwrap();
        assert!(matches!(out, CliOutcome::Restored(s) if s.pages_lazy == 1));
        // A window needs a number.
        assert!(matches!(
            cli.run(&mut k, &["restore", "-D", "/img", "--fault-around"])
                .unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            cli.run(&mut k, &["restore", "-D", "/img", "--fault-around", "wide"])
                .unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn threads_flag_parsed() {
        let (mut k, caller, target) = setup();
        let cli = free_cli(caller);
        let pid_str = target.0.to_string();
        cli.run(&mut k, &["dump", "-t", &pid_str, "-D", "/img"])
            .unwrap();
        let out = cli
            .run(&mut k, &["restore", "-D", "/img", "--threads", "4"])
            .unwrap();
        match out {
            CliOutcome::Restored(s) => {
                assert_eq!(s.pages_installed, 1);
                // One stored page = one extent = at most one shard.
                assert_eq!(s.shards, 1);
            }
            other => panic!("expected restore, got {other:?}"),
        }
        assert!(matches!(
            cli.run(&mut k, &["restore", "-D", "/img", "--threads", "many"])
                .unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn repack_verb_parsed() {
        use crate::image::WsImage;

        let (mut k, caller, target) = setup();
        let cli = free_cli(caller);
        let pid_str = target.0.to_string();
        let page_index = {
            let vma = k
                .process(target)
                .unwrap()
                .mem
                .vmas()
                .next()
                .unwrap()
                .clone();
            vma.start.0 / PAGE_SIZE as u64
        };
        cli.run(&mut k, &["dump", "-t", &pid_str, "-D", "/img"])
            .unwrap();
        k.fs_write_file(
            "/img/ws.img",
            WsImage::from_fault_log(vec![page_index]).encode(),
        )
        .unwrap();
        let out = cli
            .run(&mut k, &["repack", "-D", "/img", "--compact"])
            .unwrap();
        match out {
            CliOutcome::Repacked(s) => {
                assert_eq!(s.pages_hot, 1);
                assert_eq!(s.pages_compacted, 0, "whole image is in the working set");
            }
            other => panic!("expected repack, got {other:?}"),
        }
        assert!(matches!(
            cli.run(&mut k, &["repack"]).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            cli.run(&mut k, &["repack", "-D", "/img", "--wat"])
                .unwrap_err(),
            CliError::Usage(_)
        ));
        // No recorded working set → nothing to order by.
        assert!(matches!(
            cli.run(&mut k, &["dump", "-t", "1", "-D", "/img2"]),
            Err(CliError::Sys(_)) | Ok(_)
        ));
    }

    #[test]
    fn same_pid_flag_parsed() {
        let (mut k, caller, target) = setup();
        let cli = free_cli(caller);
        let pid_str = target.0.to_string();
        cli.run(&mut k, &["dump", "-t", &pid_str, "-D", "/img"])
            .unwrap();
        let out = cli
            .run(&mut k, &["restore", "-D", "/img", "--same-pid"])
            .unwrap();
        assert!(matches!(out, CliOutcome::Restored(s) if s.pid == target));
    }
}
