//! `bake_dump`: the build-time side — the same `criu` and `sim` layers
//! `restore_gears` reads with, used the other way, writing. A gain for
//! one that costs the other shows here. It is also the only workload
//! that boots the `runtime`.
//!
//! Closed loop, one client. An op takes one function through the whole
//! snapshot pipeline on a fresh builder machine:
//! `bake(AfterWarmup(1))` → `record_working_set` →
//! `repack{fault_order, compact}` → `check` → `export_images`.
//! A round is {noop, markdown, synthetic-small, synthetic-small on the
//! Python-like runtime profile, synthetic-medium}: 5 ops, about 2.1 s.
//! The issue listed four functions; four equal groups put the pooled
//! median exactly on the cliff between two of them, so the one workload
//! that boots the runtime got a second runtime profile as a fifth.
//! Provisioning the builder machine is fixture work and is not timed;
//! neither are the checks after each op.

use std::time::Instant;

use bytes::Bytes;
use prebake_core::env::{
    export_images, fresh_container, import_images, provision_machine, Deployment, RUNTIME_BIN,
};
use prebake_core::prebaker::{bake, record_working_set, SnapshotPolicy};
use prebake_core::starter::{PrebakeStarter, Starter, VanillaStarter};
use prebake_criu::{check, dump, repack, DumpOptions, DumpStats, RepackOptions, RestoreMode};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_runtime::http::Request;
use prebake_runtime::{Replica, RuntimeProfile};
use prebake_sim::error::SysResult;
use prebake_sim::kernel::Kernel;
use prebake_sim::proc::{CapSet, Pid};

use super::{fastest, span_fastest_ms, Op, Outcome, Round, Workload};
use crate::report::LayerValues;
use crate::span::Tracer;
use crate::stats::median;

const PORT: u16 = 8080;
/// Index of synthetic-medium in the round: the function the per-layer
/// metrics are stated for.
const MEDIUM: usize = 4;
/// Calls per mode the traced pass times the medium pipeline over.
const HEAVY_CALLS: usize = 5;

struct Function {
    spec: FunctionSpec,
    request: Request,
    /// Reply of a vanilla-started replica.
    reference: Bytes,
}

/// The workload's state between rounds.
pub struct BakeDump {
    functions: Vec<Function>,
}

/// What one pipeline run produced, for the checks.
struct Baked {
    host_s: f64,
    sim_ms: f64,
    dump: DumpStats,
    boot_sim_ms: f64,
    repack_sim_ms: f64,
    hot_bytes_after: u64,
    images: Vec<(String, Bytes)>,
    /// `check` was clean and repack's page counts add up.
    consistent: bool,
}

/// `bake(AfterWarmup(1))` taken apart at the crate boundaries:
/// clone + exec → `Replica::boot` → one warm-up request → `dump`.
fn split_bake(
    kernel: &mut Kernel,
    builder: Pid,
    dep: &Deployment,
    dir: &str,
    tracer: &mut Tracer,
) -> SysResult<(DumpStats, f64)> {
    let s = tracer.begin("sim", "clone+exec");
    let pid = kernel.sys_clone(builder)?;
    kernel.process_mut(pid)?.caps = CapSet::empty();
    let config = dep.jlvm_config();
    kernel.sys_execve(
        pid,
        RUNTIME_BIN,
        &[
            RUNTIME_BIN.to_owned(),
            config.archive_path.clone(),
            dep.port.to_string(),
        ],
    )?;
    tracer.end(s);
    let s = tracer.begin("functions", "make_handler");
    let handler = dep.spec.make_handler(&dep.app_dir);
    tracer.end(s);
    let t0 = kernel.now();
    let s = tracer.begin("runtime", "Replica::boot");
    let mut replica = Replica::boot(kernel, pid, config, handler)?;
    tracer.end(s);
    let boot_sim_ms = (kernel.now() - t0).as_millis_f64();
    let s = tracer.begin("runtime", "warmup_request");
    replica.handle(kernel, &dep.spec.sample_request())?;
    tracer.end(s);
    let s = tracer.begin("criu", "dump");
    let stats = dump(kernel, builder, &DumpOptions::new(pid, dir))?;
    tracer.end(s);
    Ok((stats, boot_sim_ms))
}

impl BakeDump {
    /// One op: fixture, then the timed pipeline. With the tracer on,
    /// `bake` is split; the other stages are single calls either way.
    fn pipeline(&self, function: usize, seed: u64, tracer: &mut Tracer) -> SysResult<Baked> {
        let f = &self.functions[function];
        tracer.next_op();
        let op = tracer.begin("perfbench", "op");
        let s = tracer.begin("perfbench", "fixture");
        let mut kernel = Kernel::new(seed);
        let builder = provision_machine(&mut kernel)?;
        let dep = Deployment::install(&mut kernel, f.spec.clone(), PORT)?;
        tracer.end(s);
        let dir = dep.images_dir();

        let started = Instant::now();
        let t0 = kernel.now();
        let s = tracer.begin("core", "bake");
        let (dump, boot_sim_ms) = if tracer.on() {
            split_bake(&mut kernel, builder, &dep, &dir, tracer)?
        } else {
            let report = bake(
                &mut kernel,
                builder,
                &dep,
                SnapshotPolicy::AfterWarmup(1),
                &dir,
            )?;
            (report.dump, 0.0)
        };
        tracer.end(s);
        let s = tracer.begin("core", "record_working_set");
        record_working_set(&mut kernel, builder, &dep, &dir)?;
        tracer.end(s);
        let s = tracer.begin("criu", "repack");
        let mut opts = RepackOptions::new(dir.as_str());
        opts.compact = true;
        let repacked = repack(&mut kernel, &opts)?;
        tracer.end(s);
        let s = tracer.begin("criu", "check");
        let report = check(&mut kernel, &dir)?;
        tracer.end(s);
        let s = tracer.begin("core", "export_images");
        let images = export_images(&mut kernel, &dir)?;
        tracer.end(s);
        let host_s = started.elapsed().as_secs_f64();
        let sim_ms = (kernel.now() - t0).as_millis_f64();
        tracer.end(op);

        Ok(Baked {
            host_s,
            sim_ms,
            dump,
            boot_sim_ms,
            repack_sim_ms: repacked.elapsed.as_millis_f64(),
            hot_bytes_after: repacked.hot_bytes_after,
            images,
            consistent: report.is_clean()
                && repacked.pages_hot + repacked.pages_compacted == repacked.pages_total,
        })
    }

    /// The exported set must re-import on a fresh machine, and a
    /// prefetch restore of the repacked image must reply as a vanilla
    /// start does.
    fn restored_reply(&self, function: usize, baked: &Baked, seed: u64) -> SysResult<Bytes> {
        let f = &self.functions[function];
        let mut kernel = Kernel::new(seed);
        let watchdog = provision_machine(&mut kernel)?;
        let dep = Deployment::install(&mut kernel, f.spec.clone(), PORT)?;
        import_images(&mut kernel, &dep.images_dir(), &baked.images)?;
        fresh_container(&mut kernel, &dep.image_paths())?;
        let mut started =
            PrebakeStarter::with_mode(RestoreMode::Prefetch).start(&mut kernel, watchdog, &dep)?;
        Ok(started.replica.handle(&mut kernel, &f.request)?.body)
    }
}

fn reference_reply(spec: &FunctionSpec, request: &Request, seed: u64) -> SysResult<Bytes> {
    let mut kernel = Kernel::new(seed);
    let watchdog = provision_machine(&mut kernel)?;
    let dep = Deployment::install(&mut kernel, spec.clone(), PORT)?;
    let mut vanilla = VanillaStarter.start(&mut kernel, watchdog, &dep)?;
    Ok(vanilla.replica.handle(&mut kernel, request)?.body)
}

fn op_seed(round_seed: u64, op: usize) -> u64 {
    round_seed.wrapping_mul(64).wrapping_add(op as u64)
}

impl Workload for BakeDump {
    const NAME: &'static str = "bake_dump";
    const NOMINAL_ROUND_S: f64 = 2.1;
    const SLO_MS: f64 = 1000.0;
    const TRACE_ROUNDS: usize = 2;

    fn setup(seed: u64) -> BakeDump {
        let functions = [
            FunctionSpec::noop(),
            FunctionSpec::markdown(),
            FunctionSpec::synthetic(SyntheticSize::Small),
            FunctionSpec::synthetic(SyntheticSize::Small)
                .with_runtime(RuntimeProfile::PythonLike)
                .with_name("synthetic-small-python"),
            FunctionSpec::synthetic(SyntheticSize::Medium),
        ]
        .into_iter()
        .map(|spec| {
            let request = spec.sample_request();
            let reference = reference_reply(&spec, &request, seed).expect("vanilla reference");
            Function {
                spec,
                request,
                reference,
            }
        })
        .collect();
        BakeDump { functions }
    }

    fn round(&mut self, seed: u64, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        for function in 0..self.functions.len() {
            let name = self.functions[function].spec.name().to_owned();
            let seed = op_seed(seed, function);
            let failed = |round: &mut Round, why: String| {
                round.failures.push(format!("{name}: {why}"));
                Outcome::Failed
            };
            let (sim_ms, outcome) = match self.pipeline(function, seed, tracer) {
                Ok(baked) => {
                    round.host_s += baked.host_s;
                    let outcome = if !baked.consistent {
                        failed(&mut round, "check unclean or repack lost pages".to_owned())
                    } else {
                        match self.restored_reply(function, &baked, seed) {
                            Ok(body) if body == self.functions[function].reference => Outcome::Ok,
                            Ok(_) => failed(
                                &mut round,
                                "restored reply differs from the vanilla start's".to_owned(),
                            ),
                            Err(errno) => failed(&mut round, format!("re-import: {errno:?}")),
                        }
                    };
                    (baked.sim_ms, outcome)
                }
                Err(errno) => (0.0, failed(&mut round, format!("{errno:?}"))),
            };
            round.ops.push(Op { sim_ms, outcome });
        }
        round
    }

    fn layers(&mut self, seed: u64, _traced: &[Round], tracer: &mut Tracer, out: &mut LayerValues) {
        // The medium pipeline alone: `bake` timed whole, then the whole
        // pipeline split under spans, read back from these ops only.
        let from_op = tracer.op() + 1;
        let f = &self.functions[MEDIUM];
        let mut bake_ms = Vec::with_capacity(HEAVY_CALLS);
        let mut split = Vec::with_capacity(HEAVY_CALLS);
        for call in 0..HEAVY_CALLS {
            let seed = op_seed(seed, 8 + call);
            let mut kernel = Kernel::new(seed);
            let builder = provision_machine(&mut kernel).expect("provision");
            let dep = Deployment::install(&mut kernel, f.spec.clone(), PORT).expect("install");
            let started = Instant::now();
            bake(
                &mut kernel,
                builder,
                &dep,
                SnapshotPolicy::AfterWarmup(1),
                &dep.images_dir(),
            )
            .expect("bake");
            bake_ms.push(started.elapsed().as_secs_f64() * 1e3);
            drop(kernel);
            split.push(self.pipeline(MEDIUM, seed, tracer).expect("pipeline"));
        }
        out.set("core.bake_host_ms", fastest(&bake_ms), HEAVY_CALLS);
        for (metric, layer, span) in [
            ("runtime.boot_host_ms", "runtime", "Replica::boot"),
            ("criu.dump_host_ms", "criu", "dump"),
            ("core.record_ws_host_ms", "core", "record_working_set"),
            ("criu.repack_host_ms", "criu", "repack"),
            ("criu.check_host_ms", "criu", "check"),
        ] {
            let (ms, n) = span_fastest_ms(tracer, layer, span, from_op).expect("recorded");
            out.set(metric, ms, n);
        }
        let med = |f: fn(&Baked) -> f64| median(&split.iter().map(f).collect::<Vec<_>>());
        out.set("runtime.boot_sim_ms", med(|b| b.boot_sim_ms), HEAVY_CALLS);
        out.set(
            "criu.dump_sim_ms",
            med(|b| b.dump.elapsed.as_millis_f64()),
            HEAVY_CALLS,
        );
        out.set(
            "criu.dump_frozen_sim_ms",
            med(|b| b.dump.frozen_for.as_millis_f64()),
            HEAVY_CALLS,
        );
        out.set("criu.repack_sim_ms", med(|b| b.repack_sim_ms), HEAVY_CALLS);
        out.set(
            "criu.hot_mib_after_compact",
            split[0].hot_bytes_after as f64 / (1 << 20) as f64,
            1,
        );
    }
}
