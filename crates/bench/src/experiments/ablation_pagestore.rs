//! Ablation 5: content-addressed page store — dedup + copy-on-write
//! restore (`pagestore.img`, DESIGN.md §9).
//!
//! The paper's restore byte-copies every page per replica, so cache
//! footprint and restore work grow linearly with replica count. This
//! harness quantifies what the shared page store buys back, in three
//! parts:
//!
//! 1. the Fig. 5 synthetic functions restored eager vs CoW vs
//!    CoW+prefetch — start-to-first-response p50/p99 plus the per-trial
//!    dedup and CoW-break counters;
//! 2. image-cache accounting — what N replicas (and pairs of different
//!    functions) charge a dedup-aware cache vs raw per-snapshot totals;
//! 3. concurrent replicas on one machine — resident memory and restore
//!    latency as replicas of one snapshot stack up, eager vs CoW.

use super::*;
use prebake_core::env::{provision_machine, Deployment};
use prebake_core::prebaker::{bake, SnapshotPolicy};
use prebake_criu::cache::ImageCache;
use prebake_criu::image::ImageSet;
use prebake_criu::read_images;
use prebake_criu::restore::{restore_set, RestoreMode, RestoreOptions};
use prebake_sim::proc::Pid;

/// Bakes `spec`'s 1-warm-up snapshot on a fresh machine and loads the
/// image set, with the dumped listener stripped so many replicas can
/// restore onto one host kernel (production gives each replica its own
/// container network namespace; this bench packs them into one machine
/// to measure shared-frame behaviour).
fn baked_set(spec: &FunctionSpec) -> (Kernel, Pid, ImageSet) {
    let mut kernel = Kernel::new(0xAB15);
    let watchdog = provision_machine(&mut kernel).expect("provision");
    let dep = Deployment::install(&mut kernel, spec.clone(), 8080).expect("install");
    bake(
        &mut kernel,
        watchdog,
        &dep,
        SnapshotPolicy::AfterWarmup(1),
        &dep.images_dir(),
    )
    .expect("bake");
    let mut set = read_images(&mut kernel, &dep.images_dir()).expect("read images");
    set.files.fds.clear();
    (kernel, watchdog, set)
}

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    let reps = args.capped_reps();

    // -- part 1: first-response latency, eager vs CoW ------------------
    out.line(format_args!(
        "Ablation — content-addressed page store ({reps} reps)"
    ));
    out.header(format_args!(
        "{:<10} {:<16} {:>9} {:>13} {:>10} {:>10} {:>7} {:>7}",
        "function", "mode", "snapshot", "unique/total", "p50", "p99", "breaks", "majflt"
    ));

    let mut big_eager_p50 = 0.0;
    let mut big_cow_p50 = 0.0;
    let mut big_cow_breaks = 0u64;
    for size in SyntheticSize::all() {
        let spec = FunctionSpec::synthetic(size);
        for mode in StartMode::cow_ablation() {
            let trials = memo.trials(&spec, mode, reps, args.seed);
            let first_response: Vec<f64> = trials.iter().map(|t| t.first_response_ms).collect();
            let p50 = quantile(&first_response, 0.5);
            let p99 = quantile(&first_response, 0.99);

            // Dedup and break counts are virtual-machine behaviour, not
            // noise: every repetition must agree exactly.
            let t0 = &trials[0];
            assert!(
                trials
                    .iter()
                    .all(|t| (t.pages_unique, t.cow_breaks()) == (t0.pages_unique, t0.cow_breaks())),
                "dedup/CoW counters must be deterministic across reps"
            );

            if size == SyntheticSize::Big {
                match mode {
                    StartMode::PrebakeWarmup(_) => big_eager_p50 = p50,
                    StartMode::PrebakeCow => {
                        big_cow_p50 = p50;
                        big_cow_breaks = t0.cow_breaks();
                    }
                    _ => {}
                }
            }
            out.line(format_args!(
                "{:<10} {:<16} {:>6.1}MB {:>5}/{:<5} {:>8.2}ms {:>8.2}ms {:>7} {:>7}",
                spec.name(),
                mode.label(),
                t0.snapshot_bytes as f64 / 1e6,
                t0.pages_unique,
                t0.pages_stored,
                p50,
                p99,
                t0.cow_breaks(),
                t0.probes.major_faults,
            ));
        }
        out.hr();
    }
    assert!(
        big_cow_p50 <= big_eager_p50,
        "CoW first-response p50 must not regress vs eager on the big function \
         (cow {big_cow_p50:.2}ms vs eager {big_eager_p50:.2}ms)"
    );

    // -- part 2: dedup-aware image-cache accounting --------------------
    out.line(format_args!(
        "\nImage-cache accounting (dedup-aware charging vs raw bytes)"
    ));
    out.header(format_args!(
        "{:<34} {:>10} {:>10} {:>8}",
        "residents", "raw", "charged", "saved"
    ));
    let big = FunctionSpec::synthetic(SyntheticSize::Big);
    let (_, _, big_set) = baked_set(&big);
    let mut two_replica_saving = 0.0;
    for n in [2usize, 4, 8] {
        let mut cache = ImageCache::new();
        for i in 0..n {
            cache.insert(format!("replica-{i}"), big_set.clone());
        }
        let raw = cache.total_bytes();
        let charged = cache.charged_bytes();
        let saved = improvement_pct(raw as f64, charged as f64);
        if n == 2 {
            two_replica_saving = saved;
        }
        out.line(format_args!(
            "{:<34} {:>7.1}MB {:>7.1}MB {:>7.1}%",
            format!("{n}x {}", big.name()),
            raw as f64 / 1e6,
            charged as f64 / 1e6,
            saved
        ));
    }
    // Different functions share runtime/library frames, not app frames.
    let small = FunctionSpec::synthetic(SyntheticSize::Small);
    let (_, _, small_set) = baked_set(&small);
    let mut cache = ImageCache::new();
    cache.insert("big", big_set.clone());
    cache.insert("small", small_set);
    out.line(format_args!(
        "{:<34} {:>7.1}MB {:>7.1}MB {:>7.1}%",
        format!("{} + {}", big.name(), small.name()),
        cache.total_bytes() as f64 / 1e6,
        cache.charged_bytes() as f64 / 1e6,
        improvement_pct(cache.total_bytes() as f64, cache.charged_bytes() as f64)
    ));
    out.hr();
    assert!(
        two_replica_saving >= 30.0,
        "two replicas of one function must cut cache bytes by >= 30% \
         (got {two_replica_saving:.1}%)"
    );

    // -- part 3: concurrent replicas on one machine --------------------
    out.line(format_args!(
        "\nConcurrent replicas from one snapshot (big function, one machine)"
    ));
    out.header(format_args!(
        "{:<8} {:>14} {:>14} {:>12} {:>12}",
        "replicas", "eager RSS", "CoW RSS", "eager p50", "CoW p50"
    ));
    for n in [1usize, 2, 4, 8] {
        let mut rss = Vec::new();
        let mut p50 = Vec::new();
        for mode in [RestoreMode::Eager, RestoreMode::Cow] {
            let (mut kernel, watchdog, set) = baked_set(&big);
            let opts = RestoreOptions::with_mode("", mode);
            let mut pids = Vec::new();
            let mut elapsed = Vec::new();
            for _ in 0..n {
                let stats = restore_set(&mut kernel, watchdog, &set, &opts).expect("restore");
                pids.push(stats.pid);
                elapsed.push(stats.elapsed.as_millis_f64());
            }
            // Machine-wide snapshot memory: private pages of every
            // replica plus the shared pool (counted once, not per
            // mapping).
            let private: u64 = pids
                .iter()
                .map(|&pid| {
                    let mem = &kernel.process(pid).unwrap().mem;
                    mem.resident_bytes() - mem.cow_pages() * prebake_sim::mem::PAGE_SIZE as u64
                })
                .sum();
            rss.push(private + kernel.page_store().resident_bytes());
            p50.push(quantile(&elapsed, 0.5));
        }
        out.line(format_args!(
            "{:<8} {:>11.1}MB {:>11.1}MB {:>9.2}ms {:>9.2}ms",
            n,
            rss[0] as f64 / 1e6,
            rss[1] as f64 / 1e6,
            p50[0],
            p50[1]
        ));
    }
    out.hr();
    out.line(format_args!(
        "take-away: dedup collapses duplicate runtime pages inside one snapshot and \
         shares frames across replicas, so N replicas cost close to one snapshot of \
         memory ({two_replica_saving:.1}% cache bytes saved at N=2) while CoW restore \
         reaches first response {:.1}% faster than eager on the big function — the \
         copy cost moves to the {big_cow_breaks} pages the first request actually \
         writes.",
        improvement_pct(big_eager_p50, big_cow_p50),
    ));
    None
}
