//! Ablation 2 (paper §7 future work): in-memory CRIU image cache.
//!
//! The paper plans to "experiment with in-memory optimization on CRIU to
//! speed up snapshot restore" (citing the fast in-memory CRIU work).
//! This harness compares full prebaked start-up when the restorer reads
//! image files from the (page-cache-warm) filesystem versus restoring
//! from a host-resident `ImageSet` — the `prebake_criu::ImageCache`
//! path. The gap should scale with snapshot size (≈0.3 ms/MiB of image
//! read), making the Image Resizer the big winner.

use prebake_bench::{hr, summarize, HarnessArgs};
use prebake_core::env::{
    export_images, fresh_container, import_images, provision_machine, Deployment,
};
use prebake_core::prebaker::{bake, SnapshotPolicy};
use prebake_core::starter::{PrebakeStarter, Starter};
use prebake_criu::{read_images, restore_set, RestoreOptions};
use prebake_functions::FunctionSpec;
use prebake_runtime::Replica;
use prebake_sim::kernel::Kernel;

fn main() {
    let args = HarnessArgs::parse();
    let reps = args.reps.min(60);
    println!("Ablation — in-memory image cache vs filesystem restore ({reps} reps)");
    hr();
    println!(
        "{:<16} {:>10} {:>12} {:>20} {:>12} {:>20} {:>8}",
        "function", "snapshot", "fs median", "95% CI", "mem median", "95% CI", "saved"
    );
    hr();

    for spec in [
        FunctionSpec::noop(),
        FunctionSpec::markdown(),
        FunctionSpec::image_resizer(),
    ] {
        // Bake once.
        let mut builder_kernel = Kernel::new(0xBA5E);
        let builder = provision_machine(&mut builder_kernel).expect("provision builder");
        let dep = Deployment::install(&mut builder_kernel, spec.clone(), 8080)
            .expect("install on builder");
        let report = bake(
            &mut builder_kernel,
            builder,
            &dep,
            SnapshotPolicy::AfterReady,
            &dep.images_dir(),
        )
        .expect("bake");
        let files = export_images(&mut builder_kernel, &dep.images_dir()).expect("export images");
        // Read on the builder machine, whose clock nothing reads again.
        let set = read_images(&mut builder_kernel, &dep.images_dir()).expect("read images");

        let mut fs_samples = Vec::with_capacity(reps);
        let mut mem_samples = Vec::with_capacity(reps);
        for rep in 0..reps {
            let seed = args.seed + rep as u64;

            // Filesystem path (warm page cache, the paper's deployment).
            let mut kernel = Kernel::new(seed);
            let watchdog = provision_machine(&mut kernel).expect("provision");
            let dep = Deployment::install(&mut kernel, spec.clone(), 8080).expect("install");
            import_images(&mut kernel, &dep.images_dir(), &files).expect("import");
            fresh_container(&mut kernel, &dep.image_paths()).expect("fresh container");
            let started = PrebakeStarter::new()
                .start(&mut kernel, watchdog, &dep)
                .expect("fs restore");
            fs_samples.push(started.startup.as_millis_f64());

            // In-memory path: restore_set + attach, no image files read.
            let mut kernel = Kernel::new(seed ^ 0xCACE);
            let watchdog = provision_machine(&mut kernel).expect("provision");
            let dep = Deployment::install(&mut kernel, spec.clone(), 8080).expect("install");
            fresh_container(&mut kernel, &[]).expect("fresh container");
            let t0 = kernel.now();
            let stats = restore_set(
                &mut kernel,
                watchdog,
                &set,
                &RestoreOptions::new(dep.images_dir()),
            )
            .expect("mem restore");
            let handler = dep.spec.make_handler(&dep.app_dir);
            Replica::attach(&mut kernel, stats.pid, dep.jlvm_config(), handler).expect("attach");
            mem_samples.push((kernel.now() - t0).as_millis_f64());
        }

        let fs = summarize(&fs_samples, 7);
        let mem = summarize(&mem_samples, 8);
        println!(
            "{:<16} {:>7.1}MB {:>10.2}ms {:>20} {:>10.2}ms {:>20} {:>7.1}%",
            spec.name(),
            report.snapshot_bytes() as f64 / 1e6,
            fs.median_ms,
            fs.ci.to_string(),
            mem.median_ms,
            mem.ci.to_string(),
            (fs.median_ms - mem.median_ms) / fs.median_ms * 100.0
        );
    }
    hr();
    println!(
        "take-away: the in-memory cache removes the image read (≈0.3 ms/MiB), so the \
         saving grows with snapshot size — largest for the 99 MB Image Resizer."
    );
}
