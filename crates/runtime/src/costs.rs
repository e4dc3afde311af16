//! Runtime-level cost table.
//!
//! Calibration (DESIGN.md §2): the paper's Table 1 start-up times regress
//! linearly on class-archive size at ≈36.7 ms/MiB for vanilla starts and
//! ≈30 ms/MiB for prebaked-without-warmup starts. The ≈6.7 ms/MiB gap is
//! the cold archive read (priced in `prebake-sim`'s cost table); the
//! remaining 30 ms/MiB split here into parse (7), verify (8) and JIT (15).
//! The fixed runtime bootstrap (RTS) is ≈70 ms across all functions
//! (Fig. 4), and the synthetic functions pay a one-time ≈35 ms lazy
//! link/init on their first request.

use prebake_sim::cost::ms_per_mib_to_ns_per_byte;
use prebake_sim::time::SimDuration;

/// Base memory the runtime touches while bootstrapping, chosen so a
/// freshly booted NOOP function snapshots at ≈13 MB (paper §4.2.1).
#[derive(Debug, Clone, Copy)]
pub struct BaseFootprint {
    /// Bytes written into the JIT code cache during bootstrap.
    pub code_cache_touch: u64,
    /// Bytes written into the runtime heap during bootstrap.
    pub heap_touch: u64,
    /// Bytes of core-class metadata written into the metaspace.
    pub metaspace_touch: u64,
}

/// Cost table for the managed runtime ("JLVM").
#[derive(Debug, Clone)]
pub struct RuntimeCosts {
    /// RTS phase: core runtime initialisation.
    pub rts_core_init: SimDuration,
    /// RTS phase: heap arena setup.
    pub rts_heap_init: SimDuration,
    /// RTS phase: auxiliary service threads (GC, signal dispatch, ...).
    pub rts_services_init: SimDuration,
    /// Starting the embedded HTTP server.
    pub http_server_init: SimDuration,
    /// Class parsing, ns per byte of class file (≈7 ms/MiB).
    pub class_parse_ns_per_byte: f64,
    /// Bytecode verification, ns per byte (≈8 ms/MiB).
    pub class_verify_ns_per_byte: f64,
    /// JIT compilation, ns per byte (≈15 ms/MiB).
    pub jit_compile_ns_per_byte: f64,
    /// Reading the archive central index, per entry.
    pub archive_index_per_entry: SimDuration,
    /// One-time lazy linking/initialisation on the first request, for
    /// applications that defer their class graph (the synthetic functions).
    pub lazy_link_init: SimDuration,
    /// Bootstrap memory footprint.
    pub base_footprint: BaseFootprint,
    /// Metaspace expansion factor: bytes written per class-file byte when
    /// installing the parsed representation.
    pub metaspace_expansion: f64,
    /// Code-cache expansion factor: bytes written per class-file byte when
    /// JIT-compiling.
    pub code_cache_expansion: f64,
}

impl RuntimeCosts {
    /// The calibration used by every experiment in `EXPERIMENTS.md`.
    pub(crate) fn paper_calibrated() -> Self {
        RuntimeCosts {
            rts_core_init: SimDuration::from_millis(39),
            rts_heap_init: SimDuration::from_millis(12),
            rts_services_init: SimDuration::from_millis(17),
            http_server_init: SimDuration::from_micros(2500),
            class_parse_ns_per_byte: ms_per_mib_to_ns_per_byte(7.0),
            class_verify_ns_per_byte: ms_per_mib_to_ns_per_byte(8.0),
            jit_compile_ns_per_byte: ms_per_mib_to_ns_per_byte(15.0),
            archive_index_per_entry: SimDuration::from_micros(3),
            lazy_link_init: SimDuration::from_millis(35),
            base_footprint: BaseFootprint {
                code_cache_touch: 6 << 20,
                heap_touch: 5 << 20,
                metaspace_touch: 2 << 20,
            },
            metaspace_expansion: 1.2,
            code_cache_expansion: 0.3,
        }
    }
}

impl Default for RuntimeCosts {
    fn default() -> Self {
        RuntimeCosts::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rts_sums_to_about_70ms() {
        let c = RuntimeCosts::paper_calibrated();
        let rts = (c.rts_core_init + c.rts_heap_init + c.rts_services_init).as_millis_f64();
        assert!((66.0..=70.0).contains(&rts), "RTS fixed part = {rts}ms");
    }

    #[test]
    fn base_footprint_is_13mb() {
        let c = RuntimeCosts::paper_calibrated();
        let f = c.base_footprint;
        assert_eq!(
            f.code_cache_touch + f.heap_touch + f.metaspace_touch,
            13 << 20
        );
    }

    #[test]
    fn load_slope_matches_table1_regression() {
        // parse + verify + JIT must sum to ~30 ms/MiB (Table 1 PB-NoWarmup
        // slope), and with the cold read (~6.7) reach the ~36.7 vanilla slope.
        let c = RuntimeCosts::paper_calibrated();
        let per_mib =
            (c.class_parse_ns_per_byte + c.class_verify_ns_per_byte + c.jit_compile_ns_per_byte)
                * (1024.0 * 1024.0)
                / 1e6;
        assert!((per_mib - 30.0).abs() < 0.1, "load slope {per_mib} ms/MiB");
    }
}
