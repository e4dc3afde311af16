//! Runtime profiles beyond the JVM.
//!
//! The paper's future work asks how prebaking fares on "other runtime
//! environments such as Node.JS and Python, all supported by the leading
//! public FaaS platforms — as different runtimes implement distinct
//! start-up procedures, the potential improvements remain unknown."
//!
//! This module parameterises the managed-runtime model with three
//! profiles. The Java profile is the paper-calibrated one; the Node- and
//! Python-like profiles are estimated from public cold-start studies
//! (documented per constant) and exist to *explore the shape* of the
//! answer: prebaking always removes the runtime bootstrap, but the
//! warm-snapshot bonus tracks how much lazy compilation the runtime
//! performs — large for the JVM's JIT, moderate for V8, small for
//! CPython (which compiles bytecode but never JITs).

use prebake_sim::cost::ms_per_mib_to_ns_per_byte;
use prebake_sim::time::SimDuration;

use crate::costs::{BaseFootprint, RuntimeCosts};

/// A managed-runtime flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeProfile {
    /// The paper's JVM 1.8 calibration: ≈70 ms bootstrap, heavyweight
    /// class verification, aggressive JIT (15 ms/MiB).
    JavaLike,
    /// A V8-style runtime: snapshot-assisted bootstrap (≈50 ms), cheap
    /// source parsing, a lazier baseline compiler (≈6 ms/MiB).
    NodeLike,
    /// A CPython-style runtime: quick interpreter start (≈35 ms),
    /// bytecode compilation on import, **no JIT at all**.
    PythonLike,
}

impl RuntimeProfile {
    /// All profiles, Java first.
    pub fn all() -> [RuntimeProfile; 3] {
        [
            RuntimeProfile::JavaLike,
            RuntimeProfile::NodeLike,
            RuntimeProfile::PythonLike,
        ]
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeProfile::JavaLike => "java",
            RuntimeProfile::NodeLike => "node",
            RuntimeProfile::PythonLike => "python",
        }
    }

    /// The cost table of this runtime flavour.
    pub fn costs(self) -> RuntimeCosts {
        match self {
            RuntimeProfile::JavaLike => RuntimeCosts::paper_calibrated(),
            RuntimeProfile::NodeLike => RuntimeCosts {
                // V8 bootstraps from its own heap snapshot: the fixed
                // part is ≈50 ms in public measurements of node runtimes
                // on FaaS platforms.
                rts_core_init: SimDuration::from_millis(28),
                rts_heap_init: SimDuration::from_millis(10),
                rts_services_init: SimDuration::from_millis(12),
                http_server_init: SimDuration::from_micros(1500),
                // JS source parse is cheap; there is no bytecode
                // verifier, only scope analysis.
                class_parse_ns_per_byte: ms_per_mib_to_ns_per_byte(9.0),
                class_verify_ns_per_byte: ms_per_mib_to_ns_per_byte(2.0),
                // Baseline compiler (Ignition/Sparkplug tier): much
                // lazier than the JVM's C1/C2.
                jit_compile_ns_per_byte: ms_per_mib_to_ns_per_byte(6.0),
                archive_index_per_entry: SimDuration::from_micros(2),
                lazy_link_init: SimDuration::from_millis(20),
                base_footprint: BaseFootprint {
                    code_cache_touch: 3 << 20,
                    heap_touch: 4 << 20,
                    metaspace_touch: 1 << 20,
                },
                metaspace_expansion: 1.1,
                code_cache_expansion: 0.2,
            },
            RuntimeProfile::PythonLike => RuntimeCosts {
                // CPython interpreter + site init.
                rts_core_init: SimDuration::from_millis(20),
                rts_heap_init: SimDuration::from_millis(6),
                rts_services_init: SimDuration::from_millis(9),
                http_server_init: SimDuration::from_micros(2000),
                // Import machinery: compile to bytecode on first import.
                class_parse_ns_per_byte: ms_per_mib_to_ns_per_byte(12.0),
                class_verify_ns_per_byte: ms_per_mib_to_ns_per_byte(1.0),
                // No JIT: a warm snapshot only saves the import work.
                jit_compile_ns_per_byte: 0.0,
                archive_index_per_entry: SimDuration::from_micros(4),
                lazy_link_init: SimDuration::from_millis(25),
                base_footprint: BaseFootprint {
                    code_cache_touch: 1 << 20,
                    heap_touch: 4 << 20,
                    metaspace_touch: 1 << 20,
                },
                metaspace_expansion: 1.3,
                code_cache_expansion: 0.05,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rts_total(c: &RuntimeCosts) -> SimDuration {
        c.rts_core_init + c.rts_heap_init + c.rts_services_init
    }

    #[test]
    fn java_profile_is_the_paper_calibration() {
        let java = RuntimeProfile::JavaLike.costs();
        let paper = RuntimeCosts::paper_calibrated();
        assert_eq!(rts_total(&java), rts_total(&paper));
        assert_eq!(java.jit_compile_ns_per_byte, paper.jit_compile_ns_per_byte);
    }

    #[test]
    fn bootstrap_ordering_java_heaviest() {
        let java = rts_total(&RuntimeProfile::JavaLike.costs());
        let node = rts_total(&RuntimeProfile::NodeLike.costs());
        let python = rts_total(&RuntimeProfile::PythonLike.costs());
        assert!(java > node && node > python, "{java} > {node} > {python}");
        assert!((45.0..55.0).contains(&node.as_millis_f64()));
        assert!((30.0..40.0).contains(&python.as_millis_f64()));
    }

    #[test]
    fn jit_share_ranking() {
        // The warm-snapshot bonus is driven by the JIT share; it must
        // rank java > node > python(=0).
        let jit = |p: RuntimeProfile| p.costs().jit_compile_ns_per_byte;
        assert!(jit(RuntimeProfile::JavaLike) > jit(RuntimeProfile::NodeLike));
        assert!(jit(RuntimeProfile::NodeLike) > jit(RuntimeProfile::PythonLike));
        assert_eq!(jit(RuntimeProfile::PythonLike), 0.0);
    }

    #[test]
    fn labels_and_all() {
        assert_eq!(RuntimeProfile::all().len(), 3);
        assert_eq!(RuntimeProfile::JavaLike.label(), "java");
        assert_eq!(RuntimeProfile::NodeLike.label(), "node");
        assert_eq!(RuntimeProfile::PythonLike.label(), "python");
    }
}
