//! Start-cost profiles: what each restore gear costs a function.
//!
//! The fleet scheduler does not boot real replicas — it schedules over
//! *profiles* measured once per (function, gear) with the single-machine
//! trial harness ([`TrialRunner`]), exactly the way a production control
//! plane would observe start-cost statistics and pick a restore strategy
//! per function. A profile records, per gear: ready latency, first- and
//! warm-request service times, and the memory footprint the gear charges
//! a worker (resident replica bytes plus cached snapshot-image bytes).

use std::collections::BTreeMap;

use prebake_core::measure::{StartMode, TrialRunner};
use prebake_functions::FunctionSpec;
use prebake_sim::error::SysResult;
use prebake_sim::time::SimDuration;
use prebake_stats::summary::median;

/// Bytes per page in the simulated address space.
const PAGE_SIZE: u64 = 4096;

/// A restore strategy the scheduler can start a replica with.
///
/// Each gear maps onto one of the single-machine [`StartMode`]s with one
/// warm-up request baked in (the paper's PB-Warmup configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gear {
    /// fork-exec + full boot; no snapshot.
    Vanilla,
    /// Eager snapshot restore (copy every stored page up front).
    Eager,
    /// Lazy restore: map empty, demand-fault on first touch.
    Lazy,
    /// Copy-on-write restore from the shared page store.
    Cow,
    /// Working-set prefetch restore (REAP-style).
    Prefetch,
}

impl Gear {
    /// Every gear, in scheduling-preference-neutral order.
    pub const ALL: [Gear; 5] = [
        Gear::Vanilla,
        Gear::Eager,
        Gear::Lazy,
        Gear::Cow,
        Gear::Prefetch,
    ];

    /// The single-machine start mode this gear measures with.
    pub(crate) fn start_mode(self) -> StartMode {
        match self {
            Gear::Vanilla => StartMode::Vanilla,
            Gear::Eager => StartMode::PrebakeWarmup(1),
            Gear::Lazy => StartMode::PrebakeLazy,
            Gear::Cow => StartMode::PrebakeCow,
            Gear::Prefetch => StartMode::PrebakePrefetch,
        }
    }

    /// The gear's ordinal in [`Gear::ALL`] — a dense index for
    /// pre-registered per-gear metric arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            Gear::Vanilla => 0,
            Gear::Eager => 1,
            Gear::Lazy => 2,
            Gear::Cow => 3,
            Gear::Prefetch => 4,
        }
    }

    /// Short label used in reports and policy names.
    pub fn label(self) -> &'static str {
        match self {
            Gear::Vanilla => "vanilla",
            Gear::Eager => "eager",
            Gear::Lazy => "lazy",
            Gear::Cow => "cow",
            Gear::Prefetch => "prefetch",
        }
    }
}

/// What one gear costs one function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GearCost {
    /// Start command → ready to serve, milliseconds.
    pub cold_ms: f64,
    /// Service time of the first request on a fresh replica (lazy gears
    /// take their demand faults here), milliseconds.
    pub first_service_ms: f64,
    /// Steady-state service time of a warm replica, milliseconds.
    pub warm_service_ms: f64,
    /// Resident bytes one replica charges its worker.
    pub replica_mem_bytes: u64,
    /// Snapshot-image bytes cached once per worker holding the function
    /// (0 for vanilla; the shared-frame pool for CoW).
    pub image_bytes: u64,
}

impl GearCost {
    /// Start → first response: the latency a queued request pays when it
    /// has to wait for a cold start.
    pub(crate) fn cold_to_first_response_ms(&self) -> f64 {
        self.cold_ms + self.first_service_ms
    }
}

/// Per-function start-cost statistics across the measured gears.
#[derive(Debug, Clone)]
pub struct FunctionProfile {
    name: String,
    costs: BTreeMap<Gear, GearCost>,
}

impl FunctionProfile {
    /// Builds a profile from pre-computed costs (tests, what-if sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty — a function the scheduler cannot
    /// start at all is a configuration error.
    pub fn synthetic(name: &str, costs: &[(Gear, GearCost)]) -> FunctionProfile {
        assert!(!costs.is_empty(), "profile needs at least one gear");
        FunctionProfile {
            name: name.to_owned(),
            costs: costs.iter().copied().collect(),
        }
    }

    /// Measures `spec` under each gear with `reps` single-machine trials
    /// (medians are recorded), deterministic in `seed`.
    ///
    /// Memory accounting: eager-family gears keep the whole restored
    /// snapshot resident, so their replicas charge `snapshot_bytes`; the
    /// CoW gear keeps only broken (privately written) pages resident and
    /// charges the shared unique-frame pool once per worker as image
    /// bytes instead. Vanilla replicas are sized like an eager restore
    /// (the booted heap is the same memory) but cache no image.
    ///
    /// # Errors
    ///
    /// Propagates build/bake/trial errors.
    pub fn measure(
        spec: &FunctionSpec,
        gears: &[Gear],
        reps: usize,
        seed: u64,
    ) -> SysResult<FunctionProfile> {
        assert!(!gears.is_empty(), "profile needs at least one gear");
        let reps = reps.max(1);
        let mut costs = BTreeMap::new();
        // Vanilla trials report snapshot_bytes = 0; size their RSS like
        // an eager restore of the same function.
        let mut rss_proxy = 0u64;
        let mut measured = Vec::new();
        for &gear in gears {
            let runner = TrialRunner::new(spec.clone(), gear.start_mode())?;
            let trials = runner.startup_samples(reps, seed)?;
            let cold: Vec<f64> = trials.iter().map(|t| t.startup_ms).collect();
            let first: Vec<f64> = trials
                .iter()
                .map(|t| (t.first_response_ms - t.startup_ms).max(0.0))
                .collect();
            let service = runner.service_trial(seed, 6, SimDuration::from_millis(10))?;
            // Skip the first two responses: lazy gears still fault there.
            let warm: Vec<f64> = service.into_iter().skip(2).collect();
            let trial = trials[0];
            let (replica_mem, image) = match gear {
                Gear::Vanilla => (0, 0),
                Gear::Cow => (
                    trial.probes.cow_breaks * PAGE_SIZE,
                    trial.pages_unique as u64 * PAGE_SIZE,
                ),
                _ => (trial.snapshot_bytes, trial.snapshot_bytes),
            };
            rss_proxy = rss_proxy.max(trial.snapshot_bytes);
            measured.push((gear, cold, first, warm, replica_mem, image));
        }
        if rss_proxy == 0 {
            // Only vanilla was requested: bake once purely for sizing.
            let sizing = TrialRunner::new(spec.clone(), StartMode::PrebakeWarmup(1))?;
            rss_proxy = sizing.snapshot_bytes();
        }
        for (gear, cold, first, warm, replica_mem, image) in measured {
            costs.insert(
                gear,
                GearCost {
                    cold_ms: median(&cold),
                    first_service_ms: median(&first),
                    warm_service_ms: median(&warm),
                    replica_mem_bytes: if gear == Gear::Vanilla {
                        rss_proxy
                    } else {
                        replica_mem
                    },
                    image_bytes: image,
                },
            );
        }
        Ok(FunctionProfile {
            name: spec.name().to_owned(),
            costs,
        })
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cost of one gear, if measured.
    pub fn cost(&self, gear: Gear) -> Option<&GearCost> {
        self.costs.get(&gear)
    }

    /// Gears this profile covers, ascending.
    pub fn gears(&self) -> impl Iterator<Item = Gear> + '_ {
        self.costs.keys().copied()
    }

    /// The gear with the lowest start-to-first-response latency — what an
    /// adaptive start policy picks from observed stats. Ties break toward
    /// the lower-ordered gear, keeping selection deterministic.
    pub fn best_gear(&self) -> Gear {
        self.costs
            .iter()
            .min_by(|(ga, a), (gb, b)| {
                a.cold_to_first_response_ms()
                    .partial_cmp(&b.cold_to_first_response_ms())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ga.cmp(gb))
            })
            .map(|(&g, _)| g)
            .expect("profile is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_functions::SyntheticSize;

    fn cost(cold: f64, first: f64, warm: f64) -> GearCost {
        GearCost {
            cold_ms: cold,
            first_service_ms: first,
            warm_service_ms: warm,
            replica_mem_bytes: 10 << 20,
            image_bytes: 0,
        }
    }

    #[test]
    fn gear_modes_and_labels() {
        assert_eq!(Gear::Vanilla.start_mode(), StartMode::Vanilla);
        assert_eq!(Gear::Eager.start_mode(), StartMode::PrebakeWarmup(1));
        assert_eq!(Gear::Prefetch.start_mode(), StartMode::PrebakePrefetch);
        assert_eq!(Gear::Cow.label(), "cow");
        assert_eq!(Gear::ALL.len(), 5);
    }

    #[test]
    fn best_gear_minimises_cold_to_first_response() {
        let p = FunctionProfile::synthetic(
            "f",
            &[
                (Gear::Vanilla, cost(200.0, 30.0, 1.0)),
                (Gear::Eager, cost(50.0, 1.0, 1.0)),
                (Gear::Lazy, cost(10.0, 60.0, 1.0)),
            ],
        );
        assert_eq!(p.best_gear(), Gear::Eager);
        assert_eq!(p.gears().count(), 3);
        assert!((p.cost(Gear::Lazy).unwrap().cold_to_first_response_ms() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn best_gear_tie_breaks_deterministically() {
        let p = FunctionProfile::synthetic(
            "f",
            &[
                (Gear::Prefetch, cost(25.0, 5.0, 1.0)),
                (Gear::Cow, cost(25.0, 5.0, 1.0)),
            ],
        );
        assert_eq!(p.best_gear(), Gear::Cow, "lower-ordered gear wins ties");
    }

    #[test]
    #[should_panic(expected = "at least one gear")]
    fn empty_profile_panics() {
        FunctionProfile::synthetic("f", &[]);
    }

    #[test]
    fn measured_profile_orders_gears_sanely() {
        // One small function, two gears, few reps: the measured profile
        // must show prebake beating vanilla to first response and carry
        // real memory numbers.
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let p = FunctionProfile::measure(&spec, &[Gear::Vanilla, Gear::Eager], 2, 1).unwrap();
        let v = p.cost(Gear::Vanilla).unwrap();
        let e = p.cost(Gear::Eager).unwrap();
        assert!(
            e.cold_to_first_response_ms() < v.cold_to_first_response_ms(),
            "eager {} !< vanilla {}",
            e.cold_to_first_response_ms(),
            v.cold_to_first_response_ms()
        );
        assert!(e.replica_mem_bytes > 0);
        assert!(v.replica_mem_bytes > 0, "vanilla RSS sized from snapshot");
        assert_eq!(v.image_bytes, 0, "vanilla caches no image");
        assert!(e.image_bytes > 0);
        assert_eq!(p.best_gear(), Gear::Eager);
        assert_eq!(p.name(), spec.name());
    }

    #[test]
    fn cow_profile_charges_broken_pages_not_the_snapshot() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let p = FunctionProfile::measure(&spec, &[Gear::Eager, Gear::Cow], 2, 1).unwrap();
        let eager = p.cost(Gear::Eager).unwrap();
        let cow = p.cost(Gear::Cow).unwrap();
        assert!(
            cow.replica_mem_bytes < eager.replica_mem_bytes / 2,
            "CoW resident set ({}) must undercut the eager RSS ({})",
            cow.replica_mem_bytes,
            eager.replica_mem_bytes
        );
        assert!(cow.image_bytes > 0, "shared frame pool is charged");
        assert!(
            cow.image_bytes < eager.image_bytes,
            "dedup shrinks the CoW frame pool below the raw snapshot"
        );
    }
}
