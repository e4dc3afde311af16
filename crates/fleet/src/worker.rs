//! One worker node: replica slots, a memory budget, the charged
//! snapshot-image cache, and the node-local pull-through image cache.
//!
//! Memory accounting follows the dedup-aware image cache from
//! `prebake-criu`: a worker is charged for each resident replica
//! (`GearCost::replica_mem_bytes`) plus, once per `(function, gear)` it
//! hosts, the snapshot-image bytes of that gear
//! (`GearCost::image_bytes`). The charge is strictly node-local:
//! evicting the last replica of a `(function, gear)` on a node releases
//! *that node's* cached image bytes only — other nodes' charges (and
//! their [`NodeCache`] residency) are untouched. Cold starts contend
//! for a bounded set of concurrency slots, the same convoy model the
//! single-node platform uses.

use std::collections::BTreeMap;

use prebake_registry::NodeCache;
use prebake_sim::time::{SimDuration, SimInstant};

use crate::profile::Gear;

/// Lifecycle of a replica on a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplicaState {
    /// Restore/boot in flight; ready at the given instant.
    Starting {
        /// When the replica becomes ready.
        ready_at: SimInstant,
    },
    /// Ready and free.
    Idle {
        /// When it last became idle.
        since: SimInstant,
    },
    /// Serving a request until the given instant.
    Busy {
        /// When the in-flight request completes.
        until: SimInstant,
    },
}

/// A warm (or warming) function replica.
#[derive(Debug, Clone)]
pub(crate) struct Replica {
    /// Function the replica serves.
    pub function: String,
    /// Gear it was started with.
    pub gear: Gear,
    /// Lifecycle state.
    pub state: ReplicaState,
    /// Resident bytes charged to the worker.
    pub(crate) mem_bytes: u64,
    /// When the start was issued (cold-detection anchor).
    pub started_at: SimInstant,
    /// When the start began executing (after slot queueing).
    pub(crate) start_began: SimInstant,
    /// Ready instant (valid once past `Starting`).
    pub ready_at: SimInstant,
    /// Last instant the replica finished serving (or became ready).
    pub(crate) last_used: SimInstant,
    /// Requests served so far (the first one pays the gear's
    /// first-service cost).
    pub served: u64,
    /// Time this replica's cold start spent pulling its image from the
    /// snapshot registry (zero without a registry tier, on node-cache
    /// hits, and for image-less gears).
    pub pull_wait: SimDuration,
}

/// One `(function, gear)` image's node-local charge: the bytes it pins
/// and the number of resident replicas pinning it.
#[derive(Debug, Clone, Copy)]
struct ImageCharge {
    bytes: u64,
    replicas: u32,
}

/// One worker node.
#[derive(Debug)]
pub(crate) struct Worker {
    /// Worker index in the fleet.
    pub id: usize,
    /// Memory budget in bytes.
    pub(crate) mem_budget: u64,
    /// Live replicas by id.
    pub replicas: BTreeMap<u64, Replica>,
    /// Node-local image charges, one per resident `(function, gear)`.
    image_charges: BTreeMap<(String, Gear), ImageCharge>,
    /// Busy-until times of in-flight cold starts (≤ concurrency).
    slots: Vec<SimInstant>,
    /// Highest memory-in-use observed.
    pub(crate) mem_high_water: u64,
    /// Node-local pull-through snapshot cache (registry tier).
    pub cache: NodeCache,
}

impl Worker {
    /// An empty worker.
    pub(crate) fn new(id: usize, mem_budget: u64) -> Worker {
        Worker {
            id,
            mem_budget,
            replicas: BTreeMap::new(),
            image_charges: BTreeMap::new(),
            slots: Vec::new(),
            mem_high_water: 0,
            cache: NodeCache::new(),
        }
    }

    /// Bytes currently charged: resident replicas + cached images.
    pub(crate) fn mem_in_use(&self) -> u64 {
        self.replicas.values().map(|r| r.mem_bytes).sum::<u64>()
            + self.image_charges.values().map(|c| c.bytes).sum::<u64>()
    }

    /// Extra bytes starting `function` with `gear` would charge (the
    /// image is charged only once per `(function, gear)` per node).
    pub(crate) fn charge_for(
        &self,
        function: &str,
        gear: Gear,
        replica_mem: u64,
        image_bytes: u64,
    ) -> u64 {
        let image = if self
            .image_charges
            .contains_key(&(function.to_owned(), gear))
        {
            0
        } else {
            image_bytes
        };
        replica_mem + image
    }

    /// Whether `extra` more bytes fit in the budget.
    pub(crate) fn fits(&self, extra: u64) -> bool {
        self.mem_in_use() + extra <= self.mem_budget
    }

    /// Live replicas (any state) of `function`.
    pub(crate) fn replicas_of(&self, function: &str) -> usize {
        self.replicas
            .values()
            .filter(|r| r.function == function)
            .count()
    }

    /// Adds a replica under `id`, charging its memory (and its
    /// `(function, gear)` image on this node's first use). Updates the
    /// high-water mark.
    pub(crate) fn add_replica(&mut self, id: u64, replica: Replica, image_bytes: u64) {
        let charge = self
            .image_charges
            .entry((replica.function.clone(), replica.gear))
            .or_insert(ImageCharge {
                bytes: image_bytes,
                replicas: 0,
            });
        charge.replicas += 1;
        self.replicas.insert(id, replica);
        self.mem_high_water = self.mem_high_water.max(self.mem_in_use());
    }

    /// Removes a replica, releasing its memory. The `(function, gear)`
    /// image charge is released with the node's last replica of that
    /// pair — and only on this node: a sibling node holding the same
    /// function keeps its own charge.
    pub(crate) fn remove_replica(&mut self, id: u64) -> Option<Replica> {
        let replica = self.replicas.remove(&id)?;
        let key = (replica.function.clone(), replica.gear);
        if let Some(charge) = self.image_charges.get_mut(&key) {
            charge.replicas = charge.replicas.saturating_sub(1);
            if charge.replicas == 0 {
                self.image_charges.remove(&key);
            }
        }
        Some(replica)
    }

    /// Ids of idle replicas, least-recently-used first (stable on ties by
    /// replica id, so eviction order is deterministic).
    pub(crate) fn idle_lru(&self) -> Vec<u64> {
        let mut idle: Vec<(SimInstant, u64)> = self
            .replicas
            .iter()
            .filter(|(_, r)| matches!(r.state, ReplicaState::Idle { .. }))
            .map(|(&id, r)| (r.last_used, id))
            .collect();
        idle.sort();
        idle.into_iter().map(|(_, id)| id).collect()
    }

    /// Idle replicas (least-recently-used first) whose removal would let
    /// a new replica of `function`/`gear` fit — accounting for the
    /// node-local image charge a `(function, gear)` releases with its
    /// last replica on *this* node, and for the new replica's own image
    /// becoming chargeable if this worker's copies of the same pair are
    /// all evicted. Returns `None` when even a full idle purge would
    /// not make room.
    pub(crate) fn pressure_victims(
        &self,
        function: &str,
        gear: Gear,
        replica_mem: u64,
        image_bytes: u64,
    ) -> Option<Vec<u64>> {
        let mut remaining: BTreeMap<(&str, Gear), usize> = BTreeMap::new();
        for r in self.replicas.values() {
            *remaining.entry((r.function.as_str(), r.gear)).or_insert(0) += 1;
        }
        let fits = |in_use: u64, remaining: &BTreeMap<(&str, Gear), usize>| {
            // The image rides free only while this node still holds
            // another replica of the same (function, gear); evicting the
            // last one releases the node's charge, and the newcomer pays
            // it afresh.
            let image = if remaining.get(&(function, gear)).copied().unwrap_or(0) > 0 {
                0
            } else {
                image_bytes
            };
            in_use + replica_mem + image <= self.mem_budget
        };
        let mut in_use = self.mem_in_use();
        let mut victims = Vec::new();
        if fits(in_use, &remaining) {
            return Some(victims);
        }
        for id in self.idle_lru() {
            let r = &self.replicas[&id];
            in_use -= r.mem_bytes;
            let count = remaining
                .get_mut(&(r.function.as_str(), r.gear))
                .expect("victim counted");
            *count -= 1;
            if *count == 0 {
                in_use -= self
                    .image_charges
                    .get(&(r.function.clone(), r.gear))
                    .map_or(0, |c| c.bytes);
            }
            victims.push(id);
            if fits(in_use, &remaining) {
                return Some(victims);
            }
        }
        None
    }

    /// Reserves a cold-start slot: starts immediately while fewer than
    /// `concurrency` starts are in flight, else queues behind the
    /// earliest-finishing one. Returns `(slot index, start instant)`.
    pub(crate) fn reserve_slot(
        &mut self,
        now: SimInstant,
        concurrency: usize,
    ) -> (usize, SimInstant) {
        let cap = concurrency.max(1);
        if self.slots.len() < cap {
            self.slots.push(now);
            return (self.slots.len() - 1, now);
        }
        let (idx, &busy_until) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.as_nanos())
            .expect("slots non-empty");
        (idx, busy_until.max(now))
    }

    /// Marks a reserved slot busy until `ready_at`.
    pub(crate) fn occupy_slot(&mut self, slot: usize, ready_at: SimInstant) {
        self.slots[slot] = ready_at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(function: &str, mem: u64, last_used_ms: u64) -> Replica {
        let t = SimInstant::from_nanos(last_used_ms * 1_000_000);
        Replica {
            function: function.to_owned(),
            gear: Gear::Eager,
            state: ReplicaState::Idle { since: t },
            mem_bytes: mem,
            started_at: SimInstant::EPOCH,
            start_began: SimInstant::EPOCH,
            ready_at: t,
            last_used: t,
            served: 0,
            pull_wait: SimDuration::ZERO,
        }
    }

    #[test]
    fn memory_accounting_charges_image_once() {
        let mut w = Worker::new(0, 1000);
        assert_eq!(w.charge_for("f", Gear::Eager, 100, 300), 400);
        w.add_replica(1, replica("f", 100, 1), 300);
        assert_eq!(w.mem_in_use(), 400);
        // Second replica of the same function+gear: image already cached.
        assert_eq!(w.charge_for("f", Gear::Eager, 100, 300), 100);
        w.add_replica(2, replica("f", 100, 2), 300);
        assert_eq!(w.mem_in_use(), 500);
        assert_eq!(w.mem_high_water, 500);
        assert!(w.fits(500));
        assert!(!w.fits(501));
        assert_eq!(w.replicas_of("f"), 2);

        // Image charge survives the first removal, goes with the last.
        w.remove_replica(1).unwrap();
        assert_eq!(w.mem_in_use(), 400);
        w.remove_replica(2).unwrap();
        assert_eq!(w.mem_in_use(), 0);
        assert_eq!(
            w.charge_for("f", Gear::Eager, 100, 300),
            400,
            "image re-charged"
        );
        assert_eq!(w.mem_high_water, 500, "high water persists");
    }

    #[test]
    fn image_charges_are_per_gear_not_per_function() {
        // Regression: charges used to be keyed by function alone, so a
        // second gear of the same function rode the first gear's (wrong)
        // charge — and removing the first gear's last replica dropped
        // the charge out from under the survivor.
        let mut w = Worker::new(0, u64::MAX);
        w.add_replica(1, replica("f", 100, 1), 300); // eager, 300B image
        let mut cow = replica("f", 10, 2);
        cow.gear = Gear::Cow;
        assert_eq!(
            w.charge_for("f", Gear::Cow, 10, 120),
            130,
            "a different gear's image is a different artifact"
        );
        w.add_replica(2, cow, 120);
        assert_eq!(w.mem_in_use(), 100 + 300 + 10 + 120);

        // Dropping the eager replica releases the eager image only.
        w.remove_replica(1).unwrap();
        assert_eq!(w.mem_in_use(), 10 + 120, "cow image charge survives");
        w.remove_replica(2).unwrap();
        assert_eq!(w.mem_in_use(), 0);
    }

    #[test]
    fn last_replica_eviction_releases_only_that_nodes_image_bytes() {
        // Regression: the image charge is node-local, not cluster-wide.
        // Two nodes each hold a replica of `f`; reaping node 0's last
        // copy must release node 0's 300 image bytes and leave node 1's
        // accounting untouched.
        let mut node0 = Worker::new(0, 1000);
        let mut node1 = Worker::new(1, 1000);
        node0.add_replica(1, replica("f", 100, 1), 300);
        node1.add_replica(2, replica("f", 100, 1), 300);
        assert_eq!(node0.mem_in_use(), 400);
        assert_eq!(node1.mem_in_use(), 400);

        node0.remove_replica(1).unwrap();
        assert_eq!(node0.mem_in_use(), 0, "node 0 released its image bytes");
        assert_eq!(node1.mem_in_use(), 400, "node 1 still charged");
        assert_eq!(
            node1.charge_for("f", Gear::Eager, 100, 300),
            100,
            "node 1's image is still cached"
        );
        assert_eq!(
            node0.charge_for("f", Gear::Eager, 100, 300),
            400,
            "node 0 would pay the image afresh"
        );
    }

    #[test]
    fn idle_lru_orders_by_last_used() {
        let mut w = Worker::new(0, u64::MAX);
        w.add_replica(1, replica("a", 10, 30), 0);
        w.add_replica(2, replica("b", 10, 10), 0);
        let mut busy = replica("c", 10, 5);
        busy.state = ReplicaState::Busy {
            until: SimInstant::from_nanos(u64::MAX),
        };
        w.add_replica(3, busy, 0);
        assert_eq!(w.idle_lru(), vec![2, 1], "busy replicas are not victims");
    }

    #[test]
    fn pressure_victims_account_for_released_image_charges() {
        let mut w = Worker::new(0, 200);
        // Two replicas of `f` (10 bytes each) share a 100-byte image;
        // one replica of `g` (20 bytes) carries a 50-byte image.
        w.add_replica(1, replica("f", 10, 1), 100);
        w.add_replica(2, replica("f", 10, 2), 100);
        w.add_replica(3, replica("g", 20, 3), 50);
        assert_eq!(w.mem_in_use(), 190);

        // A 40+60 newcomer needs 100 free. Evicting replica 1 frees only
        // its 10 resident bytes; evicting replica 2 also releases `f`'s
        // 100-byte image — which is what makes the placement fit.
        assert_eq!(
            w.pressure_victims("h", Gear::Eager, 40, 60).unwrap(),
            vec![1, 2]
        );

        // Fits without eviction: no victims.
        assert!(w
            .pressure_victims("g", Gear::Eager, 5, 0)
            .unwrap()
            .is_empty());

        // Evicting every copy of the incoming function+gear re-charges
        // its own image: [1, 2] frees 120 but `f` then pays its 100
        // back, so the purge must continue into `g`.
        assert_eq!(
            w.pressure_victims("f", Gear::Eager, 50, 100).unwrap(),
            vec![1, 2, 3]
        );

        // The incoming function under a *different* gear gets no free
        // ride from `f`'s resident eager image: its own image is a
        // distinct artifact, so the same purge depth is required.
        assert_eq!(
            w.pressure_victims("f", Gear::Cow, 50, 100).unwrap(),
            vec![1, 2, 3]
        );

        // A replica bigger than the whole budget can never fit.
        assert!(w.pressure_victims("h", Gear::Eager, 500, 0).is_none());
    }

    #[test]
    fn slots_convoy_concurrent_starts() {
        let mut w = Worker::new(0, u64::MAX);
        let now = SimInstant::EPOCH;
        let (s0, t0) = w.reserve_slot(now, 2);
        w.occupy_slot(s0, now + prebake_sim::time::SimDuration::from_millis(100));
        let (s1, t1) = w.reserve_slot(now, 2);
        w.occupy_slot(s1, now + prebake_sim::time::SimDuration::from_millis(120));
        assert_eq!(t0, now);
        assert_eq!(t1, now);
        assert_ne!(s0, s1);
        // Third start queues behind the earliest-finishing slot.
        let (s2, t2) = w.reserve_slot(now, 2);
        assert_eq!(s2, s0);
        assert_eq!(
            t2,
            now + prebake_sim::time::SimDuration::from_millis(100),
            "start deferred to slot release"
        );
    }
}
