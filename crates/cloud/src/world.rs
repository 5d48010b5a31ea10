//! The cloud a simulated world owns.
//!
//! A run's world owns one [`Cloud`]: the cluster, the FaaS platforms, the
//! object store and the one expense meter they all charge. Mechanisms reach
//! it through [`CloudWorld::cloud`], so an event holds only ids (a link, a
//! platform tier, a run's slab key) and finds the state they name in the
//! `&mut` world the engine lends it.

use crate::cluster::{ClusterConfig, ClusterRun, VmCluster};
use crate::cost::CostMeter;
use crate::exec::FaasRun;
use crate::faas::FaasPlatform;
use crate::pricing::{FaasConfig, StorageConfig};
use crate::storage::ObjectStore;
use mashup_sim::{SeedSource, Simulation, Tracer};
use std::collections::BTreeMap;

/// A simulated world that owns a [`Cloud`]: the one accessor every cloud
/// mechanism goes through.
pub trait CloudWorld: Sized + Send + 'static {
    /// The world's cloud services.
    fn cloud(&mut self) -> &mut Cloud<Self>;
}

/// The cloud services of one run, owned by its world `W`.
pub struct Cloud<W> {
    /// The VM cluster.
    pub cluster: VmCluster,
    /// The base-tier serverless platform.
    pub faas: FaasPlatform,
    /// Extra serverless platforms for non-base memory tiers, keyed by tier
    /// MiB (see [`Cloud::add_tier`]).
    pub tiers: BTreeMap<u32, FaasPlatform>,
    /// The object store.
    pub store: ObjectStore,
    /// The expense meter every service charges.
    pub meter: CostMeter,
    /// Per-task accumulators of cluster runs in flight.
    pub(crate) cluster_runs: Slab<ClusterRun<W>>,
    /// Per-task accumulators of serverless runs in flight.
    pub(crate) faas_runs: Slab<FaasRun<W>>,
}

impl<W> Cloud<W> {
    /// Builds the services, adding their links to `sim`.
    pub fn new(
        sim: &mut Simulation<W>,
        cluster: ClusterConfig,
        faas: FaasConfig,
        storage: StorageConfig,
        seeds: &SeedSource,
    ) -> Self {
        Cloud {
            cluster: VmCluster::new(cluster, sim, seeds),
            faas: FaasPlatform::new(faas, seeds),
            tiers: BTreeMap::new(),
            store: ObjectStore::new(storage, sim, seeds),
            meter: CostMeter::new(),
            cluster_runs: Slab::default(),
            faas_runs: Slab::default(),
        }
    }

    /// Adds the serverless platform of memory tier `key` (MiB); its
    /// stochastic streams derive from `seeds`. A key already present is
    /// left alone.
    pub fn add_tier(&mut self, key: u32, cfg: FaasConfig, seeds: &SeedSource) {
        self.tiers
            .entry(key)
            .or_insert_with(|| FaasPlatform::new(cfg, seeds).with_tier(key));
    }

    /// The platform of tier `tier`: its own when one was added, the base
    /// platform otherwise (and for `None`).
    pub fn platform(&self, tier: Option<u32>) -> &FaasPlatform {
        tier.and_then(|k| self.tiers.get(&k)).unwrap_or(&self.faas)
    }

    /// [`platform`](Self::platform) together with the store and the meter
    /// an invocation's I/O and billing use.
    pub(crate) fn serverless(
        &mut self,
        tier: Option<u32>,
    ) -> (&mut FaasPlatform, &mut ObjectStore, &mut CostMeter) {
        let Cloud {
            faas,
            tiers,
            store,
            meter,
            ..
        } = self;
        let platform = match tier.and_then(|k| tiers.get_mut(&k)) {
            Some(p) => p,
            None => faas,
        };
        (platform, store, meter)
    }

    /// Attaches one flight recorder to every service. Emission never
    /// touches simulated state, so a traced run is byte-identical to an
    /// untraced one.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.cluster.set_tracer(tracer.clone());
        self.faas.set_tracer(tracer.clone());
        for platform in self.tiers.values_mut() {
            platform.set_tracer(tracer.clone());
        }
        self.store.set_tracer(tracer.clone());
    }
}

/// Values addressed by a `usize` key that stays valid until removed; freed
/// keys are reused.
pub(crate) struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    pub(crate) fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(key) => {
                self.entries[key] = Some(value);
                key
            }
            None => {
                self.entries.push(Some(value));
                self.entries.len() - 1
            }
        }
    }

    pub(crate) fn get_mut(&mut self, key: usize) -> &mut T {
        self.entries[key].as_mut().expect("live slab key")
    }

    pub(crate) fn remove(&mut self, key: usize) -> T {
        let value = self.entries[key].take().expect("live slab key");
        self.free.push(key);
        value
    }
}

/// A minimal world for unit tests: a cloud and whatever the test collects.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    pub(crate) struct World<T> {
        pub(crate) cloud: Cloud<World<T>>,
        pub(crate) out: T,
    }

    impl<T: Send + 'static> CloudWorld for World<T> {
        fn cloud(&mut self) -> &mut Cloud<Self> {
            &mut self.cloud
        }
    }

    /// A fresh engine and world over the given services.
    pub(crate) fn world<T: Default>(
        cluster: ClusterConfig,
        faas: FaasConfig,
        storage: StorageConfig,
        seeds: &SeedSource,
    ) -> (Simulation<World<T>>, World<T>) {
        let mut sim = Simulation::new();
        let cloud = Cloud::new(&mut sim, cluster, faas, storage, seeds);
        (
            sim,
            World {
                cloud,
                out: T::default(),
            },
        )
    }
}
