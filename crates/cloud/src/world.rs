//! The cloud a simulated world owns.
//!
//! A run's world owns one [`Cloud`]: the cluster, the FaaS platforms, the
//! object store and the one expense meter they all charge. Mechanisms reach
//! it through [`CloudWorld::cloud`], so an event holds only ids (a link, a
//! platform tier, a run's slab key) and finds the state they name in the
//! `&mut` world the engine lends it.
//!
//! The cloud's events are [`CloudEvent`] values; a world's event type wraps
//! them (`From<CloudEvent>`) and hands them back to
//! [`CloudEvent::dispatch`]. A finished cluster or FaaS run reports to the
//! world through [`CloudWorld::cluster_done`] / [`CloudWorld::faas_done`],
//! with the tag its driver chose when it started the run. Cluster and FaaS
//! runs carry tags of their own types, so a world that never starts one
//! kind names it `Infallible` and its hook is `match tag {}`.

use crate::cluster::{ClusterConfig, ClusterRun, ClusterRunStats, VmCluster};
use crate::cost::CostMeter;
use crate::event::CloudEvent;
use crate::exec::{Chain, FaasRun, FaasRunStats};
use crate::faas::FaasPlatform;
use crate::fault::Fault;
use crate::pricing::{FaasConfig, StorageConfig};
use crate::storage::ObjectStore;
use mashup_sim::{Model, SeedSource, Simulation, Tracer};
use std::collections::BTreeMap;

/// A simulated world that owns a [`Cloud`]: the one accessor every cloud
/// mechanism goes through, and the two places finished runs report to.
pub trait CloudWorld: Model<Event: From<CloudEvent>> + Send + 'static {
    /// What a driver attaches to a cluster run it starts, to recognise the
    /// run when it finishes (the executor's task ref, for example).
    type ClusterTag: Send + 'static;

    /// What a driver attaches to a FaaS run it starts.
    type FaasTag: Send + 'static;

    /// The world's cloud services.
    fn cloud(&mut self) -> &mut Cloud<Self>;

    /// The last component of the cluster run started with `tag` finished,
    /// inside the event that finished it.
    fn cluster_done(
        &mut self,
        sim: &mut Simulation<Self>,
        tag: Self::ClusterTag,
        stats: ClusterRunStats,
    );

    /// The last component chain of the FaaS run started with `tag`
    /// finished, inside the event that finished it.
    fn faas_done(&mut self, sim: &mut Simulation<Self>, tag: Self::FaasTag, stats: FaasRunStats);
}

/// The cloud services of one run, owned by its world `W`.
pub struct Cloud<W: CloudWorld> {
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
    /// Per-component invocation chains of serverless runs in flight.
    pub(crate) chains: Slab<Chain>,
    /// The installed fault plan's faults with their ids, addressed by the
    /// index their events carry.
    pub(crate) faults: Vec<(u64, Fault)>,
}

impl<W: CloudWorld> Cloud<W> {
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
            chains: Slab::default(),
            faults: Vec::new(),
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

    /// The platform of tier `tier`, mutably (see [`platform`](Self::platform)).
    pub fn platform_mut(&mut self, tier: Option<u32>) -> &mut FaasPlatform {
        self.serverless(tier).0
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

/// Values addressed by a `u32` key that stays valid until removed; freed
/// keys are reused. Events carry these keys, not the values.
pub(crate) struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<u32>,
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
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(key) => {
                self.entries[key as usize] = Some(value);
                key
            }
            None => {
                self.entries.push(Some(value));
                u32::try_from(self.entries.len() - 1).expect("slab key overflow")
            }
        }
    }

    pub(crate) fn get(&self, key: u32) -> &T {
        self.entries[key as usize].as_ref().expect("live slab key")
    }

    pub(crate) fn get_mut(&mut self, key: u32) -> &mut T {
        self.entries[key as usize].as_mut().expect("live slab key")
    }

    pub(crate) fn remove(&mut self, key: u32) -> T {
        let value = self.entries[key as usize].take().expect("live slab key");
        self.free.push(key);
        value
    }
}

/// A minimal world for unit tests: a cloud, the stats of every finished
/// run, and whatever else the test collects. Its own events are boxed
/// closures.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    pub(crate) struct World<T: Send + 'static> {
        pub(crate) cloud: Cloud<World<T>>,
        pub(crate) clusters: Vec<ClusterRunStats>,
        pub(crate) faas: Vec<FaasRunStats>,
        pub(crate) out: T,
    }

    /// A closure event over the test world.
    pub(crate) type Call<T> = Box<dyn FnOnce(&mut World<T>, &mut Simulation<World<T>>) + Send>;

    pub(crate) enum Event<T: Send + 'static> {
        Cloud(CloudEvent),
        Call(Call<T>),
    }

    impl<T: Send + 'static> From<CloudEvent> for Event<T> {
        fn from(e: CloudEvent) -> Self {
            Event::Cloud(e)
        }
    }

    /// An event running `f`.
    pub(crate) fn call<T: Send + 'static>(
        f: impl FnOnce(&mut World<T>, &mut Simulation<World<T>>) + Send + 'static,
    ) -> Event<T> {
        Event::Call(Box::new(f))
    }

    impl<T: Send + 'static> Model for World<T> {
        type Event = Event<T>;

        fn handle(&mut self, event: Event<T>, sim: &mut Simulation<Self>) {
            match event {
                Event::Cloud(e) => e.dispatch(self, sim),
                Event::Call(f) => f(self, sim),
            }
        }
    }

    impl<T: Send + 'static> CloudWorld for World<T> {
        type ClusterTag = ();
        type FaasTag = ();

        fn cloud(&mut self) -> &mut Cloud<Self> {
            &mut self.cloud
        }

        fn cluster_done(&mut self, _: &mut Simulation<Self>, (): (), stats: ClusterRunStats) {
            self.clusters.push(stats);
        }

        fn faas_done(&mut self, _: &mut Simulation<Self>, (): (), stats: FaasRunStats) {
            self.faas.push(stats);
        }
    }

    /// A fresh engine and world over the given services.
    pub(crate) fn world<T: Default + Send + 'static>(
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
                clusters: Vec::new(),
                faas: Vec::new(),
                out: T::default(),
            },
        )
    }
}
