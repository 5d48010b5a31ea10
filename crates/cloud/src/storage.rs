//! The remote object store (S3-like).
//!
//! Hybrid execution exchanges all cross-platform data through this store
//! (paper §3: "the only way serverless functions can share data among
//! multiple phases is to communicate via external remote storage").
//!
//! Timing and correctness are handled at two levels:
//!
//! * **byte flows** — [`ObjectStore::read`]/[`ObjectStore::write`] move
//!   bytes over a max-min fair-share data-plane link with per-request
//!   latency and optional per-flow caps (a Lambda's NIC, a cluster's WAN),
//!   so aggregate-bandwidth contention between hundreds of concurrent
//!   functions emerges naturally;
//! * **keyed objects** — executors register logical objects
//!   ([`ObjectStore::register_object`]) so occupancy cost is metered and
//!   consumers can assert their producers' data exists
//!   ([`ObjectStore::assert_present`]), catching scheduling bugs. An
//!   object's key is an id ([`ObjectKey`]); its text is rendered from the
//!   run's workflow, which the calls that need it take, only for trace
//!   records, a failed presence check and the order in which occupancy
//!   settles.
//!
//! GET failure injection exercises the replica-recovery path: a failed
//! attempt retries from a replica after an extra round trip.

use crate::cost::CostMeter;
use crate::fault::StoreFault;
use crate::pricing::StorageConfig;
use mashup_dag::{TaskRef, Workflow};
use mashup_sim::trace::{TraceEvent, Tracer};
use mashup_sim::{LinkId, Model, SeedSource, SimDuration, SimTime, Simulation};
use rand::Rng;
use std::collections::BTreeMap;

/// A logical object the store accounts for, in a run of one workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObjectKey {
    /// The run's staged input dataset: `initial:{workflow}`.
    Input,
    /// The output of a task of the run's workflow: `out:{task}`.
    Output(TaskRef),
}

impl ObjectKey {
    /// The text of this key in a run of `w`, as a prefix and a rest. The
    /// two prefixes differ in their first byte, so comparing these pairs
    /// orders keys as their whole texts do.
    fn parts(self, w: &Workflow) -> (&'static str, &str) {
        match self {
            ObjectKey::Input => ("initial:", &w.name),
            ObjectKey::Output(r) => ("out:", &w.task(r).name),
        }
    }

    /// This key's slot in the store's registry for a run of `w`: 0 for the
    /// input, one past its flat id for a task's output.
    fn slot(self, w: &Workflow) -> usize {
        match self {
            ObjectKey::Input => 0,
            ObjectKey::Output(r) => 1 + w.arena().flat(r).expect("task of the run's workflow"),
        }
    }

    /// The key in `slot` of the registry for a run of `w`.
    fn of_slot(slot: usize, w: &Workflow) -> Self {
        match slot {
            0 => ObjectKey::Input,
            s => ObjectKey::Output(w.arena().task_ref(s - 1)),
        }
    }

    /// The text of this key in a run of `w`, as trace records print it.
    fn text(self, w: &Workflow) -> String {
        let (prefix, rest) = self.parts(w);
        format!("{prefix}{rest}")
    }
}

/// Chaos fault machinery: active windows plus a dedicated RNG stream, so
/// injected error draws never perturb the store's native failure stream.
struct StoreChaos {
    active: BTreeMap<u64, StoreFault>,
    rng: rand::rngs::StdRng,
}

/// An S3-like object store.
pub struct ObjectStore {
    cfg: StorageConfig,
    /// The data-plane link in the simulation's arena.
    link: LinkId,
    /// Registered objects' bytes and put time, by [slot](ObjectKey::slot):
    /// sized once per run, at the first registration, to the workflow's
    /// task count plus the input.
    objects: Vec<Option<(f64, SimTime)>>,
    bytes_stored: f64,
    peak_bytes: f64,
    reads: u64,
    injected_failures: u64,
    tracer: Tracer,
    chaos: Option<StoreChaos>,
    rng: rand::rngs::StdRng,
}

impl ObjectStore {
    /// Creates a store with the given configuration, adding its data-plane
    /// link to `sim`.
    pub fn new<W: Model>(cfg: StorageConfig, sim: &mut Simulation<W>, seeds: &SeedSource) -> Self {
        ObjectStore {
            link: sim.add_link("object-store", cfg.aggregate_bps),
            rng: seeds.stream("object-store"),
            cfg,
            objects: Vec::new(),
            bytes_stored: 0.0,
            peak_bytes: 0.0,
            reads: 0,
            injected_failures: 0,
            tracer: Tracer::off(),
            chaos: None,
        }
    }

    /// Arms the chaos machinery with its own RNG stream derived from a
    /// fault-plan seed. Idempotent; without this call (the default) the
    /// chaos path costs one check per operation and changes nothing.
    pub fn enable_chaos(&mut self, seed: u64) {
        if self.chaos.is_none() {
            self.chaos = Some(StoreChaos {
                active: BTreeMap::new(),
                rng: SeedSource::new(seed).stream("chaos-store"),
            });
        }
    }

    /// Activates an injected fault window (requires [`enable_chaos`]
    /// first). Emits a `FaultInjected` record so retries can chain to it.
    ///
    /// [`enable_chaos`]: ObjectStore::enable_chaos
    pub fn apply_fault(&mut self, now: SimTime, id: u64, fault: StoreFault, until_secs: f64) {
        self.chaos
            .as_mut()
            .expect("enable_chaos before apply_fault")
            .active
            .insert(id, fault);
        self.tracer.emit(
            now,
            TraceEvent::FaultInjected {
                id,
                kind: fault.kind().into(),
                until_secs,
                magnitude: fault.magnitude(),
            },
        );
    }

    /// Deactivates an injected fault window.
    pub fn clear_fault(&mut self, id: u64) {
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.active.remove(&id);
        }
    }

    /// Snapshot of the active chaos windows (empty when chaos is off).
    fn active_faults(&self) -> Vec<(u64, StoreFault)> {
        self.chaos.as_ref().map_or_else(Vec::new, |c| {
            c.active.iter().map(|(k, v)| (*k, *v)).collect()
        })
    }

    /// One draw from the chaos RNG stream.
    fn chaos_draw(&mut self) -> f64 {
        self.chaos.as_mut().expect("chaos active").rng.gen::<f64>()
    }

    /// Attaches a flight recorder; GET/PUT request batches and logical object
    /// lifecycle flow through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The store configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.cfg
    }

    /// Reads `bytes` spread over `requests` GET requests, under an optional
    /// per-flow bandwidth cap, charging `meter`. `on_done` is handed to the
    /// world when the last byte lands; a caller that needs the wall time
    /// notes the instant it issued the read.
    ///
    /// With failure injection enabled, a failed first attempt retries from a
    /// replica after an extra request round trip.
    pub fn read<W: Model>(
        &mut self,
        meter: &mut CostMeter,
        sim: &mut Simulation<W>,
        bytes: f64,
        requests: u64,
        per_flow_cap: Option<f64>,
        on_done: W::Event,
    ) {
        let begin = sim.now();
        self.reads += requests;
        meter.charge_storage_requests(requests, self.cfg.price_per_get);
        let mut latency = self.cfg.request_latency_secs;
        let mut retried = false;
        if self.cfg.get_failure_prob > 0.0 {
            let failed = self.rng.gen::<f64>() < self.cfg.get_failure_prob;
            if failed {
                // One failed round trip, then the replica answers.
                self.injected_failures += 1;
                meter.charge_storage_requests(requests, self.cfg.price_per_get);
                latency += 2.0 * self.cfg.request_latency_secs;
                retried = true;
            }
        }
        // Injected chaos windows: latency spikes stack, degradation caps
        // the flow, and at most one error window triggers the same
        // replica-retry path as native failure injection (re-billed, so
        // the cost oracle's retried-GET doubling stays exact).
        let mut cap = per_flow_cap;
        let mut chaos_retry = None;
        for (id, f) in self.active_faults() {
            match f {
                StoreFault::Error { prob } => {
                    if chaos_retry.is_none() && !retried && self.chaos_draw() < prob {
                        chaos_retry = Some(id);
                    }
                }
                StoreFault::Latency { extra_secs } => latency += extra_secs,
                StoreFault::Degrade { factor } => {
                    let degraded = self.cfg.aggregate_bps * factor;
                    cap = Some(cap.map_or(degraded, |c| c.min(degraded)));
                }
            }
        }
        if let Some(id) = chaos_retry {
            self.injected_failures += 1;
            meter.charge_storage_requests(requests, self.cfg.price_per_get);
            latency += 2.0 * self.cfg.request_latency_secs;
            retried = true;
            self.tracer.emit(
                begin,
                TraceEvent::FaultRetry {
                    id,
                    op: "get".into(),
                },
            );
        }
        self.tracer.emit(
            begin,
            TraceEvent::StoreGet {
                bytes,
                requests,
                retried,
            },
        );
        let latency = SimDuration::from_secs(latency);
        sim.start_transfer_in(latency, self.link, bytes, cap, on_done);
    }

    /// Writes `bytes` spread over `requests` PUT requests, under an optional
    /// per-flow cap, charging `meter`; `on_done` is handed to the world when
    /// the last byte lands. Requests are charged for every replica.
    pub fn write<W: Model>(
        &mut self,
        meter: &mut CostMeter,
        sim: &mut Simulation<W>,
        bytes: f64,
        requests: u64,
        per_flow_cap: Option<f64>,
        on_done: W::Event,
    ) {
        let begin = sim.now();
        meter.charge_storage_requests(requests * self.cfg.replicas as u64, self.cfg.price_per_put);
        // Injected chaos windows. A failed PUT is retried against the same
        // replica set after an extra round trip; providers do not bill the
        // failed attempt, so only latency is added here.
        let mut latency = self.cfg.request_latency_secs;
        let mut cap = per_flow_cap;
        let mut chaos_retry = None;
        for (id, f) in self.active_faults() {
            match f {
                StoreFault::Error { prob } => {
                    if chaos_retry.is_none() && self.chaos_draw() < prob {
                        chaos_retry = Some(id);
                    }
                }
                StoreFault::Latency { extra_secs } => latency += extra_secs,
                StoreFault::Degrade { factor } => {
                    let degraded = self.cfg.aggregate_bps * factor;
                    cap = Some(cap.map_or(degraded, |c| c.min(degraded)));
                }
            }
        }
        if let Some(id) = chaos_retry {
            self.injected_failures += 1;
            latency += 2.0 * self.cfg.request_latency_secs;
            self.tracer.emit(
                begin,
                TraceEvent::FaultRetry {
                    id,
                    op: "put".into(),
                },
            );
        }
        self.tracer.emit(
            begin,
            TraceEvent::StorePut {
                bytes,
                requests,
                replicas: self.cfg.replicas as u64,
            },
        );
        let latency = SimDuration::from_secs(latency);
        sim.start_transfer_in(latency, self.link, bytes, cap, on_done);
    }

    /// Registers a logical object of a run of `w` for occupancy
    /// accounting and presence checks. Overwriting an existing key first
    /// settles its occupancy.
    pub fn register_object(
        &mut self,
        meter: &mut CostMeter,
        now: SimTime,
        key: ObjectKey,
        bytes: f64,
        w: &Workflow,
    ) {
        let slot = key.slot(w);
        if self.objects.len() <= slot {
            self.objects.resize(w.task_count() + 1, None);
        }
        if let Some((old_bytes, put_at)) = self.objects[slot].take() {
            self.bytes_stored -= old_bytes;
            let held = now.saturating_since(put_at).as_secs();
            meter.charge_storage_occupancy(old_bytes * self.cfg.replicas as f64, held);
        }
        self.bytes_stored += bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes_stored);
        if self.tracer.is_on() {
            let key = key.text(w);
            self.tracer.emit(now, TraceEvent::ObjectPut { key, bytes });
        }
        self.objects[slot] = Some((bytes, now));
    }

    /// Removes a logical object of a run of `w`, settling its occupancy
    /// charge.
    pub fn remove_object(
        &mut self,
        meter: &mut CostMeter,
        now: SimTime,
        key: ObjectKey,
        w: &Workflow,
    ) {
        let Some((bytes, put_at)) = self.objects.get_mut(key.slot(w)).and_then(Option::take) else {
            return;
        };
        self.bytes_stored -= bytes;
        let held = now.saturating_since(put_at).as_secs();
        meter.charge_storage_occupancy(bytes * self.cfg.replicas as f64, held);
        if self.tracer.is_on() {
            let key = key.text(w);
            self.tracer.emit(now, TraceEvent::ObjectRemove { key });
        }
    }

    /// Panics unless `key` of a run of `w` was registered — consumers call
    /// this to assert their producers' outputs exist (a scheduling-order
    /// sanity check).
    pub fn assert_present(&self, key: ObjectKey, w: &Workflow) {
        assert!(
            self.contains(key, w),
            "object '{}' read before it was written: executor scheduling bug",
            key.text(w)
        );
    }

    /// True if the logical object of a run of `w` exists.
    pub fn contains(&self, key: ObjectKey, w: &Workflow) -> bool {
        self.objects.get(key.slot(w)).is_some_and(Option::is_some)
    }

    /// Settles occupancy charges for everything still stored, as of `now`,
    /// in the byte order of the keys' text in a run of `w`: occupancy is a
    /// floating-point sum, so its order is part of the result. Call once at
    /// the end of a run.
    pub fn finalize(&mut self, meter: &mut CostMeter, now: SimTime, w: &Workflow) {
        let mut keys: Vec<ObjectKey> = self
            .objects
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(slot, _)| ObjectKey::of_slot(slot, w))
            .collect();
        keys.sort_by(|&a, &b| a.parts(w).cmp(&b.parts(w)));
        for key in keys {
            self.remove_object(meter, now, key, w);
        }
    }

    /// Bytes currently registered.
    pub fn bytes_stored(&self) -> f64 {
        self.bytes_stored
    }

    /// Peak registered bytes.
    pub fn peak_bytes(&self) -> f64 {
        self.peak_bytes
    }

    /// GET requests issued.
    pub fn read_requests(&self) -> u64 {
        self.reads
    }

    /// Number of injected GET failures recovered from replicas.
    pub fn injected_failures(&self) -> u64 {
        self.injected_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::pricing::{FaasConfig, InstanceType};
    use crate::world::testing::{call, world, World};

    type W = World<Vec<f64>>;

    fn store(cfg: StorageConfig) -> (Simulation<W>, W) {
        world(
            ClusterConfig::new(InstanceType::r5_large(), 1),
            FaasConfig::aws_like(),
            cfg,
            &SeedSource::new(1),
        )
    }

    /// Schedules a read (`write` false) or write now; its completion
    /// instant lands in `w.out`.
    fn submit(sim: &mut Simulation<W>, write: bool, bytes: f64, cap: Option<f64>) {
        sim.schedule_now(call(move |w: &mut W, sim| {
            let cloud = &mut w.cloud;
            let done = call(|w: &mut W, sim| w.out.push(sim.now().as_secs()));
            if write {
                cloud
                    .store
                    .write(&mut cloud.meter, sim, bytes, 1, cap, done);
            } else {
                cloud.store.read(&mut cloud.meter, sim, bytes, 1, cap, done);
            }
        }));
    }

    #[test]
    fn read_takes_latency_plus_transfer() {
        let mut cfg = StorageConfig::s3_like();
        cfg.aggregate_bps = 100.0;
        cfg.request_latency_secs = 1.0;
        let (mut sim, mut w) = store(cfg);
        submit(&mut sim, false, 1000.0, None);
        sim.run(&mut w);
        assert!((w.out[0] - 11.0).abs() < 1e-9);
        assert_eq!(w.cloud.store.read_requests(), 1);
    }

    #[test]
    fn per_flow_cap_applies() {
        let mut cfg = StorageConfig::s3_like();
        cfg.aggregate_bps = 1e9;
        cfg.request_latency_secs = 0.0;
        let (mut sim, mut w) = store(cfg);
        submit(&mut sim, true, 1000.0, Some(10.0));
        sim.run(&mut w);
        assert!((w.out[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_reads_share_aggregate_bandwidth() {
        let mut cfg = StorageConfig::s3_like();
        cfg.aggregate_bps = 100.0;
        cfg.request_latency_secs = 0.0;
        let (mut sim, mut w) = store(cfg);
        for _ in 0..2 {
            submit(&mut sim, false, 500.0, None);
        }
        sim.run(&mut w);
        assert_eq!(w.out.len(), 2);
        for &t in &w.out {
            assert!((t - 10.0).abs() < 1e-9);
        }
    }

    /// A one-phase workflow of one-component tasks with these names.
    fn named(names: &[&str]) -> Workflow {
        let tasks = names
            .iter()
            .map(|&n| mashup_dag::Task::new(n, 1, mashup_dag::TaskProfile::trivial()))
            .collect();
        Workflow::new("w", vec![mashup_dag::Phase { tasks }], 0.0)
    }

    #[test]
    fn occupancy_charged_on_remove_and_finalize() {
        let mut cfg = StorageConfig::s3_like();
        cfg.replicas = 2;
        let (_, mut w) = store(cfg.clone());
        let (s, meter) = (&mut w.cloud.store, &mut w.cloud.meter);
        let wf = named(&["b"]);
        let b = ObjectKey::Output(TaskRef::new(0, 0));
        s.register_object(meter, SimTime::ZERO, ObjectKey::Input, 1e9, &wf);
        s.register_object(meter, SimTime::ZERO, b, 1e9, &wf);
        assert_eq!(s.bytes_stored(), 2e9);
        s.remove_object(meter, SimTime::from_secs(3600.0), ObjectKey::Input, &wf);
        assert_eq!(s.bytes_stored(), 1e9);
        assert!(!s.contains(ObjectKey::Input, &wf) && s.contains(b, &wf));
        s.finalize(meter, SimTime::from_secs(3600.0), &wf);
        assert_eq!(s.bytes_stored(), 0.0);
        // 2 objects * 1 GB * 1 h * 2 replicas.
        let month = 30.0 * 24.0 * 3600.0;
        let expect = 2.0 * 2.0 * 3600.0 / month * cfg.price_per_gb_month;
        let e = meter.expense(cfg.price_per_gb_month);
        assert!((e.storage_dollars - expect).abs() < 1e-9, "{e:?}");
        assert_eq!(s.peak_bytes(), 2e9);
    }

    #[test]
    fn finalize_settles_in_key_text_order() {
        // Names sort differently from their ids; one is a prefix of
        // another, and one sorts before the input's text once the prefixes
        // are stripped. The sizes make the occupancy sum depend on its
        // order: 1e16 + 1 rounds back to 1e16, 1 + 1 + 1e16 does not.
        let names = ["z", "a", "ab", "b"];
        let bytes = [1e16, 1.0, 1.0, 1.0];
        let wf = named(&names);
        let (input, input_bytes) = ("initial:w", 4.0);
        let mut cfg = StorageConfig::s3_like();
        cfg.replicas = 1;
        let (_, mut w) = store(cfg.clone());
        let (s, meter) = (&mut w.cloud.store, &mut w.cloud.meter);
        for (task, &b) in bytes.iter().enumerate() {
            let key = ObjectKey::Output(TaskRef::new(0, task));
            s.register_object(meter, SimTime::ZERO, key, b, &wf);
        }
        s.register_object(meter, SimTime::ZERO, ObjectKey::Input, input_bytes, &wf);
        s.finalize(meter, SimTime::from_secs(1.0), &wf);
        let got = meter.expense(cfg.price_per_gb_month).storage_dollars;

        // The same objects settled the way a string-keyed store does.
        let by_text: BTreeMap<String, f64> = names
            .iter()
            .map(|n| format!("out:{n}"))
            .zip(bytes)
            .chain([(input.to_string(), input_bytes)])
            .collect();
        let settle = |order: &mut dyn Iterator<Item = f64>| {
            let mut m = CostMeter::new();
            order.for_each(|b| m.charge_storage_occupancy(b, 1.0));
            m.expense(cfg.price_per_gb_month).storage_dollars
        };
        let want = settle(&mut by_text.values().copied());
        assert_eq!(got.to_bits(), want.to_bits());
        // Settling by id would give a different sum.
        let by_id = settle(&mut [input_bytes].into_iter().chain(bytes));
        assert_ne!(by_id.to_bits(), want.to_bits());
        // So would settling the input last, in registration order.
        let input_last = settle(&mut bytes.into_iter().chain([input_bytes]));
        assert_ne!(input_last.to_bits(), want.to_bits());
    }

    #[test]
    fn overwrite_settles_old_occupancy() {
        let (_, mut w) = store(StorageConfig::s3_like());
        let (s, meter) = (&mut w.cloud.store, &mut w.cloud.meter);
        let wf = named(&["a"]);
        s.register_object(meter, SimTime::ZERO, ObjectKey::Input, 100.0, &wf);
        s.register_object(
            meter,
            SimTime::from_secs(10.0),
            ObjectKey::Input,
            300.0,
            &wf,
        );
        assert_eq!(s.bytes_stored(), 300.0);
    }

    #[test]
    #[should_panic(expected = "object 'out:b' read before it was written: executor scheduling bug")]
    fn assert_present_catches_missing_objects() {
        let (_, w) = store(StorageConfig::s3_like());
        let wf = named(&["a", "b"]);
        w.cloud
            .store
            .assert_present(ObjectKey::Output(TaskRef::new(0, 1)), &wf);
    }

    #[test]
    fn failure_injection_triggers_retries() {
        let mut cfg = StorageConfig::s3_like();
        cfg.get_failure_prob = 1.0;
        cfg.request_latency_secs = 1.0;
        cfg.aggregate_bps = 1e9;
        let (mut sim, mut w) = store(cfg);
        submit(&mut sim, false, 0.0, None);
        sim.run(&mut w);
        // 1 s base latency + 2 s failure round trip.
        assert!((w.out[0] - 3.0).abs() < 1e-9);
        assert_eq!(w.cloud.store.injected_failures(), 1);
        // Both the failed and the replica GET are charged.
        assert_eq!(w.cloud.store.read_requests(), 1);
    }

    #[test]
    fn chaos_error_window_retries_gets_from_a_replica() {
        let mut cfg = StorageConfig::s3_like();
        cfg.request_latency_secs = 1.0;
        cfg.aggregate_bps = 1e9;
        let (mut sim, mut w) = store(cfg);
        w.cloud.store.enable_chaos(7);
        w.cloud
            .store
            .apply_fault(SimTime::ZERO, 0, StoreFault::Error { prob: 1.0 }, 100.0);
        submit(&mut sim, false, 0.0, None);
        sim.run(&mut w);
        assert!((w.out[0] - 3.0).abs() < 1e-9);
        assert_eq!(w.cloud.store.injected_failures(), 1);
        // Cleared windows stop firing.
        w.cloud.store.clear_fault(0);
        submit(&mut sim, false, 0.0, None);
        sim.run(&mut w);
        // Issued at t=3: 1 s of base latency only.
        assert!((w.out[1] - 4.0).abs() < 1e-9);
        assert_eq!(w.cloud.store.injected_failures(), 1);
    }

    #[test]
    fn chaos_latency_and_degrade_windows_slow_operations() {
        let mut cfg = StorageConfig::s3_like();
        cfg.request_latency_secs = 1.0;
        cfg.aggregate_bps = 100.0;
        let (mut sim, mut w) = store(cfg);
        let s = &mut w.cloud.store;
        s.enable_chaos(7);
        s.apply_fault(
            SimTime::ZERO,
            0,
            StoreFault::Latency { extra_secs: 2.0 },
            100.0,
        );
        s.apply_fault(SimTime::ZERO, 1, StoreFault::Degrade { factor: 0.5 }, 100.0);
        submit(&mut sim, true, 100.0, None);
        sim.run(&mut w);
        // 1 s base + 2 s spike, then 100 bytes at the degraded 50 B/s.
        assert!((w.out[0] - 5.0).abs() < 1e-9, "{}", w.out[0]);
    }
}
