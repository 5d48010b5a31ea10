//! The traditional VM cluster model.
//!
//! A cluster is one or more *sub-clusters*, each with its own master node
//! whose NIC funnels all intra-cluster data distribution and collection
//! (the paper's §5 observation that Individual-Merge and Sifting "contend
//! for network bandwidth to communicate with the master node" falls out of
//! this).
//!
//! Execution follows the paper's traditional-cluster semantics (Algorithm 1
//! lines 12–14): a task's components are spawned across the workers *all at
//! once* and timeshare the node's cores. Oversubscription slows every
//! co-resident component **superlinearly** — `(load/cores)^(1+c)` with a
//! per-task contention coefficient `c` — which is exactly the paper's
//! Eq. 2 form `T_VM = R^(γ·C)`: heavily oversubscribed small clusters
//! thrash (cache/memory pressure), which is why serverless can beat them on
//! both time *and* expense, while large clusters run near the linear
//! work-conserving bound.

use crate::cost::CostMeter;
use crate::event::{ev, Ev};
use crate::pricing::InstanceType;
use crate::world::{Cloud, CloudWorld};
use mashup_dag::Task;
use mashup_sim::trace::{TraceEvent, Tracer};
use mashup_sim::{
    jitter_factor, jitter_stream, LinkId, Model, SeedSource, SimDuration, SimTime, Simulation,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cluster shape and billing parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Node instance type.
    pub instance: InstanceType,
    /// Total worker nodes.
    pub nodes: usize,
    /// Number of sub-clusters the nodes are divided into, each with its own
    /// master (the paper's two-sub-cluster optimization for SRAsearch).
    pub subclusters: usize,
    /// Time to provision the cluster before it is usable, seconds.
    pub provision_secs: f64,
}

impl ClusterConfig {
    /// A single sub-cluster of `nodes` nodes of the given type.
    pub fn new(instance: InstanceType, nodes: usize) -> Self {
        ClusterConfig {
            instance,
            nodes,
            subclusters: 1,
            provision_secs: 0.0,
        }
    }

    /// Builder-style: splits the cluster into `k` sub-clusters.
    pub fn with_subclusters(mut self, k: usize) -> Self {
        assert!(k >= 1 && k <= self.nodes, "invalid subcluster count");
        self.subclusters = k;
        self
    }

    /// Total core slots across the cluster.
    pub fn total_slots(&self) -> usize {
        self.nodes * self.instance.cores
    }

    /// The node counts of the `k` sub-clusters the nodes split into, in
    /// sub-cluster order: `nodes / k` each, the first `nodes % k` one more.
    pub fn subcluster_nodes(&self, k: usize) -> impl Iterator<Item = usize> {
        let (per_sub, leftover) = (self.nodes / k, self.nodes % k);
        (0..k).map(move |s| per_sub + usize::from(s < leftover))
    }
}

/// Where a cluster task's input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ClusterInput {
    /// No input transfer (already node-local).
    None,
    /// Initial dataset distributed from the sub-cluster master
    /// (Algorithm 1 line 12): funnels through the master ingest NIC.
    Master,
    /// Inter-phase data from other workers over the scalable fabric.
    Fabric,
    /// From the object store over the WAN (hybrid boundary).
    Wan,
}

/// Where a cluster task's output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ClusterOutput {
    /// No output transfer.
    None,
    /// To the next phase's workers over the fabric.
    Fabric,
    /// To the object store over the WAN (hybrid boundary).
    Wan,
}

/// Work description for running one task's components on the cluster.
/// It borrows its label: a run reads the label when it starts (to seed its
/// random stream) and keeps a copy only when a recorder is attached.
#[derive(Debug, Clone)]
pub struct ClusterTaskSpec<'a> {
    /// Label for diagnostics (usually the task name).
    pub label: &'a str,
    /// Number of components to run.
    pub components: usize,
    /// Per-component compute seconds on a reference core.
    pub compute_secs: f64,
    /// Per-component input bytes.
    pub input_bytes: f64,
    /// Per-component output bytes.
    pub output_bytes: f64,
    /// GET/PUT requests per component when exchanging with the store.
    pub io_requests: u64,
    /// Memory-pressure thrash coefficient (see
    /// [`VmCluster::timeshare_factor`]).
    pub contention_coeff: f64,
    /// Per-component resident memory in GiB (drives swap thrash).
    pub memory_gb: f64,
    /// Relative runtime jitter.
    pub jitter: f64,
    /// Input path.
    pub input: ClusterInput,
    /// Output path.
    pub output: ClusterOutput,
    /// Which sub-cluster to run on.
    pub subcluster: usize,
}

impl<'a> ClusterTaskSpec<'a> {
    /// A minimal spec with the given label, component count, and compute.
    pub fn new(label: &'a str, components: usize, compute_secs: f64) -> Self {
        ClusterTaskSpec {
            label,
            components,
            compute_secs,
            input_bytes: 0.0,
            output_bytes: 0.0,
            io_requests: 1,
            contention_coeff: 0.0,
            memory_gb: 0.0,
            jitter: 0.0,
            input: ClusterInput::Fabric,
            output: ClusterOutput::Fabric,
            subcluster: 0,
        }
    }

    /// The spec of task `t`'s components, labelled with its name, with the
    /// request count, routing and sub-cluster the caller chose.
    pub fn of_task(
        t: &'a Task,
        io_requests: u64,
        input: ClusterInput,
        output: ClusterOutput,
        subcluster: usize,
    ) -> Self {
        ClusterTaskSpec {
            label: &t.name,
            components: t.components,
            compute_secs: t.profile.compute_secs_vm,
            input_bytes: t.profile.input_bytes,
            output_bytes: t.profile.output_bytes,
            io_requests,
            contention_coeff: t.profile.vm_local_contention,
            memory_gb: t.profile.memory_gb,
            jitter: t.profile.runtime_jitter,
            input,
            output,
            subcluster,
        }
    }
}

/// Timing summary of one task run on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterRunStats {
    /// Submission instant.
    pub start: SimTime,
    /// Completion of the last component.
    pub end: SimTime,
    /// Sum of per-component I/O wall time, seconds.
    pub io_secs: f64,
    /// Sum of per-component compute wall time, seconds.
    pub compute_secs: f64,
}

impl ClusterRunStats {
    /// Wall-clock makespan of the task.
    pub fn makespan(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

struct SubCluster {
    /// Live component count per worker node (timeshare load).
    node_loads: Vec<usize>,
    peak_load: usize,
    /// Master ingest NIC: initial-data distribution.
    master_link: LinkId,
    /// Intra-cluster fabric: inter-phase data; aggregate scales with the
    /// node count (bisection bound), per-flow capped by a node's NIC.
    fabric_link: LinkId,
}

impl SubCluster {
    fn nodes(&self) -> usize {
        self.node_loads.len()
    }
}

/// Spot-pool state: the piecewise price trace and reclaimed nodes.
struct SpotState {
    /// `(from_secs, price_per_hour)` breakpoints, ascending, first at 0;
    /// the last segment persists forever.
    price_trace: Vec<(f64, f64)>,
    /// Reclaimed nodes: `(sub, node)` → (reclaim instant, fault id).
    preempted: BTreeMap<(usize, usize), (SimTime, u64)>,
}

/// A cluster run in flight: its spec, its completion accumulator and its
/// driver's tag, kept in the world's [`Cloud`] under the key its component
/// events carry.
pub(crate) struct ClusterRun<W: CloudWorld> {
    /// The spec, its label moved to `label`.
    spec: ClusterTaskSpec<'static>,
    /// The spec's label, copied only when a recorder is attached: trace
    /// records are its one reader after the run starts.
    label: String,
    remaining: usize,
    io_secs: f64,
    compute_secs: f64,
    start: SimTime,
    tag: W::ClusterTag,
}

/// A VM cluster: its sub-clusters' nodes and links, and its billing.
pub struct VmCluster {
    cfg: ClusterConfig,
    subs: Vec<SubCluster>,
    seeds: SeedSource,
    billing_started: Option<SimTime>,
    billed_node_seconds: f64,
    tracer: Tracer,
    spot: Option<SpotState>,
}

impl VmCluster {
    /// Builds a cluster, adding its links to `sim`; nodes are split
    /// round-robin across sub-clusters.
    pub fn new<W: Model>(cfg: ClusterConfig, sim: &mut Simulation<W>, seeds: &SeedSource) -> Self {
        assert!(cfg.nodes >= 1, "cluster needs at least one node");
        assert!(
            cfg.subclusters >= 1 && cfg.subclusters <= cfg.nodes,
            "invalid subcluster split"
        );
        let mut subs = Vec::with_capacity(cfg.subclusters);
        for (s, n) in cfg.subcluster_nodes(cfg.subclusters).enumerate() {
            let fabric_bps =
                (n as f64 * cfg.instance.node_nic_bps / 2.0).max(cfg.instance.node_nic_bps);
            subs.push(SubCluster {
                node_loads: vec![0usize; n],
                peak_load: 0,
                master_link: sim
                    .add_link(format!("sub{s}-master-nic"), cfg.instance.master_nic_bps),
                fabric_link: sim.add_link(format!("sub{s}-fabric"), fabric_bps),
            });
        }
        VmCluster {
            subs,
            seeds: seeds.child("cluster"),
            billing_started: None,
            billed_node_seconds: 0.0,
            tracer: Tracer::off(),
            spot: None,
            cfg,
        }
    }

    /// Switches the cluster to spot pools: nodes can be reclaimed mid-run
    /// and billing integrates the piecewise `(from_secs, price_per_hour)`
    /// trace per node (empty = flat on-demand price). Must be called
    /// before billing starts.
    pub fn enable_spot(&mut self, mut price_trace: Vec<(f64, f64)>) {
        assert!(
            self.billing_started.is_none(),
            "enable spot pools before billing starts"
        );
        if price_trace.first().is_none_or(|p| p.0 > 0.0) {
            price_trace.insert(0, (0.0, self.cfg.instance.price_per_hour));
        }
        self.spot = Some(SpotState {
            price_trace,
            preempted: BTreeMap::new(),
        });
    }

    /// Reclaims a spot node given a flat cluster-wide index (clamped into
    /// range), mapping it onto the actual sub-cluster split — fault plans
    /// stay valid whatever split the planner chose.
    pub fn preempt_flat(&mut self, now: SimTime, flat: usize, fault_id: u64) {
        let mut rest = flat % self.cfg.nodes;
        for sub_idx in 0..self.subs.len() {
            let nodes = self.subs[sub_idx].nodes();
            if rest < nodes {
                self.preempt_node(now, sub_idx, rest, fault_id);
                return;
            }
            rest -= nodes;
        }
        unreachable!("flat index within node count");
    }

    /// Reclaims a specific (sub-cluster, node): future placement avoids it
    /// and billing stops at the reclaim instant. No-op when spot pools are
    /// off, the node is already reclaimed, or it is the sub-cluster's last
    /// survivor (liveness: a run must always be able to finish).
    pub fn preempt_node(&mut self, now: SimTime, sub: usize, node: usize, fault_id: u64) {
        let Some(spot) = self.spot.as_mut() else {
            return;
        };
        if spot.preempted.contains_key(&(sub, node)) {
            return;
        }
        let alive = self.subs[sub].nodes() - spot.preempted.keys().filter(|k| k.0 == sub).count();
        if alive <= 1 {
            return;
        }
        spot.preempted.insert((sub, node), (now, fault_id));
        self.tracer.emit(
            now,
            TraceEvent::SpotPreempt {
                id: fault_id,
                sub,
                node,
            },
        );
    }

    /// Nodes not yet reclaimed (all nodes when spot pools are off).
    pub fn surviving_nodes(&self) -> usize {
        self.cfg.nodes - self.preempted_nodes()
    }

    /// Reclaimed node count.
    pub fn preempted_nodes(&self) -> usize {
        self.spot.as_ref().map_or(0, |sp| sp.preempted.len())
    }

    fn preempted_at(&self, sub: usize, node: usize) -> Option<(SimTime, u64)> {
        self.spot
            .as_ref()
            .and_then(|sp| sp.preempted.get(&(sub, node)).copied())
    }

    /// Maps a component's preferred node onto a surviving one. Identity
    /// when spot pools are off or the preferred node is alive.
    fn resolve_node(&self, sub: usize, preferred: usize) -> usize {
        let Some(spot) = self.spot.as_ref() else {
            return preferred;
        };
        if !spot.preempted.contains_key(&(sub, preferred)) {
            return preferred;
        }
        let n = self.subs[sub].nodes();
        let alive: Vec<usize> = (0..n)
            .filter(|&i| !spot.preempted.contains_key(&(sub, i)))
            .collect();
        assert!(
            !alive.is_empty(),
            "sub-cluster {sub} lost every node to preemption"
        );
        alive[preferred % alive.len()]
    }

    /// Integrates the piecewise price over `[from, to)` seconds for one
    /// node, charging the meter per segment. Returns billed node-seconds
    /// and dollars, computed with the meter's own arithmetic so the cost
    /// oracle reconciles `SpotBill` records exactly.
    fn charge_spot_segments(
        meter: &mut CostMeter,
        trace: &[(f64, f64)],
        from: f64,
        to: f64,
    ) -> (f64, f64) {
        let mut dollars = 0.0;
        for (i, &(seg_from, price)) in trace.iter().enumerate() {
            let seg_to = trace.get(i + 1).map_or(f64::INFINITY, |s| s.0);
            let a = from.max(seg_from);
            let b = to.min(seg_to);
            if b > a {
                meter.charge_vm(b - a, price);
                dollars += (b - a) / 3600.0 * price;
            }
        }
        (to - from, dollars)
    }

    /// Attaches a flight recorder; component timeshare windows and billing
    /// boundaries flow through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Emits the event `make` builds, building it only when a recorder is
    /// attached: its task label is per-component heap churn otherwise.
    fn trace_with(&self, now: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.tracer.is_on() {
            self.tracer.emit(now, make());
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Starts billing node time (idempotent).
    pub fn start_billing(&mut self, now: SimTime) {
        if self.billing_started.is_none() {
            self.billing_started = Some(now);
            self.tracer.emit(
                now,
                TraceEvent::BillingStart {
                    nodes: self.cfg.nodes,
                },
            );
        }
    }

    /// Stops billing and charges `meter` for the elapsed node time. With
    /// spot pools enabled, each node is billed to its reclaim instant (or
    /// the stop instant) across the piecewise price segments, and per-node
    /// `SpotBill` records replace the single `BillingStop`.
    pub fn stop_billing(&mut self, meter: &mut CostMeter, now: SimTime) {
        let Some(t0) = self.billing_started.take() else {
            return;
        };
        if let Some(spot) = self.spot.as_ref() {
            let mut bills = Vec::new();
            let mut total = 0.0;
            for (sub_idx, sub) in self.subs.iter().enumerate() {
                for node in 0..sub.nodes() {
                    let end = spot.preempted.get(&(sub_idx, node)).map_or(now, |&(t, _)| {
                        if t < now {
                            t
                        } else {
                            now
                        }
                    });
                    let from = t0.as_secs();
                    let to = end.as_secs().max(from);
                    let (secs, dollars) =
                        Self::charge_spot_segments(meter, &spot.price_trace, from, to);
                    total += secs;
                    bills.push((sub_idx, node, secs, dollars));
                }
            }
            self.billed_node_seconds += total;
            for (sub, node, node_seconds, dollars) in bills {
                self.tracer.emit(
                    now,
                    TraceEvent::SpotBill {
                        sub,
                        node,
                        node_seconds,
                        dollars,
                    },
                );
            }
        } else {
            let node_secs = now.saturating_since(t0).as_secs() * self.cfg.nodes as f64;
            self.billed_node_seconds += node_secs;
            meter.charge_vm(node_secs, self.cfg.instance.price_per_hour);
            self.tracer.emit(
                now,
                TraceEvent::BillingStop {
                    node_seconds: node_secs,
                },
            );
        }
    }

    /// Node-seconds billed so far.
    pub fn billed_node_seconds(&self) -> f64 {
        self.billed_node_seconds
    }

    /// Peak per-node component load observed on a sub-cluster.
    pub fn peak_node_load(&self, subcluster: usize) -> usize {
        self.subs[subcluster].peak_load
    }

    /// Saturation bound on the swap-thrash multiplier (the slowdown cannot
    /// exceed roughly the paging-vs-RAM speed gap).
    pub const MAX_THRASH: f64 = 8.0;

    /// The timeshare slowdown for a node running `load` components of
    /// `comp_mem_gb` each on `cores` cores with `node_mem_gb` of RAM:
    ///
    /// ```text
    /// max(1, load/cores)
    ///     × min(MAX_THRASH, 1 + c · max(0, load·comp_mem/node_mem − 1))
    /// ```
    ///
    /// The first term is plain work-conserving timesharing. The second is
    /// *memory-pressure thrash*: once the resident set exceeds the node's
    /// RAM, cycles are wasted swapping, growing with the deficit up to a
    /// saturation bound. This is the mechanistic form of the paper's
    /// superlinear Eq. 2 (`T_VM = R^(γ·C)`): small clusters running
    /// hundreds of co-resident components thrash badly, large clusters run
    /// near the linear work-conserving bound.
    pub fn timeshare_factor(
        load: usize,
        cores: usize,
        comp_mem_gb: f64,
        node_mem_gb: f64,
        swap_coeff: f64,
    ) -> f64 {
        let oversub = (load as f64 / cores as f64).max(1.0);
        let pressure = (load as f64 * comp_mem_gb / node_mem_gb - 1.0).max(0.0);
        oversub * (1.0 + swap_coeff * pressure).min(Self::MAX_THRASH)
    }

    /// Runs all components of a task on the world's cluster, reporting the
    /// timing stats to [`CloudWorld::cluster_done`] with `tag` when the last
    /// component finishes.
    ///
    /// Per component (Algorithm 1 lines 12–14): read input through the
    /// master NIC (or the store over the WAN in hybrid mode), compute while
    /// timesharing the node with its co-residents (superlinear
    /// oversubscription slowdown sampled at compute start), write output.
    pub fn run_task<W: CloudWorld>(
        w: &mut W,
        sim: &mut Simulation<W>,
        spec: ClusterTaskSpec<'_>,
        tag: W::ClusterTag,
    ) {
        let Cloud {
            cluster,
            cluster_runs,
            store,
            meter,
            ..
        } = w.cloud();
        assert!(spec.subcluster < cluster.subs.len(), "no such subcluster");
        assert!(spec.components > 0, "task with zero components");

        let sub = &cluster.subs[spec.subcluster];
        let n_nodes = sub.nodes();
        let input_link = if spec.input == ClusterInput::Master {
            sub.master_link
        } else {
            sub.fabric_link
        };
        let (wan_bps, nic_bps) = (
            cluster.cfg.instance.wan_bps,
            cluster.cfg.instance.node_nic_bps,
        );
        let (components, input, input_bytes) = (spec.components, spec.input, spec.input_bytes);
        let (io_requests, jitter) = (spec.io_requests, spec.jitter);
        let mut rng = jitter_stream(&cluster.seeds, spec.label, "cluster-run", jitter);
        let label = if cluster.tracer.is_on() {
            spec.label.to_owned()
        } else {
            String::new()
        };
        let run = cluster_runs.insert(ClusterRun {
            spec: ClusterTaskSpec { label: "", ..spec },
            label,
            remaining: components,
            io_secs: 0.0,
            compute_secs: 0.0,
            start: sim.now(),
            tag,
        });
        let mut ready = move |comp: usize| {
            let jf = rng.as_mut().map_or(1.0, |rng| jitter_factor(rng, jitter));
            let node = u32::try_from(comp % n_nodes).expect("node index fits a u32");
            ev::<W>(Ev::CompReady { run, node, jf })
        };

        // The input branch is component-independent; when there is no input
        // transfer, the whole fan-out fires at the current instant and is
        // bulk-scheduled as one batch (O(1) per component instead of a heap
        // operation each), in component order.
        if input_bytes <= 0.0 || input == ClusterInput::None {
            sim.schedule_batch_now((0..components).map(ready));
            return;
        }
        for comp in 0..components {
            let after_read = ready(comp);
            if input == ClusterInput::Wan {
                store.read(
                    meter,
                    sim,
                    input_bytes,
                    io_requests,
                    Some(wan_bps),
                    after_read,
                );
            } else {
                sim.start_transfer(input_link, input_bytes, Some(nic_bps), after_read);
            }
        }
    }

    /// A component's input landed (it was requested when the run started):
    /// books the read time and starts the compute window.
    pub(crate) fn on_input<W: CloudWorld>(
        w: &mut W,
        sim: &mut Simulation<W>,
        run: u32,
        preferred_node: u32,
        jf: f64,
    ) {
        let a = w.cloud().cluster_runs.get_mut(run);
        a.io_secs += sim.now().since(a.start).as_secs();
        VmCluster::compute_component(w, sim, run, preferred_node, jf);
    }

    /// Runs one component's compute stage on a node of its run's
    /// sub-cluster. Without spot pools the component lands on its preferred
    /// node; with them, it lands on a surviving node, and if a preemption
    /// reclaims the node mid-window the attempt's work is lost and the
    /// component retries on a survivor (chaining a `CompRetry` record to the
    /// preemption's fault id).
    fn compute_component<W: CloudWorld>(
        w: &mut W,
        sim: &mut Simulation<W>,
        run: u32,
        preferred_node: u32,
        jf: f64,
    ) {
        let Cloud {
            cluster,
            cluster_runs,
            ..
        } = w.cloud();
        let a = cluster_runs.get_mut(run);
        let (spec, label) = (&a.spec, &a.label);
        let node_idx = cluster.resolve_node(spec.subcluster, preferred_node as usize);
        // --- compute: timeshare the node ---
        let load = {
            let sub = &mut cluster.subs[spec.subcluster];
            sub.node_loads[node_idx] += 1;
            let l = sub.node_loads[node_idx];
            sub.peak_load = sub.peak_load.max(l);
            l
        };
        let instance = &cluster.cfg.instance;
        let factor = VmCluster::timeshare_factor(
            load,
            instance.cores,
            spec.memory_gb,
            instance.memory_gb,
            spec.contention_coeff,
        );
        let thrash =
            load as f64 * spec.memory_gb > instance.memory_gb && spec.contention_coeff > 0.0;
        let secs = spec.compute_secs / instance.core_speed * factor * jf;
        cluster.trace_with(sim.now(), || TraceEvent::VmCompStart {
            task: label.clone(),
            sub: spec.subcluster,
            node: node_idx,
            load,
            mem_gb: spec.memory_gb,
            factor,
            thrash,
        });
        a.compute_secs += secs;
        let done = Ev::CompDone {
            run,
            node: u32::try_from(node_idx).expect("node index fits a u32"),
            preferred: preferred_node,
            jf,
        };
        sim.schedule_in(SimDuration::from_secs(secs), ev::<W>(done));
    }

    /// A component's compute window on `node_idx` ended: frees the slot,
    /// retries the component if a preemption took the node mid-window, and
    /// otherwise starts the output write.
    pub(crate) fn on_compute_done<W: CloudWorld>(
        w: &mut W,
        sim: &mut Simulation<W>,
        run: u32,
        node_idx: u32,
        preferred_node: u32,
        jf: f64,
    ) {
        let Cloud {
            cluster,
            cluster_runs,
            store,
            meter,
            ..
        } = w.cloud();
        let ClusterRun { spec, label, .. } = cluster_runs.get(run);
        let node_idx = node_idx as usize;
        cluster.subs[spec.subcluster].node_loads[node_idx] -= 1;
        cluster.trace_with(sim.now(), || TraceEvent::VmCompEnd {
            task: label.clone(),
            sub: spec.subcluster,
            node: node_idx,
        });
        // Spot: the node may have been reclaimed mid-window; the attempt's
        // work is lost and the component retries.
        if let Some((t_pre, fault_id)) = cluster.preempted_at(spec.subcluster, node_idx) {
            if t_pre < sim.now() {
                let retry_node = cluster.resolve_node(spec.subcluster, preferred_node as usize);
                cluster.trace_with(sim.now(), || TraceEvent::CompRetry {
                    id: fault_id,
                    task: label.clone(),
                    sub: spec.subcluster,
                    node: retry_node,
                });
                VmCluster::compute_component(w, sim, run, preferred_node, jf);
                return;
            }
        }
        // --- output ---
        let finish = ev::<W>(Ev::CompOut {
            run,
            since: sim.now(),
        });
        let instance = &cluster.cfg.instance;
        if spec.output_bytes <= 0.0 || spec.output == ClusterOutput::None {
            sim.schedule_now(finish);
        } else if spec.output == ClusterOutput::Wan {
            let wan_bps = instance.wan_bps;
            store.write(
                meter,
                sim,
                spec.output_bytes,
                spec.io_requests,
                Some(wan_bps),
                finish,
            );
        } else {
            let link = cluster.subs[spec.subcluster].fabric_link;
            sim.start_transfer(link, spec.output_bytes, Some(instance.node_nic_bps), finish);
        }
    }

    /// A component's output, written from `since`, landed. The run's last
    /// one reports the run to [`CloudWorld::cluster_done`].
    pub(crate) fn on_output<W: CloudWorld>(
        w: &mut W,
        sim: &mut Simulation<W>,
        run: u32,
        since: SimTime,
    ) {
        let runs = &mut w.cloud().cluster_runs;
        let a = runs.get_mut(run);
        a.io_secs += sim.now().since(since).as_secs();
        a.remaining -= 1;
        if a.remaining == 0 {
            let a = runs.remove(run);
            let stats = ClusterRunStats {
                start: a.start,
                end: sim.now(),
                io_secs: a.io_secs,
                compute_secs: a.compute_secs,
            };
            w.cluster_done(sim, a.tag, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::{FaasConfig, StorageConfig};
    use crate::world::testing::{call, world, World};

    type W = World<()>;

    fn with_config(cfg: ClusterConfig) -> (Simulation<W>, W) {
        world(
            cfg,
            FaasConfig::aws_like(),
            StorageConfig::s3_like(),
            &SeedSource::new(7),
        )
    }

    fn cluster(nodes: usize) -> (Simulation<W>, W) {
        with_config(ClusterConfig::new(InstanceType::r5_large(), nodes))
    }

    /// Starts `spec` at the current instant; its stats land in
    /// `w.clusters`.
    fn submit(sim: &mut Simulation<W>, spec: ClusterTaskSpec<'static>) {
        sim.schedule_now(call(move |w: &mut W, sim| {
            VmCluster::run_task(w, sim, spec, ());
        }));
    }

    fn run(sim: &mut Simulation<W>, w: &mut W, spec: ClusterTaskSpec<'static>) -> ClusterRunStats {
        submit(sim, spec);
        sim.run(w);
        w.clusters.pop().expect("task completed")
    }

    fn run_on(nodes: usize, spec: ClusterTaskSpec<'static>) -> ClusterRunStats {
        let (mut sim, mut w) = cluster(nodes);
        run(&mut sim, &mut w, spec)
    }

    #[test]
    fn timesharing_is_work_conserving_without_thrash() {
        // 8 comps of 10 s on 2 nodes x 2 cores, zero contention coeff:
        // 4 comps per node timeshare 2 cores. The load is sampled at each
        // component's compute start (components arriving at the same
        // instant see loads 1,2,3,4 on their node), so the slowest sees the
        // full oversubscription of 2 -> makespan 20 s, the same as ideal
        // wave packing.
        let (mut sim, mut w) = cluster(2);
        let stats = run(&mut sim, &mut w, ClusterTaskSpec::new("t", 8, 10.0));
        assert!((stats.makespan().as_secs() - 20.0).abs() < 1e-9);
        assert_eq!(stats.io_secs, 0.0);
        // Per node: loads 1,2,3,4 -> factors 1,1,1.5,2 -> 10+10+15+20 s.
        assert!((stats.compute_secs - 110.0).abs() < 1e-9);
        assert_eq!(w.cloud.cluster.peak_node_load(0), 4);
    }

    #[test]
    fn memory_pressure_thrash_is_superlinear() {
        // 8 comps of 4 GiB on one 16 GiB node (2 cores), coeff 0.5:
        // oversub 4, memory pressure 8*4/16 - 1 = 1 -> factor 4 * 1.5 = 6.
        let mut spec = ClusterTaskSpec::new("t", 8, 10.0);
        spec.contention_coeff = 0.5;
        spec.memory_gb = 4.0;
        let stats = run_on(1, spec);
        assert!(
            (stats.makespan().as_secs() - 60.0).abs() < 1e-6,
            "{}",
            stats.makespan().as_secs()
        );
    }

    #[test]
    fn fitting_in_memory_avoids_thrash() {
        // Same oversubscription, tiny memory: pure timesharing (factor 4).
        let mut spec = ClusterTaskSpec::new("t", 8, 10.0);
        spec.contention_coeff = 0.5;
        spec.memory_gb = 0.1;
        let stats = run_on(1, spec);
        assert!((stats.makespan().as_secs() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn under_subscribed_nodes_run_at_full_speed() {
        let mut spec = ClusterTaskSpec::new("t", 4, 10.0);
        spec.contention_coeff = 0.5;
        spec.memory_gb = 1.0;
        let stats = run_on(4, spec);
        assert!((stats.makespan().as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn timeshare_factor_math() {
        // Below the core count and within memory: no slowdown.
        assert_eq!(VmCluster::timeshare_factor(2, 2, 1.0, 16.0, 0.5), 1.0);
        // Pure timesharing.
        assert!((VmCluster::timeshare_factor(4, 2, 1.0, 16.0, 0.5) - 2.0).abs() < 1e-12);
        // Timesharing + swap thrash: load 16 x 2 GiB on 16 GiB -> pressure 1.
        let f = VmCluster::timeshare_factor(16, 2, 2.0, 16.0, 0.5);
        assert!((f - 8.0 * 1.5).abs() < 1e-12);
        // Thrash grows linearly with the memory deficit.
        let f2 = VmCluster::timeshare_factor(32, 2, 2.0, 16.0, 0.5);
        assert!((f2 - 16.0 * 2.5).abs() < 1e-12);
        // ... but saturates at MAX_THRASH.
        let f3 = VmCluster::timeshare_factor(256, 2, 2.0, 16.0, 2.0);
        assert!((f3 - 128.0 * VmCluster::MAX_THRASH).abs() < 1e-9);
    }

    #[test]
    fn master_ingest_is_shared_within_subcluster() {
        // 4 comps each pulling 2.5 GB of initial data through the 2.5 GB/s
        // master ingest NIC: 10 GB total -> 4 s of I/O, then 1 s compute.
        let mut spec = ClusterTaskSpec::new("t", 4, 1.0);
        spec.input_bytes = 2.5e9;
        spec.input = ClusterInput::Master;
        let stats = run_on(4, spec);
        assert!(
            (stats.makespan().as_secs() - 5.0).abs() < 1e-6,
            "{}",
            stats.makespan().as_secs()
        );
    }

    #[test]
    fn fabric_scales_with_node_count() {
        // 16 comps each moving 1.25 GB over the fabric. On 2 nodes the
        // fabric is max(nic, 2*nic/2) = 1.25 GB/s -> 16 s; on 16 nodes it
        // is 10 GB/s -> 2 s.
        for (nodes, expect) in [(2usize, 16.0), (16usize, 2.0)] {
            let mut spec = ClusterTaskSpec::new("t", 16, 0.0);
            spec.input_bytes = 1.25e9;
            spec.input = ClusterInput::Fabric;
            let stats = run_on(nodes, spec);
            assert!(
                (stats.makespan().as_secs() - expect).abs() < 1e-6,
                "{} nodes: {}",
                nodes,
                stats.makespan().as_secs()
            );
        }
    }

    #[test]
    fn fabric_flows_are_capped_by_the_node_nic() {
        // A single component cannot pull faster than its own NIC even on a
        // big cluster: 2.5 GB at 1.25 GB/s = 2 s.
        let mut spec = ClusterTaskSpec::new("t", 1, 0.0);
        spec.input_bytes = 2.5e9;
        spec.input = ClusterInput::Fabric;
        let stats = run_on(32, spec);
        assert!((stats.makespan().as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn subclusters_have_independent_masters() {
        let (mut sim, mut w) =
            with_config(ClusterConfig::new(InstanceType::r5_large(), 4).with_subclusters(2));
        for sub in 0..2 {
            let mut spec = ClusterTaskSpec::new(["t0", "t1"][sub], 4, 0.0);
            spec.input_bytes = 1.25e9;
            spec.input = ClusterInput::Master;
            spec.subcluster = sub;
            submit(&mut sim, spec);
        }
        sim.run(&mut w);
        // Each subcluster ingests 4 x 1.25 GB over its own 2.5 GB/s master:
        // 2 s each, in parallel (4 s if they shared one master).
        assert_eq!(w.clusters.len(), 2);
        for stats in &w.clusters {
            let e = stats.end.as_secs();
            assert!((e - 2.0).abs() < 1e-6, "end {e}");
        }
    }

    #[test]
    fn billing_charges_node_time() {
        let (_, mut w) = cluster(4);
        let cloud = &mut w.cloud;
        cloud.cluster.start_billing(SimTime::ZERO);
        cloud.cluster.start_billing(SimTime::from_secs(10.0)); // idempotent
        cloud
            .cluster
            .stop_billing(&mut cloud.meter, SimTime::from_secs(3600.0));
        let e = cloud.meter.expense(0.0);
        // 4 nodes x 1 h x $0.12.
        assert!((e.vm_dollars - 0.48).abs() < 1e-9);
        assert_eq!(cloud.cluster.billed_node_seconds(), 4.0 * 3600.0);
    }

    #[test]
    fn faster_cores_shrink_compute() {
        let (mut sim, mut w) = with_config(ClusterConfig::new(InstanceType::r5b_large(), 1));
        let stats = run(&mut sim, &mut w, ClusterTaskSpec::new("t", 1, 13.5));
        assert!((stats.makespan().as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn larger_cluster_reduces_makespan() {
        let t_small = run_on(2, ClusterTaskSpec::new("t", 64, 5.0));
        let t_large = run_on(16, ClusterTaskSpec::new("t", 64, 5.0));
        assert!(t_large.makespan() < t_small.makespan());
    }

    #[test]
    fn preempt_flat_maps_onto_the_subcluster_split() {
        let (_, mut w) =
            with_config(ClusterConfig::new(InstanceType::r5_large(), 4).with_subclusters(2));
        let c = &mut w.cloud.cluster;
        c.enable_spot(Vec::new());
        // Flat index 3 lands on (sub 1, node 1) under a 2+2 split; an
        // out-of-range index wraps (5 % 4 = 1 -> sub 0, node 1).
        c.preempt_flat(SimTime::from_secs(1.0), 3, 0);
        c.preempt_flat(SimTime::from_secs(2.0), 5, 1);
        assert_eq!(c.surviving_nodes(), 2);
        assert_eq!(c.preempted_at(1, 1), Some((SimTime::from_secs(1.0), 0)));
        assert_eq!(c.preempted_at(0, 1), Some((SimTime::from_secs(2.0), 1)));
    }

    #[test]
    fn preemption_spares_each_subclusters_last_survivor() {
        let (_, mut w) = cluster(2);
        let c = &mut w.cloud.cluster;
        c.enable_spot(Vec::new());
        c.preempt_node(SimTime::from_secs(1.0), 0, 0, 0);
        // Reclaiming the last survivor is a silent no-op (liveness), as is
        // reclaiming an already-reclaimed node.
        c.preempt_node(SimTime::from_secs(2.0), 0, 1, 1);
        c.preempt_node(SimTime::from_secs(3.0), 0, 0, 2);
        assert_eq!(c.surviving_nodes(), 1);
        assert_eq!(c.resolve_node(0, 0), 1);
        assert_eq!(c.resolve_node(0, 1), 1);
    }

    #[test]
    fn preemption_without_spot_pools_is_a_no_op() {
        let (_, mut w) = cluster(2);
        let c = &mut w.cloud.cluster;
        c.preempt_node(SimTime::from_secs(1.0), 0, 0, 0);
        assert_eq!(c.surviving_nodes(), 2);
        assert_eq!(c.resolve_node(0, 0), 0);
    }

    #[test]
    fn mid_compute_preemption_retries_on_a_survivor() {
        // 2 comps of 10 s, one per node; node 0 is reclaimed at t=5, so its
        // comp's first attempt is lost and it re-runs on node 1: 10 s wasted
        // + 10 s retry -> makespan 20 s, 30 s of compute across attempts.
        let (mut sim, mut w) = cluster(2);
        w.cloud.cluster.enable_spot(Vec::new());
        sim.schedule_at(
            SimTime::from_secs(5.0),
            call(|w: &mut W, sim| {
                w.cloud.cluster.preempt_node(sim.now(), 0, 0, 0);
            }),
        );
        let stats = run(&mut sim, &mut w, ClusterTaskSpec::new("t", 2, 10.0));
        assert!((stats.makespan().as_secs() - 20.0).abs() < 1e-9);
        assert!((stats.compute_secs - 30.0).abs() < 1e-9);
    }

    #[test]
    fn spot_billing_integrates_price_segments_per_node() {
        let (_, mut w) = cluster(2);
        let cloud = &mut w.cloud;
        cloud.cluster.enable_spot(vec![(0.0, 0.12), (1800.0, 0.06)]);
        cloud.cluster.start_billing(SimTime::ZERO);
        cloud
            .cluster
            .preempt_node(SimTime::from_secs(1800.0), 0, 0, 0);
        cloud
            .cluster
            .stop_billing(&mut cloud.meter, SimTime::from_secs(3600.0));
        // Node 0: 1800 s at $0.12/h = $0.06. Node 1: 1800 s at $0.12/h +
        // 1800 s at $0.06/h = $0.09.
        let e = cloud.meter.expense(0.0);
        assert!((e.vm_dollars - 0.15).abs() < 1e-9, "{}", e.vm_dollars);
        assert_eq!(cloud.cluster.billed_node_seconds(), 1800.0 + 3600.0);
    }

    #[test]
    fn spot_billing_without_a_trace_matches_on_demand() {
        let (_, mut w) = cluster(4);
        let cloud = &mut w.cloud;
        cloud.cluster.enable_spot(Vec::new());
        cloud.cluster.start_billing(SimTime::ZERO);
        cloud
            .cluster
            .stop_billing(&mut cloud.meter, SimTime::from_secs(3600.0));
        let e = cloud.meter.expense(0.0);
        assert!((e.vm_dollars - 0.48).abs() < 1e-9);
        assert_eq!(cloud.cluster.billed_node_seconds(), 4.0 * 3600.0);
    }
}
