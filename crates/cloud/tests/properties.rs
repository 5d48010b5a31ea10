//! Property-based tests of the cloud models.

use mashup_cloud::{
    run_task_on_faas, Cloud, CloudEvent, CloudWorld, ClusterConfig, ClusterRunStats,
    ClusterTaskSpec, FaasConfig, FaasRunStats, FaasTaskSpec, InstanceType, StorageConfig,
    VmCluster,
};
use mashup_sim::{Model, SeedSource, Simulation};
use proptest::prelude::*;

/// A cloud plus the stats of the task under test.
struct World {
    cloud: Cloud<World>,
    cluster_secs: Option<f64>,
    faas: Option<FaasRunStats>,
}

/// The cloud's events, and the start of the task under test.
enum Event {
    Cloud(CloudEvent),
    Cluster(ClusterTaskSpec<'static>),
    Faas(FaasTaskSpec<'static>, SeedSource),
}

impl From<CloudEvent> for Event {
    fn from(e: CloudEvent) -> Self {
        Event::Cloud(e)
    }
}

impl Model for World {
    type Event = Event;
    fn handle(&mut self, event: Event, sim: &mut Simulation<Self>) {
        match event {
            Event::Cloud(e) => e.dispatch(self, sim),
            Event::Cluster(spec) => VmCluster::run_task(self, sim, spec, ()),
            Event::Faas(spec, seeds) => run_task_on_faas(self, sim, None, spec, &seeds, ()),
        }
    }
}

impl CloudWorld for World {
    type ClusterTag = ();
    type FaasTag = ();
    fn cloud(&mut self) -> &mut Cloud<Self> {
        &mut self.cloud
    }
    fn cluster_done(&mut self, _: &mut Simulation<Self>, (): (), stats: ClusterRunStats) {
        self.cluster_secs = Some(stats.makespan().as_secs());
    }
    fn faas_done(&mut self, _: &mut Simulation<Self>, (): (), stats: FaasRunStats) {
        self.faas = Some(stats);
    }
}

fn world(nodes: usize, seed: u64) -> (Simulation<World>, World) {
    let mut sim = Simulation::new();
    let mut faas = FaasConfig::aws_like();
    faas.cold_start_secs = (1.0, 1.0);
    let cloud = Cloud::new(
        &mut sim,
        ClusterConfig::new(InstanceType::r5_large(), nodes),
        faas,
        StorageConfig::s3_like(),
        &SeedSource::new(seed),
    );
    let world = World {
        cloud,
        cluster_secs: None,
        faas: None,
    };
    (sim, world)
}

fn run_cluster_task(nodes: usize, spec: ClusterTaskSpec<'static>) -> f64 {
    let (mut sim, mut w) = world(nodes, 1);
    sim.schedule_now(Event::Cluster(spec));
    sim.run(&mut w);
    w.cluster_secs.expect("completed")
}

/// Runs `spec` on the FaaS side of a fresh world seeded with `seed`,
/// returning the world for inspection.
fn faas_world(spec: FaasTaskSpec<'static>, seed: u64) -> World {
    let (mut sim, mut w) = world(1, seed);
    let seeds = SeedSource::new(seed);
    sim.schedule_now(Event::Faas(spec, seeds));
    sim.run(&mut w);
    w
}

fn run_faas_task(spec: FaasTaskSpec<'static>) -> FaasRunStats {
    faas_world(spec, 2).faas.expect("completed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// More nodes never make a pure-compute task slower.
    #[test]
    fn cluster_makespan_is_monotone_in_nodes(
        comps in 1usize..128,
        compute in 1u32..60,
    ) {
        let small = run_cluster_task(2, ClusterTaskSpec::new("t", comps, compute as f64));
        let large = run_cluster_task(16, ClusterTaskSpec::new("t", comps, compute as f64));
        prop_assert!(large <= small + 1e-6, "{large} > {small}");
    }

    /// The cluster can never beat the work-conserving bound.
    #[test]
    fn cluster_respects_work_conservation(
        nodes in 1usize..32,
        comps in 1usize..128,
        compute in 1u32..60,
    ) {
        let compute = compute as f64;
        let makespan = run_cluster_task(nodes, ClusterTaskSpec::new("t", comps, compute));
        let bound = comps as f64 * compute / (nodes as f64 * 2.0); // 2 cores
        prop_assert!(makespan >= bound - 1e-6, "{makespan} < bound {bound}");
        // And memory-free timesharing is exactly work-conserving per node.
        let per_node = comps.div_ceil(nodes) as f64;
        let expect = compute * (per_node / 2.0).max(1.0);
        prop_assert!((makespan - expect).abs() < 1e-6, "{makespan} vs {expect}");
    }

    /// Thrash never decreases the makespan and never exceeds the cap.
    #[test]
    fn thrash_bounds(
        comps in 4usize..64,
        mem10 in 0u32..40, // memory in tenths of GiB
        coeff10 in 0u32..50,
    ) {
        let mem = mem10 as f64 / 10.0;
        let coeff = coeff10 as f64 / 10.0;
        let mut base = ClusterTaskSpec::new("t", comps, 10.0);
        base.memory_gb = 0.0;
        let mut thrashy = ClusterTaskSpec::new("t", comps, 10.0);
        thrashy.memory_gb = mem;
        thrashy.contention_coeff = coeff;
        let t0 = run_cluster_task(1, base);
        let t1 = run_cluster_task(1, thrashy);
        prop_assert!(t1 >= t0 - 1e-9);
        prop_assert!(t1 <= t0 * VmCluster::MAX_THRASH + 1e-6);
    }

    /// FaaS makespan and scaling time are monotone in component count, and
    /// compute work is preserved exactly.
    #[test]
    fn faas_scaling_monotone_and_work_preserving(
        comps in 1usize..256,
        compute in 1u32..30,
    ) {
        let compute = compute as f64;
        let stats = run_faas_task(FaasTaskSpec::new("t", comps, compute));
        prop_assert!((stats.compute_secs - comps as f64 * compute).abs() < 1e-6);
        let bigger = run_faas_task(FaasTaskSpec::new("t", comps + 64, compute));
        prop_assert!(bigger.scaling_secs() >= stats.scaling_secs() - 1e-6);
        prop_assert!(bigger.makespan() >= stats.makespan());
    }

    /// Checkpoint chains preserve total compute and never trip the
    /// platform's kill watchdog.
    #[test]
    fn checkpoint_chains_preserve_work(compute in 100u32..4000) {
        let compute = compute as f64;
        let mut spec = FaasTaskSpec::new("long", 1, compute);
        spec.checkpoint_bytes = 1.0e8;
        spec.checkpoint_margin_secs = 30.0;
        let stats = run_faas_task(spec);
        prop_assert!((stats.compute_secs - compute).abs() < 1e-6);
        // Each segment computes for at most (timeout - margin) seconds and
        // resume segments additionally spend ~2 s re-reading the checkpoint,
        // so the chain length brackets the ideal count.
        let usable = 900.0 - 30.0;
        let ideal = (compute / usable).ceil() as u64;
        let chains = stats.checkpoints + 1;
        prop_assert!(
            chains >= ideal.max(1) && chains <= ideal.max(1) + 1,
            "chains {chains} vs ideal {ideal}"
        );
    }

    /// Expense accounting is additive: running two tasks costs the sum of
    /// running each alone (FaaS side, no shared-cluster billing).
    #[test]
    fn faas_cost_is_additive(a in 1usize..32, b in 1usize..32) {
        let cost = |comps: usize| {
            let w = faas_world(FaasTaskSpec::new("t", comps, 5.0), 3);
            w.cloud.meter.expense(0.0).faas_dollars
        };
        let together = cost(a + b);
        let separate = cost(a) + cost(b);
        // Warm reuse can only make the joint run cheaper or equal.
        prop_assert!(together <= separate + 1e-9, "{together} > {separate}");
    }
}
