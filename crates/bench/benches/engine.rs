//! Engine micro-benchmarks: the substrate costs underneath every
//! experiment — event throughput, fair-share link replanning, cluster and
//! FaaS task execution, PDC decision latency, and full hybrid runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mashup_cloud::{
    run_task_on_faas, Cloud, CloudWorld, ClusterConfig, ClusterTaskSpec, FaasConfig, FaasTaskSpec,
    InstanceType, StorageConfig, VmCluster,
};
use mashup_core::{try_execute, MashupConfig, Pdc, PlacementPlan, Platform};
use mashup_sim::{SeedSource, SimDuration, Simulation};
use std::hint::black_box;

/// A bare world: the cloud and nothing else.
struct World(Cloud<World>);

impl CloudWorld for World {
    fn cloud(&mut self) -> &mut Cloud<Self> {
        &mut self.0
    }
}

fn world(nodes: usize, seed: u64) -> (Simulation<World>, World) {
    let mut sim = Simulation::new();
    let cloud = Cloud::new(
        &mut sim,
        ClusterConfig::new(InstanceType::r5_large(), nodes),
        FaasConfig::aws_like(),
        StorageConfig::s3_like(),
        &SeedSource::new(seed),
    );
    (sim, World(cloud))
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/schedule_and_run_10k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::<()>::new();
            for i in 0..10_000u32 {
                sim.schedule_at(mashup_sim::SimTime::from_secs(i as f64 * 0.001), |_, _| {});
            }
            black_box(sim.run(&mut ()));
        })
    });
}

fn bench_shared_link(c: &mut Criterion) {
    c.bench_function("sim/fair_share_link_500_transfers", |b| {
        b.iter(|| {
            let mut sim = Simulation::<()>::new();
            let link = sim.add_link("bench", 1e9);
            for i in 0..500 {
                sim.schedule_in(SimDuration::from_secs(i as f64 * 0.01), move |_, sim| {
                    sim.start_transfer(link, 1e7, None, |_, _| {});
                });
            }
            black_box(sim.run(&mut ()));
        })
    });
}

fn bench_cluster_task(c: &mut Criterion) {
    c.bench_function("cloud/cluster_task_500_components", |b| {
        b.iter(|| {
            let (mut sim, mut w) = world(16, 1);
            let mut spec = ClusterTaskSpec::new("bench", 500, 10.0);
            spec.input_bytes = 1e7;
            spec.output_bytes = 1e6;
            sim.schedule_now(move |w, sim| VmCluster::run_task(w, sim, spec, |_, _, _| {}));
            black_box(sim.run(&mut w));
        })
    });
}

fn bench_faas_task(c: &mut Criterion) {
    c.bench_function("cloud/faas_task_500_components", |b| {
        b.iter(|| {
            let (mut sim, mut w) = world(1, 2);
            let seeds = SeedSource::new(2);
            let mut spec = FaasTaskSpec::new("bench", 500, 10.0);
            spec.input_bytes = 1e7;
            spec.output_bytes = 1e6;
            sim.schedule_now(move |w, sim| {
                run_task_on_faas(w, sim, None, spec, &seeds, |_, _, _| {});
            });
            black_box(sim.run(&mut w));
        })
    });
}

fn bench_hybrid_execute(c: &mut Criterion) {
    let w = mashup_workflows::srasearch::workflow();
    let cfg = MashupConfig::aws(8);
    c.bench_function("core/hybrid_execute_srasearch_8n", |b| {
        let mut plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        plan.set(mashup_dag::TaskRef::new(0, 0), Platform::Serverless);
        b.iter_batched(
            || (cfg.clone(), w.clone(), plan.clone()),
            |(cfg, w, plan)| black_box(try_execute(&cfg, &w, &plan, "bench").expect("clean")),
            BatchSize::SmallInput,
        )
    });
}

fn bench_pdc_decide(c: &mut Criterion) {
    let w = mashup_workflows::srasearch::workflow();
    c.bench_function("core/pdc_decide_srasearch_8n", |b| {
        b.iter(|| black_box(Pdc::new(MashupConfig::aws(8)).decide(&w)))
    });
}

criterion_group! {
    name = engine;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue, bench_shared_link, bench_cluster_task,
              bench_faas_task, bench_hybrid_execute, bench_pdc_decide
}
criterion_main!(engine);
