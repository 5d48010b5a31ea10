//! Engine micro-benchmarks: the substrate costs underneath every
//! experiment — event throughput, fair-share link replanning, cluster and
//! FaaS task execution, PDC decision latency, and full hybrid runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mashup_cloud::{
    run_task_on_faas, ClusterConfig, ClusterTaskSpec, CostMeter, FaasConfig, FaasPlatform,
    FaasTaskSpec, InstanceType, ObjectStore, StorageConfig, VmCluster,
};
use mashup_core::{try_execute, MashupConfig, Pdc, PlacementPlan, Platform};
use mashup_sim::{SeedSource, SharedLink, SimDuration, Simulation};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/schedule_and_run_10k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            for i in 0..10_000u32 {
                sim.schedule_at(mashup_sim::SimTime::from_secs(i as f64 * 0.001), |_| {});
            }
            black_box(sim.run());
        })
    });
}

fn bench_shared_link(c: &mut Criterion) {
    c.bench_function("sim/fair_share_link_500_transfers", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let link = SharedLink::new("bench", 1e9);
            for i in 0..500 {
                let link = link.clone();
                sim.schedule_in(SimDuration::from_secs(i as f64 * 0.01), move |sim| {
                    link.start_transfer(sim, 1e7, None, |_| {});
                });
            }
            black_box(sim.run());
        })
    });
}

fn bench_cluster_task(c: &mut Criterion) {
    c.bench_function("cloud/cluster_task_500_components", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let cluster = VmCluster::new(
                ClusterConfig::new(InstanceType::r5_large(), 16),
                CostMeter::new(),
                &SeedSource::new(1),
            );
            let mut spec = ClusterTaskSpec::new("bench", 500, 10.0);
            spec.input_bytes = 1e7;
            spec.output_bytes = 1e6;
            let c2 = cluster.clone();
            sim.schedule_now(move |sim| c2.run_task(sim, None, spec, |_, _| {}));
            black_box(sim.run());
        })
    });
}

fn bench_faas_task(c: &mut Criterion) {
    c.bench_function("cloud/faas_task_500_components", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let meter = CostMeter::new();
            let seeds = SeedSource::new(2);
            let faas = FaasPlatform::new(FaasConfig::aws_like(), meter.clone(), &seeds);
            let store = ObjectStore::new(StorageConfig::s3_like(), meter, &seeds);
            let mut spec = FaasTaskSpec::new("bench", 500, 10.0);
            spec.input_bytes = 1e7;
            spec.output_bytes = 1e6;
            sim.schedule_now(move |sim| {
                run_task_on_faas(sim, &faas, &store, spec, &seeds, |_, _| {});
            });
            black_box(sim.run());
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
