//! Million-task scale benchmarks: build, plan, replan, simulate.
//!
//! Exercises the flat-arena DAG path end to end on the synthetic shapes
//! from [`mashup_bench::scale`] at three tiers (10k / 100k / 1M tasks):
//!
//! * **build** — raw-graph ingestion through `from_task_graph` (name
//!   interning, CSR adjacency, iterative level assignment);
//! * **plan** — a cold `Pdc::decide` with probe sharing, dominated by the
//!   all-VM profiling simulation and the boundary-tax worklist;
//! * **replan** — a single-task edit replanned incrementally against the
//!   cold plan (100k tier only; asserts the ≥10× speedup the plan cache
//!   promises);
//! * **simulate** — a full cluster-side execution of the fan-out shape,
//!   the bulk-scheduling fast path.
//!
//! Select tiers with `DAG_SCALE_TIERS` (comma-separated: `10k`, `100k`,
//! `1m`; default all) — CI smoke runs `DAG_SCALE_TIERS=10k` with `--test`.
//! Refresh the committed numbers with
//! `BENCH_JSON=results/BENCH_scale.json cargo bench --bench dag_scale`.

use criterion::{criterion_group, criterion_main, Criterion};
use mashup_bench::scale::{self, Shape};
use mashup_core::{plan_without_pdc, MashupConfig, Pdc, PlanCache};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const TIERS: [(&str, usize); 3] = [("10k", 10_000), ("100k", 100_000), ("1m", 1_000_000)];

/// The tiers selected by `DAG_SCALE_TIERS`, defaulting to all of them.
fn tiers() -> Vec<(&'static str, usize)> {
    let Ok(filter) = std::env::var("DAG_SCALE_TIERS") else {
        return TIERS.to_vec();
    };
    let wanted: Vec<String> = filter
        .split(',')
        .map(|s| s.trim().to_ascii_lowercase())
        .filter(|s| !s.is_empty())
        .collect();
    TIERS
        .iter()
        .copied()
        .filter(|(name, _)| wanted.iter().any(|w| w == name))
        .collect()
}

fn pdc(cache: &Arc<PlanCache>) -> Pdc {
    Pdc::new(MashupConfig::aws(8))
        .with_cache(cache.clone())
        .with_probe_sharing(true)
}

fn bench_build(c: &mut Criterion) {
    for (tier, n) in tiers() {
        for shape in Shape::ALL {
            c.bench_function(&format!("dag_scale/build_{}_{tier}", shape.name()), |b| {
                b.iter(|| black_box(scale::workflow(shape, n)))
            });
        }
    }
}

fn bench_plan(c: &mut Criterion) {
    for (tier, n) in tiers() {
        let w = scale::workflow(Shape::FanOut, n);
        c.bench_function(&format!("dag_scale/plan_cold_fanout_{tier}"), |b| {
            // Fresh cache per iteration: this measures cold planning —
            // the VM profiling pass, one shared probe, the per-task
            // decision rules, and the boundary-tax worklist.
            b.iter(|| black_box(pdc(&Arc::new(PlanCache::new())).decide(&w)))
        });
    }
}

fn bench_replan(c: &mut Criterion) {
    // Incremental replan is measured at the 100k tier on the chain shape:
    // a single-task edit dirties exactly one single-task phase, which is
    // the access pattern PDC replanning is built for. (A fan-out edit
    // would dirty the whole million-wide phase and measure re-profiling,
    // not reuse.)
    let Some((tier, n)) = tiers().iter().copied().find(|&(t, _)| t == "100k") else {
        return;
    };
    let base = scale::workflow(Shape::Chain, n);
    let edited = scale::edited_workflow(Shape::Chain, n, n / 2);
    let cache = Arc::new(PlanCache::new());

    let t = Instant::now();
    let prev = pdc(&cache).decide(&base);
    let cold = t.elapsed();
    // Best of three: a replan is ~100ms here, so a single sample is at the
    // mercy of allocator state; the minimum is the honest steady cost.
    let mut incremental = cold;
    for _ in 0..3 {
        let t = Instant::now();
        let (_, stats) = pdc(&cache).replan(&base, &prev, &edited);
        incremental = incremental.min(t.elapsed());
        assert!(!stats.full_replan, "aligned edit must not fall back");
        assert_eq!(stats.dirty_phases, 1, "single-task edit dirties one phase");
        assert_eq!(stats.replanned_tasks, 1);
    }
    let speedup = cold.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    println!(
        "dag_scale/replan_speedup_chain_{tier}: {speedup:.1}x \
         (cold {:.3}s, incremental {:.3}s)",
        cold.as_secs_f64(),
        incremental.as_secs_f64()
    );
    assert!(
        speedup >= 10.0,
        "incremental replan must be >=10x faster than a cold plan at {tier} \
         (got {speedup:.1}x)"
    );

    c.bench_function(&format!("dag_scale/plan_cold_chain_{tier}"), |b| {
        b.iter(|| black_box(pdc(&Arc::new(PlanCache::new())).decide(&base)))
    });
    c.bench_function(&format!("dag_scale/replan_1edit_chain_{tier}"), |b| {
        b.iter(|| black_box(pdc(&cache).replan(&base, &prev, &edited)))
    });
}

fn bench_simulate(c: &mut Criterion) {
    let cfg = MashupConfig::aws(8);
    for (tier, n) in tiers() {
        let w = scale::workflow(Shape::FanOut, n);
        let plan = plan_without_pdc(&cfg, &w);
        c.bench_function(&format!("dag_scale/simulate_fanout_{tier}"), |b| {
            b.iter(|| {
                black_box(mashup_core::try_execute(&cfg, &w, &plan, "dag-scale").expect("clean"))
            })
        });
    }
}

fn report_peak_rss(_c: &mut Criterion) {
    // VmHWM is the process high-water mark: an upper bound on what the
    // largest tier needed. Some sandboxed kernels (gVisor) omit it, so fall
    // back to end-of-run VmRSS — a lower bound instead of an upper one.
    // Recorded in EXPERIMENTS.md alongside the committed timings.
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(line) = status
            .lines()
            .find(|l| l.starts_with("VmHWM"))
            .or_else(|| status.lines().find(|l| l.starts_with("VmRSS")))
        {
            println!("dag_scale/peak_rss: {}", line.trim());
        }
    }
}

criterion_group! {
    name = dag_scale;
    config = Criterion::default().sample_size(10);
    // Replan runs before the fan-out planning benches: its 10x assertion
    // compares ~100ms against ~seconds and should not inherit a heap
    // fragmented by the million-task tiers.
    targets = bench_build, bench_replan, bench_plan, bench_simulate, report_peak_rss
}
criterion_main!(dag_scale);
