//! Fusion-equivalence property: fusing a pipeline must only remove
//! transfer/invocation overhead, never change results.
//!
//! The test makes every overhead *exactly zero* — no cold/warm start, no
//! intermediate I/O, zero storage latency, per-request prices off — and
//! keeps every remaining quantity dyadic (computes are multiples of
//! 3600/128 s, the FaaS price is a power of two), so float arithmetic is
//! exact and "equivalent" can be checked **bit for bit**: for any
//! generated pipeline, the maximally fused workflow under a forced
//! all-serverless placement reproduces the unfused run's makespan and
//! expense exactly, conserves compute, and its trace is the unfused one
//! with each chain's spans merged.

use mashup_baselines::maximal_fusion;
use mashup_core::{
    execute, CheckedWorkflow, MashupConfig, PlacementPlan, Platform, Release, Tracer,
};
use mashup_dag::{DependencyPattern, Task, TaskProfile, Workflow, WorkflowBuilder};
use mashup_sim::TraceEvent;
use proptest::prelude::*;

/// A provider with every serverless overhead pinned to exactly zero and
/// every price/speed constant a power of two, so the only nonzero float
/// quantities in a run are the (dyadic) compute windows.
fn overhead_free_cfg() -> MashupConfig {
    let mut cfg = MashupConfig::aws(4);
    cfg.prewarm = false;
    let f = &mut cfg.provider.faas;
    f.cold_start_secs = (0.0, 0.0);
    f.warm_start_secs = 0.0;
    f.timeout_secs = 1.0e6; // never checkpoint: chains sum to < 2 h
    f.price_per_hour = 0.125;
    f.core_speed = 1.0;
    f.per_function_bps = 134_217_728.0; // 2^27
    f.burst_capacity = 1 << 16;
    f.failure_prob = 0.0;
    let s = &mut cfg.provider.storage;
    s.request_latency_secs = 0.0;
    s.aggregate_bps = 1_073_741_824.0; // 2^30
    s.price_per_put = 0.0;
    s.price_per_get = 0.0;
    s.get_failure_prob = 0.0;
    cfg
}

/// A straight pipeline: `len` phases of one task each, OneToOne edges,
/// zero I/O everywhere, compute `n × 28.125 s` (a dyadic multiple of
/// 3600/128, so billed-seconds/3600 is exact), one shared slowdown.
fn pipeline(len: usize, comps: usize, slowdown: f64, computes: &[u32]) -> Workflow {
    let mut b = WorkflowBuilder::new("pipe");
    b.initial_input_bytes(1_048_576.0); // 2^20: staging time is dyadic too
    let mut prev = None;
    for (i, &n) in computes.iter().take(len).enumerate() {
        b.begin_phase();
        let profile = TaskProfile::trivial()
            .compute(n as f64 * 28.125)
            .slowdown(slowdown)
            .memory(0.5);
        let t = b.add_task(Task::new(format!("stage-{i}"), comps, profile));
        if let Some(p) = prev {
            b.depend(t, p, DependencyPattern::OneToOne);
        }
        prev = Some(t);
    }
    b.build().expect("generator only emits valid pipelines")
}

/// Sum of `FnEnd` billed windows and their count from a trace.
fn billed(records: &[mashup_sim::TraceRecord]) -> (f64, usize) {
    let mut total = 0.0;
    let mut n = 0;
    for r in records {
        if let TraceEvent::FnEnd { billed_secs, .. } = r.event {
            total += billed_secs;
            n += 1;
        }
    }
    (total, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: with all overheads zero, fused and
    /// unfused pipelines produce bit-identical reports.
    #[test]
    fn fused_pipeline_is_bit_identical_without_overheads(
        len in 2usize..=5,
        comps in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        slowdown in (0usize..3).prop_map(|i| [0.5f64, 1.0, 2.0][i]),
        computes in collection::vec(1u32..=16, 5),
    ) {
        let cfg = overhead_free_cfg();
        let w = CheckedWorkflow::new(pipeline(len, comps, slowdown, &computes)).expect("clean");
        let fused = CheckedWorkflow::new(maximal_fusion(&w)).expect("fusion checks clean");
        prop_assert_eq!(fused.task_count(), 1, "a pipeline collapses fully");

        let tr_u = Tracer::new();
        let tr_f = Tracer::new();
        let plan_u = PlacementPlan::uniform(&w, Platform::Serverless);
        let plan_f = PlacementPlan::uniform(&fused, Platform::Serverless);
        let r_u = execute(&cfg, &w, &plan_u, None, Release::PhaseBarrier, "pipe", &tr_u).expect("clean inputs");
        let r_f = execute(&cfg, &fused, &plan_f, None, Release::PhaseBarrier, "pipe", &tr_f).expect("clean inputs");

        // Time and expense, bit for bit.
        prop_assert_eq!(
            r_f.makespan_secs.to_bits(),
            r_u.makespan_secs.to_bits(),
            "makespan: fused {} vs unfused {}",
            r_f.makespan_secs,
            r_u.makespan_secs
        );
        prop_assert_eq!(r_f.expense.vm_dollars.to_bits(), r_u.expense.vm_dollars.to_bits());
        prop_assert_eq!(
            r_f.expense.faas_dollars.to_bits(),
            r_u.expense.faas_dollars.to_bits(),
            "faas dollars: fused {} vs unfused {}",
            r_f.expense.faas_dollars,
            r_u.expense.faas_dollars
        );
        prop_assert_eq!(
            r_f.expense.storage_dollars.to_bits(),
            r_u.expense.storage_dollars.to_bits()
        );

        // Compute is conserved exactly across the merge.
        let total = |r: &mashup_core::WorkflowReport| {
            r.tasks.iter().map(|t| t.compute_secs).sum::<f64>()
        };
        prop_assert_eq!(total(&r_f).to_bits(), total(&r_u).to_bits());

        // Trace, modulo merged spans: the fused run has one span per
        // component where the unfused run has `len`, the billed seconds
        // are identical in total, and no invocation was killed.
        let rec_u = tr_u.take();
        let rec_f = tr_f.take();
        let (billed_u, ends_u) = billed(&rec_u);
        let (billed_f, ends_f) = billed(&rec_f);
        prop_assert_eq!(ends_u, len * comps);
        prop_assert_eq!(ends_f, comps);
        prop_assert_eq!(
            billed_f.to_bits(),
            billed_u.to_bits(),
            "billed seconds: fused {billed_f} vs unfused {billed_u}"
        );
        let kills = |recs: &[mashup_sim::TraceRecord]| {
            recs.iter()
                .filter(|r| matches!(r.event, TraceEvent::FnKill { .. }))
                .count()
        };
        prop_assert_eq!(kills(&rec_u), 0);
        prop_assert_eq!(kills(&rec_f), 0);
    }
}
