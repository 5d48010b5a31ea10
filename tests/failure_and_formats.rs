//! Integration: failure injection through the replicated store, JSON/DOT
//! format round trips, and the GCP-like provider preset.

use mashup::engine::{
    execute, try_execute, CheckedWorkflow, KillReason, MashupConfig, PlacementPlan, Platform,
    Release, TraceEvent, Tracer,
};
use mashup::prelude::*;
use std::collections::HashMap;

#[test]
fn storage_failures_are_recovered_from_replicas() {
    // Run a serverless workflow with a high GET failure probability: every
    // failed read retries from a replica; the run completes, just slower.
    let w = CheckedWorkflow::new(srasearch::workflow()).expect("clean workflow");
    let mut cfg = MashupConfig::aws(4);
    cfg.provider.storage.get_failure_prob = 0.2;
    let plan = PlacementPlan::uniform(&w, Platform::Serverless);
    let tracer = Tracer::new();
    let report = execute(
        &cfg,
        &w,
        &plan,
        None,
        Release::PhaseBarrier,
        "faulty",
        &tracer,
    )
    .expect("clean inputs");
    assert!(report.makespan_secs > 0.0);
    // With no chaos spec, each injected failure is one read a replica
    // served.
    assert!(
        tracer
            .take()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::StoreGet { retried: true, .. })),
        "failure injection should have fired"
    );

    // The same run without failures is never slower.
    let mut clean_cfg = MashupConfig::aws(4);
    clean_cfg.provider.storage.get_failure_prob = 0.0;
    let clean = try_execute(&clean_cfg, &w, &plan, "clean").expect("clean inputs");
    assert!(clean.makespan_secs <= report.makespan_secs);
}

#[test]
fn faas_platform_failures_are_recovered_end_to_end() {
    // Inject microVM failures on a full workflow: checkpoints plus segment
    // retries must carry every task to completion. The flight recorder
    // proves the recovery mechanism actually ran: every killed invocation
    // must be followed by a fresh invocation of the same (task, chain).
    let w = CheckedWorkflow::new(srasearch::workflow()).expect("clean workflow");
    let mut cfg = MashupConfig::aws(4);
    // High enough that some kills land inside the (short) invocation
    // windows for this RNG stream; the property under test is recovery,
    // not the exact kill count.
    cfg.provider.faas.failure_prob = 0.3;
    let tracer = Tracer::new();
    let plan = PlacementPlan::uniform(&w, Platform::Serverless);
    let report = execute(
        &cfg,
        &w,
        &plan,
        None,
        Release::PhaseBarrier,
        "flaky-faas",
        &tracer,
    )
    .expect("clean inputs");
    assert_eq!(report.tasks.len(), w.task_count());

    // Reconstruct kill -> restart span chains from the trace.
    let records = tracer.take();
    let mut chain_of: HashMap<u64, (String, u32)> = HashMap::new();
    let mut segments: Vec<(u64, String, u32)> = Vec::new(); // (seq, task, chain)
    let mut kills: Vec<(u64, u64, KillReason)> = Vec::new(); // (seq, inv, reason)
    for r in &records {
        match &r.event {
            TraceEvent::SegmentStart {
                task, chain, inv, ..
            } => {
                chain_of.insert(*inv, (task.clone(), *chain));
                segments.push((r.seq, task.clone(), *chain));
            }
            TraceEvent::FnKill { id, reason, .. } => kills.push((r.seq, *id, *reason)),
            _ => {}
        }
    }
    assert!(
        kills.iter().any(|(_, _, r)| *r == KillReason::Injected),
        "expected injected kills in the trace"
    );
    for (kill_seq, inv, reason) in &kills {
        let (task, chain) = chain_of
            .get(inv)
            .unwrap_or_else(|| panic!("kill of invocation {inv} that never ran a segment"));
        assert!(
            segments
                .iter()
                .any(|(seq, t, c)| seq > kill_seq && t == task && c == chain),
            "invocation {inv} of '{task}' chain {chain} was killed ({reason:?} at seq \
             {kill_seq}) but never restarted"
        );
    }

    // A clean run is never slower than the failure-ridden one.
    let mut clean = MashupConfig::aws(4);
    clean.provider.faas.failure_prob = 0.0;
    let baseline = try_execute(&clean, &w, &plan, "clean").expect("clean inputs");
    assert!(baseline.makespan_secs <= report.makespan_secs);
}

#[test]
fn paper_workflows_round_trip_through_json() {
    for w in [
        genome1000::workflow(),
        srasearch::workflow(),
        epigenomics::workflow(),
    ] {
        let json = mashup::dag::to_json(&w);
        let back = mashup::dag::from_json(&json).expect("round trip");
        assert_eq!(w, back);
    }
}

#[test]
fn dot_export_names_every_task() {
    let w = epigenomics::workflow();
    let dot = mashup::dag::to_dot(&w);
    for r in w.task_refs() {
        assert!(dot.contains(&w.task(r).name), "missing {}", w.task(r).name);
    }
}

#[test]
fn gcp_like_provider_preserves_the_trends() {
    // The §5 portability claim: trends survive provider constants changing.
    let w = CheckedWorkflow::new(srasearch::workflow()).expect("clean workflow");
    let cfg = MashupConfig::gcp(8);
    let traditional = Strategy::TraditionalTuned
        .run(&cfg, &w, &Tracer::off(), None)
        .expect("clean inputs");
    let outcome = Mashup::new(cfg).run_checked(&w).expect("clean inputs");
    assert!(outcome.report.makespan_secs < traditional.makespan_secs);
}

#[test]
fn reports_serialize_to_json() {
    let w = srasearch::workflow();
    let outcome = Mashup::new(MashupConfig::aws(4))
        .try_run(&w)
        .expect("clean inputs");
    let json = serde_json::to_string(&outcome).expect("serialize outcome");
    assert!(json.contains("FasterQ-Dump"));
    let summary: serde_json::Value = serde_json::from_str(&json).expect("parse");
    assert!(
        summary["report"]["makespan_secs"]
            .as_f64()
            .expect("present")
            > 0.0
    );
}

#[test]
fn synthetic_workflows_run_end_to_end() {
    // The engine must handle arbitrary valid DAGs, not just the three
    // paper workflows.
    for seed in [1u64, 7, 23] {
        let cfg = SyntheticConfigFixture::small();
        let w = mashup::workflows::generate(&cfg, seed);
        let outcome = Mashup::new(MashupConfig::aws(4))
            .try_run(&w)
            .expect("clean inputs");
        assert_eq!(outcome.report.tasks.len(), w.task_count());
        assert!(outcome.pdc.plan.covers(&w));
    }
}

/// Small synthetic config so debug-mode tests stay fast.
struct SyntheticConfigFixture;
impl SyntheticConfigFixture {
    fn small() -> mashup::workflows::SyntheticConfig {
        mashup::workflows::SyntheticConfig {
            phases: 3,
            tasks_per_phase: (1, 2),
            component_choices: vec![1, 4, 16, 64],
            compute_secs: (1.0, 30.0),
            io_bytes: (1.0e6, 1.0e8),
            slowdown: (0.8, 1.6),
            recurring_prob: 0.1,
        }
    }
}
