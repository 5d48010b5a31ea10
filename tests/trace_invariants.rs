//! The trace-invariant oracle against every paper workflow × strategy.
//!
//! Positive direction: a flow-level trace of each paper workflow under each
//! execution strategy must satisfy every invariant — precedence, capacity,
//! checkpoint-window math, warm-start eligibility, and cost reconciliation.
//!
//! Negative direction: corrupting a real trace in targeted ways must
//! trip the *specific* checker that guards the corrupted property, so the
//! oracle cannot rot into a rubber stamp.

use mashup_bench::{run_strategy_traced, Strategy};
use mashup_cloud::{FaultPlan, FaultProfile};
use mashup_core::trace::{
    check, Violation, CAPACITY, CKPT_WINDOW, COST, FAULT_ATTRIB, PRECEDENCE, REPLAN, WARM_START,
};
use mashup_core::{ChaosSpec, MashupConfig, TraceEvent, TraceRecord, Tracer, WorkflowReport};
use mashup_dag::Workflow;
use mashup_sim::trace::to_chrome_trace;
use mashup_workflows::{epigenomics, genome1000, srasearch};
use std::collections::BTreeMap;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Traditional,
    Strategy::ServerlessOnly,
    Strategy::Mashup,
    Strategy::Kepler,
    Strategy::Pegasus,
];

fn traced_run(
    cfg: &MashupConfig,
    workflow: &Workflow,
    strategy: Strategy,
) -> (WorkflowReport, Vec<TraceRecord>) {
    let tracer = Tracer::new();
    let report = run_strategy_traced(cfg, workflow, strategy, &tracer);
    (report, tracer.take())
}

fn assert_clean(workflow: &Workflow) {
    let cfg = MashupConfig::aws(4);
    for strategy in STRATEGIES {
        let (report, records) = traced_run(&cfg, workflow, strategy);
        assert!(!records.is_empty(), "{}: empty trace", strategy.label());
        let violations = check(&cfg, workflow, &report, &records);
        assert!(
            violations.is_empty(),
            "{} on '{}' violates invariants:\n{}",
            strategy.label(),
            workflow.name,
            render(&violations)
        );
    }
}

fn render(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| format!("  {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn genome1000_holds_all_invariants_under_every_strategy() {
    assert_clean(&genome1000::workflow());
}

#[test]
fn srasearch_holds_all_invariants_under_every_strategy() {
    assert_clean(&srasearch::workflow());
}

#[test]
fn epigenomics_holds_all_invariants_under_every_strategy() {
    assert_clean(&epigenomics::workflow());
}

/// Chrome and Perfetto close the newest open slice on a thread. So an
/// export reads right only when no thread holds two open slices and each
/// end lands on the thread of the slice it ends: the invocation with its
/// id, the component of its task on its node, the task of its name.
#[test]
fn chrome_export_never_holds_two_open_slices_on_a_thread() {
    let cfg = MashupConfig::aws(8);
    for workflow in [
        genome1000::workflow(),
        srasearch::workflow(),
        epigenomics::workflow(),
    ] {
        for strategy in [Strategy::Mashup, Strategy::Traditional] {
            let (_, records) = traced_run(&cfg, &workflow, strategy);
            let label = format!("{} under {}", workflow.name, strategy.label());
            // What each duration record opens or closes, in record order.
            let slices: Vec<(bool, String)> = records
                .iter()
                .filter_map(|r| match &r.event {
                    TraceEvent::TaskStart { task, .. } => Some((true, format!("task {task}"))),
                    TraceEvent::TaskEnd { task } => Some((false, format!("task {task}"))),
                    TraceEvent::VmCompStart {
                        task, sub, node, ..
                    } => Some((true, format!("comp {task} {sub}/{node}"))),
                    TraceEvent::VmCompEnd { task, sub, node } => {
                        Some((false, format!("comp {task} {sub}/{node}")))
                    }
                    TraceEvent::FnStart { id, .. } => Some((true, format!("fn {id}"))),
                    TraceEvent::FnEnd { id, .. } | TraceEvent::FnKill { id, .. } => {
                        Some((false, format!("fn {id}")))
                    }
                    _ => None,
                })
                .collect();
            let chrome: serde_json::Value =
                serde_json::from_str(&to_chrome_trace(&records)).expect("valid JSON");
            let events = chrome["traceEvents"].as_array().expect("traceEvents");
            let durations: Vec<(&str, u64, u64)> = events
                .iter()
                .map(|e| {
                    let ph = e["ph"].as_str().expect("ph");
                    (
                        ph,
                        e["pid"].as_u64().expect("pid"),
                        e["tid"].as_u64().expect("tid"),
                    )
                })
                .filter(|(ph, _, _)| *ph != "i")
                .collect();
            assert_eq!(durations.len(), slices.len(), "{label}");
            let mut open: BTreeMap<(u64, u64), &str> = BTreeMap::new();
            for ((ph, pid, tid), (begins, slice)) in durations.into_iter().zip(&slices) {
                assert_eq!(ph == "B", *begins, "{label}: {slice}");
                if *begins {
                    if let Some(held) = open.insert((pid, tid), slice) {
                        panic!("{label}: {slice} opens on pid {pid} tid {tid}, which holds {held}");
                    }
                } else {
                    assert_eq!(
                        open.remove(&(pid, tid)),
                        Some(slice.as_str()),
                        "{label}: the end of {slice} lands on pid {pid} tid {tid}"
                    );
                }
            }
            // Traditional runs every component on the cluster; Mashup puts
            // tasks on functions.
            let kind = match strategy {
                Strategy::Traditional => "comp",
                _ => "fn",
            };
            assert!(
                slices.iter().any(|(_, s)| s.starts_with(kind)),
                "{label}: no {kind} slices"
            );
        }
    }
}

// --- negative direction: seeded corruptions trip the right checker ------

fn codes(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.code).collect()
}

#[test]
fn reordering_a_task_start_trips_the_precedence_checker() {
    let cfg = MashupConfig::aws(4);
    let w = srasearch::workflow();
    let (report, mut records) = traced_run(&cfg, &w, Strategy::Traditional);
    assert!(check(&cfg, &w, &report, &records).is_empty());
    // Pull a phase-1 task's start ahead of its producers by giving it the
    // lowest sequence number in the trace.
    let start = records
        .iter()
        .position(|r| matches!(&r.event, TraceEvent::TaskStart { phase: 1, .. }))
        .expect("a dependent task started");
    records[start].seq = 0;
    let v = check(&cfg, &w, &report, &records);
    assert!(codes(&v).contains(&PRECEDENCE), "got: {}", render(&v));
}

#[test]
fn inflating_segment_memory_trips_the_capacity_checker() {
    let cfg = MashupConfig::aws(4);
    let w = srasearch::workflow();
    let (report, mut records) = traced_run(&cfg, &w, Strategy::ServerlessOnly);
    assert!(check(&cfg, &w, &report, &records).is_empty());
    let r = records
        .iter_mut()
        .find(|r| matches!(&r.event, TraceEvent::SegmentStart { .. }))
        .expect("serverless segments ran");
    if let TraceEvent::SegmentStart { mem_gb, .. } = &mut r.event {
        // Claim more RAM than the function cap can hold.
        *mem_gb = cfg.provider.faas.memory_gb * 4.0;
    }
    let v = check(&cfg, &w, &report, &records);
    assert!(codes(&v).contains(&CAPACITY), "got: {}", render(&v));
}

#[test]
fn dropping_checkpoints_trips_the_window_checker() {
    // Shrink the function time cap so SRAsearch's long components must
    // checkpoint and resume across invocations.
    let mut cfg = MashupConfig::aws(4);
    cfg.provider.faas.timeout_secs = 120.0;
    let w = srasearch::workflow();
    let (report, mut records) = traced_run(&cfg, &w, Strategy::ServerlessOnly);
    assert!(
        records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::CheckpointResume { .. })),
        "the shrunken cap must force checkpoint chains"
    );
    assert!(check(&cfg, &w, &report, &records).is_empty());
    // Erase the checkpoints; the resumes now restore state nobody wrote.
    records.retain(|r| !matches!(&r.event, TraceEvent::Checkpoint { .. }));
    let v = check(&cfg, &w, &report, &records);
    assert!(codes(&v).contains(&CKPT_WINDOW), "got: {}", render(&v));
}

#[test]
fn forging_a_warm_start_trips_the_warm_start_checker() {
    let cfg = MashupConfig::aws(4);
    let w = srasearch::workflow();
    let (report, mut records) = traced_run(&cfg, &w, Strategy::ServerlessOnly);
    assert!(check(&cfg, &w, &report, &records).is_empty());
    // The first invocation of each code is necessarily cold; claim warm.
    let r = records
        .iter_mut()
        .find(|r| matches!(&r.event, TraceEvent::FnStart { cold: true, .. }))
        .expect("cold starts happened");
    if let TraceEvent::FnStart { cold, .. } = &mut r.event {
        *cold = false;
    }
    let v = check(&cfg, &w, &report, &records);
    assert!(codes(&v).contains(&WARM_START), "got: {}", render(&v));
}

/// A full adaptive chaos run on SRAsearch: mixed seeded faults sized to
/// the 16-node fault-free makespan, replanning controller on. The trace
/// contains preemptions, retries of both families, and replan events, so
/// it exercises every chaos checker.
fn chaos_run() -> (MashupConfig, Workflow, WorkflowReport, Vec<TraceRecord>) {
    let base = MashupConfig::aws(16);
    let plan = FaultPlan::generate(
        7,
        &FaultProfile::mixed(415.0),
        base.cluster.nodes,
        base.cluster.instance.price_per_hour,
    );
    let cfg = base.with_chaos(ChaosSpec::new(plan).with_adaptive(true));
    let w = srasearch::workflow();
    let (report, records) = traced_run(&cfg, &w, Strategy::Mashup);
    let has = |f: &dyn Fn(&TraceEvent) -> bool| records.iter().any(|r| f(&r.event));
    assert!(
        has(&|e| matches!(e, TraceEvent::Replan { .. }))
            && has(&|e| matches!(e, TraceEvent::CompRetry { .. }))
            && has(&|e| matches!(e, TraceEvent::FaultRetry { .. })),
        "chaos fixture run must replan and retry for the corruptions below to bite"
    );
    assert!(check(&cfg, &w, &report, &records).is_empty());
    (cfg, w, report, records)
}

#[test]
fn inflating_replanned_capacity_trips_the_replan_checker() {
    let (cfg, w, report, mut records) = chaos_run();
    // Claim the controller re-placed onto more nodes than survive the
    // preemptions known at that instant.
    let r = records
        .iter_mut()
        .find(|r| matches!(&r.event, TraceEvent::Replan { .. }))
        .expect("controller replanned");
    if let TraceEvent::Replan { nodes_after, .. } = &mut r.event {
        *nodes_after += 1;
    }
    let v = check(&cfg, &w, &report, &records);
    assert!(codes(&v).contains(&REPLAN), "got: {}", render(&v));
}

#[test]
fn orphaning_a_retry_trips_the_fault_attribution_checker() {
    let (cfg, w, report, mut records) = chaos_run();
    // Point a computation retry at a fault id no preemption ever carried.
    let r = records
        .iter_mut()
        .find(|r| matches!(&r.event, TraceEvent::CompRetry { .. }))
        .expect("preempted components retried");
    if let TraceEvent::CompRetry { id, .. } = &mut r.event {
        *id += 1_000;
    }
    let v = check(&cfg, &w, &report, &records);
    assert!(codes(&v).contains(&FAULT_ATTRIB), "got: {}", render(&v));
}

#[test]
fn scaling_billed_seconds_trips_the_cost_checker() {
    let cfg = MashupConfig::aws(4);
    let w = srasearch::workflow();
    let (report, mut records) = traced_run(&cfg, &w, Strategy::ServerlessOnly);
    assert!(check(&cfg, &w, &report, &records).is_empty());
    let r = records
        .iter_mut()
        .find(|r| matches!(&r.event, TraceEvent::FnEnd { .. }))
        .expect("functions completed");
    if let TraceEvent::FnEnd { billed_secs, .. } = &mut r.event {
        *billed_secs *= 1.5;
    }
    let v = check(&cfg, &w, &report, &records);
    assert!(codes(&v).contains(&COST), "got: {}", render(&v));
}
