//! The PDC's VM profiling passes against a reference built the plain way.
//!
//! `Pdc::plan` profiles a checked workflow on the all-VM cluster once per
//! candidate sub-cluster split (k = 1, 2, 4). It shares one workflow copy
//! across the passes, runs them unchecked and indexes each pass's task
//! times by flat id. The reference here runs three `execute_in` passes,
//! each checking its config and plan, and maps every report back to a flat
//! id by task name; every field the profiling stage produces must match it
//! bit for bit. The remaining tests pin where refusals happen and the
//! naming of reports built after the event loop.

use mashup_bench::scale::{self, Shape};
use mashup_cloud::{Expense, Fault, FaultPlan};
use mashup_core::{
    execute, execute_in, preflight, ChaosSpec, CheckedWorkflow, CloudEnv, MashupConfig, Pdc,
    PlacementPlan, PlanCache, Platform, TraceEvent, Tracer, WorkflowReport,
};
use mashup_dag::Workflow;
use mashup_workflows::{epigenomics, genome1000, srasearch};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What the VM profiling stage produces.
#[derive(Debug)]
struct Profile {
    best_task_vm: Vec<f64>,
    subclusters: usize,
    vm_makespan_secs: f64,
    expense: Expense,
}

/// The profiling passes as three independent, fully checked executions.
fn reference(cfg: &MashupConfig, w: &Workflow) -> Profile {
    let checked = CheckedWorkflow::borrowed(w).expect("clean workflow");
    let vm_plan = PlacementPlan::uniform(w, Platform::VmCluster);
    let mut expense = Expense::default();
    let mut best_task_vm = vec![f64::INFINITY; w.task_count()];
    let mut best: Option<(usize, WorkflowReport)> = None;
    let flat_of: BTreeMap<&str, usize> = w
        .task_refs()
        .enumerate()
        .map(|(flat, r)| (w.task(r).name.as_str(), flat))
        .collect();
    for k in [1usize, 2, 4] {
        if k > cfg.cluster.nodes {
            continue;
        }
        let tuned = cfg.clone().with_subclusters(k);
        let mut env = CloudEnv::with_seed_offset(&tuned, 0x9e3779b9);
        let report = execute_in(&mut env, &tuned, &checked, &vm_plan, "pdc-profiling")
            .expect("clean config and plan");
        expense.vm_dollars += report.expense.vm_dollars;
        expense.faas_dollars += report.expense.faas_dollars;
        expense.storage_dollars += report.expense.storage_dollars;
        for t in &report.tasks {
            let flat = flat_of[t.name.as_str()];
            best_task_vm[flat] = best_task_vm[flat].min(t.makespan_secs());
        }
        if best
            .as_ref()
            .is_none_or(|(_, b)| report.makespan_secs < b.makespan_secs * 0.95)
        {
            best = Some((k, report));
        }
    }
    let (subclusters, report) = best.expect("k = 1 always runs");
    Profile {
        best_task_vm,
        subclusters,
        vm_makespan_secs: report.makespan_secs,
        expense,
    }
}

/// The profiling stage as `decide` reports it: each decision carries its
/// task's best VM time verbatim, in flat-id order.
fn profiled(pdc: &Pdc, w: &Workflow) -> Profile {
    let report = pdc.decide(w);
    Profile {
        best_task_vm: report.decisions.iter().map(|d| d.t_vm_secs).collect(),
        subclusters: report.subclusters,
        vm_makespan_secs: report.profiling_vm_makespan_secs,
        expense: report.profiling_expense,
    }
}

fn assert_bit_identical(label: &str, got: &Profile, want: &Profile) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.best_task_vm),
        bits(&want.best_task_vm),
        "{label}: best_task_vm"
    );
    assert_eq!(got.subclusters, want.subclusters, "{label}: subclusters");
    assert_eq!(
        got.vm_makespan_secs.to_bits(),
        want.vm_makespan_secs.to_bits(),
        "{label}: vm_makespan_secs"
    );
    for (field, g, w) in [
        ("vm", got.expense.vm_dollars, want.expense.vm_dollars),
        ("faas", got.expense.faas_dollars, want.expense.faas_dollars),
        (
            "storage",
            got.expense.storage_dollars,
            want.expense.storage_dollars,
        ),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: {field} expense");
    }
}

#[test]
fn paper_workflow_profiles_match_the_checked_three_pass_reference() {
    let paper = [
        genome1000::workflow as fn() -> Workflow,
        srasearch::workflow,
        epigenomics::workflow,
    ];
    for build in paper {
        let w = build();
        for nodes in [4, 8, 16] {
            let cfg = MashupConfig::aws(nodes);
            let got = profiled(&Pdc::new(cfg.clone()), &w);
            let label = format!("{}@{nodes}", w.name);
            assert_bit_identical(&label, &got, &reference(&cfg, &w));
        }
    }
}

#[test]
fn scale_profiles_match_the_checked_three_pass_reference() {
    for shape in [Shape::FanOut, Shape::Chain] {
        let w = scale::workflow(shape, 10_000);
        let cfg = MashupConfig::aws(8);
        let got = profiled(&Pdc::new(cfg.clone()).with_probe_sharing(true), &w);
        assert_bit_identical(shape.name(), &got, &reference(&cfg, &w));
    }
}

/// SRAsearch with one profile field the analyzer refuses (M105).
fn refused_workflow() -> Workflow {
    let w = srasearch::workflow();
    let mut phases = w.phases.clone();
    phases[0].tasks[0].profile.compute_secs_vm = f64::NAN;
    Workflow::new(w.name.clone(), phases, w.initial_input_bytes)
}

#[test]
fn decide_on_a_refused_workflow_panics_with_the_analyzer_message() {
    let cfg = MashupConfig::aws(8);
    let w = refused_workflow();
    let vm_plan = PlacementPlan::uniform(&w, Platform::VmCluster);
    let expected = preflight(&cfg.clone().with_subclusters(1), &w, Some(&vm_plan))
        .expect_err("NaN compute is refused")
        .to_string();
    let payload = catch_unwind(AssertUnwindSafe(|| Pdc::new(cfg).decide(&w)))
        .expect_err("decide must refuse the workflow");
    let message = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(message, &expected);
}

#[test]
fn plan_refuses_before_any_profiling_pass() {
    // The workflow checks refuse before a planner can be called at all.
    let w = refused_workflow();
    let err = CheckedWorkflow::borrowed(&w).expect_err("typed refusal");
    assert_eq!(err, preflight(&MashupConfig::aws(8), &w, None).unwrap_err());
    // The planner's own config checks refuse before any profiling stage.
    let cfg = MashupConfig::aws(0);
    let w = CheckedWorkflow::new(srasearch::workflow()).expect("clean workflow");
    let cache = Arc::new(PlanCache::new());
    let err = Pdc::new(cfg.clone())
        .with_cache(cache.clone())
        .plan(&w)
        .expect_err("typed refusal");
    assert_eq!(err, w.check(&cfg, None, None).unwrap_err());
    assert_eq!(cache.stats().misses(), 0, "no profiling stage ran");
}

#[test]
fn adaptive_replan_keeps_report_names_in_completion_order() {
    let w = CheckedWorkflow::new(srasearch::workflow()).expect("clean workflow");
    let cfg = MashupConfig::aws(8);
    let plan = Pdc::new(cfg.clone()).plan(&w).expect("clean config").plan;
    let mut faults = FaultPlan::empty(7);
    faults.faults.push(Fault::Preempt {
        at_secs: 5.0,
        node: 1,
    });
    let chaotic = cfg.with_chaos(ChaosSpec::new(faults).with_adaptive(true));
    let tracer = Tracer::new();
    let report = execute(&chaotic, &w, &plan, None, "adaptive", &tracer).expect("clean inputs");
    let records = tracer.take();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Replan { .. })),
        "the preemption must trigger a replan"
    );
    // Reports are pushed as tasks finish, exactly where the recorder logs
    // each task's end.
    let ended: Vec<&str> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::TaskEnd { task } => Some(task.as_str()),
            _ => None,
        })
        .collect();
    let named: Vec<&str> = report.tasks.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(named, ended);
    let mut sorted = named.clone();
    sorted.sort_unstable();
    let mut all: Vec<&str> = w
        .phases
        .iter()
        .flat_map(|p| &p.tasks)
        .map(|t| t.name.as_str())
        .collect();
    all.sort_unstable();
    assert_eq!(sorted, all, "every task reported once");
}
