//! Integration tests of hybrid-execution semantics: pre-warming, boundary
//! refinement, store billing, and checkpoint-margin widening.

use mashup_core::{
    try_execute, ForcedVm, MashupConfig, Pdc, PlacementPlan, Platform, WorkflowReport,
};
use mashup_dag::{DependencyPattern, Task, TaskProfile, TaskRef, Workflow, WorkflowBuilder};

fn execute(cfg: &MashupConfig, w: &Workflow, plan: &PlacementPlan, label: &str) -> WorkflowReport {
    try_execute(cfg, w, plan, label).expect("clean inputs")
}

/// Two serverless phases of the same width: phase 2 should find warm
/// microVMs when pre-warming is on.
#[test]
fn prewarming_cuts_next_phase_cold_starts() {
    let mut b = WorkflowBuilder::new("warmth");
    b.initial_input_bytes(1e6);
    b.begin_phase();
    let a = b.add_task(Task::new(
        "first",
        128,
        TaskProfile::trivial().compute(30.0),
    ));
    b.begin_phase();
    let c = b.add_task(Task::new(
        "second",
        128,
        TaskProfile::trivial().compute(5.0),
    ));
    b.depend(c, a, DependencyPattern::OneToOne);
    let w = b.build().expect("valid");
    let plan = PlacementPlan::uniform(&w, Platform::Serverless);

    let mut on = MashupConfig::aws(2);
    on.prewarm = true;
    let mut off = on.clone();
    off.prewarm = false;

    let with = execute(&on, &w, &plan, "on");
    let without = execute(&off, &w, &plan, "off");
    let cold = |r: &mashup_core::WorkflowReport, t: &str| r.task(t).expect("ran").n_cold;
    assert!(
        cold(&with, "second") < cold(&without, "second"),
        "prewarmed {} vs cold {}",
        cold(&with, "second"),
        cold(&without, "second")
    );
    // Pre-warming costs function time, so it must show up in the bill.
    assert!(with.expense.faas_dollars > 0.0);
}

/// A task with one VM producer and one serverless producer must read via
/// the store (the VM producer is forced to upload because its sibling
/// consumer path crosses the boundary).
#[test]
fn mixed_producer_locations_route_through_the_store() {
    let mut b = WorkflowBuilder::new("mixed");
    b.initial_input_bytes(1e6);
    b.begin_phase();
    let vm_side = b.add_task(Task::new("vm-prod", 2, TaskProfile::trivial().io(0.0, 1e7)));
    let sl_side = b.add_task(Task::new("sl-prod", 2, TaskProfile::trivial().io(0.0, 1e7)));
    b.begin_phase();
    let consumer = b.add_task(Task::new(
        "consumer",
        2,
        TaskProfile::trivial().compute(5.0).io(2e7, 0.0),
    ));
    b.depend(consumer, vm_side, DependencyPattern::OneToOne);
    b.depend(consumer, sl_side, DependencyPattern::OneToOne);
    let w = b.build().expect("valid");

    let mut plan = PlacementPlan::uniform(&w, Platform::VmCluster);
    plan.set(TaskRef::new(0, 1), Platform::Serverless); // sl-prod
    let report = execute(&MashupConfig::aws(4), &w, &plan, "mixed");
    // Storage was billed: the serverless producer's output and the staged
    // initial input lived in the store.
    assert!(report.expense.storage_dollars > 0.0);
    // The consumer (VM) did real I/O (WAN reads), the vm-producer uploaded.
    assert!(report.task("consumer").expect("ran").io_secs > 0.0);
    assert!(report.task("vm-prod").expect("ran").io_secs > 0.0);
}

/// A pure-VM plan must never touch the store — no storage dollars at all.
#[test]
fn pure_vm_plans_never_bill_storage() {
    let mut b = WorkflowBuilder::new("vm-only");
    b.initial_input_bytes(1e12);
    b.begin_phase();
    b.add_task(Task::new("t", 16, TaskProfile::trivial().io(1e8, 1e8)));
    let w = b.build().expect("valid");
    let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
    let report = execute(&MashupConfig::aws(4), &w, &plan, "vm");
    assert_eq!(report.expense.storage_dollars, 0.0);
    assert_eq!(report.expense.faas_dollars, 0.0);
}

/// The PDC's boundary refinement: a serverless placement whose upstream
/// would have to push an enormous output over the WAN gets flipped back to
/// the cluster, with an explanatory reason.
#[test]
fn boundary_tax_flips_marginal_serverless_wins_back_to_vm() {
    let mut b = WorkflowBuilder::new("taxed");
    b.initial_input_bytes(1e6);
    b.begin_phase();
    // Huge-output producer that clearly belongs on the cluster.
    let producer = b.add_task(Task::new(
        "producer",
        4,
        TaskProfile::trivial().compute(500.0).io(0.0, 5e10),
    ));
    b.begin_phase();
    // Consumer with a tiny serverless edge: the 200 GB boundary upload
    // dwarfs it.
    let consumer = b.add_task(Task::new(
        "consumer",
        64,
        TaskProfile::trivial()
            .compute(3.0)
            .memory(2.0)
            .contention(0.0),
    ));
    b.depend(consumer, producer, DependencyPattern::AllToAll);
    let w = b.build().expect("valid");
    let pdc = Pdc::new(MashupConfig::aws(16)).decide(&w);
    let d = pdc
        .decisions
        .iter()
        .find(|d| w.task(d.task).name == "consumer")
        .expect("decided");
    if d.platform == Platform::VmCluster {
        // Either the raw comparison kept it on VM, or the refinement
        // flipped it and said why.
        if let Some(reason) = &d.forced_vm_reason {
            assert!(
                matches!(reason, ForcedVm::BoundaryTax { .. }),
                "unexpected reason: {reason}"
            );
        }
    } else {
        // If it stayed serverless the gain must genuinely exceed the tax.
        assert!(d.t_vm_secs - d.t_serverless_est_secs > 0.0);
    }
    // The producer itself must be on the cluster.
    let p = pdc
        .decisions
        .iter()
        .find(|d| w.task(d.task).name == "producer")
        .expect("decided");
    assert_eq!(p.platform, Platform::VmCluster);
}

/// Checkpoint states too large for the default 30 s margin get a widened
/// margin instead of a watchdog kill.
#[test]
fn large_checkpoints_widen_the_margin_instead_of_dying() {
    let mut b = WorkflowBuilder::new("big-state");
    b.initial_input_bytes(1e6);
    b.begin_phase();
    b.add_task(Task::new(
        "heavy",
        1,
        TaskProfile::trivial()
            .compute(2000.0) // > 900 s cap, needs chains
            .memory(2.0)
            .checkpoint(4.0e9), // 80 s to write at 50 MB/s: margin must widen
    ));
    let w = b.build().expect("valid");
    let cfg = MashupConfig::aws(2);
    assert!(cfg.plan_context().margin_for(4.0e9) > 30.0);
    let plan = PlacementPlan::uniform(&w, Platform::Serverless);
    let report = execute(&cfg, &w, &plan, "big-state");
    let t = report.task("heavy").expect("ran");
    assert!(t.checkpoints >= 2);
    // All compute arrived despite the chains.
    assert!(t.compute_secs >= 2000.0 - 1e-6);
}

/// Sub-cluster splits isolate concurrent tasks in the hybrid executor too:
/// a 2-split keeps a single long task off the nodes a wide task thrashes.
#[test]
fn subcluster_split_isolates_concurrent_vm_tasks() {
    let mut b = WorkflowBuilder::new("iso");
    b.initial_input_bytes(1e6);
    b.begin_phase();
    b.add_task(Task::new(
        "wide",
        256,
        TaskProfile::trivial()
            .compute(10.0)
            .memory(2.0)
            .contention(2.0),
    ));
    b.add_task(Task::new("solo", 1, TaskProfile::trivial().compute(100.0)));
    let w = b.build().expect("valid");
    let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
    let joint = execute(&MashupConfig::aws(8), &w, &plan, "joint");
    let split = execute(
        &MashupConfig::aws(8).with_subclusters(2),
        &w,
        &plan,
        "split",
    );
    let solo_joint = joint.task("solo").expect("ran").makespan_secs();
    let solo_split = split.task("solo").expect("ran").makespan_secs();
    assert!(
        solo_split < solo_joint,
        "isolated {solo_split:.0}s vs co-located {solo_joint:.0}s"
    );
}
