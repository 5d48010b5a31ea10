//! Property: a workflow the analyzer passes with zero errors executes
//! end-to-end without panicking — on the full Mashup engine, a uniform
//! serverless plan, and a uniform VM-cluster (traditional) plan. The
//! analyzer's whole contract is that its gate is at least as strong as
//! every runtime assertion behind it, and the planners place a task in a
//! function only where that gate would accept it.

use mashup::analyze::{has_errors, Code};
use mashup::engine::{
    execute, plan_without_pdc, preflight, try_execute, Release, Sizing, MEMORY_TIERS_GB,
};
use mashup::prelude::{Strategy, *};
use mashup_workflows::{generate, SyntheticConfig};
use proptest::prelude::*;

fn small_synthetic(seed: u64) -> Workflow {
    generate(
        &SyntheticConfig {
            phases: 3,
            tasks_per_phase: (1, 2),
            component_choices: vec![1, 4, 16, 48],
            compute_secs: (1.0, 60.0),
            io_bytes: (1.0e5, 5.0e7),
            slowdown: (0.8, 1.8),
            recurring_prob: 0.2,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Analyzer-clean workflows execute under every strategy. The typed
    /// `try_*` APIs may refuse (that is their job) but must never panic,
    /// and an accepted run must produce a positive makespan.
    #[test]
    fn clean_workflows_execute_without_panicking(seed in 0u64..1000) {
        let w = small_synthetic(seed);
        let cfg = MashupConfig::aws(4);
        let warnings = preflight(&cfg, &w, None).expect("synthetic workflows analyze clean");
        prop_assert!(!has_errors(&warnings));

        // Traditional: uniform VM plan must both pass the gate and run.
        let vm_plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        let report = try_execute(&cfg, &w, &vm_plan, "traditional")
            .expect("uniform VM plan is always executable");
        prop_assert!(report.makespan_secs > 0.0);

        // Serverless-only: the gate may refuse the plan (typed error), but
        // an accepted plan must run to completion.
        let sl_plan = PlacementPlan::uniform(&w, Platform::Serverless);
        match try_execute(&cfg, &w, &sl_plan, "serverless-only") {
            Ok(report) => prop_assert!(report.makespan_secs > 0.0),
            Err(e) => prop_assert!(e.errors().count() > 0),
        }

        // Full Mashup: PDC decisions over a clean workflow must yield an
        // executable plan.
        let outcome = Mashup::new(cfg).try_run(&w).expect("PDC plan executes");
        prop_assert!(outcome.report.makespan_secs > 0.0);
    }
}

/// Checkpoint sizes around the M202 bounds at the 50 MB/s function
/// bandwidth and 900 s timeout: past ~20 GB the resume re-read eats most of
/// a window, from 30 GB a chained component stalls, and from 37.5 GB the
/// margin alone swallows the timeout.
const CHECKPOINT_BYTES: [f64; 6] = [1.0e6, 1.0e10, 2.0e10, 3.0e10, 4.0e10, 1.0e11];
/// Per-component compute around the 900 s window.
const COMPUTE_SECS: [f64; 4] = [5.0, 300.0, 850.0, 2000.0];
/// Memory around the 3 GiB base function and the per-task tier menu.
const MEMORY_GB: [f64; 6] = [0.5, 1.5, 2.5, 3.5, 6.0, 9.0];
const COMPONENTS: [usize; 3] = [1, 4, 16];

/// One task in phase 0 feeding the rest in phase 1; each task is
/// `(checkpoint, compute, memory, components)` indices into the menus.
fn straddling_workflow(tasks: &[(usize, usize, usize, usize)]) -> Workflow {
    let mut b = WorkflowBuilder::new("straddle");
    b.initial_input_bytes(1.0e8);
    let mut first = None;
    for (i, &(ckpt, compute, memory, comps)) in tasks.iter().enumerate() {
        if i < 2 {
            b.begin_phase();
        }
        let profile = TaskProfile::trivial()
            .compute(COMPUTE_SECS[compute])
            .checkpoint(CHECKPOINT_BYTES[ckpt])
            .memory(MEMORY_GB[memory])
            .io(1.0e6, 1.0e6);
        let t = b.add_task(Task::new(format!("t{i}"), COMPONENTS[comps], profile));
        match first {
            None => first = Some(t),
            Some(p) => b.depend(t, p, DependencyPattern::AllToAll),
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whenever the checks accept a workflow and a config, the PDC's plan
    /// (sized or not) and the w/o-PDC plan pass the M2xx checks, and the
    /// PDC's plan executes.
    #[test]
    fn planners_place_only_what_the_plan_checks_accept(
        tasks in collection::vec((0usize..6, 0usize..4, 0usize..6, 0usize..3), 2..=3),
        tiers in collection::vec(0usize..MEMORY_TIERS_GB.len(), 3),
        sized in any::<bool>(),
    ) {
        let w = CheckedWorkflow::new(straddling_workflow(&tasks)).expect("generated DAGs check");
        let cfg = MashupConfig::aws(4);
        let naive = plan_without_pdc(&cfg, &w);
        prop_assert!(w.check(&cfg, Some(&naive), None).is_ok(), "w/o-PDC plan refused");

        let sizing = sized.then(|| Sizing {
            tiers_gb: tiers[..w.task_count()].iter().map(|&i| MEMORY_TIERS_GB[i]).collect(),
        });
        let mut pdc = Pdc::new(cfg.clone());
        if let Some(s) = &sizing {
            pdc = pdc.with_sizing(s.clone());
        }
        let report = pdc.plan(&w).expect("a clean config plans");
        let tuned = cfg.with_subclusters(report.subclusters);
        let checked = w.check(&tuned, Some(&report.plan), sizing.as_ref());
        prop_assert!(checked.is_ok(), "PDC plan refused: {checked:?}");
        let run = execute(
            &tuned,
            &w,
            &report.plan,
            sizing.as_ref(),
            Release::PhaseBarrier,
            "prop",
            &Tracer::off(),
        );
        prop_assert!(run.is_ok_and(|r| r.makespan_secs > 0.0));
    }
}

/// `examples/protein_screen.json` with Dock's checkpoint grown to `bytes`
/// and, when given, its compute to `compute_secs`.
fn protein_screen(bytes: f64, compute_secs: Option<f64>) -> CheckedWorkflow<'static> {
    let json = include_str!("../examples/protein_screen.json");
    let mut w = mashup::dag::from_json(json).expect("parse protein_screen");
    let dock = &mut w.phases[0].tasks[0].profile;
    dock.checkpoint_bytes = bytes;
    if let Some(secs) = compute_secs {
        dock.compute_secs_vm = secs;
    }
    CheckedWorkflow::new(Workflow::new(
        w.name.clone(),
        w.phases,
        w.initial_input_bytes,
    ))
    .expect("the analyzer accepts the workflow itself")
}

/// Dock with a 1e11-byte checkpoint: the margin swallows the timeout. The
/// PDC and w/o-PDC used to probe or place it in a function (an invalid
/// `SimTime` panic); both now keep it on the VM cluster.
#[test]
fn a_checkpoint_margin_over_the_timeout_keeps_the_task_on_the_vm_cluster() {
    let w = protein_screen(1.0e11, None);
    let cfg = MashupConfig::aws(8);
    for s in [Strategy::Mashup, Strategy::MashupWithoutPdc] {
        let report = s.run(&cfg, &w, &Tracer::off(), None);
        let report = report.unwrap_or_else(|e| panic!("{}: {e}", s.label()));
        let dock = report.task("Dock").expect("Dock ran");
        assert_eq!(dock.platform, Platform::VmCluster, "{}", s.label());
    }
    let err = Strategy::ServerlessOnly
        .run(&cfg, &w, &Tracer::off(), None)
        .expect_err("no function can run Dock");
    assert!(err.errors().all(|d| d.code == Code::FaasWindowInfeasible));
}

/// Dock with a 3e10-byte checkpoint and 2000 s of compute must chain, but
/// re-reading the checkpoint eats every resumed window. The PDC used to
/// place it serverless and the executor refused its own plan with M202.
#[test]
fn a_task_that_cannot_chain_is_planned_onto_the_vm_cluster() {
    let w = protein_screen(3.0e10, Some(2000.0));
    let outcome = Mashup::new(MashupConfig::aws(4))
        .run_checked(&w)
        .expect("the PDC's plan passes its own checks");
    let dock = &outcome.pdc.decisions[0];
    assert_eq!(dock.platform, Platform::VmCluster);
    assert_eq!(dock.probe_secs, 0.0, "never probed in a function");
}
