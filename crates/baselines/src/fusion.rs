//! The function-fusion baseline (Costless-style, cf. Elgamal et al.,
//! "Costless: Optimizing Cost of Serverless Computing").
//!
//! Fusion merges a producer with its sole one-to-one consumer so the
//! intermediate dataset stays in function memory instead of round-tripping
//! through the object store. This baseline applies the rewrite greedily to
//! a fixpoint — largest eliminated transfer first, chains collapse across
//! rounds — then runs the fused workflow entirely serverless, cold starts
//! and all (pre-warming is Mashup's mitigation, not part of this
//! baseline). It is the "fusion fixes serverless" counterpoint the Pareto
//! search measures hybrid placement against.

use mashup_core::{
    execute, AnalysisError, CheckedWorkflow, MashupConfig, PlacementPlan, Platform, Release,
    Tracer, WorkflowReport,
};
use mashup_dag::{fusable_pairs, fuse, FusionCandidate, TaskRef, Workflow};

/// Applies fusion rewrites greedily until none remain: each round picks a
/// maximal disjoint set of fusable pairs (largest
/// [`eliminated_bytes`](FusionCandidate::eliminated_bytes) first, DAG
/// order on ties) and fuses them; pipelines collapse to a single task
/// across rounds. Deterministic for a given workflow.
pub fn maximal_fusion(workflow: &Workflow) -> Workflow {
    let mut w = workflow.clone();
    loop {
        let pairs = fusable_pairs(&w);
        if pairs.is_empty() {
            return w;
        }
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by(|&a, &b| {
            pairs[b]
                .eliminated_bytes(&w)
                .partial_cmp(&pairs[a].eliminated_bytes(&w))
                .expect("finite transfer volumes")
                .then(a.cmp(&b))
        });
        let mut chosen: Vec<FusionCandidate> = Vec::new();
        let mut used: Vec<TaskRef> = Vec::new();
        for i in order {
            let p = pairs[i];
            if used.contains(&p.producer) || used.contains(&p.consumer) {
                continue;
            }
            used.push(p.producer);
            used.push(p.consumer);
            chosen.push(p);
        }
        w = fuse(&w, &chosen).expect("disjoint pairs always fuse");
    }
}

/// Runs the maximally fused workflow entirely on the serverless platform.
/// The fused workflow is a new one, so it is checked in turn. A fused task
/// whose memory footprint exceeds the function cap is refused (diagnostic
/// M203): such a workflow has no serverless fusion execution.
pub(crate) fn run(
    cfg: &MashupConfig,
    workflow: &Workflow,
    tracer: &Tracer,
) -> Result<WorkflowReport, AnalysisError> {
    let mut cfg = cfg.clone();
    cfg.prewarm = false;
    let fused = CheckedWorkflow::new(maximal_fusion(workflow))?;
    let plan = PlacementPlan::uniform(&fused, Platform::Serverless);
    execute(
        &cfg,
        &fused,
        &plan,
        None,
        Release::PhaseBarrier,
        "fusion",
        tracer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, WorkflowBuilder};

    /// A→B→C pipeline (collapses to one task) plus a fan-out D that stays.
    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.initial_input_bytes(1e8);
        b.begin_phase();
        let a = b.add_task(Task::new(
            "A",
            8,
            TaskProfile::trivial().compute(4.0).io(1e7, 2e8),
        ));
        b.begin_phase();
        let t = b.add_task(Task::new(
            "B",
            8,
            TaskProfile::trivial().compute(3.0).io(2e8, 1e7),
        ));
        b.depend(t, a, DependencyPattern::OneToOne);
        b.begin_phase();
        let c = b.add_task(Task::new(
            "C",
            8,
            TaskProfile::trivial().compute(2.0).io(1e7, 1e7),
        ));
        b.depend(c, t, DependencyPattern::OneToOne);
        let d = b.add_task(Task::new("D", 4, TaskProfile::trivial().compute(1.0)));
        b.depend(d, t, DependencyPattern::FanInBlocks);
        b.build().expect("valid")
    }

    #[test]
    fn fixpoint_collapses_pipelines_only() {
        // B has two consumers (C and D), so only A→B fuses; C and D keep
        // their rewired dependency on the merged task.
        let fused = maximal_fusion(&wf());
        assert_eq!(fused.task_count(), 3);
        assert!(fused.flat_by_name("A+B").is_some());
        // A straight pipeline collapses completely.
        let mut b = WorkflowBuilder::new("pipe");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        let a = b.add_task(Task::new("X", 4, TaskProfile::trivial().compute(1.0)));
        b.begin_phase();
        let y = b.add_task(Task::new("Y", 4, TaskProfile::trivial().compute(1.0)));
        b.depend(y, a, DependencyPattern::OneToOne);
        b.begin_phase();
        let z = b.add_task(Task::new("Z", 4, TaskProfile::trivial().compute(1.0)));
        b.depend(z, y, DependencyPattern::OneToOne);
        let pipe = b.build().expect("valid");
        let fused = maximal_fusion(&pipe);
        assert_eq!(fused.task_count(), 1);
        assert_eq!(fused.phases[0].tasks[0].name, "X+Y+Z");
    }

    #[test]
    fn fusion_run_bills_no_vm_and_beats_plain_serverless_io() {
        let cfg = MashupConfig::aws(4);
        let w = wf();
        let fused = crate::run_untraced(Strategy::Fusion, &cfg, &w);
        assert_eq!(fused.expense.vm_dollars, 0.0);
        assert!(fused.expense.faas_dollars > 0.0);
        assert_eq!(fused.strategy, "fusion");
        // The fused run moves less data through the store than the plain
        // serverless run (A→B's 8 × 2e8 B intermediate never leaves
        // function memory), so it spends less wall time on I/O.
        let plain = crate::run_untraced(Strategy::ServerlessOnly, &cfg, &w);
        let io = |r: &WorkflowReport| r.tasks.iter().map(|t| t.io_secs).sum::<f64>();
        assert!(io(&fused) < io(&plain), "{} vs {}", io(&fused), io(&plain));
    }

    #[test]
    fn traced_run_matches_untraced() {
        let cfg = MashupConfig::aws(4);
        let tracer = Tracer::new();
        let traced = run(&cfg, &wf(), &tracer).expect("clean inputs");
        let untraced = crate::run_untraced(Strategy::Fusion, &cfg, &wf());
        assert_eq!(traced, untraced);
        assert!(!tracer.take().is_empty());
    }
}
