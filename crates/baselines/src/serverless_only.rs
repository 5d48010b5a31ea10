//! The serverless-only baseline (paper §4).
//!
//! "All the tasks are executed by serverless functions and no VM clusters
//! are involved. Checkpointing is used for components that exceed the
//! run-time limit of serverless functions, and hence, remote storage
//! effects on execution time and cost are accounted for."
//!
//! Tasks whose memory footprint physically cannot fit a function are the
//! one exception — the paper's evaluation workflows fit 3 GB Lambdas, and
//! [`run`] refuses any that does not (diagnostic M203) instead of silently
//! falling back to a VM.

use mashup_core::{
    execute, AnalysisError, CheckedWorkflow, MashupConfig, PlacementPlan, Platform, Release,
    Tracer, WorkflowReport,
};

/// Runs the workflow entirely on the serverless platform.
pub(crate) fn run(
    cfg: &MashupConfig,
    workflow: &CheckedWorkflow,
    tracer: &Tracer,
) -> Result<WorkflowReport, AnalysisError> {
    // Pre-warming is one of Mashup's §3 mitigations, not part of the naive
    // serverless-only baseline: functions here pay their cold starts.
    let mut cfg = cfg.clone();
    cfg.prewarm = false;
    let plan = PlacementPlan::uniform(workflow, Platform::Serverless);
    execute(
        &cfg,
        workflow,
        &plan,
        None,
        Release::PhaseBarrier,
        "serverless-only",
        tracer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use mashup_core::Code;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, TaskRef, Workflow, WorkflowBuilder};

    fn wf(long: bool) -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.initial_input_bytes(1e8);
        b.begin_phase();
        let compute = if long { 2000.0 } else { 5.0 };
        b.add_task(Task::new(
            "a",
            4,
            TaskProfile::trivial().compute(compute).checkpoint(1e6),
        ));
        b.begin_phase();
        let t = b.add_task(Task::new("b", 1, TaskProfile::trivial().compute(1.0)));
        b.depend(t, TaskRef::new(0, 0), DependencyPattern::AllToAll);
        b.build()
    }

    #[test]
    fn bills_only_faas_and_storage() {
        let r = crate::run_untraced(Strategy::ServerlessOnly, &MashupConfig::aws(4), &wf(false));
        assert_eq!(r.expense.vm_dollars, 0.0);
        assert!(r.expense.faas_dollars > 0.0);
        assert!(r.expense.storage_dollars > 0.0);
        assert_eq!(r.cluster_nodes, 0);
    }

    #[test]
    fn over_cap_tasks_checkpoint() {
        let r = crate::run_untraced(Strategy::ServerlessOnly, &MashupConfig::aws(4), &wf(true));
        let a = r.task("a").expect("exists");
        // 2000 s of compute per component crosses the 900 s cap at least
        // twice per component.
        assert!(a.checkpoints >= 8, "checkpoints {}", a.checkpoints);
    }

    #[test]
    fn oversized_memory_is_refused() {
        let mut w = wf(false);
        w.phases[0].tasks[0].profile.memory_gb = 32.0;
        let w = CheckedWorkflow::new(w).expect("clean workflow");
        let err = run(&MashupConfig::aws(4), &w, &Tracer::off()).unwrap_err();
        assert!(err.errors().all(|d| d.code == Code::FaasMemoryExceeded));
        assert_eq!(err.errors().count(), 1);
    }
}
