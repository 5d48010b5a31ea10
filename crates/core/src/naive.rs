//! Mashup *without* the PDC (paper §3: the "base design").
//!
//! "The base design is to place all tasks with more components than the
//! number of available cluster nodes on the serverless platform." No
//! profiling, no estimates — just the component-count threshold (plus the
//! hard constraints of the plan checks: a task over the function's memory
//! cap or timeout window cannot run in a function at all).

use crate::config::MashupConfig;
use mashup_dag::{PlacementPlan, Platform, Workflow};

/// Builds the w/o-PDC plan: `components > cluster nodes` ⇒ serverless.
pub fn plan_without_pdc(cfg: &MashupConfig, workflow: &Workflow) -> PlacementPlan {
    let mut plan = PlacementPlan::new();
    let ctx = cfg.plan_context();
    for r in workflow.task_refs() {
        let t = workflow.task(r);
        let fits = ctx.misfits(t).next().is_none();
        let platform = if fits && t.components > cfg.cluster.nodes {
            Platform::Serverless
        } else {
            Platform::VmCluster
        };
        plan.set(r, platform);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_dag::{Task, TaskProfile, WorkflowBuilder};

    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(Task::new("narrow", 4, TaskProfile::trivial()));
        b.add_task(Task::new("wide", 100, TaskProfile::trivial()));
        b.add_task(Task::new("fat", 100, TaskProfile::trivial().memory(10.0)));
        b.add_task(Task::new(
            "stuck",
            100,
            TaskProfile::trivial().checkpoint(1e11),
        ));
        b.build()
    }

    #[test]
    fn threshold_is_cluster_node_count() {
        let w = wf();
        let plan = plan_without_pdc(&MashupConfig::aws(8), &w);
        let by_name = |name: &str| {
            let (r, _) = w.task_by_name(name).expect("exists");
            plan.platform(r).expect("assigned")
        };
        assert_eq!(by_name("narrow"), Platform::VmCluster);
        assert_eq!(by_name("wide"), Platform::Serverless);
        // The plan checks always win: memory cap and timeout window.
        assert_eq!(by_name("fat"), Platform::VmCluster);
        assert_eq!(by_name("stuck"), Platform::VmCluster);
    }

    #[test]
    fn larger_clusters_pull_tasks_back_to_vm() {
        let w = wf();
        let plan = plan_without_pdc(&MashupConfig::aws(128), &w);
        let (r, _) = w.task_by_name("wide").expect("exists");
        assert_eq!(plan.platform(r), Ok(Platform::VmCluster));
    }
}
