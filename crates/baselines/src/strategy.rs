//! The strategy registry: every execution strategy the paper compares,
//! dispatched from one place.

use crate::{fusion, pegasus, serverless_only, traditional};
use mashup_core::{
    execute, plan_without_pdc, AnalysisError, CheckedWorkflow, Mashup, MashupConfig, PlacementPlan,
    PlanCache, Platform, Release, Tracer, WorkflowReport,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Every execution strategy the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Plain all-VM phase-ordered execution.
    Traditional,
    /// All-VM with the paper's sub-cluster-split strengthening.
    TraditionalTuned,
    /// Everything on FaaS with checkpointing.
    ServerlessOnly,
    /// Costless-like greedy function fusion, then everything on FaaS.
    Fusion,
    /// Pegasus-like: task clustering + data reuse on VMs.
    Pegasus,
    /// Kepler-like (Altintas et al., SSDBM 2004): its dataflow director
    /// fires an actor as soon as its inputs are available instead of at a
    /// global phase barrier. On a VM cluster that is task-level pipelining,
    /// the scheduling optimization the paper credits the state-of-the-art
    /// managers with: a task starts the moment its producers finish, while
    /// its producers' siblings may still run. An all-VM plan under
    /// [`Release::Dataflow`]; no serverless, no external storage.
    Kepler,
    /// Hybrid with the component-count threshold (no profiling).
    MashupWithoutPdc,
    /// The full system: PDC profiling + hybrid execution.
    Mashup,
}

impl Strategy {
    /// All strategies in presentation order.
    pub const ALL: [Strategy; 8] = [
        Strategy::Traditional,
        Strategy::TraditionalTuned,
        Strategy::ServerlessOnly,
        Strategy::Fusion,
        Strategy::Pegasus,
        Strategy::Kepler,
        Strategy::MashupWithoutPdc,
        Strategy::Mashup,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Traditional => "traditional",
            Strategy::TraditionalTuned => "traditional-tuned",
            Strategy::ServerlessOnly => "serverless-only",
            Strategy::Fusion => "fusion",
            Strategy::Pegasus => "pegasus",
            Strategy::Kepler => "kepler",
            Strategy::MashupWithoutPdc => "mashup-wo-pdc",
            Strategy::Mashup => "mashup",
        }
    }

    /// Runs this strategy on `workflow` under `cfg`, recording the
    /// execution into `tracer` (pass `Tracer::off()` for an unrecorded
    /// run; a recorded run is byte-identical to an unrecorded one).
    /// `cache` memoizes Mashup's profiling stages (with `None`, in a cache
    /// of the run's own); the other strategies ignore it.
    ///
    /// The workflow arrives checked. Every strategy checks its config and
    /// plan before it builds an environment, and refuses error-diagnosed
    /// ones with a typed [`AnalysisError`]; fusion and Pegasus also check
    /// the workflow their rewrite produces.
    pub fn run(
        self,
        cfg: &MashupConfig,
        workflow: &CheckedWorkflow,
        tracer: &Tracer,
        cache: Option<Arc<PlanCache>>,
    ) -> Result<WorkflowReport, AnalysisError> {
        match self {
            Strategy::Traditional => traditional::run(cfg, workflow, tracer),
            Strategy::TraditionalTuned => traditional::run_tuned(cfg, workflow, tracer),
            Strategy::ServerlessOnly => serverless_only::run(cfg, workflow, tracer),
            Strategy::Fusion => fusion::run(cfg, workflow, tracer),
            Strategy::Pegasus => pegasus::run(cfg, workflow, tracer),
            Strategy::Kepler => {
                let plan = PlacementPlan::uniform(workflow, Platform::VmCluster);
                execute(
                    cfg,
                    workflow,
                    &plan,
                    None,
                    Release::Dataflow,
                    "kepler",
                    tracer,
                )
            }
            Strategy::MashupWithoutPdc => {
                let plan = plan_without_pdc(cfg, workflow);
                execute(
                    cfg,
                    workflow,
                    &plan,
                    None,
                    Release::PhaseBarrier,
                    "mashup-wo-pdc",
                    tracer,
                )
            }
            Strategy::Mashup => Mashup::new(cfg.clone())
                .with_cache(cache.unwrap_or_default())
                .with_tracer(tracer.clone())
                .run_checked(workflow)
                .map(|outcome| outcome.report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_core::Code;
    use mashup_dag::{DependencyPattern, Task, TaskProfile, Workflow, WorkflowBuilder};

    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("mix");
        b.initial_input_bytes(1.0e9);
        b.begin_phase();
        let wide = b.add_task(Task::new(
            "wide",
            128,
            TaskProfile::trivial().compute(8.0).io(1e6, 1e6),
        ));
        b.begin_phase();
        let merge = b.add_task(Task::new(
            "merge",
            1,
            TaskProfile::trivial()
                .compute(60.0)
                .slowdown(1.3)
                .io(1.28e8, 1e6),
        ));
        b.depend(merge, wide, DependencyPattern::AllToAll);
        b.build().expect("valid")
    }

    #[test]
    fn without_pdc_uses_threshold_plan() {
        let w = wf();
        let report = crate::run_untraced(Strategy::MashupWithoutPdc, &MashupConfig::aws(2), &w);
        assert_eq!(report.strategy, "mashup-wo-pdc");
        let wide = report.task("wide").expect("exists");
        assert_eq!(wide.platform, Platform::Serverless);
        let merge = report.task("merge").expect("exists");
        assert_eq!(merge.platform, Platform::VmCluster);
    }

    /// Phase 1 has a fast task A and a slow task B; phase 2's C depends
    /// only on A. Kepler starts C when A finishes; the phase-barriered
    /// traditional engine waits for B too.
    fn pipelined_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("pipeline");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        let a = b.add_task(Task::new("fast", 1, TaskProfile::trivial().compute(5.0)));
        b.add_task(Task::new("slow", 1, TaskProfile::trivial().compute(100.0)));
        b.begin_phase();
        let c = b.add_task(Task::new(
            "after-fast",
            1,
            TaskProfile::trivial().compute(50.0),
        ));
        b.depend(c, a, DependencyPattern::OneToOne);
        b.build().expect("valid")
    }

    #[test]
    fn kepler_pipelines_across_phase_barriers() {
        let w = pipelined_workflow();
        let cfg = MashupConfig::aws(4);
        let kepler = crate::run_untraced(Strategy::Kepler, &cfg, &w);
        let traditional = crate::run_untraced(Strategy::Traditional, &cfg, &w);
        // Kepler: after-fast starts at 5 s, everything done at 100 s.
        // Traditional: after-fast starts at 100 s, done at 150 s.
        assert!(
            kepler.makespan_secs < traditional.makespan_secs,
            "kepler {} vs traditional {}",
            kepler.makespan_secs,
            traditional.makespan_secs
        );
        let c = kepler.task("after-fast").expect("exists");
        assert!(c.start_secs < 10.0, "started at {}", c.start_secs);
    }

    #[test]
    fn kepler_respects_dependencies() {
        let w = pipelined_workflow();
        let r = crate::run_untraced(Strategy::Kepler, &MashupConfig::aws(4), &w);
        let fast = r.task("fast").expect("exists");
        let after = r.task("after-fast").expect("exists");
        assert!(after.start_secs >= fast.end_secs - 1e-9);
        assert_eq!(r.tasks.len(), 3);
    }

    #[test]
    fn kepler_bills_vm_only() {
        let w = pipelined_workflow();
        let r = crate::run_untraced(Strategy::Kepler, &MashupConfig::aws(4), &w);
        assert!(r.expense.vm_dollars > 0.0);
        assert_eq!(r.expense.faas_dollars, 0.0);
        assert_eq!(r.expense.storage_dollars, 0.0);
    }

    #[test]
    fn every_strategy_refuses_an_empty_cluster() {
        let w = CheckedWorkflow::new(wf()).expect("clean workflow");
        for s in Strategy::ALL {
            let err = s
                .run(&MashupConfig::aws(0), &w, &Tracer::off(), None)
                .expect_err(s.label());
            assert!(
                err.errors().any(|d| d.code == Code::NonPositiveConfig),
                "{}: {err}",
                s.label()
            );
        }
    }
}
