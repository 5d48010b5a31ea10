//! The strategy registry: every execution strategy the paper compares,
//! dispatched from one place.

use crate::{fusion, kepler, pegasus, serverless_only, traditional};
use mashup_core::{
    plan_without_pdc, try_execute_with, AnalysisError, Mashup, MashupConfig, PlanCache, Tracer,
    WorkflowReport,
};
use mashup_dag::Workflow;
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
    /// Kepler-like: dataflow-fired pipelining on VMs.
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
    /// `cache` memoizes Mashup's profiling stages; the other strategies
    /// ignore it.
    ///
    /// Every strategy checks its inputs before it builds an environment
    /// and refuses error-diagnosed ones with a typed [`AnalysisError`].
    pub fn run(
        self,
        cfg: &MashupConfig,
        workflow: &Workflow,
        tracer: &Tracer,
        cache: Option<Arc<PlanCache>>,
    ) -> Result<WorkflowReport, AnalysisError> {
        match self {
            Strategy::Traditional => traditional::run(cfg, workflow, tracer),
            Strategy::TraditionalTuned => traditional::run_tuned(cfg, workflow, tracer),
            Strategy::ServerlessOnly => serverless_only::run(cfg, workflow, tracer),
            Strategy::Fusion => fusion::run(cfg, workflow, tracer),
            Strategy::Pegasus => pegasus::run(cfg, workflow, tracer),
            Strategy::Kepler => kepler::run(cfg, workflow, tracer),
            Strategy::MashupWithoutPdc => {
                let plan = plan_without_pdc(cfg, workflow);
                try_execute_with(cfg, workflow, &plan, None, "mashup-wo-pdc", tracer)
            }
            Strategy::Mashup => {
                let mut engine = Mashup::new(cfg.clone()).with_tracer(tracer.clone());
                if let Some(cache) = cache {
                    engine = engine.with_cache(cache);
                }
                engine.try_run(workflow).map(|outcome| outcome.report)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_core::{Code, Platform};
    use mashup_dag::{DependencyPattern, Task, TaskProfile, WorkflowBuilder};

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

    #[test]
    fn every_strategy_refuses_an_empty_cluster() {
        let w = wf();
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
