//! Engine-side wiring of the `mashup-analyze` diagnostics: each workflow is
//! checked once, into the [`CheckedWorkflow`] every planning and execution
//! entry takes, and each entry checks its own config and plan
//! ([`CheckedWorkflow::check`]). Analysis is read-only: it draws no
//! randomness and touches no simulation state, so gating on it cannot
//! perturb simulated results.

use crate::config::{MashupConfig, Sizing};
use mashup_analyze::{
    analyze_config, analyze_plan_by_task, analyze_workflow, into_result, AnalysisError, Diagnostic,
    EngineParams,
};
use mashup_dag::{PlacementPlan, Workflow};
use std::borrow::Cow;
use std::ops::Deref;

/// The engine knobs the analyzer's config checks consume.
pub fn engine_params(cfg: &MashupConfig) -> EngineParams {
    EngineParams {
        checkpoint_margin_secs: cfg.checkpoint_margin_secs,
        prewarm: cfg.prewarm,
        prewarm_cap: cfg.prewarm_cap,
    }
}

/// A workflow the M1xx checks accepted, with their warnings; only its
/// constructors run them. It owns its workflow or borrows it from a caller
/// that keeps it; either way every run borrows it, so nothing is copied.
/// It carries no config: the checks never read one, and the config changes
/// between passes over one workflow (sub-cluster splits, memory tiers).
/// Dereferences to the [`Workflow`].
#[derive(Debug, Clone)]
pub struct CheckedWorkflow<'w> {
    workflow: Cow<'w, Workflow>,
    warnings: Vec<Diagnostic>,
}

impl CheckedWorkflow<'static> {
    /// Runs the M1xx workflow checks: `Err` carries every finding when an
    /// error-level one fired.
    pub fn new(workflow: Workflow) -> Result<Self, AnalysisError> {
        Self::checked(Cow::Owned(workflow))
    }
}

impl<'w> CheckedWorkflow<'w> {
    /// [`CheckedWorkflow::new`] over a workflow the caller keeps.
    pub fn borrowed(workflow: &'w Workflow) -> Result<Self, AnalysisError> {
        Self::checked(Cow::Borrowed(workflow))
    }

    fn checked(workflow: Cow<'w, Workflow>) -> Result<Self, AnalysisError> {
        let mut checked = CheckedWorkflow {
            workflow,
            warnings: Vec::new(),
        };
        checked.warnings = into_result(analyze_workflow(&checked))?;
        Ok(checked)
    }

    /// The M3xx checks of `cfg`, plus the M2xx checks of `plan` if given
    /// (against each task's memory tier under a `sizing`). `Ok` carries
    /// every warning, this workflow's first.
    pub fn check(
        &self,
        cfg: &MashupConfig,
        plan: Option<&PlacementPlan>,
        sizing: Option<&Sizing>,
    ) -> Result<Vec<Diagnostic>, AnalysisError> {
        let mut diags = self.warnings.clone();
        diags.extend(analyze_config(
            &cfg.provider,
            &cfg.cluster,
            &engine_params(cfg),
        ));
        if let Some(plan) = plan {
            let ctx = cfg.plan_context();
            diags.extend(analyze_plan_by_task(
                self,
                plan,
                &ctx,
                |flat| match sizing {
                    None => Cow::Borrowed(ctx.faas),
                    Some(s) => Cow::Owned(cfg.faas_tier(s.tier(flat))),
                },
            ));
        }
        into_result(diags)
    }
}

impl Deref for CheckedWorkflow<'_> {
    type Target = Workflow;

    fn deref(&self) -> &Workflow {
        &self.workflow
    }
}

/// [`CheckedWorkflow::borrowed`], then [`CheckedWorkflow::check`] of `cfg`
/// and `plan`, for callers that hold a bare workflow.
pub fn preflight(
    cfg: &MashupConfig,
    workflow: &Workflow,
    plan: Option<&PlacementPlan>,
) -> Result<Vec<Diagnostic>, AnalysisError> {
    CheckedWorkflow::borrowed(workflow)?.check(cfg, plan, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_analyze::Code;
    use mashup_dag::{Platform, Task, TaskProfile, WorkflowBuilder};

    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.initial_input_bytes(1e9);
        b.begin_phase();
        b.add_task(Task::new("A", 4, TaskProfile::trivial().io(1e6, 1e6)));
        b.build().expect("valid")
    }

    #[test]
    fn clean_inputs_pass_with_no_warnings() {
        let cfg = MashupConfig::aws(4);
        let w = wf();
        let plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        assert_eq!(preflight(&cfg, &w, Some(&plan)), Ok(vec![]));
        assert_eq!(preflight(&cfg, &w, None), Ok(vec![]));
    }

    #[test]
    fn broken_plan_is_refused_with_the_offending_code() {
        let cfg = MashupConfig::aws(4);
        let w = wf();
        let err = preflight(&cfg, &w, Some(&PlacementPlan::new())).unwrap_err();
        assert!(err.errors().all(|d| d.code == Code::UnassignedTask));
        assert_eq!(err.errors().count(), 1);
    }

    #[test]
    fn broken_config_is_refused_even_without_a_plan() {
        let mut cfg = MashupConfig::aws(4);
        cfg.checkpoint_margin_secs = 1e9;
        let err = preflight(&cfg, &wf(), None).unwrap_err();
        assert!(err.errors().any(|d| d.code == Code::MarginExceedsTimeout));
    }
}
