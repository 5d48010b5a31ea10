//! The top-level Mashup engine: PDC + hybrid execution in one call.

use crate::analysis::CheckedWorkflow;
use crate::cache::PlanCache;
use crate::config::MashupConfig;
use crate::exec::{execute, Release};
use crate::pdc::{Objective, Pdc, PdcReport};
use crate::report::WorkflowReport;
use mashup_analyze::AnalysisError;
use mashup_dag::Workflow;
use mashup_sim::Tracer;
use serde::Serialize;
use std::sync::Arc;

/// The result of a full Mashup run: the PDC's reasoning plus the hybrid
/// execution it drove.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MashupOutcome {
    /// The PDC's calibration, per-task decisions, and profiling costs.
    pub pdc: PdcReport,
    /// The production hybrid execution.
    pub report: WorkflowReport,
}

/// The Mashup workflow engine.
///
/// # Example
/// ```
/// use mashup_core::{CheckedWorkflow, Mashup, MashupConfig};
/// use mashup_dag::{Task, TaskProfile, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("demo");
/// b.initial_input_bytes(1.0e6);
/// b.begin_phase();
/// b.add_task(Task::new("wide", 64, TaskProfile::trivial().compute(5.0)));
/// let workflow = CheckedWorkflow::new(b.build()).expect("clean workflow");
///
/// let outcome = Mashup::new(MashupConfig::aws(2))
///     .run_checked(&workflow)
///     .expect("clean config");
/// assert!(outcome.report.makespan_secs > 0.0);
/// ```
pub struct Mashup {
    cfg: MashupConfig,
    objective: Objective,
    cache: Arc<PlanCache>,
    tracer: Tracer,
}

impl Mashup {
    /// Creates an engine optimizing execution time (the paper's default),
    /// memoizing the PDC's profiling stages in a cache of its own.
    pub fn new(cfg: MashupConfig) -> Self {
        Mashup {
            cfg,
            objective: Objective::ExecutionTime,
            cache: Arc::default(),
            tracer: Tracer::off(),
        }
    }

    /// Builder-style: records the run into `tracer` — PDC decision
    /// provenance plus the production execution's full event stream.
    /// Emission never touches simulated state, so reports are identical
    /// with or without a recorder attached.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Builder-style: changes the PDC objective (Fig. 5 study).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Builder-style: memoizes the PDC's profiling stages in `cache`
    /// (shareable across engines and threads; see [`PlanCache`]).
    pub fn with_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &MashupConfig {
        &self.cfg
    }

    /// Full pipeline: PDC profiling + decision ([`Pdc::plan`]), then
    /// hybrid execution ([`execute`]) on the VM configuration the PDC found
    /// best. Refuses error-diagnosed inputs with a typed [`AnalysisError`]
    /// before any simulation runs.
    pub fn run_checked(&self, workflow: &CheckedWorkflow) -> Result<MashupOutcome, AnalysisError> {
        let pdc = Pdc::new(self.cfg.clone())
            .with_objective(self.objective)
            .with_cache(self.cache.clone())
            .with_tracer(self.tracer.clone())
            .plan(workflow)?;
        let tuned = self.cfg.clone().with_subclusters(pdc.subclusters);
        let report = execute(
            &tuned,
            workflow,
            &pdc.plan,
            None,
            Release::PhaseBarrier,
            "mashup",
            &self.tracer,
        )?;
        Ok(MashupOutcome { pdc, report })
    }

    /// [`CheckedWorkflow::borrowed`], then [`Mashup::run_checked`], for
    /// callers that hold a bare workflow.
    pub fn try_run(&self, workflow: &Workflow) -> Result<MashupOutcome, AnalysisError> {
        self.run_checked(&CheckedWorkflow::borrowed(workflow)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_dag::{
        DependencyPattern, PlacementPlan, Platform, Task, TaskProfile, WorkflowBuilder,
    };

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
        b.build()
    }

    #[test]
    fn mashup_beats_or_matches_both_pure_strategies_on_small_clusters() {
        let w = wf();
        let cfg = MashupConfig::aws(2);
        let outcome = Mashup::new(cfg.clone()).try_run(&w).expect("clean inputs");
        let traditional = crate::exec::try_execute(
            &cfg,
            &w,
            &PlacementPlan::uniform(&w, Platform::VmCluster),
            "traditional",
        )
        .expect("clean inputs");
        // 128 components on 4 slots is wave-bound; hybrid must win.
        assert!(
            outcome.report.makespan_secs < traditional.makespan_secs,
            "mashup {} vs traditional {}",
            outcome.report.makespan_secs,
            traditional.makespan_secs
        );
    }

    #[test]
    fn outcome_contains_consistent_plan() {
        let w = wf();
        let outcome = Mashup::new(MashupConfig::aws(2))
            .try_run(&w)
            .expect("clean inputs");
        assert!(outcome.pdc.plan.covers(&w));
        assert_eq!(outcome.report.plan, outcome.pdc.plan);
        assert_eq!(outcome.report.strategy, "mashup");
        assert_eq!(outcome.report.tasks.len(), 2);
    }

    #[test]
    fn cached_runs_match_uncached_runs_exactly() {
        // Reports and traces alike: a trace records the run, never whether
        // the cache computed or reused a profiling stage.
        let cfg = MashupConfig::aws(2);
        let w = CheckedWorkflow::new(wf()).expect("clean workflow");
        let run = |m: Mashup| {
            let tracer = Tracer::new();
            let outcome = m
                .with_tracer(tracer.clone())
                .run_checked(&w)
                .expect("clean inputs");
            (outcome, tracer.take())
        };
        let uncached = run(Mashup::new(cfg.clone()));
        let cache = Arc::new(PlanCache::new());
        let cold = run(Mashup::new(cfg.clone()).with_cache(cache.clone()));
        let warm = run(Mashup::new(cfg).with_cache(cache.clone()));
        assert!(!uncached.1.is_empty(), "the recorder saw the run");
        assert_eq!(uncached, cold);
        assert_eq!(uncached, warm);
        let stats = cache.stats();
        assert!(stats.hits() > 0, "warm run must hit the cache");
        assert_eq!(stats.misses(), stats.entries());
    }
}
