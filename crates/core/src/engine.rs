//! The top-level Mashup engine: PDC + hybrid execution in one call.

use crate::cache::PlanCache;
use crate::config::MashupConfig;
use crate::exec::try_execute_with;
use crate::pdc::{Objective, Pdc, PdcReport};
use crate::report::WorkflowReport;
use mashup_analyze::AnalysisError;
use mashup_dag::Workflow;
use mashup_sim::Tracer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The result of a full Mashup run: the PDC's reasoning plus the hybrid
/// execution it drove.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
/// use mashup_core::{Mashup, MashupConfig};
/// use mashup_dag::{Task, TaskProfile, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("demo");
/// b.initial_input_bytes(1.0e6);
/// b.begin_phase();
/// b.add_task(Task::new("wide", 64, TaskProfile::trivial().compute(5.0)));
/// let workflow = b.build().expect("valid");
///
/// let outcome = Mashup::new(MashupConfig::aws(2)).run(&workflow);
/// assert!(outcome.report.makespan_secs > 0.0);
/// ```
pub struct Mashup {
    cfg: MashupConfig,
    objective: Objective,
    cache: Option<Arc<PlanCache>>,
    tracer: Tracer,
}

impl Mashup {
    /// Creates an engine optimizing execution time (the paper's default).
    pub fn new(cfg: MashupConfig) -> Self {
        Mashup {
            cfg,
            objective: Objective::ExecutionTime,
            cache: None,
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
        self.cache = Some(cache);
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &MashupConfig {
        &self.cfg
    }

    /// Full pipeline: PDC profiling + decision, then hybrid execution on
    /// the VM configuration the PDC found best.
    ///
    /// Panics when the analyzer refuses the inputs; use [`Mashup::try_run`]
    /// for a typed refusal.
    pub fn run(&self, workflow: &Workflow) -> MashupOutcome {
        self.try_run(workflow).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Mashup::run`], but refuses error-diagnosed inputs with a
    /// typed [`AnalysisError`] instead of panicking mid-simulation.
    pub fn try_run(&self, workflow: &Workflow) -> Result<MashupOutcome, AnalysisError> {
        let mut pdc = Pdc::new(self.cfg.clone())
            .with_objective(self.objective)
            .with_tracer(self.tracer.clone());
        if let Some(cache) = &self.cache {
            pdc = pdc.with_cache(cache.clone());
        }
        let pdc = pdc.try_decide(workflow)?;
        let tuned = self.cfg.clone().with_subclusters(pdc.subclusters);
        let report = try_execute_with(&tuned, workflow, &pdc.plan, None, "mashup", &self.tracer)?;
        Ok(MashupOutcome { pdc, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn mashup_beats_or_matches_both_pure_strategies_on_small_clusters() {
        let w = wf();
        let cfg = MashupConfig::aws(2);
        let outcome = Mashup::new(cfg.clone()).run(&w);
        let traditional = crate::exec::try_execute(
            &cfg,
            &w,
            &crate::placement::PlacementPlan::uniform(&w, crate::placement::Platform::VmCluster),
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
        let outcome = Mashup::new(MashupConfig::aws(2)).run(&w);
        assert!(outcome.pdc.plan.covers(&w));
        assert_eq!(outcome.report.plan, outcome.pdc.plan);
        assert_eq!(outcome.report.strategy, "mashup");
        assert_eq!(outcome.report.tasks.len(), 2);
    }

    #[test]
    fn cached_runs_match_uncached_runs_exactly() {
        let w = wf();
        let cfg = MashupConfig::aws(2);
        let uncached = Mashup::new(cfg.clone()).run(&w);
        let cache = Arc::new(PlanCache::new());
        let cold = Mashup::new(cfg.clone()).with_cache(cache.clone()).run(&w);
        let warm = Mashup::new(cfg).with_cache(cache.clone()).run(&w);
        assert_eq!(uncached, cold);
        assert_eq!(uncached, warm);
        let stats = cache.stats();
        assert!(stats.hits() > 0, "warm run must hit the cache");
        assert_eq!(stats.misses(), stats.entries());
    }
}
