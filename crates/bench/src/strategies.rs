//! Uniform access to every execution strategy under comparison: the
//! [`Strategy`] registry of `mashup-baselines`, with the harness's plan
//! cache and trace directory applied.

pub use mashup_baselines::Strategy;
use mashup_core::{CheckedWorkflow, MashupConfig, Tracer, WorkflowReport};
use mashup_dag::Workflow;

/// Runs `strategy` on `workflow` under `cfg` and returns its report.
///
/// When a trace directory is configured (see [`crate::set_trace_dir`]), the
/// run is additionally recorded and written out as a JSONL flight-recorder
/// trace; the report itself is unaffected.
pub fn run_strategy(cfg: &MashupConfig, workflow: &Workflow, strategy: Strategy) -> WorkflowReport {
    let tracer = if crate::trace_dir::trace_dir().is_some() {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let report = run_strategy_traced(cfg, workflow, strategy, &tracer);
    if tracer.is_on() {
        let records = tracer.take();
        crate::trace_dir::write_trace(cfg, &report.workflow, strategy.label(), &records);
    }
    report
}

/// [`CheckedWorkflow::borrowed`], then [`Strategy::run`] recording into
/// `tracer` (pass `Tracer::off()` for an unrecorded run). Mashup memoizes
/// its profiling in the harness's [plan cache](crate::plan_cache()).
///
/// Panics with the analyzer's message when it refuses the inputs; the
/// harness only runs inputs it has preflighted.
pub fn run_strategy_traced(
    cfg: &MashupConfig,
    workflow: &Workflow,
    strategy: Strategy,
    tracer: &Tracer,
) -> WorkflowReport {
    CheckedWorkflow::borrowed(workflow)
        .and_then(|w| strategy.run(cfg, &w, tracer, Some(crate::plan_cache())))
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mashup_dag::{Task, TaskProfile, WorkflowBuilder};

    #[test]
    fn every_strategy_completes_on_a_small_workflow() {
        let mut b = WorkflowBuilder::new("smoke");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        b.add_task(Task::new("t", 16, TaskProfile::trivial().compute(2.0)));
        let w = b.build().expect("valid");
        let cfg = MashupConfig::aws(2);
        for s in Strategy::ALL {
            let r = run_strategy(&cfg, &w, s);
            assert!(r.makespan_secs > 0.0, "{} produced empty run", s.label());
            assert_eq!(r.tasks.len(), 1, "{}", s.label());
        }
    }
}
