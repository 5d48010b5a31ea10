//! A Pegasus-like workflow manager baseline.
//!
//! Pegasus (Deelman et al., FGCS 2015/2019) executes workflows on VM
//! clusters after a profiling pass, applying the optimizations the paper
//! credits it with (§5: "data reuse, redundant computation elimination,
//! task grouping"). This baseline reproduces the two that matter on our
//! substrate:
//!
//! * **task clustering** — short components are grouped into longer jobs so
//!   scheduling and per-component I/O overhead amortizes (horizontal
//!   clustering in Pegasus terms); the group size is picked from the
//!   profiled per-component runtime against a target job length;
//! * **data reuse** — components grouped into one job read their shared
//!   input once instead of per component.
//!
//! Like the real system (and like Mashup), it needs a profiling run; the
//! paper notes both incur similar overhead, so reports exclude it for every
//! engine alike. It is serverless-agnostic: everything runs on the cluster.

use mashup_core::{
    execute, AnalysisError, CheckedWorkflow, MashupConfig, PlacementPlan, Platform, Release,
    Tracer, WorkflowReport,
};
use mashup_dag::{DependencyPattern, Task, TaskDep, Workflow};

/// Target duration of a clustered job, seconds. Groups of short components
/// are sized so a job's compute is at least this long.
const TARGET_JOB_SECS: f64 = 45.0;

/// Fraction of a grouped job's repeated input that data-reuse elimination
/// saves (the shared slice read once instead of per component).
const DATA_REUSE_FRACTION: f64 = 0.5;

/// Transforms a workflow by Pegasus-style horizontal clustering: components
/// of short tasks are grouped into jobs of roughly 45 s of compute.
///
/// Grouping changes component counts, so dependency patterns are rewritten
/// to `AllToAll` (precedence-preserving; Pegasus tracks file-level
/// dependencies which our byte-flow model summarizes anyway).
pub fn cluster_tasks(workflow: &Workflow, max_parallel: usize) -> Workflow {
    let mut phases = Vec::with_capacity(workflow.phases.len());
    for phase in &workflow.phases {
        let tasks = phase
            .tasks
            .iter()
            .map(|t| {
                let group = group_size(t.profile.compute_secs_vm, t.components, max_parallel);
                if group <= 1 {
                    return t.clone();
                }
                let new_components = t.components.div_ceil(group);
                let actual_group = t.components as f64 / new_components as f64;
                let mut profile = t.profile.clone();
                profile.compute_secs_vm *= actual_group;
                // Shared input read once per job; unique slices still move.
                profile.input_bytes *= 1.0 + (actual_group - 1.0) * (1.0 - DATA_REUSE_FRACTION);
                profile.output_bytes *= actual_group;
                profile.checkpoint_bytes *= actual_group;
                Task {
                    name: t.name.clone(),
                    components: new_components,
                    profile,
                    deps: t
                        .deps
                        .iter()
                        .map(|d| TaskDep {
                            producer: d.producer,
                            pattern: DependencyPattern::AllToAll,
                        })
                        .collect(),
                }
            })
            .collect();
        phases.push(mashup_dag::Phase { tasks });
    }
    let mut clustered = Workflow::new(workflow.name.clone(), phases, workflow.initial_input_bytes);
    // Consumers of re-clustered producers must also drop incompatible
    // patterns (component counts changed).
    let refs: Vec<_> = clustered.task_refs().collect();
    for r in refs {
        let deps = clustered.phases[r.phase].tasks[r.task].deps.clone();
        for (i, d) in deps.iter().enumerate() {
            let pc = clustered.task(d.producer).components;
            let cc = clustered.task(r).components;
            if d.pattern.check(pc, cc).is_err() {
                clustered.phases[r.phase].tasks[r.task].deps[i].pattern =
                    DependencyPattern::AllToAll;
            }
        }
    }
    mashup_dag::validate(&clustered).expect("clustering preserves validity");
    clustered
}

/// Group size for a task: Pegasus picks it from profiled runtimes, so this
/// evaluates the predicted compute makespan (waves × job length) for job
/// counts that are multiples of the slot count and keeps the best — never
/// worse than not grouping at all.
fn group_size(compute_secs: f64, components: usize, max_parallel: usize) -> usize {
    if compute_secs >= TARGET_JOB_SECS || components <= 1 || max_parallel == 0 {
        return 1;
    }
    let waves = |jobs: usize| jobs.div_ceil(max_parallel);
    let mut best_g = 1usize;
    let mut best_cost = waves(components) as f64 * compute_secs;
    let mut m = 1usize;
    loop {
        let jobs_target = max_parallel * m;
        if jobs_target > components {
            break;
        }
        let g = components.div_ceil(jobs_target);
        let jobs = components.div_ceil(g);
        let cost = waves(jobs) as f64 * g as f64 * compute_secs;
        // Grouping also amortizes per-component I/O, so ties go to the group.
        if g > 1 && cost <= best_cost + 1e-9 {
            best_cost = cost;
            best_g = g;
        }
        if g as f64 * compute_secs >= TARGET_JOB_SECS {
            break;
        }
        m += 1;
    }
    best_g
}

/// Runs the Pegasus-like engine: clustering transform, then VM execution.
/// Clustered jobs keep their task names, so a trace's task events line up
/// with the original workflow.
pub(crate) fn run(
    cfg: &MashupConfig,
    workflow: &Workflow,
    tracer: &Tracer,
) -> Result<WorkflowReport, AnalysisError> {
    let clustered = CheckedWorkflow::new(cluster_tasks(workflow, cfg.cluster.total_slots()))?;
    let plan = PlacementPlan::uniform(&clustered, Platform::VmCluster);
    let mut report = execute(
        cfg,
        &clustered,
        &plan,
        None,
        Release::PhaseBarrier,
        "pegasus",
        tracer,
    )?;
    report.workflow = workflow.name.clone();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use mashup_dag::{TaskProfile, TaskRef, WorkflowBuilder};

    fn short_wide_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.initial_input_bytes(1e8);
        b.begin_phase();
        let a = b.add_task(Task::new(
            "short-wide",
            256,
            // Contention matters: ungrouped, 64 components timeshare each
            // node and thrash; grouped jobs fit the cores.
            TaskProfile::trivial()
                .compute(2.0)
                .io(1e6, 1e6)
                .contention(0.15),
        ));
        b.begin_phase();
        let m = b.add_task(Task::new("merge", 1, TaskProfile::trivial().compute(5.0)));
        b.depend(m, a, DependencyPattern::AllToAll);
        b.build().expect("valid")
    }

    #[test]
    fn clustering_reduces_component_count_and_preserves_work() {
        let w = short_wide_workflow();
        let c = cluster_tasks(&w, 8);
        let (_, orig) = w.task_by_name("short-wide").expect("exists");
        let (_, grouped) = c.task_by_name("short-wide").expect("exists");
        assert!(grouped.components < orig.components);
        // Total compute is preserved (within grouping rounding).
        let orig_work = orig.profile.compute_secs_vm * orig.components as f64;
        let new_work = grouped.profile.compute_secs_vm * grouped.components as f64;
        assert!((orig_work - new_work).abs() / orig_work < 1e-9);
    }

    #[test]
    fn long_tasks_are_not_grouped() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(Task::new("long", 16, TaskProfile::trivial().compute(300.0)));
        let w = b.build().expect("valid");
        let c = cluster_tasks(&w, 8);
        assert_eq!(c.task(TaskRef::new(0, 0)).components, 16);
    }

    #[test]
    fn grouping_keeps_enough_parallelism() {
        // 256 comps of 2 s with 64 slots: grouping must leave >= 64 jobs.
        let g = group_size(2.0, 256, 64);
        assert!(256_usize.div_ceil(g) >= 64, "group {g}");
    }

    #[test]
    fn pegasus_beats_plain_traditional_on_short_wide_tasks() {
        let w = short_wide_workflow();
        let cfg = MashupConfig::aws(4);
        let plain = crate::run_untraced(Strategy::Traditional, &cfg, &w);
        let pegasus = crate::run_untraced(Strategy::Pegasus, &cfg, &w);
        assert!(
            pegasus.makespan_secs <= plain.makespan_secs + 1e-9,
            "pegasus {} vs plain {}",
            pegasus.makespan_secs,
            plain.makespan_secs
        );
        assert_eq!(pegasus.workflow, "w");
        assert_eq!(pegasus.strategy, "pegasus");
    }

    #[test]
    fn clustered_workflows_still_validate() {
        for seed in 0..10 {
            let w = mashup_workflows::generate(&mashup_workflows::SyntheticConfig::default(), seed);
            let c = cluster_tasks(&w, 16);
            mashup_dag::validate(&c).expect("valid after clustering");
        }
    }
}
