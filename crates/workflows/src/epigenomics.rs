//! The Epigenomics workflow (paper Fig. 1, middle).
//!
//! Nine tasks in nine chained phases, 2,007 components, ~5 TB of data:
//!
//! * **FastQSplit** (2): consumes >35 % of the workflow's execution time and
//!   is the task the paper singles out as "greatly benefited by execution
//!   on serverless functions" — isolated microVMs run it at better
//!   effective IPC, and it is long enough to need checkpoint chains.
//! * **Filtercontams / Sol2sanger / Fast2bfq** (500 each): the wide middle;
//!   massively parallel, modest per-component work — serverless territory
//!   until clusters get very large.
//! * **Map** (500): reads *and* writes heavily — the highest I/O overhead
//!   of Fig. 4(a).
//! * **Mapmerge1** (2) / **Mapmerge2** (1): short, *frequently re-appearing*
//!   merges — the warm-pool exception of §3 exists for this shape.
//! * **Chr21** (1): a single ~40-minute component; exceeds the FaaS time
//!   cap, so serverless execution needs checkpoint/restart chains, and its
//!   cold start is negligible relative to runtime (Fig. 4(b)).
//! * **Pileup** (1): final consolidation.

use mashup_dag::{DependencyPattern, Task, TaskProfile, Workflow, WorkflowBuilder};

/// Builds Epigenomics at input scale 1.0 (the paper's default dataset).
pub fn workflow() -> Workflow {
    workflow_scaled(1.0)
}

/// Builds Epigenomics with I/O volumes and compute scaled by `scale`.
pub fn workflow_scaled(scale: f64) -> Workflow {
    assert!(scale > 0.0 && scale.is_finite());
    let mut b = WorkflowBuilder::new("Epigenomics");
    b.initial_input_bytes(5.0e12 * scale); // ~5 TB

    b.begin_phase();
    let split = b.add_task(Task::new(
        "FastQSplit",
        2,
        TaskProfile::trivial()
            .compute(2500.0 * scale)
            .slowdown(0.55) // the paper's serverless-friendly heavyweight
            .io(4.0e9 * scale, 1.0e9 * scale)
            .memory(2.5)
            .jitter(0.04)
            .checkpoint(1.0e9),
    ));

    b.begin_phase();
    let filter = b.add_task(Task::new(
        "Filtercontams",
        500,
        TaskProfile::trivial()
            .compute(20.0 * scale)
            .slowdown(1.15)
            .io(5.0e7 * scale, 5.0e7 * scale)
            .memory(1.0)
            .contention(2.0)
            .jitter(0.05)
            .checkpoint(2.0e7),
    ));
    b.depend(filter, split, DependencyPattern::FanOutBlocks);

    b.begin_phase();
    let sol = b.add_task(Task::new(
        "Sol2sanger",
        500,
        TaskProfile::trivial()
            .compute(15.0 * scale)
            .slowdown(1.15)
            .io(5.0e7 * scale, 5.0e7 * scale)
            .memory(1.0)
            .contention(2.0)
            .jitter(0.05)
            .checkpoint(2.0e7),
    ));
    b.depend(sol, filter, DependencyPattern::OneToOne);

    b.begin_phase();
    let bfq = b.add_task(Task::new(
        "Fast2bfq",
        500,
        TaskProfile::trivial()
            .compute(12.0 * scale)
            .slowdown(1.15)
            .io(5.0e7 * scale, 4.0e7 * scale)
            .memory(1.0)
            .contention(2.0)
            .jitter(0.05)
            .checkpoint(2.0e7),
    ));
    b.depend(bfq, sol, DependencyPattern::OneToOne);

    b.begin_phase();
    let map = b.add_task(Task::new(
        "Map",
        500,
        TaskProfile::trivial()
            .compute(40.0 * scale)
            .slowdown(1.3)
            // Both directions heavy: the Fig. 4(a) worst case.
            .io(1.0e8 * scale, 2.0e7 * scale)
            .memory(1.2)
            .contention(2.0)
            .jitter(0.05)
            .checkpoint(5.0e7),
    ));
    b.depend(map, bfq, DependencyPattern::OneToOne);

    b.begin_phase();
    let mm1 = b.add_task(Task::new(
        "Mapmerge1",
        2,
        TaskProfile::trivial()
            .compute(3.0 * scale)
            .slowdown(1.0)
            .io(5.0e9 * scale, 1.0e9 * scale)
            .memory(2.0)
            .jitter(0.05)
            .recurring(true) // the §3 warm-pool exception shape
            .family("Mapmerge")
            .checkpoint(5.0e8),
    ));
    b.depend(mm1, map, DependencyPattern::FanInBlocks);

    b.begin_phase();
    let mm2 = b.add_task(Task::new(
        "Mapmerge2",
        1,
        TaskProfile::trivial()
            .compute(3.0 * scale)
            .slowdown(1.0)
            .io(2.0e9 * scale, 1.5e9 * scale)
            .memory(2.0)
            .jitter(0.05)
            .recurring(true)
            .family("Mapmerge")
            .checkpoint(5.0e8),
    ));
    b.depend(mm2, mm1, DependencyPattern::AllToAll);

    b.begin_phase();
    let chr21 = b.add_task(Task::new(
        "Chr21",
        1,
        TaskProfile::trivial()
            .compute(2400.0 * scale) // ~40 min: crosses the FaaS time cap
            .slowdown(1.05)
            .io(1.5e9 * scale, 1.5e9 * scale)
            .memory(2.5)
            .jitter(0.04)
            .checkpoint(1.2e9),
    ));
    b.depend(chr21, mm2, DependencyPattern::AllToAll);

    b.begin_phase();
    let pileup = b.add_task(Task::new(
        "Pileup",
        1,
        TaskProfile::trivial()
            .compute(600.0 * scale)
            .slowdown(1.05)
            .io(1.5e9 * scale, 5.0e8 * scale)
            .memory(2.0)
            .jitter(0.04)
            .checkpoint(6.0e8),
    ));
    b.depend(pileup, chr21, DependencyPattern::AllToAll);

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_shape() {
        let w = workflow();
        assert_eq!(w.name, "Epigenomics");
        // Paper §4: 9 tasks, 2,007 components, 9 phases (Fig. 1).
        assert_eq!(w.task_count(), 9);
        assert_eq!(w.component_count(), 2007);
        assert_eq!(w.phases.len(), 9);
    }

    #[test]
    fn fastqsplit_dominates_sequential_work() {
        let w = workflow();
        let (_, split) = w.task_by_name("FastQSplit").expect("exists");
        let split_work = split.profile.compute_secs_vm * split.components as f64;
        // Paper: FastQSplit is >35 % of the workflow execution time. On the
        // critical path (per-phase max component time) it dominates even
        // more clearly.
        assert!(split.profile.compute_secs_vm / w.critical_path_secs() > 0.35);
        assert!(split_work > 0.0);
    }

    #[test]
    fn chr21_exceeds_faas_time_cap() {
        let w = workflow();
        let (_, chr) = w.task_by_name("Chr21").expect("exists");
        assert!(chr.profile.compute_secs_serverless() > 900.0);
        assert_eq!(chr.components, 1);
    }

    #[test]
    fn mapmerges_are_recurring_short_tasks() {
        let w = workflow();
        for name in ["Mapmerge1", "Mapmerge2"] {
            let (_, t) = w.task_by_name(name).expect("exists");
            assert!(t.profile.recurring, "{name} should be recurring");
            assert!(t.profile.compute_secs_vm < 5.0);
        }
    }

    #[test]
    fn chain_structure_is_one_task_per_phase() {
        let w = workflow();
        for p in &w.phases {
            assert_eq!(p.tasks.len(), 1);
        }
    }
}
