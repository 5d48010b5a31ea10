//! The SRAsearch workflow (paper Fig. 1, right).
//!
//! Five tasks, 404 components, ~6 TB of sequence archives:
//!
//! * Phase 1 — **FasterQ-Dump** (200): archive extraction; serverless beats
//!   a 4-node cluster (wave serialization) but loses to 64 nodes (paper
//!   Fig. 2's crossover example).
//! * Phase 1 — **Bowtie2-Build** (1): index construction; long, single,
//!   compute-bound — VM territory at any size.
//! * Phase 2 — **Bowtie2** (200): *short-running* alignment; cold start is
//!   ~40 % of its serverless execution time (paper Fig. 4(b)).
//! * Phase 3 — **Merge1** (2): its two components contend on a shared
//!   master; the paper's two-sub-cluster optimization exists for this task.
//! * Phase 4 — **Merge2** (1): final consolidation.

use mashup_dag::{DependencyPattern, Task, TaskProfile, Workflow, WorkflowBuilder};

/// Builds SRAsearch at input scale 1.0 (the paper's default dataset).
pub fn workflow() -> Workflow {
    workflow_scaled(1.0)
}

/// Builds SRAsearch with I/O volumes and compute scaled by `scale`
/// (the paper's §5 input-size study spans ~5 TB to 8.4 TB, i.e. scales
/// roughly 0.83–1.4 of the default 6 TB).
pub fn workflow_scaled(scale: f64) -> Workflow {
    assert!(scale > 0.0 && scale.is_finite());
    let mut b = WorkflowBuilder::new("SRAsearch");
    b.initial_input_bytes(6.0e12 * scale); // ~6 TB of archives

    // Phase 1.
    b.begin_phase();
    let dump = b.add_task(Task::new(
        "FasterQ-Dump",
        200,
        TaskProfile::trivial()
            .compute(60.0 * scale)
            .slowdown(1.3)
            .io(3.0e8 * scale, 5.0e7 * scale)
            .memory(2.0)
            .contention(2.0)
            .jitter(0.05)
            .checkpoint(5.0e8),
    ));
    let build = b.add_task(Task::new(
        "Bowtie2-Build",
        1,
        TaskProfile::trivial()
            .compute(120.0 * scale)
            .slowdown(1.05)
            .io(1.0e9 * scale, 3.0e9 * scale)
            .memory(2.8)
            .jitter(0.04)
            .checkpoint(1.0e9),
    ));

    // Phase 2: short-running, highly concurrent alignment.
    b.begin_phase();
    let bowtie = b.add_task(Task::new(
        "Bowtie2",
        200,
        TaskProfile::trivial()
            .compute(1.5 * scale)
            .slowdown(1.0)
            .io(5.0e7 * scale, 5.0e7 * scale)
            .memory(2.5)
            .contention(2.0)
            .jitter(0.05)
            .checkpoint(2.0e7),
    ));
    b.depend(bowtie, dump, DependencyPattern::OneToOne);
    b.depend(bowtie, build, DependencyPattern::AllToAll);

    // Phase 3: two large merges that fight over one master NIC.
    b.begin_phase();
    let merge1 = b.add_task(Task::new(
        "Merge1",
        2,
        TaskProfile::trivial()
            .compute(150.0 * scale)
            .slowdown(1.15)
            .io(5.0e9 * scale, 1.0e9 * scale)
            .memory(2.8)
            .jitter(0.04)
            .checkpoint(1.2e9),
    ));
    b.depend(merge1, bowtie, DependencyPattern::FanInBlocks);

    // Phase 4.
    b.begin_phase();
    let merge2 = b.add_task(Task::new(
        "Merge2",
        1,
        TaskProfile::trivial()
            .compute(100.0 * scale)
            .slowdown(1.1)
            .io(2.0e9 * scale, 1.0e9 * scale)
            .memory(2.5)
            .jitter(0.04)
            .checkpoint(8.0e8),
    ));
    b.depend(merge2, merge1, DependencyPattern::AllToAll);

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_shape() {
        let w = workflow();
        assert_eq!(w.name, "SRAsearch");
        // Paper §4: 5 tasks, 404 components.
        assert_eq!(w.task_count(), 5);
        assert_eq!(w.component_count(), 404);
        assert_eq!(w.phases.len(), 4);
        let (_, dump) = w.task_by_name("FasterQ-Dump").expect("exists");
        assert_eq!(dump.components, 200);
        let (_, m1) = w.task_by_name("Merge1").expect("exists");
        assert_eq!(m1.components, 2);
    }

    #[test]
    fn bowtie2_is_short_running() {
        let w = workflow();
        let (_, b) = w.task_by_name("Bowtie2").expect("exists");
        // Short enough that a ~1.5 s cold start is a large fraction.
        assert!(b.profile.compute_secs_vm < 5.0);
    }

    #[test]
    fn merge1_fan_in_splits_components_evenly() {
        let w = workflow();
        let (m1, _) = w.task_by_name("Merge1").expect("exists");
        let deps0 = w.component_deps(m1, 0);
        let deps1 = w.component_deps(m1, 1);
        assert_eq!(deps0[0].1.len(), 100);
        assert_eq!(deps1[0].1.len(), 100);
        assert_eq!(deps0[0].1[0], 0);
        assert_eq!(deps1[0].1[0], 100);
    }

    #[test]
    fn input_scaling_covers_paper_range() {
        // 5 TB to 8.4 TB relative to the 6 TB default.
        for scale in [0.83, 1.0, 1.17, 1.4] {
            let w = workflow_scaled(scale);
            assert_eq!(w.component_count(), 404);
            assert!(w.initial_input_bytes > 0.0);
        }
    }
}
