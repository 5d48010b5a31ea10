//! The 1000Genome workflow (paper Fig. 1, left).
//!
//! Five tasks, 2,506 components, ~600 GB of initial input:
//!
//! * Phase 1 — **Individual** (1,252 components): per-chromosome-slice
//!   variant extraction. Calibration: compute-bound with a strong VM IPC
//!   advantage (paper Fig. 10: higher IPC on the cluster), so large
//!   clusters win while small clusters lose to serverless parallelism.
//! * Phase 2 — **Individual-Merge** (1) and **Sifting** (1): both pull
//!   sizeable inputs through the master NIC *simultaneously* on a cluster,
//!   contending for bandwidth (paper §5); in isolation inside microVMs they
//!   run at better effective IPC, so serverless wins — but only the PDC
//!   can see that.
//! * Phase 3 — **Mutation-Overlap** (626) and **Frequency** (626):
//!   Mutation-Overlap is modestly sized and massively parallel (serverless
//!   territory); Frequency is write-heavy — its outputs crawl through the
//!   remote store, so a 64-node cluster beats serverless roughly 2×
//!   (paper §3, Fig. 4(a)).

use mashup_dag::{DependencyPattern, Task, TaskProfile, Workflow, WorkflowBuilder};

/// Builds 1000Genome at input scale 1.0 (the paper's default dataset).
pub fn workflow() -> Workflow {
    workflow_scaled(1.0)
}

/// Builds 1000Genome with all I/O volumes and compute scaled by `scale`.
pub fn workflow_scaled(scale: f64) -> Workflow {
    assert!(scale > 0.0 && scale.is_finite());
    let mut b = WorkflowBuilder::new("1000Genome");
    b.initial_input_bytes(6.0e11 * scale); // ~600 GB

    // Phase 1.
    b.begin_phase();
    let individual = b.add_task(Task::new(
        "Individual",
        1252,
        TaskProfile::trivial()
            .compute(25.0 * scale)
            .slowdown(1.5) // VM IPC advantage (Fig. 10)
            .io(1.0e7 * scale, 2.0e6 * scale)
            .memory(0.8)
            .contention(2.0)
            .jitter(0.04)
            .checkpoint(2.0e8),
    ));

    // Phase 2: the master-NIC-contention pair.
    b.begin_phase();
    let merge = b.add_task(Task::new(
        "Individual-Merge",
        1,
        TaskProfile::trivial()
            .compute(300.0 * scale)
            .slowdown(0.62) // isolated microVM runs at better effective IPC
            .io(2.5e9 * scale, 2.0e8 * scale)
            .memory(2.5)
            .jitter(0.04)
            .checkpoint(1.0e9),
    ));
    let sifting = b.add_task(Task::new(
        "Sifting",
        1,
        TaskProfile::trivial()
            .compute(220.0 * scale)
            .slowdown(0.66)
            .io(2.5e9 * scale, 5.0e7 * scale)
            .memory(2.0)
            .jitter(0.04)
            .checkpoint(8.0e8),
    ));
    b.depend(merge, individual, DependencyPattern::AllToAll);
    b.depend(sifting, individual, DependencyPattern::AllToAll);

    // Phase 3.
    b.begin_phase();
    let overlap = b.add_task(Task::new(
        "Mutation-Overlap",
        626,
        TaskProfile::trivial()
            .compute(25.0 * scale)
            .slowdown(1.15)
            .io(3.0e7 * scale, 2.0e7 * scale)
            .memory(1.0)
            .contention(2.0)
            .jitter(0.04)
            .checkpoint(1.0e7),
    ));
    let frequency = b.add_task(Task::new(
        "Frequency",
        626,
        TaskProfile::trivial()
            .compute(25.0 * scale)
            .slowdown(1.4)
            // Write-heavy: ~313 GB of outputs crawl through the remote
            // store on serverless but ride the scalable intra-cluster
            // fabric on the VM side.
            .io(3.0e7 * scale, 5.0e8 * scale)
            .memory(1.0)
            .contention(2.0)
            .jitter(0.04)
            .checkpoint(1.0e7),
    ));
    for consumer in [overlap, frequency] {
        b.depend(consumer, merge, DependencyPattern::AllToAll);
        b.depend(consumer, sifting, DependencyPattern::AllToAll);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_shape() {
        let w = workflow();
        assert_eq!(w.name, "1000Genome");
        // Paper §4: 5 tasks, 2,506 components.
        assert_eq!(w.task_count(), 5);
        assert_eq!(w.component_count(), 2506);
        assert_eq!(w.phases.len(), 3);
        assert_eq!(w.phases[0].tasks.len(), 1);
        assert_eq!(w.phases[1].tasks.len(), 2);
        assert_eq!(w.phases[2].tasks.len(), 2);
        let (_, ind) = w.task_by_name("Individual").expect("exists");
        assert_eq!(ind.components, 1252);
        let (_, mo) = w.task_by_name("Mutation-Overlap").expect("exists");
        assert_eq!(mo.components, 626);
    }

    #[test]
    fn phase2_fan_in_covers_all_individual_components() {
        let w = workflow();
        let (merge_ref, _) = w.task_by_name("Individual-Merge").expect("exists");
        let deps = w.component_deps(merge_ref, 0);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].1.len(), 1252); // fan-in over every component
    }

    #[test]
    fn scaling_scales_io_and_compute() {
        let w1 = workflow_scaled(1.0);
        let w2 = workflow_scaled(2.0);
        let (_, a) = w1.task_by_name("Individual").expect("exists");
        let (_, b) = w2.task_by_name("Individual").expect("exists");
        assert!((b.profile.compute_secs_vm - 2.0 * a.profile.compute_secs_vm).abs() < 1e-9);
        assert!((b.profile.input_bytes - 2.0 * a.profile.input_bytes).abs() < 1e-9);
    }

    #[test]
    fn frequency_is_write_heavy() {
        let w = workflow();
        let (_, f) = w.task_by_name("Frequency").expect("exists");
        assert!(f.profile.output_bytes > 10.0 * f.profile.input_bytes);
    }
}
