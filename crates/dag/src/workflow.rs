//! Workflow, phase, and task types (paper §2 definitions).
//!
//! A *component* is the smallest execution unit; components running the same
//! code within a phase form a *task*; all tasks that may run concurrently
//! form a *phase*; an ordered list of phases with component-level dependency
//! edges is a *workflow*.

use crate::arena::TaskArena;
use crate::pattern::DependencyPattern;
use crate::profile::TaskProfile;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Location of a task inside a workflow: `(phase index, task index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskRef {
    /// Index of the phase the task belongs to.
    pub phase: usize,
    /// Index of the task within its phase.
    pub task: usize,
}

impl TaskRef {
    /// Convenience constructor.
    pub fn new(phase: usize, task: usize) -> Self {
        TaskRef { phase, task }
    }
}

impl fmt::Display for TaskRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}T{}", self.phase, self.task)
    }
}

/// A dependency of a task on a producer task in an earlier phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDep {
    /// The producer task.
    pub producer: TaskRef,
    /// Component-level wiring pattern.
    pub pattern: DependencyPattern,
}

/// A task: `components` copies of the same logic over different inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Human-readable unique name (e.g. `"Individual"`).
    pub name: String,
    /// Number of parallel components.
    pub components: usize,
    /// Resource profile standing in for the task executable.
    pub profile: TaskProfile,
    /// Dependencies on earlier-phase tasks. Empty for initial tasks, which
    /// read the workflow's initial input dataset instead.
    pub deps: Vec<TaskDep>,
}

impl Task {
    /// Creates a dependency-free task.
    pub fn new(name: impl Into<String>, components: usize, profile: TaskProfile) -> Self {
        Task {
            name: name.into(),
            components,
            profile,
            deps: Vec::new(),
        }
    }
}

/// A set of tasks with no mutual dependencies, runnable concurrently.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Phase {
    /// The tasks of this phase.
    pub tasks: Vec<Task>,
}

impl Phase {
    /// Total number of components across tasks in this phase (the phase's
    /// maximum parallelism).
    pub fn width(&self) -> usize {
        self.tasks.iter().map(|t| t.components).sum()
    }
}

/// Serialized form of a [`Workflow`]: the semantic fields only (the
/// arena index is derived state, rebuilt on demand).
#[derive(Serialize, Deserialize)]
pub struct WorkflowData {
    /// Workflow name.
    pub name: String,
    /// Phases in execution order.
    pub phases: Vec<Phase>,
    /// Size of the initial input dataset in bytes.
    pub initial_input_bytes: f64,
}

/// A scientific workflow: an ordered list of phases. Dependencies always
/// point from later phases to earlier ones, so the phase order is a valid
/// topological schedule.
#[derive(Debug, Serialize, Deserialize)]
#[serde(from = "WorkflowData", into = "WorkflowData")]
pub struct Workflow {
    /// Workflow name (e.g. `"1000Genome"`).
    pub name: String,
    /// Phases in execution order.
    pub phases: Vec<Phase>,
    /// Size of the initial input dataset in bytes (informational; initial
    /// tasks additionally declare per-component input bytes).
    pub initial_input_bytes: f64,
    /// Lazily-built arena index (flat task table and CSR edges
    /// in both directions). Built on the first [`arena`](Workflow::arena) /
    /// [`consumers`](Workflow::consumers) call (or eagerly by the builder);
    /// semantic fields must not be mutated after that point — clone the
    /// workflow instead, which resets the index.
    arena_cache: OnceLock<TaskArena>,
}

impl From<WorkflowData> for Workflow {
    fn from(d: WorkflowData) -> Self {
        Workflow::new(d.name, d.phases, d.initial_input_bytes)
    }
}

impl From<Workflow> for WorkflowData {
    fn from(w: Workflow) -> Self {
        WorkflowData {
            name: w.name,
            phases: w.phases,
            initial_input_bytes: w.initial_input_bytes,
        }
    }
}

impl Clone for Workflow {
    fn clone(&self) -> Self {
        // The index is cheap to rebuild and cloning is the sanctioned way
        // to mutate a workflow, so the clone starts with a fresh cache.
        Workflow::new(
            self.name.clone(),
            self.phases.clone(),
            self.initial_input_bytes,
        )
    }
}

impl PartialEq for Workflow {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.phases == other.phases
            && self.initial_input_bytes == other.initial_input_bytes
    }
}

impl Workflow {
    /// Assembles a workflow from parts. It checks nothing: checking is
    /// `CheckedWorkflow`'s (in `mashup-core`).
    pub fn new(name: impl Into<String>, phases: Vec<Phase>, initial_input_bytes: f64) -> Self {
        Workflow {
            name: name.into(),
            phases,
            initial_input_bytes,
            arena_cache: OnceLock::new(),
        }
    }

    /// The arena/SoA index over this workflow's tasks and edges, built on
    /// first use: flat ids and CSR consumer/producer adjacency.
    pub fn arena(&self) -> &TaskArena {
        self.arena_cache.get_or_init(|| TaskArena::build(self))
    }

    /// Looks up a task by reference. Panics on an out-of-range reference
    /// (checked workflows never contain one).
    pub fn task(&self, r: TaskRef) -> &Task {
        &self.phases[r.phase].tasks[r.task]
    }

    /// The first task with the given name, by a scan in phase order. Names
    /// are for reports and tools; planning and execution use flat ids.
    pub fn task_by_name(&self, name: &str) -> Option<(TaskRef, &Task)> {
        self.task_refs()
            .map(|r| (r, self.task(r)))
            .find(|(_, t)| t.name == name)
    }

    /// Flat id (see [`TaskArena`]) of the first task with the given name.
    pub fn flat_by_name(&self, name: &str) -> Option<usize> {
        self.phases
            .iter()
            .flat_map(|p| &p.tasks)
            .position(|t| t.name == name)
    }

    /// Iterates over all task references in phase order.
    pub fn task_refs(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.phases
            .iter()
            .enumerate()
            .flat_map(|(pi, phase)| (0..phase.tasks.len()).map(move |ti| TaskRef::new(pi, ti)))
    }

    /// Number of tasks across all phases.
    pub fn task_count(&self) -> usize {
        self.phases.iter().map(|p| p.tasks.len()).sum()
    }

    /// Number of components across all tasks (paper: 2,506 for 1000Genome,
    /// 404 for SRAsearch, 2,007 for Epigenomics).
    pub fn component_count(&self) -> usize {
        self.phases.iter().map(|p| p.width()).sum()
    }

    /// Maximum phase width (the peak parallelism a cluster must provision
    /// for; the over-provisioning motivation of §1).
    pub fn max_width(&self) -> usize {
        self.phases.iter().map(|p| p.width()).max().unwrap_or(0)
    }

    /// The tasks that consume a given task's output, with patterns, in
    /// phase order. Served from the CSR index (O(1) after the first call).
    pub fn consumers(&self, producer: TaskRef) -> &[(TaskRef, DependencyPattern)] {
        self.arena().consumers(producer)
    }

    /// Component-level dependencies of `(consumer, comp)`: each entry is a
    /// producer task plus the producer component indices read.
    pub fn component_deps(&self, consumer: TaskRef, comp: usize) -> Vec<(TaskRef, Vec<usize>)> {
        let c = self.task(consumer);
        c.deps
            .iter()
            .map(|d| {
                let p = self.task(d.producer);
                (
                    d.producer,
                    d.pattern
                        .producer_components(p.components, c.components, comp),
                )
            })
            .collect()
    }

    /// Sum of per-component compute seconds over every component: the
    /// sequential work of the workflow on one VM core.
    pub fn total_vm_compute_secs(&self) -> f64 {
        self.task_refs()
            .map(|r| {
                let t = self.task(r);
                t.profile.compute_secs_vm * t.components as f64
            })
            .sum()
    }

    /// Critical-path length in seconds assuming unbounded parallelism on VM
    /// cores: the max per-phase component compute, summed over phases.
    pub fn critical_path_secs(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| {
                p.tasks
                    .iter()
                    .map(|t| t.profile.compute_secs_vm)
                    .fold(0.0, f64::max)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;

    fn two_phase() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        let a = b.add_task(Task::new("A", 4, TaskProfile::trivial().compute(2.0)));
        b.begin_phase();
        let c = b.add_task(Task::new("B", 2, TaskProfile::trivial().compute(3.0)));
        b.depend(c, a, DependencyPattern::FanInBlocks);
        b.build()
    }

    #[test]
    fn structure_queries() {
        let w = two_phase();
        assert_eq!(w.task_count(), 2);
        assert_eq!(w.component_count(), 6);
        assert_eq!(w.max_width(), 4);
        assert_eq!(w.phases[0].width(), 4);
        let (r, t) = w.task_by_name("B").expect("found");
        assert_eq!(r, TaskRef::new(1, 0));
        assert_eq!(t.components, 2);
        assert!(w.task_by_name("missing").is_none());
    }

    #[test]
    fn consumers_and_component_deps() {
        let w = two_phase();
        let a = TaskRef::new(0, 0);
        let b = TaskRef::new(1, 0);
        let cons = w.consumers(a);
        assert_eq!(cons.len(), 1);
        assert_eq!(cons[0].0, b);
        let deps = w.component_deps(b, 1);
        assert_eq!(deps, vec![(a, vec![2, 3])]);
    }

    #[test]
    fn work_metrics() {
        let w = two_phase();
        // 4 comps * 2s + 2 comps * 3s = 14s total, 2 + 3 = 5s critical path.
        assert_eq!(w.total_vm_compute_secs(), 14.0);
        assert_eq!(w.critical_path_secs(), 5.0);
    }

    #[test]
    fn task_ref_display() {
        assert_eq!(TaskRef::new(2, 1).to_string(), "P2T1");
    }

    #[test]
    fn multi_consumer_producers_list_every_edge() {
        // One producer feeding two consumers with different patterns.
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        let a = b.add_task(Task::new("A", 4, TaskProfile::trivial()));
        b.begin_phase();
        let c1 = b.add_task(Task::new("B", 4, TaskProfile::trivial()));
        let c2 = b.add_task(Task::new("C", 1, TaskProfile::trivial()));
        b.depend(c1, a, DependencyPattern::OneToOne);
        b.depend(c2, a, DependencyPattern::AllToAll);
        let w = b.build();
        let cons = w.consumers(TaskRef::new(0, 0));
        assert_eq!(cons.len(), 2);
        assert!(cons.contains(&(c1, DependencyPattern::OneToOne)));
        assert!(cons.contains(&(c2, DependencyPattern::AllToAll)));
        // Terminal tasks have no consumers.
        assert!(w.consumers(c1).is_empty());
    }

    #[test]
    fn csr_index_lists_consumers_in_phase_then_declaration_order() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        let a = b.add_task(Task::new("A", 4, TaskProfile::trivial()));
        let b0 = b.add_task(Task::new("B", 2, TaskProfile::trivial()));
        b.begin_phase();
        let c = b.add_task(Task::new("C", 4, TaskProfile::trivial()));
        let d = b.add_task(Task::new("D", 1, TaskProfile::trivial()));
        b.depend(c, a, DependencyPattern::OneToOne);
        b.depend(d, a, DependencyPattern::AllToAll);
        b.depend(d, b0, DependencyPattern::AllToAll);
        b.begin_phase();
        let e = b.add_task(Task::new("E", 1, TaskProfile::trivial()));
        b.depend(e, c, DependencyPattern::AllToAll);
        b.depend(e, d, DependencyPattern::OneToOne);
        let w = b.build();
        assert_eq!(
            w.consumers(a),
            &[
                (c, DependencyPattern::OneToOne),
                (d, DependencyPattern::AllToAll)
            ]
        );
        assert_eq!(w.consumers(b0), &[(d, DependencyPattern::AllToAll)]);
        assert_eq!(w.consumers(c), &[(e, DependencyPattern::AllToAll)]);
        assert_eq!(w.consumers(d), &[(e, DependencyPattern::OneToOne)]);
        assert!(w.consumers(e).is_empty());
        // Out-of-range producers have no consumers (matching the old scan).
        assert!(w.consumers(TaskRef::new(9, 0)).is_empty());
        assert!(w.consumers(TaskRef::new(0, 9)).is_empty());
    }

    #[test]
    fn clone_rebuilds_the_consumer_index() {
        let w = two_phase();
        let a = TaskRef::new(0, 0);
        assert_eq!(w.consumers(a).len(), 1);
        // Mutate the clone's edges: its fresh index must see the change.
        let mut w2 = w.clone();
        w2.phases[1].tasks[0].deps.clear();
        assert!(w2.consumers(a).is_empty());
        assert_eq!(w.consumers(a).len(), 1);
    }

    #[test]
    fn workflow_serde_round_trip_skips_the_index() {
        let w = two_phase();
        let _ = w.consumers(TaskRef::new(0, 0)); // force the index
        let json = serde_json::to_string(&w).expect("serialize");
        let back: Workflow = serde_json::from_str(&json).expect("parse");
        assert_eq!(w, back);
        assert_eq!(
            back.consumers(TaskRef::new(0, 0)),
            w.consumers(TaskRef::new(0, 0))
        );
    }

    #[test]
    fn task_refs_iterate_in_phase_order() {
        let w = two_phase();
        let refs: Vec<TaskRef> = w.task_refs().collect();
        assert_eq!(refs, vec![TaskRef::new(0, 0), TaskRef::new(1, 0)]);
    }
}
