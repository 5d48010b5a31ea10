//! Incremental construction of workflows. The builder checks nothing:
//! structural checking is `CheckedWorkflow`'s (in `mashup-core`), which
//! runs the analyzer's M1xx checks and reports every finding at once.

use crate::pattern::DependencyPattern;
use crate::workflow::{Phase, Task, TaskDep, TaskRef, Workflow};

/// Builds a [`Workflow`] phase by phase.
///
/// # Example
/// ```
/// use mashup_dag::{WorkflowBuilder, Task, TaskProfile, DependencyPattern};
///
/// let mut b = WorkflowBuilder::new("demo");
/// b.begin_phase();
/// let split = b.add_task(Task::new("Split", 2, TaskProfile::trivial()));
/// b.begin_phase();
/// let map = b.add_task(Task::new("Map", 8, TaskProfile::trivial()));
/// b.depend(map, split, DependencyPattern::FanOutBlocks);
/// let wf = b.build();
/// assert_eq!(wf.component_count(), 10);
/// ```
pub struct WorkflowBuilder {
    workflow: Workflow,
}

impl WorkflowBuilder {
    /// Starts a new workflow with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            workflow: Workflow::new(name, Vec::new(), 0.0),
        }
    }

    /// Declares the size of the initial input dataset in bytes.
    pub fn initial_input_bytes(&mut self, bytes: f64) -> &mut Self {
        self.workflow.initial_input_bytes = bytes;
        self
    }

    /// Opens a new phase; subsequent [`add_task`](Self::add_task) calls add
    /// to it.
    pub fn begin_phase(&mut self) -> usize {
        self.workflow.phases.push(Phase::default());
        self.workflow.phases.len() - 1
    }

    /// Adds a task to the current phase, returning its reference.
    /// Panics if no phase has been opened.
    pub fn add_task(&mut self, task: Task) -> TaskRef {
        let phase = self
            .workflow
            .phases
            .len()
            .checked_sub(1)
            .expect("begin_phase before add_task");
        self.workflow.phases[phase].tasks.push(task);
        TaskRef::new(phase, self.workflow.phases[phase].tasks.len() - 1)
    }

    /// Declares that `consumer` depends on `producer` with `pattern`.
    pub fn depend(&mut self, consumer: TaskRef, producer: TaskRef, pattern: DependencyPattern) {
        self.workflow.phases[consumer.phase].tasks[consumer.task]
            .deps
            .push(TaskDep { producer, pattern });
    }

    /// Returns the workflow as declared. Its dependency references are
    /// not checked, so its task index is built on first use, not here.
    pub fn build(self) -> Workflow {
        self.workflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TaskProfile;

    #[test]
    fn build_returns_the_declared_workflow() {
        let mut b = WorkflowBuilder::new("w");
        b.initial_input_bytes(1e9);
        b.begin_phase();
        let a = b.add_task(Task::new("A", 3, TaskProfile::trivial()));
        b.begin_phase();
        let c = b.add_task(Task::new("B", 1, TaskProfile::trivial()));
        b.depend(c, a, DependencyPattern::AllToAll);
        let w = b.build();
        assert_eq!(w.name, "w");
        assert_eq!(w.initial_input_bytes, 1e9);
        assert_eq!(w.task(c).deps[0].producer, a);
    }
}
