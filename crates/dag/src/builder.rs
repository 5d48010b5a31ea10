//! Incremental construction and validation of workflows.

use crate::pattern::DependencyPattern;
use crate::workflow::{Phase, Task, TaskDep, TaskRef, Workflow};
#[expect(
    clippy::disallowed_types,
    reason = "membership tests only, never iterated"
)]
use std::collections::HashSet;
use std::fmt;

/// Errors produced by [`WorkflowBuilder::build`] or [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The workflow has no phases.
    EmptyWorkflow,
    /// A phase contains no tasks.
    EmptyPhase(usize),
    /// A task declares zero components.
    ZeroComponents(String),
    /// Two tasks share a name.
    DuplicateTaskName(String),
    /// A dependency references a task that does not exist.
    DanglingReference {
        /// Name of the task declaring the dependency.
        consumer: String,
        /// The nonexistent reference.
        producer: TaskRef,
    },
    /// A dependency points to the same or a later phase (would create a
    /// cycle or an intra-phase ordering, both disallowed).
    NotEarlierPhase {
        /// Name of the task declaring the dependency.
        consumer: String,
        /// The offending producer reference.
        producer: TaskRef,
    },
    /// A dependency pattern is incompatible with the component counts.
    PatternMismatch {
        /// Name of the task declaring the dependency.
        consumer: String,
        /// Human-readable mismatch description.
        detail: String,
    },
    /// A task profile has invalid values.
    BadProfile {
        /// Name of the offending task.
        task: String,
        /// Human-readable problem description.
        detail: String,
    },
    /// A task beyond phase 0 has no dependencies, so it could run earlier.
    UnanchoredTask(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EmptyWorkflow => write!(f, "workflow has no phases"),
            ValidationError::EmptyPhase(i) => write!(f, "phase {i} has no tasks"),
            ValidationError::ZeroComponents(t) => {
                write!(f, "task '{t}' has zero components")
            }
            ValidationError::DuplicateTaskName(t) => {
                write!(f, "duplicate task name '{t}'")
            }
            ValidationError::DanglingReference { consumer, producer } => {
                write!(
                    f,
                    "task '{consumer}' depends on nonexistent task {producer}"
                )
            }
            ValidationError::NotEarlierPhase { consumer, producer } => write!(
                f,
                "task '{consumer}' depends on {producer}, which is not in an earlier phase"
            ),
            ValidationError::PatternMismatch { consumer, detail } => {
                write!(f, "task '{consumer}': {detail}")
            }
            ValidationError::BadProfile { task, detail } => {
                write!(f, "task '{task}': {detail}")
            }
            ValidationError::UnanchoredTask(t) => write!(
                f,
                "task '{t}' is beyond phase 0 but has no dependencies; move it earlier"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a workflow against all structural rules.
pub fn validate(w: &Workflow) -> Result<(), ValidationError> {
    if w.phases.is_empty() {
        return Err(ValidationError::EmptyWorkflow);
    }
    #[expect(
        clippy::disallowed_types,
        reason = "duplicate detection via membership only"
    )]
    let mut names: HashSet<&str> = HashSet::with_capacity(w.task_count());
    for (pi, phase) in w.phases.iter().enumerate() {
        if phase.tasks.is_empty() {
            return Err(ValidationError::EmptyPhase(pi));
        }
        for task in &phase.tasks {
            if task.components == 0 {
                return Err(ValidationError::ZeroComponents(task.name.clone()));
            }
            if !names.insert(&task.name) {
                return Err(ValidationError::DuplicateTaskName(task.name.clone()));
            }
            if let Err(detail) = task.profile.validate() {
                return Err(ValidationError::BadProfile {
                    task: task.name.clone(),
                    detail,
                });
            }
            if pi > 0 && task.deps.is_empty() {
                return Err(ValidationError::UnanchoredTask(task.name.clone()));
            }
            for dep in &task.deps {
                let exists = dep.producer.phase < w.phases.len()
                    && dep.producer.task < w.phases[dep.producer.phase].tasks.len();
                if !exists {
                    return Err(ValidationError::DanglingReference {
                        consumer: task.name.clone(),
                        producer: dep.producer,
                    });
                }
                if dep.producer.phase >= pi {
                    return Err(ValidationError::NotEarlierPhase {
                        consumer: task.name.clone(),
                        producer: dep.producer,
                    });
                }
                let producer = w.task(dep.producer);
                if let Err(detail) = dep.pattern.check(producer.components, task.components) {
                    return Err(ValidationError::PatternMismatch {
                        consumer: task.name.clone(),
                        detail,
                    });
                }
            }
        }
    }
    Ok(())
}

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
/// let wf = b.build().expect("valid");
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

    /// Validates and returns the workflow with its consumer index built.
    pub fn build(self) -> Result<Workflow, ValidationError> {
        validate(&self.workflow)?;
        self.workflow.prewarm_index();
        Ok(self.workflow)
    }

    /// Returns the workflow without validation (for negative tests).
    pub fn build_unchecked(self) -> Workflow {
        self.workflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TaskProfile;

    fn t(name: &str, comps: usize) -> Task {
        Task::new(name, comps, TaskProfile::trivial())
    }

    #[test]
    fn valid_workflow_builds() {
        let mut b = WorkflowBuilder::new("w");
        b.initial_input_bytes(1e9);
        b.begin_phase();
        let a = b.add_task(t("A", 3));
        b.begin_phase();
        let c = b.add_task(t("B", 1));
        b.depend(c, a, DependencyPattern::AllToAll);
        let w = b.build().expect("valid");
        assert_eq!(w.name, "w");
        assert_eq!(w.initial_input_bytes, 1e9);
    }

    #[test]
    fn empty_workflow_rejected() {
        assert_eq!(
            WorkflowBuilder::new("w").build().unwrap_err(),
            ValidationError::EmptyWorkflow
        );
    }

    #[test]
    fn empty_phase_rejected() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        assert_eq!(b.build().unwrap_err(), ValidationError::EmptyPhase(0));
    }

    #[test]
    fn zero_components_rejected() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(t("A", 0));
        assert_eq!(
            b.build().unwrap_err(),
            ValidationError::ZeroComponents("A".into())
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(t("A", 1));
        b.add_task(t("A", 1));
        assert_eq!(
            b.build().unwrap_err(),
            ValidationError::DuplicateTaskName("A".into())
        );
    }

    #[test]
    fn later_phase_dependency_rejected() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        let a = b.add_task(t("A", 1));
        let x = b.add_task(t("X", 1));
        b.depend(a, x, DependencyPattern::OneToOne);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ValidationError::NotEarlierPhase { .. }));
    }

    #[test]
    fn dangling_reference_rejected() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(t("A", 1));
        b.begin_phase();
        let c = b.add_task(t("B", 1));
        b.depend(c, TaskRef::new(0, 9), DependencyPattern::OneToOne);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ValidationError::DanglingReference { .. }));
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        let a = b.add_task(t("A", 3));
        b.begin_phase();
        let c = b.add_task(t("B", 2));
        b.depend(c, a, DependencyPattern::OneToOne);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ValidationError::PatternMismatch { .. }));
    }

    #[test]
    fn unanchored_task_rejected() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(t("A", 1));
        b.begin_phase();
        b.add_task(t("B", 1)); // no dependency declared
        assert_eq!(
            b.build().unwrap_err(),
            ValidationError::UnanchoredTask("B".into())
        );
    }

    #[test]
    fn bad_profile_rejected() {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(Task::new("A", 1, TaskProfile::trivial().compute(-5.0)));
        let err = b.build().unwrap_err();
        assert!(matches!(err, ValidationError::BadProfile { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidationError::NotEarlierPhase {
            consumer: "B".into(),
            producer: TaskRef::new(1, 0),
        };
        assert!(e.to_string().contains("earlier phase"));
        assert!(ValidationError::EmptyWorkflow
            .to_string()
            .contains("no phases"));
    }
}
