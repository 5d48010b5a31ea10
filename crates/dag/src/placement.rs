//! Placement plans: which platform runs each task.
//!
//! These types live in `mashup-dag` (rather than the engine crate) so that
//! plan-consuming tooling — notably the `mashup-analyze` diagnostics — can
//! reason about placements without depending on the engine.

use crate::workflow::{TaskRef, Workflow};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The two execution platforms of the hybrid environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// Traditional VM-based cluster.
    VmCluster,
    /// Serverless (FaaS) platform.
    Serverless,
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Platform::VmCluster => write!(f, "VM"),
            Platform::Serverless => write!(f, "serverless"),
        }
    }
}

/// Error returned when a plan is asked about a task it never assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnassignedTask(pub TaskRef);

impl fmt::Display for UnassignedTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no placement for task {}", self.0)
    }
}

impl std::error::Error for UnassignedTask {}

/// A complete task-to-platform assignment for one workflow.
///
/// Stored as one flat phase-major table (the numbering of
/// [`TaskArena`](crate::TaskArena)) — plan lookups sit on the executor's and
/// PDC's hot paths, and one table is one allocation however many phases the
/// workflow has. Each phase's row is as long as the workflow's phase (for
/// [`uniform`](Self::uniform)) or as its highest assigned task (for
/// [`set`](Self::set)), so the table is a canonical function of the
/// assignment set and derived equality is exact. Serialized as a list of
/// `(task, platform)` pairs (JSON maps need string keys, and `TaskRef` is a
/// struct) — the same wire format the `BTreeMap` representation produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(from = "Vec<(TaskRef, Platform)>", into = "Vec<(TaskRef, Platform)>")]
pub struct PlacementPlan {
    /// Index into `slots` of each phase's first task; a phase's row ends
    /// where the next one starts (the last at `slots.len()`).
    starts: Vec<usize>,
    /// Per-task assignment, phase-major.
    slots: Vec<Option<Platform>>,
}

impl From<Vec<(TaskRef, Platform)>> for PlacementPlan {
    fn from(v: Vec<(TaskRef, Platform)>) -> Self {
        let mut plan = PlacementPlan::new();
        for (r, p) in v {
            plan.set(r, p);
        }
        plan
    }
}

impl From<PlacementPlan> for Vec<(TaskRef, Platform)> {
    fn from(p: PlacementPlan) -> Self {
        p.iter().collect()
    }
}

impl PlacementPlan {
    /// An empty plan.
    pub fn new() -> Self {
        PlacementPlan::default()
    }

    /// A plan putting every task of `w` on `platform`, pre-sized from the
    /// workflow's phase shape.
    pub fn uniform(w: &Workflow, platform: Platform) -> Self {
        let mut starts = Vec::with_capacity(w.phases.len());
        let mut n = 0;
        for p in &w.phases {
            starts.push(n);
            n += p.tasks.len();
        }
        PlacementPlan {
            starts,
            slots: vec![Some(platform); n],
        }
    }

    /// The slot range of phase `phase`'s row (which must exist).
    fn row(&self, phase: usize) -> std::ops::Range<usize> {
        let end = self
            .starts
            .get(phase + 1)
            .copied()
            .unwrap_or(self.slots.len());
        self.starts[phase]..end
    }

    /// Assigns a task, growing the table as needed. Assigning in
    /// phase-major order only ever appends.
    pub fn set(&mut self, task: TaskRef, platform: Platform) {
        if task.phase >= self.starts.len() {
            self.starts.resize(task.phase + 1, self.slots.len());
        }
        let row = self.row(task.phase);
        if task.task >= row.len() {
            let grow = task.task + 1 - row.len();
            self.slots
                .splice(row.end..row.end, std::iter::repeat_n(None, grow));
            for start in &mut self.starts[task.phase + 1..] {
                *start += grow;
            }
        }
        self.slots[row.start + task.task] = Some(platform);
    }

    /// The platform of `task`, or [`UnassignedTask`] when the plan never
    /// assigned it.
    pub fn platform(&self, task: TaskRef) -> Result<Platform, UnassignedTask> {
        (task.phase < self.starts.len())
            .then(|| self.row(task.phase))
            .filter(|row| task.task < row.len())
            .and_then(|row| self.slots[row.start + task.task])
            .ok_or(UnassignedTask(task))
    }

    /// True when every task of `w` has an assignment.
    pub fn covers(&self, w: &Workflow) -> bool {
        w.task_refs().all(|r| self.platform(r).is_ok())
    }

    /// Number of tasks assigned to `platform`.
    pub fn count(&self, platform: Platform) -> usize {
        self.slots.iter().filter(|&&p| p == Some(platform)).count()
    }

    /// True if at least one task runs on the VM cluster.
    pub fn uses_cluster(&self) -> bool {
        self.slots.contains(&Some(Platform::VmCluster))
    }

    /// True if at least one task runs serverless.
    pub fn uses_serverless(&self) -> bool {
        self.slots.contains(&Some(Platform::Serverless))
    }

    /// Iterates over `(task, platform)` in task order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskRef, Platform)> + '_ {
        (0..self.starts.len()).flat_map(move |pi| {
            self.slots[self.row(pi)]
                .iter()
                .enumerate()
                .filter_map(move |(ti, p)| p.map(|p| (TaskRef::new(pi, ti), p)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use crate::profile::TaskProfile;
    use crate::workflow::Task;

    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.begin_phase();
        b.add_task(Task::new("A", 2, TaskProfile::trivial()));
        b.add_task(Task::new("B", 3, TaskProfile::trivial()));
        b.build()
    }

    #[test]
    fn uniform_covers_all_tasks() {
        let w = wf();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        assert!(plan.covers(&w));
        assert_eq!(plan.count(Platform::Serverless), 2);
        assert!(!plan.uses_cluster());
        assert!(plan.uses_serverless());
    }

    #[test]
    fn set_overrides() {
        let w = wf();
        let mut plan = PlacementPlan::uniform(&w, Platform::VmCluster);
        plan.set(TaskRef::new(0, 1), Platform::Serverless);
        assert_eq!(plan.platform(TaskRef::new(0, 0)), Ok(Platform::VmCluster));
        assert_eq!(plan.platform(TaskRef::new(0, 1)), Ok(Platform::Serverless));
        assert!(plan.uses_cluster() && plan.uses_serverless());
    }

    #[test]
    fn missing_assignment_is_an_error() {
        let plan = PlacementPlan::new();
        let err = plan.platform(TaskRef::new(0, 0)).unwrap_err();
        assert_eq!(err, UnassignedTask(TaskRef::new(0, 0)));
        assert_eq!(err.to_string(), "no placement for task P0T0");
        // Sparse assignments error for the gaps, not just out-of-range.
        let mut sparse = PlacementPlan::new();
        sparse.set(TaskRef::new(1, 1), Platform::Serverless);
        assert!(sparse.platform(TaskRef::new(1, 0)).is_err());
        assert!(sparse.platform(TaskRef::new(0, 0)).is_err());
        assert_eq!(
            sparse.platform(TaskRef::new(1, 1)),
            Ok(Platform::Serverless)
        );
    }

    #[test]
    fn construction_order_does_not_affect_equality() {
        let mut a = PlacementPlan::new();
        a.set(TaskRef::new(0, 0), Platform::VmCluster);
        a.set(TaskRef::new(1, 2), Platform::Serverless);
        let mut b = PlacementPlan::new();
        b.set(TaskRef::new(1, 2), Platform::Serverless);
        b.set(TaskRef::new(0, 0), Platform::VmCluster);
        assert_eq!(a, b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![
                (TaskRef::new(0, 0), Platform::VmCluster),
                (TaskRef::new(1, 2), Platform::Serverless),
            ]
        );
    }

    #[test]
    fn growing_an_earlier_row_keeps_later_rows() {
        let mut plan = PlacementPlan::new();
        plan.set(TaskRef::new(2, 0), Platform::Serverless);
        plan.set(TaskRef::new(0, 1), Platform::VmCluster);
        plan.set(TaskRef::new(1, 0), Platform::Serverless);
        plan.set(TaskRef::new(0, 0), Platform::Serverless);
        assert_eq!(
            plan.iter().collect::<Vec<_>>(),
            vec![
                (TaskRef::new(0, 0), Platform::Serverless),
                (TaskRef::new(0, 1), Platform::VmCluster),
                (TaskRef::new(1, 0), Platform::Serverless),
                (TaskRef::new(2, 0), Platform::Serverless),
            ]
        );
        assert!(plan.platform(TaskRef::new(1, 1)).is_err());
        assert!(plan.platform(TaskRef::new(3, 0)).is_err());
        assert_eq!(plan, PlacementPlan::from(plan.iter().collect::<Vec<_>>()));
    }

    #[test]
    fn serde_round_trip() {
        let w = wf();
        let plan = PlacementPlan::uniform(&w, Platform::Serverless);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: PlacementPlan = serde_json::from_str(&json).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn platform_display() {
        assert_eq!(Platform::VmCluster.to_string(), "VM");
        assert_eq!(Platform::Serverless.to_string(), "serverless");
    }
}
