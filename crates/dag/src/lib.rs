//! # mashup-dag
//!
//! The scientific-workflow DAG model used throughout the Mashup
//! reproduction, following the paper's §2 vocabulary:
//!
//! * **component** — smallest execution unit; a task's components run the
//!   same code over different inputs;
//! * **task** — a named group of identical components;
//! * **phase** — tasks with no mutual dependencies, runnable concurrently;
//! * **workflow** — an ordered list of phases with component-level
//!   dependency edges between tasks of different phases.
//!
//! Dependencies use the paper's connection dynamics (fan-out, fan-in,
//! strong/all-to-all) via [`DependencyPattern`]. Task executables are
//! replaced by [`TaskProfile`]s — see `DESIGN.md` for the substitution
//! rationale. Workflows can be built with [`WorkflowBuilder`], derived from
//! a raw task graph with [`from_task_graph`], serialized to/from JSON with
//! [`to_json`]/[`from_json`], and exported to Graphviz with [`to_dot`].
//!
//! This crate builds and parses; checking is `CheckedWorkflow`'s. The
//! structural rules (non-empty phases, named tasks with components, sane
//! profiles, dependencies on earlier phases with matching patterns) are
//! the analyzer's M1xx checks, which `mashup_core::CheckedWorkflow` runs
//! once per workflow, before any planner or executor sees it.

#![warn(missing_docs)]

mod arena;
mod builder;
mod dot;
mod fusion;
mod graph;
mod pattern;
mod placement;
mod profile;
mod workflow;

pub use arena::TaskArena;
pub use builder::WorkflowBuilder;
pub use dot::to_dot;
pub use fusion::{fusable_pairs, fuse, FusionCandidate, FusionError};
pub use graph::{from_task_graph, GraphError, RawEdge};
pub use pattern::DependencyPattern;
pub use placement::{PlacementPlan, Platform, UnassignedTask};
pub use profile::TaskProfile;
pub use workflow::{Phase, Task, TaskDep, TaskRef, Workflow, WorkflowData};

/// Serializes a workflow to pretty-printed JSON.
pub fn to_json(w: &Workflow) -> String {
    serde_json::to_string_pretty(w).expect("workflow serialization is infallible")
}

/// Parses a workflow from JSON. It parses; checking is
/// `CheckedWorkflow`'s, so a structurally invalid workflow parses fine and
/// is refused, with every finding, when it is checked.
pub fn from_json(json: &str) -> Result<Workflow, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workflow {
        let mut b = WorkflowBuilder::new("sample");
        b.initial_input_bytes(1e6);
        b.begin_phase();
        let a = b.add_task(Task::new("A", 4, TaskProfile::trivial().compute(2.0)));
        b.begin_phase();
        let c = b.add_task(Task::new("B", 1, TaskProfile::trivial()));
        b.depend(c, a, DependencyPattern::AllToAll);
        b.build()
    }

    #[test]
    fn json_round_trip() {
        let w = sample();
        let json = to_json(&w);
        let back = from_json(&json).expect("parses");
        assert_eq!(w, back);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(from_json("not json").is_err());
    }
}
