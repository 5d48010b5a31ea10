//! Graphviz DOT export of workflows (mirrors the paper's Fig. 1 renderings).

use crate::workflow::Workflow;
use std::fmt::Write as _;

/// Renders the workflow as a Graphviz `digraph`, one node per task labelled
/// with its component count, grouped into phase clusters.
pub fn to_dot(w: &Workflow) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", w.name);
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, style=rounded];");
    for (pi, phase) in w.phases.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_phase{pi} {{");
        let _ = writeln!(out, "    label=\"Phase {}\";", pi + 1);
        for (ti, task) in phase.tasks.iter().enumerate() {
            let _ = writeln!(
                out,
                "    p{pi}t{ti} [label=\"{} ({})\"];",
                task.name, task.components
            );
        }
        let _ = writeln!(out, "  }}");
    }
    for r in w.task_refs() {
        for dep in &w.task(r).deps {
            let _ = writeln!(
                out,
                "  p{}t{} -> p{}t{} [label=\"{:?}\"];",
                dep.producer.phase, dep.producer.task, r.phase, r.task, dep.pattern
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use crate::pattern::DependencyPattern;
    use crate::profile::TaskProfile;
    use crate::workflow::Task;

    #[test]
    fn dot_contains_nodes_edges_and_clusters() {
        let mut b = WorkflowBuilder::new("demo");
        b.begin_phase();
        let a = b.add_task(Task::new("Split", 2, TaskProfile::trivial()));
        b.begin_phase();
        let m = b.add_task(Task::new("Map", 4, TaskProfile::trivial()));
        b.depend(m, a, DependencyPattern::FanOutBlocks);
        let w = b.build();
        let dot = to_dot(&w);
        assert!(dot.contains("digraph \"demo\""));
        assert!(dot.contains("Split (2)"));
        assert!(dot.contains("Map (4)"));
        assert!(dot.contains("p0t0 -> p1t0"));
        assert!(dot.contains("cluster_phase1"));
        assert!(dot.contains("FanOutBlocks"));
    }
}
