//! Synthetic DAG generators for the benchmark's scale-100k workload.
//!
//! Two canonical shapes, parameterized by total task count, built through
//! [`from_task_graph`] so the benchmark exercises the raw-graph ingestion
//! path (name resolution, CSR adjacency, iterative level assignment) that
//! million-task imports hit in practice:
//!
//! * **chain** — `n` phases of one task each, the deepest possible DAG;
//! * **fan-out** — one splitter, an `n − 2`-wide worker phase, one sink,
//!   the widest possible DAG.
//!
//! Every generated task is deterministic (zero jitter), serverless-eligible
//! (compute far above the short-task threshold, small memory), free of I/O
//! bytes (the planner's event count, not bandwidth modeling, is what the
//! workload measures), and carries a per-shape `code_family` so warm pools,
//! bulk scheduling, and [`Pdc::with_probe_sharing`] can group the
//! population — the structure diagnostic M109 warns when wide inputs lack
//! exactly this.
//!
//! [`Pdc::with_probe_sharing`]: mashup_core::Pdc::with_probe_sharing

use mashup_dag::{from_task_graph, DependencyPattern, RawEdge, Task, TaskProfile, Workflow};

/// The generated DAG shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `n` phases × 1 task, `OneToOne`-chained.
    Chain,
    /// Splitter → `n − 2` parallel workers → sink.
    FanOut,
}

impl Shape {
    /// Lowercase identifier used in the workflow name and the shared
    /// `code_family`.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Chain => "chain",
            Shape::FanOut => "fanout",
        }
    }
}

/// The raw tasks-plus-edges form of a `shape` graph with `tasks` tasks
/// (rounded to the shape's granularity, always ≥ the smallest instance).
pub fn raw_graph(shape: Shape, tasks: usize) -> (Vec<Task>, Vec<RawEdge>) {
    let profile = TaskProfile::trivial().compute(40.0).family(shape.name());
    let task = |name: String| Task::new(name, 1, profile.clone());
    match shape {
        Shape::Chain => {
            let n = tasks.max(1);
            let tasks: Vec<Task> = (0..n).map(|i| task(format!("c{i}"))).collect();
            let edges = (1..n)
                .map(|i| {
                    RawEdge::new(
                        format!("c{}", i - 1),
                        format!("c{i}"),
                        DependencyPattern::OneToOne,
                    )
                })
                .collect();
            (tasks, edges)
        }
        Shape::FanOut => {
            let workers = tasks.saturating_sub(2).max(1);
            let mut out = Vec::with_capacity(workers + 2);
            let mut edges = Vec::with_capacity(2 * workers);
            out.push(task("src".into()));
            for i in 0..workers {
                out.push(task(format!("w{i}")));
                edges.push(RawEdge::new(
                    "src",
                    format!("w{i}"),
                    DependencyPattern::AllToAll,
                ));
            }
            out.push(task("sink".into()));
            for i in 0..workers {
                edges.push(RawEdge::new(
                    format!("w{i}"),
                    "sink",
                    DependencyPattern::AllToAll,
                ));
            }
            (out, edges)
        }
    }
}

/// Builds the `shape` workflow through [`from_task_graph`].
pub fn workflow(shape: Shape, tasks: usize) -> Workflow {
    let (t, e) = raw_graph(shape, tasks);
    from_task_graph(format!("scale-{}", shape.name()), t, e, 1.0e6).expect("generated DAG is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hit_requested_sizes_and_structures() {
        let c = workflow(Shape::Chain, 100);
        assert_eq!(c.task_count(), 100);
        assert_eq!(c.phases.len(), 100);

        let f = workflow(Shape::FanOut, 100);
        assert_eq!(f.task_count(), 100);
        assert_eq!(f.phases.len(), 3);
        assert_eq!(f.phases[1].tasks.len(), 98);
    }

    #[test]
    fn generated_workflows_are_batching_friendly() {
        // The wide fan-out must not trip the M109 scale-structure warning:
        // its workers share one code family.
        let f = workflow(Shape::FanOut, 200);
        assert!(mashup_analyze::analyze_workflow(&f).is_empty());
    }
}
