//! Phase derivation from a raw task graph.
//!
//! Users of workflow managers often describe a DAG as tasks plus edges
//! without phase annotations. [`from_task_graph`] recovers the paper's phase
//! structure: each task is placed at its longest-path depth, so tasks in the
//! same phase have no mutual dependencies and every dependency points to an
//! earlier phase.

use crate::pattern::DependencyPattern;
use crate::workflow::{Phase, Task, TaskDep, TaskRef, Workflow};
#[expect(
    clippy::disallowed_types,
    reason = "keyed name lookups only, never iterated"
)]
use std::collections::HashMap;

/// An edge in a raw task graph, named by task names.
#[derive(Debug, Clone)]
pub struct RawEdge {
    /// Producer task name.
    pub from: String,
    /// Consumer task name.
    pub to: String,
    /// Component wiring.
    pub pattern: DependencyPattern,
}

impl RawEdge {
    /// Convenience constructor.
    pub fn new(from: impl Into<String>, to: impl Into<String>, pattern: DependencyPattern) -> Self {
        RawEdge {
            from: from.into(),
            to: to.into(),
            pattern,
        }
    }
}

/// Errors from [`from_task_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references an unknown task name.
    UnknownTask(String),
    /// The edges form a cycle involving the named task.
    Cycle(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "edge references unknown task '{t}'"),
            GraphError::Cycle(t) => write!(f, "dependency cycle involving task '{t}'"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Builds a phase-structured [`Workflow`] from tasks plus raw edges.
///
/// Tasks are assigned to phases by longest-path level (sources at phase 0).
/// The relative order of tasks in the input is preserved within a phase.
///
/// Runs in O(V + E): edges are resolved into CSR adjacency (no per-task
/// `Vec<Vec<_>>` allocation), levels come from an iterative Kahn sweep (no
/// recursion, so million-task chains don't overflow the stack), and the
/// input tasks are moved — not cloned — into their phases.
pub fn from_task_graph(
    name: impl Into<String>,
    tasks: Vec<Task>,
    edges: Vec<RawEdge>,
    initial_input_bytes: f64,
) -> Result<Workflow, GraphError> {
    let n = tasks.len();
    // Borrow-keyed name index: no String clones. Later entries shadow
    // earlier duplicates; the derived workflow keeps both tasks, and
    // `CheckedWorkflow` refuses it (M106).
    #[expect(clippy::disallowed_types, reason = "lookup-only, never iterated")]
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(n);
    for (i, t) in tasks.iter().enumerate() {
        index.insert(t.name.as_str(), i);
    }
    // Resolve edges once into integer endpoints.
    let mut raw: Vec<(u32, u32, DependencyPattern)> = Vec::with_capacity(edges.len());
    for e in &edges {
        let &from = index
            .get(e.from.as_str())
            .ok_or_else(|| GraphError::UnknownTask(e.from.clone()))?;
        let &to = index
            .get(e.to.as_str())
            .ok_or_else(|| GraphError::UnknownTask(e.to.clone()))?;
        raw.push((from as u32, to as u32, e.pattern));
    }
    drop(index);

    // CSR adjacency in both directions. Filling in edge declaration order
    // keeps each consumer's dependency list in its declared order.
    let n_edges = raw.len();
    let mut prod_offsets = vec![0u32; n + 1]; // per-consumer producer slices
    let mut cons_offsets = vec![0u32; n + 1]; // per-producer consumer slices
    for &(from, to, _) in &raw {
        prod_offsets[to as usize + 1] += 1;
        cons_offsets[from as usize + 1] += 1;
    }
    for i in 1..=n {
        prod_offsets[i] += prod_offsets[i - 1];
        cons_offsets[i] += cons_offsets[i - 1];
    }
    let mut prod_entries = vec![(0u32, DependencyPattern::AllToAll); n_edges];
    let mut cons_entries = vec![0u32; n_edges];
    let mut prod_cursor: Vec<u32> = prod_offsets[..n].to_vec();
    let mut cons_cursor: Vec<u32> = cons_offsets[..n].to_vec();
    for &(from, to, pattern) in &raw {
        prod_entries[prod_cursor[to as usize] as usize] = (from, pattern);
        prod_cursor[to as usize] += 1;
        cons_entries[cons_cursor[from as usize] as usize] = to;
        cons_cursor[from as usize] += 1;
    }
    drop(raw);

    // Longest-path levels via an iterative Kahn sweep over consumer edges;
    // zero-indegree tasks seed the frontier in input order.
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| prod_offsets[i + 1] - prod_offsets[i])
        .collect();
    let mut levels = vec![0usize; n];
    let mut frontier: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut head = 0;
    let mut processed = 0usize;
    while head < frontier.len() {
        let i = frontier[head] as usize;
        head += 1;
        processed += 1;
        for &c in &cons_entries[cons_offsets[i] as usize..cons_offsets[i + 1] as usize] {
            let c = c as usize;
            levels[c] = levels[c].max(levels[i] + 1);
            indeg[c] -= 1;
            if indeg[c] == 0 {
                frontier.push(c as u32);
            }
        }
    }
    if processed < n {
        // Every unprocessed task still has an unprocessed producer, so
        // walking producers from any unprocessed task must revisit one —
        // and the revisited task provably sits on a cycle.
        let start = indeg.iter().position(|&d| d > 0).expect("unprocessed task");
        let mut seen = vec![false; n];
        let mut cur = start;
        loop {
            if seen[cur] {
                return Err(GraphError::Cycle(tasks[cur].name.clone()));
            }
            seen[cur] = true;
            cur = prod_entries[prod_offsets[cur] as usize..prod_offsets[cur + 1] as usize]
                .iter()
                .map(|&(p, _)| p as usize)
                .find(|&p| indeg[p] > 0)
                .expect("cycle member has an unprocessed producer");
        }
    }

    // Place tasks into phases, preserving input order within each phase.
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let mut phase_counts = vec![0u32; max_level + 1];
    let mut placed: Vec<TaskRef> = Vec::with_capacity(n);
    for &l in &levels {
        placed.push(TaskRef::new(l, phase_counts[l] as usize));
        phase_counts[l] += 1;
    }
    let mut phases: Vec<Phase> = phase_counts
        .iter()
        .map(|&c| Phase {
            tasks: Vec::with_capacity(c as usize),
        })
        .collect();
    if n == 0 {
        phases.clear();
    }
    for (i, mut task) in tasks.into_iter().enumerate() {
        let prods = &prod_entries[prod_offsets[i] as usize..prod_offsets[i + 1] as usize];
        task.deps = prods
            .iter()
            .map(|&(p, pattern)| TaskDep {
                producer: placed[p as usize],
                pattern,
            })
            .collect();
        phases[levels[i]].tasks.push(task);
    }

    // Every reference above was made here, so all are in range and the
    // task index can be built now, off the planner's hot path. The rest of
    // the structure (component counts, patterns, profiles) is
    // `CheckedWorkflow`'s to check.
    let workflow = Workflow::new(name, phases, initial_input_bytes);
    workflow.arena();
    Ok(workflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TaskProfile;

    fn t(name: &str, comps: usize) -> Task {
        Task::new(name, comps, TaskProfile::trivial())
    }

    #[test]
    fn diamond_graph_levels() {
        //    A
        //   / \
        //  B   C
        //   \ /
        //    D
        let w = from_task_graph(
            "diamond",
            vec![t("A", 1), t("B", 2), t("C", 2), t("D", 1)],
            vec![
                RawEdge::new("A", "B", DependencyPattern::AllToAll),
                RawEdge::new("A", "C", DependencyPattern::AllToAll),
                RawEdge::new("B", "D", DependencyPattern::AllToAll),
                RawEdge::new("C", "D", DependencyPattern::AllToAll),
            ],
            0.0,
        )
        .expect("valid");
        assert_eq!(w.phases.len(), 3);
        assert_eq!(w.phases[1].tasks.len(), 2); // B and C side by side
        let (d_ref, d) = w.task_by_name("D").expect("D exists");
        assert_eq!(d_ref.phase, 2);
        assert_eq!(d.deps.len(), 2);
    }

    #[test]
    fn longest_path_dominates_level() {
        // A -> B -> C, plus A -> C directly: C must land in phase 2.
        let w = from_task_graph(
            "lp",
            vec![t("A", 1), t("B", 1), t("C", 1)],
            vec![
                RawEdge::new("A", "B", DependencyPattern::OneToOne),
                RawEdge::new("B", "C", DependencyPattern::OneToOne),
                RawEdge::new("A", "C", DependencyPattern::OneToOne),
            ],
            0.0,
        )
        .expect("valid");
        assert_eq!(w.task_by_name("C").expect("C").0.phase, 2);
    }

    #[test]
    fn cycle_detected() {
        let err = from_task_graph(
            "cyc",
            vec![t("A", 1), t("B", 1)],
            vec![
                RawEdge::new("A", "B", DependencyPattern::OneToOne),
                RawEdge::new("B", "A", DependencyPattern::OneToOne),
            ],
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Cycle(_)));
    }

    #[test]
    fn unknown_task_detected() {
        let err = from_task_graph(
            "bad",
            vec![t("A", 1)],
            vec![RawEdge::new("A", "Z", DependencyPattern::OneToOne)],
            0.0,
        )
        .unwrap_err();
        assert_eq!(err, GraphError::UnknownTask("Z".into()));
    }

    #[test]
    fn independent_tasks_share_phase_zero() {
        let w = from_task_graph("par", vec![t("A", 1), t("B", 1)], vec![], 0.0).expect("valid");
        assert_eq!(w.phases.len(), 1);
        assert_eq!(w.phases[0].tasks.len(), 2);
    }
}
