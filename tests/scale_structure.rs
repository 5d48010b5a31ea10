//! Structural tests for the arena/SoA rework.
//!
//! The flat raw-graph path (`from_task_graph`) and the nested builder path
//! are two ways of authoring the same workflow. They must agree exactly —
//! same phases, same dependency lists, and same per-task planning
//! fingerprints (the values the plan cache keys its stages by) — and the
//! raw-graph path must stay O(V + E) at 100k tasks.

use mashup_bench::scale::{self, Shape};
use mashup_core::Fingerprint;
use mashup_dag::{
    from_task_graph, DependencyPattern, RawEdge, Task, TaskProfile, Workflow, WorkflowBuilder,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Strategy: a random layered workflow in which every non-source task
/// depends on a previous-phase task. That pins each task's longest-path
/// level to its phase index, so the builder's explicit phases and
/// `from_task_graph`'s derived levels must coincide exactly. Per-task
/// compute times vary so fingerprints are task-specific, not shape-wide.
fn layered_workflow() -> impl Strategy<Value = Workflow> {
    (
        proptest::collection::vec(proptest::collection::vec(1usize..6, 1..5), 1..6),
        any::<u64>(),
    )
        .prop_map(|(shape, seed)| {
            let mut b = WorkflowBuilder::new("prop-scale");
            let mut prev: Vec<mashup_dag::TaskRef> = Vec::new();
            let mut counter = 0usize;
            for (pi, widths) in shape.iter().enumerate() {
                b.begin_phase();
                let mut current = Vec::new();
                for &comps in widths {
                    let profile = TaskProfile::trivial()
                        .compute(1.0 + counter as f64)
                        .family("prop");
                    let t = b.add_task(Task::new(format!("t{counter}"), comps, profile));
                    counter += 1;
                    if pi > 0 {
                        let pick = (seed as usize + counter) % prev.len();
                        b.depend(t, prev[pick], DependencyPattern::AllToAll);
                    }
                    current.push(t);
                }
                prev = current;
            }
            b.build().expect("layered construction is always valid")
        })
}

/// Flattens a workflow back to (tasks, raw edges) and rebuilds it through
/// `from_task_graph`, the path the scale generators and external graph
/// importers use.
fn rebuild_via_raw_graph(w: &Workflow) -> Workflow {
    let mut tasks = Vec::with_capacity(w.task_count());
    let mut edges = Vec::new();
    for r in w.task_refs() {
        let t = w.task(r);
        tasks.push(Task::new(t.name.clone(), t.components, t.profile.clone()));
        for d in &t.deps {
            edges.push(RawEdge::new(
                w.task(d.producer).name.clone(),
                t.name.clone(),
                d.pattern,
            ));
        }
    }
    from_task_graph(w.name.clone(), tasks, edges, w.initial_input_bytes)
        .expect("rebuilding a valid workflow is valid")
}

proptest! {
    /// Builder-built and raw-graph-built workflows are structurally
    /// identical: same phases, same deps, same fingerprints, and their
    /// arena views (interned names, consumer CSR) agree entry for entry.
    #[test]
    fn raw_graph_rebuild_is_structurally_identical(w in layered_workflow()) {
        let rebuilt = rebuild_via_raw_graph(&w);

        // Phases and dependency lists (Task includes deps in its equality).
        prop_assert_eq!(&rebuilt, &w);

        // Fingerprints: the whole workflow and each task individually.
        prop_assert_eq!(
            rebuilt.fingerprint_digest("arena-prop"),
            w.fingerprint_digest("arena-prop")
        );
        for r in w.task_refs() {
            prop_assert_eq!(
                rebuilt.task(r).fingerprint_digest("arena-prop-task"),
                w.task(r).fingerprint_digest("arena-prop-task")
            );
        }

        // Arena views agree: flat ids, names, and consumer slices.
        let (a, b) = (w.arena(), rebuilt.arena());
        prop_assert_eq!(a.task_count(), b.task_count());
        prop_assert_eq!(a.symbol_count(), b.symbol_count());
        for (flat, r) in w.task_refs().enumerate() {
            prop_assert_eq!(a.flat(r), Some(flat));
            prop_assert_eq!(b.flat(r), Some(flat));
            prop_assert_eq!(a.name(flat), b.name(flat));
            prop_assert_eq!(a.consumers(r), b.consumers(r));
        }
    }
}

/// `from_task_graph` is O(V + E): a 100k-task fan-out (the widest shape,
/// where any per-edge rescan of the splitter's consumer list would be
/// quadratic) must build — including arena derivation — in bounded wall
/// time even in debug builds. The pre-rework quadratic paths took minutes
/// here; the bound below is ~20x the observed debug-mode time, so it only
/// trips on complexity regressions, not machine noise.
#[test]
fn from_task_graph_builds_100k_tasks_in_bounded_time() {
    let start = Instant::now();
    let (tasks, edges) = scale::raw_graph(Shape::FanOut, 100_000);
    let w = from_task_graph("smoke-100k", tasks, edges, 1.0e6).expect("valid fan-out");
    let arena = w.arena();
    let elapsed = start.elapsed();

    assert_eq!(w.task_count(), 100_000);
    assert_eq!(w.phases.len(), 3);
    assert_eq!(arena.task_count(), 100_000);
    // src feeds every worker; workers each feed the sink.
    assert_eq!(
        arena.consumers(mashup_dag::TaskRef::new(0, 0)).len(),
        99_998
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "100k-task build took {elapsed:?}; expected well under 30s"
    );
}
