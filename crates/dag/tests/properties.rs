//! Property-based tests of DAG invariants.

use mashup_dag::{
    from_json, from_task_graph, to_json, DependencyPattern, RawEdge, Task, TaskProfile,
    WorkflowBuilder,
};
use proptest::prelude::*;

/// Strategy: a random layered workflow with valid dependencies.
fn layered_workflow() -> impl Strategy<Value = mashup_dag::Workflow> {
    // Phases: 1..5, each with 1..4 tasks of 1..64 components, each non-first
    // task depending (AllToAll) on one random task of the previous phase.
    (
        proptest::collection::vec(proptest::collection::vec(1usize..64, 1..4), 1..5),
        any::<u64>(),
    )
        .prop_map(|(shape, seed)| {
            let mut b = WorkflowBuilder::new("prop");
            let mut prev: Vec<mashup_dag::TaskRef> = Vec::new();
            let mut counter = 0usize;
            for (pi, phase) in shape.iter().enumerate() {
                b.begin_phase();
                let mut current = Vec::new();
                for &comps in phase {
                    let t = b.add_task(Task::new(
                        format!("t{counter}"),
                        comps,
                        TaskProfile::trivial(),
                    ));
                    counter += 1;
                    if pi > 0 {
                        let pick = (seed as usize + counter) % prev.len();
                        b.depend(t, prev[pick], DependencyPattern::AllToAll);
                    }
                    current.push(t);
                }
                prev = current;
            }
            b.build()
        })
}

proptest! {
    /// Layered construction JSON round-trips.
    #[test]
    fn json_round_trip_preserves_workflow(w in layered_workflow()) {
        let json = to_json(&w);
        let back = from_json(&json).expect("round trip");
        prop_assert_eq!(w, back);
    }

    /// Component/width arithmetic is consistent.
    #[test]
    fn width_sums_match_component_count(w in layered_workflow()) {
        let sum: usize = w.phases.iter().map(|p| p.width()).sum();
        prop_assert_eq!(sum, w.component_count());
        prop_assert!(w.max_width() <= w.component_count());
        prop_assert!(w.max_width() >= 1);
    }

    /// Every dependency points strictly backwards in phase order.
    #[test]
    fn dependencies_point_backwards(w in layered_workflow()) {
        for r in w.task_refs() {
            for d in &w.task(r).deps {
                prop_assert!(d.producer.phase < r.phase);
            }
        }
    }

    /// Pattern expansion: every consumer component's producer indices are in
    /// range, and union over consumer components covers all producers for
    /// the surjective patterns.
    #[test]
    fn pattern_expansion_in_range(
        producer in 1usize..64,
        pattern_idx in 0usize..4,
    ) {
        use DependencyPattern::*;
        // Derive a compatible consumer count per pattern.
        let (pattern, consumer) = match pattern_idx {
            0 => (OneToOne, producer),
            1 => (AllToAll, (producer % 7) + 1),
            2 => (FanOutBlocks, producer * 3),
            _ => (FanInBlocks, {
                // pick a divisor of producer
                let mut d = 1;
                for c in (1..=producer).rev() {
                    if producer % c == 0 && c <= producer {
                        d = c;
                        break;
                    }
                }
                d
            }),
        };
        pattern.check(producer, consumer).expect("compatible by construction");
        let mut covered = vec![false; producer];
        for comp in 0..consumer {
            for p in pattern.producer_components(producer, consumer, comp) {
                prop_assert!(p < producer, "index {p} out of range {producer}");
                covered[p] = true;
            }
        }
        // All four patterns consume every producer component.
        prop_assert!(covered.iter().all(|&c| c), "pattern {pattern:?} left producers unread");
    }

    /// from_task_graph places every task at its longest-path level, so a
    /// chain of length n yields n phases.
    #[test]
    fn chain_graph_has_one_phase_per_task(n in 1usize..12) {
        let tasks: Vec<Task> = (0..n)
            .map(|i| Task::new(format!("t{i}"), 2, TaskProfile::trivial()))
            .collect();
        let edges: Vec<RawEdge> = (1..n)
            .map(|i| RawEdge::new(format!("t{}", i - 1), format!("t{i}"), DependencyPattern::OneToOne))
            .collect();
        let w = from_task_graph("chain", tasks, edges, 0.0).expect("valid chain");
        prop_assert_eq!(w.phases.len(), n);
        for p in &w.phases {
            prop_assert_eq!(p.tasks.len(), 1);
        }
    }
}
