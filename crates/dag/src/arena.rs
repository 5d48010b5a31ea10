//! Arena/SoA view of a workflow: flat task table and CSR edge storage in
//! both directions.
//!
//! The nested `Phase { Vec<Task> }` object graph is the right shape for
//! authoring and for the serde wire format, but traversal-heavy code (the
//! PDC planner, the boundary-tax refinement, graph derivation) wants flat
//! integer ids and contiguous adjacency slices. The
//! [`TaskArena`] provides exactly that as *derived* state: it is built once
//! per workflow (lazily, cached in a `OnceLock`) and never serialized, so
//! the wire format and all goldens stay byte-identical.
//!
//! Tasks are numbered flat in phase-major order (`flat = phase_start +
//! task`), matching [`Workflow::task_refs`](crate::Workflow::task_refs)
//! iteration order. The arena holds no names: code inside the planner and
//! the executor identifies a task by its flat id, and reads the name from
//! the task only where a report, a diagnostic or a trace record prints it.

use crate::pattern::DependencyPattern;
use crate::workflow::{TaskRef, Workflow};

/// Flat structure-of-arrays view over a workflow's tasks and edges.
///
/// Built by [`Workflow::arena`](crate::Workflow::arena); see the module
/// docs for the id scheme. Dependency edges must not be mutated after the
/// arena is built — clone the workflow instead, which resets it.
#[derive(Debug, Default)]
pub struct TaskArena {
    /// Flat id of the first task of each phase, plus a trailing total.
    phase_starts: Vec<u32>,
    /// Per-flat-id `TaskRef` (phase-major order).
    refs: Vec<TaskRef>,
    /// Per-flat-id component count.
    components: Vec<u32>,
    /// Consumer CSR: per-producer slice bounds into `cons_entries`.
    cons_offsets: Vec<u32>,
    /// All reverse edges grouped by producer; within a producer, consumers
    /// appear in phase order and dependency-declaration order (the same
    /// order the old per-call scan produced).
    cons_entries: Vec<(TaskRef, DependencyPattern)>,
    /// Producer CSR: per-consumer slice bounds into `prod_entries`.
    prod_offsets: Vec<u32>,
    /// Forward edges grouped by consumer, in declaration order; entries are
    /// `(flat producer id, pattern)`.
    prod_entries: Vec<(u32, DependencyPattern)>,
}

impl TaskArena {
    /// Builds the arena for `w`. Assumes dependency references are in range
    /// (checked workflows always are: `CheckedWorkflow` refuses a dangling
    /// one, M102); panics otherwise.
    pub(crate) fn build(w: &Workflow) -> Self {
        let mut phase_starts = Vec::with_capacity(w.phases.len() + 1);
        let mut acc = 0u32;
        for p in &w.phases {
            phase_starts.push(acc);
            acc += u32::try_from(p.tasks.len()).expect("phase width fits in u32");
        }
        phase_starts.push(acc);
        let n = acc as usize;

        let mut refs = Vec::with_capacity(n);
        let mut components = Vec::with_capacity(n);
        let mut n_edges = 0usize;
        for (pi, phase) in w.phases.iter().enumerate() {
            for (ti, t) in phase.tasks.iter().enumerate() {
                refs.push(TaskRef::new(pi, ti));
                components.push(u32::try_from(t.components).unwrap_or(u32::MAX));
                n_edges += t.deps.len();
            }
        }

        // Producer CSR: counting pass, prefix sum, then a fill pass that
        // preserves each consumer's dependency-declaration order.
        let flat_of = |r: TaskRef| phase_starts[r.phase] as usize + r.task;
        let mut prod_offsets = vec![0u32; n + 1];
        let mut cons_offsets = vec![0u32; n + 1];
        for (flat, r) in refs.iter().enumerate() {
            let deps = &w.phases[r.phase].tasks[r.task].deps;
            prod_offsets[flat + 1] = deps.len() as u32;
            for d in deps {
                cons_offsets[flat_of(d.producer) + 1] += 1;
            }
        }
        for i in 1..=n {
            prod_offsets[i] += prod_offsets[i - 1];
            cons_offsets[i] += cons_offsets[i - 1];
        }
        let mut prod_entries = vec![(0u32, DependencyPattern::AllToAll); n_edges];
        let mut cons_entries = vec![(TaskRef::new(0, 0), DependencyPattern::AllToAll); n_edges];
        let mut cons_cursor: Vec<u32> = cons_offsets[..n].to_vec();
        let mut prod_cursor = 0usize;
        // Iterating consumers in flat order makes each producer's consumer
        // slice come out in phase/declaration order — identical to the
        // stable sort the previous `ConsumerIndex` used.
        for (flat, r) in refs.iter().enumerate() {
            for d in &w.phases[r.phase].tasks[r.task].deps {
                let p = flat_of(d.producer);
                prod_entries[prod_cursor] = (p as u32, d.pattern);
                prod_cursor += 1;
                cons_entries[cons_cursor[p] as usize] = (refs[flat], d.pattern);
                cons_cursor[p] += 1;
            }
        }

        TaskArena {
            phase_starts,
            refs,
            components,
            cons_offsets,
            cons_entries,
            prod_offsets,
            prod_entries,
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.refs.len()
    }

    /// Flat id for a task reference, or `None` if out of range.
    pub fn flat(&self, r: TaskRef) -> Option<usize> {
        let &start = self.phase_starts.get(r.phase)?;
        let end = *self.phase_starts.get(r.phase + 1)?;
        let flat = start as usize + r.task;
        (flat < end as usize).then_some(flat)
    }

    /// The `TaskRef` for a flat id. Panics if out of range.
    pub fn task_ref(&self, flat: usize) -> TaskRef {
        self.refs[flat]
    }

    /// Component count of a task. Panics if out of range.
    pub fn components(&self, flat: usize) -> usize {
        self.components[flat] as usize
    }

    /// The tasks that consume `producer`'s output, with patterns, in phase
    /// order. Out-of-range producers have no consumers.
    pub fn consumers(&self, producer: TaskRef) -> &[(TaskRef, DependencyPattern)] {
        let Some(flat) = self.flat(producer) else {
            return &[];
        };
        &self.cons_entries[self.cons_offsets[flat] as usize..self.cons_offsets[flat + 1] as usize]
    }

    /// The producers a task depends on, in declaration order, as
    /// `(flat producer id, pattern)`. Panics if out of range.
    pub fn producers(&self, flat: usize) -> &[(u32, DependencyPattern)] {
        &self.prod_entries[self.prod_offsets[flat] as usize..self.prod_offsets[flat + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use crate::profile::TaskProfile;
    use crate::workflow::Task;

    fn layered() -> Workflow {
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
        b.build()
    }

    #[test]
    fn flat_ids_follow_phase_major_order() {
        let w = layered();
        let arena = w.arena();
        assert_eq!(arena.task_count(), 5);
        for (i, r) in w.task_refs().enumerate() {
            assert_eq!(arena.flat(r), Some(i));
            assert_eq!(arena.task_ref(i), r);
            assert_eq!(arena.components(i), w.task(r).components);
        }
        assert_eq!(arena.flat(TaskRef::new(9, 0)), None);
        assert_eq!(arena.flat(TaskRef::new(0, 9)), None);
    }

    #[test]
    fn producers_mirror_declared_deps() {
        let w = layered();
        let arena = w.arena();
        for (flat, r) in w.task_refs().enumerate() {
            let deps = &w.task(r).deps;
            let prods = arena.producers(flat);
            assert_eq!(prods.len(), deps.len());
            for (got, want) in prods.iter().zip(deps) {
                assert_eq!(arena.task_ref(got.0 as usize), want.producer);
                assert_eq!(got.1, want.pattern);
            }
        }
    }

    #[test]
    fn name_lookup_keeps_the_first_occurrence() {
        // Duplicate names are invalid workflows but lookups must still be
        // well-defined for diagnostics: the first occurrence wins.
        let w = Workflow::new(
            "dup",
            vec![crate::workflow::Phase {
                tasks: vec![
                    Task::new("X", 1, TaskProfile::trivial()),
                    Task::new("X", 2, TaskProfile::trivial()),
                ],
            }],
            0.0,
        );
        let (r, t) = w.task_by_name("X").expect("found");
        assert_eq!((r, t.components), (TaskRef::new(0, 0), 1));
        assert_eq!(w.flat_by_name("X"), Some(0));
    }

    #[test]
    fn name_lookup_agrees_with_flat_ids() {
        let w = layered();
        let (r, t) = w.task_by_name("D").expect("found");
        assert_eq!(r, TaskRef::new(1, 1));
        assert_eq!(t.name, "D");
        assert_eq!(w.flat_by_name("D"), w.arena().flat(r));
        assert!(w.task_by_name("missing").is_none());
        assert!(w.flat_by_name("missing").is_none());
    }
}
